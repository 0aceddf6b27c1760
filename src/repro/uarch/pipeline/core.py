"""Trace-driven out-of-order superscalar core (Turandot-style).

One :class:`OutOfOrderCore` simulates one trace on one configuration.
The pipeline models the structures Tables IV-VI parameterize:

* frontend: I-cache, direction predictor + NFA/BTB, instruction buffer,
  fetch-group breaks on taken branches, a cap on in-flight predicted
  branches, and fetch stall on unresolved mispredictions;
* dispatch: physical-register (GPR/VPR/FPR) allocation, per-unit issue
  queues, in-flight and reorder-queue capacity;
* issue/execute: per-class unit pools (fully pipelined), wakeup lists
  driven by producer completion, D-cache read/write ports, MSHR-limited
  outstanding misses, two-level data cache with memory behind it;
* retire: in-order, bounded width.

Wrong-path execution is not replayed (the trace has no wrong path);
mispredictions stall fetch until the branch resolves plus the recovery
time, which is the trace-driven Turandot approach.

Stall accounting: each cycle dispatch moves fewer instructions than its
width, one trauma is charged for the blocking reason, with blame
forwarded to the head of whichever structure is stuck (see
:mod:`repro.uarch.traumas`).

The hot loop runs against the trace's decode plane
(:mod:`repro.uarch.pipeline.decode`): per-instruction facts live in
plain Python lists indexed by trace position, completion events sit in
a timing wheel (a calendar queue sized to the worst-case latency
instead of a dict keyed by cycle), and wakeup lists are preallocated
per producer.  All of this is pure mechanism — cycle-for-cycle results
are identical to the original object-per-instruction implementation,
which the golden-snapshot tests pin down.
"""

from __future__ import annotations

from collections import deque

from repro.isa.opcodes import FunctionalUnit
from repro.isa.trace import Trace
from repro.uarch.branch.btb import BranchTargetBuffer
from repro.uarch.branch.predictors import CombinedPredictor, create_predictor
from repro.uarch.caches import MemoryHierarchy
from repro.uarch.config import ProcessorConfig
from repro.uarch.pipeline.decode import decode_trace
from repro.uarch.results import BranchResult, CacheResult, SimulationResult
from repro.uarch.traumas import (
    Trauma,
    TraumaAccount,
    diq_trauma,
    ful_trauma,
    rg_trauma,
)

#: Unit-indexed trauma lookup tuples (FunctionalUnit values are 0..7).
_RG_OF = tuple(rg_trauma(fu) for fu in FunctionalUnit)
_FUL_OF = tuple(ful_trauma(fu) for fu in FunctionalUnit)
_DIQ_OF = tuple(diq_trauma(fu) for fu in FunctionalUnit)

_N_UNITS = len(FunctionalUnit)
_LDST = int(FunctionalUnit.LDST)

#: Queues tracked for Fig. 10 occupancy histograms.
_TRACKED_QUEUES: tuple[tuple[str, int], ...] = (
    ("FIX-Q", int(FunctionalUnit.FX)),
    ("MEM-Q", _LDST),
    ("BR-Q", int(FunctionalUnit.BR)),
    ("VI-Q", int(FunctionalUnit.VI)),
    ("VPER-Q", int(FunctionalUnit.VPER)),
)


class OutOfOrderCore:
    """One simulation instance (single use: build, ``run()``, read result)."""

    def __init__(
        self,
        trace: Trace,
        config: ProcessorConfig,
        track_occupancy: bool = False,
    ) -> None:
        self.trace = trace
        self.config = config
        self.track_occupancy = track_occupancy
        self.hierarchy = MemoryHierarchy(config.memory)
        self.traumas = TraumaAccount()
        branch = config.branch
        self.perfect_bp = branch.kind == "perfect"
        self.predictor = (
            None if self.perfect_bp else create_predictor(
                branch.kind, branch.table_entries
            )
        )
        self.btb = BranchTargetBuffer(
            branch.btb_entries, branch.btb_associativity, branch.btb_miss_penalty
        )
        self.branch_predictions = 0
        self.branch_correct = 0
        self._plane = None

    def run(self, max_cycles: int | None = None) -> SimulationResult:
        """Simulate to completion; returns the aggregated result."""
        plane = decode_trace(self.trace)
        self._plane = plane
        n = plane.n
        config = self.config
        branch_config = config.branch
        memory = config.memory
        iq_capacity = config.issue_queue_size
        hierarchy = self.hierarchy
        memory_is_ideal = memory.dl1.is_ideal and memory.l2.is_ideal

        # Decode-plane columns (plain lists: fastest interpreter indexing).
        fu_of = plane.fu
        base_latency = plane.latency
        regfile_of = plane.regfile
        is_load = plane.is_load
        is_store = plane.is_store
        is_branch = plane.is_branch
        is_vload = plane.is_vload
        lines = plane.line
        pcs = plane.pc
        addresses = plane.address
        sizes = plane.size
        takens = plane.taken
        targets = plane.target
        words_of = plane.words
        distances_of = plane.distances

        # Per-instruction state.
        done = bytearray(n)
        issued = bytearray(n)
        pending_sources = [0] * n
        #: producer index -> list of dispatched consumers awaiting it.
        waiters: list[list[int] | None] = [None] * n
        #: in-flight memory stall: index -> (trauma, uses an MSHR).
        miss_info: dict[int, tuple[Trauma, bool]] = {}
        miss_info_pop = miss_info.pop
        miss_info_get = miss_info.get
        #: 8-byte word -> youngest in-flight store writing it.
        pending_store_words: dict[int, int] = {}
        store_word_get = pending_store_words.get
        store_queue_used = 0

        # Structures.  Fetch, dispatch, and retire all advance in trace
        # order, so the instruction buffer and the reorder queue are
        # always contiguous index ranges — two integer cursors each
        # replace the deques the original implementation carried.
        ibuf_head = 0      # oldest ibuffer entry; tail is fetch_index
        rob_head = 0       # oldest in-flight instruction
        rob_next = 0       # one past the youngest dispatched
        iq: list[deque[int]] = [deque() for _ in range(_N_UNITS)]
        iq_count: list[int] = [0] * _N_UNITS
        iq_append = [queue.append for queue in iq]
        ready: list[deque[int]] = [deque() for _ in range(_N_UNITS)]
        ready_append = [queue.append for queue in ready]
        ready_total = 0     # entries across all eight ready queues
        capacity_of: list[int] = [
            config.units.get(fu, 0) for fu in FunctionalUnit
        ]
        free_regs = [config.gpr, config.vpr, config.fpr]
        outstanding_misses = 0
        max_misses = config.max_outstanding_misses
        inflight = 0
        predicted_branches = 0

        # D-cache ports: each access occupies a port for the L1 access
        # time (the array is not pipelined), so raising the hit latency
        # also cuts load/store bandwidth — the effect behind Fig. 7's
        # sensitivity of load-heavy SIMD code.
        dl1_latency = max(1, memory.dl1.latency)
        read_port_free = [0] * config.dcache_read_ports
        write_port_free = [0] * config.dcache_write_ports
        read_ports = len(read_port_free)
        write_ports = len(write_port_free)

        # Completion events live in a timing wheel: slot = cycle mod
        # wheel size.  Sized past the worst-case scheduled latency
        # (memory round trip + TLB walk + wide-load extra + pipeline
        # latencies), no event can ever wrap onto an occupied slot.
        recovery = branch_config.mispredict_recovery
        wide_extra = config.wide_load_extra_latency
        horizon = (
            8
            + memory.dl1.latency
            + memory.l2.latency
            + memory.memory_latency
            + memory.dtlb.miss_penalty
            + wide_extra
        )
        wheel_mask = (1 << horizon.bit_length()) - 1
        wheel: list[list[int]] = [[] for _ in range(wheel_mask + 1)]

        # Frontend state.
        fetch_index = 0
        fetch_stall_until = 0
        fetch_reason = Trauma.DECODE
        wait_branch = -1           # unresolved mispredicted branch index
        last_fetch_line = -1
        max_predicted = branch_config.max_predicted_branches
        btb_miss_penalty = branch_config.btb_miss_penalty
        ibuffer_cap = config.ibuffer_size

        # Hot callables and widths bound once.
        access_data = hierarchy.access_data
        access_inst = hierarchy.access_inst
        dl1_probe = hierarchy.dl1.probe
        btb_lookup = self.btb.lookup
        btb_install = self.btb.install
        perfect_bp = self.perfect_bp
        predictor = None if perfect_bp else self.predictor
        predict_and_update = (
            None if predictor is None else predictor.predict_and_update
        )
        # The combined (GP) predictor is the default configuration, so
        # its fused predict-and-train step is inlined into the fetch
        # loop below; state transitions mirror
        # CombinedPredictor.predict_and_update exactly.  Only the
        # gshare history register is kept in a local (written back in
        # the ``finally``); the counter tables are mutated in place.
        inline_gp = type(predictor) is CombinedPredictor
        if inline_gp:
            gp_gshare = predictor.gshare
            gp_bimodal = predictor.bimodal
            g_counters = gp_gshare._counters
            g_mask = gp_gshare._mask
            g_history = gp_gshare._history
            g_history_mask = gp_gshare._history_mask
            b_counters = gp_bimodal._counters
            b_mask = gp_bimodal._mask
            gp_chooser = predictor._chooser
            gp_mask = predictor._mask
        trauma_cycles = self.traumas.cycles
        trauma_cycles_get = trauma_cycles.get
        track_occupancy = self.track_occupancy
        fetch_width = config.fetch_width
        dispatch_width = config.dispatch_width
        retire_width = config.retire_width
        retire_queue = config.retire_queue
        inflight_cap = config.inflight
        store_queue_size = config.store_queue_size
        branch_predictions = self.branch_predictions
        branch_correct = self.branch_correct

        # Statistics.
        occupancy: dict[str, dict[int, int]] = {
            name: {} for name, _ in _TRACKED_QUEUES
        }
        occupancy["INFLIGHT"] = {}
        occupancy["RETIREQ"] = {}

        retired = 0
        cycle = 0
        cycle_limit = float("inf") if max_cycles is None else max_cycles

        try:
            while retired < n:
                cycle += 1
                if cycle > cycle_limit:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles "
                        f"({retired}/{n} retired)"
                    )

                # ---------------- completion ----------------------------
                slot = cycle & wheel_mask
                finishing = wheel[slot]
                if finishing:
                    # Swap-don't-clear keeps `finishing` valid while the
                    # slot is reopened; one small list per event-bearing
                    # cycle only.
                    wheel[slot] = []  # repolint: disable=REP008
                    for index in finishing:
                        done[index] = 1
                        inflight -= 1
                        if is_load[index]:
                            info = miss_info_pop(index, None)
                            if info is not None and info[1]:
                                outstanding_misses -= 1
                        elif is_store[index]:
                            for word in words_of[index]:
                                if store_word_get(word) == index:
                                    del pending_store_words[word]
                        if is_branch[index]:
                            predicted_branches -= 1
                            if index == wait_branch:
                                wait_branch = -1
                                resume = cycle + recovery
                                if resume > fetch_stall_until:
                                    fetch_stall_until = resume
                                fetch_reason = Trauma.IF_PRED
                        wakeup = waiters[index]
                        if wakeup is not None:
                            waiters[index] = None
                            for waiter in wakeup:
                                pending = pending_sources[waiter] - 1
                                pending_sources[waiter] = pending
                                if pending == 0 and not issued[waiter]:
                                    ready_append[fu_of[waiter]](waiter)
                                    ready_total += 1

                # ---------------- retire --------------------------------
                retire_budget = retire_width
                while rob_head < rob_next and retire_budget and done[rob_head]:
                    regfile = regfile_of[rob_head]
                    if regfile >= 0:
                        free_regs[regfile] += 1
                    if is_store[rob_head]:
                        # The store-queue slot drains at retire.
                        store_queue_used -= 1
                    rob_head += 1
                    retired += 1
                    retire_budget -= 1
                if retired >= n:
                    if track_occupancy:
                        self._record_occupancy(
                            occupancy, iq_count, inflight,
                            rob_next - rob_head,
                        )
                    break

                # ---------------- issue / execute -----------------------
                lsu_block: Trauma | None = None
                for fu in range(_N_UNITS) if ready_total else ():
                    ready_queue = ready[fu]
                    if not ready_queue:
                        continue
                    capacity = capacity_of[fu]
                    issued_here = 0
                    # Small (bounded by issue width) and only on cycles
                    # where this FU has ready work.
                    deferred: list[int] = []  # repolint: disable=REP008
                    while ready_queue and issued_here < capacity:
                        index = ready_queue.popleft()
                        ready_total -= 1
                        latency = base_latency[index]
                        if is_load[index]:
                            # An older in-flight store to the same word
                            # blocks the load (no speculative bypass).
                            alias = -1
                            for word in words_of[index]:
                                store = store_word_get(word, -1)
                                if (
                                    store >= 0
                                    and store < index
                                    and not done[store]
                                ):
                                    alias = store
                                    break
                            if alias >= 0:
                                lsu_block = Trauma.ST_DATA
                                deferred.append(index)
                                continue
                            is_wide = wide_extra and is_vload[index]
                            port_busy = dl1_latency + (
                                wide_extra if is_wide else 0
                            )
                            port = -1
                            for candidate in range(read_ports):
                                if read_port_free[candidate] <= cycle:
                                    read_port_free[candidate] = (
                                        cycle + port_busy
                                    )
                                    port = candidate
                                    break
                            if port < 0:
                                deferred.append(index)
                                break
                            if (
                                not memory_is_ideal
                                and outstanding_misses >= max_misses
                                and not dl1_probe(addresses[index])
                            ):
                                lsu_block = Trauma.MM_DMQF
                                read_port_free[port] = cycle  # release
                                deferred.append(index)
                                continue
                            access_latency, level, tlb_missed = access_data(
                                addresses[index], sizes[index]
                            )
                            if level != 1:
                                trauma = (
                                    Trauma.MM_DL1
                                    if level == 2
                                    else Trauma.MM_DL2
                                )
                                miss_info[index] = (trauma, True)
                                outstanding_misses += 1
                            elif tlb_missed:
                                miss_info[index] = (Trauma.MM_TLB1, False)
                            latency = 1 + access_latency
                            if is_wide:
                                latency += wide_extra
                        elif is_store[index]:
                            port = -1
                            for candidate in range(write_ports):
                                if write_port_free[candidate] <= cycle:
                                    write_port_free[candidate] = (
                                        cycle + dl1_latency
                                    )
                                    port = candidate
                                    break
                            if port < 0:
                                deferred.append(index)
                                break
                            access_data(addresses[index], sizes[index])
                            for word in words_of[index]:
                                pending_store_words[word] = index
                        issued[index] = 1
                        iq_count[fu] -= 1
                        issued_here += 1
                        wheel[(cycle + latency) & wheel_mask].append(index)
                    for index in reversed(deferred):
                        ready_queue.appendleft(index)
                    ready_total += len(deferred)

                # ---------------- dispatch ------------------------------
                dispatched = 0
                block_reason: Trauma | None = None
                while dispatched < dispatch_width and ibuf_head < fetch_index:
                    index = ibuf_head
                    fu = fu_of[index]
                    if iq_count[fu] >= iq_capacity:
                        block_reason = self._blame_queue(
                            fu, iq[fu], issued, pending_sources, done,
                            lsu_block,
                        )
                        break
                    regfile = regfile_of[index]
                    if regfile >= 0 and free_regs[regfile] == 0:
                        # Physical registers free at retire, so exhaustion
                        # means the window is clogged: blame its head.
                        block_reason = self._blame_rob(
                            rob_head, rob_next, issued, pending_sources,
                            done, miss_info,
                        )
                        if block_reason == Trauma.OTHER:
                            block_reason = Trauma.RENAME
                        break
                    if (
                        rob_next - rob_head >= retire_queue
                        or inflight >= inflight_cap
                    ):
                        block_reason = self._blame_rob(
                            rob_head, rob_next, issued, pending_sources,
                            done, miss_info,
                        )
                        break
                    if is_store[index]:
                        # Store-queue slots are allocated in program order
                        # at dispatch and drain at retire.
                        if store_queue_used >= store_queue_size:
                            block_reason = Trauma.MM_STQF
                            break
                        store_queue_used += 1
                    # All resources available: dispatch.
                    ibuf_head += 1
                    if regfile >= 0:
                        free_regs[regfile] -= 1
                    rob_next += 1
                    inflight += 1
                    iq_count[fu] += 1
                    iq_append[fu](index)
                    pending = 0
                    for back in distances_of[index]:
                        source = index - back
                        if not done[source]:
                            pending += 1
                            wakeup = waiters[source]
                            if wakeup is None:
                                # First waiter on a producer: the list is
                                # reused for every later waiter.
                                waiters[source] = [index]  # repolint: disable=REP008
                            else:
                                wakeup.append(index)
                    pending_sources[index] = pending
                    if pending == 0:
                        ready_append[fu](index)
                        ready_total += 1
                    dispatched += 1

                if dispatched < dispatch_width:
                    if block_reason is None:
                        # Instruction buffer ran dry: frontend's fault.
                        block_reason = fetch_reason
                    trauma_cycles[block_reason] = (
                        trauma_cycles_get(block_reason, 0) + 1
                    )

                # ---------------- fetch ---------------------------------
                if (
                    wait_branch < 0
                    and cycle >= fetch_stall_until
                    and fetch_index < n
                ):
                    fetch_budget = fetch_width
                    while fetch_budget and fetch_index < n:
                        if fetch_index - ibuf_head >= ibuffer_cap:
                            fetch_reason = Trauma.IF_FULL
                            break
                        line = lines[fetch_index]
                        if line != last_fetch_line:
                            fetch_latency, level, tlb_missed = access_inst(
                                pcs[fetch_index]
                            )
                            last_fetch_line = line
                            if level != 1 or tlb_missed:
                                fetch_stall_until = cycle + fetch_latency
                                if level == 1:
                                    fetch_reason = Trauma.IF_TLB1
                                elif level == 2:
                                    fetch_reason = Trauma.IF_L1
                                else:
                                    fetch_reason = Trauma.IF_L2
                                break
                        if is_branch[fetch_index]:
                            if predicted_branches >= max_predicted:
                                fetch_reason = Trauma.IF_BRCH
                                break
                            taken = takens[fetch_index]
                            branch_predictions += 1
                            if perfect_bp:
                                correct = True
                            elif inline_gp:
                                pc2 = pcs[fetch_index] >> 2
                                g_index = (pc2 ^ g_history) & g_mask
                                g_pred = g_counters[g_index] >= 2
                                b_index = pc2 & b_mask
                                b_pred = b_counters[b_index] >= 2
                                c_index = pc2 & gp_mask
                                predicted = (
                                    g_pred
                                    if gp_chooser[c_index] >= 2
                                    else b_pred
                                )
                                g_right = g_pred == taken
                                if g_right != (b_pred == taken):
                                    counter = gp_chooser[c_index]
                                    if g_right:
                                        if counter < 3:
                                            gp_chooser[c_index] = counter + 1
                                    elif counter > 0:
                                        gp_chooser[c_index] = counter - 1
                                counter = g_counters[g_index]
                                if taken:
                                    if counter < 3:
                                        g_counters[g_index] = counter + 1
                                elif counter > 0:
                                    g_counters[g_index] = counter - 1
                                g_history = (
                                    (g_history << 1) | taken
                                ) & g_history_mask
                                counter = b_counters[b_index]
                                if taken:
                                    if counter < 3:
                                        b_counters[b_index] = counter + 1
                                elif counter > 0:
                                    b_counters[b_index] = counter - 1
                                correct = predicted == taken
                            else:
                                correct = (
                                    predict_and_update(
                                        pcs[fetch_index], taken
                                    )
                                    == taken
                                )
                            if correct:
                                branch_correct += 1
                            predicted_branches += 1
                            fetch_index += 1
                            fetch_budget -= 1
                            if not correct:
                                wait_branch = fetch_index - 1
                                fetch_reason = Trauma.IF_PRED
                                break
                            if taken:
                                # Fetch group breaks at taken branches; the
                                # NFA provides (or misses) the target.
                                branch = fetch_index - 1
                                target = btb_lookup(pcs[branch])
                                if target is None:
                                    btb_install(pcs[branch], targets[branch])
                                    fetch_stall_until = (
                                        cycle + btb_miss_penalty
                                    )
                                    fetch_reason = Trauma.IF_NFA
                                break
                            continue
                        fetch_index += 1
                        fetch_budget -= 1

                # ---------------- statistics ----------------------------
                if track_occupancy:
                    self._record_occupancy(
                        occupancy, iq_count, inflight, rob_next - rob_head
                    )

                # ---------------- stall fast-forward --------------------
                # When the machine is provably idle — nothing ready to
                # issue, retire blocked on an unfinished head, dispatch
                # blocked (or starved) by conditions only a completion
                # can clear, and fetch unable to run — every cycle until
                # the next timing-wheel event (or fetch resume) repeats
                # the exact same bookkeeping: charge one trauma.  Batch
                # those cycles instead of walking the pipeline for each.
                if (
                    dispatched < dispatch_width
                    and not ready_total
                    and (rob_head == rob_next or not done[rob_head])
                ):
                    if ibuf_head < fetch_index:
                        # Would dispatch still be blocked next cycle?
                        # Mirror the dispatch checks exactly (with no
                        # issue activity, lsu_block is None).
                        index = ibuf_head
                        fu = fu_of[index]
                        regfile = regfile_of[index]
                        if iq_count[fu] >= iq_capacity:
                            skip_reason = self._blame_queue(
                                fu, iq[fu], issued, pending_sources,
                                done, None,
                            )
                        elif regfile >= 0 and free_regs[regfile] == 0:
                            skip_reason = self._blame_rob(
                                rob_head, rob_next, issued,
                                pending_sources, done, miss_info,
                            )
                            if skip_reason == Trauma.OTHER:
                                skip_reason = Trauma.RENAME
                        elif (
                            rob_next - rob_head >= retire_queue
                            or inflight >= inflight_cap
                        ):
                            skip_reason = self._blame_rob(
                                rob_head, rob_next, issued,
                                pending_sources, done, miss_info,
                            )
                        elif (
                            is_store[index]
                            and store_queue_used >= store_queue_size
                        ):
                            skip_reason = Trauma.MM_STQF
                        else:
                            skip_reason = None
                    else:
                        skip_reason = fetch_reason
                    if skip_reason is not None:
                        fetch_live = (
                            wait_branch < 0
                            and fetch_index < n
                            and fetch_index - ibuf_head < ibuffer_cap
                        )
                        if fetch_live:
                            bound = fetch_stall_until
                        else:
                            bound = cycle + wheel_mask + 1
                        if cycle_limit < bound:
                            bound = cycle_limit + 1
                        scan = bound - cycle - 1
                        if scan > wheel_mask:
                            scan = wheel_mask
                        skip_to = bound
                        for ahead in range(1, scan + 1):
                            if wheel[(cycle + ahead) & wheel_mask]:
                                skip_to = cycle + ahead
                                break
                        skipped = skip_to - cycle - 1
                        if skipped > 0:
                            trauma_cycles[skip_reason] = (
                                trauma_cycles_get(skip_reason, 0) + skipped
                            )
                            if track_occupancy:
                                self._record_occupancy(
                                    occupancy, iq_count, inflight,
                                    rob_next - rob_head, skipped,
                                )
                            if (
                                fetch_index - ibuf_head >= ibuffer_cap
                                and wait_branch < 0
                                and fetch_index < n
                                and fetch_stall_until <= skip_to - 1
                            ):
                                # Real execution would have re-marked
                                # the full buffer on each skipped cycle.
                                fetch_reason = Trauma.IF_FULL
                            cycle += skipped
        finally:
            self.branch_predictions = branch_predictions
            self.branch_correct = branch_correct
            if inline_gp:
                gp_gshare._history = g_history

        return SimulationResult(
            trace_name=self.trace.name,
            config_name=config.name,
            memory_name=config.memory.name,
            instructions=n,
            cycles=cycle,
            traumas=self.traumas.as_histogram(),
            branch=BranchResult(
                predictions=self.branch_predictions,
                correct=self.branch_correct,
                btb_lookups=self.btb.lookups,
                btb_misses=self.btb.misses,
            ),
            il1=CacheResult(hierarchy.il1.accesses, hierarchy.il1.misses),
            dl1=CacheResult(hierarchy.dl1.accesses, hierarchy.dl1.misses),
            l2=CacheResult(hierarchy.l2.accesses, hierarchy.l2.misses),
            itlb=CacheResult(hierarchy.itlb.lookups, hierarchy.itlb.misses),
            dtlb=CacheResult(hierarchy.dtlb.lookups, hierarchy.dtlb.misses),
            queue_occupancy=occupancy if self.track_occupancy else {},
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _record_occupancy(
        occupancy: dict[str, dict[int, int]],
        iq_count: list[int],
        inflight: int,
        rob_size: int,
        cycles: int = 1,
    ) -> None:
        """Add ``cycles`` cycles' structure occupancies to the histograms."""
        for name, fu in _TRACKED_QUEUES:
            histogram = occupancy[name]
            value = iq_count[fu]
            histogram[value] = histogram.get(value, 0) + cycles
        histogram = occupancy["INFLIGHT"]
        histogram[inflight] = histogram.get(inflight, 0) + cycles
        histogram = occupancy["RETIREQ"]
        histogram[rob_size] = histogram.get(rob_size, 0) + cycles

    def _blame_queue(
        self,
        fu: int,
        queue: deque[int],
        issued: bytearray,
        pending_sources: list[int],
        done: bytearray,
        lsu_block: Trauma | None,
    ) -> Trauma:
        """Why is this issue queue full?  Blame its oldest pending entry."""
        while queue and issued[queue[0]]:
            queue.popleft()
        if not queue:
            return _DIQ_OF[fu]
        # Look at the oldest few pending entries: a dependence stall
        # anywhere at the head means the queue is full because results
        # are late (rg_*), not because the units are undersized.
        examined = 0
        for index in queue:
            if issued[index]:
                continue
            if pending_sources[index] > 0:
                return self._blame_sources(index, done)
            examined += 1
            if examined >= 4:
                break
        if fu == _LDST and lsu_block is not None:
            return lsu_block
        return _FUL_OF[fu]

    def _blame_rob(
        self,
        rob_head: int,
        rob_next: int,
        issued: bytearray,
        pending_sources: list[int],
        done: bytearray,
        miss_info: dict[int, tuple[Trauma, bool]],
    ) -> Trauma:
        """Why is the reorder/in-flight window full?  Blame its head."""
        if rob_head == rob_next:
            return Trauma.MM_ROQF
        head = rob_head
        if done[head]:
            return Trauma.OTHER
        info = miss_info.get(head)
        if info is not None:
            return info[0]
        plane = self._plane
        if issued[head]:
            return _RG_OF[plane.fu[head]]
        if pending_sources[head] > 0:
            return self._blame_sources(head, done)
        return _FUL_OF[plane.fu[head]]

    def _blame_sources(self, index: int, done: bytearray) -> Trauma:
        """Blame the first unready producer of ``index``."""
        plane = self._plane
        for back in plane.distances[index]:
            source = index - back
            if not done[source]:
                return _RG_OF[plane.fu[source]]
        return Trauma.OTHER

"""Set-associative caches and the two-level hierarchy of Table V.

Caches are modelled at line granularity with true-LRU replacement.  An
access returns which level served it, from which the pipeline derives
both the latency and the trauma class (``mm_dl1`` for L1 misses served
by L2, ``mm_dl2`` for L2 misses served by memory).  Ideal levels
(``size_bytes=None``, the paper's "Inf" entries) always hit.

The hierarchy offers two equivalent query surfaces: the dataclass
returning :meth:`MemoryHierarchy.data_access` / ``inst_access`` for
analyses and tests, and the tuple-returning :meth:`access_data` /
``access_inst`` fast paths the cycle-level core calls tens of thousands
of times per simulated window (levels travel as plain ints matching
:class:`ServiceLevel` values, latency tables are precomputed).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.uarch.config import CacheConfig, MemoryConfig, TlbConfig


class ServiceLevel(IntEnum):
    """Which level of the hierarchy served an access."""

    L1 = 1
    L2 = 2
    MEMORY = 3


@dataclass
class CacheStats:
    """Access/miss counters for one cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Miss ratio (0.0 when the cache saw no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.accesses = 0
        self.misses = 0
        self._ideal = config.is_ideal
        self._assoc = config.associativity
        if config.is_ideal:
            self._sets: list[list[int]] = []
            self.set_count = 0
        else:
            self.set_count = config.size_bytes // (
                config.line_bytes * config.associativity
            )
            self._sets = [[] for _ in range(self.set_count)]
        self._line_shift = config.line_bytes.bit_length() - 1

    @property
    def stats(self) -> CacheStats:
        """Counters as a :class:`CacheStats` view."""
        return CacheStats(accesses=self.accesses, misses=self.misses)

    def line_of(self, address: int) -> int:
        """Line number containing ``address``."""
        return address >> self._line_shift

    def access(self, address: int, record_stats: bool = True) -> bool:
        """Access one line; returns True on hit.  Misses allocate.

        ``record_stats=False`` performs the access without counting it
        (prefetch fills, which would otherwise pollute demand-miss
        statistics).
        """
        if record_stats:
            self.accesses += 1
        if self._ideal:
            return True
        line = address >> self._line_shift
        ways = self._sets[line % self.set_count]
        if ways and ways[0] == line:  # MRU hit: no LRU reshuffle needed
            return True
        try:
            position = ways.index(line)
        except ValueError:
            if record_stats:
                self.misses += 1
            ways.insert(0, line)
            if len(ways) > self._assoc:
                ways.pop()
            return False
        if position:
            del ways[position]
            ways.insert(0, line)
        return True

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU or statistics."""
        if self._ideal:
            return True
        line = address >> self._line_shift
        return line in self._sets[line % self.set_count]


class Tlb:
    """A translation lookaside buffer (set-associative over page numbers)."""

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.lookups = 0
        self.misses = 0
        self._ideal = config.is_ideal
        self._assoc = config.associativity
        self._page_shift = config.page_bytes.bit_length() - 1
        if config.is_ideal:
            self.set_count = 0
            self._sets: list[list[int]] = []
        else:
            self.set_count = max(1, config.entries // config.associativity)
            self._sets = [[] for _ in range(self.set_count)]

    def access(self, address: int) -> bool:
        """Translate; returns True on a TLB hit.  Misses install."""
        self.lookups += 1
        if self._ideal:
            return True
        page = address >> self._page_shift
        ways = self._sets[page % self.set_count]
        if ways and ways[0] == page:  # MRU hit: no LRU reshuffle needed
            return True
        try:
            position = ways.index(page)
        except ValueError:
            self.misses += 1
            ways.insert(0, page)
            if len(ways) > self._assoc:
                ways.pop()
            return False
        if position:
            del ways[position]
            ways.insert(0, page)
        return True

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed."""
        return self.misses / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class DataAccessResult:
    """Outcome of one data access through the hierarchy."""

    latency: int
    level: ServiceLevel
    tlb_missed: bool


class MemoryHierarchy:
    """TLBs + IL1 + DL1 + shared L2 + main memory (Table V arrangement)."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.il1 = Cache(config.il1)
        self.dl1 = Cache(config.dl1)
        self.l2 = Cache(config.l2)
        self.itlb = Tlb(config.itlb)
        self.dtlb = Tlb(config.dtlb)
        # Latency of an access served at each ServiceLevel (index 0 unused).
        self._data_latency = (
            0,
            config.dl1.latency,
            config.dl1.latency + config.l2.latency,
            config.dl1.latency + config.l2.latency + config.memory_latency,
        )
        self._inst_latency = (
            0,
            config.il1.latency,
            config.il1.latency + config.l2.latency,
            config.il1.latency + config.l2.latency + config.memory_latency,
        )
        self._seq_prefetch = config.sequential_prefetch
        self._dtlb_penalty = config.dtlb.miss_penalty
        self._itlb_penalty = config.itlb.miss_penalty

    def _lines_touched(self, cache: Cache, address: int, size: int) -> range:
        first = cache.line_of(address)
        last = cache.line_of(address + max(size, 1) - 1)
        return range(first, last + 1)

    def _fill_line(
        self, line_address: int, record_stats: bool = True
    ) -> ServiceLevel:
        """Bring one line into DL1; returns where it was found."""
        if self.dl1.access(line_address, record_stats):
            return ServiceLevel.L1
        if self.l2.access(line_address, record_stats):
            return ServiceLevel.L2
        return ServiceLevel.MEMORY

    def access_data(self, address: int, size: int = 4) -> tuple[int, int, bool]:
        """Data access fast path: ``(latency, level, tlb_missed)``.

        Identical state transitions and statistics to
        :meth:`data_access`; ``level`` is the :class:`ServiceLevel`
        value as a plain int.  Multi-line accesses (vector loads
        crossing a boundary) probe every touched line; the worst line
        determines the service level.  With ``sequential_prefetch``
        every DL1 miss also pulls the next line into the hierarchy.

        The DTLB lookup and the single-line DL1 case are inlined here
        (state transitions copied verbatim from :meth:`Tlb.access` and
        :meth:`Cache.access`): the core calls this once per issued
        load/store, and the call overhead of the two-level delegation
        was a measurable slice of simulation time.
        """
        dtlb = self.dtlb
        dtlb.lookups += 1
        tlb_missed = False
        if not dtlb._ideal:
            page = address >> dtlb._page_shift
            ways = dtlb._sets[page % dtlb.set_count]
            if not ways or ways[0] != page:
                try:
                    position = ways.index(page)
                except ValueError:
                    dtlb.misses += 1
                    tlb_missed = True
                    ways.insert(0, page)
                    if len(ways) > dtlb._assoc:
                        ways.pop()
                else:
                    if position:
                        del ways[position]
                        ways.insert(0, page)
        dl1 = self.dl1
        shift = dl1._line_shift
        line = address >> shift
        last = (address + (size if size > 1 else 1) - 1) >> shift
        if line == last:
            dl1.accesses += 1
            hit = dl1._ideal
            if not hit:
                ways = dl1._sets[line % dl1.set_count]
                if ways and ways[0] == line:
                    hit = True
                else:
                    try:
                        position = ways.index(line)
                    except ValueError:
                        dl1.misses += 1
                        ways.insert(0, line)
                        if len(ways) > dl1._assoc:
                            ways.pop()
                    else:
                        hit = True
                        if position:
                            del ways[position]
                            ways.insert(0, line)
            if hit:
                latency = self._data_latency[1]
                if tlb_missed:
                    latency += self._dtlb_penalty
                return latency, 1, tlb_missed
            line_bytes = dl1.config.line_bytes
            line_address = line * line_bytes
            worst = 2 if self.l2.access(line_address) else 3
            if self._seq_prefetch:
                # Prefetch fills bypass the demand statistics.
                self._fill_line(line_address + line_bytes, record_stats=False)
            latency = self._data_latency[worst]
            if tlb_missed:
                latency += self._dtlb_penalty
            return latency, worst, tlb_missed
        line_bytes = dl1.config.line_bytes
        worst = 1
        while line <= last:
            line_address = line * line_bytes
            if dl1.access(line_address):
                level = 1
            elif self.l2.access(line_address):
                level = 2
            else:
                level = 3
            if level != 1:
                if level > worst:
                    worst = level
                if self._seq_prefetch:
                    # Prefetch fills bypass the demand statistics.
                    self._fill_line(
                        line_address + line_bytes, record_stats=False
                    )
            line += 1
        latency = self._data_latency[worst]
        if tlb_missed:
            latency += self._dtlb_penalty
        return latency, worst, tlb_missed

    def access_inst(self, address: int) -> tuple[int, int, bool]:
        """Instruction fetch fast path: ``(latency, level, tlb_missed)``."""
        tlb_missed = not self.itlb.access(address)
        il1 = self.il1
        line_address = (address >> il1._line_shift) * il1.config.line_bytes
        if il1.access(line_address):
            level = 1
        elif self.l2.access(line_address):
            level = 2
        else:
            level = 3
        latency = self._inst_latency[level]
        if tlb_missed:
            latency += self._itlb_penalty
        return latency, level, tlb_missed

    def data_access(self, address: int, size: int = 4) -> DataAccessResult:
        """Access data; reports the deepest serving level and TLB outcome."""
        latency, level, tlb_missed = self.access_data(address, size)
        return DataAccessResult(
            latency=latency, level=ServiceLevel(level), tlb_missed=tlb_missed
        )

    def inst_access(self, address: int) -> DataAccessResult:
        """Fetch one instruction line."""
        latency, level, tlb_missed = self.access_inst(address)
        return DataAccessResult(
            latency=latency, level=ServiceLevel(level), tlb_missed=tlb_missed
        )

    def data_latency(self, level: ServiceLevel) -> int:
        """Latency of a data access served at ``level``."""
        return self._data_latency[level]

"""RepoLint: AST passes encoding this repo's domain-specific hazards.

Generic linters cannot know that a wall-clock read inside a kernel
poisons trace determinism, or that writing into ``trace.columns``
corrupts every content digest downstream.  Each rule here encodes one
such incident class (digest drift caught by ad-hoc guard tests was a
real one):

=======  =============================================================
REP001   nondeterminism in library code: wall-clock reads, unseeded
         RNG, global NumPy random state, or iteration over a set in
         hash order, directly or through a local bound to one
         (outside the CLI/bench tools)
REP002   mutation of a trace or its decode plane outside their owning
         modules: a store through ``columns``, ``_decoded``,
         ``stamped_regions`` or ``_instructions`` (subscripted or
         rebound), or a mutating method call (``pop``, ``sort``, ...)
         on one, directly or through a local alias of one or of
         ``decode_trace(...)``.  Derive a new trace instead:
         ``Trace.slice``, or ``Trace(name, columns=...)`` over copies
REP005   bare ``except`` or silently swallowed broad ``except`` in the
         ``repro.runtime`` workers/executors
REP008   per-cycle Python-object allocation in ``repro.uarch`` cycle
         loops: a container literal/comprehension assigned inside a
         ``while`` loop, a dict store keyed by a cycle-counter
         variable (a dict-keyed-by-cycle event queue), or a class
         instantiated per iteration.  The simulator's throughput
         lives and dies by allocation pressure in the cycle loop —
         preallocate, reuse, or use a bounded timing wheel; the few
         deliberate cases in the scalar core carry per-line disables
REP009   ad-hoc persistence outside the storage layer: a
         ``pickle.dump``/``marshal.dump``/``np.save``/``np.savez``/
         ``shelve.open`` call in a module that is not part of
         ``repro.store``, ``repro.runtime.cache``, or
         ``repro.isa.serialize``.  Every on-disk cache must go
         through the content-addressed stores — they carry the
         code-salted digests, atomic writes, and corruption checks
         that make cached bytes trustworthy; a hand-rolled pickle
         cache silently serves stale data across code versions
REP010   cross-module global mutation: a store, ``del`` or mutating
         method call through a name imported from another ``repro``
         module (``MEMORY_PRESETS["k"] = 1``), through an attribute of
         an imported ``repro`` module, or through a local alias of
         either.  Each fork worker mutates its own copy, so the
         workers and the parent diverge silently.  A module mutating
         its own globals is legal
REP011   blocking calls: ``time.sleep(...)`` or an un-awaited
         no-argument ``.get()`` without ``timeout=``.  In a serve or
         cluster coroutine, or any helper one calls, either stalls the
         event loop for every in-flight request; code that never runs
         on an event loop says so with a per-line disable
REP012   environment reads (``os.environ``, ``os.getenv``) outside
         the two modules whose reads the cache keys see:
         ``workloads/suite.py`` (``REPRO_SCALE``, salted into every
         key through ``scale_factor``) and ``__main__.py`` (argparse
         defaults).  Anywhere else a variable could change cached
         results without changing their key
=======  =============================================================

Every rule checks one file at a time, over every library module,
whether or not a cached task or a coroutine reaches it.  Rule ids are
never renumbered or reused; the gaps are retired rules whose hazards
have one check elsewhere or no longer exist.  Config fields missing
from the cache key belong to the mutation guards in
:mod:`repro.verify.guards`.  The rule against hand-rolled
configuration grids in the analysis drivers retired with the grids:
the Fig. 3-7 and 9 grids expand through :mod:`repro.sweep.plan`.  The
serialization-manifest rule retired in favour of the code salt every
cache key hashes (:func:`repro.runtime.keys.code_salt`): any source
edit already changes every key.  The whole-repo call-graph rules
FL003-FL005 became REP010-REP012 (``docs/verify.md`` lists each
retired id).

Suppression: append ``# repolint: disable=REP00x`` (comma-separated for
several rules) to the offending line, or put
``# repolint: disable-file=REP00x`` anywhere in the file.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

#: The package root this linter audits by default.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

RULES: dict[str, str] = {
    "REP001": "nondeterminism in library code",
    "REP002": "trace/decode-plane mutation outside owning modules",
    "REP005": "bare or silently swallowed broad except in repro.runtime",
    "REP008": "per-cycle object allocation in a repro.uarch cycle loop",
    "REP009": "ad-hoc on-disk cache outside the storage layer",
    "REP010": "cross-module global mutation",
    "REP011": "blocking call in library code",
    "REP012": "environment read outside the key-salted owners",
}

#: Modules allowed to be nondeterministic (CLI entry point, wall-clock
#: benchmarking) — REP001 does not apply there.
REP001_EXEMPT = ("__main__.py", "bench.py")

#: time/datetime attributes that read the wall clock (results-visible
#: nondeterminism).  perf_counter/monotonic/process_time only measure
#: durations and sleep only waits, so they stay legal.
WALL_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "ctime", "localtime", "gmtime"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: random-module attributes that are *not* global-state draws.
RANDOM_SAFE_ATTRS = {"Random", "SystemRandom", "getstate", "setstate"}

#: Modules that own the trace columns / decode plane and may mutate them.
REP002_OWNERS = (
    "isa/trace.py",
    "isa/builder.py",
    "isa/serialize.py",
    "uarch/pipeline/decode.py",
)

#: Trace and decode-plane attributes REP002 guards: the SoA columns,
#: the lazy decode-plane memo, the stamped-region record, and the
#: plane's instruction list.
REP002_ATTRS = {"columns", "_decoded", "stamped_regions", "_instructions"}

#: Mutating container methods: calling one on a guarded attribute is
#: a write (REP002), and on an imported module global a cross-module
#: mutation (REP010).
MUTATOR_METHODS = {
    "append", "extend", "add", "insert", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
}

#: Where REP005 applies.
REP005_SCOPE = "runtime/"

#: Where REP008 applies (the simulator's cycle-loop hot paths).
REP008_SCOPE = "uarch/"

#: Modules allowed to write on-disk artifacts (REP009): the packed
#: database format, the content-addressed result cache, and the
#: versioned trace archive format.
REP009_OWNERS = ("store/", "runtime/cache.py", "isa/serialize.py")

#: Serialization writers that create an on-disk cache when called
#: anywhere else: ``module root -> flagged attributes``.
REP009_WRITERS: dict[str, set[str]] = {
    "pickle": {"dump"},
    "marshal": {"dump"},
    "numpy": {"save", "savez", "savez_compressed"},
    "shelve": {"open"},
}

#: Modules whose environment reads the cache keys see (REP012): the
#: suite's ``scale_factor`` (``REPRO_SCALE`` feeds ``simulate_key`` and
#: ``trace_task_key``) and the CLI, whose reads only set argparse
#: defaults.
REP012_OWNERS = ("workloads/suite.py", "repro/__main__.py")

#: Suppression comment grammar: a per-line and a whole-file form.
_LINE_DISABLE = re.compile(r"#\s*repolint:\s*disable=([A-Z0-9, ]+)")
_FILE_DISABLE = re.compile(r"#\s*repolint:\s*disable-file=([A-Z0-9, ]+)")


@dataclass(frozen=True)
class LintViolation:
    """One repolint finding."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class RepoLintError(RuntimeError):
    """Raised by the strict runtime hook when the package has findings."""

    def __init__(self, violations: list[LintViolation]) -> None:
        self.violations = violations
        lines = "\n".join(str(violation) for violation in violations)
        super().__init__(
            f"repolint failed with {len(violations)} violation(s):\n{lines}"
        )


def _comment_lines(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` for every real ``#`` comment in the source.

    Tokenizing (rather than regexing raw lines) keeps disable-comment
    *examples* inside docstrings from acting as live suppressions —
    only actual comment tokens count.  Falls back to a plain line scan
    when the text does not tokenize (linters may see broken sources).
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError,
            ValueError):
        return [
            (number, text)
            for number, text in enumerate(source.splitlines(), start=1)
            if "#" in text
        ]


def suppression_comments(source: str) -> list[tuple[int, str, bool]]:
    """Every disable comment: ``(line, rule, is_file_level)``.

    The inventory behind ``repro lint-code --stale-suppressions``: each
    entry is one (comment, rule) pair, so a comment disabling two rules
    yields two entries and each can go stale independently.
    """
    entries: list[tuple[int, str, bool]] = []
    for number, text in _comment_lines(source):
        for pattern, file_level in (
            (_LINE_DISABLE, False), (_FILE_DISABLE, True)
        ):
            match = pattern.search(text)
            if match:
                for rule in match.group(1).split(","):
                    entries.append((number, rule.strip(), file_level))
    return entries


def suppression_maps(
    source: str,
) -> tuple[dict[int, set[str]], set[str]]:
    """``(per-line, whole-file)`` disabled-rule sets for one source text."""
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for number, rule, file_level in suppression_comments(source):
        if file_level:
            whole_file.add(rule)
        else:
            per_line.setdefault(number, set()).add(rule)
    return per_line, whole_file


class _ModuleAliases(ast.NodeVisitor):
    """Map local names to the modules they import (np -> numpy, ...)."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}  # name -> "module.attr"

    def visit_Import(self, node: ast.Import) -> None:
        # ``import a.b`` binds ``a`` to package ``a``; ``import a.b as
        # c`` binds ``c`` to ``a.b``.
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.aliases[root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )


def _root_module(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The imported module a dotted expression is rooted at, if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _attr_chain(node: ast.expr) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _scopes(tree: ast.AST) -> list[tuple[ast.AST, list[ast.AST]]]:
    """``(owner, nodes)`` for each scope, nodes in source order: the
    module, each function, each class.

    A scope's list stops at nested function and class bodies, which
    are scopes of their own, so a local name never leaks across them.
    Source order lets a rule track what a local name holds at a line:
    ``ops = ops.copy()`` ends an alias that ``ops = trace.columns[...]``
    began.
    """
    owners = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda
        ))
    ]
    scopes = []
    for owner in owners:
        nodes: list[ast.AST] = []
        stack = list(ast.iter_child_nodes(owner))
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda
            )):
                stack.extend(ast.iter_child_nodes(node))
        nodes.sort(key=lambda node: (
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0)
        ))
        scopes.append((owner, nodes))
    return scopes


def _bound_names(node: ast.AST) -> list[str]:
    """Plain local names an assignment statement binds to its value."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


# ----------------------------------------------------------------------
# REP001 — nondeterminism
# ----------------------------------------------------------------------

def nondet_findings(
    tree: ast.AST,
    aliases: dict[str, str],
    from_imports: dict[str, str],
) -> list[tuple[int, str]]:
    """Nondeterminism sources in one module (REP001's core).

    ``aliases``/``from_imports`` map local names to the modules and
    dotted targets they import.
    """
    findings = _unsorted_set_iteration(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            # from-import forms: default_rng(), urandom(), token_bytes()
            if isinstance(func, ast.Name):
                target = from_imports.get(func.id, "")
                if target == "numpy.random.default_rng" and not node.args:
                    findings.append((
                        node.lineno, "unseeded numpy default_rng()"
                    ))
                elif target in {"os.urandom", "uuid.uuid4", "uuid.uuid1"}:
                    findings.append((node.lineno, f"{target} call"))
            continue
        chain = _attr_chain(func)
        root = aliases.get(chain[0]) if chain else None
        if root == "random":
            if func.attr == "Random" and not node.args:
                findings.append((
                    node.lineno,
                    "unseeded random.Random(); pass an explicit seed",
                ))
            elif func.attr not in RANDOM_SAFE_ATTRS:
                findings.append((
                    node.lineno,
                    f"global random.{func.attr}(); use a seeded "
                    "random.Random instance",
                ))
        elif root == "numpy" and len(chain) >= 3 and chain[1] == "random":
            if func.attr == "default_rng" and node.args:
                continue  # seeded generator construction is fine
            findings.append((
                node.lineno,
                f"numpy global random state (np.random.{func.attr}); "
                "use a seeded Generator",
            ))
        elif root == "time" and func.attr in WALL_CLOCK_ATTRS["time"]:
            findings.append((
                node.lineno,
                f"wall-clock read time.{func.attr}(); timings belong in "
                "the CLI/bench layers",
            ))
        elif root == "datetime" and func.attr in (
            WALL_CLOCK_ATTRS["datetime"] | WALL_CLOCK_ATTRS["date"]
        ):
            findings.append((
                node.lineno, f"wall-clock read datetime {func.attr}()"
            ))
        elif root == "os" and func.attr == "urandom":
            findings.append((node.lineno, "os.urandom() entropy read"))
        elif root == "uuid" and func.attr in {"uuid1", "uuid4"}:
            findings.append((node.lineno, f"uuid.{func.attr}() call"))
        elif root == "secrets":
            findings.append((node.lineno, f"secrets.{func.attr}() call"))
    return sorted(findings)


def _unsorted_set_iteration(tree: ast.AST) -> list[tuple[int, str]]:
    """Iterating a set of strings is PYTHONHASHSEED-dependent."""
    sorted_args: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"sorted", "len", "min", "max", "sum"}
        ):
            for argument in node.args:
                sorted_args.add(id(argument))
    findings = []
    for _, scope in _scopes(tree):
        # Locals bound to a set (``seen = set(names)``) iterate in hash
        # order as much as the set expression itself.
        set_names: set[str] = set()
        for node in scope:
            iterables: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (
                ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
            )):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if id(iterable) in sorted_args:
                    continue
                if _is_set_expr(iterable) or (
                    isinstance(iterable, ast.Name)
                    and iterable.id in set_names
                ):
                    findings.append((
                        iterable.lineno,
                        "iterates a set in hash order; wrap in sorted() — "
                        "string hashing varies per process (PYTHONHASHSEED)",
                    ))
            for name in _bound_names(node):
                if _is_set_expr(node.value):
                    set_names.add(name)
                else:
                    set_names.discard(name)
    return sorted(findings)


def _is_set_expr(node: ast.expr) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _rep001(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    if relative.endswith(REP001_EXEMPT):
        return []
    imports = _ModuleAliases()
    imports.visit(tree)
    return nondet_findings(tree, imports.aliases, imports.from_imports)


# ----------------------------------------------------------------------
# REP002 — column / decode-plane mutation
# ----------------------------------------------------------------------

def _guarded_attr(
    node: ast.expr, aliases: dict[str, str], *, bare: bool = True
) -> str | None:
    """The guarded attribute a store or mutator call goes through.

    Follows subscripts and attributes down to a guarded attribute, a
    :func:`~repro.uarch.pipeline.decode.decode_trace` call, or a local
    name in ``aliases`` (name -> the guarded attribute it came from).
    A bare alias name counts only when ``bare``: rebinding ``ops`` is
    not a write, ``ops.sort()`` is.
    """
    start = node
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and node.attr in REP002_ATTRS:
            return node.attr
        node = node.value
    if isinstance(node, ast.Call) and _call_name(node) == "decode_trace":
        return "_decoded"
    if isinstance(node, ast.Name) and (bare or node is not start):
        return aliases.get(node.id)
    return None


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


_REP002_HINT = (
    "traces and decode planes are immutable outside their owning "
    "modules — derive a new Trace (Trace.slice, or Trace(name, "
    "columns=...) over copied columns)"
)


def _rep002(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    if relative.endswith(REP002_OWNERS):
        return []
    findings: list[tuple[int, str]] = []
    for _, scope in _scopes(tree):
        for line, attr, method in _scope_writes(scope, _guarded_attr, {}):
            action = (
                f"writes trace `{attr}`" if method is None
                else f"calls .{method}() on trace `{attr}`"
            )
            findings.append((line, f"{action}; {_REP002_HINT}"))
    return sorted(findings)


def _scope_writes(
    scope: list[ast.AST], guard, aliases: dict[str, str]
) -> list[tuple[int, str, str | None]]:
    """Writes through a guarded chain in one scope, in source order.

    ``guard(expr, aliases, bare=...)`` names what an expression reaches
    (see :func:`_guarded_attr`), or ``None``.  ``aliases`` maps local
    names to what they hold (``ops = trace.columns["ops"]``, and so an
    alias of an alias: ``fu = plane.fu``) and follows rebinding.
    Returns ``(line, label, method)`` per store or ``del`` target
    (``method`` is ``None``) and per ``MUTATOR_METHODS`` call.
    """
    findings: list[tuple[int, str, str | None]] = []
    for node in scope:
        for name in _bound_names(node):
            label = guard(node.value, aliases)
            if label is None:
                aliases.pop(name, None)
            else:
                aliases[name] = label
        targets: list[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            label = guard(node.func.value, aliases)
            if label is not None:
                findings.append((node.lineno, label, node.func.attr))
        for target in targets:
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                label = guard(element, aliases, bare=False)
                if label is not None:
                    findings.append((node.lineno, label, None))
    return findings


# ----------------------------------------------------------------------
# REP005 — exception hygiene in repro.runtime
# ----------------------------------------------------------------------

def _rep005(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    if REP005_SCOPE not in relative.replace("\\", "/"):
        return []
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append((
                node.lineno,
                "bare `except:`; name the exceptions this worker code "
                "expects",
            ))
            continue
        names = []
        candidates = (
            node.type.elts
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                names.append(candidate.id)
            elif isinstance(candidate, ast.Attribute):
                names.append(candidate.attr)
        broad = {"Exception", "BaseException"} & set(names)
        swallows = all(
            isinstance(statement, ast.Pass)
            or (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
            )
            for statement in node.body
        )
        if broad and swallows:
            findings.append((
                node.lineno,
                f"`except {'/'.join(sorted(broad))}` silently swallows "
                "errors; narrow the exception types or handle the error",
            ))
    return findings


# ----------------------------------------------------------------------
# REP008 — per-cycle allocation in repro.uarch cycle loops
# ----------------------------------------------------------------------

#: Container expressions whose evaluation allocates a fresh object.
_REP008_ALLOCS = {
    ast.List: "list literal",
    ast.Dict: "dict literal",
    ast.Set: "set literal",
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
}

_CAMEL_CASE = re.compile(r"^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*$")


def _rep008(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    """Flag per-cycle Python-object allocation in ``uarch/`` code.

    The cycle loop (``while retired < n``) runs hundreds of thousands
    of times per simulation, so an object allocated inside it is an
    object allocated *per simulated cycle*: container literals and
    comprehensions assigned each iteration, dict stores keyed by a
    cycle counter (an unbounded event queue growing with simulated
    time — the shape the timing wheel replaced), and classes
    instantiated per iteration (the per-instruction ``Instruction``
    objects the decode plane replaced).  Exception construction in
    ``raise`` statements is exempt — runaway guards fire once.
    """
    if REP008_SCOPE not in relative.replace("\\", "/"):
        return []
    raised: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            for sub in ast.walk(node):
                raised.add(id(sub))
    findings: list[tuple[int, str]] = []
    seen: set[int] = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.While):
            continue
        for node in ast.walk(loop):
            if node is loop or id(node) in seen:
                continue
            seen.add(id(node))
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                value = getattr(node, "value", None)
                kind = _REP008_ALLOCS.get(type(value))
                if kind is not None:
                    findings.append((
                        node.lineno,
                        f"assigns a fresh {kind} inside a cycle loop; "
                        "hoist the allocation and reuse the container",
                    ))
                if isinstance(target, ast.Subscript):
                    for index in ast.walk(target.slice):
                        if (
                            isinstance(index, ast.Name)
                            and "cycle" in index.id.lower()
                        ):
                            findings.append((
                                node.lineno,
                                f"dict store keyed by `{index.id}` builds "
                                "an event queue that grows with simulated "
                                "time; use a bounded timing wheel",
                            ))
                            break
            if (
                isinstance(node, ast.Call)
                and id(node) not in raised
            ):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name and _CAMEL_CASE.match(name):
                    findings.append((
                        node.lineno,
                        f"instantiates {name} inside a cycle loop; "
                        "per-cycle class instances thrash the allocator "
                        "— keep hot state in preallocated arrays",
                    ))
    return sorted(set(findings))


# ----------------------------------------------------------------------
# REP009 — ad-hoc persistence outside the storage layer
# ----------------------------------------------------------------------

def _rep009(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    """Flag serialization writes outside the storage layer.

    The result cache exists so that every cached byte on disk is
    digest-addressed (code-salted — a source change invalidates it)
    and atomically written, and the packed database format pins a
    content digest in its header.  A ``pickle.dump`` or ``np.save``
    call anywhere else starts a parallel cache with none of those
    properties: it survives code changes it should not survive and
    crashes (or worse, misleads) on torn writes.  Reads are not
    flagged — consuming a store-managed file elsewhere is fine.
    """
    normalized = relative.replace("\\", "/")
    if any(owner in normalized for owner in REP009_OWNERS):
        return []
    imports = _ModuleAliases()
    imports.visit(tree)
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attr = None
        root = None
        if isinstance(func, ast.Attribute):
            attr = func.attr
            root = _root_module(func, imports.aliases)
        elif isinstance(func, ast.Name):
            target = imports.from_imports.get(func.id)
            if target is not None:
                root, _, attr = target.rpartition(".")
        if root is None or attr is None:
            continue
        flagged = REP009_WRITERS.get(root.split(".")[0])
        if flagged and attr in flagged:
            findings.append((
                node.lineno,
                f"{root.split('.')[0]}.{attr} writes an ad-hoc on-disk "
                "artifact outside the storage layer; route it through "
                "repro.runtime.cache (content-addressed, code-salted, "
                "atomically written) or the packed format in repro.store",
            ))
    return sorted(set(findings))


# ----------------------------------------------------------------------
# REP010 — cross-module global mutation
# ----------------------------------------------------------------------

def _imported_root(
    node: ast.expr, aliases: dict[str, str], *, bare: bool = True
) -> str | None:
    """The imported ``repro`` name (or local alias) a chain is rooted at.

    The :func:`_scope_writes` guard for REP010: follows subscripts and
    attributes down to a name in ``aliases``.  A bare name counts only
    when ``bare``: rebinding an imported name is not a write,
    ``PRESETS.clear()`` is.
    """
    start = node
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name) and (bare or node is not start):
        return aliases.get(node.id)
    return None


def _rep010(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    imports = _ModuleAliases()
    imports.visit(tree)
    imported = {
        name: target
        for name, target in {**imports.aliases, **imports.from_imports}.items()
        if target == "repro" or target.startswith("repro.")
    }
    if not imported:
        return []
    findings: list[tuple[int, str]] = []
    for owner, scope in _scopes(tree):
        aliases = dict(imported)
        if isinstance(owner, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda
        )):
            # Parameters shadow the module's imports.
            arguments = owner.args
            for argument in (
                arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if argument is not None:
                    aliases.pop(argument.arg, None)
        for line, target, method in _scope_writes(
            scope, _imported_root, aliases
        ):
            action = "writes" if method is None else f"calls .{method}() on"
            findings.append((
                line,
                f"{action} `{target}`, a global of another repro module; "
                "each fork worker mutates its own copy, so the workers "
                "and the parent diverge silently — mutate it in its "
                "owning module or pass the state explicitly",
            ))
    return sorted(findings)


# ----------------------------------------------------------------------
# REP011 — blocking calls
# ----------------------------------------------------------------------

def _rep011(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    """Event-loop-blocking primitives anywhere in one module.

    Call nodes that are directly awaited (asyncio ``Queue.get()`` and
    friends) are non-blocking by definition and skipped.
    """
    imports = _ModuleAliases()
    imports.visit(tree)
    awaited = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Await)
    }
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in awaited:
            continue
        func = node.func
        if (
            isinstance(func, ast.Name)
            and imports.from_imports.get(func.id) == "time.sleep"
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and _root_module(func, imports.aliases) == "time"
        ):
            findings.append((
                node.lineno,
                "time.sleep() blocks the event loop; use asyncio.sleep",
            ))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and not node.args
            and not any(
                keyword.arg == "timeout" for keyword in node.keywords
            )
            and not (
                isinstance(func.value, ast.Name)
                and func.value.id in imports.aliases
            )
        ):
            findings.append((
                node.lineno,
                "synchronous .get() without a timeout can block the "
                "event loop indefinitely; await an asyncio queue or "
                "pass timeout=",
            ))
    return sorted(findings)


# ----------------------------------------------------------------------
# REP012 — environment reads outside the key-salted owners
# ----------------------------------------------------------------------

#: The process-environment accessors, by their dotted ``os`` names.
_ENVIRONMENT_READS = {"os.environ", "os.environb", "os.getenv", "os.getenvb"}


def _rep012(tree: ast.AST, relative: str) -> list[tuple[int, str]]:
    if relative.replace("\\", "/").endswith(REP012_OWNERS):
        return []
    imports = _ModuleAliases()
    imports.visit(tree)
    findings: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            target = f"{imports.aliases.get(node.value.id)}.{node.attr}"
        elif isinstance(node, ast.Name):
            target = imports.from_imports.get(node.id)
        else:
            continue
        if target in _ENVIRONMENT_READS:
            findings.append((
                node.lineno,
                "reads the environment outside workloads/suite.py and "
                "__main__.py, the only reads the cache keys see; two "
                "environments would alias one cache entry — read it "
                "there and salt the key, or pass the value in",
            ))
    return sorted(findings)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

_PER_FILE_RULES = {
    "REP001": _rep001,
    "REP002": _rep002,
    "REP005": _rep005,
    "REP008": _rep008,
    "REP009": _rep009,
    "REP010": _rep010,
    "REP011": _rep011,
    "REP012": _rep012,
}


def lint_source(
    source: str,
    relative: str,
    rules: set[str] | None = None,
    honor_suppressions: bool = True,
) -> list[LintViolation]:
    """Run the per-file rules over one module's source text.

    ``honor_suppressions=False`` reports findings even on disabled
    lines — the stale-suppression audit uses it to learn what each
    disable comment actually suppresses.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [LintViolation(
            "REP000", relative, error.lineno or 1,
            f"syntax error: {error.msg}",
        )]
    if honor_suppressions:
        per_line, whole_file = suppression_maps(source)
    else:
        per_line, whole_file = {}, set()
    violations: list[LintViolation] = []
    for rule, implementation in _PER_FILE_RULES.items():
        if rules is not None and rule not in rules:
            continue
        if rule in whole_file:
            continue
        for line, message in implementation(tree, relative):
            if rule in per_line.get(line, ()):
                continue
            violations.append(LintViolation(rule, relative, line, message))
    return violations


def lint_paths(
    paths: list[Path] | None = None,
    rules: set[str] | None = None,
) -> list[LintViolation]:
    """Run RepoLint over source files (defaults to all of ``src/repro``)."""
    if paths is None:
        files = sorted(PACKAGE_ROOT.rglob("*.py"))
    else:
        files = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
    violations: list[LintViolation] = []
    for path in files:
        try:
            relative = str(path.resolve().relative_to(PACKAGE_ROOT.parent))
        except ValueError:
            relative = str(path)
        violations.extend(lint_source(path.read_text(), relative, rules=rules))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def stale_suppressions(
    package_root: Path | None = None,
) -> list[LintViolation]:
    """Disable comments that no longer suppress any finding.

    Lints every module with suppressions ignored, then checks each
    ``# repolint: disable`` comment against the raw findings: a
    per-line disable is stale when its rule no longer fires on that
    line, a file-level disable when the rule no longer fires anywhere
    in the file.  Stale suppressions are worse than dead code — they
    silently swallow the *next* genuine violation at that line.
    """
    root = PACKAGE_ROOT if package_root is None else Path(package_root)
    stale: list[LintViolation] = []
    for path in sorted(root.rglob("*.py")):
        relative = str(path.relative_to(root.parent))
        source = path.read_text()
        comments = suppression_comments(source)
        if not comments:
            continue
        raw = lint_source(source, relative, honor_suppressions=False)
        for line, rule, file_level in comments:
            if not any(
                violation.rule == rule
                and (file_level or violation.line == line)
                for violation in raw
            ):
                scope = "anywhere in this file" if file_level else (
                    "on this line"
                )
                stale.append(LintViolation(
                    "STALE", relative, line,
                    f"stale suppression: rule {rule} no longer fires "
                    f"{scope}; remove the disable comment",
                ))
    return stale

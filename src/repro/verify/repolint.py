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
=======  =============================================================

Rule ids are never renumbered or reused; the gaps are retired rules
whose hazards have one check elsewhere or no longer exist.  Config
fields missing from the cache key belong to the mutation guards in
:mod:`repro.verify.guards`; blocking calls in serve coroutines belong
to FlowLint's FL004.  The rule against hand-rolled
configuration grids in the analysis drivers retired with the grids:
the Fig. 3-7 and 9 grids expand through :mod:`repro.sweep.plan`.  The
serialization-manifest rule retired in favour of the code salt every
cache key hashes (:func:`repro.runtime.keys.code_salt`): any source
edit already changes every key (``docs/verify.md`` lists each retired
id).

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
#: mutation (FlowLint's FL003).
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

#: Suppression comment grammars.  RepoLint and FlowLint share the same
#: machinery (:func:`suppression_maps`), differing only in the tag, so
#: a ``flowlint: disable=FL005`` comment behaves exactly like a
#: ``repolint: disable=REP001`` one.
_DISABLE_PATTERNS: dict[str, tuple[re.Pattern, re.Pattern]] = {
    tag: (
        re.compile(rf"#\s*{tag}:\s*disable=([A-Z0-9, ]+)"),
        re.compile(rf"#\s*{tag}:\s*disable-file=([A-Z0-9, ]+)"),
    )
    for tag in ("repolint", "flowlint")
}


@dataclass(frozen=True)
class LintViolation:
    """One repolint finding."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


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


def suppression_maps(
    source: str, tag: str = "repolint"
) -> tuple[dict[int, set[str]], set[str]]:
    """``(per-line, whole-file)`` disabled-rule sets for one source text."""
    line_pattern, file_pattern = _DISABLE_PATTERNS[tag]
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for number, text in _comment_lines(source):
        match = line_pattern.search(text)
        if match:
            per_line.setdefault(number, set()).update(
                rule.strip() for rule in match.group(1).split(",")
            )
        match = file_pattern.search(text)
        if match:
            whole_file |= {
                rule.strip() for rule in match.group(1).split(",")
            }
    return per_line, whole_file


def suppression_comments(
    source: str,
) -> list[tuple[int, str, str, bool]]:
    """Every disable comment: ``(line, tag, rule, is_file_level)``.

    The inventory behind ``repro lint-code --stale-suppressions``: each
    entry is one (comment, rule) pair, so a comment disabling two rules
    yields two entries and each can go stale independently.
    """
    entries: list[tuple[int, str, str, bool]] = []
    for number, text in _comment_lines(source):
        for tag, (line_pattern, file_pattern) in _DISABLE_PATTERNS.items():
            match = line_pattern.search(text)
            if match:
                for rule in match.group(1).split(","):
                    entries.append((number, tag, rule.strip(), False))
            match = file_pattern.search(text)
            if match:
                for rule in match.group(1).split(","):
                    entries.append((number, tag, rule.strip(), True))
    return entries


def _suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    return suppression_maps(source, "repolint")


class _ModuleAliases(ast.NodeVisitor):
    """Map local names to the modules they import (np -> numpy, ...)."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}  # name -> "module.attr"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )

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


def _scopes(tree: ast.AST) -> list[list[ast.AST]]:
    """The nodes of each scope in source order: the module, each
    function, each class.

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
        scopes.append(nodes)
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
    for scope in _scopes(tree):
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
    for scope in _scopes(tree):
        findings.extend(_rep002_scope(scope))
    return sorted(findings)


def _rep002_scope(scope: list[ast.AST]) -> list[tuple[int, str]]:
    # Local name -> guarded attribute it currently aliases
    # (``ops = trace.columns["ops"]``, ``plane = decode_trace(trace)``,
    # and so an alias of an alias: ``fu = plane.fu``).
    aliases: dict[str, str] = {}
    findings: list[tuple[int, str]] = []
    for node in scope:
        for name in _bound_names(node):
            attr = _guarded_attr(node.value, aliases)
            if attr is None:
                aliases.pop(name, None)
            else:
                aliases[name] = attr
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
            attr = _guarded_attr(node.func.value, aliases)
            if attr is not None:
                findings.append((
                    node.lineno,
                    f"calls .{node.func.attr}() on trace `{attr}`; "
                    + _REP002_HINT,
                ))
        for target in targets:
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                attr = _guarded_attr(element, aliases, bare=False)
                if attr is not None:
                    findings.append((
                        node.lineno, f"writes trace `{attr}`; " + _REP002_HINT
                    ))
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
# Entry points
# ----------------------------------------------------------------------

_PER_FILE_RULES = {
    "REP001": _rep001,
    "REP002": _rep002,
    "REP005": _rep005,
    "REP008": _rep008,
    "REP009": _rep009,
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
        per_line, whole_file = _suppressions(source)
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

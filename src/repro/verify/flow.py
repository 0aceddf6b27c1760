"""FlowLint: whole-repo call-graph + dataflow analysis (FL003-FL005).

The single-function AST layers (RepoLint, TraceLint, SweepLint) cannot
see across calls: a module-global write in a helper a fork worker
calls, a ``time.sleep`` hidden inside a synchronous helper a serve
coroutine calls, or an environment read two calls below a cached task
body are all invisible to per-file pattern matching.  This module
builds a *whole-repo* model and checks reachability and dataflow
properties over it:

1. a **module symbol table** — every function, method, class (with
   bases), module-level dispatch table, and re-export under
   ``src/repro``;
2. a **call graph** — direct calls, method resolution through local
   type inference (``x = ClassName(...)`` / annotated parameters /
   ``self``) to the inherited definition *and* every subclass override
   (``self.execute()`` in a base class reaches each kernel's
   ``execute``), dict dispatch (``TASK_KINDS[kind](payload)`` — the
   runtime's task-kind dispatch), pool callbacks (``pool.map(f, ...)``)
   and one-hop import re-exports;
3. **forward dataflow facts** per function — blocking primitives,
   environment reads, module-global writes, and a class-taint pass
   that types values of the configuration dataclasses
   (``ProcessorConfig`` and friends) and of the trace and decode-plane
   classes through assignments, attribute reads, and nested functions
   so their method and property calls resolve.

On top of the graph, three interprocedural rule families:

=======  =============================================================
FL003    cross-module global mutation from fork-worker code: a write
         to another module's global (``PRESETS["k"] = v``,
         ``TABLE.append(x)``) in code reachable from a cached task
         body.  Each worker process mutates its own copy, so the
         state diverges silently across workers and from the parent.
FL004    blocking calls reachable from serve/cluster coroutines:
         ``time.sleep`` (use ``asyncio.sleep``) or an un-awaited
         ``.get()`` without arguments or ``timeout=``, written in the
         coroutine or any synchronous helper it calls — either stalls
         the event loop for every in-flight request.
FL005    environment-influence escape: an environment variable read
         reachable from a cached task body that is not salted into
         the cache key (compare ``REPRO_SCALE``, which flows through
         ``scale_factor`` into every key) silently aliases cache
         entries produced under different environments.
=======  =============================================================

Retired ids are not reused.  FL001 (nondeterminism reachable from a
cached task) folded into RepoLint's REP001, which checks every library
module whether a task reaches it or not.  FL002 checked statically
that ``config_key`` reads every config field the simulator reads; the
mutation guards in :mod:`repro.verify.guards` prove more — that
changing any field of any config dataclass changes the key.  Writes
to the trace and decode plane belong to RepoLint's REP002.

Suppression: append ``# flowlint: disable=FL00x`` to the *offending*
line (where the violation anchors), or ``# flowlint:
disable-file=FL00x`` anywhere in the file — the same machinery as
RepoLint (:func:`repro.verify.repolint.suppression_maps`).

``repro lint-flow`` is the CLI; a whole-repo scan takes about two
seconds, so every run scans serially from source.
"""

from __future__ import annotations

import ast
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.verify.repolint import (
    MUTATOR_METHODS,
    PACKAGE_ROOT,
    LintViolation,
    suppression_maps,
)

FLOW_RULES: dict[str, str] = {
    "FL003": "cross-module global mutation from fork-worker code",
    "FL004": "blocking call reachable from a serve coroutine",
    "FL005": "environment read reaching cached results without key "
             "salting",
}

#: The runtime's dispatch table; its entries are the cached task roots.
_TASKS_MODULE = "repro.runtime.tasks"
_TASK_TABLE = "TASK_KINDS"
#: Task functions whose results never enter the content-addressed
#: cache (the executor's own test scaffolding may sleep/exit freely).
_UNCACHED_TASKS = {"execute_selftest"}
#: Key builders: environment reads reachable from these are "salted".
_KEY_ROOTS = (
    "repro.runtime.keys.simulate_key",
    "repro.runtime.keys.trace_task_key",
    "repro.runtime.keys.search_shard_key",
)
#: Packages whose coroutines must never block the event loop: the
#: single-server serve layer and the cluster router/supervisor built
#: on top of it (one stalled router coroutine stalls every replica's
#: traffic, so the cluster tier is held to the same standard).
_SERVE_PREFIXES = ("repro.serve", "repro.cluster")

#: Receiver methods that dispatch a function argument onto a pool.
_CALLBACK_METHODS = {
    "map", "imap", "imap_unordered", "starmap", "submit", "apply_async",
}


@dataclass(frozen=True)
class FlowViolation:
    """One flow finding, anchored where the offending code lives."""

    rule: str
    path: str
    line: int
    message: str
    chain: tuple[str, ...] = ()

    def __str__(self) -> str:
        via = ""
        if self.chain:
            via = "  [" + " -> ".join(
                part.rsplit(".", 1)[-1] for part in self.chain
            ) + "]"
        return f"{self.path}:{self.line}: {self.rule} {self.message}{via}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "chain": list(self.chain),
        }


class FlowLintError(RuntimeError):
    """Raised by strict hooks when the flow rules find violations."""

    def __init__(self, violations: list[FlowViolation]) -> None:
        self.violations = violations
        lines = "\n".join(str(violation) for violation in violations)
        super().__init__(
            f"flow lint failed with {len(violations)} violation(s):\n{lines}"
        )


@dataclass
class TaintSpec:
    """What the dataflow pass tracks.

    ``config_fields`` maps a dataclass qualname to its declared fields
    (field name → the taint-class qualname of the field's own type, or
    ``None`` for leaves); it types values reached through nested
    configs (``config.memory.dl1``) so their method and property calls
    resolve in the call graph.
    ``name_seeds`` are parameter-name conventions used when a
    parameter carries no annotation.
    """

    config_fields: dict[str, dict[str, str | None]] = field(
        default_factory=dict
    )
    name_seeds: dict[str, str] = field(default_factory=dict)

    def class_names(self) -> dict[str, str]:
        """bare class name → qualname for every tracked class."""
        names = {}
        for qual in self.config_fields:
            names[qual.rsplit(".", 1)[-1]] = qual
        return names


_CONFIG_MODULE = "repro.uarch.config"


def _dataclass_fields_from_source(source: str) -> dict[str, dict[str, int]]:
    """``class name -> {field name -> line}`` for @dataclass definitions."""
    tree = ast.parse(source)
    result: dict[str, dict[str, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass = any(
            (isinstance(d, ast.Name) and d.id == "dataclass")
            or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
            or (
                isinstance(d, ast.Call)
                and (
                    (isinstance(d.func, ast.Name)
                     and d.func.id == "dataclass")
                    or (isinstance(d.func, ast.Attribute)
                        and d.func.attr == "dataclass")
                )
            )
            for d in node.decorator_list
        )
        if not is_dataclass:
            continue
        fields: dict[str, int] = {}
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                fields[statement.target.id] = statement.lineno
        result[node.name] = fields
    return result


def default_taint_spec(package_root: Path | None = None) -> TaintSpec:
    """The repo's spec: config dataclasses + trace/decode plane classes."""
    root = PACKAGE_ROOT if package_root is None else package_root
    config_source = (root / "uarch" / "config.py").read_text()
    tree = ast.parse(config_source)
    declared = _dataclass_fields_from_source(config_source)
    # Field type names, for taint propagation through nested configs
    # (config.memory → MemoryConfig, memory.dl1 → CacheConfig, ...).
    annotations: dict[str, dict[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name not in declared:
            continue
        per_field: dict[str, str] = {}
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                per_field[statement.target.id] = _annotation_name(
                    statement.annotation
                ) or ""
        annotations[node.name] = per_field
    config_fields: dict[str, dict[str, str | None]] = {}
    for class_name, fields in declared.items():
        qual = f"{_CONFIG_MODULE}.{class_name}"
        config_fields[qual] = {}
        for field_name in fields:
            type_name = annotations.get(class_name, {}).get(field_name, "")
            config_fields[qual][field_name] = (
                f"{_CONFIG_MODULE}.{type_name}"
                if type_name in declared else None
            )
    name_seeds = {
        "config": f"{_CONFIG_MODULE}.ProcessorConfig",
        "memory": f"{_CONFIG_MODULE}.MemoryConfig",
        "branch": f"{_CONFIG_MODULE}.BranchPredictorConfig",
        "branch_config": f"{_CONFIG_MODULE}.BranchPredictorConfig",
        "cache": f"{_CONFIG_MODULE}.CacheConfig",
        "il1": f"{_CONFIG_MODULE}.CacheConfig",
        "dl1": f"{_CONFIG_MODULE}.CacheConfig",
        "l2": f"{_CONFIG_MODULE}.CacheConfig",
        "tlb": f"{_CONFIG_MODULE}.TlbConfig",
        "itlb": f"{_CONFIG_MODULE}.TlbConfig",
        "dtlb": f"{_CONFIG_MODULE}.TlbConfig",
        "trace": "repro.isa.trace.Trace",
        "plane": "repro.uarch.pipeline.decode.DecodedTrace",
    }
    return TaintSpec(config_fields=config_fields, name_seeds=name_seeds)


# ----------------------------------------------------------------------
# Per-function facts
# ----------------------------------------------------------------------

@dataclass
class FunctionFacts:
    """Everything the rules need to know about one function."""

    qualname: str
    module: str
    relative: str
    line: int
    cls: str | None = None
    is_coroutine: bool = False
    #: Raw call descriptors ``(kind, data, line)`` resolved at link
    #: time: ("qual", dotted), ("typed", (class_qual, method)),
    #: ("method", name), ("table", (module, table)), ("ref", dotted).
    calls: list[tuple] = field(default_factory=list)
    blocking: list[tuple[int, str]] = field(default_factory=list)
    env_reads: list[tuple[int, str | None]] = field(default_factory=list)
    #: (line, name, owning module) — module-global mutation.
    global_writes: list[tuple[int, str, str]] = field(default_factory=list)


@dataclass
class ClassFacts:
    qualname: str
    module: str
    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    module: str
    relative: str
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    #: Dispatch tables: name → function qualnames (the dict's values).
    tables: dict[str, list[str]] = field(default_factory=dict)
    #: Module-level ``from x import y`` map: name → dotted target.
    imports: dict[str, str] = field(default_factory=dict)


def _annotation_name(node: ast.expr | None) -> str | None:
    """The rightmost class-ish name of an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].split(".")[-1].strip() or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp):  # "ProcessorConfig | None"
        return _annotation_name(node.left)
    if isinstance(node, ast.Subscript):  # Optional[X] / list[X]
        base = _annotation_name(node.value)
        if base in {"Optional", "Annotated"}:
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_name(inner)
        return base
    return None


# ----------------------------------------------------------------------
# Module scanning
# ----------------------------------------------------------------------

class _ModuleScanner:
    """Extract one module's symbol table, raw calls, and local facts."""

    def __init__(
        self,
        source: str,
        relative: str,
        module: str,
        is_package: bool,
        spec: TaintSpec,
    ) -> None:
        self.source = source
        self.relative = relative
        self.module = module
        self.is_package = is_package
        self.spec = spec
        self.tree = ast.parse(source)
        self.package = module.split(".", 1)[0]
        # name → module path for plain ``import x[.y] [as z]``.
        self.module_aliases: dict[str, str] = {}
        # name → dotted target for ``from m import n [as z]``.
        self.from_imports: dict[str, str] = {}
        # Aliases in RepoLint's shape, for the blocking-call facts.
        self.rep_aliases: dict[str, str] = {}
        self.local_functions: set[str] = set()
        self.local_classes: dict[str, ast.ClassDef] = {}
        self.module_globals: set[str] = set()
        #: class qualname → {attr → taint class} from __init__ bodies.
        self.class_attr_taints: dict[str, dict[str, str]] = {}
        #: bare name → taint-class qualname, for annotation seeds.
        self.known_classes = spec.class_names()
        self.facts = ModuleFacts(module=module, relative=relative)

    # -- symbol collection -------------------------------------------

    def scan(self) -> ModuleFacts:
        # Imports are collected from the WHOLE tree, not just module
        # top level: the repo leans on lazy function-level imports
        # (CLI subcommands, strict hooks), and a call through one must
        # still resolve.  The union over scopes is a sound
        # over-approximation for name→module resolution.
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._collect_import(node)
        for node in self.tree.body:
            self._collect_top_level(node)
        self.facts.imports = dict(self.from_imports)
        # Dispatch tables need local function names; second pass.
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Dict
            ):
                self._collect_table(node)
        # Class attribute taints (self.config = config in __init__)
        # must exist before methods are scanned.
        for class_node in self.local_classes.values():
            self._collect_attr_taints(class_node)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)
        return self.facts

    def _collect_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                first = alias.name.split(".")[0]
                if alias.asname:
                    self.module_aliases[alias.asname] = alias.name
                    self.rep_aliases[alias.asname] = alias.name
                else:
                    self.module_aliases[first] = first
                    self.rep_aliases[first] = alias.name
        else:
            base = self._import_base(node)
            for alias in node.names:
                local = alias.asname or alias.name
                if base is not None:
                    self.from_imports[local] = f"{base}.{alias.name}"

    def _collect_top_level(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.local_functions.add(node.name)
        elif isinstance(node, ast.ClassDef):
            self.local_classes[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.module_globals.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            self.module_globals.add(node.target.id)

    def _import_base(self, node: ast.ImportFrom) -> str | None:
        if not node.level:
            return node.module
        parts = self.module.split(".")
        package_path = parts if self.is_package else parts[:-1]
        strip = node.level - 1
        if strip > len(package_path):
            return None
        base = package_path[:len(package_path) - strip]
        if node.module:
            base = base + [node.module]
        return ".".join(base) if base else None

    def _collect_table(self, node: ast.Assign) -> None:
        names = [
            target.id for target in node.targets
            if isinstance(target, ast.Name)
        ]
        if not names:
            return
        values: list[str] = []
        assert isinstance(node.value, ast.Dict)
        for value in node.value.values:
            if not isinstance(value, ast.Name):
                return
            resolved = self._resolve_bare(value.id)
            if resolved is None:
                return
            values.append(resolved)
        if values:
            for name in names:
                self.facts.tables[name] = values

    def _resolve_bare(self, name: str) -> str | None:
        """A bare name's dotted target, if it names repo code."""
        if name in self.local_functions or name in self.local_classes:
            return f"{self.module}.{name}"
        target = self.from_imports.get(name)
        if target and target.split(".", 1)[0] == self.package:
            return target
        return None

    def _class_qual(self, name: str) -> str | None:
        """A bare name as a class qualname (local, imported, or spec)."""
        if name in self.local_classes:
            return f"{self.module}.{name}"
        target = self.from_imports.get(name)
        if target and target.split(".", 1)[0] == self.package:
            return target
        return self.known_classes.get(name)

    def _collect_attr_taints(self, node: ast.ClassDef) -> None:
        qual = f"{self.module}.{node.name}"
        taints: dict[str, str] = {}
        for statement in node.body:
            if (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "__init__"
            ):
                scanner = _FunctionScanner(
                    self, statement, cls_qual=qual,
                    qualname=f"{qual}.__init__", collect_only=True,
                )
                scanner.run_taint()
                for target, value in scanner.self_assignments:
                    if value is not None:
                        taints[target] = value
        if taints:
            self.class_attr_taints[qual] = taints

    def _scan_class(self, node: ast.ClassDef) -> None:
        qual = f"{self.module}.{node.name}"
        bases: list[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                resolved = self._class_qual(base.id)
                bases.append(resolved or base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        facts = ClassFacts(
            qualname=qual, module=self.module, name=node.name,
            line=node.lineno, bases=bases,
        )
        for statement in node.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                facts.methods[statement.name] = (
                    f"{qual}.{statement.name}"
                )
                self._scan_function(statement, cls=qual)
        self.facts.classes[node.name] = facts

    def _scan_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
    ) -> None:
        qualname = (
            f"{cls}.{node.name}" if cls else f"{self.module}.{node.name}"
        )
        scanner = _FunctionScanner(self, node, cls_qual=cls, qualname=qualname)
        self.facts.functions[qualname] = scanner.run()


class _FunctionScanner:
    """Taint + fact extraction for one function (nested defs included)."""

    def __init__(
        self,
        owner: _ModuleScanner,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_qual: str | None,
        qualname: str,
        collect_only: bool = False,
    ) -> None:
        self.owner = owner
        self.node = node
        self.cls_qual = cls_qual
        self.qualname = qualname
        self.collect_only = collect_only
        self.spec = owner.spec
        self.env: dict[str, str] = {}
        self.dispatch_env: dict[str, str] = {}
        #: (attr, taint) assignments to ``self`` (attr-taint pre-pass).
        self.self_assignments: list[tuple[str, str | None]] = []
        self.global_names: set[str] = set()
        self._globals_out: set[tuple[int, str, str]] = set()

    # -- taint environment -------------------------------------------

    def _seed_params(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef,
        env: dict[str, str],
    ) -> None:
        args = node.args
        every = (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        )
        for arg in every:
            if arg.arg == "self" and self.cls_qual:
                env["self"] = self.cls_qual
                continue
            annotated = _annotation_name(arg.annotation)
            if annotated:
                qual = self.owner._class_qual(annotated)
                if qual:
                    env[arg.arg] = qual
                    continue
            seed = self.spec.name_seeds.get(arg.arg)
            if seed and arg.annotation is None:
                env[arg.arg] = seed

    def run_taint(self) -> None:
        self._seed_params(self.node, self.env)
        # Fixpoint over the body: taint only accumulates, and two
        # passes settle the common backward-reference shapes.
        for _ in range(3):
            before = dict(self.env)
            for statement in self.node.body:
                self._exec(statement, self.env)
            if self.env == before:
                break

    def _eval(self, node: ast.expr, env: dict[str, str]) -> str | None:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, env)
            if base is None:
                return None
            fields = self.spec.config_fields.get(base)
            if fields is not None:
                return fields.get(node.attr)
            return self.owner.class_attr_taints.get(base, {}).get(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "replace" and node.args:
                    target = self.owner.from_imports.get("replace", "")
                    if target == "dataclasses.replace":
                        return self._eval(node.args[0], env)
                qual = self.owner._class_qual(func.id)
                if qual:
                    return qual
            return None
        if isinstance(node, ast.IfExp):
            return (
                self._eval(node.body, env) or self._eval(node.orelse, env)
            )
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value or env.get(node.target.id, None)
                if env.get(node.target.id) is None:
                    env.pop(node.target.id, None)
            return value
        return None

    def _assign(
        self, target: ast.expr, taint: str | None, env: dict[str, str],
        line: int,
    ) -> None:
        if isinstance(target, ast.Name):
            if taint is None:
                env.pop(target.id, None)
            else:
                env[target.id] = taint
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, None, env, line)
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, None, env, line)
            return
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute):
            if (
                isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base is target
            ):
                self.self_assignments.append((base.attr, taint))
        elif isinstance(base, ast.Name) and base is not target:
            # Subscript store through a bare name: module-global
            # mutation if the name is module-level or imported.
            self._record_global_write(base.id, line)

    def _record_global_write(self, name: str, line: int) -> None:
        owner = None
        if name in self.global_names or name in self.owner.module_globals:
            owner = self.owner.module
        else:
            target = self.owner.from_imports.get(name)
            if target and target.split(".", 1)[0] == self.owner.package:
                owner = target.rsplit(".", 1)[0]
        if owner is not None:
            self._globals_out.add((line, name, owner))

    def _exec(self, node: ast.stmt, env: dict[str, str]) -> None:
        if isinstance(node, ast.Global):
            self.global_names.update(node.names)
        elif isinstance(node, ast.Assign):
            taint = self._eval(node.value, env)
            if (
                isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in self.owner.facts.tables
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.dispatch_env[target.id] = (
                            node.value.value.id
                        )
            for target in node.targets:
                self._assign(target, taint, env, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            taint = (
                self._eval(node.value, env) if node.value else None
            )
            if taint is None:
                annotated = _annotation_name(node.annotation)
                if annotated:
                    taint = self.owner._class_qual(annotated)
            self._assign(node.target, taint, env, node.lineno)
        elif isinstance(node, ast.AugAssign):
            self._eval(node.value, env)
            self._assign(node.target, None, env, node.lineno)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._eval(node.iter, env)
            self._assign(node.target, None, env, node.lineno)
            for child in node.body + node.orelse:
                self._exec(child, env)
        elif isinstance(node, (ast.While, ast.If)):
            self._eval(node.test, env)
            for child in node.body + node.orelse:
                self._exec(child, env)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                taint = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint, env, node.lineno)
            for child in node.body:
                self._exec(child, env)
        elif isinstance(node, ast.Try):
            for child in (
                node.body + node.orelse + node.finalbody
                + [s for handler in node.handlers for s in handler.body]
            ):
                self._exec(child, env)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = dict(env)
            self._seed_params(node, inner)
            for child in node.body:
                self._exec(child, inner)
        elif isinstance(node, (ast.Return, ast.Expr)):
            if node.value is not None:
                self._eval(node.value, env)
        # Remaining statement kinds carry no taint effects we track.

    # -- full fact extraction ----------------------------------------

    def run(self) -> FunctionFacts:
        self.run_taint()
        facts = FunctionFacts(
            qualname=self.qualname,
            module=self.owner.module,
            relative=self.owner.relative,
            line=self.node.lineno,
            cls=self.cls_qual,
            is_coroutine=isinstance(self.node, ast.AsyncFunctionDef),
        )
        facts.blocking = blocking_findings(self.node, self.owner.rep_aliases)
        self._walk_effects(facts)
        facts.global_writes = sorted(
            set(facts.global_writes) | self._globals_out
        )
        return facts

    def _walk_env(self) -> dict[str, str]:
        """The settled taint env plus nested-function param seeds.

        The effects walk below is flat (``ast.walk``), so parameters
        of nested helpers (``config_key``'s ``cache_key(cache)``) must
        be visible when their bodies' attribute loads are evaluated;
        outer bindings win on collision.
        """
        env = dict(self.env)
        for node in ast.walk(self.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is self.node:
                    continue
                inner: dict[str, str] = {}
                self._seed_params(node, inner)
                for name, taint in inner.items():
                    env.setdefault(name, taint)
        return env

    def _walk_effects(self, facts: FunctionFacts) -> None:
        owner = self.owner
        awaited_env = self._walk_env()
        for node in ast.walk(self.node):
            if isinstance(node, ast.Call):
                self._record_call(node, facts, awaited_env)
                self._record_env_call(node, facts)
                self._record_mutator(node)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                chain = _dotted(node.value)
                if chain in {"os.environ"} or (
                    chain == "environ"
                    and owner.from_imports.get("environ") == "os.environ"
                ):
                    facts.env_reads.append(
                        (node.lineno, _const_str(node.slice))
                    )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                # Every attribute load on a typed receiver that is not
                # a declared dataclass field becomes a typed call edge,
                # so property reads resolve through the graph.
                receiver = self._eval_quiet(node.value, awaited_env)
                if receiver is None:
                    continue
                fields = self.spec.config_fields.get(receiver)
                if fields is None or node.attr not in fields:
                    facts.calls.append(
                        ("typed", (receiver, node.attr), node.lineno)
                    )

    def _eval_quiet(self, node: ast.expr, env: dict[str, str]) -> str | None:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._eval_quiet(node.value, env)
            if base is None:
                return None
            fields = self.spec.config_fields.get(base)
            if fields is not None:
                return fields.get(node.attr)
            return self.owner.class_attr_taints.get(base, {}).get(node.attr)
        return None

    def _record_call(
        self, node: ast.Call, facts: FunctionFacts, env: dict[str, str]
    ) -> None:
        owner = self.owner
        func = node.func
        line = node.lineno
        if isinstance(func, ast.Name):
            resolved = owner._resolve_bare(func.id)
            if resolved is not None:
                facts.calls.append(("qual", resolved, line))
            elif func.id in self.dispatch_env:
                facts.calls.append(
                    ("table", (owner.module, self.dispatch_env[func.id]),
                     line)
                )
            return
        if isinstance(func, ast.Subscript) and isinstance(
            func.value, ast.Name
        ) and func.value.id in owner.facts.tables:
            facts.calls.append(
                ("table", (owner.module, func.value.id), line)
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        # Dotted module call: repro.uarch.simulator.simulate(...).
        chain = _name_chain(func)
        if chain is not None:
            root = chain[0]
            if root in owner.module_aliases:
                full = ".".join(
                    [owner.module_aliases[root], *chain[1:]]
                )
                if full.split(".", 1)[0] == owner.package:
                    facts.calls.append(("qual", full, line))
                return
            if root in owner.from_imports:
                full = ".".join([owner.from_imports[root], *chain[1:]])
                if full.split(".", 1)[0] == owner.package:
                    facts.calls.append(("qual", full, line))
                return
        # Pool callbacks: pool.map(worker, ...) runs `worker`.
        if func.attr in _CALLBACK_METHODS:
            for argument in node.args:
                if isinstance(argument, ast.Name):
                    resolved = owner._resolve_bare(argument.id)
                    if resolved is not None:
                        facts.calls.append(("ref", resolved, line))
        receiver = self._eval_quiet(func.value, env)
        if receiver is not None:
            facts.calls.append(("typed", (receiver, func.attr), line))
        else:
            facts.calls.append(("method", func.attr, line))

    def _record_env_call(self, node: ast.Call, facts: FunctionFacts) -> None:
        func = node.func
        dotted = _dotted(func)
        if dotted in {"os.environ.get", "os.getenv"}:
            variable = _const_str(node.args[0]) if node.args else None
            facts.env_reads.append((node.lineno, variable))
        elif dotted in {"environ.get", "getenv"}:
            root = dotted.split(".", 1)[0]
            target = self.owner.from_imports.get(root, "")
            if target in {"os.environ", "os.getenv"}:
                variable = _const_str(node.args[0]) if node.args else None
                facts.env_reads.append((node.lineno, variable))

    def _record_mutator(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
        ):
            return
        base = func.value
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            self._record_global_write(base.id, node.lineno)


def _name_chain(node: ast.expr) -> list[str] | None:
    """A pure dotted-name chain (no calls/subscripts), or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _dotted(node: ast.expr) -> str | None:
    chain = _name_chain(node)
    return ".".join(chain) if chain else None


def _const_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def blocking_findings(
    owner: ast.AST, aliases: dict[str, str]
) -> list[tuple[int, str]]:
    """Event-loop-blocking primitives in one function body (FL004's facts).

    Runs over every function, ``async`` or not: FL004 decides by
    reachability whether a serve coroutine can call it.  Call nodes
    that are directly awaited (asyncio ``Queue.get()`` and friends) are
    non-blocking by definition and skipped.
    """
    awaited = {
        id(waited.value)
        for waited in ast.walk(owner)
        if isinstance(waited, ast.Await)
    }
    findings: list[tuple[int, str]] = []
    for node in ast.walk(owner):
        if not isinstance(node, ast.Call) or id(node) in awaited:
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        chain = _name_chain(func)
        root = aliases.get(chain[0]) if chain else None
        if root == "time" and func.attr == "sleep":
            findings.append((
                node.lineno,
                "time.sleep() blocks the event loop; use asyncio.sleep",
            ))
        elif (
            func.attr == "get"
            and not node.args
            and not any(
                keyword.arg == "timeout" for keyword in node.keywords
            )
            and not (
                isinstance(func.value, ast.Name)
                and func.value.id in aliases
            )
        ):
            findings.append((
                node.lineno,
                "synchronous .get() without a timeout can block the "
                "event loop indefinitely; await an asyncio queue or "
                "pass timeout=",
            ))
    return findings


def scan_module(
    source: str,
    relative: str,
    module: str,
    is_package: bool = False,
    spec: TaintSpec | None = None,
) -> ModuleFacts:
    """Scan one module's source into plain facts (worker-friendly)."""
    if spec is None:
        spec = default_taint_spec()
    return _ModuleScanner(source, relative, module, is_package, spec).scan()


# ----------------------------------------------------------------------
# Linking: facts → graph
# ----------------------------------------------------------------------

@dataclass
class FlowGraph:
    """The linked whole-repo model."""

    source_root: str
    package: str
    digest: str
    functions: dict[str, FunctionFacts]
    classes: dict[str, ClassFacts]
    tables: dict[tuple[str, str], list[str]]
    imports: dict[str, dict[str, str]]
    edges: dict[str, list[tuple[str, int]]]
    modules: int = 0
    built_seconds: float = 0.0

    def callees(self, qualname: str) -> list[str]:
        return sorted({callee for callee, _ in self.edges.get(qualname, [])})


def _link(
    modules: list[ModuleFacts],
    source_root: Path,
    package: str,
    digest: str,
) -> FlowGraph:
    functions: dict[str, FunctionFacts] = {}
    classes: dict[str, ClassFacts] = {}
    tables: dict[tuple[str, str], list[str]] = {}
    imports: dict[str, dict[str, str]] = {}
    for facts in modules:
        functions.update(facts.functions)
        imports[facts.module] = facts.imports
        for class_facts in facts.classes.values():
            classes[class_facts.qualname] = class_facts
        for name, values in facts.tables.items():
            tables[(facts.module, name)] = values
    class_by_name: dict[str, list[str]] = {}
    for qual, class_facts in classes.items():
        class_by_name.setdefault(class_facts.name, []).append(qual)
    subclasses: dict[str, list[str]] = {}
    for qual, class_facts in classes.items():
        for base in class_facts.bases:
            parents = [base] if base in classes else class_by_name.get(
                base, []
            )
            for parent in parents:
                subclasses.setdefault(parent, []).append(qual)
    method_index: dict[str, list[str]] = {}
    for qual, info in functions.items():
        if info.cls is not None:
            method_index.setdefault(
                qual.rsplit(".", 1)[-1], []
            ).append(qual)

    def resolve_qual(dotted: str) -> list[str]:
        """A dotted target → function qualnames (re-exports followed)."""
        seen = set()
        current = dotted
        for _ in range(8):
            if current in functions:
                return [current]
            if current in classes:
                init = classes[current].methods.get("__init__")
                return [init] if init else []
            if current in seen or "." not in current:
                return []
            seen.add(current)
            module_part, name = current.rsplit(".", 1)
            remap = imports.get(module_part, {}).get(name)
            if remap is None:
                return []
            current = remap
        return []

    def resolve_method(class_qual: str, method: str) -> list[str]:
        seen: set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = classes.get(current)
            if info is None:
                # Bare/unresolvable base name: try by class name.
                queue.extend(class_by_name.get(current, []))
                continue
            if method in info.methods:
                return [info.methods[method]]
            queue.extend(info.bases)
        return []

    def resolve_overrides(class_qual: str, method: str) -> list[str]:
        """Every subclass definition of ``method`` below ``class_qual``.

        A typed receiver may hold any subclass instance at run time, so
        ``self.execute()`` in a base class must reach each override.
        """
        found: list[str] = []
        seen = {class_qual}
        queue = list(subclasses.get(class_qual, []))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            override = classes[current].methods.get(method)
            if override is not None:
                found.append(override)
            queue.extend(subclasses.get(current, []))
        return found

    edges: dict[str, list[tuple[str, int]]] = {}
    for qual, info in functions.items():
        out: list[tuple[str, int]] = []
        for kind, data, line in info.calls:
            targets: list[str] = []
            if kind in {"qual", "ref"}:
                targets = resolve_qual(data)
            elif kind == "typed":
                class_qual, method = data
                targets = resolve_method(class_qual, method)
                if not targets and class_qual not in classes:
                    targets = method_index.get(method, [])
                targets = targets + resolve_overrides(class_qual, method)
            elif kind == "method":
                targets = method_index.get(data, [])
            elif kind == "table":
                targets = []
                for value in tables.get(tuple(data), []):
                    targets.extend(resolve_qual(value))
            for target in targets:
                out.append((target, line))
        if out:
            deduped: dict[str, int] = {}
            for target, line in out:
                deduped.setdefault(target, line)
            edges[qual] = sorted(deduped.items())
    return FlowGraph(
        source_root=str(source_root),
        package=package,
        digest=digest,
        functions=functions,
        classes=classes,
        tables=tables,
        imports=imports,
        edges=edges,
        modules=len(modules),
    )


def _iter_sources(package_root: Path) -> list[tuple[Path, str, str, bool]]:
    """``(path, relative, module, is_package)`` for every module."""
    package = package_root.name
    entries = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root.parent)
        parts = list(relative.with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        module = ".".join(parts) if parts else package
        entries.append((path, str(relative), module, is_package))
    return entries


def source_digest(package_root: Path) -> str:
    """Content address of the analysed sources."""
    digest = hashlib.blake2b(digest_size=16)
    for path, relative, _, _ in _iter_sources(package_root):
        digest.update(relative.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build_graph(
    package_root: Path | None = None,
    *,
    spec: TaintSpec | None = None,
) -> FlowGraph:
    """Scan every module of the package and link the call graph."""
    start = time.perf_counter()
    root = PACKAGE_ROOT if package_root is None else Path(package_root)
    if spec is None:
        spec = (
            default_taint_spec() if package_root is None else TaintSpec()
        )
    modules = [
        scan_module(path.read_text(), relative, module, is_package, spec)
        for path, relative, module, is_package in _iter_sources(root)
    ]
    graph = _link(modules, root.parent, root.name, source_digest(root))
    graph.built_seconds = time.perf_counter() - start
    return graph


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------

def reachable(
    graph: FlowGraph, roots: list[str]
) -> dict[str, str | None]:
    """BFS parents map: reached qualname → caller (roots → ``None``)."""
    parents: dict[str, str | None] = {}
    queue: list[str] = []
    for root in roots:
        if root in graph.functions and root not in parents:
            parents[root] = None
            queue.append(root)
    while queue:
        current = queue.pop(0)
        for callee, _ in graph.edges.get(current, []):
            if callee not in parents:
                parents[callee] = current
                queue.append(callee)
    return parents


def chain_to(parents: dict[str, str | None], target: str) -> tuple[str, ...]:
    chain = [target]
    seen = {target}
    while True:
        parent = parents.get(chain[0])
        if parent is None or parent in seen:
            break
        chain.insert(0, parent)
        seen.add(parent)
    return tuple(chain)


# ----------------------------------------------------------------------
# Rule implementations
# ----------------------------------------------------------------------

def default_task_roots(graph: FlowGraph) -> list[str]:
    """The cached task bodies: TASK_KINDS entries minus test scaffolding."""
    table = graph.tables.get((_TASKS_MODULE, _TASK_TABLE), [])
    return [
        qual for qual in table
        if qual.rsplit(".", 1)[-1] not in _UNCACHED_TASKS
    ]


def fl003(
    graph: FlowGraph, fork_roots: list[str] | None = None
) -> list[FlowViolation]:
    """Cross-module global mutation from fork-worker code."""
    if fork_roots is None:
        fork_roots = default_task_roots(graph)
    parents = reachable(graph, fork_roots)
    violations = []
    for qual in parents:
        info = graph.functions[qual]
        for line, name, owner_module in info.global_writes:
            if owner_module == info.module:
                continue
            violations.append(FlowViolation(
                "FL003", info.relative, line,
                f"mutates module global {owner_module}.{name} from "
                "code reachable in fork workers; cross-module global "
                "state diverges silently across worker processes",
                chain=chain_to(parents, qual),
            ))
    return violations


def fl004(
    graph: FlowGraph,
    serve_prefix: str | tuple[str, ...] = _SERVE_PREFIXES,
) -> list[FlowViolation]:
    """Blocking calls in, or reachable from, serve coroutines."""
    prefixes = (
        (serve_prefix,) if isinstance(serve_prefix, str)
        else tuple(serve_prefix)
    )
    roots = [
        qual for qual, info in graph.functions.items()
        if info.is_coroutine and any(
            info.module == prefix
            or info.module.startswith(prefix + ".")
            for prefix in prefixes
        )
    ]
    parents = reachable(graph, sorted(roots))
    violations = {}
    for qual in parents:
        info = graph.functions[qual]
        for line, message in info.blocking:
            key = (info.relative, line)
            if key in violations:
                continue
            chain = chain_to(parents, qual)
            suffix = ""
            if len(chain) > 1:
                suffix = (
                    " (called from coroutine "
                    f"{chain[0].rsplit('.', 1)[-1]})"
                )
            violations[key] = FlowViolation(
                "FL004", info.relative, line,
                f"{message}{suffix}", chain=chain,
            )
    return list(violations.values())


def fl005(
    graph: FlowGraph,
    cached_roots: list[str] | None = None,
    key_roots: list[str] | None = None,
) -> list[FlowViolation]:
    """Environment reads reaching cached results must be key-salted."""
    if cached_roots is None:
        cached_roots = default_task_roots(graph)
    if key_roots is None:
        key_roots = [
            qual for qual in _KEY_ROOTS if qual in graph.functions
        ]
    salted: set[str] = set()
    for qual in reachable(graph, key_roots):
        for _, variable in graph.functions[qual].env_reads:
            if variable is not None:
                salted.add(variable)
    key_modules = {qual.rsplit(".", 1)[0] for qual in key_roots}
    parents = reachable(graph, cached_roots)
    violations = []
    for qual in parents:
        info = graph.functions[qual]
        if info.module in key_modules:
            continue
        for line, variable in info.env_reads:
            if variable is not None and variable in salted:
                continue
            shown = variable if variable is not None else "<dynamic>"
            violations.append(FlowViolation(
                "FL005", info.relative, line,
                f"reads ${shown} on a path feeding cached results, but "
                "the cache key is never salted with it; two "
                "environments would alias one cache entry",
                chain=chain_to(parents, qual),
            ))
    return violations


FLOW_RULE_IMPLS = {
    "FL003": fl003,
    "FL004": fl004,
    "FL005": fl005,
}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _filter_suppressed(
    violations: list[FlowViolation], source_root: Path
) -> list[FlowViolation]:
    by_file: dict[str, tuple[dict[int, set[str]], set[str]]] = {}
    kept = []
    for violation in violations:
        maps = by_file.get(violation.path)
        if maps is None:
            path = source_root / violation.path
            try:
                maps = suppression_maps(path.read_text(), "flowlint")
            except OSError:
                maps = ({}, set())
            by_file[violation.path] = maps
        per_line, whole_file = maps
        if violation.rule in whole_file:
            continue
        if violation.rule in per_line.get(violation.line, ()):
            continue
        kept.append(violation)
    return kept


def lint_flow(
    graph: FlowGraph | None = None,
    rules: set[str] | None = None,
    *,
    honor_suppressions: bool = True,
) -> list[FlowViolation]:
    """Run the FL rules over the package (or a prebuilt graph)."""
    if graph is None:
        graph = build_graph()
    violations: list[FlowViolation] = []
    for rule, implementation in FLOW_RULE_IMPLS.items():
        if rules is not None and rule not in rules:
            continue
        violations.extend(implementation(graph))
    if honor_suppressions:
        violations = _filter_suppressed(
            violations, Path(graph.source_root)
        )
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


_strict_checked: set[str] = set()


def check_flow() -> None:
    """Strict-mode hook: raise :class:`FlowLintError` on violations.

    Runs at most once per process per source state (the experiment
    runtime calls this for every ``--strict`` run; repeated
    construction must not re-pay the whole-repo scan).
    """
    digest = source_digest(PACKAGE_ROOT)
    if digest in _strict_checked:
        return
    violations = lint_flow()
    if violations:
        raise FlowLintError(violations)
    _strict_checked.add(digest)


# ----------------------------------------------------------------------
# Stale-suppression audit
# ----------------------------------------------------------------------

def stale_suppressions(
    package_root: Path | None = None,
) -> list[LintViolation]:
    """Disable comments that no longer suppress any finding.

    Runs RepoLint and FlowLint with suppressions ignored, then checks
    every ``# repolint: disable``/``# flowlint: disable`` comment
    against the raw findings: a per-line disable is stale when its
    rule no longer fires on that line, a file-level disable when the
    rule no longer fires anywhere in the file.  Stale suppressions are
    worse than dead code — they silently swallow the *next* genuine
    violation at that line.
    """
    from repro.verify.repolint import (
        lint_source as repolint_source,
        suppression_comments,
    )

    root = PACKAGE_ROOT if package_root is None else Path(package_root)
    source_root = root.parent
    graph = build_graph(root if package_root is not None else None)
    flow_raw = lint_flow(graph=graph, honor_suppressions=False)
    findings: dict[str, list[tuple[int, str, str]]] = {}
    for violation in flow_raw:
        findings.setdefault(violation.path, []).append(
            (violation.line, "flowlint", violation.rule)
        )
    stale: list[LintViolation] = []
    for path in sorted(root.rglob("*.py")):
        relative = str(path.relative_to(source_root))
        source = path.read_text()
        comments = suppression_comments(source)
        if not comments:
            continue
        raw = repolint_source(
            source, relative, honor_suppressions=False
        )
        per_file = list(findings.get(relative, []))
        per_file.extend(
            (violation.line, "repolint", violation.rule)
            for violation in raw
        )
        for line, tag, rule, file_level in comments:
            hits = [
                entry for entry in per_file
                if entry[1] == tag and entry[2] == rule
                and (file_level or entry[0] == line)
            ]
            if not hits:
                scope = "anywhere in this file" if file_level else (
                    "on this line"
                )
                stale.append(LintViolation(
                    "STALE", relative, line,
                    f"stale suppression: {tag} rule {rule} no longer "
                    f"fires {scope}; remove the disable comment",
                ))
    stale.sort(key=lambda v: (v.path, v.line))
    return stale

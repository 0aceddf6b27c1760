"""Every module in ``src/repro`` is reached from a real entry point.

The entry points are the CLI (``repro.__main__``), the paper
benchmarks (``benchmarks/*.py``) and the repository benchmark
(``e2ebench/*.py``).  The test takes the static import closure of
those files, in-function (lazy) imports included, and asserts that the
only modules it misses are the references that tests compare against.
A module that only tests or ``examples/`` import is dead weight: give
it an entry point or delete it.

A package ``__init__`` only re-exports, so importing a name from a
package reaches the submodule that defines the name, not every
submodule the package re-exports.  Otherwise one re-export would make
a module look reachable.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: Modules kept as test references; no entry point needs them.
TEST_REFERENCES = {
    # the empirical Karlin-lambda oracle for served BLAST E-values
    "repro.align.statistics",
    # the mutation guards the tests share
    "repro.verify.guards",
}


def _package_modules() -> dict[str, Path]:
    modules = {}
    for path in PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path: Path) -> list[ast.Import | ast.ImportFrom]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


class _Closure:
    def __init__(self) -> None:
        self.modules = _package_modules()
        self.packages = {
            name for name, path in self.modules.items()
            if path.name == "__init__.py"
        }
        self.reached: set[str] = set()

    def _reexports(self, package: str) -> dict[str, tuple[str, str]]:
        """``name -> (module, name)`` for each import in ``__init__``."""
        table = {}
        for node in _imports(self.modules[package]):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    table[alias.asname or alias.name] = (node.module, alias.name)
        return table

    def _resolve(self, module: str, name: str) -> list[str]:
        """The modules that ``from module import name`` reaches."""
        if f"{module}.{name}" in self.modules:
            return [f"{module}.{name}"]
        if module in self.packages:
            source = self._reexports(module).get(name)
            # A name defined in the ``__init__`` itself reaches nothing.
            return self._resolve(*source) if source else []
        return [module] if module in self.modules else []

    def _targets(self, path: Path) -> list[str]:
        targets = []
        for node in _imports(path):
            if isinstance(node, ast.Import):
                targets += [alias.name for alias in node.names]
            elif node.module and node.level == 0:
                for alias in node.names:
                    targets += self._resolve(node.module, alias.name)
        return [name for name in targets if name in self.modules]

    def walk(self, roots: list[Path]) -> set[str]:
        pending = [target for root in roots for target in self._targets(root)]
        while pending:
            module = pending.pop()
            if module in self.reached:
                continue
            self.reached.add(module)
            if module not in self.packages:
                pending += self._targets(self.modules[module])
        return self.reached


def test_only_test_references_are_unreached():
    roots = [
        PACKAGE_ROOT / "__main__.py",
        *sorted((REPO_ROOT / "benchmarks").glob("*.py")),
        *sorted((REPO_ROOT / "e2ebench").glob("*.py")),
    ]
    closure = _Closure()
    reached = closure.walk(roots) | {"repro.__main__"}
    unreached = set(closure.modules) - closure.packages - reached
    assert unreached == TEST_REFERENCES

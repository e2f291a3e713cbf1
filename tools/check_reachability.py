#!/usr/bin/env python
"""Reachability gate (run by CI and tests/test_reachability.py).

Fails when a public top-level name in ``src/repro`` is reached by nothing
but ``tests/``: code that no command, benchmark, example or tool runs is
code that only its own test keeps alive.

The check builds a definition-level liveness graph and solves it to a
fixpoint:

* the **roots** are ``repro.cli`` and ``repro.__main__`` (every definition
  in them) and every ``.py`` file under ``benchmarks/``, ``examples/`` and
  ``tools/`` (the whole file);
* a live definition makes live every name its body, decorators, defaults
  and annotations mention, resolved through absolute and relative
  imports, re-exports in package ``__init__``s and attribute access on
  module aliases (``initializers.he_normal``); an import inside a live
  body, or at module level of a reached module, reaches that module;
* the module-level statements of a reached module run at import, so the
  names they mention are live — a dispatch table keeps its entries;
* a definition mentioned only by another unreached definition stays
  unreached, and strings (``__all__`` entries, ``getattr`` names) are not
  uses.

A finding is deleted, moved to ``tests/`` (test helpers) or listed in
:data:`ALLOWED` with a one-line reason.  The allow-list is kept honest
both ways: an entry that names no top-level definition, or whose name is
reachable, fails the check.

Pure stdlib + ``ast``: nothing under ``src/`` is imported.  The module
walker is :func:`check_doc_coverage.public_modules`.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from check_doc_coverage import REPO_ROOT, module_all, public_modules  # noqa: E402

ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_DIRS = ("benchmarks", "examples", "tools")

# Public top-level names kept although only tests reach them: dotted
# name -> one-line reason.  An entry is a root of its own, so what it
# uses needs no entry.
ALLOWED: dict[str, str] = {
    "repro.core.analytic.ladder_accuracy":
        "Eq. (2N), the N-stage form of the paper's Eq. (2) (docs/LADDER.md)",
    "repro.core.ladder.PrecisionLadder":
        "offline N-stage reference of the precision ladder (docs/LADDER.md)",
    "repro.experiments.report_all.write_report":
        "writes the full experiment report EXPERIMENTS.md points readers to",
    "repro.net.protocol.FRAME_TYPES":
        "the frame format's public name -> type-code table",
    "repro.net.protocol.PROTOCOL_MINOR":
        "the wire format's in-band extension level (docs/TENANCY.md)",
    "repro.net.protocol.decode_frame":
        "one-shot inverse of encode_frame, the frame format's reference decoder",
    "repro.net.router.InProcessReplica":
        "ShardRouter's in-process replica handle, beside ProcessReplica",
    "repro.obs.tracer.install":
        "process-wide form of tracing() for tracing a whole program",
}

# Statements whose nested bodies still run at import (``TryStar`` is 3.11+).
_COMPOUND = tuple(
    getattr(ast, kind)
    for kind in ("If", "Try", "TryStar", "With", "For", "While")
    if hasattr(ast, kind)
)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Refs(ast.NodeVisitor):
    """Name chains (``a``, ``a.b.c``) mentioned by a tree, plus its imports."""

    def __init__(self) -> None:
        self.chains: list[tuple[str, ...]] = []
        self.imports: list[ast.Import | ast.ImportFrom] = []

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store):
            self.chains.append((node.id,))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attrs = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            attrs.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            self.chains.append((value.id, *reversed(attrs)))
        else:
            self.visit(value)

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.append(node)

    visit_ImportFrom = visit_Import


class _Module:
    """One parsed source file: its definitions, imports and module body."""

    def __init__(self, name: str | None, path: Path, package: str | None):
        self.name = name
        self.path = path
        self.package = package  # for relative imports; None outside src/
        self.defs: dict[str, list[ast.AST]] = {}
        self.imports: list[ast.Import | ast.ImportFrom] = []
        self.body: list[ast.AST] = []  # module-level code run at import
        self.bound: dict[str, list[tuple]] | None = None
        self.exports = module_all(path) if name else []
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self._collect(self.tree.body)

    def _collect(self, stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, _DEFS):
                self.defs.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.imports.append(stmt)
            elif isinstance(stmt, _COMPOUND):
                header = [getattr(stmt, f) for f in ("test", "iter", "target")
                          if getattr(stmt, f, None) is not None]
                header += [item.context_expr for item in getattr(stmt, "items", [])]
                header += [h.type for h in getattr(stmt, "handlers", []) if h.type]
                self.body.extend(header)
                for field in ("body", "orelse", "finalbody"):
                    self._collect(getattr(stmt, field, []))
                for handler in getattr(stmt, "handlers", []):
                    self._collect(handler.body)
            else:
                self.body.append(stmt)
                for target in _assigned_names(stmt):
                    self.defs.setdefault(target, []).append(stmt)


def _assigned_names(stmt: ast.AST) -> list[str]:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    names = []
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.append(node.id)
    return names


class _Graph:
    """Liveness over (module, name) definitions and reached modules."""

    def __init__(self, root: Path):
        src = root / "src" / "repro"
        self.modules: dict[str, _Module] = {}
        found = list(public_modules(src))
        main = src / "__main__.py"
        if main.exists():
            found.append(("repro.__main__", main))
        for dotted, path in found:
            is_package = path.name == "__init__.py"
            package = dotted if is_package else dotted.rpartition(".")[0]
            self.modules[dotted] = _Module(dotted, path, package)
        self._refs_cache: dict[int, _Refs] = {}
        self._scripts: dict[str, list[_Module]] = {}
        for top in (*ROOT_DIRS, "tests"):
            self._scripts[top] = [
                _Module(None, path, None)
                for path in sorted((root / top).rglob("*.py"))
                if "__pycache__" not in path.parts
            ] if (root / top).is_dir() else []

    # -- resolution ---------------------------------------------------------
    def _bound(self, module: _Module) -> dict[str, list[tuple]]:
        """Names bound by the module's own top-level imports (cached)."""
        if module.bound is None:
            module.bound = self._bind(module, module.imports)
        return module.bound

    def _bind(self, module: _Module, imports) -> dict[str, list[tuple]]:
        """Local name -> targets bound by ``imports`` (('mod', m) / ('sym', m, n))."""
        bound: dict[str, list[tuple]] = {}
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound.setdefault(alias.asname, []).append(("mod", alias.name))
                    else:
                        head = alias.name.partition(".")[0]
                        bound.setdefault(head, []).append(("mod", head))
                continue
            base = self._absolute(module, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, []).append(
                        ("sym", base, alias.name))
        return bound

    def _absolute(self, module: _Module, node: ast.ImportFrom) -> str | None:
        if not node.level:
            return node.module
        if module.package is None:
            return None
        parts = module.package.split(".")
        if node.level - 1 >= len(parts):
            return None
        base = ".".join(parts[: len(parts) - (node.level - 1)])
        return f"{base}.{node.module}" if node.module else base

    def _imported_modules(self, module: _Module, imports) -> list[str]:
        """Modules executed by running ``imports``."""
        out = []
        for node in imports:
            if isinstance(node, ast.Import):
                out.extend(alias.name for alias in node.names)
                continue
            base = self._absolute(module, node)
            if base is None:
                continue
            out.append(base)
            out.extend(f"{base}.{alias.name}" for alias in node.names)
        return [m for m in out if m in self.modules]

    def _symbol(self, mod: str, name: str, seen=()) -> list[tuple]:
        """What ``from mod import name`` yields: ('def', m, n) / ('mod', m)."""
        module = self.modules.get(mod)
        if module is None or (mod, name) in seen:
            return []
        out: list[tuple] = []
        if name in module.defs:
            out.append(("def", mod, name))
        for target in self._bound(module).get(name, []):
            out.extend(self._follow(target, seen + ((mod, name),)))
        if f"{mod}.{name}" in self.modules:
            out.append(("mod", f"{mod}.{name}"))
        return out

    def _follow(self, target: tuple, seen=()) -> list[tuple]:
        if target[0] == "mod":
            return [target] if target[1] in self.modules else []
        return self._symbol(target[1], target[2], seen)

    def _resolve(self, module: _Module, bound, chain) -> list[tuple]:
        """Definitions and modules a name chain like ``a.b.c`` touches."""
        frontier = [t for b in bound.get(chain[0], []) for t in self._follow(b)]
        if module.name is not None and chain[0] in module.defs:
            frontier.append(("def", module.name, chain[0]))
        out = []
        for attr in chain[1:]:
            out.extend(frontier)
            frontier = [step for target in frontier if target[0] == "mod"
                        for step in self._symbol(target[1], attr)]
        return out + frontier

    # -- fixpoint -----------------------------------------------------------
    def _refs(self, node: ast.AST) -> _Refs:
        """The chains and imports of one statement or definition (cached)."""
        refs = self._refs_cache.get(id(node))
        if refs is None:
            refs = self._refs_cache[id(node)] = _Refs()
            refs.visit(node)
        return refs

    def live(self, script_dirs, seeds=()) -> set[tuple[str, str]]:
        """(module, name) of every definition reached from the root modules,
        the scripts under ``script_dirs`` and the ``seeds``."""
        live: set[tuple[str, str]] = set()
        reached: set[str] = set()
        work: list[tuple] = [("def", mod, name) for mod, name in seeds]

        def visit(module: _Module, nodes, bound) -> None:
            for node in nodes:
                refs = self._refs(node)
                local = bound
                if refs.imports:  # imports inside a body bind over the module's
                    local = dict(bound)
                    for name, targets in self._bind(module, refs.imports).items():
                        local[name] = local.get(name, []) + targets
                work.extend(("mod", m) for m in self._imported_modules(module, refs.imports))
                for chain in refs.chains:
                    work.extend(self._resolve(module, local, chain))

        for top in script_dirs:
            for script in self._scripts[top]:
                visit(script, [script.tree], {})
        for mod in ROOT_MODULES:
            if mod in self.modules:
                work.append(("mod", mod))
                work.extend(("def", mod, name) for name in self.modules[mod].defs)

        while work:
            item = work.pop()
            if item[0] == "mod":
                mod = item[1]
                if mod in reached:
                    continue
                reached.add(mod)
                parent = mod.rpartition(".")[0]
                if parent:
                    work.append(("mod", parent))
                module = self.modules[mod]
                work.extend(("mod", m) for m in self._imported_modules(module, module.imports))
                visit(module, module.body, self._bound(module))
                continue
            _, mod, name = item
            if (mod, name) in live:
                continue
            live.add((mod, name))
            work.append(("mod", mod))
            module = self.modules[mod]
            defs = [d for d in module.defs[name] if isinstance(d, _DEFS)]
            visit(module, defs, self._bound(module))
        return live

    def public_names(self) -> dict[str, tuple[str, str, ast.AST]]:
        """dotted -> (module, name, node) of every public top-level
        definition in src/ outside the root modules."""
        return {
            f"{mod}.{name}": (mod, name, nodes[0])
            for mod, module in self.modules.items() if mod not in ROOT_MODULES
            for name, nodes in module.defs.items() if not name.startswith("_")
        }

    def exported_by(self, mod: str, name: str) -> list[str]:
        """Its own module and the packages above it whose ``__all__`` lists
        ``name`` — the entries a deletion must drop."""
        return [other for other, module in self.modules.items()
                if (other == mod or mod.startswith(other + "."))
                and name in module.exports]


def check(root: Path = REPO_ROOT, allowed: dict[str, str] | None = None) -> list[str]:
    """All reachability violations (empty list = every public name is used)."""
    allowed = ALLOWED if allowed is None else allowed
    graph = _Graph(root)
    names = graph.public_names()
    kept = [names[entry][:2] for entry in allowed if entry in names]
    live = graph.live(ROOT_DIRS, kept)
    problems = []
    by_tests = None
    for dotted, (mod, name, node) in names.items():
        if (mod, name) in live:
            continue
        if by_tests is None:
            by_tests = graph.live((*ROOT_DIRS, "tests"), kept)
        where = f"{graph.modules[mod].path.relative_to(root)}:{node.lineno}"
        how = "only tests/ reach it" if (mod, name) in by_tests else "nothing reaches it"
        exported = graph.exported_by(mod, name)
        extra = f"; listed in __all__ of {', '.join(exported)}" if exported else ""
        problems.append(
            f"{dotted} ({where}): {how}{extra} — delete it, move it to tests/, "
            "or add it to ALLOWED in tools/check_reachability.py with a reason"
        )
    unseeded = graph.live(ROOT_DIRS) if allowed else set()
    for entry, reason in sorted(allowed.items()):
        if entry not in names:
            problems.append(f"stale ALLOWED entry {entry}: no such top-level name in src/repro")
        elif names[entry][:2] in unseeded:
            problems.append(f"ALLOWED entry {entry} is reachable — drop it from the allow-list")
        if not reason.strip() or "\n" in reason:
            problems.append(f"ALLOWED entry {entry} needs a one-line reason")
    return problems


def main() -> int:
    problems = check()
    if problems:
        print(f"reachability FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("reachability OK: every public name in src/repro is reached outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

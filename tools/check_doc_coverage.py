#!/usr/bin/env python
"""Documentation coverage gate (run by CI and tests/test_doc_coverage.py).

Fails when the importable surface and the documentation drift apart:

* every public ``repro.*`` package and module must be mentioned in
  ``docs/API.md`` — a package by its dotted name, a module by its dotted
  name or by one of its ``__all__`` symbols (so an index line like
  "``run_parallel_bench`` — the bench harness" counts without forcing a
  path-per-module listing style);
* every public module must additionally be referenced **by dotted path**
  from at least one file under ``docs/`` — unless it is listed in
  :data:`INTERNAL_HELPERS`, the explicit allowlist for modules that are
  documented only through their package's public surface.  The allowlist
  is kept honest both ways: an entry that names no real module, or whose
  module *is* dotted-referenced from docs, fails the check;
* ``docs/OBSERVABILITY.md`` must exist and be linked from the README;
* ``docs/LADDER.md`` must exist and be linked from the README,
  ``docs/API.md`` and ``docs/OBSERVABILITY.md`` (the precision-ladder
  guide is the map from serving stages to the paper's equations);
* ``docs/TRAFFIC.md`` must exist and be linked from the README,
  ``docs/API.md`` and ``docs/OBSERVABILITY.md`` (the open-loop load +
  SLO-autoscaler guide owns the ``slo.*`` / ``traffic.*`` obs signals);
* ``docs/TENANCY.md`` must exist and be linked from the README,
  ``docs/API.md`` and ``docs/OBSERVABILITY.md`` (the content-addressed
  cache + multi-tenant scheduling guide owns the ``cache.*`` /
  ``tenant.*`` obs signals and the books-balancing invariant).

Pure stdlib + ``ast``: nothing is imported, so the check is immune to
import-time side effects and runs in milliseconds.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
DOCS = REPO_ROOT / "docs"
API_MD = DOCS / "API.md"
OBSERVABILITY_MD = DOCS / "OBSERVABILITY.md"
LADDER_MD = DOCS / "LADDER.md"
TRAFFIC_MD = DOCS / "TRAFFIC.md"
TENANCY_MD = DOCS / "TENANCY.md"
README = REPO_ROOT / "README.md"

# Modules documented only through their package's public surface (their
# __all__ symbols are indexed in docs/API.md under the package heading).
# Everything NOT listed here must be referenced by dotted path from at
# least one file under docs/.  Entries are verified to exist and to be
# genuinely unreferenced — prune an entry the moment a doc names it.
INTERNAL_HELPERS = frozenset({
    "repro.bnn.binarize",
    "repro.bnn.export",
    "repro.bnn.layers",
    "repro.bnn.quantize",
    "repro.bnn.thresholding",
    "repro.core.ascii_chart",
    "repro.core.report",
    "repro.data.augment",
    "repro.data.cifar_io",
    "repro.data.dataset",
    "repro.data.score_dataset",
    "repro.data.synthetic",
    "repro.experiments.finn_config",
    "repro.experiments.report_all",
    "repro.experiments.workbench",
    "repro.finn.balance",
    "repro.finn.dataflow",
    "repro.finn.device",
    "repro.finn.drc",
    "repro.finn.engine",
    "repro.finn.memory",
    "repro.finn.mixed_precision",
    "repro.finn.report",
    "repro.finn.resources",
    "repro.hetero.devices",
    "repro.hetero.gantt",
    "repro.hetero.scheduler",
    "repro.hetero.timeline",
    "repro.host.cpu",
    "repro.host.flops",
    "repro.host.runtime",
    "repro.models.finn_cnv",
    "repro.models.registry",
    "repro.nn.functional",
    "repro.nn.gradcheck",
    "repro.nn.initializers",
    "repro.nn.layers.activations",
    "repro.nn.layers.batchnorm",
    "repro.nn.layers.conv",
    "repro.nn.layers.dense",
    "repro.nn.layers.dropout",
    "repro.nn.layers.flatten",
    "repro.nn.layers.lrn",
    "repro.nn.layers.pool",
    "repro.nn.losses",
    "repro.nn.metrics",
    "repro.nn.optim",
    "repro.nn.parameter",
    "repro.nn.serialize",
    "repro.nn.trainer",
    "repro.obs.export",
    "repro.obs.stats",
    "repro.obs.tracer",
    "repro.stream.pipeline",
    "repro.stream.roi",
    "repro.stream.video",
})


def public_modules() -> list[tuple[str, Path]]:
    """(dotted_name, path) of every public module/package under repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        parts = list(rel.parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        if any(p.startswith("_") for p in parts):
            continue
        found.append(("repro" + "".join("." + p for p in parts) if parts else "repro", path))
    return found


def module_all(path: Path) -> list[str]:
    """The module's ``__all__`` names via ast (no import)."""
    if path.is_dir():
        path = path / "__init__.py"
    try:
        tree = ast.parse(path.read_text())
    except SyntaxError as exc:  # pragma: no cover - would fail tests anyway
        raise SystemExit(f"cannot parse {path}: {exc}")
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
            return [
                el.value
                for el in node.value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
    return []


def docs_text() -> str:
    """Concatenated contents of every markdown file under docs/."""
    return "\n".join(p.read_text() for p in sorted(DOCS.glob("*.md")))


def _referenced(dotted: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(dotted)}\b", text) is not None


def check() -> list[str]:
    """All coverage violations (empty list = documentation is complete)."""
    problems = []
    if not API_MD.exists():
        return [f"missing {API_MD.relative_to(REPO_ROOT)}"]
    api_text = API_MD.read_text()

    for dotted, path in public_modules():
        if dotted == "repro":
            continue
        if dotted in api_text:
            continue
        is_package = path.name == "__init__.py"
        if is_package:
            problems.append(f"package {dotted} is not mentioned in docs/API.md")
            continue
        exported = module_all(path)
        if exported and any(
            re.search(rf"\b{re.escape(name)}\b", api_text) for name in exported
        ):
            continue
        problems.append(
            f"module {dotted} is not mentioned in docs/API.md "
            f"(neither its dotted path nor any of __all__ = {exported or '[]'})"
        )

    # Docs-wide dotted-path coverage, gated by the allowlist.
    all_docs = docs_text()
    names = {dotted for dotted, _ in public_modules()}
    for dotted, path in public_modules():
        if dotted == "repro" or dotted in INTERNAL_HELPERS:
            continue
        if path.name != "__init__.py" and not _referenced(dotted, all_docs):
            problems.append(
                f"module {dotted} is not referenced by dotted path from any "
                "file under docs/ (reference it, or add it to "
                "INTERNAL_HELPERS in tools/check_doc_coverage.py)"
            )
    for entry in sorted(INTERNAL_HELPERS):
        if entry not in names:
            problems.append(
                f"stale INTERNAL_HELPERS entry {entry}: no such module under "
                "src/repro"
            )
        elif _referenced(entry, all_docs):
            problems.append(
                f"INTERNAL_HELPERS entry {entry} is referenced from docs/ — "
                "drop it from the allowlist"
            )

    if not OBSERVABILITY_MD.exists():
        problems.append("missing docs/OBSERVABILITY.md")
    elif README.exists() and "docs/OBSERVABILITY.md" not in README.read_text():
        problems.append("README.md does not link docs/OBSERVABILITY.md")

    for guide, name in (
        (LADDER_MD, "LADDER.md"),
        (TRAFFIC_MD, "TRAFFIC.md"),
        (TENANCY_MD, "TENANCY.md"),
    ):
        if not guide.exists():
            problems.append(f"missing docs/{name}")
            continue
        for doc, label in (
            (README, "README.md"),
            (API_MD, "docs/API.md"),
            (OBSERVABILITY_MD, "docs/OBSERVABILITY.md"),
        ):
            if doc.exists() and name not in doc.read_text():
                problems.append(f"{label} does not link docs/{name}")

    return problems


def main() -> int:
    problems = check()
    modules = public_modules()
    if problems:
        print(f"doc coverage FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"doc coverage OK: {len(modules)} public modules covered by docs/API.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One place reads the environment.

``REPRO_HOST_WORKERS`` and ``REPRO_MP_START`` are the only variables the
package honours, each resolved by one function in
:mod:`repro.parallel.runner`; every other knob is a constructor argument.
A new ``os.environ`` / ``os.getenv`` anywhere else fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {"parallel/runner.py"}


def _reads_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in ("environ", "getenv", "environb") for a in node.names):
                return True
    return False


def test_only_the_parallel_runner_reads_the_environment():
    readers = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if _reads_environment(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert readers == ALLOWED

"""The reachability gate, run as part of the test suite.

Mirrors the CI step (``python tools/check_reachability.py``): every
public top-level name in ``src/repro`` must be reached from ``repro.cli``
or from a file under ``benchmarks/``, ``examples/`` or ``tools/`` —
not only from ``tests/`` — modulo the tool's ``ALLOWED`` table.  The
tmp-tree cases pin what the definition-level graph counts as a use.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_reachability.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_reachability", module)
    spec.loader.exec_module(module)
    return module


def test_repo_has_no_test_only_names():
    problems = _load_tool().check()
    assert problems == [], "test-only code in src/:\n" + "\n".join(problems)


TREE = {
    "src/repro/__init__.py": "",
    "src/repro/__main__.py": "from .cli import main\n\nmain()\n",
    "src/repro/cli.py": (
        "from .pkg.tables import lookup\n"
        "from .pkg import mod as m\n"
        "\n"
        "def main():\n"
        "    return lookup('x')() + m.via_alias()\n"
    ),
    "src/repro/pkg/__init__.py": (
        "from .mod import only_tested, reexported\n"
        "\n"
        "__all__ = ['only_tested', 'reexported']\n"
    ),
    "src/repro/pkg/mod.py": (
        "def only_tested():\n"
        "    return 1\n"
        "\n"
        "def reexported():\n"
        "    return 2\n"
        "\n"
        "def via_alias():\n"
        "    return 3\n"
        "\n"
        "def dead():\n"
        "    return helper_of_dead()\n"
        "\n"
        "def helper_of_dead():\n"
        "    return getattr(None, 'reexported', 4)\n"
    ),
    "src/repro/pkg/tables.py": (
        "def via_table():\n"
        "    return 5\n"
        "\n"
        "_TABLE = {'x': via_table}\n"
        "\n"
        "def lookup(name):\n"
        "    return _TABLE[name]\n"
    ),
    "examples/demo.py": "from repro.pkg import reexported\n\nreexported()\n",
    "tests/test_mod.py": (
        "from repro.pkg.mod import only_tested\n"
        "\n"
        "def test_it():\n"
        "    assert only_tested() == 1\n"
    ),
}


@pytest.fixture()
def tree(tmp_path):
    for rel, text in TREE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def _flagged(problems):
    return {p.split(" ", 1)[0] for p in problems}


def test_public_function_only_tests_import_is_flagged(tree):
    problems = _load_tool().check(tree, allowed={})
    (finding,) = [p for p in problems if p.startswith("repro.pkg.mod.only_tested ")]
    # Neither the package re-export nor its __all__ entry is a use.
    assert "only tests/ reach it" in finding
    assert "listed in __all__ of repro.pkg —" in finding


def test_reexport_through_package_init_from_a_root_is_reached(tree):
    flagged = _flagged(_load_tool().check(tree, allowed={}))
    assert "repro.pkg.mod.reexported" not in flagged
    assert "repro.pkg.mod.via_alias" not in flagged


def test_entry_of_a_module_level_dispatch_table_is_reached(tree):
    flagged = _flagged(_load_tool().check(tree, allowed={}))
    assert "repro.pkg.tables.via_table" not in flagged
    assert "repro.pkg.tables.lookup" not in flagged


def test_def_mentioned_only_by_an_unreached_def_is_flagged(tree):
    problems = _load_tool().check(tree, allowed={})
    assert _flagged(problems) == {
        "repro.pkg.mod.only_tested",
        "repro.pkg.mod.dead",
        "repro.pkg.mod.helper_of_dead",
    }
    (helper,) = [p for p in problems if p.startswith("repro.pkg.mod.helper_of_dead ")]
    assert "nothing reaches it" in helper


def test_allow_list_is_honest_both_ways(tree):
    tool = _load_tool()
    allowed = {"repro.pkg.mod.only_tested": "kept for the test", "repro.pkg.mod.dead": "kept"}
    # An allowed name is a root: what it uses needs no entry of its own.
    assert tool.check(tree, allowed=allowed) == []

    missing = tool.check(tree, allowed={**allowed, "repro.pkg.mod.gone": "why"})
    assert any("stale ALLOWED entry repro.pkg.mod.gone" in p for p in missing)

    reachable = tool.check(tree, allowed={**allowed, "repro.pkg.mod.reexported": "why"})
    assert any("ALLOWED entry repro.pkg.mod.reexported is reachable" in p for p in reachable)

    no_reason = tool.check(tree, allowed={**allowed, "repro.pkg.mod.dead": " "})
    assert any("needs a one-line reason" in p for p in no_reason)

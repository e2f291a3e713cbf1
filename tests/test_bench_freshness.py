"""tools/check_bench_freshness.py on a throwaway git repository."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_bench_freshness.py"
PARALLEL = "benchmarks/results/BENCH_parallel.json"
TRAFFIC = "benchmarks/results/BENCH_traffic.json"
CACHE = "benchmarks/results/BENCH_cache.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_bench_freshness", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A repo with one commit holding every artifact and one source of each."""
    monkeypatch.chdir(tmp_path)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            check=True, capture_output=True,
        )

    def commit(changes: dict[str, str]):
        for path, text in changes.items():
            target = tmp_path / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        git("add", "-A")
        git("commit", "-m", "change")

    git("init", "-q")
    commit({
        PARALLEL: "{}", TRAFFIC: "{}", CACHE: "{}",
        "src/repro/parallel/runner.py": "v1",
        "src/repro/serve/oracle.py": "v1",
        "src/repro/traffic/bench.py": "v1",
        "README.md": "v1",
    })
    return commit


def test_table_lists_the_artifacts_and_names_the_kit():
    tool = _load_tool()
    assert set(tool.ARTIFACTS) == {
        "BENCH_parallel.json", "BENCH_traffic.json", "BENCH_cache.json",
    }
    for name in ("BENCH_traffic.json", "BENCH_cache.json"):
        assert "src/repro/serve/oracle.py" in tool.ARTIFACTS[name].sources
        assert "src/repro/serve/server.py" in tool.ARTIFACTS[name].sources


def test_single_commit_checkout_is_not_checked(repo, capsys):
    assert _load_tool().main([]) == 0
    assert "::notice::" in capsys.readouterr().out


def test_unrelated_change_is_fresh(repo, capsys):
    repo({"README.md": "v2"})
    assert _load_tool().main([]) == 0
    assert capsys.readouterr().out == ""


def test_regenerated_artifact_is_fresh(repo, capsys):
    repo({"src/repro/parallel/runner.py": "v2", PARALLEL: '{"v": 2}'})
    assert _load_tool().main([]) == 0
    assert capsys.readouterr().out == ""


def test_kit_change_warns_for_every_artifact_built_on_it(repo, capsys):
    repo({"src/repro/serve/oracle.py": "v2"})
    assert _load_tool().main([]) == 0  # warnings do not fail the job
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.startswith("::warning::") for line in lines)
    assert "BENCH_traffic.json" in lines[0] and "BENCH_cache.json" in lines[1]
    # ... and only the jobs that own those artifacts see them.
    assert _load_tool().main(["BENCH_parallel.json"]) == 0
    assert capsys.readouterr().out == ""


def test_unknown_artifact_is_a_usage_error(repo):
    with pytest.raises(SystemExit) as exit_info:
        _load_tool().main(["BENCH_nonesuch.json"])
    assert exit_info.value.code == 2

"""Smoke test of the end-to-end benchmark (about a minute; not in tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def _smoke(*flags: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--strict", *flags],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _metric_lines(out: str) -> set[tuple[str, str]]:
    lines = [line.split() for line in out.splitlines() if line[:1] not in ("#", "{")]
    assert all(len(fields) == 4 for fields in lines), lines
    return {(workload, metric) for workload, metric, _value, _unit in lines}


def test_end_to_end_lines_are_exactly_the_names_in_benchmark_json():
    out = _smoke()
    expected = {(w, m["name"]) for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert _metric_lines(out) == expected
    results = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_every_per_layer_name_reaches_layers_json():
    out = _smoke("--trace")
    expected = {(w, m["name"]) for w in WORKLOADS for m in SPEC["per_layer"]}
    assert _metric_lines(out) == expected
    layers = json.loads((HERE / "out" / "layers.json").read_text())
    for workload in WORKLOADS:
        assert set(layers[workload]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert (HERE / "out" / f"trace_{workload}.json").is_file()
    assert layers["routed_video"]["metrics"]["cache.reuse_frac"]["value"] == 2 / 3
    assert layers["inproc_accept"]["metrics"]["client.source_cache_frac"]["value"] == 0


def test_config_and_benchmark_json_name_the_same_workloads():
    config = json.loads((HERE / "config.json").read_text())
    assert list(config["workloads"]) == WORKLOADS
    assert config["nominal_seconds"] == SPEC["run_seconds"]


def test_a_wrong_oracle_entry_counts_as_a_failed_request():
    done = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", "inproc_accept", "--seed", "0",
         "--seconds", "0.4", "--trace", "0", "--corrupt-oracle"],
        capture_output=True, text=True, timeout=300, env=bench.child_env(),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] > 0 and not result["correct"]

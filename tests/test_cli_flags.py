"""The command-line surface of every bench subcommand, pinned.

``tests/cli_surface.json`` records, for each ``repro <command>``, the
parser's prog, description and every option's strings, dest, type,
default, choices, nargs, metavar and help text; ``tests/report_keys.json``
records the recursive key set of one smallest fixed-seed report per
harness.  Both were captured before the CLI was made table-driven, so a
flag, default, help string or report key that moves fails here.

Regenerate (only when a change to the surface is intended)::

    PYTHONPATH=src python tests/test_cli_flags.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main

HERE = Path(__file__).parent
SURFACE_PATH = HERE / "cli_surface.json"
REPORT_KEYS_PATH = HERE / "report_keys.json"
RESULTS = HERE.parent / "benchmarks" / "results"
FAULT_PLAN = str(HERE.parent / "examples" / "faultplan_host_flaky.json")

COMMANDS = (
    "serve-bench",
    "serve-load",
    "serve-net",
    "serve-tenants",
    "bench-parallel",
    "trace",
)


class _Captured(Exception):
    pass


def capture_parser(command: str) -> argparse.ArgumentParser:
    """The parser ``repro <command>`` builds, grabbed at ``parse_args``."""

    def grab(self, args=None, namespace=None):
        raise _Captured(self)

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = grab
    try:
        main([command])
    except _Captured as caught:
        return caught.args[0]
    finally:
        argparse.ArgumentParser.parse_args = original
    raise AssertionError(f"repro {command} never parsed its arguments")


def surface(parser: argparse.ArgumentParser) -> dict:
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        options.append(
            {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", None),
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
                "nargs": action.nargs,
                "metavar": action.metavar,
                "help": action.help,
            }
        )
    return {
        "prog": parser.prog,
        "description": parser.description,
        "options": options,
    }


def key_paths(obj, prefix: str = "") -> set[str]:
    """Every dict-key path in *obj*; list items and numeric keys collapse."""
    paths: set[str] = set()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        for key, value in obj.items():
            key = str(key)
            path = f"{prefix}.{'*' if key.isdigit() else key}"
            paths.add(path)
            paths |= key_paths(value, path)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            paths |= key_paths(item, prefix + "[]")
    return paths


# -- one smallest fixed-seed run per harness ---------------------------------
def _serve_bench():
    from repro.serve import ServeBenchConfig, run_serve_bench

    return run_serve_bench(
        ServeBenchConfig(
            num_requests=80, num_clients=2, t_fp=0.002, t_bnn=0.0001,
            ladder_stage_times=(0.0005,), cache_max_bytes=1 << 20,
            duplicate_fraction=0.25, fault_plan_path=FAULT_PLAN,
        )
    )


def _serve_load():
    from repro.traffic import ServeLoadConfig, run_serve_load

    return run_serve_load(
        ServeLoadConfig(trace="flash", rate=200.0, duration=4.0, time_scale=8.0,
                        window_seconds=0.1)
    ).to_dict()


def _serve_net():
    from repro.net.bench import NetBenchConfig, run_net_bench

    return run_net_bench(NetBenchConfig(num_requests=40, num_clients=2, num_replicas=1))


def _serve_tenants():
    from repro.serve.tenant_bench import TenantBenchConfig, run_tenant_bench

    return run_tenant_bench(
        TenantBenchConfig(num_frames=3, repeat_frames=2, scale_a=0.1, scale_c=0.1)
    )


def _bench_parallel():
    from repro.parallel.bench import ParallelBenchConfig, run_parallel_bench

    return run_parallel_bench(
        ParallelBenchConfig(scale=0.1, worker_counts=(1,), smoke=True)
    )


def _trace():
    from repro.obs.run import TraceRunConfig, run_traced_cascade

    report = run_traced_cascade(
        TraceRunConfig(num_images=32, scale=0.1, host_scale=0.15, max_batch_size=16)
    )
    # The digest `repro trace --summary-json` writes.
    return {
        "summary": report.summary,
        "overlap_seconds": report.overlap_seconds,
        "bnn_busy_seconds": report.bnn_busy_seconds,
        "host_busy_seconds": report.host_busy_seconds,
        "layer_residuals": report.layer_residuals,
        "eq1": report.eq1,
        "rerun_ratio": report.rerun_ratio,
        "completed": report.completed,
        "wall_seconds": report.wall_seconds,
    }


HARNESSES = {
    "serve-bench": _serve_bench,
    "serve-load": _serve_load,
    "serve-net": _serve_net,
    "serve-tenants": _serve_tenants,
    "bench-parallel": _bench_parallel,
    "trace": _trace,
}

#: Committed artifact of each harness that has one.
ARTIFACTS = {
    "serve-load": "BENCH_traffic.json",
    "serve-tenants": "BENCH_cache.json",
    "bench-parallel": "BENCH_parallel.json",
}


def _comparable(paths: set[str]) -> set[str]:
    """Drop the keys that depend on the machine or on which events a run
    happened to see (an idle stage, an untripped fault kind, a span that
    never opened), not on the report's shape."""
    volatile = (
        ".note",                       # bench-parallel: single-core machines only
        ".summary.spans.", ".summary.counters.", ".summary.gauges.",
        ".stages.", ".queues.", ".faults.", ".injected.", ".stage_calls.",
        ".rerun_stages.", ".sources.", ".fault_log.", ".host_worker_",
        ".stage_arrived.", ".stage_forwarded.", ".ladder_forward_ratios.",
    )
    return {p for p in paths if not any(v in p + "." for v in volatile)}


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_surface_matches_golden(command):
    golden = json.loads(SURFACE_PATH.read_text())
    assert surface(capture_parser(command)) == golden[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_report_key_set_matches_golden(command):
    golden = json.loads(REPORT_KEYS_PATH.read_text())
    paths = key_paths(HARNESSES[command]())
    assert sorted(_comparable(paths)) == golden[command]
    artifact = ARTIFACTS.get(command)
    if artifact is not None:
        committed = key_paths(json.loads((RESULTS / artifact).read_text()))
        assert _comparable(committed) == _comparable(paths)


#: Every out-of-range value a bench subcommand rejects, as
#: (command, argv, Config field values that say the same thing).
REJECTED = [
    ("serve-bench", ["--target-rerun", "1.5"], {"target_rerun_ratio": 1.5}),
    ("serve-bench", ["--naive-threshold", "-0.1"], {"naive_threshold": -0.1}),
    ("serve-bench", ["--requests", "-5"], {"num_requests": -5}),
    ("serve-bench", ["--clients", "0"], {"num_clients": 0}),
    ("serve-bench", ["--batch-size", "0"], {"max_batch_size": 0}),
    ("serve-bench", ["--host-workers", "0"], {"num_host_workers": 0}),
    ("serve-bench", ["--host-queue", "0"], {"host_queue_capacity": 0}),
    ("serve-bench", ["--t-fp", "-1"], {"t_fp": -1.0}),
    ("serve-bench", ["--t-bnn", "0"], {"t_bnn": 0.0}),
    ("serve-bench", ["--measure-t-bnn", "0"], {"measured_bnn_scale": 0.0}),
    ("serve-bench", ["--measure-t-host", "-1"], {"measured_host_scale": -1.0}),
    ("serve-bench", ["--host-process-workers", "0"], {"host_process_workers": 0}),
    ("serve-bench", ["--deadline", "0"], {"deadline_s": 0.0}),
    ("serve-bench", ["--cache-mb", "-1"], {"cache_max_bytes": -(1 << 20)}),
    ("serve-bench", ["--duplicate-fraction", "1.0"], {"duplicate_fraction": 1.0}),
    ("serve-bench", ["--ladder", "0.1,0.1,0.1,0.1,0.1"],
     {"ladder_stage_times": (0.1,) * 5}),
    ("serve-bench", ["--ladder", "0.1,-0.1"], {"ladder_stage_times": (0.1, -0.1)}),
    ("serve-bench", ["--ladder-target-forward", "2"],
     {"ladder_target_forward_ratio": 2.0}),
    ("serve-load", ["--slo-p99-ms", "0"], {"slo_p99_ms": 0.0}),
    ("serve-load", ["--rate", "0"], {"rate": 0.0}),
    ("serve-load", ["--duration", "-1"], {"duration": -1.0}),
    ("serve-load", ["--time-scale", "0"], {"time_scale": 0.0}),
    ("serve-load", ["--window", "0"], {"window_seconds": 0.0}),
    ("serve-load", ["--target-rerun", "-0.5"], {"target_rerun_ratio": -0.5}),
    ("serve-load", ["--t-fp", "0"], {"t_fp": 0.0}),
    ("serve-load", ["--t-bnn", "-1"], {"t_bnn": -1.0}),
    ("serve-load", ["--host-workers", "-1"], {"host_workers": -1}),
    ("serve-load", ["--max-workers", "0"], {"max_workers": 0}),
    ("serve-net", ["--requests", "0"], {"num_requests": 0}),
    ("serve-net", ["--clients", "0"], {"num_clients": 0}),
    ("serve-net", ["--replicas", "0"], {"num_replicas": 0}),
    ("serve-net", ["--max-inflight", "0"], {"max_inflight": 0}),
    ("serve-net", ["--threshold", "1.5"], {"threshold": 1.5}),
    ("serve-net", ["--port", "-1"], {"port": -1}),
    ("serve-net", ["--kill-replica-after", "-1"], {"kill_replica_after": -1}),
    ("serve-tenants", ["--frames", "0"], {"num_frames": 0}),
    ("serve-tenants", ["--repeat-frames", "0"], {"repeat_frames": 0}),
    ("serve-tenants", ["--fps", "0"], {"fps": 0.0}),
    ("serve-tenants", ["--time-scale", "-1"], {"time_scale": -1.0}),
    ("serve-tenants", ["--lanes", "0"], {"lanes": 0}),
    ("serve-tenants", ["--quota", "0"], {"quota": 0}),
    ("serve-tenants", ["--cache-mb", "0"], {"cache_max_bytes": 0}),
    ("serve-tenants", ["--threshold", "-0.1"], {"threshold": -0.1}),
    ("serve-tenants", ["--t-bnn", "0"], {"t_bnn": 0.0}),
    ("serve-tenants", ["--host-workers", "-1"], {"host_workers": -1}),
    ("bench-parallel", ["--scale", "-1"], {"scale": -1.0}),
    ("bench-parallel", ["--images", "0"], {"num_images": 0}),
    ("bench-parallel", ["--micro-batch", "0"], {"micro_batch": 0}),
    ("bench-parallel", ["--repeats", "0"], {"repeats": 0}),
    ("bench-parallel", ["--workers", "2", "0"], {"worker_counts": (2, 0)}),
    ("trace", ["--requests", "0"], {"num_images": 0}),
    ("trace", ["--scale", "0"], {"scale": 0.0}),
    ("trace", ["--host-scale", "-1"], {"host_scale": -1.0}),
    ("trace", ["--target-rerun", "1.5"], {"target_rerun_ratio": 1.5}),
    ("trace", ["--batch-size", "0"], {"max_batch_size": 0}),
    ("trace", ["--host-workers", "0"], {"num_host_workers": 0}),
]

#: What the command line rejects without a Config field to blame: a
#: path that does not exist, a malformed list, an unknown choice.
REJECTED_CLI_ONLY = [
    ("serve-bench", ["--fault-plan", "/nonexistent/plan.json"]),
    ("serve-bench", ["--ladder", "fast,slow"]),
    ("serve-bench", ["--ladder", ","]),
    ("serve-load", ["--fault-plan", "/nonexistent/plan.json"]),
    ("serve-load", ["--trace", "/nonexistent/trace.json"]),
    ("serve-net", ["--fault-plan", "/nonexistent/plan.json"]),
    ("serve-net", ["--placement", "random"]),
    ("bench-parallel", ["--model", "d"]),
]


def _config_class(command: str):
    from repro.net.bench import NetBenchConfig
    from repro.obs.run import TraceRunConfig
    from repro.parallel.bench import ParallelBenchConfig
    from repro.serve import ServeBenchConfig
    from repro.serve.tenant_bench import TenantBenchConfig
    from repro.traffic import ServeLoadConfig

    return {
        "serve-bench": ServeBenchConfig,
        "serve-load": ServeLoadConfig,
        "serve-net": NetBenchConfig,
        "serve-tenants": TenantBenchConfig,
        "bench-parallel": ParallelBenchConfig,
        "trace": TraceRunConfig,
    }[command]


@pytest.mark.parametrize(
    "command, fields",
    [(c, f) for c, _, f in REJECTED],
    ids=lambda v: ",".join(v) if isinstance(v, dict) else v,
)
def test_out_of_range_field_raises_on_construction(command, fields):
    """The Config, not the CLI, owns the ranges: Python callers get them too."""
    config_class = _config_class(command)
    config_class()  # the defaults are a valid scenario
    with pytest.raises(ValueError, match=next(iter(fields))):
        config_class(**fields)


@pytest.mark.parametrize(
    "command, argv",
    [(c, a) for c, a, _ in REJECTED] + REJECTED_CLI_ONLY,
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_out_of_range_flag_exits_2(command, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, *argv])
    assert exit_info.value.code == 2
    message = capsys.readouterr().err.split("error:")[1]
    if [command, argv] not in [list(case) for case in REJECTED_CLI_ONLY]:
        # A Config's ValueError reaches the user in their terms: the
        # flag they typed, not the field it fills.
        assert argv[0] in message


if __name__ == "__main__":  # regenerate the goldens
    SURFACE_PATH.write_text(
        json.dumps({c: surface(capture_parser(c)) for c in COMMANDS},
                   indent=2, sort_keys=True) + "\n"
    )
    REPORT_KEYS_PATH.write_text(
        json.dumps({c: sorted(_comparable(key_paths(HARNESSES[c]()))) for c in COMMANDS},
                   indent=2) + "\n"
    )

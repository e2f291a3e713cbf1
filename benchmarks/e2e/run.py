"""End-to-end benchmark of the real cascade: CNV plan + DMU + host engine at
three depths (in-process, over loopback, routed over two process replicas).

    python3 benchmarks/e2e/run.py                       # all workloads, end to end
    python3 benchmarks/e2e/run.py --trace               # per-layer metrics and budgets
    python3 benchmarks/e2e/run.py --workload wire_accept --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --smoke --strict      # counts / 50, fail on any wrong answer
    python3 benchmarks/e2e/run.py --aa 2 10             # A/A noise table -> NOISE.md

Each workload runs in a fresh subprocess with a scrubbed environment and
prints ``workload metric value unit`` lines, ``#`` information lines, and the
result object as its last line.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 170  # the contract allows a run 180 s


def child_env() -> dict:
    """Hermetic environment: one BLAS thread per GEMM (a BNN thread, a host
    thread and two replicas already fill two cores), the kernel autotuner's
    disk cache under ``~/.cache`` off, and no other ``REPRO_*`` knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        REPRO_KERNEL_CACHE="off", PYTHONHASHSEED="0",
    )
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, extra=()) -> tuple[int, dict | None]:
    """Run one workload to the end; echo its output; return its result object."""
    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.Popen(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # so a hung run is killed with its replicas
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"# {workload} killed after {CHILD_TIMEOUT_S} s", flush=True)
        return 1, None
    print(out, end="", flush=True)
    if proc.returncode != 0:
        return proc.returncode, None
    return 0, json.loads(out.rstrip().rsplit("\n", 1)[-1])


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(spec: dict, sets: int, runs: int, seconds: float) -> int:
    """Run the whole benchmark ``sets x runs`` times on the same code, each run
    with another seed, and write the between-run noise next to the bounds."""
    names = [w["name"] for w in spec["workloads"]]
    samples = {(w, m["name"]): [[] for _ in range(sets)] for w in names for m in spec["end_to_end"]}
    began = time.time()
    for s in range(sets):
        for r in range(runs):
            for w in names:
                code, result = run_child(w, 1 + s * runs + r, seconds, 0)
                if code or not result["correct"]:
                    print(f"# aa: {w} did not produce a correct result", flush=True)
                    return 1
                for name, metric in result["metrics"].items():
                    samples[w, name][s].append(metric["value"])
    rows = [
        "| workload | metric | median per set | IQR/median per set | largest gap between sets | bound | ok |",
        "|---|---|---|---|---|---|---|",
    ]
    all_ok = True
    for (w, name), by_set in samples.items():
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)
        medians = [statistics.median(v) for v in by_set]
        spreads = [spread(v) for v in by_set] if runs > 1 else [0.0] * sets
        gap = (max(medians) - min(medians)) / min(medians)
        # setup_s is gated on the gap between medians only, not on its spread.
        ok = gap <= bound / 2 and (name == "setup_s" or max(spreads) <= bound / 3)
        all_ok &= ok
        rows.append(
            f"| {w} | {name} | {' / '.join(f'{m:.4g}' for m in medians)} | "
            f"{' / '.join(f'{x:.3f}' for x in spreads)} | {gap:.3f} | {bound} | "
            f"{'yes' if ok else 'NO'} |"
        )
    stamp = json.loads((HERE / "out" / f"run_{names[0]}.json").read_text())["machine"]
    text = "\n".join([
        "# A/A noise of the end-to-end metrics",
        "",
        f"`run.py --aa {sets} {runs}` with `--seconds {seconds:g}`: {sets} sets of {runs} runs of identical",
        f"code, every run with another seed, {time.time() - began:.0f} s in total.  `ok` means every set's",
        "IQR/median is at most a third of the bound (not required of `setup_s`) and the",
        "largest gap between two sets' medians is at most half of it.",
        "",
        f"Machine: `{json.dumps(stamp)}`",
        "",
        *rows,
        "",
    ])
    (HERE / "NOISE.md").write_text(text)
    print(text)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "config.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the image pool and arrival order")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run; request counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: per-layer metrics from timing wrappers and direct layer calls")
    parser.add_argument("--smoke", action="store_true", help="request counts / 50")
    parser.add_argument("--strict", action="store_true", help="exit non-zero on any failed request")
    parser.add_argument("--aa", type=int, nargs=2, metavar=("SETS", "RUNS"),
                        help="A/A noise run over all workloads; writes NOISE.md")
    args = parser.parse_args(argv)
    seconds = args.seconds / config["smoke_count_divisor"] if args.smoke else args.seconds
    if args.aa:
        return run_aa(spec, *args.aa, seconds)
    status = 0
    for workload in [args.workload] if args.workload else names:
        code, result = run_child(workload, args.seed, seconds, args.trace)
        if code or (args.strict and not result["correct"]):
            status = code or 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One workload, in one process: the end-to-end run, or the traced run.

``run.py`` starts this file in a fresh subprocess with a scrubbed
environment; it is not meant to be run by hand.  The last line of standard
output is the result object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():  # measure this checkout, never an installed copy
    sys.exit(f"{HERE} benchmarks the repro package in {ROOT / 'src'}, which is missing")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from harness import Plan, build_oracle, check_books, cpu_seconds, make_pool  # noqa: E402


def end_to_end(plan: Plan) -> tuple[dict, list, list]:
    """Set up ``setup_repeats`` times, keep the last stack, prime it, then
    alternate ``rounds`` blocks of ``sat`` and ``solo``.

    The machine's speed drifts over seconds, so both phases are spread over the
    whole run and the ``sat`` metrics are medians over the rounds.  No timing
    wrapper is installed anywhere on this path."""
    setups, phases = [], []
    for remaining in reversed(range(plan.cfg["setup_repeats"])):
        stack, seconds, warm = plan.set_up()
        setups.append(seconds)
        phases.append(warm)
        if remaining:
            stack.close()
    sats, solos, cpu_ms = [], [], []
    try:
        primed = plan.prime(stack)
        for _ in range(plan.cfg["rounds"]):
            cpu = cpu_seconds(stack.pids())
            sats.append(plan.sat(stack))
            cpu_ms.append((cpu_seconds(stack.pids()) - cpu) / plan.n_sat * 1e3)
            solos.append(plan.solo(stack))
        timed = [phase for pair in zip(sats, solos) for phase in pair]
        books = check_books(plan, stack, warm, primed + timed)
    finally:
        stack.close()
    solo_ms = np.concatenate([solo.latencies_ms() for solo in solos])
    img_s = [sat.img_per_s for sat in sats]
    print("# sat blocks img/s", " ".join(f"{x:.0f}" for x in img_s),
          "cpu ms/img", " ".join(f"{x:.3f}" for x in cpu_ms),
          "set-ups s", " ".join(f"{x:.3f}" for x in setups))
    values = {
        "sat_throughput_img_s": np.median(img_s),
        "sat_cpu_ms_per_img": np.median(cpu_ms),
        "solo_latency_p50_ms": np.percentile(solo_ms, 50),
        "solo_latency_p90_ms": np.percentile(solo_ms, 90),
        "setup_s": np.median(setups),
    }
    return values, phases + primed + timed, books


def machine_stamp() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        sha = head.read_text().strip()
        ref = ROOT / ".git" / sha.removeprefix("ref: ")
        if sha.startswith("ref: ") and ref.is_file():
            sha = ref.read_text().strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: a wrong oracle entry must show as a failed request")
    args = parser.parse_args(argv)

    cfg = json.loads((HERE / "config.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = cfg["workloads"][args.workload]
    hold = workload["hold"]
    # Fixed request counts (every counter repeats exactly), sized so that each
    # phase lasts about seconds / 2 today and split into ``rounds`` blocks.  The
    # traced run sends a third of them, and its solo phase in one block.
    scale = args.seconds / cfg["nominal_seconds"]
    if args.trace:
        scale /= cfg["trace_count_divisor"]
    solo_blocks = 1 if args.trace else cfg["rounds"]

    def count(requests: float) -> int:
        return max(1, round(requests * scale / hold)) * hold

    # One CPU for the workload and its replicas: spread over two, the threads'
    # placement flips between slower and faster patterns from run to run.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-cfg["cpus"]:])
    pool = make_pool(args.seed, cfg["pool_size"])
    oracle = build_oracle(cfg, workload["rerun_ratio"], pool)
    if args.corrupt_oracle:
        oracle.prediction[0] += 1
    plan = Plan(
        cfg, workload["stack"], pool, oracle, cache_ok=workload["stack"] == "routed",
        hold=hold, n_sat=count(workload["sat_requests"] / cfg["rounds"]),
        n_solo=count(workload["solo_requests"] / solo_blocks),
    )
    try:
        if args.trace:
            values, phases, books = layers.traced(plan, args.workload, OUT)
        else:
            values, phases, books = end_to_end(plan)
    finally:
        for child in multiprocessing.active_children():  # no replica outlives the run
            child.kill()
            child.join()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        raise RuntimeError(f"metrics not listed in BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric of a layer this workload's stack does not contain reads 0.
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    attempted = sum(len(p.indices) for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0 and all(ok for _, _, ok in books),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    for name, metric in metrics.items():
        print(args.workload, name, repr(metric["value"]), metric["unit"])
    print(f"# {args.workload} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6f} oracle_s={oracle.seconds:.3f} "
          f"sat_requests={plan.n_sat} solo_requests={plan.n_solo}")
    for name, value, ok in books:
        print(f"# books {args.workload} {name}={value} {'ok' if ok else 'FAIL'}")

    record = dict(result, seed=args.seed, seconds=args.seconds, machine=machine_stamp(),
                  books={name: [value, ok] for name, value, ok in books})
    OUT.mkdir(exist_ok=True)
    if args.trace:  # one file for all workloads' layer metrics
        path = OUT / "layers.json"
        merged = json.loads(path.read_text()) if path.is_file() else {}
        merged[args.workload] = record
    else:
        path, merged = OUT / f"run_{args.workload}.json", record
    path.write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

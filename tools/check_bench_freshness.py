#!/usr/bin/env python
"""BENCH freshness gate (run by CI, one step per job that owns an artifact).

A committed ``benchmarks/results/BENCH_*.json`` is a measurement of the
code next to it: when a commit changes that code without regenerating
the artifact, the numbers describe a program that no longer exists.
:data:`ARTIFACTS` says, per artifact, which source paths it measures and
how to regenerate it.  Every artifact is a sleep-oracle or host-pool
report whose numbers are machine-bound, so staleness is a warning.

    python tools/check_bench_freshness.py                      # every artifact
    python tools/check_bench_freshness.py BENCH_traffic.json   # one job's share

Compares ``HEAD~1`` with ``HEAD``; prints one GitHub ``::warning::``
annotation per stale artifact and exits 0.  A checkout too shallow to
hold ``HEAD~1`` (CI fetches depth 2) is reported: there is nothing to
compare against.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from typing import NamedTuple

RESULTS = "benchmarks/results/"


class Artifact(NamedTuple):
    sources: tuple[str, ...]
    regenerate: str


ARTIFACTS = {
    "BENCH_parallel.json": Artifact(
        ("src/repro/parallel", "src/repro/nn/infer.py", "src/repro/nn/program.py"),
        "python -m repro bench-parallel",
    ),
    "BENCH_traffic.json": Artifact(
        ("src/repro/traffic", "src/repro/serve/autoscaler.py",
         "src/repro/serve/oracle.py", "src/repro/serve/server.py"),
        "python -m repro serve-load --trace flash --slo-p99-ms 25 --time-scale 4 "
        "--output benchmarks/results/BENCH_traffic.json",
    ),
    "BENCH_cache.json": Artifact(
        ("src/repro/cache", "src/repro/serve/tenancy.py",
         "src/repro/serve/tenant_bench.py", "src/repro/util",
         "src/repro/serve/oracle.py", "src/repro/serve/server.py"),
        "python -m repro serve-tenants",
    ),
}


def _git(*args: str) -> int:
    return subprocess.run(
        ["git", *args], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def changed(paths: tuple[str, ...]) -> bool:
    """True when any of *paths* differs between ``HEAD~1`` and ``HEAD``."""
    return _git("diff", "--quiet", "HEAD~1", "HEAD", "--", *paths) != 0


def stale(names) -> list[str]:
    """A message for each named artifact left behind by its sources."""
    findings = []
    for name in names:
        artifact = ARTIFACTS[name]
        if changed(artifact.sources) and not changed((RESULTS + name,)):
            findings.append(
                f"{' or '.join(artifact.sources)} changed without regenerating "
                f"{RESULTS}{name} ({artifact.regenerate})"
            )
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="*", default=list(ARTIFACTS),
                        help=f"artifact file names (default: all of {', '.join(ARTIFACTS)})")
    args = parser.parse_args(argv)
    unknown = [name for name in args.artifacts if name not in ARTIFACTS]
    if unknown:
        parser.error(f"unknown artifact(s): {', '.join(unknown)}")
    if _git("rev-parse", "--verify", "--quiet", "HEAD~1^{commit}") != 0:
        print("::notice::HEAD~1 is not in this checkout; freshness not checked")
        return 0
    for message in stale(args.artifacts):
        print(f"::warning::{message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

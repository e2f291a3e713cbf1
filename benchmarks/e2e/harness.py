"""Inputs, oracle, closed-loop phases and books shared by both run modes.

The end-to-end run (``workload.py``) and the traced run (``layers.py``) drive
the program through the same :class:`Plan`, so they send identical requests.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.data.dataset import normalize_to_pm1, synthetic_cifar10

from stacks import Stack, build_bnn_plan, build_dmu, build_host_engine, build_stack

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- inputs and oracle ---------------------------------------------------------
def make_pool(seed: int, size: int) -> np.ndarray:
    """The image pool, in arrival order: images and order both come from *seed*
    through the benchmark's own generator, not ``repro.traffic``."""
    images = synthetic_cifar10(num_train=1, num_test=size, seed=seed).test.images
    order = np.random.default_rng(seed).permutation(size)
    return normalize_to_pm1(images)[order]


@dataclass
class Oracle:
    """Per-image ``(prediction, stage)`` from direct serial calls."""

    threshold: float
    prediction: np.ndarray
    stage: list[str]
    seconds: float


def build_oracle(cfg: dict, rerun_ratio: float, pool: np.ndarray) -> Oracle:
    """Serial reference on separately built compute; also calibrates the DMU
    threshold to the midpoint between the k-th and (k+1)-th smallest
    confidence, so exactly ``k = round(R * pool)`` images rerun and none sits
    within rounding distance of the threshold."""
    began = time.perf_counter()
    plan, dmu, engine = build_bnn_plan(cfg), build_dmu(cfg), build_host_engine(cfg)
    n = len(pool)
    bnn_batch, host_batch = cfg["bnn"]["micro_batch"], cfg["host"]["micro_batch"]
    scores = np.concatenate(
        [plan.class_scores(pool[i : i + bnn_batch]) for i in range(0, n, bnn_batch)]
    )
    confidence = dmu.confidence(scores)
    k = round(rerun_ratio * n)
    ranked = np.sort(confidence)
    threshold = float((ranked[k - 1] + ranked[k]) / 2)
    rerun = confidence < threshold
    if not 0 < k < n or int(rerun.sum()) != k:
        raise RuntimeError(f"cannot realise rerun ratio {rerun_ratio} exactly on this pool")
    prediction = scores.argmax(axis=1)
    flagged = np.flatnonzero(rerun)
    for i in range(0, k, host_batch):
        chunk = flagged[i : i + host_batch]
        prediction[chunk] = engine.predict_scores(pool[chunk]).argmax(axis=1)
    stage = ["host" if flag else "bnn" for flag in rerun]
    return Oracle(threshold, prediction, stage, time.perf_counter() - began)


# -- phases ---------------------------------------------------------------------
@dataclass
class Phase:
    """What one closed-loop phase sent and got back (times: ``perf_counter``)."""

    indices: np.ndarray                  # pool index of each request
    futures: list = field(default_factory=list)   # None = refused or never sent
    start: np.ndarray | None = None
    end: np.ndarray | None = None        # 0 where no answer arrived
    began: float = 0.0
    submit_s: float = 0.0                # time spent inside submit()
    answers: list = field(default_factory=list)   # filled by judge()
    failed: int = 0

    @property
    def wall(self) -> float:
        """First submit to last completion."""
        return float(self.end.max() - self.began)

    @property
    def img_per_s(self) -> float:
        """Correct answers per second of wall time."""
        return (len(self.indices) - self.failed) / self.wall

    def latencies_ms(self, source: str | None = None) -> np.ndarray:
        keep = self.end > 0
        if source is not None:
            keep &= np.array([a is not None and a.source == source for a in self.answers])
        return (self.end[keep] - self.start[keep]) * 1e3

    def source_count(self, source: str) -> int:
        return sum(1 for a in self.answers if a is not None and a.source == source)


def run_sat(submit, pool, indices, window: int, timeout: float) -> Phase:
    """Closed loop, *window* requests in flight: measures capacity."""
    n = len(indices)
    phase = Phase(indices, [None] * n, np.zeros(n), np.zeros(n))
    slots = threading.Semaphore(window)

    def finished(j, _future):
        phase.end[j] = time.perf_counter()
        slots.release()

    phase.began = time.perf_counter()
    for j, i in enumerate(indices):
        if not slots.acquire(timeout=timeout):
            break  # hung: everything not sent counts as failed
        phase.start[j] = sent = time.perf_counter()
        try:
            future = submit(pool[i])
        except Exception:
            slots.release()  # refused: counts as failed
            continue
        phase.submit_s += time.perf_counter() - sent
        phase.futures[j] = future
        future.add_done_callback(partial(finished, j))
    concurrent.futures.wait([f for f in phase.futures if f is not None], timeout=timeout)
    return phase


def run_solo(submit, pool, indices, timeout: float) -> Phase:
    """Closed loop, one request in flight: measures the unloaded path latency."""
    n = len(indices)
    phase = Phase(indices, [None] * n, np.zeros(n), np.zeros(n))
    phase.began = time.perf_counter()
    for j, i in enumerate(indices):
        phase.start[j] = time.perf_counter()
        try:
            phase.futures[j] = future = submit(pool[i])
            future.result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            break  # hung: everything not sent counts as failed
        except Exception:
            continue  # refused or errored: counts as failed
        phase.end[j] = time.perf_counter()
    return phase


def judge(phase: Phase, oracle: Oracle, cache_ok: bool) -> Phase:
    """Count every answer that is missing, errored, degraded or differs from the
    oracle in prediction or stage."""
    for future, i in zip(phase.futures, phase.indices):
        answer = None
        if future is not None and future.done() and future.exception() is None:
            answer = future.result()
        phase.answers.append(answer)
        stage_ok = answer is not None and (
            answer.source == oracle.stage[i] or (cache_ok and answer.source == "cache")
        )
        if not (stage_ok and answer.prediction == oracle.prediction[i]):
            phase.failed += 1
    return phase


def cpu_seconds(pids) -> float:
    """utime + stime of *pids* from ``/proc/<pid>/stat``."""
    ticks = 0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / CLOCK_TICKS


# -- one workload ------------------------------------------------------------------
@dataclass
class Plan:
    """One workload's inputs and request sequence."""

    cfg: dict
    kind: str
    pool: np.ndarray
    oracle: Oracle
    cache_ok: bool
    hold: int
    n_sat: int                # requests of one sat block
    n_solo: int               # requests of one solo block
    sent: int = 0             # position in the request sequence

    def _take(self, count: int) -> np.ndarray:
        """Request *j* carries ``pool[(j // hold) % pool_size]``.  The sequence
        runs on through every block, so on ``routed_video`` a frame comes back
        only after a whole pool cycle, when its cache entry has been evicted."""
        first, self.sent = self.sent, self.sent + count
        return (np.arange(first, self.sent) // self.hold) % len(self.pool)

    def set_up(self, recorder=None) -> tuple[Stack, float, Phase]:
        """Program set-up: build, start, and the first verified answers.

        The warm-up sends the *last* images of the pool, so on ``routed_video``
        it seeds no cache hit for the first frames of ``sat``; it sends them one
        at a time, so the work done does not depend on how requests happen to
        fall into batches."""
        began = time.perf_counter()
        stack = build_stack(self.kind, self.cfg, self.oracle.threshold, recorder)
        try:
            n = self.cfg["warmup_requests"]
            warm = self._solo(stack, np.arange(len(self.pool) - n, len(self.pool)))
        except BaseException:
            stack.close()
            raise
        return stack, time.perf_counter() - began, warm

    def prime(self, stack: Stack) -> list[Phase]:
        """Untimed ``sat`` blocks: throughput climbs for seconds after set-up
        (buffers for each new batch size, page faults), longest on ``routed``."""
        return [self.sat(stack) for _ in range(self.cfg["prime_blocks"])]

    def sat(self, stack: Stack) -> Phase:
        phase = run_sat(
            stack.submit, self.pool, self._take(self.n_sat),
            self.cfg["sat_window"], self.cfg["result_timeout_s"],
        )
        return judge(phase, self.oracle, self.cache_ok)

    def solo(self, stack: Stack) -> Phase:
        return self._solo(stack, self._take(self.n_solo))

    def _solo(self, stack: Stack, indices) -> Phase:
        phase = run_solo(stack.submit, self.pool, indices, self.cfg["result_timeout_s"])
        return judge(phase, self.oracle, self.cache_ok)


def check_books(plan: Plan, stack: Stack, warm: Phase, blocks) -> list[tuple[str, object, bool]]:
    """The layers' own books, read from outside after the last answer: *warm*
    and *blocks* are everything the stack was sent."""
    phases = [warm, *blocks]
    sent = sum(len(p.indices) for p in phases)
    reruns = sum(plan.oracle.stage[i] == "host" for p in phases for i in p.indices)
    books: list[tuple[str, object, bool]] = []

    def book(name, value, expected):
        books.append((name, value, value == expected))

    if stack.server is not None:
        snap = stack.server.snapshot()
        book("server.in_flight", snap.in_flight, 0)
        book("server.submitted", snap.submitted, sent)
        book("server.rerun", snap.rerun, reruns)
        book("server.degraded", snap.degraded, 0)
        book("server.failed", snap.failed, 0)
    if stack.frontend is not None:
        net = stack.frontend.metrics.snapshot()
        book("frontend.balanced", net.balanced, True)
        book("frontend.answered", net.answered, sent)
    if stack.router is not None:
        routed = stack.router.snapshot()
        book("router.balanced", routed.balanced, True)
        book("router.routed", routed.routed, sent)
    # Every showing of a held frame after the first is reuse, and nothing else is.
    cached = sum(p.source_count("cache") for p in blocks)
    book("client.cache_answers", cached, (sent - len(warm.indices)) * (plan.hold - 1) // plan.hold)
    return books

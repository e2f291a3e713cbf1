"""The traced run: per-layer metrics measured from outside the program.

Three sources, none of them inside ``src/``: timing wrappers around the
callables the benchmark hands to the server (BNN scorer, DMU, host
classifier); direct timed calls into public functions of each layer; and the
layers' own public snapshots.  Replica processes stay dark from outside, so
``bnn.*``/``dmu.*``/``host.*``/``serve.*``/``eq1.*`` are reported for the
single-process stacks, ``wire.*`` for ``wire``, ``router.*``/``cache.*`` for
``routed``; the rest read 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from repro.bnn.kernels import clear_selection_cache
from repro.cache import CachedAnswer, ResultCache
from repro.core.analytic import multi_precision_interval
from repro.net.protocol import Decision, FrameDecoder, Logits, Request, encode_frame
from repro.obs import Tracer, write_chrome_trace
from repro.util.hashing import rendezvous_order

from harness import Plan, check_books, cpu_seconds
from stacks import build_bnn_plan, build_host_engine


class _DMUProxy:
    """The DMU with ``confidence`` timed; everything else is forwarded."""

    def __init__(self, dmu, confidence):
        self._dmu = dmu
        self.confidence = confidence

    def __getattr__(self, name):
        return getattr(self._dmu, name)


class Recorder:
    """Span store for the wrappers.  The ``repro.obs`` tracer is used as an
    in-memory list with a Chrome exporter; it is never installed, so the
    program's own instrumentation stays off."""

    def __init__(self):
        self.tracer = Tracer()
        self.now = self.tracer.now
        self.offset = time.perf_counter() - self.now()  # perf_counter -> tracer time

    def timed(self, name: str, fn):
        tracer = self.tracer

        def call(batch):
            began, cpu = tracer.now(), time.thread_time()
            out = fn(batch)
            cpu = time.thread_time() - cpu
            tracer.add_span(name, began, tracer.now(), batch=len(batch), cpu_s=cpu)
            return out

        return call

    def dmu_proxy(self, dmu):
        return _DMUProxy(dmu, self.timed("dmu", dmu.confidence))

    def window(self, name: str, began: float, ended: float) -> dict:
        """Totals of the *name* spans that started inside ``[began, ended)``."""
        spans = [s for s in self.tracer.spans if s.name == name and began <= s.start < ended]
        return {
            "calls": len(spans),
            "images": sum(s.args["batch"] for s in spans),
            "busy_s": sum(s.duration for s in spans),
            "cpu_s": sum(s.args["cpu_s"] for s in spans),
            "median_ms": statistics.median(s.duration for s in spans) * 1e3 if spans else 0.0,
        }

    def add_requests(self, phase, label: str) -> None:
        """Client-side spans, one per request, sharing the request index."""
        for j in np.flatnonzero(phase.end > 0):
            self.tracer.add_span(
                f"client.{label}", phase.start[j] - self.offset, phase.end[j] - self.offset,
                thread_id=0, thread_name="client", request=int(j), image=int(phase.indices[j]),
            )


def _median_call_s(fn, calls: int) -> float:
    times = []
    for _ in range(calls):
        began = time.perf_counter()
        fn()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def direct_compute(cfg: dict, pool: np.ndarray) -> dict:
    """BNN plan and host engine called in a plain loop, no server."""
    big, host_batch = cfg["bnn"]["micro_batch"], cfg["host"]["micro_batch"]
    plan = build_bnn_plan(cfg)
    plan.class_scores(pool[:big])
    pinned = _median_call_s(lambda: plan.class_scores(pool[:big]), 24) / big
    single = _median_call_s(lambda: plan.class_scores(pool[:1]), 96)
    # The autotuner, from a fresh in-memory selection (its disk cache is off).
    clear_selection_cache()
    auto = build_bnn_plan(cfg, backend="auto")
    began = time.perf_counter()
    auto.class_scores(pool[:big])
    autotune_s = time.perf_counter() - began
    tuned = _median_call_s(lambda: auto.class_scores(pool[:big]), 24) / big
    engine = build_host_engine(cfg)
    engine.predict_scores(pool[:host_batch])
    host = _median_call_s(lambda: engine.predict_scores(pool[:host_batch]), 12) / host_batch
    host_single = _median_call_s(lambda: engine.predict_scores(pool[:1]), 24)
    return {
        "bnn.solo_ms_per_img_b32": pinned * 1e3,
        "bnn.solo_ms_per_img_b1": single * 1e3,
        "bnn.auto_over_pinned": tuned / pinned,
        "bnn.autotune_s": autotune_s,
        "host.solo_ms_per_img_b8": host * 1e3,
        "host.solo_ms_per_img_b1": host_single * 1e3,
    }


def direct_wire(image: np.ndarray) -> dict:
    """Encode and decode of the frames one request puts on the wire."""
    request = encode_frame(Request(1, image))
    reply_frames = (Decision(1, 3, 3, "bnn", 0.9, 0.004), Logits(1, np.array([0.9])))
    reply = b"".join(encode_frame(f) for f in reply_frames)
    calls = 200
    return {
        "wire.request_bytes": len(request),
        "wire.encode_request_us": _median_call_s(lambda: encode_frame(Request(1, image)), calls) * 1e6,
        "wire.decode_request_us": _median_call_s(lambda: FrameDecoder().feed(request), calls) * 1e6,
        "wire.encode_reply_us": _median_call_s(
            lambda: [encode_frame(f) for f in reply_frames], calls) * 1e6,
        "wire.decode_reply_us": _median_call_s(lambda: FrameDecoder().feed(reply), calls) * 1e6,
    }


def direct_routed(cfg: dict, pool: np.ndarray) -> dict:
    """Placement hash and the cache's key / get / put-with-eviction paths."""
    replicas = cfg["routed"]["replicas"]
    cache = ResultCache(max_bytes=cfg["routed"]["cache_max_bytes"])
    answer = CachedAnswer(3, 3, 0.9, "bnn")
    keys = [cache.key_for(image) for image in pool]
    for key, image in zip(keys, pool):  # more than the budget holds: the cache is full
        cache.put(key, image, answer)
    fresh = iter(range(len(pool)))

    def put_evict():
        i = next(fresh)  # evicted long ago, so every put inserts and evicts
        cache.put(keys[i], pool[i], answer)

    def timed_gets(wanted_hit: bool) -> float:
        times = []
        for key, image in zip(keys, pool):
            began = time.perf_counter()
            hit = cache.get(key, image) is not None
            if hit == wanted_hit:
                times.append(time.perf_counter() - began)
        return statistics.median(times) * 1e6

    calls = 200
    return {
        "router.place_us": _median_call_s(lambda: rendezvous_order(pool[0], replicas), calls) * 1e6,
        "cache.key_us": _median_call_s(lambda: cache.key_for(pool[0]), calls) * 1e6,
        "cache.get_hit_us": timed_gets(True),
        "cache.get_miss_us": timed_gets(False),
        "cache.put_evict_us": _median_call_s(put_evict, calls) * 1e6,
    }


def _stage_delta(later, earlier, name: str) -> tuple[float, int]:
    """Seconds and images the server's own timer booked for stage *name*
    between two snapshots (a stage that never ran is absent from both)."""
    seconds = count = 0
    for sign, snapshot in ((1, later), (-1, earlier)):
        stats = snapshot.stages.get(name)
        if stats is not None:
            seconds += sign * stats.total_seconds
            count += sign * stats.count
    return seconds, count


def _budget(title: str, unit: str, total: float, rows: list[tuple[str, float]], rest: str) -> None:
    """Print rows that should sum to *total*, and what is left over."""
    print(f"# budget {title} ({unit})")
    for label, value in rows + [(f"residual: {rest}", total - sum(v for _, v in rows))]:
        print(f"#   {label:<52s} {value:9.4f}  {value / total:6.1%}")
    print(f"#   {'total':<52s} {total:9.4f}")


def traced(plan: Plan, workload: str, out_dir: Path) -> tuple[dict, list, list]:
    """``sat`` blocks alternating between a plain stack and a stack built with
    the wrappers, then ``solo`` on the wrapped one; returns the per-layer values.

    The machine's speed drifts over seconds, so only blocks that are neighbours
    in time compare: the plain blocks give the untraced throughput."""
    cfg, pool = plan.cfg, plan.pool
    rec = Recorder()
    plain_plan = dataclasses.replace(plan)  # its own position in the request sequence
    with contextlib.ExitStack() as closing:
        plain_stack, _, warm_plain = plain_plan.set_up()
        closing.callback(plain_stack.close)
        stack, _, warm = plan.set_up(rec)
        closing.callback(stack.close)
        primed_plain, primed = plain_plan.prime(plain_stack), plan.prime(stack)
        server = stack.server
        snap0, t0 = server.snapshot() if server else None, rec.now()
        plains, sats, sat_cpu_s = [], [], 0.0
        for _ in range(cfg["rounds"]):
            plains.append(plain_plan.sat(plain_stack))
            cpu = cpu_seconds(stack.pids())
            sats.append(plan.sat(stack))
            sat_cpu_s += cpu_seconds(stack.pids()) - cpu
        snap1, t1 = server.snapshot() if server else None, rec.now()
        solo = plan.solo(stack)
        snap2, t2 = server.snapshot() if server else None, rec.now()
        books = check_books(plan, stack, warm, [*primed, *sats, solo])
        net = stack.frontend.metrics.snapshot() if stack.frontend else None
        routed = stack.router.snapshot() if stack.router else None

    n_sat, n_solo = sum(len(b.indices) for b in sats), len(solo.indices)
    sat_wall = sum(b.wall for b in sats)
    answered = n_sat + n_solo
    sat_ms = np.concatenate([b.latencies_ms() for b in sats])
    solo_ms = solo.latencies_ms()
    sat_cpu_ms = sat_cpu_s / n_sat * 1e3
    plain_img_s = float(np.median([b.img_per_s for b in plains]))
    traced_img_s = float(np.median([b.img_per_s for b in sats]))
    # Client time minus the latency the program reports for itself = the hops.
    hop_ms = np.array([
        (solo.end[j] - solo.start[j] - a.latency_seconds) * 1e3
        for j, a in enumerate(solo.answers) if a is not None
    ])
    values = {
        "client.sat_latency_p50_ms": np.percentile(sat_ms, 50),
        "client.sat_latency_p90_ms": np.percentile(sat_ms, 90),
        "client.solo_latency_p99_ms": np.percentile(solo_ms, 99),
        "client.submit_us_mean": sum(b.submit_s for b in sats) / n_sat * 1e6,
        "proc.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bench.oracle_s": plan.oracle.seconds,
        "trace.overhead_frac": 1 - traced_img_s / plain_img_s,
    }
    for source in ("bnn", "host", "cache"):
        values[f"client.source_{source}_frac"] = sum(
            b.source_count(source) for b in (*sats, solo)
        ) / answered

    if server is not None:
        direct = direct_compute(cfg, pool)
        values.update(direct)
        sat_spans = {name: rec.window(name, t0, t1) for name in ("bnn", "dmu", "host")}
        solo_spans = {name: rec.window(name, t1, t2) for name in ("bnn", "dmu", "host")}
        for name in ("bnn", "host"):
            w = sat_spans[name]
            values.update({
                f"{name}.calls": w["calls"], f"{name}.images": w["images"],
                f"{name}.batch_mean": w["images"] / max(1, w["calls"]),
                f"{name}.busy_s": w["busy_s"], f"{name}.cpu_s": w["cpu_s"],
                f"{name}.ms_per_img": w["busy_s"] / max(1, w["images"]) * 1e3,
            })
        dmu = sat_spans["dmu"]
        values.update({
            "dmu.calls": dmu["calls"], "dmu.busy_s": dmu["busy_s"],
            "dmu.us_per_img": dmu["busy_s"] / max(1, dmu["images"]) * 1e6,
        })
        bnn_s, bnn_n = _stage_delta(snap1, snap0, "bnn")
        host_s, _ = _stage_delta(snap1, snap0, "host")
        wait_s, wait_n = _stage_delta(snap1, snap0, "host_queue_wait")
        wrapped_cpu_ms = sum(w["cpu_s"] for w in sat_spans.values()) / n_sat * 1e3
        values.update({
            "serve.submitted": snap2.submitted, "serve.accepted": snap2.accepted,
            "serve.rerun": snap2.rerun, "serve.degraded": snap2.degraded,
            "serve.failed": snap2.failed,
            "serve.bnn_util": bnn_s / sat_wall, "serve.host_util": host_s / sat_wall,
            "serve.bnn_stage_ms_per_img": bnn_s / max(1, bnn_n) * 1e3,
            "serve.host_queue_wait_ms_mean": wait_s / max(1, wait_n) * 1e3,
            "serve.host_queue_max_depth": snap1.queues["host"].max_depth,
            "serve.other_cpu_ms_per_img": sat_cpu_ms - wrapped_cpu_ms,
            "serve.solo_wait_ms_p50": np.percentile(solo_ms, 50)
            - solo_spans["bnn"]["median_ms"] - solo_spans["dmu"]["median_ms"],
        })
        # Eq. (1), t_multi = max(t_fp * R, t_bnn), from the standalone timings.
        r_rerun = snap1.since(snap0).rerun_ratio
        t_bnn, t_fp = direct["bnn.solo_ms_per_img_b32"], direct["host.solo_ms_per_img_b8"]
        predicted = 1 / multi_precision_interval(t_fp / 1e3, t_bnn / 1e3, r_rerun)
        values.update({
            "eq1.t_bnn_ms": t_bnn, "eq1.t_fp_ms": t_fp, "eq1.r_rerun": r_rerun,
            "eq1.predicted_img_s": predicted, "eq1.bound_frac": plain_img_s / predicted,
        })
        serial = 1e3 / (t_bnn + r_rerun * t_fp)  # one core cannot overlap the two stages
        print(f"# eq1 {workload} predicted {predicted:.1f} img/s (stages overlapped; on one core, "
              f"one after the other: {serial:.1f}), measured {plain_img_s:.1f} img/s untraced "
              f"({plain_img_s / predicted:.2f} of Eq. (1)), "
              f"bnn_util {bnn_s / sat_wall:.2f} host_util {host_s / sat_wall:.2f}")

    wire_cpu_ms = 0.0
    if net is not None:
        wire = direct_wire(pool[0])
        values.update(wire)
        values.update({
            "wire.hop_ms_p50": np.percentile(hop_ms, 50), "wire.hop_ms_p90": np.percentile(hop_ms, 90),
            "wire.frontend_requests": net.requests, "wire.frontend_rejected": net.rejected,
            "wire.frontend_failed": net.failed,
        })
        wire_cpu_ms = sum(v for k, v in wire.items() if k.endswith("_us")) / 1e3

    if routed is not None:
        values.update(direct_routed(cfg, pool))
        values.update({
            "router.hop_ms_p50": np.percentile(hop_ms, 50),
            "router.hop_ms_p90": np.percentile(hop_ms, 90),
            "router.routed": routed.routed, "router.failed": routed.failed,
            "router.failovers": routed.failovers,
            "router.replica_share_max": max(routed.replica_routed.values()) / routed.routed,
            "cache.reuse_frac": values["client.source_cache_frac"],
            "cache.hit_latency_p50_ms": np.median(solo.latencies_ms("cache")),
            "cache.miss_latency_p50_ms": np.median(
                np.concatenate([solo.latencies_ms("bnn"), solo.latencies_ms("host")])),
        })

    if server is not None:
        solo_wait_s, _ = _stage_delta(snap2, snap1, "host_queue_wait")
        _budget(
            f"{workload} solo mean latency", "ms", float(solo_ms.mean()),
            [(f"{name} ({w['calls']} calls)", w["busy_s"] / n_solo * 1e3)
             for name, w in solo_spans.items()]
            + [("host queue wait (server's stage timer)", solo_wait_s / n_solo * 1e3),
               ("hop (client time - server-reported latency)", float(hop_ms.mean()))],
            "batch timer + thread hand-offs in the server",
        )
        _budget(
            f"{workload} sat CPU per image", "ms", sat_cpu_ms,
            [(f"{name} (thread CPU in the wrapper)", w["cpu_s"] / n_sat * 1e3)
             for name, w in sat_spans.items()]
            + [("wire codec (direct encode + decode timings)", wire_cpu_ms)],
            "batcher, queues, futures, event loop, sockets, driver",
        )

    rec.add_requests(solo, "solo")
    out_dir.mkdir(exist_ok=True)
    write_chrome_trace(rec.tracer, out_dir / f"trace_{workload}.json")
    return values, [warm_plain, *primed_plain, *plains, warm, *primed, *sats, solo], books

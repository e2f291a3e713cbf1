"""Two-tenant cache benchmark (``repro serve-tenants``).

Drives a :class:`~repro.serve.tenancy.MultiTenantServer` — tenant
``model-a`` (host = Model A) and tenant ``model-c`` (host = Model C),
sharing one DRR-scheduled :class:`~repro.serve.tenancy.SharedHostPool`
— with the open-loop :class:`~repro.traffic.source.VideoTrafficSource`
trace, twice:

* the **no_cache** leg (``cache_max_bytes=0``) recomputes every frame;
* the **cached** leg fronts both tenants with one content-addressed
  :class:`repro.cache.ResultCache` (per-tenant namespaces).

The video source's ``repeat_frames`` hold knob makes the duplicate
fraction *exact by construction* — each frame's crops are re-emitted
``repeat_frames`` times referencing the same payload — so the report
can assert, not estimate:

1. cache hit rate (hits + single-flight coalesces) >= the trace's
   duplicate fraction,
2. cached-leg throughput strictly above the no-cache leg,
3. cached answers bit-identical to the cold server's, per payload and
   per tenant,
4. per-tenant and global books balance
   (``accepted + rerun + degraded + cache_hits + failed == submitted``),
5. the cache's own books reconcile (``hits + misses == lookups``).

``repro serve-tenants`` prints the table and writes the JSON report
(``benchmarks/results/BENCH_cache.json``), exiting nonzero unless every
check passes.

The BNN stage is a seeded hash of the image bytes (a pure function of
content, so caching correctness is checkable bit-for-bit) plus a
``t_bnn`` sleep to model its compute; the *host* stages are the real
Model A / Model C inference engines, so the pool's per-tenant cost EWMA
tracks genuinely different measured ``t_fp``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..core.dmu import DecisionMakingUnit
from ..core.report import format_percent, format_rate, render_table
from .oracle import check_ranges, pick
from .tenancy import MultiTenantServer, TenantSpec

__all__ = [
    "TenantBenchConfig",
    "hashed_scores_fn",
    "run_tenant_bench",
    "format_tenant_bench",
]

TENANT_A = "model-a"
TENANT_C = "model-c"


@dataclass(frozen=True)
class TenantBenchConfig:
    """One serve-tenants scenario (defaults sized for a CI smoke run)."""

    num_frames: int = 24
    #: Trace presentation rate; repeats of a frame land 1/fps apart.
    fps: float = 30.0
    #: Duplicate knob: exact duplicate fraction = (repeat_frames-1)/repeat_frames.
    repeat_frames: int = 3
    #: Replay the trace this many times faster than recorded, so the
    #: legs are compute-bound and the cache's win shows in throughput.
    time_scale: float = 25.0
    lanes: int = 2
    quantum_s: float = 0.002
    max_pending: int = 64
    cache_max_bytes: int = 32 * 1024 * 1024
    quota: int = 4096
    #: DRR weights of the two tenants (host-seconds shares under load).
    weight_a: float = 2.0
    weight_c: float = 1.0
    #: Width scales of the real host models.
    scale_a: float = 0.15
    scale_c: float = 0.15
    #: Static DMU threshold (no controller: decisions must be a pure
    #: function of the image for the bit-identity check).
    threshold: float = 0.9
    t_bnn: float = 0.002
    host_workers: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_ranges(
            self,
            at_least_one=("num_frames", "repeat_frames", "lanes", "quota"),
            # The cached leg needs a cache.
            positive=("fps", "time_scale", "t_bnn", "cache_max_bytes"),
            unit_interval=("threshold",),
            non_negative=("host_workers",),
        )

    @property
    def duplicate_fraction(self) -> float:
        return (self.repeat_frames - 1) / self.repeat_frames


def hashed_scores_fn(t_bnn: float = 0.0):
    """A pure-function-of-content BNN stage for cache benchmarks.

    Each image's 10-way score vector is drawn from a generator seeded by
    the blake2b digest of its bytes: deterministic per content (the
    property the bit-identity check leans on), continuous margins (so a
    mid-range DMU threshold splits traffic), and microseconds per image
    — with an optional ``t_bnn`` sleep to model the real stage's cost.
    """

    def fn(images: np.ndarray) -> np.ndarray:
        if t_bnn:
            time.sleep(t_bnn * len(images))
        out = np.empty((len(images), 10))
        for i, image in enumerate(images):
            digest = hashlib.blake2b(
                np.ascontiguousarray(image).tobytes(), digest_size=8
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            out[i] = rng.normal(size=10)
        return out

    return fn


def _host_fn(build, scale: float, seed: int):
    """Real host model: argmax over the compiled inference fast path."""
    net = build(scale=scale, rng=np.random.default_rng(seed))
    net.eval_mode()
    engine = net.compile_inference(micro_batch=16)

    def fn(images: np.ndarray) -> np.ndarray:
        return engine.predict_scores(np.asarray(images)).argmax(axis=1)

    return fn


def _build_server(config: TenantBenchConfig, cache_max_bytes: int) -> MultiTenantServer:
    from ..models.host_models import build_model_a, build_model_c

    specs = [
        TenantSpec(
            name=TENANT_A,
            bnn_scores_fn=hashed_scores_fn(config.t_bnn),
            dmu=DecisionMakingUnit.margin(config.threshold),
            host_predict_fn=_host_fn(build_model_a, config.scale_a, config.seed),
            weight=config.weight_a,
            quota=config.quota,
            server_kwargs={"controller": config.threshold},
        ),
        TenantSpec(
            name=TENANT_C,
            bnn_scores_fn=hashed_scores_fn(config.t_bnn),
            dmu=DecisionMakingUnit.margin(config.threshold),
            host_predict_fn=_host_fn(build_model_c, config.scale_c, config.seed + 1),
            weight=config.weight_c,
            quota=config.quota,
            server_kwargs={"controller": config.threshold},
        ),
    ]
    return MultiTenantServer(
        specs,
        lanes=config.lanes,
        quantum_s=config.quantum_s,
        max_pending=config.max_pending,
        cache_max_bytes=cache_max_bytes,
        host_workers=config.host_workers,
    )


def _run_leg(config: TenantBenchConfig, trace, payloads, cache_max_bytes: int) -> dict:
    """One full replay of the trace against both tenants; drained books."""
    from ..serve.resilience import ServerClosed
    from ..traffic.replay import TraceReplayer

    answers: dict[str, dict[int, tuple]] = {TENANT_A: {}, TENANT_C: {}}
    with _build_server(config, cache_max_bytes) as server:
        start = time.monotonic()
        handles = {}
        for tenant in (TENANT_A, TENANT_C):
            replayer = TraceReplayer(
                lambda img, _t=tenant: server.submit(img, tenant=_t),
                payloads,
                time_scale=config.time_scale,
                stop_on=(ServerClosed,),
            )
            handles[tenant] = replayer.replay_in_thread(trace, name=f"replay-{tenant}")
        results = {t: h.join(timeout=300.0) for t, h in handles.items()}
        identical_within_leg = True
        answered = 0
        for tenant, result in results.items():
            for request in result.requests:
                if request.future is None:
                    continue
                r = request.future.result(timeout=60.0)
                answered += 1
                answer = (int(r.prediction), int(r.bnn_prediction), float(r.confidence))
                seen = answers[tenant].setdefault(request.payload_ref, answer)
                if seen != answer:
                    identical_within_leg = False
        wall = time.monotonic() - start
        snap = server.snapshot()
    tenants = {}
    for name, t in snap.tenants.items():
        tenants[name] = dict(
            pick(
                t.metrics, "submitted", "accepted", "rerun", "degraded",
                "cache_hits", "failed",
            ),
            **pick(t, "rejected", "balanced", "weight"),
            pool_scheduled=t.pool.scheduled,
            pool_images=t.pool.images_executed,
            pool_busy_seconds=t.pool.busy_seconds,
            measured_t_fp=t.pool.cost_s_per_image,
        )
    cache = None
    if snap.cache is not None:
        cache = dict(asdict(snap.cache), hit_rate=snap.cache.hit_rate,
                     balanced=snap.cache.balanced)
    submitted = snap.submitted
    cache_hits = sum(t.metrics.cache_hits for t in snap.tenants.values())
    return {
        "wall_seconds": wall,
        "answered": answered,
        "throughput_ips": answered / wall if wall > 0 else float("nan"),
        "submitted": submitted,
        "served_from_cache": cache_hits,
        "hit_rate": cache_hits / submitted if submitted else 0.0,
        "books_balanced": snap.balanced,
        "tenants": tenants,
        "cache": cache,
        "answers": answers,
        "identical_within_leg": identical_within_leg,
    }


def run_tenant_bench(config: TenantBenchConfig | None = None) -> dict:
    config = config or TenantBenchConfig()
    from ..traffic.source import VideoTrafficSource

    source = VideoTrafficSource(
        fps=config.fps, seed=config.seed, repeat_frames=config.repeat_frames
    )
    trace, payloads = source.build(config.num_frames)

    legs = {
        "no_cache": _run_leg(config, trace, payloads, cache_max_bytes=0),
        "cached": _run_leg(
            config, trace, payloads, cache_max_bytes=config.cache_max_bytes
        ),
    }
    # Bit-identity across legs: the cached leg's answer for every payload
    # must equal the cold (no-cache) server's, tenant by tenant.
    bit_identical = all(leg["identical_within_leg"] for leg in legs.values())
    for tenant in (TENANT_A, TENANT_C):
        cold = legs["no_cache"]["answers"][tenant]
        warm = legs["cached"]["answers"][tenant]
        if set(cold) != set(warm) or any(cold[ref] != warm[ref] for ref in cold):
            bit_identical = False
    for leg in legs.values():
        del leg["answers"]  # not JSON material; the check above consumed them

    checks = {
        "hit_rate_ge_duplicate_fraction": (
            legs["cached"]["hit_rate"] >= config.duplicate_fraction
        ),
        "cached_throughput_above_no_cache": (
            legs["cached"]["throughput_ips"] > legs["no_cache"]["throughput_ips"]
        ),
        "bit_identical": bit_identical,
        "books_balanced": all(leg["books_balanced"] for leg in legs.values()),
        "cache_books_balanced": (
            legs["cached"]["cache"] is not None
            and legs["cached"]["cache"]["balanced"]
        ),
    }
    return {
        "config": asdict(config),
        "duplicate_fraction": config.duplicate_fraction,
        "trace_events": len(trace.events),
        "unique_payloads": len(payloads),
        "legs": legs,
        "checks": checks,
        "ok": all(checks.values()),
    }


def format_tenant_bench(report: dict) -> str:
    rows = []
    for label, leg in report["legs"].items():
        rows.append([
            label,
            str(leg["submitted"]),
            format_rate(leg["throughput_ips"]),
            format_percent(leg["hit_rate"]),
            str(leg["served_from_cache"]),
            "OK" if leg["books_balanced"] else "IMBALANCED",
        ])
    table = render_table(
        ["leg", "submitted", "img/s", "hit rate", "from cache", "books"],
        rows,
        title=(
            "serve-tenants: two tenants, one shared DRR host pool, "
            f"video trace x{report['config']['repeat_frames']} frame hold "
            f"(duplicate fraction {report['duplicate_fraction']:.0%}, "
            f"{report['trace_events']} events/tenant over "
            f"{report['unique_payloads']} unique crops)"
        ),
    )
    tenant_lines = []
    for label, leg in report["legs"].items():
        for name, t in leg["tenants"].items():
            tenant_lines.append(
                f"  {label:<9} {name:<8} w={t['weight']:g} submitted "
                f"{t['submitted']} = accepted {t['accepted']} + rerun "
                f"{t['rerun']} + degraded {t['degraded']} + cache "
                f"{t['cache_hits']} + failed {t['failed']} "
                f"({'OK' if t['balanced'] else 'IMBALANCED'}); pool ran "
                f"{t['pool_images']} imgs in {t['pool_busy_seconds'] * 1e3:.0f} ms, "
                f"measured t_fp {t['measured_t_fp'] * 1e3:.2f} ms/img"
            )
    cache = report["legs"]["cached"]["cache"]
    cache_line = ""
    if cache is not None:
        cache_line = (
            f"\n\ncache books: lookups {cache['lookups']} = hits {cache['hits']} "
            f"+ misses {cache['misses']} "
            f"({'OK' if cache['balanced'] else 'IMBALANCED'}); "
            f"{cache['entries']} entries / {cache['bytes']}B of "
            f"{cache['max_bytes']}B"
        )
    checks = "\n".join(
        f"  [{'PASS' if ok else 'FAIL'}] {name}"
        for name, ok in report["checks"].items()
    )
    return (
        table
        + "\n\nper-tenant books (shared pool, weighted DRR):\n"
        + "\n".join(tenant_lines)
        + cache_line
        + "\n\nchecks:\n" + checks
    )

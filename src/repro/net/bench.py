"""Self-driving load harness for the socket stack (``repro serve-net``).

Stands up the full network path — N :class:`~repro.net.router.ProcessReplica`
cascade replicas behind a :class:`~repro.net.router.ShardRouter` behind a
:class:`~repro.net.frontend.NetFrontend` — then drives it over real
loopback sockets with a closed-loop :class:`~repro.net.client.NetClient`
fleet and reconciles the books at every layer:

* frontend: ``answered + rejected + failed == requests``
* router:   ``routed + rejected + failed == submitted``
* terminal ratio: every submitted request must reach a terminal frame
  (the ISSUE acceptance asks >= 99 % even with a replica killed).

The replica stack is the labelled oracle cascade of
:mod:`repro.serve.oracle` (``docs/API.md``, "The oracle cascade"): each
"image" is 10 class scores plus the true label, the BNN stage reads the
scores, the host stage reads the label, and the DMU reads the top-2
margin — so correctness is exact and the harness measures queueing and
wire behaviour, not numpy throughput.  A
:class:`~repro.faults.FaultPlan` can be injected into every replica
(same seed ⇒ same per-stage fault stream in each), and
``kill_replica_after`` hard-kills one replica mid-run to exercise
failover.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core.dmu import DecisionMakingUnit
from ..faults import FaultPlan, load_fault_plan, wrap_stack
from ..serve.oracle import OracleStage, check_ranges, oracle_images, pick
from .client import NetClient
from .frontend import NetFrontend
from .router import ShardRouter

__all__ = [
    "NetBenchConfig",
    "make_oracle_images",
    "oracle_replica_kwargs",
    "run_net_bench",
    "format_net_bench",
]

#: Middle-rung oracle of a ladder replica: the BNN scores with extra
#: signal on the label, so most images sharpen enough for the mid DMU
#: to accept and the rest still forward to the host.
_oracle_mid_scores = OracleStage(answer="boosted")


def make_oracle_images(n: int, seed: int = 0, signal: float = 2.0) -> np.ndarray:
    """(n, 11) score-vector "images" with the true label appended."""
    return oracle_images(n, seed=seed, signal=signal, labelled=True)


def oracle_replica_kwargs(
    threshold: float = 0.7,
    fault_plan: FaultPlan | None = None,
    host_queue_capacity: int = 256,
    ladder: bool = False,
) -> dict:
    """:class:`~repro.serve.CascadeServer` kwargs for one oracle replica.

    Top-level and picklable (``spawn``-safe): this is the ``factory``
    handed to :meth:`ShardRouter.spawn` via :func:`functools.partial`.
    When *fault_plan* is given the three stage callables are wrapped in
    a fresh :class:`~repro.faults.FaultInjector` inside the child, so
    every replica replays the same seeded per-stage fault stream.

    With ``ladder=True`` each replica runs the 3-stage precision ladder
    (``docs/LADDER.md``): a ``mid1`` rung (label-boosted scores) between
    the BNN and the host, with its own margin DMU at the same static
    threshold.
    """
    from ..core.ladder import LadderStage

    bnn_fn, host_fn = OracleStage(answer="scores"), OracleStage(answer="label")
    dmu = DecisionMakingUnit.margin(threshold)
    if fault_plan is not None:
        bnn_fn, dmu, host_fn, _ = wrap_stack(fault_plan, bnn_fn, dmu, host_fn)
    kwargs = dict(
        bnn_scores_fn=bnn_fn,
        dmu=dmu,
        host_predict_fn=host_fn,
        host_queue_capacity=host_queue_capacity,
    )
    if ladder:
        kwargs["ladder"] = [
            LadderStage(
                name="mid1",
                scores_fn=_oracle_mid_scores,
                dmu=DecisionMakingUnit.margin(threshold),
            )
        ]
    return kwargs


@dataclass(frozen=True)
class NetBenchConfig:
    """One ``repro serve-net`` scenario."""

    num_requests: int = 200
    num_clients: int = 4
    num_replicas: int = 2
    placement: str = "round_robin"
    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral
    max_inflight: int = 256
    threshold: float = 0.7
    signal: float = 2.0            # score margin of the synthetic stream
    seed: int = 0
    fault_plan_path: str | None = None
    #: Hard-kill one replica after this many submitted requests (chaos).
    kill_replica_after: int | None = None
    #: Run each replica as a 3-stage precision ladder (bnn -> mid1 -> host).
    ladder: bool = False

    def __post_init__(self):
        check_ranges(
            self,
            at_least_one=("num_requests", "num_clients", "num_replicas", "max_inflight"),
            unit_interval=("threshold",),
            non_negative=("port", "kill_replica_after"),
        )


def _client_worker(config, address, images, outcome, lock):
    results, errors = [], []
    with NetClient(*address) as client:
        for image in images:
            try:
                results.append(client.classify(image, timeout=30.0))
            except Exception as exc:
                errors.append(exc)
    with lock:
        outcome["results"].extend(results)
        outcome["errors"].extend(errors)


def run_net_bench(config: NetBenchConfig) -> dict:
    """Run one scenario; returns the reconciled report dict."""
    fault_plan = (
        load_fault_plan(config.fault_plan_path) if config.fault_plan_path else None
    )
    factory = partial(
        oracle_replica_kwargs,
        threshold=config.threshold,
        fault_plan=fault_plan,
        ladder=config.ladder,
    )
    images = make_oracle_images(config.num_requests, seed=config.seed,
                                signal=config.signal)
    shares = np.array_split(np.arange(config.num_requests), config.num_clients)

    t_start = time.monotonic()
    with ShardRouter.spawn(
        factory, config.num_replicas, placement=config.placement
    ) as router:
        frontend = NetFrontend(
            router, host=config.host, port=config.port,
            max_inflight=config.max_inflight,
        )
        address = frontend.start()
        outcome = {"results": [], "errors": []}
        lock = threading.Lock()
        killer = None
        if config.kill_replica_after is not None:
            def _kill_when_due():
                while router.snapshot().submitted < config.kill_replica_after:
                    time.sleep(0.002)
                router.replicas[0].kill()
            killer = threading.Thread(target=_kill_when_due, daemon=True)
            killer.start()
        clients = [
            threading.Thread(
                target=_client_worker,
                args=(config, address, images[share], outcome, lock),
                daemon=True,
            )
            for share in shares if len(share)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=120.0)
        if killer is not None:
            killer.join(timeout=5.0)
        pings = router.ping(timeout=2.0)
        front_snap = frontend.metrics.snapshot()
        route_snap = router.snapshot()
        frontend.close()
    wall = time.monotonic() - t_start

    terminal = len(outcome["results"]) + len(outcome["errors"])
    sources: dict[str, int] = {}
    for result in outcome["results"]:
        sources[result.source] = sources.get(result.source, 0) + 1

    report = {
        "config": dict(
            pick(
                config, "num_requests", "num_clients", "num_replicas", "placement",
                "kill_replica_after", "ladder", "seed",
            ),
            fault_plan=config.fault_plan_path,
        ),
        "wall_seconds": wall,
        "client": {
            "answered": len(outcome["results"]),
            "errors": len(outcome["errors"]),
            "error_types": sorted(
                {type(exc).__name__ for exc in outcome["errors"]}
            ),
            "terminal": terminal,
            "terminal_ratio": terminal / config.num_requests if config.num_requests else 1.0,
            "sources": sources,
        },
        "frontend": pick(
            front_snap, "connections", "requests", "answered", "rejected", "failed",
            "protocol_errors", "balanced",
        ),
        "router": dict(
            pick(
                route_snap, "submitted", "routed", "rejected", "failed", "failovers",
                "replica_routed", "balanced",
            ),
            pings=pings,
        ),
        "ok": (
            front_snap.balanced
            and route_snap.balanced
            and terminal >= 0.99 * config.num_requests
        ),
    }
    return report


def format_net_bench(report: dict) -> str:
    """Human-readable serve-net report."""
    cfg = report["config"]
    client = report["client"]
    front = report["frontend"]
    route = report["router"]
    lines = [
        "serve-net: socket frontend + shard router loopback drive",
        f"  requests={cfg['num_requests']} clients={cfg['num_clients']} "
        f"replicas={cfg['num_replicas']} placement={cfg['placement']}",
    ]
    if cfg.get("ladder"):
        lines.append("  ladder: 3-stage replicas (bnn -> mid1 -> host)")
    if cfg["fault_plan"]:
        lines.append(f"  fault plan: {cfg['fault_plan']}")
    if cfg["kill_replica_after"] is not None:
        lines.append(f"  chaos: replica 0 killed after {cfg['kill_replica_after']} requests")
    lines += [
        f"  wall: {report['wall_seconds']:.2f}s  "
        f"({cfg['num_requests'] / max(report['wall_seconds'], 1e-9):.0f} req/s offered)",
        f"  client:   answered={client['answered']} errors={client['errors']} "
        f"terminal={client['terminal']}/{cfg['num_requests']} "
        f"({client['terminal_ratio']:.1%}) sources={client['sources']}",
        f"  frontend: requests={front['requests']} answered={front['answered']} "
        f"rejected={front['rejected']} failed={front['failed']} "
        f"balanced={front['balanced']}",
        f"  router:   submitted={route['submitted']} routed={route['routed']} "
        f"rejected={route['rejected']} failed={route['failed']} "
        f"failovers={route['failovers']} balanced={route['balanced']}",
        f"  replicas: routed={route['replica_routed']} ping={route['pings']}",
        f"  OK={report['ok']}  (books balance at every layer and >=99% of "
        "requests reached a terminal frame)",
    ]
    if client["error_types"]:
        lines.append(f"  client error types: {', '.join(client['error_types'])}")
    return "\n".join(lines)

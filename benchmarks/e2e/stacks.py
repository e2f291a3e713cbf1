"""The program under test, built at the three depths the benchmark measures.

Everything here calls public ``repro`` APIs only.  The constants come from
``config.json``; the only value computed per run is the DMU threshold, which
the oracle calibrates so the realised rerun count is exact.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bnn.inference import fold_network
from repro.core.dmu import DecisionMakingUnit
from repro.models.finn_cnv import build_finn_cnv
from repro.models.host_models import build_model_c
from repro.net import NetClient, NetFrontend, ShardRouter
from repro.serve import CascadeServer


def build_bnn_plan(cfg: dict, backend: str | None = None):
    """Compiled plan of the seeded FINN CNV (weights are seeded, not trained:
    kernel cost does not depend on weight values)."""
    bnn = cfg["bnn"]
    net = build_finn_cnv(scale=bnn["scale"], rng=np.random.default_rng(bnn["seed"]))
    net.eval_mode()
    folded = fold_network(net, backend=backend or bnn["backend"])
    return folded.compile_inference(micro_batch=bnn["micro_batch"])


def build_host_engine(cfg: dict):
    host = cfg["host"]
    net = build_model_c(scale=host["scale"], rng=np.random.default_rng(host["seed"]))
    net.eval_mode()
    return net.compile_inference(micro_batch=host["micro_batch"])


def build_dmu(cfg: dict) -> DecisionMakingUnit:
    dmu = cfg["dmu"]
    weights = np.random.default_rng(dmu["seed"]).normal(size=10) * dmu["weight_std"]
    return DecisionMakingUnit(weights, bias=dmu["bias"])


def server_kwargs(cfg: dict, threshold: float, recorder=None) -> dict:
    """Keyword arguments of one ``CascadeServer`` on freshly built compute.

    *recorder* (``layers.Recorder``) wraps the three callables handed to the
    server with timing spans; end-to-end runs pass ``None``.
    """
    plan, dmu, engine = build_bnn_plan(cfg), build_dmu(cfg), build_host_engine(cfg)
    bnn_scores_fn = plan.class_scores

    def host_predict_fn(images):
        return engine.predict_scores(images).argmax(axis=1)

    if recorder is not None:
        bnn_scores_fn = recorder.timed("bnn", bnn_scores_fn)
        host_predict_fn = recorder.timed("host", host_predict_fn)
        dmu = recorder.dmu_proxy(dmu)
    return dict(
        bnn_scores_fn=bnn_scores_fn,
        dmu=dmu,
        host_predict_fn=host_predict_fn,
        controller=threshold,
        **cfg["server"],
    )


def replica_kwargs(cfg: dict, threshold: float) -> dict:
    """``ProcessReplica`` factory body: runs in the replica process."""
    return dict(
        server_kwargs(cfg, threshold),
        cache_max_bytes=cfg["routed"]["cache_max_bytes"],
    )


@dataclass
class Stack:
    """One running program: ``submit(image) -> Future`` plus what to close."""

    submit: Callable | None = None
    server: CascadeServer | None = None
    frontend: NetFrontend | None = None
    client: NetClient | None = None
    router: ShardRouter | None = None

    def pids(self) -> list[int]:
        """The workload process and every replica process."""
        replicas = self.router.replicas if self.router is not None else ()
        return [os.getpid(), *(replica.pid for replica in replicas)]

    def close(self) -> None:
        """Replicas, frontend, client, server — each closed even if one raises."""
        errors = []
        for part in (self.router, self.frontend, self.client, self.server):
            if part is None:
                continue
            try:
                part.close()
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]


def build_stack(kind: str, cfg: dict, threshold: float, recorder=None) -> Stack:
    """Start the program at depth *kind*: ``inproc`` | ``wire`` | ``routed``."""
    stack = Stack()
    try:
        if kind == "routed":
            routed = cfg["routed"]
            stack.router = ShardRouter.spawn(
                functools.partial(replica_kwargs, cfg, threshold),
                routed["replicas"],
                placement=routed["placement"],
            )
            stack.submit = stack.router.submit
        elif kind in ("inproc", "wire"):
            stack.server = CascadeServer(**server_kwargs(cfg, threshold, recorder))
            stack.submit = stack.server.submit
            if kind == "wire":
                stack.frontend = NetFrontend(stack.server)
                host, port = stack.frontend.start()
                stack.client = NetClient(host, port)
                stack.submit = stack.client.submit
        else:
            raise ValueError(f"unknown stack {kind!r}")
    except BaseException:
        stack.close()
        raise
    return stack

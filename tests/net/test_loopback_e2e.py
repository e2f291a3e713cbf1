"""Loopback end-to-end: real trained cascade, wire answers bit-identical.

Trains a miniature real system (FINN CNV-style BNN, Model-A-style host,
trained DMU — the integration-suite workbench at reduced scale), serves
it behind a :class:`~repro.net.frontend.NetFrontend` over real loopback
sockets, and asserts the :class:`~repro.net.client.NetClient` results
are the :class:`~repro.serve.ServeResult` that in-process
:meth:`repro.serve.CascadeServer.submit` returns on the same images,
**bit-identical** in every field but the latency — the wire
adds encoding, framing, admission and async plumbing, but not one ULP
of numerical difference.  Repeated with ``REPRO_HOST_WORKERS=2`` so the
process-parallel host path is under the same contract.
"""

import numpy as np
import pytest

from repro.bnn import clip_weights, fold_network
from repro.core import DecisionMakingUnit, train_dmu
from repro.data import build_score_dataset, normalize_to_pm1, synthetic_cifar10
from repro.models import build_finn_cnv, build_model_a
from repro.net.client import NetClient
from repro.net.frontend import NetFrontend
from repro.net.router import InProcessReplica, ShardRouter
from repro.nn import Adam, SoftmaxCrossEntropy, SquaredHinge, Trainer
from repro.serve import CascadeServer, ServeResult

NUM_E2E_IMAGES = 24


@pytest.fixture(scope="module")
def tiny_cascade():
    """Train a miniature real system once for this module."""
    rng = np.random.default_rng(0)
    splits = synthetic_cifar10(num_train=240, num_test=NUM_E2E_IMAGES, seed=0)

    bnn = build_finn_cnv(scale=0.1, rng=rng)
    Trainer(
        bnn, SquaredHinge(), Adam(bnn.params(), lr=3e-3, post_update=clip_weights),
        rng=rng,
    ).fit(normalize_to_pm1(splits.train.images), splits.train.labels,
          epochs=2, batch_size=60)
    folded = fold_network(bnn, num_classes=10)

    host = build_model_a(scale=0.15, rng=rng)
    Trainer(host, SoftmaxCrossEntropy(), Adam(host.params(), lr=1e-3), rng=rng).fit(
        splits.train.images, splits.train.labels, epochs=2, batch_size=60
    )

    scores = build_score_dataset(
        folded.class_scores(normalize_to_pm1(splits.train.images)),
        splits.train.labels,
    )
    trained = train_dmu(scores, epochs=10, rng=rng)
    # Re-threshold at the median test-set confidence so this tiny system
    # exercises *both* cascade outcomes (BNN-accepted and host-rerun).
    test_confidence = trained.confidence(
        folded.class_scores(normalize_to_pm1(splits.test.images))
    )
    dmu = DecisionMakingUnit(
        trained.weights,
        trained.bias,
        threshold=float(np.clip(np.median(test_confidence), 0.01, 0.99)),
        sort_inputs=trained.sort_inputs,
    )
    return splits, folded, host, dmu


def server_kwargs(tiny_cascade, **extra):
    _, folded, host, dmu = tiny_cascade

    def bnn_scores_fn(images):
        return folded.class_scores(normalize_to_pm1(images))

    kwargs = dict(
        bnn_scores_fn=bnn_scores_fn,
        dmu=dmu,
        host_predict_fn=host.predict_classes,
        host_queue_capacity=64,
    )
    kwargs.update(extra)
    return kwargs


@pytest.fixture(scope="module")
def baseline(tiny_cascade):
    """In-process ``submit()`` answers on the test images (serial host)."""
    splits = tiny_cascade[0]
    images = list(splits.test.images)
    with CascadeServer(**server_kwargs(tiny_cascade)) as server:
        results = [server.submit(image).result(timeout=60.0) for image in images]
    assert {r.source for r in results} == {"bnn", "host"}  # both paths hit
    return images, results


def assert_bit_identical(wire_results, baseline_results):
    assert len(wire_results) == len(baseline_results)
    for wire, base in zip(wire_results, baseline_results):
        assert isinstance(wire, ServeResult)
        # Bit-identical, not approximately equal: the float64 confidence
        # must survive DMU → DECISION frame → client without drift.  Only
        # the latency, measured per run, may differ.
        assert (wire.prediction, wire.bnn_prediction, wire.confidence, wire.source) == (
            base.prediction, base.bnn_prediction, base.confidence, base.source
        )
        assert wire.cold_source is base.cold_source is None


class TestLoopbackE2E:
    def test_wire_results_bit_identical_to_in_process(self, tiny_cascade, baseline):
        images, base_results = baseline
        with CascadeServer(**server_kwargs(tiny_cascade)) as server:
            with NetFrontend(server) as frontend:
                with NetClient(*frontend.address) as client:
                    wire_results = [
                        client.classify(image, timeout=60.0) for image in images
                    ]
        assert_bit_identical(wire_results, base_results)
        snap = frontend.metrics.snapshot()
        assert snap.requests == snap.answered == len(images)
        assert snap.balanced

    def test_wire_results_bit_identical_with_parallel_host(
        self, tiny_cascade, baseline, monkeypatch
    ):
        # The frontend wraps a cascade whose host pool runs in two
        # worker processes (resolved from the environment, as deployed).
        monkeypatch.setenv("REPRO_HOST_WORKERS", "2")
        images, base_results = baseline
        with CascadeServer(**server_kwargs(tiny_cascade)) as server:
            assert server._host_runner is not None  # env var took effect
            with NetFrontend(server) as frontend:
                with NetClient(*frontend.address) as client:
                    wire_results = [
                        client.classify(image, timeout=60.0) for image in images
                    ]
        assert_bit_identical(wire_results, base_results)

    def test_wire_results_bit_identical_through_router(
        self, tiny_cascade, baseline
    ):
        # Full path: client → frontend → router → replica.  Rendezvous
        # placement, two replicas of the same trained cascade.
        images, base_results = baseline
        replicas = [
            InProcessReplica(i, CascadeServer(**server_kwargs(tiny_cascade)))
            for i in range(2)
        ]
        router = ShardRouter(replicas, placement="rendezvous")
        try:
            with NetFrontend(router) as frontend:
                with NetClient(*frontend.address) as client:
                    wire_results = [
                        client.classify(image, timeout=60.0) for image in images
                    ]
        finally:
            router.close()
        assert_bit_identical(wire_results, base_results)
        snap = router.snapshot()
        assert snap.routed == len(images)
        assert snap.balanced
        # Rendezvous spread the images across both replicas.
        assert len(snap.replica_routed) == 2

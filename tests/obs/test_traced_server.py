"""Tracing must observe, never perturb: traced == untraced predictions."""

import numpy as np

from repro import obs
from repro.core.dmu import DecisionMakingUnit
from repro.serve import CascadeServer


def _stack(num_requests=160, seed=7):
    """Deterministic synthetic serving stack (no sleeps, static threshold)."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, 1.0, size=(num_requests, 10))
    weights = np.zeros(10)
    weights[0], weights[1] = 4.0, -4.0
    dmu = DecisionMakingUnit(weights, bias=0.0, threshold=0.9)

    def bnn_scores_fn(images):
        return images

    def host_predict_fn(images):
        # Distinguishable from the BNN answer: host picks the runner-up.
        return np.argsort(images, axis=1)[:, -2]

    return bnn_scores_fn, dmu, host_predict_fn, scores


def _serve(traced: bool):
    bnn_fn, dmu, host_fn, scores = _stack()
    server = CascadeServer(
        bnn_fn, dmu, host_fn,
        controller=0.9,
        max_batch_size=16,
        host_queue_capacity=256,
        num_host_workers=2,
        host_batch_size=8,
    )
    if traced:
        with obs.tracing() as tracer:
            with server:
                results = server.classify_many(iter(scores))
        return results, tracer
    with server:
        results = server.classify_many(iter(scores))
    return results, None


def test_traced_run_identical_predictions():
    untraced, _ = _serve(traced=False)
    traced, tracer = _serve(traced=True)
    assert [r.prediction for r in traced] == [r.prediction for r in untraced]
    assert [r.bnn_prediction for r in traced] == [r.bnn_prediction for r in untraced]
    assert [r.source for r in traced] == [r.source for r in untraced]
    # And the trace actually observed the run.
    names = {s.name for s in tracer.spans}
    assert {"serve.bnn", "serve.dmu", "serve.batch"} <= names
    assert "serve.host" in names  # threshold 0.9 flags a nonempty subset
    assert {"queue.bnn", "queue.host"} <= set(tracer.gauge_samples())
    counters = tracer.counters()
    total = sum(counters.get(k, 0) for k in ("serve.accepted", "serve.rerun", "serve.degraded"))
    assert total == 160


def test_tracer_left_uninstalled_after_server_run():
    _serve(traced=True)
    assert obs.active() is None
    _serve(traced=False)
    assert obs.active() is None


def test_offline_pipeline_traced_identical():
    """The batch MultiPrecisionPipeline path is also invariant under tracing."""
    from repro.bnn import fold_network
    from repro.core import MultiPrecisionPipeline
    from repro.core.dmu import DecisionMakingUnit
    from repro.data import normalize_to_pm1, synthetic_cifar10
    from repro.models import build_finn_cnv, build_model_a

    rng = np.random.default_rng(0)
    net = build_finn_cnv(scale=0.1, rng=rng)
    net.eval_mode()
    folded = fold_network(net)
    host = build_model_a(scale=0.15, rng=np.random.default_rng(1))
    host.eval_mode()
    weights = np.zeros(10)
    weights[0], weights[1] = 4.0, -4.0
    dmu = DecisionMakingUnit(weights, bias=0.0, threshold=0.7)
    pipe = MultiPrecisionPipeline(folded, dmu, host)
    images = normalize_to_pm1(
        synthetic_cifar10(num_train=1, num_test=24, seed=3).test.images
    )

    plain = pipe.classify(images)
    with obs.tracing() as tracer:
        traced = pipe.classify(images)
    np.testing.assert_array_equal(plain.predictions, traced.predictions)
    np.testing.assert_array_equal(plain.rerun_mask, traced.rerun_mask)
    names = {s.name for s in tracer.spans}
    assert {"cascade.bnn", "cascade.dmu"} <= names

"""Compiled executors under concurrent callers: answers stay the serial ones.

``InferenceEngine`` and ``CompiledBNNPlan`` each reuse one set of
preallocated buffers.  A ``CascadeServer`` with ``num_host_workers=k``
calls one host callable from k threads at once, so two calls must never
write into each other's activations.
"""

import threading

import numpy as np
import pytest

from repro.bnn import fold_network
from repro.core import DecisionMakingUnit
from repro.models import build_finn_cnv, build_model_a
from repro.serve import CascadeServer


@pytest.fixture(scope="module")
def engine():
    net = build_model_a(scale=0.25, rng=np.random.default_rng(0))
    net.eval_mode()
    return net.compile_inference(micro_batch=8)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(1).normal(size=(512, 3, 32, 32)).astype(np.float32)


def hammer(call, batches, threads: int = 2) -> list:
    """Run ``call`` over *batches* from *threads* threads; answers in order."""
    out = [None] * len(batches)
    start = threading.Barrier(threads)

    def work(offset: int) -> None:
        start.wait()
        for i in range(offset, len(batches), threads):
            out[i] = call(batches[i])

    workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return out


def test_two_host_workers_answer_as_the_serial_engine(engine, images):
    serial = engine.predict_classes(images)
    server = CascadeServer(
        lambda x: np.zeros((len(x), 10)),  # margin 0: every image is rerun
        DecisionMakingUnit.margin(1.0),
        engine.predict_classes,
        controller=1.0,
        max_batch_size=8,
        num_host_workers=2,
        host_workers=0,
        host_batch_size=8,
        host_queue_capacity=len(images),
    )
    with server:
        results = server.classify_many(iter(images), timeout=60.0)
    assert {r.source for r in results} == {"host"}
    wrong = int((np.array([r.prediction for r in results]) != serial).sum())
    assert wrong == 0, f"{wrong} of {len(images)} answers differ from the serial engine"


def test_inference_engine_concurrent_scores_are_serial(engine, images):
    batches = [images[i : i + 8] for i in range(0, 256, 8)]
    serial = [engine.predict_scores(b).copy() for b in batches]
    for got, want in zip(hammer(engine.predict_scores, batches), serial):
        np.testing.assert_array_equal(got, want)


def test_compiled_plan_concurrent_scores_are_serial(images):
    net = build_finn_cnv(scale=0.1, rng=np.random.default_rng(2))
    net.eval_mode()
    plan = fold_network(net).compile_inference(micro_batch=8)
    batches = [images[i : i + 8] for i in range(0, 256, 8)]
    serial = [plan.class_scores(b).copy() for b in batches]
    for got, want in zip(hammer(plan.class_scores, batches), serial):
        np.testing.assert_array_equal(got, want)


def _float_engine(images):
    net = build_model_a(scale=0.25, rng=np.random.default_rng(0))
    net.eval_mode()
    return net.compile_inference(micro_batch=8)


def _quantized_engine(images):
    net = build_model_a(scale=0.25, rng=np.random.default_rng(0))
    net.eval_mode()
    return net.compile_quantized(bits=8, calibration_images=images[-16:], micro_batch=8)


def _threaded_plan(images):
    net = build_finn_cnv(scale=0.1, rng=np.random.default_rng(2))
    net.eval_mode()
    return fold_network(net).compile_inference(micro_batch=8, threads=2)


@pytest.mark.parametrize(
    "build", [_float_engine, _quantized_engine, _threaded_plan],
    ids=["float", "quantized", "plan"],
)
def test_engine_with_its_lock_still_pickles(build, images, monkeypatch):
    import pickle

    from repro.nn import program

    # Two tile threads even on a one-CPU runner: the plan owns a pool.
    monkeypatch.setattr(program, "available_cpus", lambda: 2)
    engine = build(images)
    want = engine(images[:8]).copy()
    # The original holds compiled call lists over its buffers (and the
    # plan a thread pool); the copy must not replay partials over copies.
    assert engine.programs and engine.buffers
    copy = pickle.loads(pickle.dumps(engine))
    np.testing.assert_array_equal(copy(images[:8]), want)
    copy(images[8:16])  # the copy's buffers are its own
    np.testing.assert_array_equal(engine(images[:8]), want)
    np.testing.assert_array_equal(copy(images[:8]), want)

"""BNN plan threads compose with host worker processes without moving a bit.

The compiled plan's tile loop on 2 threads, serving beside a 2-process
:class:`repro.parallel.ParallelHostRunner`, must answer a seeded stream
exactly as the serial cascade does: same predictions, same sources,
balanced books.
"""

import numpy as np

from repro.bnn import fold_network
from repro.core import DecisionMakingUnit
from repro.data import normalize_to_pm1, synthetic_cifar10
from repro.models import build_finn_cnv
from repro.nn import program as program_module
from repro.serve import CascadeServer

MICRO_BATCH = 16


def host_predict(images: np.ndarray) -> np.ndarray:
    """A deterministic stand-in for the host network (picklable)."""
    return images.reshape(len(images), -1)[:, :10].argmax(axis=1)


def _serve(folded, images, threshold, threads, host_workers):
    plan = folded.compile_inference(micro_batch=MICRO_BATCH, threads=threads)
    with CascadeServer(
        plan.class_scores, DecisionMakingUnit.margin(threshold), host_predict,
        controller=threshold, max_batch_size=MICRO_BATCH, host_workers=host_workers,
    ) as server:
        results = server.classify_many(list(images), timeout=60.0)
    snap = server.snapshot()
    assert snap.submitted == len(images)
    assert snap.accepted + snap.rerun + snap.degraded + snap.failed == snap.submitted
    assert snap.degraded == snap.failed == 0
    return plan, results, snap


def test_plan_threads_and_host_processes_match_the_serial_cascade(monkeypatch):
    # Two tile threads even on a one-CPU runner: the composition is the
    # point, not the speed.
    monkeypatch.setattr(program_module, "available_cpus", lambda: 2)
    net = build_finn_cnv(scale=0.25, rng=np.random.default_rng(0))
    net.eval_mode()
    folded = fold_network(net)
    images = normalize_to_pm1(synthetic_cifar10(num_train=1, num_test=64, seed=0).test.images)
    confidence = DecisionMakingUnit.margin(0.5).confidence(folded.class_scores(images))
    threshold = float(np.quantile(confidence, 0.3))

    _, serial, serial_snap = _serve(folded, images, threshold, threads=None, host_workers=None)
    plan, threaded, snap = _serve(folded, images, threshold, threads=2, host_workers=2)

    assert plan._tile_threads() == 2 and plan._executor is not None
    assert snap.host_parallel_workers == 2
    assert 0 < serial_snap.rerun < len(images)  # both stages answered something
    np.testing.assert_array_equal(
        [r.prediction for r in threaded], [r.prediction for r in serial]
    )
    np.testing.assert_array_equal([r.source for r in threaded], [r.source for r in serial])
    assert (snap.accepted, snap.rerun) == (serial_snap.accepted, serial_snap.rerun)

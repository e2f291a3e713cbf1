"""Ladder replicas over the real socket stack (serve-net end-to-end)."""

from repro.net.bench import (
    NetBenchConfig,
    _oracle_mid_scores,
    format_net_bench,
    make_oracle_images,
    oracle_replica_kwargs,
    run_net_bench,
)
from repro.net.client import NetClient
from repro.net.frontend import NetFrontend
from repro.serve import CascadeServer, ServeResult


def test_mid_oracle_boosts_the_label():
    images = make_oracle_images(32, seed=0, signal=0.0)
    labels = images[:, -1].astype(int)
    scores = _oracle_mid_scores(images)
    base = images[:, :10]
    # Only the label column moved, and upward.
    assert (scores[range(32), labels] > base[range(32), labels]).all()
    off = scores.copy()
    off[range(32), labels] = base[range(32), labels]
    assert (off == base).all()


def test_replica_kwargs_gain_ladder_stage():
    kwargs = oracle_replica_kwargs(ladder=True)
    (stage,) = kwargs["ladder"]
    assert stage.name == "mid1"
    assert stage.dmu is not None
    assert "ladder" not in oracle_replica_kwargs()


def test_serve_net_ladder_end_to_end():
    """3-stage replicas behind real loopback sockets: books + named sources."""
    report = run_net_bench(
        NetBenchConfig(
            num_requests=80, num_clients=2, num_replicas=1, ladder=True, seed=3,
            signal=0.5,  # weak margins so traffic spreads over all 3 rungs
        )
    )
    assert report["ok"], format_net_bench(report)
    sources = report["client"]["sources"]
    assert sources.get("mid1", 0) > 0  # the named source crossed the wire
    assert set(sources) <= {"bnn", "mid1", "host", "degraded"}


def test_wire_rerun_agrees_with_serve_result():
    """A middle rung's answer is a rerun over the wire, as in-process."""
    images = make_oracle_images(60, seed=4, signal=0.5)
    server = CascadeServer(**oracle_replica_kwargs(ladder=True))
    try:
        with NetFrontend(server) as frontend:
            with NetClient(*frontend.address) as client:
                answers = client.classify_many(images)
    finally:
        server.close()
    assert {a.source for a in answers} >= {"bnn", "mid1"}
    for a in answers:
        local = ServeResult(
            prediction=a.prediction, bnn_prediction=a.bnn_prediction,
            confidence=a.confidence, source=a.source,
            latency_seconds=a.latency_seconds,
        )
        assert a.rerun == local.rerun, a.source

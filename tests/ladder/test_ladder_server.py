"""CascadeServer with middle rungs: books, routing policy, degrade paths."""

import time

import numpy as np
import pytest

from repro.core import DecisionMakingUnit, LadderStage
from repro.serve import (
    CascadeServer,
    LadderThresholdController,
    ServeBenchConfig,
    format_serve_bench,
    run_serve_bench,
    synthetic_ladder_stages,
)

NUM_CLASSES = 10


def margin_dmu(hop: int, threshold: float) -> DecisionMakingUnit:
    weights = np.zeros(NUM_CLASSES)
    weights[2 * hop], weights[2 * hop + 1] = 4.0, -4.0
    return DecisionMakingUnit(weights, bias=0.0, threshold=threshold)


def make_scores(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, NUM_CLASSES))


def identity_scores(images: np.ndarray) -> np.ndarray:
    return np.asarray(images)


def host_predict(images: np.ndarray) -> np.ndarray:
    return np.asarray(images).argmax(axis=1)


def mid_stage(threshold: float = 0.97, sleep_s: float = 0.0) -> LadderStage:
    def scores_fn(images):
        if sleep_s:
            time.sleep(sleep_s * len(images))
        return np.asarray(images)

    return LadderStage(name="mid1", scores_fn=scores_fn, dmu=margin_dmu(1, threshold))


def drain(server: CascadeServer, scores: np.ndarray):
    futures = [server.submit(s) for s in scores]
    return [f.result(timeout=30.0) for f in futures]


class TestBooks:
    def test_three_stage_books_balance(self):
        server = CascadeServer(
            identity_scores,
            margin_dmu(0, 0.97),
            host_predict,
            controller=0.97,
            host_queue_capacity=512,  # burst submits must not shed load here
            ladder=[mid_stage()],
        )
        assert server.num_stages == 3
        assert server.stage_names == ("bnn", "mid1", "host")
        scores = make_scores(300)
        with server:
            results = drain(server, scores)
        snap = server.snapshot()
        assert snap.submitted == 300
        assert snap.accepted + snap.rerun + snap.degraded + snap.failed == 300
        assert snap.rerun_stage_total == snap.rerun
        assert set(snap.rerun_stages) <= {"mid1", "host"}
        # Both upper rungs answered someone at this threshold.
        assert snap.rerun_stages.get("mid1", 0) > 0
        assert snap.rerun_stages.get("host", 0) > 0
        # Traffic counters expose measured per-hop forward ratios.
        ratios = snap.ladder_forward_ratios
        assert 0.0 < ratios["bnn"] < 1.0
        assert 0.0 < ratios["mid1"] < 1.0
        sources = {r.source for r in results}
        assert sources == {"bnn", "mid1", "host"}

    def test_results_match_offline_routing(self):
        """Served answers equal each image's own rung argmax (oracle stack)."""
        server = CascadeServer(
            identity_scores,
            margin_dmu(0, 0.97),
            host_predict,
            controller=0.97,
            host_queue_capacity=512,
            ladder=[mid_stage()],
        )
        scores = make_scores(120, seed=4)
        with server:
            results = drain(server, scores)
        # Identity engines: whatever rung answers, prediction == argmax.
        for s, r in zip(scores, results):
            assert r.prediction == int(np.argmax(s))


class TestRoutingPolicy:
    def test_static_stage_thresholds(self):
        server = CascadeServer(
            identity_scores,
            margin_dmu(0, 0.9),
            host_predict,
            controller=0.9,
            ladder=[mid_stage(threshold=0.85)],
        )
        assert server.stage_threshold(0) == 0.9
        assert server.stage_threshold(1) == 0.85
        server.close()

    def test_ladder_controller_moves_every_knob(self):
        controller = LadderThresholdController.from_targets(
            initial_thresholds=[0.97, 0.97],
            target_forward_ratios=[0.3, 0.3],
            gain=0.1,
        )
        server = CascadeServer(
            identity_scores,
            margin_dmu(0, 0.97),
            host_predict,
            controller=controller,
            host_queue_capacity=512,
            ladder=[mid_stage()],
        )
        with server:
            drain(server, make_scores(400, seed=2))
        assert controller.knobs[0].observations > 0
        assert controller.knobs[1].observations > 0
        assert controller.threshold_for(0) != 0.97
        assert controller.threshold_for(1) != 0.97
        assert server.stage_threshold(1) == controller.threshold_for(1)

    def test_controller_hop_count_must_match(self):
        controller = LadderThresholdController.from_targets(
            initial_thresholds=[0.9], target_forward_ratios=[0.3]
        )
        with pytest.raises(ValueError, match="hops"):
            CascadeServer(
                identity_scores,
                margin_dmu(0, 0.9),
                host_predict,
                controller=controller,
                ladder=[mid_stage()],
            )

    def test_reserved_and_duplicate_stage_names_rejected(self):
        for name in ("bnn", "host", "degraded"):
            with pytest.raises(ValueError, match="unique|reserved|names"):
                CascadeServer(
                    identity_scores,
                    margin_dmu(0, 0.9),
                    host_predict,
                    ladder=[
                        LadderStage(name, identity_scores, dmu=margin_dmu(1, 0.9))
                    ],
                )
        with pytest.raises(ValueError, match="unique|names"):
            CascadeServer(
                identity_scores,
                margin_dmu(0, 0.9),
                host_predict,
                ladder=[
                    LadderStage("m", identity_scores, dmu=margin_dmu(1, 0.9)),
                    LadderStage("m", identity_scores, dmu=margin_dmu(2, 0.9)),
                ],
            )

    def test_middle_stage_without_dmu_rejected(self):
        with pytest.raises(ValueError, match="DMU"):
            CascadeServer(
                identity_scores,
                margin_dmu(0, 0.9),
                host_predict,
                ladder=[LadderStage("m", identity_scores)],
            )


class TestDegradePaths:
    def test_full_mid_queue_degrades_not_drops(self):
        """A saturated middle rung sheds load; every future still resolves."""
        server = CascadeServer(
            identity_scores,
            margin_dmu(0, 0.9999),  # forward nearly everything
            host_predict,
            controller=0.9999,
            ladder=[mid_stage(sleep_s=0.02)],
            host_queue_capacity=2,  # bounds the middle rung's inbox too
        )
        scores = make_scores(150, seed=6)
        with server:
            results = drain(server, scores)
        snap = server.snapshot()
        assert len(results) == 150
        assert snap.degraded > 0
        assert snap.accepted + snap.rerun + snap.degraded + snap.failed == 150
        # Degraded answers fall back to the best prediction seen so far,
        # which on this oracle stack is still the argmax.
        for s, r in zip(scores, results):
            if r.source == "degraded":
                assert r.prediction == int(np.argmax(s))


class TestServeBenchLadder:
    def test_run_serve_bench_ladder_smoke(self):
        config = ServeBenchConfig(
            num_requests=120,
            num_clients=2,
            t_bnn=0.0001,
            t_fp=0.002,
            ladder_stage_times=(0.0005,),
            host_queue_capacity=16,
        )
        report = run_serve_bench(config)
        assert report.books_balanced
        for run in (report.naive, report.adaptive):
            assert run.books is not None and run.books["balanced"]
            assert run.eq1 is not None
            names = [s["name"] for s in run.eq1["stages"]]
            assert names == ["bnn", "mid1", "host"]
            assert len(run.final_thresholds) == 2
        text = format_serve_bench(report)
        assert "per-stage books" in text
        assert "3-stage ladder" in text
        assert "mid1" in text

    def test_ladder_stage_times_validation(self):
        with pytest.raises(ValueError, match="positive"):
            synthetic_ladder_stages(
                ServeBenchConfig(ladder_stage_times=(0.0, 0.1))
            )
        with pytest.raises(ValueError, match="at most 4"):
            synthetic_ladder_stages(
                ServeBenchConfig(ladder_stage_times=(0.001,) * 5)
            )

    def test_analytic_bound_generalizes(self):
        flat = ServeBenchConfig()
        laddered = ServeBenchConfig(ladder_stage_times=(0.002,))
        assert laddered.stage_names == ("bnn", "mid1", "host")
        assert laddered.stage_times == (flat.t_bnn, 0.002, flat.t_fp)
        # One extra rung filtering traffic can only raise the bound.
        assert laddered.analytic_bound_fps >= flat.analytic_bound_fps

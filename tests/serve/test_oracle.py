"""The bench kit (repro.serve.oracle): the oracle cascade exists once.

Every expectation here is a literal — the weights, the random streams,
the committed artifacts' bytes — not a comparison against the code the
kit replaced, so the harnesses built on it keep their fixed-seed output.
"""

import pickle
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import DecisionMakingUnit
from repro.net.bench import make_oracle_images, oracle_replica_kwargs
from repro.net.router import ProcessReplica
from repro.parallel import ParallelHostRunner
from repro.serve import ServeBenchConfig, synthetic_ladder_stages, synthetic_serving_stack
from repro.serve.oracle import (
    ANSWERS,
    LABEL_BOOST,
    OracleStage,
    oracle_images,
    write_report,
)
from repro.traffic import ServeLoadConfig, oracle_load_stack

RESULTS = Path(__file__).parents[2] / "benchmarks" / "results"


def margin_literal(hop: int = 0) -> np.ndarray:
    weights = [0.0] * 10
    weights[2 * hop], weights[2 * hop + 1] = 4.0, -4.0
    return np.array(weights)


def assert_margin_unit(dmu, threshold: float, hop: int = 0):
    np.testing.assert_array_equal(dmu.weights, margin_literal(hop))
    assert dmu.bias == 0.0
    assert dmu.threshold == threshold
    assert dmu.sort_inputs


class TestMarginDMU:
    def test_hop_zero_reads_the_winning_margin(self):
        dmu = DecisionMakingUnit.margin(0.7)
        assert_margin_unit(dmu, 0.7)
        scores = np.array([[0.1, 2.0, -1.0, 0.5] + [0.0] * 6])
        expected = 1.0 / (1.0 + np.exp(-4.0 * (2.0 - 0.5)))
        np.testing.assert_allclose(dmu.confidence(scores), [expected])

    @pytest.mark.parametrize("hop", range(5))
    def test_hop_k_reads_its_own_pair(self, hop):
        assert_margin_unit(DecisionMakingUnit.margin(0.3, hop=hop), 0.3, hop)

    def test_every_harness_stack_carries_it(self):
        """The five hand-written copies, now one: same unit at each site."""
        bench = ServeBenchConfig(naive_threshold=0.91, ladder_stage_times=(0.001,) * 4)
        assert_margin_unit(synthetic_serving_stack(bench)[1], 0.91)
        for hop, stage in enumerate(synthetic_ladder_stages(bench), start=1):
            assert_margin_unit(stage.dmu, 0.91, hop)
        assert_margin_unit(
            oracle_load_stack(ServeLoadConfig(naive_threshold=0.8))[1], 0.8
        )
        replica = oracle_replica_kwargs(threshold=0.6, ladder=True)
        assert_margin_unit(replica["dmu"], 0.6)
        assert_margin_unit(replica["ladder"][0].dmu, 0.6)

    def test_survives_pickle(self):
        dmu = pickle.loads(pickle.dumps(DecisionMakingUnit.margin(0.42, hop=2)))
        assert_margin_unit(dmu, 0.42, 2)


class TestOracleImages:
    def test_plain_stream_is_the_seeded_normal_draw(self):
        expected = np.random.default_rng(5).normal(0.0, 1.0, size=(7, 10))
        np.testing.assert_array_equal(oracle_images(7, seed=5), expected)

    def test_labelled_stream_draws_labels_first(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 10, size=6)
        scores = rng.normal(0.0, 1.0, size=(6, 10))
        scores[np.arange(6), labels] += 2.5
        images = oracle_images(6, seed=3, signal=2.5, labelled=True)
        assert images.shape == (6, 11)
        np.testing.assert_array_equal(images[:, :10], scores)
        np.testing.assert_array_equal(images[:, 10], labels)
        np.testing.assert_array_equal(images, make_oracle_images(6, seed=3, signal=2.5))

    def test_duplicates_copy_earlier_rows(self):
        n, fraction = 40, 0.25
        rng = np.random.default_rng(1)
        expected = rng.normal(0.0, 1.0, size=(n, 10))
        for pos in rng.choice(np.arange(1, n), size=10, replace=False):
            expected[pos] = expected[rng.integers(0, pos)]
        images = oracle_images(n, seed=1, duplicate_fraction=fraction)
        np.testing.assert_array_equal(images, expected)
        assert len({row.tobytes() for row in images}) <= n - 10 + 1
        stream = synthetic_serving_stack(
            ServeBenchConfig(num_requests=n, seed=1, duplicate_fraction=fraction)
        )[3]
        np.testing.assert_array_equal(stream, expected)


class TestOracleStage:
    IMAGES = oracle_images(9, seed=2, signal=1.0, labelled=True)

    def test_the_four_answers(self):
        scores, labels = self.IMAGES[:, :10], self.IMAGES[:, 10].astype(int)
        np.testing.assert_array_equal(OracleStage(answer="scores")(self.IMAGES), scores)
        np.testing.assert_array_equal(
            OracleStage(answer="argmax")(self.IMAGES), scores.argmax(axis=1)
        )
        np.testing.assert_array_equal(OracleStage(answer="label")(self.IMAGES), labels)
        boosted = scores.copy()
        boosted[np.arange(9), labels] += LABEL_BOOST
        np.testing.assert_array_equal(OracleStage(answer="boosted")(self.IMAGES), boosted)
        np.testing.assert_array_equal(self.IMAGES[:, :10], scores)  # input untouched

    def test_unlabelled_rows_answer_scores_and_argmax(self):
        rows = oracle_images(4, seed=0)
        np.testing.assert_array_equal(OracleStage(answer="scores")(rows), rows)
        np.testing.assert_array_equal(
            OracleStage(answer="argmax")(rows), rows.argmax(axis=1)
        )

    def test_sleeps_its_cost_per_image(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.serve.oracle.time.sleep", slept.append)
        OracleStage(0.002, "scores")(self.IMAGES)
        OracleStage(0.0, "scores")(self.IMAGES)
        assert slept == [0.002 * 9]

    def test_unknown_answer_rejected(self):
        with pytest.raises(ValueError, match="answer"):
            OracleStage(answer="softmax")

    @pytest.mark.parametrize("answer", ANSWERS)
    def test_survives_pickle(self, answer):
        stage = pickle.loads(pickle.dumps(OracleStage(0.0, answer)))
        np.testing.assert_array_equal(
            stage(self.IMAGES), OracleStage(0.0, answer)(self.IMAGES)
        )


@pytest.mark.parametrize("start_method", [None, "fork", "spawn"])
def test_replica_and_host_pool_share_one_start_method(start_method, monkeypatch):
    """REPRO_MP_START is resolved once, in repro.parallel — and the oracle
    stack crosses whichever process boundary it picks."""
    import multiprocessing

    if start_method is None:
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        expected = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    else:
        monkeypatch.setenv("REPRO_MP_START", start_method)
        expected = start_method
    images = oracle_images(4, seed=1, signal=4.0, labelled=True)
    replica = ProcessReplica(0, partial(oracle_replica_kwargs, threshold=0.7))
    try:
        with ParallelHostRunner(
            predict_fn=OracleStage(answer="label"), n_workers=1
        ) as pool:
            assert replica.start_method == pool.start_method
            assert expected in (None, pool.start_method)
            np.testing.assert_array_equal(
                pool.predict_classes(images), images[:, 10].astype(int)
            )
        result = replica.submit(images[0]).result(timeout=30.0)
        assert result.prediction == int(images[0, 10])
    finally:
        replica.close(timeout=5.0)


@pytest.mark.parametrize(
    "artifact",
    ["BENCH_traffic.json", "BENCH_cache.json", "BENCH_parallel.json"],
)
def test_write_report_reproduces_the_committed_artifacts(artifact, tmp_path):
    """One writer for every harness: load, write, compare bytes."""
    import json

    committed = (RESULTS / artifact).read_bytes()
    written = write_report(json.loads(committed), tmp_path / "nested" / artifact)
    assert written == tmp_path / "nested" / artifact
    assert written.read_bytes() == committed

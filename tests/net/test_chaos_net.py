"""Chaos tests for the network stack: seeded faults + replica murder.

Two layers of chaos, both replayable:

* **Seeded fault plans** (:class:`repro.faults.FaultPlan`) injected into
  every replica's cascade: the per-stage fault stream is a pure function
  of ``(seed, stage, call_index)``, so a sequential drive through the
  full wire stack must produce the *identical* outcome sequence on every
  run — the wire adds no nondeterminism.
* **Replica murder**: SIGKILL one of three process replicas mid-stream.
  In-flight requests on the victim fail with a typed
  ``ERROR(replica_failure)`` frame (never a silent replay), new traffic
  drains to survivors, and the books balance at the router *and* the
  frontend for any seeded plan — the ISSUE's acceptance scenario.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.net.bench import (
    NetBenchConfig,
    make_oracle_images,
    oracle_replica_kwargs,
    run_net_bench,
)
from repro.net.client import NetClient, WireError, WireRejected, WireShutdown
from repro.net.frontend import NetFrontend
from repro.net.router import InProcessReplica, ReplicaFailure, ShardRouter
from repro.serve.server import CascadeServer

from netharness import wait_until

TYPED_CLIENT_ERRORS = {"WireError", "WireRejected", "WireShutdown"}


class TestSeededFaultDeterminism:
    """Same plan + same seed ⇒ same wire outcomes, run after run."""

    PLAN = FaultPlan(
        seed=2018,
        specs=(
            FaultSpec(stage="host", kind="exception", probability=0.75),
            FaultSpec(stage="bnn", kind="corrupt", probability=0.1),
        ),
    )
    NUM_IMAGES = 60

    def _drive_once(self):
        """Fresh stack, sequential drive, outcome fingerprint."""
        images = make_oracle_images(self.NUM_IMAGES, seed=7, signal=1.0)
        replicas = [
            InProcessReplica(i, CascadeServer(
                **oracle_replica_kwargs(threshold=0.9, fault_plan=self.PLAN)
            ))
            for i in range(2)
        ]
        router = ShardRouter(replicas, placement="round_robin")
        frontend = NetFrontend(router)
        outcomes = []
        try:
            frontend.start()
            with NetClient(*frontend.address) as client:
                for image in images:
                    try:
                        r = client.classify(image, timeout=30.0)
                        outcomes.append(
                            ("ok", r.prediction, r.bnn_prediction,
                             round(r.confidence, 12), r.source)
                        )
                    except (WireError, WireRejected) as exc:
                        outcomes.append(("err", type(exc).__name__, exc.reason))
            front_snap = frontend.metrics.snapshot()
            route_snap = router.snapshot()
        finally:
            frontend.close()
            router.close()
        assert front_snap.balanced
        assert route_snap.balanced
        assert route_snap.submitted == self.NUM_IMAGES
        counts = (route_snap.routed, route_snap.rejected, route_snap.failed)
        return outcomes, counts

    def test_two_runs_identical(self):
        first_outcomes, first_counts = self._drive_once()
        second_outcomes, second_counts = self._drive_once()
        assert first_outcomes == second_outcomes
        assert first_counts == second_counts
        # The plan actually bit: some requests failed or degraded.
        kinds = {outcome[0] for outcome in first_outcomes}
        sources = {o[4] for o in first_outcomes if o[0] == "ok"}
        assert "err" in kinds or "degraded" in sources

    def test_failed_requests_carry_typed_reasons(self):
        outcomes, _ = self._drive_once()
        for outcome in outcomes:
            if outcome[0] == "err":
                assert outcome[1] in TYPED_CLIENT_ERRORS
                assert outcome[2] != "internal"  # typed, not a grab-bag


class TestReplicaMurder:
    """Kill 1 of 3 replicas mid-stream; the acceptance invariants hold."""

    def _config(self, **overrides):
        base = dict(
            num_requests=150,
            num_clients=4,
            num_replicas=3,
            placement="round_robin",
            threshold=0.7,
            seed=11,
            kill_replica_after=30,
        )
        base.update(overrides)
        return NetBenchConfig(**base)

    def test_books_balance_and_99pct_terminal(self):
        report = run_net_bench(self._config())
        assert report["ok"], report
        assert report["client"]["terminal"] == 150
        assert report["client"]["terminal_ratio"] >= 0.99
        assert report["frontend"]["balanced"]
        assert report["router"]["balanced"]
        # The victim stopped taking traffic; survivors absorbed it.
        assert report["router"]["pings"] == [False, True, True]
        routed = report["router"]["replica_routed"]
        assert routed.get(1, 0) + routed.get(2, 0) > routed.get(0, 0)
        # Every client-visible failure was a typed wire error.
        assert set(report["client"]["error_types"]) <= TYPED_CLIENT_ERRORS

    def test_reproducible_across_two_runs(self):
        # Kill timing races the clients, so per-request outcomes may
        # differ — but the acceptance invariants must hold on *every*
        # run with the same seed, and the classified stream is the same.
        reports = [run_net_bench(self._config()) for _ in range(2)]
        for report in reports:
            assert report["ok"], report
            assert report["client"]["terminal"] == 150
            assert report["frontend"]["balanced"]
            assert report["router"]["balanced"]
            assert set(report["client"]["error_types"]) <= TYPED_CLIENT_ERRORS

    def test_murder_plus_fault_plan(self, tmp_path):
        # Compose both chaos modes: seeded host faults in every replica
        # AND a SIGKILL mid-stream.  The books must still balance.
        plan = FaultPlan(
            seed=5,
            specs=(FaultSpec(stage="host", kind="exception", probability=0.2),),
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        report = run_net_bench(self._config(
            fault_plan_path=str(plan_path), threshold=0.9, signal=1.0
        ))
        assert report["frontend"]["balanced"], report
        assert report["router"]["balanced"], report
        assert report["client"]["terminal"] == 150
        assert set(report["client"]["error_types"]) <= TYPED_CLIENT_ERRORS


class TestInFlightSemantics:
    """The no-silent-replay contract, observed at the wire."""

    def test_inflight_on_victim_fails_typed_others_unaffected(self):
        # Replica 0 wedges (hang faults) so requests provably sit in
        # flight on it when it dies; replica 1 is healthy.  The hang is
        # injected into the *bnn* stage: that always runs in the
        # replica's own BNN worker thread, whereas a host-stage hang would
        # sleep inside a pool worker under REPRO_HOST_WORKERS — where
        # close() kills the worker and the cascade can still rescue the
        # request instead of failing it.
        hang_plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(stage="bnn", kind="hang", probability=1.0,
                             delay_s=30.0),),
        )
        victim = InProcessReplica(0, CascadeServer(
            **oracle_replica_kwargs(threshold=0.7, fault_plan=hang_plan)
        ))
        survivor_server = CascadeServer(**oracle_replica_kwargs(threshold=0.7))
        survivor = InProcessReplica(1, survivor_server)
        router = ShardRouter([victim, survivor], placement="round_robin")
        frontend = NetFrontend(router)
        images = make_oracle_images(8, seed=3, signal=4.0)
        try:
            frontend.start()
            with NetClient(*frontend.address) as client:
                # Round-robin: the first submission prefers replica 0,
                # where the hang fault wedges it in the bnn stage.
                doomed = client.submit(images[0])
                wait_until(lambda: router.snapshot().submitted == 1)
                victim.kill()
                with pytest.raises((WireError, WireShutdown)) as info:
                    doomed.result(timeout=30.0)
                if isinstance(info.value, WireError):
                    assert info.value.reason in ("replica_failure", "server_closed")
                # New traffic fails over to the survivor, unaffected.
                for image in images[1:]:
                    result = client.classify(image, timeout=30.0)
                    assert result.source in ("bnn", "host")
                    assert result.prediction == int(image[-1])
            front_snap = frontend.metrics.snapshot()
            route_snap = router.snapshot()
            assert front_snap.balanced
            assert route_snap.balanced
            assert route_snap.failed >= 1
            assert route_snap.replica_failed.get(0, 0) >= 1
        finally:
            frontend.close()
            router.close()


@pytest.mark.slow
class TestChaosSoak:
    """Long mixed-chaos soak (excluded from the default run via -m 'not slow')."""

    def test_soak_murder_and_faults(self, tmp_path):
        plan = FaultPlan(
            seed=99,
            specs=(
                FaultSpec(stage="host", kind="exception", probability=0.1),
                FaultSpec(stage="bnn", kind="latency", probability=0.05,
                          delay_s=0.01),
            ),
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        report = run_net_bench(NetBenchConfig(
            num_requests=1000,
            num_clients=8,
            num_replicas=3,
            placement="rendezvous",
            threshold=0.9,
            signal=1.5,
            seed=42,
            fault_plan_path=str(plan_path),
            kill_replica_after=250,
        ))
        assert report["frontend"]["balanced"], report
        assert report["router"]["balanced"], report
        assert report["client"]["terminal"] == 1000
        assert report["client"]["terminal_ratio"] >= 0.99
        assert set(report["client"]["error_types"]) <= TYPED_CLIENT_ERRORS

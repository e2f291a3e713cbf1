"""CLI experiment runner (analytical experiments only — no training)."""

import pytest

from repro.cli import EXPERIMENTS, TRAIN_BUDGETS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table5" in out

    def test_analytic_experiment(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_multiple_experiments(self, capsys):
        assert main(["fig3", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "Fig. 4" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_budgets_defined(self):
        assert set(TRAIN_BUDGETS) == {"micro", "bench", "full"}
        assert TRAIN_BUDGETS["micro"].num_train < TRAIN_BUDGETS["full"].num_train

    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig3", "fig4", "fig5", "table2",
            "table3", "table4", "table5", "ablations",
        }

    def test_ablations_runner(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "batch size" in out and "Eq. (1)" in out


class TestTraceCommand:
    def test_trace_runs_and_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        import json

        import numpy as np

        from repro.models import build_model_a

        # The host engine must run in this process, under the tracer.
        monkeypatch.delenv("REPRO_HOST_WORKERS", raising=False)
        trace_path = tmp_path / "trace.json"
        summary_path = tmp_path / "summary.json"
        assert main([
            "trace", "--requests", "48", "--scale", "0.1",
            "--host-scale", "0.15", "--batch-size", "16",
            "--output", str(trace_path), "--summary-json", str(summary_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Eq. (1) overlap check" in out
        assert "Eqs. (3)-(5)" in out
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "serve.bnn" in names and "serve.host" in names
        summary = json.loads(summary_path.read_text())
        assert summary["completed"] == 48
        spans = summary["summary"]["spans"]
        assert "serve.bnn" in spans
        # Every compiled host stage is a span of its own, inside serve.host.
        host = build_model_a(scale=0.15, rng=np.random.default_rng(0)).compile_inference()
        host(np.zeros((1, 3, 32, 32)))
        stages = [stage.name for stage in host.stages]
        assert stages and all(name.startswith("host.") and name in spans for name in stages)
        staged = sum(spans[name]["total_seconds"] for name in stages)
        assert staged <= spans["serve.host"]["total_seconds"]

    def test_trace_skip_output(self, capsys):
        assert main(["trace", "--requests", "32", "--scale", "0.1",
                     "--host-scale", "0.15", "--output", "-"]) == 0
        assert "span summary" in capsys.readouterr().out

    def test_trace_with_no_rerun_times_the_host_directly(self, capsys, tmp_path):
        import json

        summary_path = tmp_path / "summary.json"
        assert main([
            "trace", "--requests", "32", "--scale", "0.1", "--host-scale", "0.15",
            "--target-rerun", "0", "--output", "-", "--summary-json", str(summary_path),
        ]) == 0
        assert "direct call on the 32-image calibration batch" in capsys.readouterr().out
        eq1 = json.loads(summary_path.read_text())["eq1"]
        assert eq1["forward_ratios"] == [0.0]
        assert eq1["stages"][-1]["t_image"] > 0

    def test_trace_rejects_bad_args(self):
        with pytest.raises(SystemExit):
            main(["trace", "--requests", "0"])
        with pytest.raises(SystemExit):
            main(["trace", "--target-rerun", "1.5"])


class TestFutureWork:
    def test_armv8_projection_improves_everything(self):
        from repro.experiments.future_work import run_armv8_projection

        rows = run_armv8_projection()
        for r in rows:
            assert r.host_speedup > 2.0
            assert r.a53_cascade_fps > r.a9_cascade_fps

    def test_mixed_precision_sweep_shape(self):
        from repro.experiments.future_work import run_mixed_precision_sweep

        rows = run_mixed_precision_sweep()
        by_label = {r.label: r for r in rows}
        # Higher precision can never be cheaper in BRAM at equal target.
        assert by_label["W1A1"].bram_pct < by_label["W2A2"].bram_pct
        assert by_label["W2A2"].bram_pct < by_label["W8A8"].bram_pct
        # The fully binarised design fits the device; 8-bit does not.
        assert by_label["W1A1"].fits_device
        assert not by_label["W8A8"].fits_device

    def test_format_helpers(self):
        from repro.experiments.future_work import (
            format_armv8,
            format_mixed_precision,
            run_armv8_projection,
            run_mixed_precision_sweep,
        )

        assert "ARMv8" in format_armv8(run_armv8_projection())
        assert "mixed-precision" in format_mixed_precision(run_mixed_precision_sweep())

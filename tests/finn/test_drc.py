"""Design-rule checks."""

import pytest

from repro.finn import balance_network, finn_cnv_specs
from repro.finn.drc import Severity, check_design

from zynq_parts import XC7Z010, XC7Z045


@pytest.fixture(scope="module")
def paper_design():
    return balance_network(finn_cnv_specs(), target_cycles=232_000)


class TestCheckDesign:
    def test_paper_config_passes_on_zc702(self, paper_design):
        check = check_design(paper_design)
        assert check.ok, check.format()

    def test_fails_on_small_device(self, paper_design):
        check = check_design(paper_design, device=XC7Z010)
        assert not check.ok
        assert any(d.code.endswith("overflow") for d in check.errors)

    def test_large_device_clean_fit(self, paper_design):
        check = check_design(paper_design, device=XC7Z045)
        assert check.ok
        assert not check.warnings

    def test_throughput_requirement(self, paper_design):
        ok = check_design(paper_design, required_fps=60)
        assert ok.ok
        bad = check_design(paper_design, required_fps=100_000)
        assert any(d.code == "throughput-shortfall" for d in bad.errors)

    def test_overprovision_info(self):
        # Loose target: FC layers are orders of magnitude faster than convs.
        design = balance_network(finn_cnv_specs(), target_cycles=1_000_000)
        check = check_design(design, imbalance_tolerance=4.0)
        assert any(d.code == "over-provisioned" for d in check.diagnostics)
        # INFO items do not fail the check.
        assert check.ok or check.errors

    def test_pressure_warning_band(self):
        # Very fast target pushes LUTs into the warning band on XC7Z020.
        design = balance_network(finn_cnv_specs(), target_cycles=33_000)
        check = check_design(design)
        assert any(
            d.severity in (Severity.WARNING, Severity.ERROR) for d in check.diagnostics
        )

    def test_format(self, paper_design):
        text = check_design(paper_design, required_fps=1e9).format()
        assert "throughput-shortfall" in text
        clean = check_design(paper_design, imbalance_tolerance=1e9)
        if not clean.diagnostics:
            assert clean.format() == "design check: clean"

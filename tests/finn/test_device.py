"""FPGA device catalog."""

import pytest

from repro.finn import XC7Z020, FPGADevice

from zynq_parts import XC7Z010, XC7Z045, XCZU9EG


class TestDeviceCatalog:
    def test_paper_device_resources(self):
        # XC7Z020 public numbers: 280 RAMB18, 53200 LUTs.
        assert XC7Z020.bram_18k == 280
        assert XC7Z020.luts == 53200

    def test_size_ordering(self):
        assert XC7Z010.bram_18k < XC7Z020.bram_18k < XC7Z045.bram_18k < XCZU9EG.bram_18k

    def test_utilization(self):
        assert XC7Z020.bram_utilization(140) == pytest.approx(0.5)
        assert XC7Z020.lut_utilization(53200) == pytest.approx(1.0)

    def test_fits(self):
        assert XC7Z020.fits(bram=280, luts=53200)
        assert not XC7Z020.fits(bram=281, luts=1000)
        assert not XC7Z020.fits(bram=1, luts=60000)

    def test_invalid_device(self):
        with pytest.raises(ValueError):
            FPGADevice("bad", bram_18k=0, luts=1, flip_flops=1, dsp48=1)


class TestCrossDevicePortability:
    def test_cnv_does_not_fit_small_device(self):
        from repro.finn import balance_network, finn_cnv_specs, network_resources

        result = balance_network(finn_cnv_specs(), target_cycles=232_000)
        res = network_resources(list(result.engines), XC7Z010, partitioned=True)
        assert not res.fits()

    def test_high_pe_config_fits_large_device(self):
        from repro.finn import balance_network, finn_cnv_specs, network_resources

        result = balance_network(finn_cnv_specs(), target_cycles=33_000)
        res = network_resources(list(result.engines), XC7Z045, partitioned=True)
        assert res.fits()

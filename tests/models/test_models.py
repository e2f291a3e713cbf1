"""Model zoo: topologies match Tables I and III, shapes and training flow."""

import numpy as np
import pytest

from repro.bnn import BinaryConv2D, BinaryDense, fold_network
from repro.models import (
    CNV_CHANNELS,
    build_finn_cnv,
    build_model_a,
    build_model_b,
    build_model_c,
    scaled_channels,
)
from repro.nn import Conv2D, Dense, GlobalAvgPool2D


class TestFinnCNV:
    def test_full_width_topology_matches_table1(self):
        net = build_finn_cnv(scale=1.0)
        convs = [l for l in net if isinstance(l, BinaryConv2D)]
        assert [c.out_channels for c in convs] == list(CNV_CHANNELS)
        assert all(c.kernel_size == 3 and c.pad == 0 for c in convs)
        denses = [l for l in net if isinstance(l, BinaryDense)]
        assert [d.out_features for d in denses] == [64, 64, 64]
        # No padding: conv input of last FC comes from a 1x1x256 map.
        assert denses[0].in_features == 256

    def test_spatial_flow_no_padding(self):
        net = build_finn_cnv(scale=1.0)
        assert net.output_shape((3, 32, 32)) == (64,)

    def test_scaled_variant_trains_shape(self):
        rng = np.random.default_rng(0)
        net = build_finn_cnv(scale=0.125, rng=rng)
        x = rng.uniform(-1, 1, size=(2, 3, 32, 32))
        out = net.forward(x)
        assert out.shape == (2, 64)

    def test_scaled_channels_floor(self):
        assert scaled_channels(0.01) == (8, 8, 8, 8, 8, 8)
        assert scaled_channels(1.0) == CNV_CHANNELS

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_channels(0.0)

    def test_foldable(self):
        net = build_finn_cnv(scale=0.125)
        folded = fold_network(net, num_classes=10)
        assert folded.num_classes == 10


class TestModelA:
    def test_structure(self):
        net = build_model_a(scale=1.0)
        convs = [l for l in net if isinstance(l, Conv2D)]
        assert [c.out_channels for c in convs] == [32, 32, 64]
        assert all(c.kernel_size == 5 for c in convs)
        dense = [l for l in net if isinstance(l, Dense)]
        assert len(dense) == 1 and dense[0].out_features == 10

    def test_output_shape(self):
        assert build_model_a(scale=1.0).output_shape((3, 32, 32)) == (10,)

    def test_forward_scaled(self):
        rng = np.random.default_rng(1)
        net = build_model_a(scale=0.25, rng=rng)
        out = net.forward(rng.normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)


class TestModelB:
    def test_structure(self):
        net = build_model_b(scale=1.0)
        convs = [l for l in net if isinstance(l, Conv2D)]
        assert [c.out_channels for c in convs] == [192, 160, 96, 192, 192, 192, 192, 192, 10]
        assert isinstance(net[-1], GlobalAvgPool2D)

    def test_output_shape(self):
        assert build_model_b(scale=1.0).output_shape((3, 32, 32)) == (10,)

    def test_dropout_disabled(self):
        from repro.nn import Dropout

        net = build_model_b(scale=0.25, dropout=False)
        assert all(d.rate == 0.0 for d in net if isinstance(d, Dropout))

    def test_forward_scaled(self):
        rng = np.random.default_rng(2)
        net = build_model_b(scale=0.125, rng=rng)
        net.eval_mode()
        assert net.forward(rng.normal(size=(2, 3, 32, 32))).shape == (2, 10)


class TestModelC:
    def test_structure(self):
        net = build_model_c(scale=1.0)
        convs = [l for l in net if isinstance(l, Conv2D)]
        assert [c.out_channels for c in convs] == [96, 96, 96, 192, 192, 192, 192, 192, 10]
        strides = [c.stride for c in convs]
        assert strides.count(2) == 2  # stride-2 convs replace pooling

    def test_output_shape(self):
        assert build_model_c(scale=1.0).output_shape((3, 32, 32)) == (10,)

    def test_forward_scaled(self):
        rng = np.random.default_rng(3)
        net = build_model_c(scale=0.125, rng=rng)
        net.eval_mode()
        assert net.forward(rng.normal(size=(2, 3, 32, 32))).shape == (2, 10)


class TestRegistry:
    def test_param_count_ordering(self):
        # Full-width: A is much smaller than B and C (paper: A is the fast one).
        a = build_model_a(scale=1.0).num_params()
        b = build_model_b(scale=1.0).num_params()
        c = build_model_c(scale=1.0).num_params()
        assert a < b and a < c

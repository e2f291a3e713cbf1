"""The compiled plan against the XNOR-popcount oracle, on any foldable net.

Random topologies — one to four binary convs, each padded or not, pools
present or absent, a thresholded dense, an affine output or a float head
at the end, odd fan-ins, negative and zero γ — must give the same scores
three ways:

* the compiled plan == ``oracle.forward_oracle``, bit for bit, at
  matched chunking (ragged tails, chunk sizes 1–9, serial or tiled);
* the oracle == the eval-mode training network (``allclose``, same
  argmax): a padded conv pads with 0, exactly as training does.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bnn import BinaryActivation, BinaryConv2D, BinaryDense, fold_network
from repro.data import normalize_to_pm1
from repro.nn import BatchNorm, Dense, Flatten, MaxPool2D, Sequential
from repro.nn import program as program_module

from oracle import forward_oracle


@st.composite
def foldable_nets(draw):
    """(net, input shape) of a random foldable binarized network."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    channels = draw(st.integers(1, 4), label="in_channels")
    size = draw(st.integers(4, 10), label="size")
    shape = (channels, size, size)
    layers = []
    for _ in range(draw(st.integers(1, 4), label="depth")):
        pad = draw(st.sampled_from([0, 1]))
        k = draw(st.integers(1, min(3, size + 2 * pad)))
        out = draw(st.integers(1, 9))
        layers += [BinaryConv2D(channels, out, k, pad=pad, rng=rng), BatchNorm(out),
                   BinaryActivation()]
        channels, size = out, size + 2 * pad - k + 1
        if size >= 2 and draw(st.booleans(), label="pool"):
            layers.append(MaxPool2D(2))
            size //= 2
    layers.append(Flatten())
    features = channels * size * size
    if draw(st.booleans(), label="hidden dense"):
        width = draw(st.integers(1, 13))
        layers += [BinaryDense(features, width, rng=rng), BatchNorm(width), BinaryActivation()]
        features = width
    classes = draw(st.integers(2, 7))
    end = draw(st.sampled_from(["thresholded", "affine", "float head"]))
    if end == "float head":
        head = Dense(features, classes, rng=rng)
        head.bias.value[...] = rng.normal(size=classes)
        layers.append(head)
    else:
        layers += [BinaryDense(features, classes, rng=rng), BatchNorm(classes)]
        if end == "thresholded":
            layers.append(BinaryActivation())
    net = Sequential(layers)
    for layer in layers:
        if isinstance(layer, BatchNorm):
            n = layer.num_features
            layer.gamma.value[...] = rng.choice([-1.5, -0.5, 0.0, 0.7, 1.3], size=n)
            layer.beta.value[...] = rng.normal(size=n)
            layer.running_mean.value[...] = rng.normal(scale=3.0, size=n)
            layer.running_var.value[...] = rng.uniform(0.5, 2.0, size=n)
    net.eval_mode()
    return net, shape


@given(
    case=foldable_nets(),
    micro_batch=st.integers(1, 9),
    tail=st.integers(0, 8),
    threads=st.sampled_from([None, 2]),
)
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_plan_equals_oracle_equals_training_net(case, micro_batch, tail, threads, monkeypatch):
    monkeypatch.setattr(program_module, "available_cpus", lambda: 2)
    net, shape = case
    n = micro_batch + tail  # full chunks and a ragged tail
    images = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, *shape))
    folded = fold_network(net)
    expected = forward_oracle(folded, images, batch_size=micro_batch)

    plan = folded.compile_inference(micro_batch=micro_batch, threads=threads)
    np.testing.assert_array_equal(plan.forward(images), expected)

    want = net.forward(images)
    np.testing.assert_allclose(expected, want, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(expected.argmax(axis=1), want.argmax(axis=1))


def test_plan_equals_oracle_on_the_micro_workbench(micro_workbench):
    """The trained, deployed artifact: oracle == training net, plan == oracle."""
    net = micro_workbench.bnn_net
    images = normalize_to_pm1(micro_workbench.splits.test.images)
    folded = fold_network(net)
    expected = forward_oracle(folded, images, batch_size=64)
    np.testing.assert_allclose(expected, net.predict(images), rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(folded.forward(images, batch_size=64), expected)
    np.testing.assert_array_equal(
        folded.predict(images, batch_size=64), expected[:, :10].argmax(axis=1)
    )

"""The one compiled runtime under the BNN plan, the float and the quantized engine.

Rules the :class:`repro.nn.Program` owns for every engine, checked here
on the host engines (the BNN plan's cases are in tests/bnn/test_plan.py):
a geometry the stages cannot take leaves the compiled state as it was,
and a calibration that fails leaves a quantized engine refusing to
predict rather than running its calibration op.
"""

import numpy as np
import pytest

from repro.models import build_model_a
from repro.nn import Program


def _engine(kind: str) -> Program:
    net = build_model_a(scale=0.25, rng=np.random.default_rng(0))
    net.eval_mode()
    if kind == "host":
        return net.compile_inference(micro_batch=4)
    return net.compile_quantized(bits=4, calibration_images=np.ones((2, 3, 32, 32)))


def test_a_geometry_the_stages_cannot_take_leaves_the_program_as_it_was():
    engine = _engine("host")
    images = np.random.default_rng(1).normal(size=(5, 3, 32, 32))
    before = engine(images)
    kept = [(id(buf), buf.tobytes()) for buf in engine.buffers], dict(engine.programs)
    # 16x16 input: fc1's fan-in no longer matches the flattened map.
    with pytest.raises(ValueError, match="fan-in"):
        engine(np.zeros((2, 3, 16, 16)))
    assert ([(id(buf), buf.tobytes()) for buf in engine.buffers], engine.programs) == kept
    np.testing.assert_array_equal(engine(images), before)


def test_failed_calibration_leaves_the_engine_uncalibrated():
    engine = _engine("int4")
    with pytest.raises(ValueError, match="fan-in"):
        engine.calibrate(np.zeros((2, 3, 16, 16)))
    with pytest.raises(RuntimeError, match="uncalibrated"):
        engine(np.zeros((1, 3, 32, 32)))
    with pytest.raises(RuntimeError, match="not calibrated"):
        engine.activation_scales()

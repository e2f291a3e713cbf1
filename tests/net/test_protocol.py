"""Wire-protocol unit tests: golden bytes, round-trip property, malformed frames.

Three layers of defence for :mod:`repro.net.protocol`:

* **Golden fixtures** (``golden_frames.json``) pin the byte layout — any
  encoder change that alters bytes on the wire breaks these, which is
  the point: old clients must keep decoding new servers.
* **Hypothesis round-trip**: ``decode(encode(x)) == x`` for every frame
  type over generated payloads (all supported dtypes, shapes, NaNs).
* **Malformed-frame tests**: truncated header, bad magic, bad version,
  unknown type, oversize length, short body, trailing garbage — each
  must raise its typed :class:`~repro.net.protocol.ProtocolError`
  without hanging, and the incremental decoder must poison itself.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.net import protocol as p

GOLDEN_PATH = Path(__file__).parent / "golden_frames.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

UINT32 = st.integers(min_value=0, max_value=2**32 - 1)
UINT64 = st.integers(min_value=0, max_value=2**64 - 1)
INT32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
DETAIL = st.text(max_size=200)

WIRE_DTYPES = st.sampled_from(
    [np.float32, np.float64, np.int32, np.int64, np.uint8, np.bool_]
)


def wire_arrays(max_side: int = 8):
    return WIRE_DTYPES.flatmap(
        lambda dtype: npst.arrays(
            dtype=dtype,
            shape=npst.array_shapes(min_dims=0, max_dims=4, max_side=max_side),
        )
    )


def _reconstruct(entry: dict):
    """Build the frame object a golden entry describes, from scratch."""
    builders = {
        "request_f32_2d": lambda: p.Request(
            7, np.arange(6, dtype=np.float32).reshape(2, 3)
        ),
        "request_u8_flags": lambda: p.Request(
            0xDEADBEEF, np.array([1, 2, 255], dtype=np.uint8), flags=3
        ),
        "request_scalar_f64": lambda: p.Request(1, np.array(2.5, dtype=np.float64)),
        "ping": lambda: p.Ping(0x1122334455667788),
        "pong": lambda: p.Pong(42),
        "rejected_queue_full": lambda: p.Rejected(
            9, p.REJECT_QUEUE_FULL, "256 requests in flight (max 256)"
        ),
        "rejected_closing_empty_detail": lambda: p.Rejected(10, p.REJECT_CLOSING),
        "decision_bnn": lambda: p.Decision(11, 3, 3, "bnn", 0.9375, 0.001953125),
        "decision_host_negative_pred": lambda: p.Decision(
            12, -1, 7, "host", 0.25, 1.5
        ),
        "decision_degraded": lambda: p.Decision(13, 2, 2, "degraded", 0.0, 0.0),
        "decision_ladder_named": lambda: p.Decision(14, 5, 2, "mid1", 0.75, 0.25),
        "logits_one_confidence": lambda: p.Logits(
            11, np.array([0.9375], dtype=np.float64)
        ),
        "logits_ladder": lambda: p.Logits(
            14, np.array([0.5, 0.75, 1.0], dtype=np.float32)
        ),
        "error_stage_failure": lambda: p.Error(
            15, p.ERR_STAGE_FAILURE, "StageFailure('host', ...)"
        ),
        "error_connection_scoped": lambda: p.Error(
            0, p.ERR_PROTOCOL, "BadMagic: bad magic b'XX'"
        ),
        "shutdown": lambda: p.Shutdown("frontend closing"),
        "shutdown_unicode": lambda: p.Shutdown("adiós ☂"),
        # Protocol minor 2: tenant suffix, cache source, tenant rejection.
        "request_tenant": lambda: p.Request(
            21, np.array([1.0, -1.0], dtype=np.float32), tenant="model-a"
        ),
        "decision_cache": lambda: p.Decision(
            22, 4, 4, "cache", 0.875, 0.0001220703125
        ),
        "rejected_unknown_tenant": lambda: p.Rejected(
            23, p.REJECT_TENANT, "backend is single-tenant, cannot serve 'model-x'"
        ),
    }
    return builders[entry["name"]]()


class TestGoldenFrames:
    """The committed hex fixtures pin the wire format."""

    def test_every_frame_type_has_a_golden_fixture(self):
        covered = {entry["type"] for entry in GOLDEN}
        assert covered == set(p.FRAME_TYPES)

    @pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: e["name"])
    def test_encode_matches_golden_bytes(self, entry):
        assert p.encode_frame(_reconstruct(entry)).hex() == entry["hex"]

    @pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: e["name"])
    def test_decode_golden_bytes(self, entry):
        raw = bytes.fromhex(entry["hex"])
        frame, consumed = p.decode_frame(raw)
        assert consumed == len(raw)
        assert frame == _reconstruct(entry)
        assert frame.type_name == entry["type"]

    def test_header_layout_is_pinned(self):
        # 2-byte magic "RN", 1-byte version, 1-byte type, uint32 length.
        raw = bytes.fromhex(GOLDEN[0]["hex"])
        magic, version, frame_type, length = struct.unpack(">2sBBI", raw[:8])
        assert magic == b"RN"
        assert version == 1
        assert frame_type == p.FRAME_TYPES["request"]
        assert length == len(raw) - p.HEADER_SIZE


class TestRoundTrip:
    """decode(encode(x)) == x for every frame type."""

    @given(request_id=UINT32, flags=st.integers(0, 255), image=wire_arrays())
    @settings(max_examples=60, deadline=None)
    def test_request(self, request_id, flags, image):
        frame = p.Request(request_id, image, flags)
        decoded, consumed = p.decode_frame(p.encode_frame(frame))
        assert decoded == frame
        assert decoded.image.dtype == np.asarray(image).dtype
        assert decoded.image.shape == np.asarray(image).shape
        assert consumed == len(p.encode_frame(frame))

    @given(request_id=UINT32, values=wire_arrays())
    @settings(max_examples=60, deadline=None)
    def test_logits(self, request_id, values):
        frame = p.Logits(request_id, values)
        decoded, _ = p.decode_frame(p.encode_frame(frame))
        assert decoded == frame

    @given(nonce=UINT64)
    @settings(max_examples=30, deadline=None)
    def test_ping_pong(self, nonce):
        for cls in (p.Ping, p.Pong):
            frame = cls(nonce)
            decoded, _ = p.decode_frame(p.encode_frame(frame))
            assert decoded == frame

    @given(request_id=UINT32, code=st.integers(0, 255), detail=DETAIL)
    @settings(max_examples=60, deadline=None)
    def test_rejected_and_error(self, request_id, code, detail):
        for cls in (p.Rejected, p.Error):
            frame = cls(request_id, code, detail)
            decoded, _ = p.decode_frame(p.encode_frame(frame))
            assert decoded == frame

    @given(
        request_id=UINT32,
        prediction=INT32,
        bnn_prediction=INT32,
        source=st.one_of(
            st.sampled_from(sorted(p.SOURCE_TO_CODE)),
            # Ladder rungs ride as named sources (code SOURCE_NAMED).
            st.text(min_size=1, max_size=32).filter(
                lambda s: s not in p.SOURCE_TO_CODE
            ),
        ),
        confidence=st.floats(allow_nan=True),
        latency=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_decision(
        self, request_id, prediction, bnn_prediction, source, confidence, latency
    ):
        frame = p.Decision(
            request_id, prediction, bnn_prediction, source, confidence, latency
        )
        decoded, _ = p.decode_frame(p.encode_frame(frame))
        if confidence != confidence:  # NaN round-trips to NaN, != itself
            assert decoded.confidence != decoded.confidence
            decoded = p.Decision(
                decoded.request_id, decoded.prediction, decoded.bnn_prediction,
                decoded.source, confidence, decoded.latency_seconds,
            )
        assert decoded == frame

    @given(detail=DETAIL)
    @settings(max_examples=30, deadline=None)
    def test_shutdown(self, detail):
        decoded, _ = p.decode_frame(p.encode_frame(p.Shutdown(detail)))
        assert decoded == p.Shutdown(detail)

    @given(image=wire_arrays())
    @settings(max_examples=40, deadline=None)
    def test_request_nan_payload_bitwise_stable(self, image):
        # Byte-for-byte payload stability, not just value equality.
        frame = p.Request(1, image)
        decoded, _ = p.decode_frame(p.encode_frame(frame))
        assert decoded.image.tobytes() == np.ascontiguousarray(image).tobytes()

    def test_noncontiguous_array_payload(self):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        view = base[::2, ::3]  # non-contiguous strided view
        decoded, _ = p.decode_frame(p.encode_frame(p.Request(1, view)))
        np.testing.assert_array_equal(decoded.image, np.ascontiguousarray(view))


class TestEncodeRejections:
    def test_unsupported_dtype(self):
        with pytest.raises(p.ProtocolError, match="unsupported wire dtype"):
            p.encode_frame(p.Request(1, np.array([1 + 2j])))

    def test_too_many_dims(self):
        with pytest.raises(p.ProtocolError, match="ndim"):
            p.encode_frame(p.Request(1, np.zeros((1,) * 9, dtype=np.uint8)))

    def test_oversize_body(self):
        with pytest.raises(p.FrameTooLarge):
            p.encode_frame(
                p.Request(1, np.zeros(p.MAX_FRAME_BODY + 1, dtype=np.uint8))
            )

    def test_empty_decision_source(self):
        with pytest.raises(p.ProtocolError, match="source must be non-empty"):
            p.encode_frame(p.Decision(1, 0, 0, "", 0.5, 0.0))

    def test_unencodable_object(self):
        with pytest.raises(p.ProtocolError, match="cannot encode"):
            p.encode_frame(object())


class TestMalformedFrames:
    """Hostile bytes fail typed and fast — never a hang, never a crash."""

    GOOD = p.encode_frame(p.Ping(7))

    def test_truncated_header(self):
        for cut in range(p.HEADER_SIZE):
            with pytest.raises(p.TruncatedFrame):
                p.decode_frame(self.GOOD[:cut])

    def test_truncated_body(self):
        raw = p.encode_frame(p.Shutdown("goodbye"))
        for cut in range(p.HEADER_SIZE, len(raw)):
            with pytest.raises(p.TruncatedFrame):
                p.decode_frame(raw[:cut])

    def test_bad_magic(self):
        with pytest.raises(p.BadMagic):
            p.decode_frame(b"XX" + self.GOOD[2:])

    def test_bad_version(self):
        with pytest.raises(p.BadVersion):
            p.decode_frame(self.GOOD[:2] + bytes([99]) + self.GOOD[3:])

    def test_unknown_frame_type(self):
        with pytest.raises(p.UnknownFrameType):
            p.decode_frame(self.GOOD[:3] + bytes([0x7F]) + self.GOOD[4:])

    def test_retired_accepted_type_is_unknown(self):
        # 0x10 was ACCEPTED until minor 3; a peer that still sends it
        # fails typed, like any other unknown type.
        raw = struct.pack(">2sBBI", p.MAGIC, p.VERSION, 0x10, 4) + struct.pack(">I", 12345)
        with pytest.raises(p.UnknownFrameType, match="0x10"):
            p.decode_frame(raw)

    def test_oversize_length_rejected_from_header_alone(self):
        # 8 header bytes advertising a 1 GiB body: rejected immediately,
        # without waiting for (or buffering) the body.
        header = struct.pack(">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["ping"], 1 << 30)
        with pytest.raises(p.FrameTooLarge):
            p.decode_frame(header)

    def test_short_fixed_body(self):
        # PING advertises 4 bytes of body but the format needs 8.
        body = b"\x00" * 4
        raw = struct.pack(
            ">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["ping"], len(body)
        ) + body
        with pytest.raises(p.CorruptFrame):
            p.decode_frame(raw)

    def test_trailing_garbage_in_request(self):
        raw = p.encode_frame(p.Request(1, np.zeros(3, dtype=np.float32)))
        body = raw[p.HEADER_SIZE:] + b"JUNK"
        raw = struct.pack(
            ">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["request"], len(body)
        ) + body
        with pytest.raises(p.CorruptFrame, match="trailing"):
            p.decode_frame(raw)

    def test_request_array_shape_lies_about_size(self):
        # Array header claims a (1000,) float64 body but supplies 8 bytes.
        body = struct.pack(">IB", 1, 0) + struct.pack(">BBI", 2, 1, 1000) + b"\x00" * 8
        raw = struct.pack(
            ">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["request"], len(body)
        ) + body
        with pytest.raises(p.CorruptFrame, match="short"):
            p.decode_frame(raw)

    def test_request_unknown_dtype_code(self):
        body = struct.pack(">IB", 1, 0) + struct.pack(">BB", 200, 0)
        raw = struct.pack(
            ">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["request"], len(body)
        ) + body
        with pytest.raises(p.CorruptFrame, match="dtype code"):
            p.decode_frame(raw)

    def test_non_utf8_detail(self):
        body = struct.pack(">IB", 1, 1) + b"\xff\xfe"
        raw = struct.pack(
            ">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["error"], len(body)
        ) + body
        with pytest.raises(p.CorruptFrame, match="utf-8"):
            p.decode_frame(raw)

    @given(data=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_never_crash(self, data):
        # Any byte soup either decodes, waits for more, or fails typed.
        try:
            p.decode_frame(data)
        except p.ProtocolError:
            pass


class TestFrameDecoder:
    def test_reassembles_byte_at_a_time(self):
        frames = [
            p.Ping(1),
            p.Request(2, np.arange(4, dtype=np.float32)),
            p.Shutdown("bye"),
        ]
        stream = b"".join(p.encode_frame(f) for f in frames)
        decoder = p.FrameDecoder()
        got = []
        for i in range(len(stream)):
            got.extend(decoder.feed(stream[i:i + 1]))
        assert got == frames
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        frames = [p.Pong(1), p.Pong(2), p.Ping(3)]
        decoder = p.FrameDecoder()
        assert decoder.feed(b"".join(p.encode_frame(f) for f in frames)) == frames

    def test_poisons_after_error(self):
        decoder = p.FrameDecoder()
        with pytest.raises(p.BadMagic):
            decoder.feed(b"XXXXXXXXXX")
        # Every later feed re-raises: the connection is already doomed.
        with pytest.raises(p.BadMagic):
            decoder.feed(p.encode_frame(p.Ping(1)))

    def test_respects_custom_max_body(self):
        decoder = p.FrameDecoder(max_body=8)
        decoder.feed(p.encode_frame(p.Ping(1)))  # 8-byte body: at the limit
        with pytest.raises(p.FrameTooLarge):
            decoder.feed(p.encode_frame(p.Shutdown("123456789")))

    @given(
        frames=st.lists(
            st.one_of(
                UINT64.map(p.Ping),
                UINT64.map(p.Pong),
                st.tuples(UINT32, wire_arrays(max_side=4)).map(
                    lambda t: p.Request(*t)
                ),
                DETAIL.map(p.Shutdown),
            ),
            max_size=6,
        ),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_chunking_is_invisible(self, frames, chunk):
        stream = b"".join(p.encode_frame(f) for f in frames)
        decoder = p.FrameDecoder()
        got = []
        for i in range(0, len(stream), chunk):
            got.extend(decoder.feed(stream[i:i + chunk]))
        assert got == frames

"""Protocol minor 2 on the wire: tenant suffix, cache source, routing.

The compatibility contract under test: a request with no tenant is
byte-identical to the pre-tenancy encoding (old captures keep
decoding), a tenant-addressed frame decodes on a minor-2 peer and fails
*loudly* on anything that mangles its suffix, and the frontend maps
:class:`~repro.serve.tenancy.UnknownTenant` /
:class:`~repro.serve.tenancy.TenantQuotaExceeded` onto typed
``REJECTED`` frames rather than connection failures.
"""

import struct
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import protocol as p
from repro.net.client import NetClient, WireRejected
from repro.net.frontend import NetFrontend
from repro.serve.tenancy import TenantQuotaExceeded, UnknownTenant

from netharness import FakeBackend, make_result, reply_kinds

TENANT_NAMES = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=40,
)


def _image(value: float = 5.0) -> np.ndarray:
    return np.full(4, value, dtype=np.float64)


class TestTenantSuffixEncoding:
    def test_round_trip(self):
        frame = p.Request(9, _image(), tenant="model-a")
        decoded, consumed = p.decode_frame(p.encode_frame(frame))
        assert decoded == frame
        assert decoded.tenant == "model-a"

    def test_empty_tenant_is_byte_identical_to_pre_tenancy_encoding(self):
        # The suffix is *omitted* (not zero-length-prefixed) when no
        # tenant is named: old decoders never see minor-2 bytes.
        img = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert p.encode_frame(p.Request(7, img)) == p.encode_frame(
            p.Request(7, img, tenant="")
        )

    def test_old_frame_decodes_with_empty_tenant(self):
        # Hand-build a pre-tenancy frame: header | id | flags | array.
        img = np.array([1, 2, 255], dtype=np.uint8)
        body = struct.pack(">IB", 5, 0) + struct.pack(">BB", 5, 1) + struct.pack(
            ">I", 3
        ) + img.tobytes()
        raw = struct.pack(">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["request"],
                          len(body)) + body
        frame, consumed = p.decode_frame(raw)
        assert consumed == len(raw)
        assert frame.tenant == ""
        np.testing.assert_array_equal(frame.image, img)

    @settings(max_examples=50, deadline=None)
    @given(tenant=TENANT_NAMES)
    def test_any_utf8_tenant_round_trips(self, tenant):
        frame = p.Request(1, _image(), tenant=tenant)
        decoded, _ = p.decode_frame(p.encode_frame(frame))
        assert decoded.tenant == tenant

    def test_tenant_over_255_utf8_bytes_is_rejected_at_encode(self):
        with pytest.raises(p.ProtocolError, match="max 255"):
            p.encode_frame(p.Request(1, _image(), tenant="x" * 256))
        # The boundary itself is fine.
        decoded, _ = p.decode_frame(
            p.encode_frame(p.Request(1, _image(), tenant="x" * 255))
        )
        assert decoded.tenant == "x" * 255

    def test_mangled_suffix_fails_loudly(self):
        raw = bytearray(p.encode_frame(p.Request(1, _image(), tenant="model-a")))
        raw = raw[:-2]  # drop two suffix bytes: declared length now lies
        raw[7] = len(raw) - p.HEADER_SIZE  # re-point the body length
        with pytest.raises(p.CorruptFrame, match="trailing"):
            p.decode_frame(bytes(raw))

    def test_non_utf8_tenant_suffix_fails_loudly(self):
        base = p.encode_frame(p.Request(1, _image()))
        body = base[p.HEADER_SIZE:] + struct.pack(">B", 2) + b"\xff\xfe"
        raw = struct.pack(">2sBBI", p.MAGIC, p.VERSION, p.FRAME_TYPES["request"],
                          len(body)) + body
        with pytest.raises(p.CorruptFrame, match="utf-8"):
            p.decode_frame(raw)


class TestCacheSourceEncoding:
    def test_cache_decision_round_trips_as_code_3(self):
        frame = p.Decision(4, 1, 1, "cache", 0.5, 0.001)
        raw = p.encode_frame(frame)
        fixed = struct.calcsize(">IiiBdd")
        assert raw[p.HEADER_SIZE + struct.calcsize(">Iii")] == 3
        assert len(raw) == p.HEADER_SIZE + fixed  # no name suffix
        decoded, _ = p.decode_frame(raw)
        assert decoded == frame

    def test_reject_tenant_reason_name(self):
        assert p.Rejected(1, p.REJECT_TENANT).reason == "unknown_tenant"
        assert p.REJECT_TENANT in p.REJECT_NAMES

    def test_protocol_minor_is_three(self):
        assert p.PROTOCOL_MINOR == 3
        assert p.SOURCE_TO_CODE["cache"] == 3


class FakeTenantBackend(FakeBackend):
    """FakeBackend that understands ``submit(image, tenant=...)``."""

    def __init__(self, names=("model-a", "model-c"), quota=None):
        super().__init__()
        self.tenant_names = tuple(names)
        self.quota = quota
        self.by_tenant: dict[str, int] = {}

    def submit(self, image, tenant=None) -> Future:
        name = tenant or self.tenant_names[0]
        if name not in self.tenant_names:
            raise UnknownTenant(name)
        count = self.by_tenant.get(name, 0)
        if self.quota is not None and count >= self.quota:
            raise TenantQuotaExceeded(f"tenant {name!r} is at its quota")
        self.by_tenant[name] = count + 1
        with self.lock:
            self.submitted.append(np.asarray(image))
            fut: Future = Future()
            fut.set_result(
                make_result(prediction=self.tenant_names.index(name), source="cache")
            )
            return fut


class TestFrontendTenantRouting:
    def test_tenant_routes_to_named_model(self):
        backend = FakeTenantBackend()
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                a = client.classify(_image(), tenant="model-a")
                c = client.classify(_image(), tenant="model-c")
                default = client.classify(_image())
        assert (a.prediction, c.prediction, default.prediction) == (0, 1, 0)
        assert a.source == "cache"  # the new source survives the wire
        assert backend.by_tenant == {"model-a": 2, "model-c": 1}

    def test_unknown_tenant_is_a_typed_rejection(self):
        backend = FakeTenantBackend()
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                with pytest.raises(WireRejected) as excinfo:
                    client.classify(_image(), tenant="model-x")
                # The connection survives the rejection.
                assert client.classify(_image(), tenant="model-a").prediction == 0
        assert excinfo.value.code == p.REJECT_TENANT
        assert excinfo.value.reason == "unknown_tenant"
        assert frontend.metrics.snapshot().rejected == 1

    def test_quota_exceeded_maps_to_queue_full(self):
        backend = FakeTenantBackend(quota=1)
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                client.classify(_image(), tenant="model-a")
                with pytest.raises(WireRejected) as excinfo:
                    client.classify(_image(), tenant="model-a")
        assert excinfo.value.code == p.REJECT_QUEUE_FULL

    def test_refused_tenant_requests_read_exactly_one_rejected(self):
        backend = FakeTenantBackend(quota=1)
        with NetFrontend(backend) as frontend:
            kinds = reply_kinds(frontend.address, [
                p.Request(1, _image(), tenant="model-x"),  # unknown tenant
                p.Request(2, _image(), tenant="model-a"),
                p.Request(3, _image(), tenant="model-a"),  # over the quota
            ])
        assert kinds == {1: [p.Rejected], 2: [p.Decision], 3: [p.Rejected]}
        snap = frontend.metrics.snapshot()
        assert (snap.requests, snap.answered, snap.rejected) == (3, 1, 2)

    def test_single_tenant_backend_refuses_tenant_addressed_frames(self):
        backend = FakeBackend()  # no tenant_names attribute
        with NetFrontend(backend) as frontend:
            with NetClient(*frontend.address) as client:
                with pytest.raises(WireRejected) as excinfo:
                    client.classify(_image(), tenant="model-a")
                # Plain requests still work: old clients are unaffected.
                assert client.classify(_image(7)).prediction == 7
        assert excinfo.value.code == p.REJECT_TENANT
        assert backend.submitted and len(backend.submitted) == 1

"""Length-prefixed binary wire protocol for the cascade service.

The paper's cascade only pays off at scale once low-confidence residue
can reach the FP host from *outside* the device, so the serving layer
needs a real request path (FINN's throughput claims likewise assume a
wire in front of the accelerator).  This module is the pure byte layer
of that path: framing, encoding and decoding with **no sockets and no
I/O** — :mod:`repro.net.frontend` / :mod:`repro.net.client` move the
bytes, everything here is deterministic and unit-testable.

Frame layout (all integers big-endian)::

    +-------+---------+------+----------------+= = = = = = =+
    | magic | version | type |  body length   |    body     |
    |  2 B  |   1 B   | 1 B  |  4 B (uint32)  |  length B   |
    +-------+---------+------+----------------+= = = = = = =+
      "RN"      0x01                             <= 16 MiB

Request/response flow for one classification (client frames on the
left, server frames on the right); every request gets exactly one of
the three replies::

    REQUEST(id, image) ──►
                         ◄── DECISION(id, ...)       the cascade's answer
    -- or --
                         ◄── REJECTED(id, code)      admission refused (503)
    -- or --
                         ◄── ERROR(id, code)         typed terminal failure

``PING``/``PONG`` carry health-check nonces; ``SHUTDOWN`` is the typed
connection-scoped farewell :meth:`repro.net.frontend.NetFrontend.close`
sends so half-read connections never observe a silent reset.

Arrays (the image payload and the ``LOGITS`` vector, a frame no
server sends since minor 3) are encoded as
``dtype code (1 B) | ndim (1 B) | shape dims (uint32 each) | raw
C-order bytes`` — a fixed dtype-code table rather than pickled dtypes,
so the format is stable across numpy versions and releases (the golden
fixtures in ``tests/net`` pin it).

Decoding is strict: bad magic, an unknown version or frame type, an
oversize length, or a body whose size disagrees with its own header all
raise a typed :class:`ProtocolError` subclass — a malformed peer can
never hang or crash the frontend, only fail its own connection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "PROTOCOL_MINOR",
    "HEADER_SIZE",
    "MAX_FRAME_BODY",
    "FRAME_TYPES",
    "SOURCE_TO_CODE",
    "CODE_TO_SOURCE",
    "SOURCE_NAMED",
    "REJECT_QUEUE_FULL",
    "REJECT_CLOSING",
    "REJECT_NO_REPLICA",
    "REJECT_TENANT",
    "REJECT_NAMES",
    "ERR_PROTOCOL",
    "ERR_STAGE_FAILURE",
    "ERR_DEADLINE",
    "ERR_SERVER_CLOSED",
    "ERR_REPLICA_FAILURE",
    "ERR_SHUTDOWN",
    "ERR_INTERNAL",
    "ERROR_NAMES",
    "ProtocolError",
    "TruncatedFrame",
    "BadMagic",
    "BadVersion",
    "UnknownFrameType",
    "FrameTooLarge",
    "CorruptFrame",
    "Request",
    "Ping",
    "Pong",
    "Rejected",
    "Decision",
    "Logits",
    "Error",
    "Shutdown",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
]

MAGIC = b"RN"
VERSION = 1

#: In-band extension level of this build.  The header version byte stays
#: 1 — every extension rides *inside* existing frame bodies so old
#: frames decode byte-identically: minor 1 added :data:`SOURCE_NAMED`
#: ladder sources, minor 2 adds the optional tenant suffix on
#: ``REQUEST`` (``docs/TENANCY.md``), the ``"cache"`` decision source
#: and :data:`REJECT_TENANT`.  A minor-2 feature sent to a minor-1 peer
#: fails that peer's decode loudly (typed ``CorruptFrame``), never
#: silently.  Minor 3 drops ``ACCEPTED`` (type 0x10, now an unknown type)
#: and stops sending ``LOGITS``: ``DECISION`` is the one success reply.
#: A minor-2 client would wait for a ``LOGITS`` that never arrives; only
#: this package speaks the protocol, so both ends move together.
PROTOCOL_MINOR = 3

_HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = _HEADER.size  # 8 bytes

#: Hard ceiling on a frame body; an advertised length beyond this is
#: rejected from the header alone (no buffering of attacker-sized bodies).
MAX_FRAME_BODY = 16 * 1024 * 1024

# -- frame type codes ---------------------------------------------------------
_T_REQUEST = 0x01
_T_PING = 0x02
_T_REJECTED = 0x11
_T_DECISION = 0x12
_T_LOGITS = 0x13
_T_ERROR = 0x14
_T_SHUTDOWN = 0x15
_T_PONG = 0x16

FRAME_TYPES = {
    "request": _T_REQUEST,
    "ping": _T_PING,
    "rejected": _T_REJECTED,
    "decision": _T_DECISION,
    "logits": _T_LOGITS,
    "error": _T_ERROR,
    "shutdown": _T_SHUTDOWN,
    "pong": _T_PONG,
}

#: ``ServeResult.source`` on the wire (1 byte).  Codes 0-2 cover the
#: fixed 2-stage cascade; code 3 (minor 2) marks an answer re-served by
#: a :class:`repro.cache.CachingFrontend`; :data:`SOURCE_NAMED` flags a
#: ladder rung (``docs/LADDER.md``): the stage name rides as a utf-8
#: suffix after the decision's fixed fields.  Frames from 2-stage
#: servers are byte-identical to protocol version 1 before the
#: extensions.
SOURCE_TO_CODE = {"bnn": 0, "host": 1, "degraded": 2, "cache": 3}
CODE_TO_SOURCE = {code: name for name, code in SOURCE_TO_CODE.items()}
SOURCE_NAMED = 255

#: ``REJECTED`` reason codes (admission control; the 503 analogues).
REJECT_QUEUE_FULL = 1   # frontend at max in-flight (or tenant at quota)
REJECT_CLOSING = 2      # frontend is shutting down
REJECT_NO_REPLICA = 3   # router found no healthy replica
REJECT_TENANT = 4       # request named a tenant the server doesn't run
REJECT_NAMES = {
    REJECT_QUEUE_FULL: "queue_full",
    REJECT_CLOSING: "closing",
    REJECT_NO_REPLICA: "no_healthy_replica",
    REJECT_TENANT: "unknown_tenant",
}

#: ``ERROR`` codes (typed terminal failures).
ERR_PROTOCOL = 1          # peer sent malformed bytes
ERR_STAGE_FAILURE = 2     # repro.serve.StageFailure
ERR_DEADLINE = 3          # repro.serve.DeadlineExceeded
ERR_SERVER_CLOSED = 4     # repro.serve.ServerClosed
ERR_REPLICA_FAILURE = 5   # repro.net.router.ReplicaFailure
ERR_SHUTDOWN = 6          # frontend closed with the request in flight
ERR_INTERNAL = 7          # anything else
ERROR_NAMES = {
    ERR_PROTOCOL: "protocol",
    ERR_STAGE_FAILURE: "stage_failure",
    ERR_DEADLINE: "deadline_exceeded",
    ERR_SERVER_CLOSED: "server_closed",
    ERR_REPLICA_FAILURE: "replica_failure",
    ERR_SHUTDOWN: "shutdown",
    ERR_INTERNAL: "internal",
}


# -- errors -------------------------------------------------------------------
class ProtocolError(ValueError):
    """Base class of every framing/encoding violation."""


class TruncatedFrame(ProtocolError):
    """The buffer ends mid-frame (valid prefix; feed more bytes)."""


class BadMagic(ProtocolError):
    """The first two bytes are not ``b"RN"`` — not our protocol."""


class BadVersion(ProtocolError):
    """Unsupported protocol version byte."""


class UnknownFrameType(ProtocolError):
    """Frame type byte outside :data:`FRAME_TYPES`."""


class FrameTooLarge(ProtocolError):
    """Advertised body length exceeds the decoder's ceiling."""


class CorruptFrame(ProtocolError):
    """Complete frame whose body contradicts its own layout."""


# -- array payload ------------------------------------------------------------
_DTYPE_BY_CODE = {
    1: np.dtype("float32"),
    2: np.dtype("float64"),
    3: np.dtype("int32"),
    4: np.dtype("int64"),
    5: np.dtype("uint8"),
    6: np.dtype("bool"),
}
_CODE_BY_DTYPE = {dtype: code for code, dtype in _DTYPE_BY_CODE.items()}
_MAX_NDIM = 8


def _encode_array(array: np.ndarray) -> bytes:
    array = np.asarray(array)
    if not array.flags.c_contiguous:
        # Not ascontiguousarray: that would promote 0-d arrays to 1-d.
        array = np.ascontiguousarray(array)
    code = _CODE_BY_DTYPE.get(array.dtype)
    if code is None:
        raise ProtocolError(
            f"unsupported wire dtype {array.dtype!r} "
            f"(supported: {sorted(str(d) for d in _CODE_BY_DTYPE)})"
        )
    if array.ndim > _MAX_NDIM:
        raise ProtocolError(f"array ndim {array.ndim} exceeds wire limit {_MAX_NDIM}")
    head = struct.pack(">BB", code, array.ndim)
    dims = b"".join(struct.pack(">I", d) for d in array.shape)
    return head + dims + array.tobytes()


def _decode_array(body: bytes, offset: int) -> tuple[np.ndarray, int]:
    if len(body) - offset < 2:
        raise CorruptFrame("array header truncated")
    code, ndim = struct.unpack_from(">BB", body, offset)
    offset += 2
    dtype = _DTYPE_BY_CODE.get(code)
    if dtype is None:
        raise CorruptFrame(f"unknown array dtype code {code}")
    if ndim > _MAX_NDIM:
        raise CorruptFrame(f"array ndim {ndim} exceeds wire limit {_MAX_NDIM}")
    if len(body) - offset < 4 * ndim:
        raise CorruptFrame("array shape truncated")
    shape = struct.unpack_from(f">{ndim}I" if ndim else ">", body, offset)
    offset += 4 * ndim
    count = 1
    for dim in shape:
        count *= dim
    nbytes = count * dtype.itemsize
    if len(body) - offset < nbytes:
        raise CorruptFrame(
            f"array body short: need {nbytes} bytes, have {len(body) - offset}"
        )
    array = np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(shape)
    return array.copy(), offset + nbytes


def _array_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()  # bitwise: NaNs compare equal
    )


# -- frames -------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Request:
    """Client → server: classify one image (``flags`` is reserved).

    ``tenant`` (minor 2) selects the model on a multi-tenant server; it
    rides as a length-prefixed utf-8 suffix *after* the image array, so
    a request with no tenant is byte-identical to the pre-tenancy
    encoding and an old frame decodes with ``tenant == ""`` — the
    frontend routes those to its sole/default tenant.
    """

    request_id: int
    image: np.ndarray
    flags: int = 0
    tenant: str = ""

    type_name = "request"

    def __eq__(self, other):
        return (
            isinstance(other, Request)
            and self.request_id == other.request_id
            and self.flags == other.flags
            and self.tenant == other.tenant
            and _array_equal(np.asarray(self.image), np.asarray(other.image))
        )


@dataclass(frozen=True)
class Ping:
    """Client → server health probe; echoed back as :class:`Pong`."""

    nonce: int

    type_name = "ping"


@dataclass(frozen=True)
class Pong:
    """Server → client echo of a :class:`Ping` nonce."""

    nonce: int

    type_name = "pong"


@dataclass(frozen=True)
class Rejected:
    """Server → client: admission refused (terminal; the 503 frame)."""

    request_id: int
    code: int
    detail: str = ""

    type_name = "rejected"

    @property
    def reason(self) -> str:
        return REJECT_NAMES.get(self.code, f"code_{self.code}")


@dataclass(frozen=True)
class Decision:
    """Server → client: the cascade's answer for one request (terminal)."""

    request_id: int
    prediction: int
    bnn_prediction: int
    source: str               # "bnn" | "host" | "degraded" | ladder stage name
    confidence: float
    latency_seconds: float

    type_name = "decision"


@dataclass(frozen=True, eq=False)
class Logits:
    """A request id and a confidence vector.

    No server sends it since minor 3 (``DECISION`` already carries the
    confidence); the type still encodes and decodes so that recorded
    streams and the benchmark's codec timing keep working.
    """

    request_id: int
    values: np.ndarray

    type_name = "logits"

    def __eq__(self, other):
        return (
            isinstance(other, Logits)
            and self.request_id == other.request_id
            and _array_equal(np.asarray(self.values), np.asarray(other.values))
        )


@dataclass(frozen=True)
class Error:
    """Server → client: typed terminal failure for one request.

    ``request_id == 0`` marks connection-scoped errors (e.g. a protocol
    violation detected before any request id could be parsed).
    """

    request_id: int
    code: int
    detail: str = ""

    type_name = "error"

    @property
    def reason(self) -> str:
        return ERROR_NAMES.get(self.code, f"code_{self.code}")


@dataclass(frozen=True)
class Shutdown:
    """Server → client: the frontend is closing this connection."""

    detail: str = ""

    type_name = "shutdown"


# -- encoding -----------------------------------------------------------------
def _utf8(detail: str) -> bytes:
    return detail.encode("utf-8")


def _encode_body(frame) -> tuple[int, bytes]:
    if isinstance(frame, Request):
        suffix = b""
        if frame.tenant:
            tenant = _utf8(frame.tenant)
            if len(tenant) > 255:
                raise ProtocolError(
                    f"tenant name is {len(tenant)} utf-8 bytes (max 255)"
                )
            suffix = struct.pack(">B", len(tenant)) + tenant
        return _T_REQUEST, (
            struct.pack(">IB", frame.request_id, frame.flags)
            + _encode_array(np.asarray(frame.image))
            + suffix
        )
    if isinstance(frame, Ping):
        return _T_PING, struct.pack(">Q", frame.nonce)
    if isinstance(frame, Pong):
        return _T_PONG, struct.pack(">Q", frame.nonce)
    if isinstance(frame, Rejected):
        return _T_REJECTED, (
            struct.pack(">IB", frame.request_id, frame.code) + _utf8(frame.detail)
        )
    if isinstance(frame, Decision):
        source_code = SOURCE_TO_CODE.get(frame.source)
        suffix = b""
        if source_code is None:
            # A ladder rung answered: carry its stage name as the tail.
            if not frame.source:
                raise ProtocolError("decision source must be non-empty")
            source_code = SOURCE_NAMED
            suffix = _utf8(frame.source)
        return _T_DECISION, struct.pack(
            ">IiiBdd",
            frame.request_id,
            frame.prediction,
            frame.bnn_prediction,
            source_code,
            frame.confidence,
            frame.latency_seconds,
        ) + suffix
    if isinstance(frame, Logits):
        return _T_LOGITS, (
            struct.pack(">I", frame.request_id) + _encode_array(np.asarray(frame.values))
        )
    if isinstance(frame, Error):
        return _T_ERROR, (
            struct.pack(">IB", frame.request_id, frame.code) + _utf8(frame.detail)
        )
    if isinstance(frame, Shutdown):
        return _T_SHUTDOWN, _utf8(frame.detail)
    raise ProtocolError(f"cannot encode {type(frame).__name__}")


def encode_frame(frame) -> bytes:
    """Serialize one frame to its complete wire bytes."""
    frame_type, body = _encode_body(frame)
    if len(body) > MAX_FRAME_BODY:
        raise FrameTooLarge(
            f"{frame.type_name} body is {len(body)} bytes (max {MAX_FRAME_BODY})"
        )
    return _HEADER.pack(MAGIC, VERSION, frame_type, len(body)) + body


# -- decoding -----------------------------------------------------------------
def _need(body: bytes, nbytes: int, what: str) -> None:
    if len(body) < nbytes:
        raise CorruptFrame(f"{what}: need {nbytes} bytes, have {len(body)}")


def _decode_request(body: bytes) -> Request:
    _need(body, 5, "request header")
    request_id, flags = struct.unpack_from(">IB", body, 0)
    image, offset = _decode_array(body, 5)
    tenant = ""
    if offset != len(body):
        # Minor-2 tenant suffix: 1-byte utf-8 length + name, nothing after.
        declared = body[offset]
        suffix = body[offset + 1:]
        if len(suffix) != declared:
            raise CorruptFrame(
                f"request has {len(body) - offset} trailing bytes that are "
                f"not a tenant suffix (declares {declared}, has {len(suffix)})"
            )
        try:
            tenant = suffix.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFrame(f"request tenant is not utf-8: {exc}") from None
    return Request(request_id, image, flags, tenant)


def _decode_fixed(fmt: str, body: bytes, what: str) -> tuple:
    size = struct.calcsize(fmt)
    if len(body) != size:
        raise CorruptFrame(f"{what}: need exactly {size} bytes, have {len(body)}")
    return struct.unpack(fmt, body)


def _decode_code_detail(body: bytes, what: str) -> tuple[int, int, str]:
    _need(body, 5, what)
    request_id, code = struct.unpack_from(">IB", body, 0)
    try:
        detail = body[5:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFrame(f"{what} detail is not utf-8: {exc}") from None
    return request_id, code, detail


def _decode_decision(body: bytes) -> Decision:
    fixed = struct.calcsize(">IiiBdd")
    _need(body, fixed, "decision")
    request_id, prediction, bnn_prediction, source_code, confidence, latency = (
        struct.unpack_from(">IiiBdd", body, 0)
    )
    suffix = body[fixed:]
    if source_code == SOURCE_NAMED:
        if not suffix:
            raise CorruptFrame("named decision source is empty")
        try:
            source = suffix.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFrame(f"decision source is not utf-8: {exc}") from None
    else:
        source = CODE_TO_SOURCE.get(source_code)
        if source is None:
            raise CorruptFrame(f"unknown decision source code {source_code}")
        if suffix:
            raise CorruptFrame(
                f"decision: {len(suffix)} unexpected bytes after fixed body"
            )
    return Decision(request_id, prediction, bnn_prediction, source, confidence, latency)


def _decode_logits(body: bytes) -> Logits:
    _need(body, 4, "logits header")
    (request_id,) = struct.unpack_from(">I", body, 0)
    values, offset = _decode_array(body, 4)
    if offset != len(body):
        raise CorruptFrame(f"logits has {len(body) - offset} trailing bytes")
    return Logits(request_id, values)


def _decode_shutdown(body: bytes) -> Shutdown:
    try:
        return Shutdown(body.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CorruptFrame(f"shutdown detail is not utf-8: {exc}") from None


_DECODERS = {
    _T_REQUEST: _decode_request,
    _T_PING: lambda body: Ping(*_decode_fixed(">Q", body, "ping")),
    _T_PONG: lambda body: Pong(*_decode_fixed(">Q", body, "pong")),
    _T_REJECTED: lambda body: Rejected(*_decode_code_detail(body, "rejected")),
    _T_DECISION: _decode_decision,
    _T_LOGITS: _decode_logits,
    _T_ERROR: lambda body: Error(*_decode_code_detail(body, "error")),
    _T_SHUTDOWN: _decode_shutdown,
}


def decode_frame(buf: bytes | bytearray | memoryview, max_body: int = MAX_FRAME_BODY):
    """Decode one frame from the head of *buf*; return ``(frame, consumed)``.

    Raises :class:`TruncatedFrame` when *buf* is a valid but incomplete
    prefix (the incremental decoder treats that as "wait for more
    bytes") and another :class:`ProtocolError` subclass when the bytes
    can never become a valid frame.  Header validation happens before
    body completeness, so an oversize or alien frame is rejected from
    its first 8 bytes.
    """
    buf = bytes(buf) if not isinstance(buf, bytes) else buf
    return _decode_at(buf, 0, max_body)


def _decode_at(buf: bytes, start: int, max_body: int):
    """:func:`decode_frame` on ``buf[start:]`` without copying the tail."""
    available = len(buf) - start
    if available < HEADER_SIZE:
        raise TruncatedFrame(f"incomplete header ({available}/{HEADER_SIZE} bytes)")
    magic, version, frame_type, length = _HEADER.unpack_from(buf, start)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r} (want {MAGIC!r})")
    if version != VERSION:
        raise BadVersion(f"unsupported protocol version {version} (want {VERSION})")
    if frame_type not in _DECODERS:
        raise UnknownFrameType(f"unknown frame type 0x{frame_type:02x}")
    if length > max_body:
        raise FrameTooLarge(f"advertised body {length} bytes exceeds max {max_body}")
    if available < HEADER_SIZE + length:
        raise TruncatedFrame(
            f"incomplete body ({available - HEADER_SIZE}/{length} bytes)"
        )
    body = buf[start + HEADER_SIZE:start + HEADER_SIZE + length]
    return _DECODERS[frame_type](body), HEADER_SIZE + length


class FrameDecoder:
    """Incremental stream reassembler: feed chunks, get whole frames.

    Raises the underlying :class:`ProtocolError` (except
    :class:`TruncatedFrame`, which just means "buffer and wait") as soon
    as the stream can no longer produce a valid frame; after an error
    the decoder is poisoned and every further ``feed`` re-raises, which
    matches the frontend's fail-the-connection semantics.
    """

    def __init__(self, max_body: int = MAX_FRAME_BODY):
        self._buffer = bytearray()
        self._max_body = max_body
        self._error: ProtocolError | None = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list:
        """Append *data*; return every complete frame now available."""
        if self._error is not None:
            raise self._error
        # One snapshot per feed, decoded at offsets; compacted once.
        if self._buffer:
            self._buffer += data
            buf = bytes(self._buffer)
        else:
            buf = bytes(data)
        frames = []
        offset = 0
        try:
            while offset < len(buf):
                try:
                    frame, consumed = _decode_at(buf, offset, self._max_body)
                except TruncatedFrame:
                    break
                except ProtocolError as exc:
                    self._error = exc
                    raise
                offset += consumed
                frames.append(frame)
        finally:
            self._buffer = bytearray(memoryview(buf)[offset:])
        return frames

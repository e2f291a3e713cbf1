"""Network serving layer: wire protocol, socket frontend, shard router.

Everything outside the interpreter reaches the cascade through this
package (ROADMAP's "millions of users" step — until now
:meth:`repro.serve.CascadeServer.submit` was in-process only):

* :mod:`~repro.net.protocol` — length-prefixed binary frames with pure,
  socket-free encode/decode (golden-fixture stable across releases).
* :mod:`~repro.net.frontend` — asyncio TCP frontend with admission
  control (max in-flight, typed ``REJECTED`` shedding) and per-
  connection backpressure around any ``submit()`` backend.
* :mod:`~repro.net.router` — :class:`ShardRouter` fanning traffic over
  N cascade replica processes with round-robin / rendezvous placement,
  ping health checks and breaker-driven failover; books balance
  ``routed + rejected + failed == submitted`` under chaos.
* :mod:`~repro.net.client` — blocking client resolving each request to
  the same :class:`~repro.serve.ServeResult` as the in-process answer,
  bit for bit.
* :mod:`~repro.net.bench` — the ``repro serve-net`` loopback harness.

See ``docs/NETWORK.md`` for the frame layout, the one reply frame per
request (``DECISION``, ``REJECTED`` or ``ERROR``), and the failover
semantics.
"""

from .client import NetClient, WireError, WireRejected, WireShutdown
from .frontend import NetFrontend, NetMetrics, NetMetricsSnapshot
from .protocol import (
    FrameDecoder,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from .router import (
    InProcessReplica,
    NoHealthyReplica,
    ProcessReplica,
    ReplicaFailure,
    RouterMetrics,
    RouterSnapshot,
    ShardRouter,
)

__all__ = [
    # protocol
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "ProtocolError",
    # frontend
    "NetFrontend",
    "NetMetrics",
    "NetMetricsSnapshot",
    # router
    "ShardRouter",
    "InProcessReplica",
    "ProcessReplica",
    "ReplicaFailure",
    "NoHealthyReplica",
    "RouterMetrics",
    "RouterSnapshot",
    # client
    "NetClient",
    "WireRejected",
    "WireError",
    "WireShutdown",
]

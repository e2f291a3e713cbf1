"""Small shared utilities with no repro-internal dependencies.

:mod:`repro.util.hashing` holds the blake2b helpers shared by rendezvous
placement (:mod:`repro.net.router`) and content-addressed cache keying
(:mod:`repro.cache`), and the memo of recent payloads that both use to
skip rehashing a repeat.  :mod:`repro.util.deadline` holds the one
deadline a bounded ``close(timeout)`` shares between its joins.
"""

from .deadline import time_left
from .hashing import PayloadMemo, content_key, rendezvous_order, rendezvous_score

__all__ = ["PayloadMemo", "content_key", "rendezvous_order", "rendezvous_score", "time_left"]

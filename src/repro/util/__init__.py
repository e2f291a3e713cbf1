"""Small shared utilities with no repro-internal dependencies.

Currently one module: :mod:`repro.util.hashing`, the blake2b helpers
shared by rendezvous placement (:mod:`repro.net.router`) and
content-addressed cache keying (:mod:`repro.cache`), and the memo of
recent payloads that both use to skip rehashing a repeat.
"""

from .hashing import PayloadMemo, content_key, rendezvous_order, rendezvous_score

__all__ = ["PayloadMemo", "content_key", "rendezvous_order", "rendezvous_score"]

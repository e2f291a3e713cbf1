"""Worker process entry point for the parallel host-inference engine.

A worker is spawned warm: the model (or host callable) arrives once as a
process argument — under the default ``fork`` start method that is a
zero-copy inheritance of the parent's weights; under ``spawn`` it is one
pickle — and, in model mode, the :class:`repro.nn.InferenceEngine` is
compiled *before* the worker reports ready, so the first real batch never
pays compilation cost.

One duplex pipe per worker carries everything:

======================================  =====================================  ====================
parent -> worker                        worker -> parent                       meaning
======================================  =====================================  ====================
``('run', seq, shape, dtype)`` + bytes  ``('done', seq, n, values, secs)``     process a shard
\\                                      ``('error', seq, tb)``                 shard failed
``('ping', tok)``                       ``('pong', tok)``                      health check
``('stop',)``                           —                                      drain and exit 0
======================================  =====================================  ====================

A ``run`` header is followed by the shard's C-contiguous pixels, written
raw onto the pipe's descriptor with no frame of their own (never a
pickle): the header's shape and dtype fix the byte count, and the worker
reads exactly that many into a fresh array, so what it computes on is
writable and its own.
``values`` — logits (model mode) or int64 labels (callable mode) — come
back pickled inside the ``done`` reply.  A failure inside the user
callable / engine is *contained*: the worker reports ``('error', ...)``
and keeps serving; only process death (crash, kill) loses the worker,
and the parent then crash-replaces it.

Workers emit ``parallel.worker.infer`` spans when a :mod:`repro.obs`
tracer is installed *in the worker process* (by default none is — the
parent re-materializes worker timing from the reported durations
instead, so the trace stays single-process).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing.connection import wait as _conn_wait

import numpy as np

from .. import obs

__all__ = ["worker_main"]


def _build_compute(payload):
    """Resolve the spawn payload into a ``images -> values`` function."""
    mode, target, options = payload
    if mode == "model":
        engine = target.compile_inference(
            dtype=np.dtype(options["dtype"]), micro_batch=options["micro_batch"]
        )
        return engine.predict_scores
    if mode == "callable":
        def compute(images: np.ndarray) -> np.ndarray:
            return np.asarray(target(images)).reshape(len(images)).astype(np.int64)
        return compute
    raise ValueError(f"unknown worker mode {mode!r}")


def worker_main(worker_id: int, conn, payload) -> None:
    """Run the worker loop until ``('stop',)`` or pipe EOF."""
    try:
        compute = _build_compute(payload)
    except BaseException:
        try:
            conn.send(("init_error", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ready", worker_id))

    # Watch the parent's death sentinel alongside the pipe: if the parent
    # is SIGKILLed, sibling workers' forked copies of our pipe keep it
    # from ever reaching EOF, so a blocking recv() would orphan us — and
    # orphans pin the parent's inherited stdout/stderr pipes open,
    # wedging any harness that waits for EOF on them (CI, pytest | tail).
    parent = multiprocessing.parent_process()
    watch = [conn] if parent is None else [conn, parent.sentinel]

    while True:
        try:
            if conn not in _conn_wait(watch):
                break  # parent died with nothing left to read: exit
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone: exit quietly
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "ping":
            conn.send(("pong", msg[1]))
            continue
        if kind == "run":
            _, seq, shape, dtype = msg
            try:
                images = _recv_array(conn, shape, np.dtype(dtype))
            except (EOFError, OSError):
                break  # parent gone mid-shard: exit
            n = shape[0]
            try:
                start = time.perf_counter()
                with obs.trace_span("parallel.worker.infer", worker=worker_id, images=n):
                    values = np.asarray(compute(images))
                seconds = time.perf_counter() - start
                if values.shape[0] != n:
                    raise ValueError(
                        f"compute returned {values.shape[0]} results for {n} images"
                    )
                conn.send(("done", seq, n, values, seconds))
            except BaseException:
                conn.send(("error", seq, traceback.format_exc()))
            continue
        conn.send(("error", -1, f"unknown message {msg!r}"))
    conn.close()


def send_shard(conn, seq: int, shard: np.ndarray) -> None:
    """Send one ``run`` request: the header, then *shard*'s bytes raw.

    The C-contiguous bytes go straight onto *conn*'s descriptor with no
    length prefix and no pickle: the header's shape and dtype fix how
    many bytes the worker reads.
    """
    conn.send(("run", seq, shard.shape, shard.dtype.str))
    view = memoryview(shard.reshape(-1).view(np.uint8))
    fd = conn.fileno()
    while view:
        view = view[os.write(fd, view):]


def _recv_array(conn, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """Read the bytes of one :func:`send_shard` into a fresh writable array."""
    images = np.empty(shape, dtype)
    view, got = memoryview(images.reshape(-1).view(np.uint8)), 0
    fd = conn.fileno()
    while got < len(view):
        n = os.readv(fd, [view[got:]])
        if n == 0:
            raise EOFError("pipe closed mid-shard")
        got += n
    return images

"""One child process behind one duplex pipe.

Every process the package starts — host pool workers
(:mod:`repro.parallel.runner`) and cascade replicas
(:mod:`repro.net.router`) — is a :class:`Child`.  The parent half
spawns it, waits for ``ready`` and resolves one ``Future`` per request
as replies arrive; the child half, :func:`serve`, builds the caller's
handler *in the child* (heavy state is built post-fork) and answers the
pipe.  One message table covers both users:

============================================  ==============================  ===========================
parent -> child                               child -> parent                 meaning
============================================  ==============================  ===========================
—                                             ``('ready', info)``             handler built, serving
—                                             ``('init_error', traceback)``   build raised; child exits
``('request', rid, kind, fields, layout)``    ``('result', rid, value)``      run the handler
\\ + the array's raw bytes when ``layout``    ``('error', rid, detail)``      the handler raised
``('ping', rid)``                             ``('pong', rid, None)``         health check
``('stop',)``                                 —                               run the handler's close, exit
============================================  ==============================  ===========================

``layout`` is ``(shape, dtype.str)`` of the request's array, or
``None``.  The array's C-contiguous bytes follow the header raw on the
pipe's descriptor, with no frame of their own and never a pickle: the
layout fixes the byte count, and the child reads exactly that many into
a fresh array, so what the handler computes on is writable and its own.
Replies are small and pickled.  A handler may return a ``Future``; the
reply then goes out from its done-callback, under the same send lock.

Who reads the replies is the one choice a caller makes.  A replica has
many requests in flight and nobody waiting on them, so a reader thread
resolves its futures.  The host pool keeps one request per worker in
flight and always waits for it, so it passes ``reader_thread=False``
and :meth:`Child.result` reads the reply in the waiting thread: a
reader thread would add a wake-up, and under load a wait for the GIL,
to every shard.

Three rules hold for every child:

* **One terminal state per request.**  Death, :meth:`Child.kill` and
  :meth:`Child.close` fail every pending future with the caller's typed
  error; a handler exception (any ``BaseException``) fails only its own
  request.
* **No orphans.**  The child watches its parent's death sentinel beside
  the pipe: siblings' forked copies of the pipe keep it from reaching
  EOF if the parent is SIGKILLed, and an orphan would pin the parent's
  inherited stdout/stderr open (wedging CI or ``pytest | tail``).
* **Teardown is stop → join → kill.**  ``stop`` lets the handler drain
  (a replica answers what it has in flight); a child that misses the
  join deadline is SIGKILLed.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import Future
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from typing import Callable

import numpy as np

from ..util.deadline import time_left

__all__ = ["Child", "serve"]


class Child:
    """Parent handle of one child process running :func:`serve`.

    *build* runs in the child and returns ``(handle, close, info)``:
    ``handle(kind, *fields, array=None)`` answers one request with a
    value or a ``Future``; ``close`` (or ``None``) runs after ``stop``;
    ``info`` (or ``None``) rides the ``ready`` message and is kept as
    :attr:`info`.  Under ``spawn`` *build* must pickle; *info* always
    must.  *error* turns a failure detail (the handler's traceback,
    ``"process died"``, ``"killed"``, ``"closed"``) into the exception
    every failed future carries.  *daemon* is ``False`` only for a child
    that starts children of its own.  With *reader_thread* ``False``
    replies are read only inside :meth:`result` (see the module docs).
    """

    def __init__(
        self,
        build: Callable,
        *,
        name: str,
        start_method: str,
        error: Callable[[str], BaseException],
        daemon: bool = True,
        reader_thread: bool = True,
        spawn_timeout_s: float = 60.0,
    ):
        self.start_method = start_method
        self._error = error
        ctx = multiprocessing.get_context(start_method)
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=serve, args=(child_conn, build), name=name, daemon=daemon
        )
        self._proc.start()
        child_conn.close()
        self._lock = threading.Lock()       # guards _pending and _dead
        self._send_lock = threading.Lock()  # one message (and its bytes) at a time
        self._read_lock = threading.Lock()  # one reader of the pipe at a time
        self._reader: threading.Thread | None = None
        self._pending: dict[int, Future] = {}
        self._rids = itertools.count(1)
        self._dead: str | None = None       # why new requests are refused
        try:
            if self._conn.poll(spawn_timeout_s):
                reply = self._conn.recv()
            else:
                reply = ("init_error", f"not ready after {spawn_timeout_s} s")
        except (EOFError, OSError):
            reply = ("init_error", "exited before reporting ready")
        if reply[0] != "ready":
            self.kill()
            raise RuntimeError(f"{name} failed to start: {reply[1]}")
        #: What the child's build reported in its ``ready`` message.
        self.info = reply[1]
        if reader_thread:
            self._reader = threading.Thread(target=self._read, name=f"{name}-reader", daemon=True)
            self._reader.start()

    @property
    def pid(self) -> int | None:
        return self._proc.pid

    def alive(self) -> bool:
        return self._dead is None and self._proc.is_alive()

    def request(self, kind: str, *fields, array: np.ndarray | None = None) -> Future:
        """Send one request; the future resolves to the handler's value.

        Raises the typed error at once if the child is dead or the pipe
        breaks mid-send (the child is then killed: a half-sent message
        would desynchronize the stream).
        """
        layout = None
        if array is not None:
            array = np.asarray(array, order="C")
            if array.dtype.hasobject:
                raise TypeError("object arrays cannot cross the pipe")
            layout = (array.shape, array.dtype.str)
        return self._send("request", kind, fields, layout, array=array)

    def result(self, future: Future, timeout: float | None = None):
        """The value of *future*, one of this child's requests.

        Raises ``concurrent.futures.TimeoutError`` after *timeout*
        seconds.  Without a reader thread the caller reads the pipe here
        until *future* is done, resolving any other reply on the way.
        """
        if self._reader is None:
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._read_lock:
                while not future.done() and self._receive(deadline):
                    pass
            timeout = 0
        return future.result(timeout)

    def ping(self, timeout: float = 5.0) -> bool:
        """Round trip through the child's loop; ``False`` if dead or slow."""
        try:
            return self.result(self._send("ping"), timeout) is None
        except Exception:
            return False

    def kill(self) -> None:
        """SIGKILL the child and fail everything it had in flight."""
        self._refuse("killed")
        self._proc.kill()  # a no-op once the child is reaped
        # Reap by pid, not join(): join waits for EOF on a sentinel pipe
        # that the child's own forked children (a replica's host pool
        # workers) hold open for as long as they run.
        end = time.monotonic() + 5.0
        while self._proc.is_alive() and time.monotonic() < end:
            time.sleep(0.001)
        self._fail_pending()
        # A caller reading in result() sees EOF now and lets go.
        if self._reader is None and self._read_lock.acquire(timeout=5.0):
            try:
                self._hang_up()
            finally:
                self._read_lock.release()

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop, join for up to *timeout* in all, then kill (idempotent)."""
        left = time_left(timeout)
        self.stop()
        self._proc.join(left())
        if self._reader is not None and not self._proc.is_alive():
            # Deliver what the child answered before it exited.
            self._reader.join(5.0 if timeout is None else left())
        self.kill()

    def stop(self) -> None:
        """Refuse new requests and ask the child to drain and exit."""
        # A send blocked on a child that stopped reading must not block
        # the teardown that is about to kill that child.
        if self._refuse("closed") and self._send_lock.acquire(timeout=1.0):
            try:
                self._conn.send(("stop",))
            except (OSError, ValueError):
                pass
            finally:
                self._send_lock.release()

    # -- plumbing -------------------------------------------------------------
    def _send(self, tag: str, *body, array=None) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()  # sent requests cannot be cancelled
        with self._lock:
            if self._dead is not None:
                raise self._error(self._dead)
            rid = next(self._rids)
            self._pending[rid] = future
        try:
            with self._send_lock:
                self._conn.send((tag, rid, *body))
                if array is not None:
                    _write_raw(self._conn, array)
        except (OSError, ValueError) as exc:
            self.kill()
            raise self._error(f"pipe broke: {exc!r}") from exc
        return future

    def _read(self) -> None:
        while self._receive(None):
            pass

    def _receive(self, deadline: float | None) -> bool:
        """Resolve one reply; ``False`` at *deadline* or once the pipe is done."""
        try:
            if deadline is not None and not self._conn.poll(max(0.0, deadline - time.monotonic())):
                return False
            kind, rid, value = self._conn.recv()
        except (EOFError, OSError):  # the child is gone
            detail = "process died"
        except Exception as exc:  # an unreadable reply: the stream is lost
            detail = f"unreadable reply: {exc!r}"
        else:
            with self._lock:
                future = self._pending.pop(rid, None)
            if future is None:
                pass  # already failed by kill()
            elif kind == "error":
                future.set_exception(self._error(value))
            else:
                future.set_result(value)
            return True
        self._refuse(detail)
        self._fail_pending()
        self._hang_up()
        return False

    def _hang_up(self) -> None:
        with self._send_lock:  # never under a sender's feet
            self._conn.close()

    def _refuse(self, detail: str) -> bool:
        """Mark the child dead for *detail*; ``True`` if it was alive."""
        with self._lock:
            if self._dead is not None:
                return False
            self._dead = detail
            return True

    def _fail_pending(self) -> None:
        with self._lock:
            stranded = list(self._pending.values())
            self._pending.clear()
        for future in stranded:
            future.set_exception(self._error(self._dead))


def serve(conn, build: Callable) -> None:
    """Child half: build the handler, then answer *conn* until stop or EOF."""
    try:
        handle, close, info = build()
    except BaseException:
        try:
            conn.send(("init_error", traceback.format_exc()))
        finally:
            conn.close()
        return
    send_lock = threading.Lock()

    def reply(tag: str, rid: int, value) -> None:
        try:
            message = ForkingPickler.dumps((tag, rid, value))
        except Exception:  # the value does not pickle: fail only its request
            message = ForkingPickler.dumps(("error", rid, traceback.format_exc()))
        with send_lock:
            try:
                conn.send_bytes(message)
            except OSError:
                pass  # the parent is gone

    def reply_when_done(rid: int, future: Future) -> None:
        exc = future.exception()
        if exc is None:
            reply("result", rid, future.result())
        else:
            reply("error", rid, repr(exc))

    conn.send(("ready", info))
    parent = multiprocessing.parent_process()
    watch = [conn] if parent is None else [conn, parent.sentinel]
    try:
        while conn in _conn_wait(watch):  # else the parent died with nothing to read
            tag, *body = conn.recv()
            if tag == "stop":
                break
            if tag == "ping":
                reply("pong", body[0], None)
                continue
            rid, kind, fields, layout = body
            array = None if layout is None else _read_raw(conn, *layout)
            try:
                value = handle(kind, *fields, array=array)
            except BaseException:  # even SystemExit fails only its request
                reply("error", rid, traceback.format_exc())
                continue
            if isinstance(value, Future):
                value.add_done_callback(functools.partial(reply_when_done, rid))
            else:
                reply("result", rid, value)
    except (EOFError, OSError):
        pass  # the parent is gone
    finally:
        if close is not None:
            close()
        conn.close()


def _write_raw(conn, array: np.ndarray) -> None:
    """Write a C-contiguous *array*'s bytes straight onto *conn*'s descriptor."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    fd = conn.fileno()
    while view:
        view = view[os.write(fd, view):]


def _read_raw(conn, shape: tuple, dtype: str) -> np.ndarray:
    """Read the bytes of one :func:`_write_raw` into a fresh writable array."""
    array = np.empty(shape, np.dtype(dtype))
    view, got = memoryview(array.reshape(-1).view(np.uint8)), 0
    fd = conn.fileno()
    while got < len(view):
        n = os.readv(fd, [view[got:]])
        if n == 0:
            raise EOFError("pipe closed mid-array")
        got += n
    return array

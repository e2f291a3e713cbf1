"""One compiled runtime under every engine: :class:`Program`.

Both sides of the cascade compile a trained network into the same kind of
object.  :meth:`repro.bnn.FoldedBNN.compile_inference` returns a
:class:`repro.bnn.CompiledBNNPlan` (the binarised CNV), and
:meth:`repro.nn.Sequential.compile_inference` / ``compile_quantized``
return a :class:`repro.nn.InferenceEngine` / :class:`repro.nn.QuantizedEngine`
(the float and post-training-quantized host models).  Each is a
:class:`Program` whose ``_compile`` runs a *stage compiler*: one method per
stage kind that allocates the stage's buffers and returns ``(build,
state)``.  As FINN fixes each engine's schedule at synthesis, the Program
fixes it at compile time:

* **One compile per input geometry.**  The first call with a new
  (C, H, W) runs the stage compiler over it; ``state`` is what flows into
  the next stage.  Every buffer is allocated there, once, sized for
  ``micro_batch``: stage outputs, zero-bordered padded inputs (the border
  is written once and never again), plus two flat scratch slots sized for
  the largest temporary any stage reserved, so each stage's temporaries
  (im2col matrices, Winograd slabs) start in memory its predecessor left
  in cache.  A stage its input cannot feed raises ``ValueError``, and the
  Program stays as it was.
* **One flat call list per chunk size.**  The first chunk of n images
  calls every stage's ``build(n, x)``: the numpy calls that run the stage
  on the n-image view ``x`` (``functools.partial`` over views of the
  buffers: every ``as_strided`` window, ``[:n]`` slice and reshape is
  resolved here, not per call) and the view they write.  Every later
  n-image chunk replays that list.  Only the first call, the first
  stage's input copy, takes the chunk.  Builds allocate nothing, so the
  buffer set never grows, whatever batch sizes arrive.
* **The chunk loop** runs ``micro_batch``-image chunks (remainder last)
  and copies each chunk's result out of the reused buffers.  An empty
  batch compiles its geometry and returns ``(0, *out.shape[1:])``.
* **Tile threads.**  A stage compiler may map per-slot call lists over
  the Program's thread pool (``threads=``, capped at
  :func:`available_cpus`); only the BNN plan's binary convs do.

One caller at a time: the buffers are the Program's, so concurrent calls
queue on its lock.  A Program pickles without its lock, thread pool,
buffers and call lists (an unpickled ``partial`` over a buffer view would
write into a private copy); the copy compiles again on first use.

Tracing: ``<prefix>.<runtime>.forward`` per call, inside it one
``<prefix>.<label>`` span per stage and chunk, and
``<prefix>.<runtime>.compile`` once per input geometry and once per chunk
size (with a ``chunk`` arg) when that size's call list is built.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import NamedTuple

import numpy as np

from .. import obs

__all__ = ["Program", "Compiler", "Stage", "available_cpus"]

#: Per-geometry state a pickled Program leaves behind.
_RUNTIME = ("_lock", "_executor", "_geometry", "_builds", "stages", "buffers", "programs")


def available_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the platform
    has one (a pinned process must not size thread pools by the machine),
    else ``os.cpu_count()``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return max(1, len(getaffinity(0)))
    return os.cpu_count() or 1


def _run_calls(calls) -> None:
    for call in calls:
        call()


def _run_slots(executor: ThreadPoolExecutor, slots) -> None:
    """A stage's per-slot call lists, one thread each."""
    # list() reads every result, so a worker's exception surfaces here.
    list(executor.map(_run_calls, slots))


class Stage(NamedTuple):
    """A compiled stage: its span name and the stage compiler's method."""

    name: str
    kind: str


class Compiler:
    """One compile for an input geometry: the buffers of its stages.

    A subclass's stage methods allocate with :meth:`buffer`, reserve
    temporaries with :meth:`scratch` and return ``(build, state)``.
    ``build(n, x)`` returns the stage's calls for an n-image chunk whose
    input is the view ``x`` (``None`` for the first stage, whose first
    call takes the chunk) and the view those calls write; it reads
    temporaries with :meth:`temp`.  ``parallel(slots)`` turns per-slot
    call lists into one call that maps them over the Program's threads.
    """

    def __init__(self, program: "Program", dtype):
        self.micro_batch = program.micro_batch
        self.dtype = np.dtype(dtype)
        self.threads = program._tile_threads()
        self.parallel = program._parallel
        self.buffers: list[np.ndarray] = []
        self._reserved = [0, 0]
        self._slots: list = [None, None]

    def buffer(self, shape: tuple, dtype=None, zero: bool = False) -> np.ndarray:
        """A buffer of this compile; *zero* buffers are cleared once, here."""
        buf = (np.zeros if zero else np.empty)(shape, dtype=self.dtype if dtype is None else dtype)
        self.buffers.append(buf)
        return buf

    def scratch(self, slot: int, size: int) -> None:
        """Reserve *size* elements of flat scratch slot 0 or 1 (at ``micro_batch``)."""
        self._reserved[slot] = max(self._reserved[slot], size)

    def temp(self, slot: int, shape: tuple) -> np.ndarray:
        """A build's temporary: the slot's leading ``prod(shape)`` elements,
        reshaped, so any layout is contiguous at every chunk size.  A
        stage holds at most one live temporary per slot."""
        return self._slots[slot][: math.prod(shape)].reshape(shape)

    def finish(self) -> None:
        """Allocate the scratch slots, once every stage has reserved."""
        self._slots = [self.buffer((size,)) if size else None for size in self._reserved]


class Program:
    """The compiled runtime of one engine (see the module docstring).

    A subclass sets ``prefix`` (its span namespace) before this
    constructor runs and implements ``_compile(geometry)``, returning
    ``([(label, kind, [build, ...]), ...], compiler)``: each stage's
    builds run in order on the chunk.

    Introspection: ``stages`` (:class:`Stage` per compiled stage),
    ``buffers`` (the one buffer set, scratch slots included) and
    ``programs`` (chunk size -> ``(load, [(span, calls, out), ...], out)``:
    ``load(chunk)`` is the first stage's first call, which runs before
    that stage's ``calls``).
    """

    prefix = "program"

    def __init__(self, micro_batch: int, runtime: str, threads: int | None = None):
        if micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        if threads is not None and threads < 1:
            raise ValueError(f"threads must be None or >= 1, got {threads}")
        self.micro_batch = int(micro_batch)
        self.threads = threads
        self._forward_span = f"{self.prefix}.{runtime}.forward"
        self._compile_span = f"{self.prefix}.{runtime}.compile"
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()  # held while a call uses the buffers
        self._executor: ThreadPoolExecutor | None = None
        self._geometry: tuple | None = None
        self._builds: list = []  # (span name, [build, ...]) per stage
        self.stages: list[Stage] = []
        self.buffers: list[np.ndarray] = []
        self.programs: dict = {}

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _RUNTIME}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset()

    # -- compile time ---------------------------------------------------------

    def _compile(self, geometry: tuple) -> tuple[list, Compiler]:
        raise NotImplementedError

    def _tile_threads(self) -> int:
        """``threads=`` capped at the available CPUs, else serial."""
        if self.threads is None:
            return 1
        return min(self.threads, available_cpus())

    def _parallel(self, slots: list) -> partial:
        """One call that runs each slot's calls on its own thread."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._tile_threads(), thread_name_prefix=f"repro-{self.prefix}"
            )
        return partial(_run_slots, self._executor, [tuple(calls) for calls in slots])

    def _commit(self, geometry: tuple) -> None:
        """Compile for a (C, H, W) input; commit only once every stage has."""
        with obs.trace_span(self._compile_span, category=self.prefix):
            stages, compiler = self._compile(geometry)
            compiler.finish()
        names = [f"{self.prefix}.{label}" for label, _, _ in stages]
        self._builds = [(name, builds) for name, (_, _, builds) in zip(names, stages)]
        self.stages = [Stage(name, kind) for name, (_, kind, _) in zip(names, stages)]
        self.buffers, self.programs, self._geometry = compiler.buffers, {}, geometry

    def _program(self, n: int) -> tuple:
        """Build and keep the calls that run an n-image chunk."""
        with obs.trace_span(self._compile_span, category=self.prefix, chunk=n):
            steps, x = [], None
            for span, builds in self._builds:
                calls: list = []
                for build in builds:
                    more, x = build(n, x)
                    calls += more
                steps.append((span, calls, x))
            program = steps[0][1].pop(0), steps, x
        self.programs[n] = program
        return program

    # -- runtime --------------------------------------------------------------

    def _run_chunk(self, chunk: np.ndarray) -> np.ndarray:
        load, steps, out = self.programs.get(chunk.shape[0]) or self._program(chunk.shape[0])
        for i, (span, calls, _) in enumerate(steps):
            with obs.trace_span(span, category=self.prefix):
                if not i:
                    load(chunk)
                for call in calls:
                    call()
        return out

    @staticmethod
    def _batch(images) -> np.ndarray:
        """NCHW images; one (C, H, W) image is a batch of one."""
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4:
            raise ValueError(f"expected NCHW images, got shape {images.shape}")
        return images

    def _forward(self, images: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a checked batch; the caller holds the lock."""
        n = images.shape[0]
        with obs.trace_span(
            self._forward_span, category=self.prefix, images=n, micro_batch=self.micro_batch
        ):
            if self._geometry != images.shape[1:]:
                self._commit(images.shape[1:])
            if not n:
                _, _, out = self.programs.get(1) or self._program(1)
                return np.empty((0,) + out.shape[1:], out.dtype)
            result = None
            for start in range(0, n, self.micro_batch):
                out = self._run_chunk(images[start : start + self.micro_batch])
                if result is None:
                    result = np.empty((n,) + out.shape[1:], out.dtype)
                # Copy out of the reused buffer before the next chunk overwrites it.
                result[start : start + out.shape[0]] = out
        return result

    def forward(self, images) -> np.ndarray:
        """The network's output for an NCHW batch, ``micro_batch`` images at a time."""
        images = self._batch(images)
        with self._lock:
            return self._forward(images)

    def __call__(self, images) -> np.ndarray:
        return self.forward(images)

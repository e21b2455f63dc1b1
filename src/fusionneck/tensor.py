"""Rank-4 tensors and differentiable primitives on a recorded tape.

Every operation is a pure function: it reads its inputs, allocates a fresh
output, and — when handed a ``Tape`` — records a closure that propagates
gradients from the output back to the inputs.  ``Tape.backward`` replays the
closures in reverse execution order, accumulating gradients on every value
that influenced the loss: a value's first gradient is stored as a copy of the
incoming array (or, when the rule allocated that array for this value alone,
as the array itself), later ones are added into it.  Each closure is dropped
once it has run, so a tape replays once.  Passing ``tape=None`` runs the
forward math alone, which is what the finite-difference side of
``grad_check`` uses.

A ``Value`` keeps its gradient in a small ``GradCell`` behind its ``grad``
property, made the first time a rule is recorded for it.  A closure holds
the arrays its rule reads and the cells it reads or writes, never a whole
``Value``: an operation's output, or an input that a rule only adds a
gradient into, is freed as soon as the forward drops it.

``fork_join`` runs two independent sub-computations on two threads.  Given a
tape, each runs on a child tape of the caller's tape type, and the caller's
tape gets one entry whose backward replays both child tapes on two threads
again; without one, the two run tape-less.  Every lane-sized neck forward,
taped or not, runs the finest level here and the whole coarse path, headed
by the parameter draw of ``neck.init_and_forward``, on the new thread.

Importing this module pins OpenBLAS to one thread for the whole process, so
the lanes own the second CPU.  After any threaded product, OpenBLAS's idle
worker spins on a CPU for about 135 ms: a process that ran one (256, 16) by
(16, 256) product and then slept 100 ms had used 100 ms of CPU, and 0.1 ms
with the pin.  A spinner beside two lanes takes the CPU one of them needs.
The pin also holds for the caller's own NumPy products, on any thread: they
run on one thread after ``import fusionneck``, as the library's own products
outside the lanes do (a tiny neck's forward, say, runs in sequence).

``grad_check`` splits its finite-difference sweep across forked worker
processes on a Linux host with more than one usable CPU, so the function it
checks must be a pure function of its params: side effects of a worker's
evaluations, such as call counters or tracer spans, do not reach the caller.

Values are float64 throughout and treated as immutable once created;
operations never write to their inputs.  Broadcasting is deliberately narrow:
the second operand of ``add`` or ``mul`` may have any axis collapsed to 1
(per-channel gates of shape (B, C, 1, 1) and per-pixel gates of shape
(B, 1, H, W) are the two patterns actually used).

Fresh outputs mean many short-lived arrays: a default two-image forward
allocates and frees about 20 MB of temporaries.  glibc hands every freed
block above its mmap or trim threshold back to the kernel, so the next array
of that size faults its pages in again: about 5.5k minor faults per forward
(2.9k of them in ``conv2d``, 0.9k in ``mhsa_forward`` while it still built
the whole (B, heads, HW, HW) attention; it now holds one block of rows at a
time) at about 3.3 µs each on a 2-CPU VM, some 18 ms of an 82 ms forward,
all measured before this policy was set.  Importing this module
therefore pins glibc's ``M_MMAP_THRESHOLD`` at 32 MiB (the ceiling its own
sliding threshold reaches on 64-bit) and ``M_TRIM_THRESHOLD`` at 64 MiB (the
same 2:1 ratio), through ``mallopt``.  This holds for the whole host
process: freed memory stays in the heap until 64 MiB sits free at its top,
and only blocks of 32 MiB or more are still mapped, and unmapped, on their
own.  Under any other C library, or if glibc refuses the first setting,
``malloc`` is left as it was.
"""

from __future__ import annotations

import contextvars
import copy
import ctypes
import functools
import math
import os
import pickle
import platform
import signal
import sys
import threading
import time
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>

T1 = TypeVar("T1")
T2 = TypeVar("T2")


def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds at 32 and 64 MiB (see above)."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 when it refuses a value; then keep glibc's defaults
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory()


# OpenBLAS's thread-count setter and getter, by the names its builds export
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _blas_threads() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """The loaded OpenBLAS's (set, get) thread-count functions, looked up once; None without them.

    The library is found among the process's mapped files, as a shared
    object with "blas" in its path (Linux only).
    """
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREAD_FUNCTIONS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                return setter, getter
    return None


def _one_blas_thread() -> None:
    """Pin OpenBLAS to one thread for the whole process (see above); without its setter, change nothing."""
    threads = _blas_threads()
    if threads is not None:
        threads[0](1)


_one_blas_thread()


class Tape:
    """Records backward closures in execution order, and replays them once.

    ``len(tape)`` counts the closures recorded, those of ``fork_join``'s
    child tapes included, also after ``backward``.
    """

    def __init__(self) -> None:
        self._records: list[Callable[[], None] | None] = []
        self._closures = 0
        self._replayed = False

    def record(self, fn: Callable[[], None]) -> None:
        self._records.append(fn)
        self._closures += 1

    def __len__(self) -> int:
        return self._closures

    def _child(self) -> "Tape":
        """An empty tape of this tape's own type that shares the rest of its state (a tracer, say)."""
        child = copy.copy(self)
        Tape.__init__(child)
        return child

    def backward(self) -> None:
        """Replay all recorded closures in reverse execution order, dropping each once it has run.

        The arrays a closure captured are freed as soon as its rule has run,
        not when the tape is dropped, so a train step's memory falls as its
        backward runs.  The closures are gone afterwards: a second
        ``backward`` on the same tape raises ``ContractError``.
        """
        if self._replayed:
            raise ContractError("Tape.backward: a tape replays once, and this one has already run")
        self._replayed = True
        records = self._records
        for i in reversed(range(len(records))):
            fn, records[i] = records[i], None
            fn()


class GradCell:
    """The accumulated gradient of one ``Value``: what a backward rule holds instead of the value."""

    __slots__ = ("grad",)

    def __init__(self) -> None:
        self.grad: np.ndarray | None = None


class Value:
    """A dense float64 array plus an optional accumulated-gradient buffer.

    The gradient lives in a ``GradCell``, made on first use: a tape-less
    forward makes none.
    """

    __slots__ = ("data", "_cell")

    def __init__(self, data) -> None:
        # asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would not)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self._cell: GradCell | None = None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._cell is None else self._cell.grad

    @grad.setter
    def grad(self, grad: np.ndarray | None) -> None:
        self.cell().grad = grad

    def cell(self) -> GradCell:
        """This value's gradient cell, made on first call."""
        if self._cell is None:
            self._cell = GradCell()
        return self._cell

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self._cell is not None:
            self._cell.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shape={self.shape})"


class Tensor4(Value):
    """(batch, channel, height, width) tensor, row-major float64."""

    def __init__(self, data) -> None:
        # Value.__init__ inlined: every primitive builds its output here
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self._cell = None
        if self.data.ndim != 4:
            raise ShapeError(f"Tensor4 requires 4 axes, got shape {self.data.shape}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        b, c, h, w = self.data.shape
        return b, c, h, w

    @classmethod
    def zeros(cls, b: int, c: int, h: int, w: int) -> "Tensor4":
        return cls(np.zeros((b, c, h, w)))


class Rng:
    """Deterministic random source backed by the Philox counter-based generator.

    A seed plus a split path fully determine the stream, so identical seeds
    reproduce identical draws on any platform.  ``split`` derives an
    independent child stream without consuming state from the parent, which
    keeps independent subsystems (parameter init, synthetic inputs, test
    scenes) decoupled from each other's draw order.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        if self.seed < 0:
            raise ContractError(f"Rng seed must be >= 0, got {self.seed}")
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self._path))
        )

    def split(self, index: int) -> "Rng":
        """Independent child stream identified by ``index``."""
        if index < 0:
            raise ContractError(f"Rng split index must be >= 0, got {index}")
        return Rng(self.seed, self._path + (index,))

    def normal(self, shape, sigma: float = 1.0) -> np.ndarray:
        return self.fill_normal(np.empty(shape), sigma)

    def fill_normal(self, out: np.ndarray, sigma: float = 1.0) -> np.ndarray:
        """``normal(out.shape, sigma)``, bit for bit, drawn into ``out`` (C-contiguous float64) and returned."""
        self._gen.standard_normal(out=out)
        with np.errstate(over="ignore"):  # a sigma near the float limit gives inf, which callers check
            out *= float(sigma)  # in place: no second array the size of every parameter tensor
        return out

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))


def _accum(target: GradCell | Value, grad: np.ndarray) -> None:
    """Add ``grad`` into ``target.grad``; the first gradient is stored as a fresh copy.

    ``target`` is a value's gradient cell, as rules pass it, or the value
    itself.  Never the passed array itself: ``add`` hands one gradient to
    both operands, and some rules pass views of the output's gradient or
    read-only broadcast views.  A rule that built the array for this target
    alone calls ``_accum_own``.
    """
    if target.grad is None:
        target.grad = np.array(grad, dtype=np.float64, order="C")
    else:
        target.grad += grad


def _accum_own(target: GradCell | Value, grad: np.ndarray) -> None:
    """``_accum`` for a gradient the calling rule allocated and hands to ``target`` alone.

    ``grad`` must be a C-contiguous float64 array that no other cell and no
    output gradient shares memory with.  A first gradient is then kept as it
    is, without ``_accum``'s copy; later ones are added in the same way.
    """
    if target.grad is None:
        target.grad = grad
    else:
        target.grad += grad


def _gate_broadcastable(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> bool:
    return len(a_shape) == len(b_shape) and all(
        bd == ad or bd == 1 for ad, bd in zip(a_shape, b_shape)
    )


def _reduce_to(shape: tuple[int, ...], grad: np.ndarray) -> np.ndarray:
    axes = tuple(i for i, (d, g) in enumerate(zip(shape, grad.shape)) if d == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


def _check_binary(op: str, a: Value, b: Value) -> None:
    if type(a) is type(b) and a.data.shape == b.data.shape:
        return
    if type(a) is not type(b):
        raise ShapeError(f"{op}: mixed operand types {type(a).__name__}/{type(b).__name__}")
    if isinstance(a, Tensor4) and _gate_broadcastable(a.shape, b.shape):
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


def add(a: Value, b: Value, tape: Tape | None = None) -> Value:
    """Elementwise a + b; b may be a broadcastable gate (axes of size 1)."""
    _check_binary("add", a, b)
    out = type(a)(a.data + b.data)
    if tape is not None:
        ga, gb, gout, b_shape = a.cell(), b.cell(), out.cell(), b.data.shape

        def backward() -> None:
            g = gout.grad
            if g is None:
                return
            _accum(ga, g)
            _accum(gb, _reduce_to(b_shape, g))
        tape.record(backward)
    return out


def mul(a: Value, b: Value, tape: Tape | None = None) -> Value:
    """Elementwise a * b; b may be a broadcastable gate."""
    _check_binary("mul", a, b)
    a_data, b_data = a.data, b.data
    out = type(a)(a_data * b_data)
    if tape is not None:
        ga, gb, gout = a.cell(), b.cell(), out.cell()

        def backward() -> None:
            g = gout.grad
            if g is None:
                return
            _accum_own(ga, g * b_data)
            _accum(gb, _reduce_to(b_data.shape, g * a_data))
        tape.record(backward)
    return out


def logistic(v: Value, tape: Tape | None = None) -> Value:
    """Numerically stable logistic squashing into (0, 1)."""
    x = v.data
    e = np.exp(-np.abs(x))  # never overflows; equals exp(-x) for x >= 0 and exp(x) below
    y = np.where(x >= 0, 1.0, e)  # 1/(1+e) for x >= 0, e/(1+e) below
    y /= 1.0 + e
    out = type(v)(y)
    if tape is not None:
        gv, gout = v.cell(), out.cell()

        def backward() -> None:
            if gout.grad is not None:
                _accum_own(gv, gout.grad * y * (1.0 - y))
        tape.record(backward)
    return out


def global_avg_pool(x: Tensor4, tape: Tape | None = None) -> Tensor4:
    """Mean over the spatial plane per (batch, channel) -> (B, C, 1, 1)."""
    b, c, h, w = x.dims
    pooled = x.data.sum(axis=(2, 3), keepdims=True)
    pooled /= h * w  # what np.mean computes, without its Python wrapper
    out = Tensor4(pooled)
    if tape is not None:
        gx, gout, x_shape = x.cell(), out.cell(), x.data.shape

        def backward() -> None:
            g = gout.grad
            if g is None:
                return
            _accum(gx, np.broadcast_to(g / (h * w), x_shape))
        tape.record(backward)
    return out


def concat_channels(parts: Sequence[Tensor4], tape: Tape | None = None) -> Tensor4:
    """Concatenate along the channel axis; parts must share B, H, W."""
    if not parts:
        raise ShapeError("concat_channels: empty part list")
    b, _, h, w = parts[0].dims
    for i, p in enumerate(parts):
        pb, _, ph, pw = p.dims
        if (pb, ph, pw) != (b, h, w):
            raise ShapeError(
                f"concat_channels: part {i} has (B,H,W)=({pb},{ph},{pw}), expected ({b},{h},{w})"
            )
    out = Tensor4(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None:
        offsets = np.cumsum([0] + [p.dims[1] for p in parts])
        cells, gout = [p.cell() for p in parts], out.cell()

        def backward() -> None:
            g = gout.grad
            if g is None:
                return
            for cell, lo, hi in zip(cells, offsets[:-1], offsets[1:]):
                _accum(cell, g[:, lo:hi])
        tape.record(backward)
    return out


def sum_all(v: Value, tape: Tape | None = None) -> Value:
    """Sum of all elements as a scalar Value."""
    out = Value(v.data.sum())
    if tape is not None:
        gv, gout, v_shape = v.cell(), out.cell(), v.data.shape

        def backward() -> None:
            g = gout.grad
            if g is None:
                return
            _accum(gv, np.broadcast_to(g, v_shape))
        tape.record(backward)
    return out


def weighted_sum(v: Value, weights: np.ndarray, tape: Tape | None = None) -> Value:
    """Dot with a fixed weight array; the usual well-conditioned test loss."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != v.shape:
        raise ShapeError(f"weighted_sum: weights {weights.shape} vs value {v.shape}")
    out = Value((v.data * weights).sum())
    if tape is not None:
        gv, gout = v.cell(), out.cell()

        def backward() -> None:
            if gout.grad is not None:
                _accum(gv, gout.grad * weights)
        tape.record(backward)
    return out


def fork_join(
    first: Callable[[Tape | None], T1], second: Callable[[Tape | None], T2], tape: Tape | None
) -> tuple[T1, T2]:
    """``(first(t1), second(t2))`` computed on two threads, t1 and t2 child tapes of ``tape``'s type.

    The two functions must be independent: neither may read what the other
    makes, nor may both record rules that write one gradient cell, so the
    order in which the lanes interleave changes no bit.  ``tape`` gets one
    entry that replays t1 and t2 on two threads again; ``len(tape)`` counts
    their closures.  With ``tape`` None, both run tape-less (t1 and t2 are
    None) and nothing is recorded.  Each lane runs in a copy of the caller's
    context (NumPy's ``errstate`` included), an exception is raised only once
    both lanes have ended, ``first``'s before ``second``'s as a run in
    sequence would raise them, and no thread outlives the call.  Without two
    usable CPUs or an OpenBLAS pinned to one thread (see ``_lanes``), the
    functions run one after the other on ``tape`` itself.  A neck forward
    passes the finest level as ``first``, the coarse path as ``second``.
    """
    if not _lanes():
        return first(tape), second(tape)
    if tape is None:
        return _concurrently(functools.partial(first, None), functools.partial(second, None))
    t1, t2 = tape._child(), tape._child()
    results = _concurrently(functools.partial(first, t1), functools.partial(second, t2))

    def backward() -> None:
        _concurrently(t1.backward, t2.backward)

    # appended as it is: the child tapes hold the closures a tape subclass wrapped
    tape._records.append(backward)
    tape._closures += len(t1) + len(t2)
    return results


def _lanes() -> bool:
    """Whether ``fork_join`` runs two threads: two usable CPUs and an OpenBLAS pinned to one thread."""
    return _usable_cpus() >= 2 and _blas_threads() is not None


def _concurrently(first: Callable[[], T1], second: Callable[[], T2]) -> tuple[T1, T2]:
    """``first()`` on this thread while ``second()`` runs on a new one.

    The new thread is joined before anything is returned or raised;
    ``first``'s exception wins.
    """
    outcome: dict = {}
    context = contextvars.copy_context()

    def lane() -> None:
        try:
            outcome["value"] = context.run(second)
        except BaseException as exc:  # raised in the caller once both lanes have ended
            outcome["error"] = exc

    thread = threading.Thread(target=lane, name="fusionneck-lane")
    thread.start()
    try:
        value = first()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome.pop("error")
    return value, outcome["value"]


def grad_check(
    f: Callable[[Tape | None], Value],
    params: Sequence[Value],
    epsilon: float = 1e-6,
) -> float:
    """Compare tape gradients of a scalar function against central differences.

    ``f`` receives a tape (or None for plain evaluation) and must return a
    scalar Value computed from ``params``.  Every element of every parameter
    is perturbed in turn to build the central-difference gradient
    (f(p+ε) − f(p−ε)) / 2ε.  The error for a parameter tensor is the relative
    L2 norm ‖analytic − numeric‖ / ‖analytic‖, falling back to the absolute
    norm difference when the analytic gradient norm is below 1e-8 (e.g. for
    constant functions); the maximum over parameters is returned.  A NaN
    error (a NaN in either gradient) is kept as the maximum, so it fails any
    tolerance.  Params holding no elements would compare nothing and are
    refused.  Parameter data is perturbed in place and restored, also when
    ``f`` raises, so the caller's values are unchanged on return.

    ``f`` must be a pure function of ``params``: the finite-difference sweep
    may be split across forked worker processes (see ``_sweep_processes``),
    and side effects of a worker's evaluations, such as call counters or
    tracer spans, do not reach the caller.  The result is bit-identical to a
    sweep in one process.  The first failure in sweep order is raised: an
    exception from ``f`` in a worker arrives with its type and message, and a
    worker that dies without a result raises ``EvaluationError``.
    """
    if epsilon <= 0:
        raise ContractError("grad_check: epsilon must be positive")
    flats = [p.data.reshape(-1) for p in params]  # views: Value data is C-contiguous
    sizes = [flat.size for flat in flats]
    total = sum(sizes)
    if total == 0:
        raise ContractError("grad_check: params hold no elements, so nothing would be compared")
    for p in params:
        p.zero_grad()
    tape = Tape()
    loss = f(tape)
    if loss.data.shape != ():
        raise ContractError(f"grad_check: f must return a scalar, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise EvaluationError("grad_check: non-finite loss")
    loss.grad = np.ones_like(loss.data)
    tape.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def evaluate() -> float:
        value = f(None)
        if not np.isfinite(value.data):
            raise EvaluationError("grad_check: non-finite loss during finite differencing")
        return float(value.data)

    def sweep(lo: int, hi: int) -> np.ndarray:
        """Central differences of elements lo..hi-1 of all params, flattened in order."""
        numeric = np.empty(hi - lo)
        j, start = 0, 0
        for flat in flats:
            for i in range(max(lo - start, 0), min(hi - start, flat.size)):
                saved = flat[i]
                try:
                    flat[i] = saved + epsilon
                    f_plus = evaluate()
                    flat[i] = saved - epsilon
                    f_minus = evaluate()
                finally:
                    flat[i] = saved
                numeric[j] = (f_plus - f_minus) / (2.0 * epsilon)
                j += 1
            start += flat.size
        return numeric

    begin = time.perf_counter()
    first = sweep(0, 1)  # its time predicts the rest of the sweep
    processes = _sweep_processes((time.perf_counter() - begin) * (total - 1))
    numeric = np.concatenate([first, _split_sweep(sweep, 1, total, processes)])

    worst, start = 0.0, 0
    for grads, size in zip(analytic, sizes):
        diff = float(np.linalg.norm(grads.reshape(-1) - numeric[start:start + size]))
        norm = float(np.linalg.norm(grads))
        err = diff / norm if norm >= 1e-8 else diff
        worst = _worse(worst, err)
        start += size
    return worst


# A sweep predicted to take less than this runs in the calling process: a
# fork, its copy-on-write faults and the reaping cost 5-10 ms on a 2-CPU VM.
_SPLIT_MIN_S = 0.1


def _usable_cpus() -> int:
    """The CPUs this process may run on, on Linux; 1 elsewhere.

    Shared by the sweep split and ``fork_join``'s lanes, so both decide
    alike.  Elsewhere neither runs: macOS's Accelerate and libdispatch are
    not fork-safe, and the OpenBLAS lookup reads ``/proc``.
    """
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def _sweep_processes(predicted_s: float) -> int:
    """Processes to share a finite-difference sweep predicted to take ``predicted_s``.

    Every usable CPU (``_usable_cpus``); one for a short sweep.
    """
    if predicted_s < _SPLIT_MIN_S:
        return 1
    return _usable_cpus()


def _split_sweep(sweep: Callable[[int, int], np.ndarray], lo: int, hi: int, processes: int) -> np.ndarray:
    """``sweep(lo, hi)``, split into contiguous shares over ``processes`` processes.

    The caller sweeps the first share while each other share runs in a forked
    worker, which writes its values, or its pickled exception, to a pipe.
    Every pipe is read to the end and every worker reaped before the shares
    are joined in order; on any exception or interrupt, the workers still
    running are killed and reaped.
    """
    processes = min(processes, hi - lo)
    if processes <= 1:
        return sweep(lo, hi)
    bounds = [lo + (hi - lo) * k // processes for k in range(processes + 1)]
    workers: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for a, b in zip(bounds[1:-1], bounds[2:]):
            pid, read_fd = _fork_share(sweep, a, b)
            workers[pid] = read_fd
        shares = [sweep(bounds[0], bounds[1])]
        payloads = []
        for read_fd in workers.values():
            with open(read_fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
        statuses = []
        for pid in list(workers):
            statuses.append(os.waitpid(pid, 0)[1])
            os.close(workers.pop(pid))
    finally:
        for pid, read_fd in workers.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for payload, status, a, b in zip(payloads, statuses, bounds[1:-1], bounds[2:]):
        shares.append(_share_values(payload, status, a, b))
    return np.concatenate(shares)


def _fork_share(sweep: Callable[[int, int], np.ndarray], lo: int, hi: int) -> tuple[int, int]:
    """Fork a worker that writes ``sweep(lo, hi)`` to a pipe; return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # e.g. EAGAIN at the process limit
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the worker leaves by os._exit and never returns into the caller's stack
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = b"V" + sweep(lo, hi).tobytes()
            except BaseException as exc:  # sent to the caller, which raises it
                payload = b"E" + _pickled(exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _pickled(exc: BaseException) -> bytes:
    """``exc`` pickled, or an ``EvaluationError`` naming it when it does not survive a round trip."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(EvaluationError(f"grad_check worker raised {type(exc).__name__}: {exc}"))


def _share_values(payload: bytes, status: int, lo: int, hi: int) -> np.ndarray:
    """A worker's values for elements lo..hi-1, or the exception its payload or exit status carries."""
    if payload[:1] == b"V" and len(payload) == 1 + 8 * (hi - lo):
        return np.frombuffer(payload[1:], dtype=np.float64)
    if payload[:1] == b"E":
        raise pickle.loads(payload[1:])  # written by our own worker, so safe to unpickle
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        try:
            how = f"was killed by {signal.Signals(-code).name}"
        except ValueError:  # a real-time signal has no name
            how = f"was killed by signal {-code}"
    else:
        how = f"exited with status {code}"
    raise EvaluationError(f"grad_check: the worker sweeping elements {lo}..{hi - 1} {how} without a result")


def _worse(worst: float, err: float) -> float:
    """``max(worst, err)`` that keeps a NaN on either side (``max(0.0, nan)`` is 0.0)."""
    return err if err > worst or math.isnan(err) else worst

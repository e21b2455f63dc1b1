"""Rank-4 tensors and differentiable primitives on a recorded tape.

Every operation is a pure function: it reads its inputs, allocates a fresh
output, and — when handed a ``Tape`` — records a closure that propagates
gradients from the output back to the inputs.  ``Tape.backward`` replays the
closures in reverse execution order, accumulating ``grad`` buffers on every
value that influenced the loss: a value's first gradient is stored as a copy
of the incoming array (or, when the rule allocated that array for this value
alone, as the array itself), later ones are added into it.  Each closure is
dropped once it has run, so a tape replays once.  Passing ``tape=None`` runs
the forward math alone, which is what the finite-difference side of
``grad_check`` uses.

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

import ctypes
import math
import os
import pickle
import platform
import signal
import sys
import time
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>


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


class Tape:
    """Records backward closures in execution order, and replays them once.

    ``len(tape)`` counts the closures recorded, also after ``backward``.
    """

    def __init__(self) -> None:
        self._records: list[Callable[[], None] | None] = []
        self._replayed = False

    def record(self, fn: Callable[[], None]) -> None:
        self._records.append(fn)

    def __len__(self) -> int:
        return len(self._records)

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


class Value:
    """A dense float64 array plus an optional accumulated-gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        # asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would not)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shape={self.shape})"


class Tensor4(Value):
    """(batch, channel, height, width) tensor, row-major float64."""

    def __init__(self, data) -> None:
        # Value.__init__ inlined: every primitive builds its output here
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad = None
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
        draw = self._gen.standard_normal(shape)
        with np.errstate(over="ignore"):  # a sigma near the float limit gives inf, which callers check
            draw *= float(sigma)  # in place: no second array the size of every parameter tensor
        return draw

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))


def _accum(value: Value, grad: np.ndarray) -> None:
    """Add ``grad`` into ``value.grad``; the first gradient is stored as a fresh copy.

    Never the passed array itself: ``add`` hands one gradient to both
    operands, and some rules pass views of ``out.grad`` or read-only
    broadcast views.  A rule that built the array for this value alone calls
    ``_accum_own``.
    """
    if value.grad is None:
        value.grad = np.array(grad, dtype=np.float64, order="C")
    else:
        value.grad += grad


def _accum_own(value: Value, grad: np.ndarray) -> None:
    """``_accum`` for a gradient the calling rule allocated and hands to ``value`` alone.

    ``grad`` must be a C-contiguous float64 array that no other value and no
    ``out.grad`` shares memory with.  A first gradient is then kept as it is,
    without ``_accum``'s copy; later ones are added in the same way.
    """
    if value.grad is None:
        value.grad = grad
    else:
        value.grad += grad


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
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            _accum(a, g)
            _accum(b, _reduce_to(b.shape, g))
        tape.record(backward)
    return out


def mul(a: Value, b: Value, tape: Tape | None = None) -> Value:
    """Elementwise a * b; b may be a broadcastable gate."""
    _check_binary("mul", a, b)
    out = type(a)(a.data * b.data)
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            _accum_own(a, g * b.data)
            _accum(b, _reduce_to(b.shape, g * a.data))
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
        def backward() -> None:
            if out.grad is not None:
                _accum_own(v, out.grad * y * (1.0 - y))
        tape.record(backward)
    return out


def global_avg_pool(x: Tensor4, tape: Tape | None = None) -> Tensor4:
    """Mean over the spatial plane per (batch, channel) -> (B, C, 1, 1)."""
    b, c, h, w = x.dims
    pooled = x.data.sum(axis=(2, 3), keepdims=True)
    pooled /= h * w  # what np.mean computes, without its Python wrapper
    out = Tensor4(pooled)
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            _accum(x, np.broadcast_to(g / (h * w), x.data.shape))
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
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                _accum(p, g[:, lo:hi])
        tape.record(backward)
    return out


def sum_all(v: Value, tape: Tape | None = None) -> Value:
    """Sum of all elements as a scalar Value."""
    out = Value(v.data.sum())
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            _accum(v, np.broadcast_to(g, v.data.shape))
        tape.record(backward)
    return out


def weighted_sum(v: Value, weights: np.ndarray, tape: Tape | None = None) -> Value:
    """Dot with a fixed weight array; the usual well-conditioned test loss."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != v.shape:
        raise ShapeError(f"weighted_sum: weights {weights.shape} vs value {v.shape}")
    out = Value((v.data * weights).sum())
    if tape is not None:
        def backward() -> None:
            if out.grad is not None:
                _accum(v, out.grad * weights)
        tape.record(backward)
    return out


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


def _sweep_processes(predicted_s: float) -> int:
    """Processes to share a finite-difference sweep predicted to take ``predicted_s``.

    Every CPU this process may run on, on Linux only: macOS's Accelerate and
    libdispatch are not fork-safe.  One for a short sweep.
    """
    if predicted_s < _SPLIT_MIN_S or not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


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

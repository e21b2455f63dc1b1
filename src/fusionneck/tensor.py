"""Rank-4 tensors, matrices, and differentiable primitives on a recorded tape.

Every operation is a pure function: it reads its inputs, allocates a fresh
output, and — when handed a ``Tape`` — records a closure that propagates
gradients from the output back to the inputs.  ``Tape.backward`` replays the
closures in reverse execution order, accumulating ``grad`` buffers on every
value that influenced the loss: a value's first gradient is stored as a copy
of the incoming array, later ones are added into that copy.  Passing
``tape=None`` runs the forward math alone, which is what the
finite-difference side of ``grad_check`` uses.

Values are float64 throughout and treated as immutable once created;
operations never write to their inputs.  Broadcasting is deliberately narrow:
the second operand of ``add`` or ``mul`` may have any axis collapsed to 1
(per-channel gates of shape (B, C, 1, 1) and per-pixel gates of shape
(B, 1, H, W) are the two patterns actually used).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError


class Tape:
    """Records backward closures in execution order."""

    def __init__(self) -> None:
        self._records: list[Callable[[], None]] = []

    def record(self, fn: Callable[[], None]) -> None:
        self._records.append(fn)

    def __len__(self) -> int:
        return len(self._records)

    def backward(self) -> None:
        """Replay all recorded closures in reverse execution order."""
        for fn in reversed(self._records):
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

    def copy(self) -> "Value":
        return type(self)(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shape={self.shape})"


class Tensor4(Value):
    """(batch, channel, height, width) tensor, row-major float64."""

    def __init__(self, data) -> None:
        super().__init__(data)
        if self.data.ndim != 4:
            raise ShapeError(f"Tensor4 requires 4 axes, got shape {self.data.shape}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        b, c, h, w = self.data.shape
        return b, c, h, w

    @classmethod
    def zeros(cls, b: int, c: int, h: int, w: int) -> "Tensor4":
        return cls(np.zeros((b, c, h, w)))


class Matrix(Value):
    """Row-major 2-D float64 matrix."""

    def __init__(self, data) -> None:
        super().__init__(data)
        if self.data.ndim != 2:
            raise ShapeError(f"Matrix requires 2 axes, got shape {self.data.shape}")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(np.zeros((rows, cols)))


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
        return float(sigma) * self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def _accum(value: Value, grad: np.ndarray) -> None:
    if value.grad is None:
        # a fresh copy, never the passed array: ``add`` hands one gradient to
        # both operands, and some rules pass read-only broadcast views
        value.grad = np.array(grad, dtype=np.float64, order="C")
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
    if type(a) is not type(b):
        raise ShapeError(f"{op}: mixed operand types {type(a).__name__}/{type(b).__name__}")
    if a.shape == b.shape:
        return
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
            _accum(a, g * b.data)
            _accum(b, _reduce_to(b.shape, g * a.data))
        tape.record(backward)
    return out


def matmul(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Standard matrix product; backward is dA = g Bᵀ, dB = Aᵀ g."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims differ ({a.shape} x {b.shape})")
    out = Matrix(a.data @ b.data)
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)
        tape.record(backward)
    return out


def softmax_rows(m: Matrix, tape: Tape | None = None) -> Matrix:
    """Row softmax with per-row max subtraction for stability."""
    z = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Matrix(y)
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            dot = (g * y).sum(axis=1, keepdims=True)
            _accum(m, (g - dot) * y)
        tape.record(backward)
    return out


def logistic(v: Value, tape: Tape | None = None) -> Value:
    """Numerically stable logistic squashing into (0, 1)."""
    x = v.data
    e = np.exp(-np.abs(x))  # never overflows; equals exp(-x) for x >= 0 and exp(x) below
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = type(v)(y)
    if tape is not None:
        def backward() -> None:
            if out.grad is not None:
                _accum(v, out.grad * y * (1.0 - y))
        tape.record(backward)
    return out


def global_avg_pool(x: Tensor4, tape: Tape | None = None) -> Tensor4:
    """Mean over the spatial plane per (batch, channel) -> (B, C, 1, 1)."""
    b, c, h, w = x.dims
    out = Tensor4(x.data.mean(axis=(2, 3), keepdims=True))
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
    constant functions); the maximum over parameters is returned.  Parameter
    data is perturbed in place and restored, so the caller's values are
    unchanged on return.
    """
    if epsilon <= 0:
        raise ContractError("grad_check: epsilon must be positive")
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

    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            f_plus = evaluate()
            flat[i] = saved - epsilon
            f_minus = evaluate()
            flat[i] = saved
            numeric[i] = (f_plus - f_minus) / (2.0 * epsilon)
        diff = float(np.linalg.norm(grads.reshape(-1) - numeric))
        norm = float(np.linalg.norm(grads))
        err = diff / norm if norm >= 1e-8 else diff
        if err > worst:
            worst = err
    return worst

"""Dilated, pointwise, and transposed convolutions plus naive oracles.

Convolution here means cross-correlation (no kernel flip), the deep-learning
convention.  The fast paths are lowered to BLAS matrix products (the GEMM
lowering of Chellapilla et al., 2006).  ``conv2d`` reads the padded input
through a read-only strided (B, C, kh, kw, H_out, W_out) window view, copies
the columns of all kh·kw taps for a band of output rows in one go, and
multiplies them by the weight read as an (O, C·kh·kw) matrix; each band
writes its output rows directly.  The weight gradient sums g @ columnsᵀ over
the same bands.  The input gradient is the same lowering run on g, padded
by d·(k−1) − pad (cropped where that is negative), with the kernel flipped
and its channel axes swapped.  A pointwise conv is one product with the
input as it is.  Its tape entry holds no padded input and no columns: the
backward builds them again.  ``deconv2x`` is a single (O·4, C) @ (B, C, H·W)
product followed by a transpose that interleaves the 2x2 blocks.  The
``naive_*`` functions re-derive the same definitions with explicit loops and
serve as ground truth in equivalence tests.  ``ConvKernel`` and
``DeconvKernel`` hold the weight and bias arrays they are given and check
their shapes; ``neck.init_params`` draws the neck's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tape, Tensor4, Value, _accum

# conv2d gathers the columns of as many output rows at once as fit in this
# many bytes (at least one row): a small map is one band, and the default
# config's finest level (64 channels, 32x32, batch 2) takes bands of 3 rows,
# so the buffer stays below the size of the input there.  The backward uses
# the same bands for both gradients.
_COLUMN_BYTES = 1 << 20


class ConvKernel:
    """Dense 2-D convolution kernel with dilation and symmetric zero padding.

    weight has shape (out_channels, in_channels, k_h, k_w); bias has shape
    (out_channels,).  Both are tape values so gradients accumulate on them.
    """

    def __init__(self, weight, bias, dilation: int = 1, padding: int = 0) -> None:
        self.weight = weight if isinstance(weight, Value) else Value(weight)
        self.bias = bias if isinstance(bias, Value) else Value(bias)
        if self.weight.data.ndim != 4:
            raise ShapeError(f"ConvKernel weight needs 4 axes, got {self.weight.shape}")
        if self.bias.data.ndim != 1 or self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeError(
                f"ConvKernel bias shape {self.bias.shape} does not match {self.weight.shape[0]} outputs"
            )
        if dilation < 1:
            raise ContractError(f"ConvKernel dilation must be >= 1, got {dilation}")
        if padding < 0:
            raise ContractError(f"ConvKernel padding must be >= 0, got {padding}")
        self.dilation = int(dilation)
        self.padding = int(padding)

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def k_h(self) -> int:
        return self.weight.shape[2]

    @property
    def k_w(self) -> int:
        return self.weight.shape[3]

    def values(self) -> list[Value]:
        return [self.weight, self.bias]


class DeconvKernel:
    """2x2 stride-2 transposed-convolution kernel (exact spatial doubling).

    weight has shape (in_channels, out_channels, 2, 2); each input pixel
    scatters through the kernel into a disjoint 2x2 output block.
    """

    def __init__(self, weight, bias) -> None:
        self.weight = weight if isinstance(weight, Value) else Value(weight)
        self.bias = bias if isinstance(bias, Value) else Value(bias)
        if self.weight.data.ndim != 4 or self.weight.shape[2:] != (2, 2):
            raise ShapeError(f"DeconvKernel weight must be (in, out, 2, 2), got {self.weight.shape}")
        if self.bias.data.ndim != 1 or self.bias.shape[0] != self.weight.shape[1]:
            raise ShapeError(
                f"DeconvKernel bias shape {self.bias.shape} does not match {self.weight.shape[1]} outputs"
            )

    stride = 2
    k_h = 2
    k_w = 2

    @property
    def in_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[1]

    def values(self) -> list[Value]:
        return [self.weight, self.bias]


@dataclass(frozen=True)
class ReceptiveFieldState:
    """Receptive-field extent (in input pixels) after ``layer`` stacked convs."""

    r: int
    layer: int = 0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ContractError(f"receptive field must be >= 1, got {self.r}")


def receptive_field_step(state: ReceptiveFieldState, k: int, dilation: int) -> ReceptiveFieldState:
    """Grow the receptive field by one conv layer: r' = r + (k − 1) · dilation."""
    if k < 1:
        raise ContractError(f"kernel size must be >= 1, got {k}")
    if dilation < 1:
        raise ContractError(f"dilation must be >= 1, got {dilation}")
    return ReceptiveFieldState(state.r + (k - 1) * dilation, state.layer + 1)


def _pad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """``a`` with ``ph`` zero rows and ``pw`` zero columns around each spatial plane.

    Zeros plus a copy, ~20x cheaper than np.pad here.
    """
    if not (ph or pw):
        return a
    b, c, h, w = a.shape
    out = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
    out[:, :, ph : ph + h, pw : pw + w] = a
    return out


def _column_bands(a: np.ndarray, kh: int, kw: int, d: int, ph: int, pw: int):
    """Yield (s, cols) for each band of output rows of a kh x kw, dilation-d conv of ``a``.

    ``a`` is read as if zero-padded by ``ph`` rows and ``pw`` columns on each
    side; a negative amount crops instead.  ``cols`` is (B, C·kh·kw, n), rows
    ordered (channel, tap row, tap column) as in the weight's own layout, and
    ``s`` slices the band's n positions out of the flattened output plane.
    All taps of a band are gathered by one copy from a strided window view,
    and the bands are as many output rows as fit ``_COLUMN_BYTES``.
    """
    b, c, h, w = a.shape
    h_out = h + 2 * ph - d * (kh - 1)
    w_out = w + 2 * pw - d * (kw - 1)
    if kh == kw == 1 and ph == pw == 0:  # a pointwise conv reads its input as it is
        yield slice(None), a.reshape(b, c, h * w)
        return
    ap = np.ascontiguousarray(_pad(a, max(ph, 0), max(pw, 0)))
    sb, sc, sh, sw = ap.strides
    window = np.ndarray(
        (b, c, kh, kw, h_out, w_out), np.float64, ap,
        offset=max(-ph, 0) * sh + max(-pw, 0) * sw,
        strides=(sb, sc, d * sh, d * sw, sh, sw),
    )
    window.flags.writeable = False
    k = c * kh * kw
    rows = min(h_out, max(1, _COLUMN_BYTES // (b * k * w_out * ap.itemsize)))
    buf = np.empty(b * k * rows * w_out)
    for r0 in range(0, h_out, rows):
        r = min(rows, h_out - r0)
        cols = buf[: b * k * r * w_out].reshape(b, c, kh, kw, r, w_out)
        cols[...] = window[..., r0 : r0 + r, :]
        yield slice(r0 * w_out, (r0 + r) * w_out), cols.reshape(b, k, r * w_out)


def _lowered(a: np.ndarray, wmat: np.ndarray, kh: int, kw: int, d: int, ph: int, pw: int) -> np.ndarray:
    """``wmat`` (O, C·kh·kw) times the columns of ``a``, band by band, as (B, O, H_out·W_out)."""
    b, c, h, w = a.shape
    if kh == kw == 1 and not (ph or pw):  # pointwise: the input is its own column matrix
        return np.matmul(wmat, a.reshape(b, c, h * w))
    hw = (h + 2 * ph - d * (kh - 1)) * (w + 2 * pw - d * (kw - 1))
    out = np.empty((b, wmat.shape[0], hw))
    for s, cols in _column_bands(a, kh, kw, d, ph, pw):
        np.matmul(wmat, cols, out=out[:, :, s])
    return out


def conv2d(x: Tensor4, k: ConvKernel, tape: Tape | None = None) -> Tensor4:
    """Stride-1 dilated cross-correlation with zero padding.

    Output spatial dims are H + 2·pad − dilation·(k−1); with a 3x3 kernel and
    pad = dilation this is "same" size.  Out-of-bounds taps read zero.
    """
    b, c, h, w = x.data.shape
    o, kc, kh, kw = k.weight.data.shape
    if c != kc:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {kc}")
    d, p = k.dilation, k.padding
    h_out = h + 2 * p - d * (kh - 1)
    w_out = w + 2 * p - d * (kw - 1)
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d: kernel span exceeds padded input ({h}x{w}, d={d}, pad={p})")
    out_data = _lowered(x.data, k.weight.data.reshape(o, c * kh * kw), kh, kw, d, p, p)
    out_data += k.bias.data[:, None]
    out = Tensor4(out_data.reshape(b, o, h_out, w_out))
    if tape is None:
        return out

    def backward() -> None:
        g = out.grad
        if g is None:
            return
        g = g.reshape(b, o, h_out * w_out)
        # the input is padded again here, so that the tape holds no padded copy
        gw = np.zeros((o, c * kh * kw))
        for s, cols in _column_bands(x.data, kh, kw, d, p, p):
            for gi, ci in zip(g[:, :, s], cols):
                gw += gi @ ci.T
        _accum(k.weight, gw.reshape(o, c, kh, kw))
        _accum(k.bias, g.sum(axis=(0, 2)))
        # the input gradient is the same lowering run on g with the flipped,
        # transposed kernel; g padded by q = d·(k−1) − p, cropped where q < 0
        wflip = k.weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
        gx = _lowered(g.reshape(b, o, h_out, w_out), wflip, kh, kw, d,
                      d * (kh - 1) - p, d * (kw - 1) - p)
        _accum(x, gx.reshape(b, c, h, w))

    tape.record(backward)
    return out


def pointwise_conv(x: Tensor4, k: ConvKernel, tape: Tape | None = None) -> Tensor4:
    """1x1 convolution: per-pixel linear map across channels plus bias."""
    if k.k_h != 1 or k.k_w != 1:
        raise ContractError(f"pointwise_conv: kernel is {k.k_h}x{k.k_w}, expected 1x1")
    if k.padding != 0:
        raise ContractError("pointwise_conv: padding must be 0")
    return conv2d(x, k, tape)


def naive_conv2d(x: Tensor4, k: ConvKernel) -> Tensor4:
    """Direct loop evaluation of the conv2d definition (oracle, forward only)."""
    b, c, h, w = x.dims
    if c != k.in_channels:
        raise ShapeError(f"naive_conv2d: input has {c} channels, kernel expects {k.in_channels}")
    d, p = k.dilation, k.padding
    kh, kw = k.k_h, k.k_w
    h_out = h + 2 * p - d * (kh - 1)
    w_out = w + 2 * p - d * (kw - 1)
    if h_out < 1 or w_out < 1:
        raise ShapeError("naive_conv2d: kernel span exceeds padded input")
    xd = x.data
    wd = k.weight.data
    bd = k.bias.data
    out = np.zeros((b, k.out_channels, h_out, w_out))
    for bi in range(b):
        for o in range(k.out_channels):
            for i in range(h_out):
                for j in range(w_out):
                    acc = bd[o]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                ii = i + u * d - p
                                jj = j + v * d - p
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += wd[o, ci, u, v] * xd[bi, ci, ii, jj]
                    out[bi, o, i, j] = acc
    return Tensor4(out)


def deconv2x(x: Tensor4, k: DeconvKernel, tape: Tape | None = None) -> Tensor4:
    """Transposed convolution with a 2x2 kernel at stride 2.

    Output is (B, out_channels, 2H, 2W); input pixel (i, j) alone determines
    the 2x2 output block at (2i, 2j) — blocks are disjoint, so the backward
    rule is a plain stride-2 gather.
    """
    b, c, h, w = x.dims
    if c != k.in_channels:
        raise ShapeError(f"deconv2x: input has {c} channels, kernel expects {k.in_channels}")
    o = k.out_channels
    # rows of wmat are (o, u, v): the product yields every 2x2 block position at once
    wmat = k.weight.data.transpose(1, 2, 3, 0).reshape(o * 4, c)
    xm = x.data.reshape(b, c, h * w)
    blocks = (wmat @ xm).reshape(b, o, 2, 2, h, w)
    out_data = blocks.transpose(0, 1, 4, 2, 5, 3).reshape(b, o, 2 * h, 2 * w)
    out_data += k.bias.data[None, :, None, None]
    out = Tensor4(out_data)
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            gm = g.reshape(b, o, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4).reshape(b, o * 4, h * w)
            _accum(x, (wmat.T @ gm).reshape(b, c, h, w))
            gwmat = (gm @ xm.transpose(0, 2, 1)).sum(axis=0)
            _accum(k.weight, gwmat.reshape(o, 2, 2, c).transpose(3, 0, 1, 2))
            _accum(k.bias, g.sum(axis=(0, 2, 3)))
        tape.record(backward)
    return out


def naive_deconv2x(x: Tensor4, k: DeconvKernel) -> Tensor4:
    """Explicit scatter-loop evaluation of deconv2x (oracle, forward only)."""
    b, c, h, w = x.dims
    if c != k.in_channels:
        raise ShapeError(f"naive_deconv2x: input has {c} channels, kernel expects {k.in_channels}")
    wd = k.weight.data
    out = np.zeros((b, k.out_channels, 2 * h, 2 * w))
    for bi in range(b):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    val = x.data[bi, ci, i, j]
                    for o in range(k.out_channels):
                        for u in range(2):
                            for v in range(2):
                                out[bi, o, 2 * i + u, 2 * j + v] += val * wd[ci, o, u, v]
    out += k.bias.data[None, :, None, None]
    return Tensor4(out)

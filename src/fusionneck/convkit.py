"""Dilated, pointwise, and transposed convolutions plus naive oracles.

Convolution here means cross-correlation (no kernel flip), the deep-learning
convention.  The fast paths are lowered to BLAS matrix products (the GEMM
lowering of Chellapilla et al., 2006).  ``conv2d`` copies the windows that a
group of kernel taps reads from the padded input into one (B, taps·C,
H_out·W_out) column buffer and multiplies it by the matching columns of the
weight.  A group is as many taps as fit ``_COLUMN_BYTES``, so small maps take
all taps in one product and large ones one tap per product, and the columns
never outgrow the input there.  Its tape entry holds no copy of the input:
the backward pads it again.  The backward rules are the same products
transposed.  ``deconv2x`` is
a single (O·4, C) @ (B, C, H·W) product followed by a transpose that
interleaves the 2x2 blocks.  The ``naive_*`` functions re-derive the same
definitions with explicit loops and serve as ground truth in equivalence
tests.  ``ConvKernel`` and ``DeconvKernel`` hold the weight and bias arrays
they are given and check their shapes; ``neck.init_params`` draws the neck's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tape, Tensor4, Value, _accum

# conv2d builds the columns of as many kernel taps at once as fit in this many
# bytes: all taps of a small map in one product, one tap per product at the
# default config's finest level (64 channels, 32x32, batch 2), so the buffer
# stays the size of the input there.
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


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """``a`` with ``p`` zeros around each spatial plane: zeros plus a copy, ~20x cheaper than np.pad here."""
    if not p:
        return a
    b, c, h, w = a.shape
    out = np.zeros((b, c, h + 2 * p, w + 2 * p))
    out[:, :, p : p + h, p : p + w] = a
    return out


def conv2d(x: Tensor4, k: ConvKernel, tape: Tape | None = None) -> Tensor4:
    """Stride-1 dilated cross-correlation with zero padding.

    Output spatial dims are H + 2·pad − dilation·(k−1); with a 3x3 kernel and
    pad = dilation this is "same" size.  Out-of-bounds taps read zero.
    """
    b, c, h, w = x.dims
    if c != k.in_channels:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {k.in_channels}")
    d, p = k.dilation, k.padding
    kh, kw = k.k_h, k.k_w
    h_out = h + 2 * p - d * (kh - 1)
    w_out = w + 2 * p - d * (kw - 1)
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d: kernel span exceeds padded input ({h}x{w}, d={d}, pad={p})")
    o = k.out_channels
    hw = h_out * w_out
    ntaps = kh * kw
    tap_bytes = b * c * hw * x.data.itemsize
    # taps per product: the most that divide kh·kw and whose columns fit _COLUMN_BYTES
    fits = [n for n in range(2, ntaps + 1) if ntaps % n == 0 and n * tap_bytes <= _COLUMN_BYTES]
    group = max(fits, default=1)
    wdat = k.weight.data

    def weight_matrix() -> np.ndarray:
        """(O, kh·kw·C), columns ordered (tap, channel): tap t owns columns t·C..(t+1)·C.

        Built in the forward and again in the backward, so that the tape
        holds no copy of the weight.
        """
        return np.ascontiguousarray(wdat.transpose(0, 2, 3, 1)).reshape(o, ntaps * c)

    def window(a: np.ndarray, t: int) -> np.ndarray:
        """The (B, ·, H_out, W_out) view of padded ``a`` that tap t = u·kw + v reads."""
        u, v = divmod(t, kw)
        return a[:, :, u * d : u * d + h_out, v * d : v * d + w_out]

    def column_groups(xp: np.ndarray):
        """Yield (a tap group's weight columns, padded ``xp``'s columns as (B, taps·C, H_out·W_out)).

        The windows are copied into one buffer reused across groups: a fresh
        array per group costs page faults that, at the default config,
        outweigh the products themselves.
        """
        if ntaps == 1 and not p:  # a pointwise conv reads its input as it is
            yield slice(None), xp.reshape(b, c, hw)
            return
        cols = np.empty((b, group, c, h_out, w_out))
        for t0 in range(0, ntaps, group):
            for t in range(t0, t0 + group):
                cols[:, t - t0] = window(xp, t)
            yield slice(t0 * c, (t0 + group) * c), cols.reshape(b, group * c, hw)

    def weight_grad(g: np.ndarray) -> np.ndarray:
        """Sum over the batch of g @ columnsᵀ, one tap group at a time, as (O, C, kh, kw).

        The input is padded again here, so that the tape holds no padded copy.
        """
        gwmat = np.empty((o, ntaps * c))
        for taps, cols in column_groups(_pad(x.data, p)):
            gwmat[:, taps] = (g @ cols.transpose(0, 2, 1)).sum(axis=0)
        return gwmat.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)

    def input_grad(g: np.ndarray) -> np.ndarray:
        """Scatter each tap's W_tapᵀ @ g into the padded input gradient; return its interior."""
        wmat = weight_matrix()
        if ntaps == 1 and not p:  # pointwise: the product is the gradient
            return (wmat.T @ g).reshape(b, c, h, w)
        gxp = np.zeros((b, c, h + 2 * p, w + 2 * p))
        gcols = np.empty((b, group * c, hw))
        gtaps = gcols.reshape(b, group, c, h_out, w_out)
        for t0 in range(0, ntaps, group):
            np.matmul(wmat[:, t0 * c : (t0 + group) * c].T, g, out=gcols)
            for t in range(t0, t0 + group):
                window(gxp, t)[...] += gtaps[:, t - t0]
        return gxp[:, :, p : p + h, p : p + w] if p else gxp

    wmat = weight_matrix()
    out_data = np.zeros((b, o, hw))
    prod = np.empty_like(out_data)
    for taps, cols in column_groups(_pad(x.data, p)):
        out_data += np.matmul(wmat[:, taps], cols, out=prod)
    out_data += k.bias.data[None, :, None]
    out = Tensor4(out_data.reshape(b, o, h_out, w_out))
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            g = g.reshape(b, o, hw)
            # weight, then input: the column and gradient buffers are never alive together
            _accum(k.weight, weight_grad(g))
            _accum(k.bias, g.sum(axis=(0, 2)))
            _accum(x, input_grad(g))
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

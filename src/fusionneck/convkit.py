"""Dilated, pointwise, and transposed convolutions plus naive oracles.

Convolution here means cross-correlation (no kernel flip), the deep-learning
convention.  The fast paths are lowered to BLAS matrix products (the GEMM
lowering of Chellapilla et al., 2006).  ``conv2d`` reads the padded input
through a read-only strided (B, C, kh, kw, H, W) window view and runs a
plain loop over bands of output rows: each band's columns, all kh·kw taps of
its rows, are copied by one reshape and multiplied by the weight read as an
(O, C·kh·kw) matrix, and the product lands in the band's output rows.  A map
that fits ``_COLUMN_BYTES`` is one band and one product.  Every convolution
is same-size: a kernel's sides are odd and each axis is padded by
d·(k−1)/2, so the output keeps the input's H×W.  The weight gradient sums
g @ columnsᵀ over the same bands.  The input gradient is the same lowering
run on g, with the kernel flipped and its channel axes swapped; the
transpose of a same-size convolution is same-size too, so nothing is
cropped.  Its tape entry holds no padded input and no columns: the backward
builds them again.
``pointwise_conv`` is its own primitive: one (O, C) @ (B, C, H·W) product,
with a backward rule of three products of the same shapes.  ``deconv2x`` is
a single (O·4, C) @ (B, C, H·W) product followed by a transpose that
interleaves the 2x2 blocks.  The ``naive_*`` functions re-derive the same
definitions with explicit loops and serve as ground truth in equivalence
tests.  ``ConvKernel`` and ``DeconvKernel`` hold the weight and bias arrays
they are given and check their shapes; ``neck.init_params`` draws the neck's.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tape, Tensor4, Value, _accum, _accum_own

# conv2d copies the columns of as many output rows at once as fit in this
# many bytes (at least one row): a small map is one band, and the default
# config's finest level (64 channels, 32x32, batch 2) takes bands of 3 rows,
# so a band's columns stay below the size of the input there.  The backward
# uses the same bands for both gradients.
_COLUMN_BYTES = 1 << 20


class ConvKernel:
    """Dense 2-D convolution kernel with dilation, same-size by construction.

    weight has shape (out_channels, in_channels, k_h, k_w), both sides odd, so
    padding each axis by dilation·(k−1)/2 keeps H×W; bias has shape
    (out_channels,).  Both are tape values so gradients accumulate on them.
    """

    def __init__(self, weight, bias, dilation: int = 1) -> None:
        self.weight = weight if isinstance(weight, Value) else Value(weight)
        self.bias = bias if isinstance(bias, Value) else Value(bias)
        if self.weight.data.ndim != 4:
            raise ShapeError(f"ConvKernel weight needs 4 axes, got {self.weight.shape}")
        if self.weight.shape[2] % 2 == 0 or self.weight.shape[3] % 2 == 0:
            raise ShapeError(f"ConvKernel sides must be odd for a same-size output, got {self.weight.shape[2:]}")
        if self.bias.data.ndim != 1 or self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeError(
                f"ConvKernel bias shape {self.bias.shape} does not match {self.weight.shape[0]} outputs"
            )
        if dilation < 1:
            raise ContractError(f"ConvKernel dilation must be >= 1, got {dilation}")
        self.dilation = int(dilation)

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


def _tap_window(a: np.ndarray, kh: int, kw: int, d: int) -> tuple[np.ndarray, int]:
    """The taps of a same-size kh x kw, dilation-d conv of ``a``, and the output rows per band.

    ``a`` is read as if zero-padded by d·(k−1)/2 on each side of each axis.
    The window is a read-only (B, C, kh, kw, H, W) view: reshaping a band of
    its output rows to (B, C·kh·kw, rows·W) copies the columns of all taps at
    once, rows ordered (channel, tap row, tap column) as in the weight's own
    layout.  A band is as many output rows as fit ``_COLUMN_BYTES``.
    """
    b, c, h, w = a.shape
    ap = np.ascontiguousarray(_pad(a, d * (kh // 2), d * (kw // 2)))
    sb, sc, sh, sw = ap.strides
    window = np.ndarray((b, c, kh, kw, h, w), np.float64, ap, strides=(sb, sc, d * sh, d * sw, sh, sw))
    window.flags.writeable = False
    rows = min(h, max(1, _COLUMN_BYTES // (b * c * kh * kw * w * ap.itemsize)))
    return window, rows


def _lowered(a: np.ndarray, wmat: np.ndarray, kh: int, kw: int, d: int) -> np.ndarray:
    """``wmat`` (O, C·kh·kw) times the columns of ``a``, band by band, as (B, O, H·W)."""
    window, rows = _tap_window(a, kh, kw, d)
    b, _, _, _, h, w = window.shape
    o, k = wmat.shape
    out = np.empty((b, o, h * w))
    for r0 in range(0, h, rows):
        cols = window[..., r0 : r0 + rows, :].reshape(b, k, -1)
        np.matmul(wmat, cols, out=out[:, :, r0 * w : (r0 + rows) * w])
    return out


def conv2d(x: Tensor4, k: ConvKernel, tape: Tape | None = None) -> Tensor4:
    """Stride-1 dilated cross-correlation, zero-padded to a same-size output.

    Each axis is padded by dilation·(k−1)/2, so the output has the input's
    H×W.  Out-of-bounds taps read zero.
    """
    b, c, h, w = x.data.shape
    o, kc, kh, kw = k.weight.data.shape
    if c != kc:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {kc}")
    d = k.dilation
    x_data, w_data = x.data, k.weight.data
    out_data = _lowered(x_data, w_data.reshape(o, c * kh * kw), kh, kw, d)
    out_data += k.bias.data[:, None]
    out = Tensor4(out_data.reshape(b, o, h, w))
    if tape is None:
        return out
    gx, gweight, gbias, gout = x.cell(), k.weight.cell(), k.bias.cell(), out.cell()

    def backward() -> None:
        g = gout.grad
        if g is None:
            return
        g = g.reshape(b, o, h * w)
        # the input is padded again here, so that the tape holds no padded copy
        window, rows = _tap_window(x_data, kh, kw, d)
        gw = np.zeros((o, c * kh * kw))
        for r0 in range(0, h, rows):
            cols = window[..., r0 : r0 + rows, :].reshape(b, c * kh * kw, -1)
            for gi, ci in zip(g[:, :, r0 * w : (r0 + rows) * w], cols):
                gw += gi @ ci.T
        _accum(gweight, gw.reshape(o, c, kh, kw))
        _accum(gbias, g.sum(axis=(0, 2)))
        # the input gradient is the same lowering run on g with the flipped,
        # transposed kernel
        wflip = w_data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
        grad_x = _lowered(g.reshape(b, o, h, w), wflip, kh, kw, d)
        _accum_own(gx, grad_x.reshape(b, c, h, w))

    tape.record(backward)
    return out


def pointwise_conv(x: Tensor4, k: ConvKernel, tape: Tape | None = None) -> Tensor4:
    """1x1 convolution: per-pixel linear map across channels plus bias.

    One product W (O, C) @ x (B, C, H·W); the backward is gW = Σ_b g_b x_bᵀ,
    gb = Σ g and gx = Wᵀ g.
    """
    o, c, kh, kw = k.weight.data.shape
    if kh != 1 or kw != 1:
        raise ContractError(f"pointwise_conv: kernel is {kh}x{kw}, expected 1x1")
    b, xc, h, w = x.data.shape
    if xc != c:
        raise ShapeError(f"pointwise_conv: input has {xc} channels, kernel expects {c}")
    wmat = k.weight.data.reshape(o, c)
    xm = x.data.reshape(b, c, h * w)
    out_data = np.matmul(wmat, xm)
    out_data += k.bias.data[:, None]
    out = Tensor4(out_data.reshape(b, o, h, w))
    if tape is None:
        return out
    gx, gweight, gbias, gout = x.cell(), k.weight.cell(), k.bias.cell(), out.cell()

    def backward() -> None:
        g = gout.grad
        if g is None:
            return
        g = g.reshape(b, o, h * w)
        gw = np.zeros((o, c))
        for gi, xi in zip(g, xm):
            gw += gi @ xi.T
        _accum(gweight, gw.reshape(o, c, 1, 1))
        _accum(gbias, g.sum(axis=(0, 2)))
        _accum_own(gx, np.matmul(wmat.T, g).reshape(b, c, h, w))

    tape.record(backward)
    return out


def naive_conv2d(x: Tensor4, k: ConvKernel) -> Tensor4:
    """Direct loop evaluation of the conv2d definition (oracle, forward only)."""
    b, c, h, w = x.dims
    if c != k.in_channels:
        raise ShapeError(f"naive_conv2d: input has {c} channels, kernel expects {k.in_channels}")
    d, kh, kw = k.dilation, k.k_h, k.k_w
    ph, pw = d * (kh // 2), d * (kw // 2)
    # Python floats: the same multiply-adds in the same order, without a
    # NumPy scalar built for every operand
    xd = x.data.tolist()
    wd = k.weight.data.tolist()
    bd = k.bias.data.tolist()
    out = np.zeros((b, k.out_channels, h, w))
    for bi in range(b):
        for o in range(k.out_channels):
            for i in range(h):
                for j in range(w):
                    acc = bd[o]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                ii = i + u * d - ph
                                jj = j + v * d - pw
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += wd[o][ci][u][v] * xd[bi][ci][ii][jj]
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
        gx, gweight, gbias, gout = x.cell(), k.weight.cell(), k.bias.cell(), out.cell()

        def backward() -> None:
            g = gout.grad
            if g is None:
                return
            gm = g.reshape(b, o, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4).reshape(b, o * 4, h * w)
            _accum(gx, (wmat.T @ gm).reshape(b, c, h, w))
            gwmat = (gm @ xm.transpose(0, 2, 1)).sum(axis=0)
            _accum(gweight, gwmat.reshape(o, 2, 2, c).transpose(3, 0, 1, 2))
            _accum(gbias, g.sum(axis=(0, 2, 3)))
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

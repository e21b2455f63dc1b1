"""Global multi-head self-attention over flattened feature maps.

The H·W spatial positions of a (B, C, H, W) map become tokens with C-wide
features (no positional encoding, so the operator is permutation-equivariant
over tokens).  Optional register biases shift the raw attention scores
(per-head HW×HW matrices added before the 1/sqrt(d_k) scaling) and the value
rows (per-head d_head×HW matrices); both are shared across the batch and
leave the output shape untouched.  ``mhsa_forward`` is one primitive: the
whole batch and all heads go through stacked array products, and the tape
gets a single hand-written backward rule for it.  Also provides the
concurrent spatial/channel gate used to recalibrate fused multi-dilation
features.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .convkit import ConvKernel, pointwise_conv
from .errors import ContractError, ShapeError
from .tensor import (
    Matrix,
    Rng,
    Tape,
    Tensor4,
    Value,
    _accum,
    add,
    global_avg_pool,
    logistic,
    mul,
)


class MhsaParams:
    """Projection weights for multi-head self-attention.

    w_q, w_k, w_v are D×D where D equals the channel count; heads are
    contiguous d_head-wide column blocks of each projection.
    """

    def __init__(self, w_q: Matrix, w_k: Matrix, w_v: Matrix, head_count: int) -> None:
        dim = w_q.rows
        for name, m in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v)):
            if m.rows != dim or m.cols != dim:
                raise ShapeError(f"MhsaParams: {name} must be {dim}x{dim}, got {m.shape}")
        if head_count < 1:
            raise ContractError(f"MhsaParams: head_count must be >= 1, got {head_count}")
        if dim % head_count != 0:
            raise ShapeError(f"MhsaParams: embed dim {dim} not divisible by {head_count} heads")
        self.w_q = w_q
        self.w_k = w_k
        self.w_v = w_v
        self.head_count = int(head_count)

    @property
    def embed_dim(self) -> int:
        return self.w_q.rows

    @property
    def d_head(self) -> int:
        return self.embed_dim // self.head_count

    @classmethod
    def from_rng(cls, rng: Rng, embed_dim: int, head_count: int, sigma: float) -> "MhsaParams":
        mats = [Matrix(rng.normal((embed_dim, embed_dim), sigma)) for _ in range(3)]
        return cls(*mats, head_count=head_count)

    def values(self) -> list[Value]:
        return [self.w_q, self.w_k, self.w_v]


class RegisterTokens:
    """Per-head additive register biases for attention scores and values.

    r_qk[i] (HW×HW) is added to head i's raw score matrix and r_v[i]
    (d_head×HW) to head i's value rows — one register per head, shared by all
    batch items, sized for a fixed token count HW.  All-zero registers are a
    legal state and collapse the operator to plain attention.
    """

    def __init__(self, r_qk: Sequence[Matrix], r_v: Sequence[Matrix]) -> None:
        if len(r_qk) != len(r_v) or not r_qk:
            raise ShapeError("RegisterTokens: need matching non-empty r_qk/r_v lists")
        hw = r_qk[0].rows
        d_head = r_v[0].rows
        for i, m in enumerate(r_qk):
            if m.rows != hw or m.cols != hw:
                raise ShapeError(f"RegisterTokens: r_qk[{i}] must be {hw}x{hw}, got {m.shape}")
        for i, m in enumerate(r_v):
            if m.rows != d_head or m.cols != hw:
                raise ShapeError(f"RegisterTokens: r_v[{i}] must be {d_head}x{hw}, got {m.shape}")
        self.r_qk = list(r_qk)
        self.r_v = list(r_v)

    @property
    def count(self) -> int:
        return len(self.r_qk)

    @property
    def hw(self) -> int:
        return self.r_qk[0].rows

    @property
    def d_head(self) -> int:
        return self.r_v[0].rows

    def values(self) -> list[Value]:
        return [*self.r_qk, *self.r_v]

    def zeroed(self) -> "RegisterTokens":
        return RegisterTokens(
            [Matrix.zeros(self.hw, self.hw) for _ in range(self.count)],
            [Matrix.zeros(self.d_head, self.hw) for _ in range(self.count)],
        )


def build_registers(rng: Rng, head_count: int, hw: int, d_head: int, sigma: float) -> RegisterTokens:
    """Gaussian(0, sigma²) register set with one (r_qk, r_v) pair per head.

    Draw order is all r_qk matrices head by head, then all r_v matrices, so a
    given seed always produces the same registers.
    """
    if head_count < 1 or hw < 1 or d_head < 1:
        raise ContractError("build_registers: all dims must be positive")
    r_qk = [Matrix(rng.normal((hw, hw), sigma)) for _ in range(head_count)]
    r_v = [Matrix(rng.normal((d_head, hw), sigma)) for _ in range(head_count)]
    return RegisterTokens(r_qk, r_v)


def mhsa_forward(
    x: Tensor4,
    p: MhsaParams,
    reg: RegisterTokens | None = None,
    tape: Tape | None = None,
    return_attention: bool = False,
):
    """Multi-head self-attention over the flattened spatial grid, as one taped op.

    tokens = flatten(x) as (B·HW, C); one product gives Q | K | V for the
    whole batch, and head i owns columns i·d_head..(i+1)·d_head of each.
    Batched over (item, head): scores = (Q Kᵀ + r_qk) / sqrt(d_head) and
    values = V + r_vᵀ (register terms only when ``reg`` is given); rows are
    softmaxed and the weighted value rows concatenated across heads, then
    reshaped back to (B, C, H, W).  Registers never appear in the output
    shape.  The tape gets one record whose hand-written backward accumulates
    into x, w_q/w_k/w_v and every r_qk[i]/r_v[i].

    With ``return_attention`` the list of row-stochastic attention matrices
    (one (HW, HW) view per batch item and head, batch-major) is returned
    alongside the output.
    """
    b, c, h, w = x.dims
    if c != p.embed_dim:
        raise ShapeError(f"mhsa_forward: input has {c} channels, params expect {p.embed_dim}")
    hw = h * w
    heads, d_head = p.head_count, p.d_head
    if reg is not None:
        if reg.count != heads:
            raise ShapeError(
                f"mhsa_forward: {reg.count} registers for {heads} heads (one per head required)"
            )
        if reg.hw != hw:
            raise ShapeError(f"mhsa_forward: registers instantiated for HW={reg.hw}, input has HW={hw}")
        if reg.d_head != d_head:
            raise ShapeError(f"mhsa_forward: register d_head {reg.d_head} vs params {d_head}")
    inv_sqrt_dk = 1.0 / math.sqrt(d_head)
    weights = p.values()  # w_q, w_k, w_v
    w_qkv = np.concatenate([m.data for m in weights], axis=1)  # (C, 3C)
    tokens = x.data.reshape(b, c, hw).transpose(0, 2, 1).reshape(b * hw, c)
    # (3, B, heads, HW, d_head) views of the one projection product
    q, k, v = (tokens @ w_qkv).reshape(b, hw, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    if reg is not None:
        v = v + np.stack([r.data for r in reg.r_v]).transpose(0, 2, 1)
    attn = q @ k.swapaxes(-1, -2)  # (B, heads, HW, HW) scores, softmaxed in place
    if reg is not None:
        for i, r in enumerate(reg.r_qk):
            attn[:, i] += r.data
    attn *= inv_sqrt_dk
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = Tensor4((attn @ v).transpose(0, 1, 3, 2).reshape(b, c, h, w))
    if tape is not None:
        def backward() -> None:
            g = out.grad
            if g is None:
                return
            g = g.reshape(b, heads, d_head, hw).swapaxes(-1, -2)  # (B, heads, HW, d_head)
            dv = attn.swapaxes(-1, -2) @ g
            ds = g @ v.swapaxes(-1, -2)  # d attention, turned into d scores in place
            ds -= (ds * attn).sum(axis=-1, keepdims=True)
            ds *= attn
            ds *= inv_sqrt_dk
            dqkv = np.stack([ds @ k, ds.swapaxes(-1, -2) @ q, dv])  # (3, B, heads, HW, d_head)
            dqkv = dqkv.transpose(1, 3, 0, 2, 4).reshape(b * hw, 3 * c)  # as the projection product
            dw = tokens.T @ dqkv
            for i, m in enumerate(weights):
                _accum(m, dw[:, i * c : (i + 1) * c])
            _accum(x, (dqkv @ w_qkv.T).reshape(b, hw, c).transpose(0, 2, 1).reshape(b, c, h, w))
            if reg is not None:
                for i in range(heads):
                    _accum(reg.r_qk[i], ds[:, i].sum(axis=0))
                    _accum(reg.r_v[i], dv[:, i].sum(axis=0).T)
        tape.record(backward)
    if return_attention:
        return out, list(attn.reshape(b * heads, hw, hw))
    return out


def attention_mass(a) -> np.ndarray:
    """Column sums of a row-stochastic attention matrix: incoming mass per token."""
    data = a.data if isinstance(a, Matrix) else np.asarray(a, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"attention_mass: expected a matrix, got shape {data.shape}")
    rows = data.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-9:
        raise ContractError("attention_mass: rows do not sum to 1 within 1e-9")
    return data.sum(axis=0)


class ScseParams:
    """Concurrent channel and spatial gate parameters.

    Channel path: GAP → 1x1 reduce (C→C/r) → 1x1 expand (C/r→C) → logistic,
    yielding a (B, C, 1, 1) gate.  Spatial path: 1x1 map C→1 → logistic,
    yielding a (B, 1, H, W) gate.  Both gates lie strictly in (0, 1).
    """

    def __init__(self, reduce: ConvKernel, expand: ConvKernel, spatial: ConvKernel) -> None:
        for name, k in (("reduce", reduce), ("expand", expand), ("spatial", spatial)):
            if k.k_h != 1 or k.k_w != 1:
                raise ShapeError(f"ScseParams: {name} must be a 1x1 kernel")
        c = reduce.in_channels
        if expand.out_channels != c or expand.in_channels != reduce.out_channels:
            raise ShapeError("ScseParams: channel path must form C -> C/r -> C")
        if c % reduce.out_channels != 0:
            raise ShapeError(
                f"ScseParams: reduction {reduce.out_channels} does not divide {c} channels"
            )
        if spatial.in_channels != c or spatial.out_channels != 1:
            raise ShapeError("ScseParams: spatial path must map C -> 1")
        self.reduce = reduce
        self.expand = expand
        self.spatial = spatial

    @property
    def channels(self) -> int:
        return self.reduce.in_channels

    @property
    def reduction(self) -> int:
        return self.channels // self.reduce.out_channels

    @classmethod
    def from_rng(cls, rng: Rng, channels: int, reduction: int, sigma: float) -> "ScseParams":
        if reduction < 1 or channels % reduction != 0:
            raise ContractError(f"ScseParams: reduction {reduction} must divide {channels}")
        hidden = channels // reduction
        reduce = ConvKernel.from_rng(rng, hidden, channels, 1, sigma)
        expand = ConvKernel.from_rng(rng, channels, hidden, 1, sigma)
        spatial = ConvKernel.from_rng(rng, 1, channels, 1, sigma)
        return cls(reduce, expand, spatial)

    def values(self) -> list[Value]:
        return [*self.reduce.values(), *self.expand.values(), *self.spatial.values()]


def scse_recalibrate(x: Tensor4, p: ScseParams, tape: Tape | None = None) -> Tensor4:
    """Sum of the spatially gated and channel gated copies of x.

    output = g_s ⊙ x + g_c ⊙ x with g_s the per-pixel gate and g_c the
    per-channel gate, each broadcast over the missing axes.
    """
    _, c, _, _ = x.dims
    if c != p.channels:
        raise ShapeError(f"scse_recalibrate: input has {c} channels, params expect {p.channels}")
    pooled = global_avg_pool(x, tape)
    channel_gate = logistic(pointwise_conv(pointwise_conv(pooled, p.reduce, tape), p.expand, tape), tape)
    spatial_gate = logistic(pointwise_conv(x, p.spatial, tape), tape)
    return add(mul(x, spatial_gate, tape), mul(x, channel_gate, tape), tape)

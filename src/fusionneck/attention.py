"""Global multi-head self-attention over flattened feature maps.

The H·W spatial positions of a (B, C, H, W) map become tokens with C-wide
features (no positional encoding, so the operator is permutation-equivariant
over tokens).  Optional register biases shift the raw attention scores
(a (heads, HW, HW) tensor added before the 1/sqrt(d_k) scaling) and the
value rows (a (heads, d_head, HW) tensor); both are shared across the batch
and leave the output shape untouched.  ``mhsa_forward`` is one primitive: the
whole batch and all heads go through stacked array products, and the tape
gets a single hand-written backward rule for it.  Also provides the
concurrent spatial/channel gate used to recalibrate fused multi-dilation
features.

``MhsaParams``, ``RegisterTokens`` and ``ScseParams`` hold the arrays they
are given and check their shapes; they draw nothing.  The neck's parameters
are drawn once, by ``neck.init_params`` over ``neck.parameter_spec``.
"""

from __future__ import annotations

import math

import numpy as np

from .convkit import ConvKernel, pointwise_conv
from .errors import ContractError, ShapeError
from .tensor import (
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

    w_qkv is (3, D, D), D the channel count: the Q, K and V projections
    stacked in that order.  Heads are contiguous d_head-wide column blocks of
    each projection.
    """

    def __init__(self, w_qkv, head_count: int) -> None:
        self.w_qkv = w_qkv if isinstance(w_qkv, Value) else Value(w_qkv)
        shape = self.w_qkv.shape
        if len(shape) != 3 or shape[0] != 3 or shape[1] != shape[2]:
            raise ShapeError(f"MhsaParams: w_qkv must be (3, D, D), got {shape}")
        if head_count < 1:
            raise ContractError(f"MhsaParams: head_count must be >= 1, got {head_count}")
        if shape[1] % head_count != 0:
            raise ShapeError(f"MhsaParams: embed dim {shape[1]} not divisible by {head_count} heads")
        self.head_count = int(head_count)

    @property
    def embed_dim(self) -> int:
        return self.w_qkv.shape[1]

    @property
    def d_head(self) -> int:
        return self.embed_dim // self.head_count

    def values(self) -> list[Value]:
        return [self.w_qkv]


class RegisterTokens:
    """Per-head additive register biases for attention scores and values.

    r_qk is (heads, HW, HW) and r_v is (heads, d_head, HW): r_qk[i] is added
    to head i's raw score matrix and r_v[i] to head i's value rows — one
    register per head, shared by all batch items, sized for a fixed token
    count HW.  All-zero registers are a legal state and collapse the operator
    to plain attention.
    """

    def __init__(self, r_qk, r_v) -> None:
        self.r_qk = r_qk if isinstance(r_qk, Value) else Value(r_qk)
        self.r_v = r_v if isinstance(r_v, Value) else Value(r_v)
        qk, v = self.r_qk.shape, self.r_v.shape
        if len(qk) != 3 or qk[1] != qk[2] or qk[0] < 1:
            raise ShapeError(f"RegisterTokens: r_qk must be (heads, HW, HW), got {qk}")
        if len(v) != 3 or v[0] != qk[0] or v[2] != qk[1]:
            raise ShapeError(f"RegisterTokens: r_v must be ({qk[0]}, d_head, {qk[1]}), got {v}")

    @property
    def count(self) -> int:
        return self.r_qk.shape[0]

    @property
    def hw(self) -> int:
        return self.r_qk.shape[1]

    @property
    def d_head(self) -> int:
        return self.r_v.shape[1]

    def values(self) -> list[Value]:
        return [self.r_qk, self.r_v]


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
    into x, w_qkv, r_qk and r_v.  The backward holds the (B, heads, HW, HW)
    attention and its gradient; the softmax row-dot (ds ⊙ attn) summed over
    each row is taken one batch item at a time, so no third array of that
    size is allocated (4 MiB at the default config's p4, batch 2).

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
    w_qkv = p.w_qkv.data.transpose(1, 0, 2).reshape(c, 3 * c)  # (C, 3C): [W_q | W_k | W_v]
    tokens = x.data.reshape(b, c, hw).transpose(0, 2, 1).reshape(b * hw, c)
    # (3, B, heads, HW, d_head) views of the one projection product
    q, k, v = (tokens @ w_qkv).reshape(b, hw, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    if reg is not None:
        v = v + reg.r_v.data.swapaxes(-1, -2)
    attn = q @ k.swapaxes(-1, -2)  # (B, heads, HW, HW) scores, softmaxed in place
    if reg is not None:
        attn += reg.r_qk.data
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
            for item in range(b):  # the softmax row-dot item by item: no (B, heads, HW, HW) product
                ds[item] -= (ds[item] * attn[item]).sum(axis=-1, keepdims=True)
            ds *= attn
            ds *= inv_sqrt_dk
            dqkv = np.stack([ds @ k, ds.swapaxes(-1, -2) @ q, dv])  # (3, B, heads, HW, d_head)
            dqkv = dqkv.transpose(1, 3, 0, 2, 4).reshape(b * hw, 3 * c)  # as the projection product
            _accum(p.w_qkv, (tokens.T @ dqkv).reshape(c, 3, c).transpose(1, 0, 2))
            _accum(x, (dqkv @ w_qkv.T).reshape(b, hw, c).transpose(0, 2, 1).reshape(b, c, h, w))
            if reg is not None:
                # item by item into the gradient buffers: a summed (heads, HW, HW)
                # temporary would be a fresh multi-MB allocation on every call
                for item in range(b):
                    _accum(reg.r_qk, ds[item])
                    _accum(reg.r_v, dv[item].swapaxes(-1, -2))
        tape.record(backward)
    if return_attention:
        return out, list(attn.reshape(b * heads, hw, hw))
    return out


def attention_mass(a) -> np.ndarray:
    """Column sums of a row-stochastic attention matrix: incoming mass per token."""
    data = np.asarray(a, dtype=np.float64)
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

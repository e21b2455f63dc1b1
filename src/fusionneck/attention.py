"""Pooled multi-head self-attention gate over flattened feature maps.

The H·W spatial positions of a (B, C, H, W) map become tokens with C-wide
features (no positional encoding, so the operator is permutation-equivariant
over tokens).  Optional register biases shift the raw attention scores
(a (heads, HW, HW) tensor added before the 1/sqrt(d_k) scaling) and the
value rows (a (heads, d_head, HW) tensor); both are shared across the batch.
The neck reads attention only through its spatial mean, so ``mhsa_forward``
is that pooled gate as one primitive: the whole batch and all heads go
through stacked array products, blocks of query rows are softmaxed and
folded into the per-token attention mass, and the tape gets a single
hand-written backward rule, recorded through ``tensor._record``, that
recomputes each block.  No (HW, HW) attention array outlives one block.
Also provides the concurrent spatial/channel gate used to recalibrate fused
multi-dilation features.

``MhsaParams`` (the projections and the registers, one record) and
``ScseParams`` hold the arrays they are given and check their shapes once,
at construction; they draw nothing.  The neck's parameters are drawn once,
by ``neck.init_params`` over ``neck.parameter_spec``.
"""

from __future__ import annotations

import math

import numpy as np

from .convkit import ConvKernel, pointwise_conv
from .errors import ContractError, ShapeError
from .tensor import (
    GradCell,
    Tape,
    Tensor4,
    Value,
    _accum,
    _accum_own,
    _record,
    add,
    global_avg_pool,
    logistic,
    mul,
)


class MhsaParams:
    """Projection weights and optional register biases for multi-head self-attention.

    w_qkv is (3, D, D), D the channel count: the Q, K and V projections
    stacked in that order.  Heads are contiguous d_head-wide column blocks of
    each projection.  The registers come both or neither: r_qk is (heads,
    HW, HW) and r_v is (heads, d_head, HW); r_qk[i] is added to head i's raw
    score matrix and r_v[i] to head i's value rows, shared by all batch
    items and sized for a fixed token count HW.  All-zero registers are a
    legal state and collapse the operator to plain attention.
    """

    def __init__(self, w_qkv, head_count: int, r_qk=None, r_v=None) -> None:
        self.w_qkv = w_qkv if isinstance(w_qkv, Value) else Value(w_qkv)
        shape = self.w_qkv.shape
        if len(shape) != 3 or shape[0] != 3 or shape[1] != shape[2]:
            raise ShapeError(f"MhsaParams: w_qkv must be (3, D, D), got {shape}")
        if head_count < 1:
            raise ContractError(f"MhsaParams: head_count must be >= 1, got {head_count}")
        if shape[1] % head_count != 0:
            raise ShapeError(f"MhsaParams: embed dim {shape[1]} not divisible by {head_count} heads")
        self.head_count = int(head_count)
        if (r_qk is None) != (r_v is None):
            raise ContractError("MhsaParams: give both registers r_qk and r_v, or neither")
        self.r_qk, self.r_v = (r if r is None or isinstance(r, Value) else Value(r) for r in (r_qk, r_v))
        if r_qk is not None:
            heads, qk, v = self.head_count, self.r_qk.shape, self.r_v.shape
            if len(qk) != 3 or qk[0] != heads or qk[1] != qk[2]:
                raise ShapeError(f"MhsaParams: r_qk must be ({heads}, HW, HW), got {qk}")
            if v != (heads, self.d_head, qk[1]):
                raise ShapeError(f"MhsaParams: r_v must be ({heads}, {self.d_head}, {qk[1]}), got {v}")

    @property
    def embed_dim(self) -> int:
        return self.w_qkv.shape[1]

    @property
    def d_head(self) -> int:
        return self.embed_dim // self.head_count

    def values(self) -> list[Value]:
        """w_qkv, then r_qk and r_v when present: the ``parameter_spec`` order."""
        return [self.w_qkv] if self.r_qk is None else [self.w_qkv, self.r_qk, self.r_v]


BLOCK_BYTES = 1 << 20  # scores one block of query rows may hold, over every (item, head) pair


def _attention_block(q: np.ndarray, k: np.ndarray, r_qk: np.ndarray | None, rows: slice, scale: float) -> np.ndarray:
    """Softmaxed attention of the query rows ``rows`` over every key: (B, heads, rows, HW).

    The scores are (Q_rows Kᵀ + r_qk[:, rows]) · scale, each row shifted by
    its max before the exponential, so logits of any size stay finite.
    """
    a = q[:, :, rows] @ k.swapaxes(-1, -2)
    if r_qk is not None:
        a += r_qk[:, rows]
    a *= scale
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def mhsa_forward(
    x: Tensor4,
    p: MhsaParams,
    tape: Tape | None = None,
    trace: dict | None = None,
    block_rows: int | None = None,
) -> Tensor4:
    """Pooled multi-head self-attention gate over the flattened spatial grid, as one taped op.

    tokens = flatten(x) as (B·HW, C); one product gives Q | K | V for the
    whole batch, and head i owns columns i·d_head..(i+1)·d_head of each.
    Per (item, head) the attention is A = softmax_rows((Q Kᵀ + r_qk) /
    sqrt(d_head)) and the values are V′ = V + r_vᵀ (register terms only when
    ``p`` holds registers).  The output is the spatial mean of A V′, as a
    (B, C, 1, 1) map with the heads' d_head-wide blocks concatenated:
    Σ_j mass_j V′_j, where mass_j is the column mean of A.

    A is never built whole.  Blocks of ``block_rows`` query rows (by default
    as many as keep one block's scores, over every (item, head) pair, within
    1 MiB) are softmaxed and only added into the mass.  The tape gets one
    record whose backward recomputes each block's scores and applies the
    closed form, with g the output gradient and u = V′g / HW:

        dV′ = mass ⊗ g,   dS_blk = A_blk ⊙ (u − A_blk u) / sqrt(d_head),
        dQ_blk = dS_blk K,   dK += dS_blkᵀ Q_blk,   dr_qk[:, rows] = Σ_items dS_blk,

    accumulating into x, w_qkv, r_qk and r_v.  So no (HW, HW) array outlives
    one block in the forward or the backward.

    With a ``trace`` dict, it also stores ``trace["mass"]``, the (B, heads,
    HW) column means of A, and ``trace["mhsa_output"]``, the per-token
    output A V′ as a (B, C, H, W) map, both built block by block.
    """
    b, c, h, w = x.dims
    if c != p.embed_dim:
        raise ShapeError(f"mhsa_forward: input has {c} channels, params expect {p.embed_dim}")
    hw = h * w
    heads, d_head = p.head_count, p.d_head
    r_qk = None if p.r_qk is None else p.r_qk.data
    if r_qk is not None and r_qk.shape[1] != hw:
        raise ShapeError(f"mhsa_forward: registers sized for HW={r_qk.shape[1]}, input has HW={hw}")
    if block_rows is None:
        block_rows = max(1, BLOCK_BYTES // (8 * b * heads * hw))
    elif block_rows < 1:
        raise ContractError(f"mhsa_forward: block_rows must be >= 1, got {block_rows}")
    scale = 1.0 / math.sqrt(d_head)
    w_qkv = p.w_qkv.data.transpose(1, 0, 2).reshape(c, 3 * c)  # (C, 3C): [W_q | W_k | W_v]
    tokens = x.data.reshape(b, c, hw).transpose(0, 2, 1).reshape(b * hw, c)
    # (3, B, heads, HW, d_head) views of the one projection product
    q, k, v = (tokens @ w_qkv).reshape(b, hw, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    if r_qk is not None:
        v = v + p.r_v.data.swapaxes(-1, -2)
    mass = np.zeros((b, heads, hw))
    per_token = None if trace is None else np.empty((b, heads, hw, d_head))
    for start in range(0, hw, block_rows):
        rows = slice(start, start + block_rows)  # the last block may be shorter
        a = _attention_block(q, k, r_qk, rows, scale)
        mass += a.sum(axis=2)
        if per_token is not None:
            per_token[:, :, rows] = a @ v
    mass /= hw
    out = Tensor4((mass[:, :, None, :] @ v).reshape(b, c, 1, 1))
    if trace is not None:
        trace["mass"] = mass
        trace["mhsa_output"] = Tensor4(per_token.transpose(0, 1, 3, 2).reshape(b, c, h, w))
    if tape is None:
        return out

    def backward(g: np.ndarray, cells: list[GradCell]) -> None:
        gx, gw_qkv, *registers = cells  # r_qk's and r_v's cells when p holds registers
        g = g.reshape(b, heads, 1, d_head)
        dv = mass[..., None] * g  # (B, heads, HW, d_head)
        u = (g @ v.swapaxes(-1, -2)) / hw  # (B, heads, 1, HW): d mass over HW
        dq = np.empty_like(dv)
        dk = np.zeros_like(dv)
        d_rqk = None if r_qk is None else np.empty(r_qk.shape)
        for start in range(0, hw, block_rows):
            rows = slice(start, start + block_rows)
            a = _attention_block(q, k, r_qk, rows, scale)
            ds = u - a @ u.swapaxes(-1, -2)  # d scores of the block, scaled below
            ds *= a
            ds *= scale
            dq[:, :, rows] = ds @ k
            dk += ds.swapaxes(-1, -2) @ q[:, :, rows]
            if d_rqk is not None:
                d_rqk[:, rows] = ds.sum(axis=0)
        dqkv = np.stack([dq, dk, dv])  # (3, B, heads, HW, d_head)
        dqkv = dqkv.transpose(1, 3, 0, 2, 4).reshape(b * hw, 3 * c)  # as the projection product
        _accum(gw_qkv, (tokens.T @ dqkv).reshape(c, 3, c).transpose(1, 0, 2))
        _accum(gx, (dqkv @ w_qkv.T).reshape(b, hw, c).transpose(0, 2, 1).reshape(b, c, h, w))
        if d_rqk is not None:
            _accum_own(registers[0], d_rqk)
            _accum(registers[1], dv.sum(axis=0).swapaxes(-1, -2))
    return _record(tape, out, backward, x, *p.values())


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

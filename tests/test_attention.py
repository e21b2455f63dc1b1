"""Self-attention, register biases, attention mass, and the scSE gates."""

import numpy as np
import pytest

from fusionneck.attention import (
    MhsaParams,
    RegisterTokens,
    ScseParams,
    attention_mass,
    mhsa_forward,
    scse_recalibrate,
)
from fusionneck.convkit import ConvKernel
from fusionneck.errors import ContractError, ShapeError
from fusionneck.neck import NeckConfig, init_params
from fusionneck.tensor import Rng, Tape, Tensor4, grad_check, weighted_sum

# frozen scalar oracle for the scse hand case (reduce [0.5, 0.25], expand
# [1, -1], spatial [0.3, 0.1], input [1, 2]): hidden = 1.0,
# gc = [sigma(1), sigma(-1)], gs = sigma(0.5)
SCSE_HAND_EXPECTED = [1.3535179098318595, 1.7828015051436994]


def make_params(rng, dim, heads, sigma=0.6):
    return MhsaParams(rng.normal((3, dim, dim), sigma), head_count=heads)


def make_registers(rng, heads, hw, d_head, sigma):
    """Gaussian registers drawn r_qk first, then r_v."""
    return RegisterTokens(rng.normal((heads, hw, hw), sigma), rng.normal((heads, d_head, hw), sigma))


def make_scse(rng, channels=4, reduction=2, sigma=0.5):
    """Gaussian reduce, expand and spatial 1x1 kernels, drawn in that order, with zero biases."""
    hidden = channels // reduction
    shapes = ((hidden, channels), (channels, hidden), (1, channels))
    return ScseParams(*(ConvKernel(rng.normal((o, i, 1, 1), sigma), np.zeros(o)) for o, i in shapes))


def tokens_of(x):
    b, c, h, w = x.dims
    return x.data.reshape(b, c, h * w).transpose(0, 2, 1)  # (B, HW, C)


class TestMhsaForward:
    def test_zero_registers_equal_none(self):
        rng = Rng(0)
        x = Tensor4(rng.normal((2, 4, 2, 3)))
        p = make_params(rng.split(1), 4, 2)
        zeros = make_registers(rng.split(2), 2, 6, 2, sigma=0.0)
        a = mhsa_forward(x, p, zeros)
        b = mhsa_forward(x, p, None)
        assert np.max(np.abs(a.data - b.data)) < 1e-12

    def test_uniform_attention_closed_form(self):
        """W_q = W_k = 0 and W_v = I gives every token the token mean."""
        rng = Rng(1)
        x = Tensor4(rng.normal((2, 4, 2, 2)))
        p = MhsaParams(np.stack([np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4)]), head_count=2)
        out = mhsa_forward(x, p)
        expected = x.data.mean(axis=(2, 3), keepdims=True) * np.ones_like(x.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_single_token(self):
        rng = Rng(2)
        x = Tensor4(rng.normal((1, 4, 1, 1)))
        p = make_params(rng.split(1), 4, 2)
        out, attn = mhsa_forward(x, p, return_attention=True)
        for a in attn:
            np.testing.assert_array_equal(a, [[1.0]])
        expected = tokens_of(x)[0] @ p.w_qkv.data[2]
        np.testing.assert_allclose(out.data.reshape(4), expected.reshape(4), atol=1e-12)

    def test_rows_stochastic(self):
        rng = Rng(3)
        x = Tensor4(rng.normal((2, 4, 3, 3)))
        p = make_params(rng.split(1), 4, 4)
        reg = make_registers(rng.split(2), 4, 9, 1, sigma=0.5)
        _, attn = mhsa_forward(x, p, reg, return_attention=True)
        assert len(attn) == 2 * 4
        for a in attn:
            np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_convexity_bound_without_registers(self):
        """Each output head column lies inside the V-column range over tokens."""
        rng = Rng(4)
        x = Tensor4(rng.normal((1, 6, 2, 3)))
        p = make_params(rng.split(1), 6, 3)
        out = mhsa_forward(x, p)
        v = tokens_of(x)[0] @ p.w_qkv.data[2]  # (HW, C) value rows, heads concatenated
        out_tokens = tokens_of(out)[0]
        lo = v.min(axis=0) - 1e-12
        hi = v.max(axis=0) + 1e-12
        assert np.all(out_tokens >= lo) and np.all(out_tokens <= hi)

    def test_permutation_equivariance(self):
        rng = Rng(5)
        x = Tensor4(rng.normal((1, 4, 2, 2)))
        p = make_params(rng.split(1), 4, 2)
        perm = np.array([2, 0, 3, 1])
        xt = tokens_of(x)[0]
        x_perm = Tensor4(xt[perm].T.reshape(1, 4, 2, 2))
        out = tokens_of(mhsa_forward(x, p))[0]
        out_perm = tokens_of(mhsa_forward(x_perm, p))[0]
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_register_steering_suppresses_token(self):
        """A -1e6 column bias in every r_qk starves that token of mass."""
        for seed in range(10):
            rng = Rng(100 + seed)
            x = Tensor4(rng.normal((1, 4, 2, 2)))
            p = make_params(rng.split(1), 4, 2)
            reg = make_registers(rng.split(2), 2, 4, 2, sigma=0.3)
            target = seed % 4
            _, attn_before = mhsa_forward(x, p, reg, return_attention=True)
            steered = RegisterTokens(
                reg.r_qk.data - 1e6 * (np.arange(4) == target), reg.r_v.data.copy()
            )
            _, attn_after = mhsa_forward(x, p, steered, return_attention=True)
            for before, after in zip(attn_before, attn_after):
                mass_before = attention_mass(before)[target]
                mass_after = attention_mass(after)[target]
                assert mass_after < mass_before
                assert mass_after < 1e-6 * mass_before

    def test_shape_errors(self):
        rng = Rng(7)
        p = make_params(rng, 4, 2)
        with pytest.raises(ShapeError):
            mhsa_forward(Tensor4.zeros(1, 3, 2, 2), p)
        reg = make_registers(rng.split(1), 2, 4, 2, sigma=0.1)
        with pytest.raises(ShapeError):
            mhsa_forward(Tensor4.zeros(1, 4, 3, 3), p, reg)  # HW 9 vs registers at 4

    def test_head_count_must_divide(self):
        with pytest.raises(ShapeError):
            MhsaParams(np.zeros((3, 4, 4)), head_count=3)

    @pytest.mark.parametrize("shape", [(2, 4, 4), (3, 4, 2), (4, 4)])
    def test_w_qkv_must_be_three_square_projections(self, shape):
        with pytest.raises(ShapeError, match="w_qkv"):
            MhsaParams(np.zeros(shape), head_count=2)

    @pytest.mark.parametrize("qk_shape, v_shape", [
        ((2, 4, 3), (2, 2, 4)),  # r_qk not square
        ((2, 4, 4), (3, 2, 4)),  # r_v head count differs
        ((2, 4, 4), (2, 2, 5)),  # r_v token count differs
        ((4, 4), (2, 2, 4)),  # r_qk not stacked per head
    ])
    def test_register_shapes_checked(self, qk_shape, v_shape):
        with pytest.raises(ShapeError, match="RegisterTokens"):
            RegisterTokens(np.zeros(qk_shape), np.zeros(v_shape))


def register_config(sigma):
    """Small neck whose to4 step has 10x10 tokens and one head."""
    return NeckConfig(pyramid_width=4, head_count=1, in_channels=(1, 1, 1),
                      base_height=40, base_width=40, init_sigma=sigma)


class TestBuildRegisters:
    """Registers are built by ``init_params`` from ``Rng.normal`` draws."""

    def test_sigma_zero_all_zero(self):
        params = init_params(register_config(0.0), Rng(0))
        for step in params.steps.values():
            for m in step.registers.values():
                assert np.array_equal(m.data, np.zeros_like(m.data))

    def test_same_seed_bit_identical(self):
        a = init_params(register_config(0.7), Rng(9))
        b = init_params(register_config(0.7), Rng(9))
        for (name, ma), (_, mb) in zip(a.named_values(), b.named_values()):
            assert np.array_equal(ma.data, mb.data), name

    def test_sample_mean_within_clt_bound(self):
        sigma = 0.8
        params = init_params(register_config(sigma), Rng(10))
        draws = params.steps["to4"].registers.r_qk.data[0].reshape(-1)
        assert draws.size == 10 ** 4  # one (HW, HW) logit register at HW = 100
        assert abs(draws.mean()) < 5 * sigma / 100


class TestAttentionMass:
    def test_uniform_mass(self):
        n = 5
        mass = attention_mass(np.full((n, n), 1.0 / n))
        np.testing.assert_allclose(mass, np.ones(n), atol=1e-12)

    def test_identity_mass(self):
        mass = attention_mass(np.eye(4))
        np.testing.assert_array_equal(mass, np.ones(4))

    def test_point_column(self):
        n = 6
        a = np.zeros((n, n))
        a[:, 2] = 1.0
        mass = attention_mass(a)
        assert mass[2] == float(n)
        assert mass.sum() == float(n)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ContractError):
            attention_mass(np.full((3, 3), 0.5))


class TestScse:
    def test_zero_weights_give_half_gates_identity(self):
        p = make_scse(Rng(0), sigma=0.0)
        rng = Rng(1)
        x = Tensor4(rng.normal((2, 4, 3, 3)))
        out = scse_recalibrate(x, p)
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_output_bounded_by_twice_input(self):
        rng = Rng(2)
        p = make_scse(rng.split(0), sigma=1.5)
        x = Tensor4(rng.normal((2, 4, 3, 3), 3.0))
        out = scse_recalibrate(x, p)
        assert np.all(np.abs(out.data) <= 2.0 * np.abs(x.data) + 1e-12)
        assert np.all(np.isfinite(out.data))

    def test_scalar_hand_case(self):
        reduce = ConvKernel(np.array([0.5, 0.25]).reshape(1, 2, 1, 1), np.zeros(1))
        expand = ConvKernel(np.array([1.0, -1.0]).reshape(2, 1, 1, 1), np.zeros(2))
        spatial = ConvKernel(np.array([0.3, 0.1]).reshape(1, 2, 1, 1), np.zeros(1))
        p = ScseParams(reduce, expand, spatial)
        x = Tensor4(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        out = scse_recalibrate(x, p)
        np.testing.assert_allclose(out.data.reshape(2), SCSE_HAND_EXPECTED, atol=1e-12)

    def test_gates_strictly_inside_unit_interval(self):
        # logit scales kept below the ~36 where float64 logistic saturates
        from fusionneck.tensor import global_avg_pool, logistic
        from fusionneck.convkit import pointwise_conv

        rng = Rng(3)
        p = make_scse(rng.split(0), sigma=1.0)
        x = Tensor4(rng.normal((1, 4, 4, 4), 2.0))
        channel_gate = logistic(pointwise_conv(pointwise_conv(global_avg_pool(x), p.reduce), p.expand))
        spatial_gate = logistic(pointwise_conv(x, p.spatial))
        for g in (channel_gate.data, spatial_gate.data):
            assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_channel_mismatch(self):
        p = make_scse(Rng(4))
        with pytest.raises(ShapeError):
            scse_recalibrate(Tensor4.zeros(1, 3, 2, 2), p)

    def test_reduction_must_divide(self):
        reduce = ConvKernel(np.zeros((3, 4, 1, 1)), np.zeros(3))
        expand = ConvKernel(np.zeros((4, 3, 1, 1)), np.zeros(4))
        spatial = ConvKernel(np.zeros((1, 4, 1, 1)), np.zeros(1))
        with pytest.raises(ShapeError, match="does not divide"):
            ScseParams(reduce, expand, spatial)


def loop_mhsa(x, p, reg=None):
    """Plain NumPy MHSA, one (item, head) at a time: returns (B, C, H, W) output and attention list."""
    b, c, h, w = x.shape
    d_head = c // p.head_count
    out = np.empty((b, h * w, c))
    attention = []
    for item in range(b):
        tokens = x[item].reshape(c, h * w).T
        for head in range(p.head_count):
            cols = slice(head * d_head, (head + 1) * d_head)
            q, k, v = (tokens @ m[:, cols] for m in p.w_qkv.data)
            scores = q @ k.T
            if reg is not None:
                scores = scores + reg.r_qk.data[head]
                v = v + reg.r_v.data[head].T
            scores = scores / np.sqrt(d_head)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            attention.append(attn)
            out[item, :, cols] = attn @ v
    return out.transpose(0, 2, 1).reshape(b, c, h, w), attention


class TestMhsaLoopOracle:
    """The fused op against a per-(item, head) loop: pins the contiguous head column blocks."""

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("with_reg", [False, True])
    def test_forward_matches_loop(self, batch, heads, with_reg):
        rng = Rng(50 + 10 * batch + heads)
        c, h, w = 8, 2, 3
        x = Tensor4(rng.normal((batch, c, h, w)))
        p = make_params(rng.split(1), c, heads)
        reg = make_registers(rng.split(2), heads, h * w, c // heads, sigma=0.5) if with_reg else None
        out, attn = mhsa_forward(x, p, reg, return_attention=True)
        expected, expected_attn = loop_mhsa(x.data, p, reg)
        assert out.dims == (batch, c, h, w)
        assert np.max(np.abs(out.data - expected)) < 1e-12
        assert len(attn) == len(expected_attn) == batch * heads
        for got, want in zip(attn, expected_attn):
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("with_reg", [False, True])
    def test_one_tape_record_per_call(self, with_reg):
        rng = Rng(60)
        x = Tensor4(rng.normal((2, 8, 2, 3)))
        p = make_params(rng.split(1), 8, 4)
        reg = make_registers(rng.split(2), 4, 6, 2, sigma=0.5) if with_reg else None
        tape = Tape()
        mhsa_forward(x, p, reg, tape)
        assert len(tape) == 1
        mhsa_forward(x, p, reg, tape, return_attention=True)
        assert len(tape) == 2


class TestAttentionGradients:
    @pytest.mark.parametrize("with_reg", [False, True])
    def test_mhsa_backward(self, with_reg):
        for seed in range(3):
            rng = Rng(300 + seed)
            x = Tensor4(rng.normal((2, 4, 2, 2)))
            p = make_params(rng.split(1), 4, 2)
            reg = make_registers(rng.split(2), 2, 4, 2, sigma=0.5) if with_reg else None
            w = rng.normal((2, 4, 2, 2))
            params = [x, *p.values()] + (reg.values() if reg else [])

            def loss(tape):
                return weighted_sum(mhsa_forward(x, p, reg, tape), w, tape)

            assert grad_check(loss, params, epsilon=1e-6) < 1e-5

    @pytest.mark.parametrize("heads", [1, 4])
    def test_mhsa_backward_non_square_head_layouts(self, heads):
        rng = Rng(310 + heads)
        x = Tensor4(rng.normal((1, 4, 2, 3)))
        p = make_params(rng.split(1), 4, heads)
        reg = make_registers(rng.split(2), heads, 6, 4 // heads, sigma=0.5)
        w = rng.normal((1, 4, 2, 3))

        def loss(tape):
            return weighted_sum(mhsa_forward(x, p, reg, tape), w, tape)

        assert grad_check(loss, [x, *p.values(), *reg.values()], epsilon=1e-6) < 1e-5

    def test_scse_backward(self):
        for seed in range(3):
            rng = Rng(400 + seed)
            x = Tensor4(rng.normal((1, 4, 3, 3)))
            p = make_scse(rng.split(1), sigma=0.6)
            w = rng.normal((1, 4, 3, 3))

            def loss(tape):
                return weighted_sum(scse_recalibrate(x, p, tape), w, tape)

            assert grad_check(loss, [x, *p.values()], epsilon=1e-6) < 1e-5

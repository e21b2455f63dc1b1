"""The pooled self-attention gate, its block softmax, register biases, attention mass, and the scSE gates."""

import numpy as np
import pytest

from fusionneck.attention import (
    MhsaParams,
    ScseParams,
    _attention_block,
    mhsa_forward,
    scse_recalibrate,
)
from fusionneck.convkit import ConvKernel
from fusionneck.diagnostics import artifact_report
from fusionneck.errors import ContractError, ShapeError
from fusionneck.neck import NeckConfig, init_params
from fusionneck.tensor import Rng, Tape, Tensor4, grad_check, weighted_sum
from fusionneck.verify import loop_attention_gate

# frozen scalar oracle for the scse hand case (reduce [0.5, 0.25], expand
# [1, -1], spatial [0.3, 0.1], input [1, 2]): hidden = 1.0,
# gc = [sigma(1), sigma(-1)], gs = sigma(0.5)
SCSE_HAND_EXPECTED = [1.3535179098318595, 1.7828015051436994]


def make_params(rng, dim, heads, sigma=0.6):
    return MhsaParams(rng.normal((3, dim, dim), sigma), head_count=heads)


def with_registers(p, rng, hw, sigma):
    """``p``'s projections with Gaussian registers for HW = ``hw``, drawn r_qk first, then r_v."""
    heads = p.head_count
    return MhsaParams(p.w_qkv, heads, rng.normal((heads, hw, hw), sigma), rng.normal((heads, p.d_head, hw), sigma))


def make_scse(rng, channels=4, reduction=2, sigma=0.5):
    """Gaussian reduce, expand and spatial 1x1 kernels, drawn in that order, with zero biases."""
    hidden = channels // reduction
    shapes = ((hidden, channels), (channels, hidden), (1, channels))
    return ScseParams(*(ConvKernel(rng.normal((o, i, 1, 1), sigma), np.zeros(o)) for o, i in shapes))


def tokens_of(x):
    b, c, h, w = x.dims
    return x.data.reshape(b, c, h * w).transpose(0, 2, 1)  # (B, HW, C)


def traced(x, p, block_rows=None):
    """The gate data, the traced mass (B, heads, HW) and the traced per-token output map."""
    trace = {}
    gate = mhsa_forward(x, p, None, trace, block_rows)
    return gate.data, trace["mass"], trace["mhsa_output"]


class TestMhsaForward:
    def test_zero_registers_equal_none(self):
        rng = Rng(0)
        x = Tensor4(rng.normal((2, 4, 2, 3)))
        p = make_params(rng.split(1), 4, 2)
        a = traced(x, with_registers(p, rng.split(2), 6, sigma=0.0))
        b = traced(x, p)
        for got, want in zip(a[:2], b[:2]):
            assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(a[2].data - b[2].data)) < 1e-12

    def test_uniform_attention_closed_form(self):
        """W_q = W_k = 0 and W_v = I gives every token, and the gate, the token mean."""
        rng = Rng(1)
        x = Tensor4(rng.normal((2, 4, 2, 2)))
        p = MhsaParams(np.stack([np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4)]), head_count=2)
        gate, _, out = traced(x, p)
        mean = x.data.mean(axis=(2, 3), keepdims=True)
        np.testing.assert_allclose(gate, mean, atol=1e-12)
        np.testing.assert_allclose(out.data, mean * np.ones_like(x.data), atol=1e-12)

    def test_single_token(self):
        rng = Rng(2)
        x = Tensor4(rng.normal((1, 4, 1, 1)))
        p = make_params(rng.split(1), 4, 2)
        gate, mass, _ = traced(x, p)
        np.testing.assert_array_equal(mass, np.ones((1, 2, 1)))
        expected = tokens_of(x)[0] @ p.w_qkv.data[2]
        np.testing.assert_allclose(gate.reshape(4), expected.reshape(4), atol=1e-12)

    def test_rows_stochastic(self):
        """Each row of a block softmax sums to 1, and so each (item, head) mass."""
        rng = Rng(3)
        q, k = rng.normal((2, 4, 9, 1)), rng.normal((2, 4, 9, 1))
        r_qk = rng.normal((4, 9, 9), 0.5)
        for rows in (slice(0, 4), slice(4, 8), slice(8, 9)):
            a = _attention_block(q, k, r_qk, rows, 1.0)
            assert a.shape == (2, 4, rows.stop - rows.start, 9)
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        x = Tensor4(rng.normal((2, 4, 3, 3)))
        p = with_registers(make_params(rng.split(1), 4, 4), rng.split(2), 9, sigma=0.5)
        _, mass, _ = traced(x, p, block_rows=4)
        assert mass.shape == (2, 4, 9)
        np.testing.assert_allclose(mass.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_convexity_bound_without_registers(self):
        """Each output head column, and the gate, lies inside the V-column range over tokens."""
        rng = Rng(4)
        x = Tensor4(rng.normal((1, 6, 2, 3)))
        p = make_params(rng.split(1), 6, 3)
        gate, _, out = traced(x, p)
        v = tokens_of(x)[0] @ p.w_qkv.data[2]  # (HW, C) value rows, heads concatenated
        lo = v.min(axis=0) - 1e-12
        hi = v.max(axis=0) + 1e-12
        for rows in (tokens_of(out)[0], gate.reshape(1, 6)):
            assert np.all(rows >= lo) and np.all(rows <= hi)

    def test_permutation_equivariance(self):
        """Permuting tokens permutes the output and the mass and leaves the gate as it is."""
        rng = Rng(5)
        x = Tensor4(rng.normal((1, 4, 2, 2)))
        p = make_params(rng.split(1), 4, 2)
        perm = np.array([2, 0, 3, 1])
        xt = tokens_of(x)[0]
        x_perm = Tensor4(xt[perm].T.reshape(1, 4, 2, 2))
        gate, mass, out = traced(x, p)
        gate_perm, mass_perm, out_perm = traced(x_perm, p)
        np.testing.assert_allclose(tokens_of(out_perm)[0], tokens_of(out)[0][perm], atol=1e-12)
        np.testing.assert_allclose(mass_perm, mass[..., perm], atol=1e-12)
        np.testing.assert_allclose(gate_perm, gate, atol=1e-12)

    def test_register_steering_suppresses_token(self):
        """A -1e6 column bias in every r_qk starves that token of mass."""
        for seed in range(10):
            rng = Rng(100 + seed)
            x = Tensor4(rng.normal((1, 4, 2, 2)))
            p = with_registers(make_params(rng.split(1), 4, 2), rng.split(2), 4, sigma=0.3)
            target = seed % 4
            _, mass_before, _ = traced(x, p)
            steered = MhsaParams(p.w_qkv, 2, p.r_qk.data - 1e6 * (np.arange(4) == target), p.r_v.data.copy())
            _, mass_after, _ = traced(x, steered)
            before, after = mass_before[..., target], mass_after[..., target]
            assert np.all(after < before)
            assert np.all(after < 1e-6 * before)

    def test_shape_errors(self):
        rng = Rng(7)
        p = make_params(rng, 4, 2)
        with pytest.raises(ShapeError):
            mhsa_forward(Tensor4.zeros(1, 3, 2, 2), p)
        with pytest.raises(ShapeError, match="HW=4, input has HW=9"):
            mhsa_forward(Tensor4.zeros(1, 4, 3, 3), with_registers(p, rng.split(1), 4, sigma=0.1))

    def test_block_rows_must_be_positive(self):
        p = make_params(Rng(8), 4, 2)
        with pytest.raises(ContractError, match="block_rows"):
            mhsa_forward(Tensor4.zeros(1, 4, 2, 2), p, block_rows=0)

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
        ((3, 4, 4), (3, 2, 4)),  # r_qk and r_v agree, but not with head_count 2
        ((1, 4, 4), (1, 2, 4)),
        ((2, 4, 4), (2, 1, 4)),  # r_v d_head is not D / heads
        ((2, 4, 4), (2, 4, 4)),
    ])
    def test_register_shapes_checked(self, qk_shape, v_shape):
        with pytest.raises(ShapeError, match="MhsaParams: r_"):
            MhsaParams(np.zeros((3, 4, 4)), 2, np.zeros(qk_shape), np.zeros(v_shape))

    @pytest.mark.parametrize("given", ["r_qk", "r_v"])
    def test_registers_come_in_pairs(self, given):
        registers = {"r_qk": np.zeros((2, 4, 4)), "r_v": np.zeros((2, 2, 4))}
        with pytest.raises(ContractError, match="both registers"):
            MhsaParams(np.zeros((3, 4, 4)), 2, **{given: registers[given]})

    def test_values_follow_the_spec_order(self):
        p = with_registers(make_params(Rng(9), 4, 2), Rng(10), 4, sigma=0.1)
        assert [v.shape for v in p.values()] == [(3, 4, 4), (2, 4, 4), (2, 2, 4)]
        assert p.values() == [p.w_qkv, p.r_qk, p.r_v]
        plain = make_params(Rng(9), 4, 2)
        assert plain.values() == [plain.w_qkv] and plain.r_qk is None and plain.r_v is None


def register_config(sigma):
    """Small neck whose to4 step has 10x10 tokens and one head."""
    return NeckConfig(pyramid_width=4, head_count=1, in_channels=(1, 1, 1),
                      base_height=40, base_width=40, init_sigma=sigma)


class TestBuildRegisters:
    """Registers are built by ``init_params`` from ``Rng.normal`` draws."""

    def test_sigma_zero_all_zero(self):
        params = init_params(register_config(0.0), Rng(0))
        for step in params.steps.values():
            for m in (step.mhsa.r_qk, step.mhsa.r_v):
                assert np.array_equal(m.data, np.zeros_like(m.data))

    def test_same_seed_bit_identical(self):
        a = init_params(register_config(0.7), Rng(9))
        b = init_params(register_config(0.7), Rng(9))
        for (name, ma), (_, mb) in zip(a.named_values(), b.named_values()):
            assert np.array_equal(ma.data, mb.data), name

    def test_sample_mean_within_clt_bound(self):
        sigma = 0.8
        params = init_params(register_config(sigma), Rng(10))
        draws = params.steps["to4"].mhsa.r_qk.data[0].reshape(-1)
        assert draws.size == 10 ** 4  # one (HW, HW) logit register at HW = 100
        assert abs(draws.mean()) < 5 * sigma / 100


class TestAttentionMass:
    """The traced mass: per (item, head), the column means of the attention."""

    @staticmethod
    def _mass(r_qk_bias, hw=6, heads=2):
        rng = Rng(20)
        x = Tensor4(rng.normal((2, 4, 2, hw // 2)))
        p = make_params(rng.split(2), 4, heads)
        reg = with_registers(p, rng.split(1), hw, sigma=0.3)
        return traced(x, MhsaParams(p.w_qkv, heads, reg.r_qk.data + r_qk_bias, reg.r_v.data), block_rows=4)[1]

    def test_uniform_mass(self):
        rng = Rng(21)
        x = Tensor4(rng.normal((2, 4, 1, 5)))
        p = MhsaParams(np.stack([np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4)]), head_count=2)
        _, mass, _ = traced(x, p, block_rows=2)
        np.testing.assert_allclose(mass, np.full((2, 2, 5), 0.2), rtol=0, atol=1e-15)

    def test_identity_mass(self):
        """A +1e6 diagonal makes each token attend to itself only: 1/HW each."""
        mass = self._mass(1e6 * np.eye(6))
        np.testing.assert_array_equal(mass, np.full((2, 2, 6), 1 / 6))

    def test_point_column(self):
        bias = np.zeros((6, 6))
        bias[:, 2] = 1e6
        mass = self._mass(bias)
        assert np.all(mass[..., 2] == 1.0)
        assert np.all(mass.sum(axis=-1) == 1.0)

    def test_non_stochastic_rejected(self):
        """A mass whose (item, head) does not sum to 1 is no traced mass."""
        mass = self._mass(np.zeros((6, 6)))
        mass[1, 0] *= 0.9
        out = Tensor4.zeros(2, 4, 2, 3)
        with pytest.raises(ContractError):
            artifact_report(mass, out)


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


class TestMhsaLoopOracle:
    """The blocked gate against a per-(item, head) loop: pins the contiguous head column blocks."""

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("with_reg", [False, True])
    def test_forward_matches_loop(self, batch, heads, with_reg):
        rng = Rng(50 + 10 * batch + heads)
        c, h, w = 8, 2, 3
        x = Tensor4(rng.normal((batch, c, h, w)))
        p = make_params(rng.split(1), c, heads)
        if with_reg:
            p = with_registers(p, rng.split(2), h * w, sigma=0.5)
        gate_want, mass_want, out_want = loop_attention_gate(x.data, p)
        for block_rows in (1, 4, None):
            gate, mass, out = traced(x, p, block_rows)
            assert gate.shape == (batch, c, 1, 1) and mass.shape == (batch, heads, h * w)
            assert out.dims == (batch, c, h, w)
            assert np.max(np.abs(gate - gate_want)) < 1e-12
            assert np.max(np.abs(mass - mass_want)) < 1e-12
            assert np.max(np.abs(out.data - out_want)) < 1e-12

    @pytest.mark.parametrize("with_reg", [False, True])
    def test_one_tape_record_per_call(self, with_reg):
        rng = Rng(60)
        x = Tensor4(rng.normal((2, 8, 2, 3)))
        p = make_params(rng.split(1), 8, 4)
        if with_reg:
            p = with_registers(p, rng.split(2), 6, sigma=0.5)
        tape = Tape()
        mhsa_forward(x, p, tape)
        assert len(tape) == 1
        mhsa_forward(x, p, tape, {})
        assert len(tape) == 2


class TestAttentionGradients:
    @pytest.mark.parametrize("with_reg", [False, True])
    def test_mhsa_backward(self, with_reg):
        for seed in range(3):
            rng = Rng(300 + seed)
            x = Tensor4(rng.normal((2, 4, 2, 2)))
            p = make_params(rng.split(1), 4, 2)
            if with_reg:
                p = with_registers(p, rng.split(2), 4, sigma=0.5)
            w = rng.normal((2, 4, 1, 1))

            def loss(tape):
                return weighted_sum(mhsa_forward(x, p, tape), w, tape)

            assert grad_check(loss, [x, *p.values()], epsilon=1e-6) < 1e-5

    @pytest.mark.parametrize("heads", [1, 4])
    def test_mhsa_backward_non_square_head_layouts(self, heads):
        rng = Rng(310 + heads)
        x = Tensor4(rng.normal((1, 4, 2, 3)))
        p = with_registers(make_params(rng.split(1), 4, heads), rng.split(2), 6, sigma=0.5)
        w = rng.normal((1, 4, 1, 1))

        def loss(tape):
            return weighted_sum(mhsa_forward(x, p, tape, block_rows=4), w, tape)  # blocks of 4 + 2 rows

        assert grad_check(loss, [x, *p.values()], epsilon=1e-6) < 1e-5

    @pytest.mark.parametrize("with_reg", [False, True])
    def test_gradients_do_not_depend_on_the_block_size(self, with_reg):
        rng = Rng(320)
        x = Tensor4(rng.normal((2, 4, 3, 3)))
        p = make_params(rng.split(1), 4, 2)
        if with_reg:
            p = with_registers(p, rng.split(2), 9, sigma=0.5)
        w = rng.normal((2, 4, 1, 1))
        values = [x, *p.values()]
        grads = []
        for block_rows in (1, 4, 9):
            tape = Tape()
            loss = weighted_sum(mhsa_forward(x, p, tape, block_rows=block_rows), w, tape)
            loss.grad = np.ones(())
            tape.backward()
            grads.append([v.grad for v in values])
            for v in values:
                v.grad = None
        for other in grads[1:]:
            for a, b in zip(grads[0], other):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_scse_backward(self):
        for seed in range(3):
            rng = Rng(400 + seed)
            x = Tensor4(rng.normal((1, 4, 3, 3)))
            p = make_scse(rng.split(1), sigma=0.6)
            w = rng.normal((1, 4, 3, 3))

            def loss(tape):
                return weighted_sum(scse_recalibrate(x, p, tape), w, tape)

            assert grad_check(loss, [x, *p.values()], epsilon=1e-6) < 1e-5

"""Tensor, matrix, RNG, and primitive-op tests with gradient checks."""

import math

import numpy as np
import pytest

from fusionneck.errors import ContractError, EvaluationError, ShapeError
from fusionneck.tensor import (
    Matrix,
    Rng,
    Tape,
    Tensor4,
    Value,
    _accum,
    add,
    concat_channels,
    global_avg_pool,
    grad_check,
    logistic,
    matmul,
    mul,
    softmax_rows,
    sum_all,
    weighted_sum,
)


def naive_matmul(a, b):
    """Triple-loop matrix product oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestValues:
    def test_tensor4_requires_four_axes(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3)))

    def test_matrix_requires_two_axes(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros(4))

    def test_data_is_row_major_float64(self):
        t = Tensor4(np.arange(24).reshape(1, 2, 3, 4))
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.dims == (1, 2, 3, 4)


class TestElementwise:
    def test_add_zeros_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor4(rng.standard_normal((1, 2, 2, 2)))
        out = add(x, Tensor4.zeros(1, 2, 2, 2))
        assert np.array_equal(out.data, x.data)

    def test_add_of_zeros_gives_zeros(self):
        out = add(Tensor4.zeros(1, 2, 2, 2), Tensor4.zeros(1, 2, 2, 2))
        assert np.array_equal(out.data, np.zeros((1, 2, 2, 2)))

    def test_mul_by_ones_gate_is_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor4(rng.standard_normal((2, 3, 4, 4)))
        ones = Tensor4(np.ones((2, 3, 1, 1)))
        assert np.array_equal(mul(x, ones).data, x.data)

    def test_scalar_gate_hand_case(self):
        x = Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        gate = Tensor4(np.full((1, 1, 1, 1), 2.0))
        out = mul(x, gate)
        assert np.array_equal(out.data.reshape(2, 2), [[2.0, 4.0], [6.0, 8.0]])

    def test_spatial_gate_broadcast(self):
        rng = np.random.default_rng(2)
        x = Tensor4(rng.standard_normal((2, 3, 2, 2)))
        gate = Tensor4(rng.standard_normal((2, 1, 2, 2)))
        out = mul(x, gate)
        np.testing.assert_array_equal(out.data, x.data * gate.data)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            add(Tensor4.zeros(1, 2, 2, 2), Tensor4.zeros(1, 3, 2, 2))
        with pytest.raises(ShapeError):
            mul(Tensor4.zeros(1, 2, 2, 2), Tensor4.zeros(2, 2, 2, 2))


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(3)
        m = Matrix(rng.standard_normal((3, 3)))
        out = matmul(Matrix(np.eye(3)), m)
        np.testing.assert_allclose(out.data, m.data, atol=1e-15)

    def test_hand_case_vs_triple_loop(self):
        a = Matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Matrix(np.array([[5.0], [6.0]]))
        out = matmul(a, b)
        assert np.array_equal(out.data, [[17.0], [39.0]])
        np.testing.assert_array_equal(out.data, naive_matmul(a.data, b.data))

    def test_ones_dot(self):
        k = 7
        out = matmul(Matrix(np.ones((1, k))), Matrix(np.ones((k, 1))))
        assert out.data[0, 0] == float(k)

    def test_random_vs_triple_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5)))
            b = rng.standard_normal((a.shape[1], rng.integers(1, 5)))
            np.testing.assert_allclose(
                matmul(Matrix(a), Matrix(b)).data, naive_matmul(a, b), atol=1e-12
            )

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Matrix.zeros(2, 3), Matrix.zeros(4, 2))


class TestSoftmax:
    def test_equal_logits(self):
        out = softmax_rows(Matrix(np.full((2, 3), 1.7)))
        np.testing.assert_allclose(out.data, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(Matrix(np.array([[0.0, math.log(2.0)]])))
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 6))
        shifted = m + rng.standard_normal((4, 1))
        a = softmax_rows(Matrix(m)).data
        b = softmax_rows(Matrix(shifted)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one_property(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            scale_f = rng.choice([0.1, 1.0, 50.0, 1e3])
            m = Matrix(rng.standard_normal((5, 7)) * scale_f)
            out = softmax_rows(m)
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(np.isfinite(out.data))


class TestGlobalAvgPool:
    def test_constant_plane(self):
        out = global_avg_pool(Tensor4(np.full((1, 2, 3, 3), 4.5)))
        assert out.dims == (1, 2, 1, 1)
        np.testing.assert_array_equal(out.data.reshape(-1), [4.5, 4.5])

    def test_hand_mean(self):
        x = Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert global_avg_pool(x).data.flat[0] == 2.5

    def test_zeros(self):
        assert np.array_equal(global_avg_pool(Tensor4.zeros(2, 3, 4, 4)).data, np.zeros((2, 3, 1, 1)))


class TestConcat:
    def test_single_part_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor4(rng.standard_normal((1, 3, 2, 2)))
        assert np.array_equal(concat_channels([x]).data, x.data)

    def test_three_branch_dims(self):
        parts = [Tensor4.zeros(1, 2, 4, 4) for _ in range(3)]
        assert concat_channels(parts).dims == (1, 6, 4, 4)

    def test_round_trip_slices(self):
        rng = np.random.default_rng(7)
        parts = [Tensor4(rng.standard_normal((2, c, 3, 3))) for c in (1, 2, 3)]
        out = concat_channels(parts)
        lo = 0
        for p in parts:
            hi = lo + p.dims[1]
            assert np.array_equal(out.data[:, lo:hi], p.data)
            lo = hi

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            concat_channels([Tensor4.zeros(1, 2, 4, 4), Tensor4.zeros(1, 2, 3, 4)])


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(8)
        a = Tensor4(rng.standard_normal((2, 3, 4, 4)))
        b = Tensor4(rng.standard_normal((2, 3, 1, 1)))
        first = mul(a, b).data
        second = mul(a, b).data
        assert np.array_equal(first, second)
        m = Matrix(rng.standard_normal((6, 6)))
        assert np.array_equal(softmax_rows(m).data, softmax_rows(m).data)


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(42).normal((3, 3)), Rng(42).normal((3, 3)))

    def test_different_seed_differs(self):
        assert not np.array_equal(Rng(1).normal((4,)), Rng(2).normal((4,)))

    def test_split_streams_independent(self):
        root = Rng(5)
        a = root.split(0).normal((8,))
        b = root.split(1).normal((8,))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(5).split(0).normal((8,)))

    def test_negative_seed_or_split_index_refused(self):
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            Rng(-1)
        with pytest.raises(ContractError, match="split index must be >= 0, got -3"):
            Rng(0).split(-3)


class TestGradCheck:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(9)
        x = Value(rng.standard_normal(6))

        def loss(tape):
            return sum_all(mul(x, x, tape), tape)

        err = grad_check(loss, [x], epsilon=1e-5)
        assert err < 1e-6
        # analytic gradient is exactly 2x (mul accumulates x twice)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)

    def test_constant_function_zero_error(self):
        x = Value(np.ones(3))

        def loss(tape):
            return sum_all(Value(np.zeros(())), tape)

        assert grad_check(loss, [x]) == 0.0

    def test_softmax_sum_has_zero_gradient(self):
        rng = np.random.default_rng(10)
        m = Matrix(rng.standard_normal((1, 5)))

        def loss(tape):
            return sum_all(softmax_rows(m, tape), tape)

        err = grad_check(loss, [m], epsilon=1e-6)
        assert err < 1e-8
        np.testing.assert_allclose(m.grad, 0.0, atol=1e-12)

    def test_nonfinite_loss_raises(self):
        x = Value(np.array([1.0]))

        def loss(tape):
            return sum_all(Value(np.array(np.inf)), tape)

        with pytest.raises(EvaluationError):
            grad_check(loss, [x])

    def test_bad_epsilon(self):
        with pytest.raises(ContractError):
            grad_check(lambda tape: sum_all(Value(np.zeros(())), tape), [], epsilon=0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_primitive_compositions(self, seed):
        """Chain of primitives through the tape at several seeds."""
        rng = Rng(100 + seed)
        x = Tensor4(rng.normal((1, 2, 3, 3)))
        g = Tensor4(rng.normal((1, 2, 1, 1)))
        m = Matrix(rng.normal((4, 4)))
        w_t = rng.normal((1, 2, 1, 1))
        w_m = rng.normal((4, 4))

        def loss(tape):
            gated = mul(logistic(x, tape), g, tape)
            pooled = global_avg_pool(add(gated, g, tape), tape)
            s1 = weighted_sum(pooled, w_t, tape)
            s2 = weighted_sum(softmax_rows(matmul(m, m, tape), tape), w_m, tape)
            return add(s1, s2, tape)

        assert grad_check(loss, [x, g, m], epsilon=1e-6) < 1e-5


class TestAccum:
    def test_first_gradient_is_a_copy(self):
        v = Value(np.zeros((2, 3)))
        g = np.ones((2, 3))
        _accum(v, g)
        assert not np.shares_memory(v.grad, g)
        _accum(v, g)
        assert np.array_equal(v.grad, np.full((2, 3), 2.0)) and np.array_equal(g, np.ones((2, 3)))

    def test_read_only_broadcast_view_copied(self):
        v = Value(np.zeros((2, 3)))
        view = np.broadcast_to(np.arange(3.0), (2, 3))  # read-only, as sum_all and global_avg_pool pass
        _accum(v, view)
        assert not np.shares_memory(v.grad, view) and v.grad.flags.c_contiguous
        _accum(v, view)
        assert np.array_equal(v.grad, [[0.0, 2.0, 4.0], [0.0, 2.0, 4.0]])

    def test_add_gives_each_operand_its_own_gradient(self):
        a, b = Tensor4(np.zeros((1, 2, 2, 2))), Tensor4(np.zeros((1, 2, 2, 2)))
        tape = Tape()
        out = add(a, b, tape)
        out.grad = np.ones(out.shape)
        tape.backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad) and not np.shares_memory(b.grad, out.grad)


class TestFiniteness:
    def test_ops_preserve_finiteness(self):
        for seed in range(20):
            rng = Rng(200 + seed)
            x = Tensor4(rng.normal((1, 3, 3, 3), 100.0))
            assert np.all(np.isfinite(logistic(x).data))
            assert np.all(np.isfinite(global_avg_pool(x).data))
            m = Matrix(rng.normal((4, 4), 500.0))
            assert np.all(np.isfinite(softmax_rows(m).data))


class TestLogistic:
    def test_equals_two_branch_formula_bit_for_bit(self):
        """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, including ±0 and the extremes."""
        edges = np.array([0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300])
        x = np.concatenate([edges, Rng(11).normal((2, 3, 4, 5), 20.0).reshape(-1)]).reshape(2, 1, 9, 7)
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        expected[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        assert logistic(Tensor4(x)).data.tobytes() == expected.tobytes()

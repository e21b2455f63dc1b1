"""Tensor, RNG, and primitive-op tests with gradient checks."""

import dataclasses
import math
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from fusionneck import neck, tensor, verify
from fusionneck.attention import MhsaParams, _attention_block, mhsa_forward
from fusionneck.errors import ContractError, EvaluationError, ShapeError
from fusionneck.tensor import (
    Rng,
    Tape,
    Tensor4,
    Value,
    _accum,
    _accum_own,
    add,
    concat_channels,
    fork_join,
    global_avg_pool,
    grad_check,
    logistic,
    mul,
    sum_all,
    weighted_sum,
)


class TestValues:
    def test_tensor4_requires_four_axes(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3)))

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

    @pytest.mark.parametrize("shape", [(3, 4), (2, 1, 1, 5), ()])
    @pytest.mark.parametrize("sigma", [1.0, 0.45, 2, 0.01])
    def test_normal_scales_in_place_bit_identically(self, shape, sigma):
        """The in-place scaling gives the bits of ``float(sigma) * standard_normal(shape)``."""
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(13, spawn_key=(2,))))
        expected = float(sigma) * gen.standard_normal(shape)
        assert np.asarray(Rng(13).split(2).normal(shape, sigma)).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 1, 1, 5), (), (64, 64)])
    @pytest.mark.parametrize("sigma", [1.0, 0.45, 2, 1e308])
    def test_fill_into_a_callers_array_equals_a_fresh_draw(self, shape, sigma):
        """``fill_normal`` writes the bits ``normal`` returns into the given array, infs from 1e308 included."""
        out = np.full(shape, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow to inf warns nothing
            assert Rng(13).split(2).fill_normal(out, sigma) is out
            expected = Rng(13).split(2).normal(shape, sigma)
        assert out.tobytes() == np.asarray(expected).tobytes()
        if sigma == 1e308 and out.size > 1000:
            assert np.isinf(out).any() and np.isfinite(out).any()

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
        """(logistic(x), logistic(−x)) is the two-class softmax of (x, 0); its sum is constant."""
        rng = np.random.default_rng(10)
        x = Tensor4(rng.standard_normal((1, 1, 1, 5)))
        minus_one = Tensor4(np.full((1, 1, 1, 5), -1.0))

        def loss(tape):
            return sum_all(add(logistic(x, tape), logistic(mul(x, minus_one, tape), tape), tape), tape)

        # a gradient norm below 1e-8 takes grad_check's absolute-error fallback, not a 0/0
        err = grad_check(loss, [x], epsilon=1e-6)
        assert err < 1e-8
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_gradient_fails(self, nan_first):
        """A NaN in one tensor's taped gradient makes the result NaN, whichever tensor it is."""
        rng = np.random.default_rng(12)
        a, b = Value(rng.standard_normal(3)), Value(rng.standard_normal(4))
        bad = a if nan_first else b

        def loss(tape):
            out = add(sum_all(mul(a, a, tape), tape), sum_all(mul(b, b, tape), tape), tape)
            if tape is not None:
                tape.record(lambda: _accum(bad, np.full(bad.shape, np.nan)))
            return out

        assert math.isnan(grad_check(loss, [a, b], epsilon=1e-6))

    def test_nonfinite_loss_raises(self):
        x = Value(np.array([1.0]))

        def loss(tape):
            return sum_all(Value(np.array(np.inf)), tape)

        with pytest.raises(EvaluationError):
            grad_check(loss, [x])

    def test_bad_epsilon(self):
        with pytest.raises(ContractError):
            grad_check(lambda tape: sum_all(Value(np.zeros(())), tape), [], epsilon=0.0)

    @pytest.mark.parametrize("params", [[], [Value(np.zeros(0)), Value(np.zeros((2, 0)))]], ids=["none", "empty"])
    def test_no_elements_refused(self, params):
        """Params holding no elements would compare nothing and return 0.0."""
        with pytest.raises(ContractError, match="no elements"):
            grad_check(lambda tape: sum_all(Value(np.zeros(())), tape), params)

    @pytest.mark.parametrize("seed", range(5))
    def test_primitive_compositions(self, seed):
        """Chain of primitives through the tape at several seeds."""
        rng = Rng(100 + seed)
        x = Tensor4(rng.normal((1, 2, 3, 3)))
        g = Tensor4(rng.normal((1, 2, 1, 1)))
        m = Tensor4(rng.normal((1, 3, 2, 2)))
        w_t = rng.normal((1, 2, 1, 1))
        w_m = rng.normal((1, 6, 2, 2))

        def loss(tape):
            gated = mul(logistic(x, tape), g, tape)
            pooled = global_avg_pool(add(gated, g, tape), tape)
            s1 = weighted_sum(pooled, w_t, tape)
            swish = mul(m, logistic(m, tape), tape)  # m reaches each product along two paths
            s2 = weighted_sum(concat_channels([swish, mul(m, m, tape)], tape), w_m, tape)
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

    def test_rule_built_first_gradient_is_kept(self):
        v = Value(np.zeros((2, 3)))
        g = np.ones((2, 3))
        _accum_own(v, g)
        assert v.grad is g
        _accum_own(v, np.ones((2, 3)))
        assert np.array_equal(v.grad, np.full((2, 3), 2.0))

    def test_mul_by_itself_adds_into_the_kept_gradient(self):
        x = Tensor4(np.full((1, 1, 2, 2), 3.0))
        tape = Tape()
        out = mul(x, x, tape)
        out.grad = np.ones(out.shape)
        tape.backward()
        assert np.array_equal(x.grad, np.full((1, 1, 2, 2), 6.0)) and np.array_equal(out.grad, np.ones(out.shape))

    def test_add_gives_each_operand_its_own_gradient(self):
        a, b = Tensor4(np.zeros((1, 2, 2, 2))), Tensor4(np.zeros((1, 2, 2, 2)))
        tape = Tape()
        out = add(a, b, tape)
        out.grad = np.ones(out.shape)
        tape.backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad) and not np.shares_memory(b.grad, out.grad)


class TestReplay:
    def _chain(self):
        x = Tensor4(np.arange(4.0).reshape(1, 1, 2, 2))
        tape = Tape()
        loss = sum_all(mul(logistic(x, tape), x, tape), tape)
        loss.grad = np.ones(())
        return x, tape

    def test_length_counts_records_after_backward(self):
        x, tape = self._chain()
        assert len(tape) == 3
        tape.backward()
        assert len(tape) == 3 and x.grad is not None

    def test_second_backward_refused(self):
        x, tape = self._chain()
        tape.backward()
        first = x.grad.copy()
        with pytest.raises(ContractError, match="a tape replays once"):
            tape.backward()
        assert np.array_equal(x.grad, first)


class TestFiniteness:
    def test_ops_preserve_finiteness(self):
        for seed in range(20):
            rng = Rng(200 + seed)
            x = Tensor4(rng.normal((1, 3, 3, 3), 100.0))
            assert np.all(np.isfinite(logistic(x).data))
            assert np.all(np.isfinite(global_avg_pool(x).data))
            # logits of order 1e5: the block softmax must subtract each row's max
            q, k = rng.normal((2, 2, 4, 2), 500.0), rng.normal((2, 2, 4, 2), 500.0)
            for rows in (slice(0, 3), slice(3, 4)):
                a = _attention_block(q, k, None, rows, 1.0)
                np.testing.assert_allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
            big = Tensor4(rng.normal((2, 4, 2, 2), 500.0))
            trace = {}
            gate = mhsa_forward(big, MhsaParams(rng.normal((3, 4, 4)), 2), None, trace, block_rows=3)
            assert np.all(np.isfinite(gate.data)) and np.all(np.isfinite(trace["mhsa_output"].data))
            np.testing.assert_allclose(trace["mass"].sum(axis=-1), 1.0, rtol=0, atol=1e-12)


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


def _lane(x: Tensor4, fault=None):
    """A lane for ``fork_join``: logistic(x) * x, recorded on the lane's tape, after ``fault()`` if given."""
    def run(tape):
        if fault is not None:
            fault()
        return mul(logistic(x, tape), x, tape)
    return run


class LaneError(Exception):
    pass


class LabelTape(Tape):
    """A tape subclass whose constructor takes an argument, as a tracer's tape does."""

    def __init__(self, label: str) -> None:
        super().__init__()
        self.label = label
        self.kinds: list[tuple[str, str]] = []

    def record(self, fn) -> None:
        self.kinds.append((self.label, threading.current_thread().name))
        super().record(fn)


class TestForkJoin:
    def _pair(self):
        rng = Rng(31)
        return Tensor4(rng.normal((1, 2, 3, 3))), Tensor4(rng.normal((1, 2, 3, 3)))

    def _step(self, tape):
        x, y = self._pair()
        a, b = fork_join(_lane(x), _lane(y), tape)
        loss = add(sum_all(a, tape), sum_all(b, tape), tape)
        loss.grad = np.ones(())
        tape.backward()
        return [a.data, b.data, x.grad, y.grad]

    @pytest.mark.needs_lanes
    def test_lanes_equal_the_run_in_sequence_bit_for_bit(self, monkeypatch):
        start = threading.active_count()
        forked = self._step(Tape())
        assert threading.active_count() == start
        monkeypatch.setattr(tensor, "_lanes", lambda: False)
        sequential = self._step(Tape())
        for a, b in zip(forked, sequential):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.needs_lanes
    def test_one_entry_counts_every_closure_and_replays_once(self):
        x, y = self._pair()
        tape = Tape()
        fork_join(_lane(x), _lane(y), tape)
        assert len(tape._records) == 1 and len(tape) == 4
        tape.backward()
        assert len(tape) == 4
        with pytest.raises(ContractError, match="a tape replays once"):
            tape.backward()

    @pytest.mark.needs_lanes
    def test_lanes_record_on_child_tapes_of_the_callers_type(self):
        """Each lane gets its own tape of the caller's type, sharing the caller's other state."""
        x, y = self._pair()
        tape = LabelTape("step")
        seen = []
        fork_join(lambda t: seen.append(t) or _lane(x)(t), lambda t: seen.append(t) or _lane(y)(t), tape)
        assert len(seen) == 2 and seen[0] is not seen[1]
        assert all(type(t) is LabelTape and t is not tape and t.label == "step" for t in seen)
        main = threading.current_thread().name
        assert sorted(tape.kinds) == sorted([("step", main)] * 2 + [("step", "fusionneck-lane")] * 2)
        assert len(tape._records) == 1 and len(tape) == 4

    @pytest.mark.needs_lanes
    def test_blas_runs_one_thread_after_import_and_after_the_lanes(self):
        """Importing the library pins OpenBLAS to one thread for good: the lanes, taped or not, keep it."""
        _, get_threads = tensor._blas_threads()
        assert get_threads() == 1
        seen = []
        for tape in (Tape(), None):
            fork_join(lambda t: seen.append(get_threads()), lambda t: seen.append(get_threads()), tape)
        assert seen == [1] * 4 and get_threads() == 1

    @pytest.mark.needs_lanes
    @pytest.mark.parametrize("failing", ["first", "second", "both"])
    def test_error_arrives_after_both_lanes_end(self, failing):
        """The error keeps its type and message; with both failing, the first lane's wins."""
        x, y = self._pair()
        ended = []

        def fault(name):
            def raise_or_end():
                if failing in (name, "both"):
                    raise LaneError(f"{name} lane failed")
                ended.append(name)
            return raise_or_end

        start = threading.active_count()
        tape = Tape()
        with pytest.raises(LaneError, match="second" if failing == "second" else "first"):
            fork_join(_lane(x, fault("first")), _lane(y, fault("second")), tape)
        assert threading.active_count() == start
        assert ended == {"first": ["second"], "second": ["first"], "both": []}[failing]
        assert len(tape) == 0

    @pytest.mark.needs_lanes
    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_backward_error_arrives_after_both_lanes_end(self, failing):
        ran = []

        def lane(name):
            def rule():
                if name == failing:
                    raise LaneError(f"{name} rule failed")
                ran.append(name)
            return lambda tape: tape.record(rule)

        tape = Tape()
        fork_join(lane("first"), lane("second"), tape)
        start = threading.active_count()
        with pytest.raises(LaneError, match=f"{failing} rule failed"):
            tape.backward()
        assert threading.active_count() == start
        assert ran == ["second" if failing == "first" else "first"]

    def test_without_two_cpus_the_functions_run_in_sequence_on_the_callers_tape(self, monkeypatch):
        monkeypatch.setattr(tensor, "_usable_cpus", lambda: 1)
        order = []
        tape = LabelTape("step")
        x, y = self._pair()
        a, b = fork_join(lambda t: order.append(t) or _lane(x)(t), lambda t: order.append(t) or _lane(y)(t), tape)
        assert order == [tape, tape] and len(tape._records) == len(tape) == 4
        main = threading.current_thread().name
        assert tape.kinds == [("step", main)] * 4


TEST_PID = os.getpid()


def _force_processes(monkeypatch, n: int) -> None:
    """Share every finite-difference sweep among ``n`` processes, however short it is."""
    monkeypatch.setattr(tensor, "_sweep_processes", lambda predicted_s: n)


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _in_worker() -> bool:
    return os.getpid() != TEST_PID


def _square_loss(x: Value, fault):
    """sum(x * x); a plain evaluation first calls ``fault(x)``, which may raise or return a loss."""

    def loss(tape):
        bad = fault(x) if tape is None else None
        return sum_all(mul(x, x, tape), tape) if bad is None else bad

    return loss


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its ``args`` hold one value, ``__init__`` needs two."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the sweep is split on Linux only")
class TestSplitSweep:
    @pytest.mark.parametrize("gating_mode", ["raw", "logistic"])
    def test_tiny_neck_same_error_with_and_without_workers(self, monkeypatch, gating_mode):
        """verify's tiny neck (``_case_neck`` shapes) gives the same float split or not."""
        cfg = dataclasses.replace(verify._neck_test_config(1), gating_mode=gating_mode)
        rng = Rng(31)
        pin = neck.synthetic_pyramid(cfg, batch=1, rng=rng.split(1))
        params = verify.random_neck_params(cfg, rng.split(2), sigma=0.45)

        def loss(tape):
            out = neck.neck_forward(pin, params, cfg, tape)
            return add(add(sum_all(out.p3, tape), sum_all(out.p4, tape), tape), sum_all(out.p5, tape), tape)

        errors = []
        for n in (1, 2):
            _force_processes(monkeypatch, n)
            errors.append(grad_check(loss, params.values(), verify.NECK_EPS))
        assert errors[0] == errors[1] and errors[0] < verify.NECK_TOL
        assert _no_child_left()

    @pytest.mark.parametrize("processes", [2, 3, 12])
    def test_shares_join_in_order(self, monkeypatch, processes):
        """More processes than CPUs, or than elements to share, give the one-process result."""
        rng = np.random.default_rng(14)
        a, b = Value(rng.standard_normal((2, 3))), Value(rng.standard_normal(4))
        w = rng.standard_normal(4)

        def loss(tape):
            return add(sum_all(mul(a, logistic(a, tape), tape), tape), weighted_sum(mul(b, b, tape), w, tape), tape)

        _force_processes(monkeypatch, 1)
        expected = grad_check(loss, [a, b])
        before = a.data.tobytes() + b.data.tobytes()
        _force_processes(monkeypatch, processes)
        assert grad_check(loss, [a, b]) == expected
        assert a.data.tobytes() + b.data.tobytes() == before
        assert _no_child_left()

    def test_worker_exception_reaches_caller(self, monkeypatch):
        def fault(x):
            if _in_worker():
                raise KeyError("raised in a worker's share")

        _force_processes(monkeypatch, 2)
        x = Value(np.arange(6.0))
        before = x.data.tobytes()
        with pytest.raises(KeyError, match="raised in a worker's share"):
            grad_check(_square_loss(x, fault), [x])
        assert x.data.tobytes() == before
        assert _no_child_left()

    def test_exception_that_does_not_unpickle_is_named(self, monkeypatch):
        def fault(x):
            if _in_worker():
                raise TwoArgError("a", "b")

        _force_processes(monkeypatch, 2)
        x = Value(np.arange(6.0))
        with pytest.raises(EvaluationError, match="grad_check worker raised TwoArgError: a/b"):
            grad_check(_square_loss(x, fault), [x])
        assert _no_child_left()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_nan_loss_in_last_share_raises_same_error(self, monkeypatch, processes):
        """A NaN loss at the last element raises what it raises in one process."""
        x = Value(np.arange(1.0, 7.0))

        def fault(x):
            if x.data[-1] != 6.0:
                return Value(np.array(np.nan))

        _force_processes(monkeypatch, processes)
        with pytest.raises(EvaluationError) as info:
            grad_check(_square_loss(x, fault), [x])
        assert str(info.value) == "grad_check: non-finite loss during finite differencing"
        assert np.array_equal(x.data, np.arange(1.0, 7.0))
        assert _no_child_left()

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_first_failure_in_sweep_order_is_raised(self, monkeypatch, caller_fails):
        """Shares 1..2 | 3..4 | 5..6 all fail: the caller's error wins, else the first worker's."""
        original = np.arange(7.0)

        def fault(x):
            perturbed = int(np.flatnonzero(x.data != original)[0])
            if perturbed > 0 and (caller_fails or _in_worker()):
                raise KeyError(f"element {perturbed}")

        _force_processes(monkeypatch, 3)
        x = Value(original.copy())
        with pytest.raises(KeyError, match=f"element {1 if caller_fails else 3}"):
            grad_check(_square_loss(x, fault), [x])
        assert _no_child_left()

    def test_interrupt_kills_and_reaps_workers(self, monkeypatch):
        """An interrupt in the caller's share kills a worker that would otherwise never finish."""
        def fault(x):
            if _in_worker():
                signal.pause()  # waits until it is killed
            elif x.data[1] != 1.0:
                raise KeyboardInterrupt

        _force_processes(monkeypatch, 2)
        x = Value(np.arange(4.0))
        before = x.data.tobytes()
        with pytest.raises(KeyboardInterrupt):
            grad_check(_square_loss(x, fault), [x])
        assert x.data.tobytes() == before
        assert _no_child_left()

    def test_worker_killed_by_signal(self, monkeypatch):
        def fault(x):
            if _in_worker():
                os.kill(os.getpid(), signal.SIGKILL)

        _force_processes(monkeypatch, 2)
        x = Value(np.arange(6.0))
        with pytest.raises(EvaluationError, match=r"elements 3\.\.5 was killed by SIGKILL without a result"):
            grad_check(_square_loss(x, fault), [x])
        assert _no_child_left()

    def test_short_sweep_stays_in_process(self):
        assert tensor._sweep_processes(0.0) == 1
        assert tensor._sweep_processes(60.0) == len(os.sched_getaffinity(0))

    def test_sweep_and_lanes_count_cpus_alike(self, monkeypatch):
        """One helper counts the usable CPUs for the sweep split and for ``fork_join``'s lanes."""
        monkeypatch.setattr(tensor, "_usable_cpus", lambda: 3)
        assert tensor._sweep_processes(60.0) == 3
        monkeypatch.setattr(tensor, "_usable_cpus", lambda: 1)
        assert tensor._sweep_processes(60.0) == 1 and not tensor._lanes()

"""Neck topology: shapes, ablations, directionality, init, serialization."""

import dataclasses
import json
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionneck.attention import scse_recalibrate
from fusionneck.convkit import ConvKernel, conv2d, pointwise_conv
from fusionneck import attention, convkit, tensor, verify
from fusionneck.errors import ConfigError, ContractError, ParamsIOError, ShapeError
from fusionneck.neck import (
    LANE_MIN_ELEMENTS,
    PARAMS_FORMAT_VERSION,
    _params_from_arrays,
    NeckConfig,
    PyramidIn,
    init_and_forward,
    init_params,
    load_params,
    read_manifest,
    neck_forward,
    parallel_atrous_block,
    attention_upsample,
    parameter_spec,
    save_params,
    synthetic_pyramid,
)
from fusionneck.tensor import Rng, Tape, Tensor4, concat_channels, grad_check, sum_all, add, weighted_sum
from fusionneck.verify import random_neck_params

ARMS = {  # the ablation arms: config overrides, then (tensors, elements) at the default config
    "full": ({}, (58, 739_827)),
    "no_registers": ({"use_registers": False}, (54, 440_819)),
    "no_mhsa": ({"use_mhsa": False}, (52, 416_243)),
    "atrous": ({"atrous_mode": "atrous"}, (40, 733_248)),
    "standard": ({"atrous_mode": "standard"}, (22, 474_624)),
    "standard_no_mhsa": ({"atrous_mode": "standard", "use_mhsa": False}, (16, 151_040)),
}


def small_cfg(**overrides):
    base = dict(
        pyramid_width=4,
        head_count=2,
        scse_reduction=2,
        in_channels=(3, 4, 5),
        base_height=8,
        base_width=8,
    )
    base.update(overrides)
    return NeckConfig(**base)


def arm_params(params, cfg):
    """``cfg``'s params built from the tensors of the same names in ``params``."""
    return _params_from_arrays(cfg, {name: v.data for name, v in params.named_values()})


def pyramid_loss(pin, params, cfg):
    """loss(tape): the sum of every output level of ``neck_forward``."""
    def loss(tape):
        out = neck_forward(pin, params, cfg, tape)
        return add(add(sum_all(out.p3, tape), sum_all(out.p4, tape), tape), sum_all(out.p5, tape), tape)
    return loss


class TestConfig:
    def test_defaults_valid(self):
        cfg = NeckConfig()
        registers = [shape for name, shape in parameter_spec(cfg) if ".registers." in name]
        assert [shape[0] for shape in registers] == [cfg.head_count] * 4  # r_qk, r_v per head, two steps

    def test_width_head_divisibility(self):
        with pytest.raises(ConfigError):
            NeckConfig(pyramid_width=6, head_count=4)

    def test_dilations_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(dilations=())
        with pytest.raises(ConfigError):
            small_cfg(dilations=(1, 0))
        with pytest.raises(ConfigError):
            small_cfg(dilations=(1, 1, 2))

    def test_base_divisibility(self):
        with pytest.raises(ConfigError):
            small_cfg(base_height=6)

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(gating_mode="linear")
        with pytest.raises(ConfigError):
            small_cfg(atrous_mode="dense")

    def test_dict_round_trip(self):
        cfg = small_cfg(dilations=(1, 3), gating_mode="raw")
        assert NeckConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            NeckConfig.from_dict({"pyramid_widht": 8})

    @pytest.mark.parametrize("values", [
        [1, 2],
        {"pyramid_width": "64"},
        {"pyramid_width": True},
        {"pyramid_width": 64.0},
        {"head_count": "4"},
        {"use_mhsa": 1},
        {"gating_mode": 2},
        {"init_sigma": "0.01"},
        {"init_sigma": False},
        {"init_sigma": float("nan")},
        {"init_sigma": float("inf")},
        {"init_sigma": 10**400},  # a JSON int too large for a float
        {"dilations": 5},
        {"dilations": [1, "2"]},
        {"in_channels": [16, 32.5, 64]},
    ])
    def test_wrong_types_rejected(self, values):
        with pytest.raises(ConfigError):
            NeckConfig.from_dict(values)

    def test_int_init_sigma_accepted(self):
        assert NeckConfig.from_dict({"init_sigma": 0}).init_sigma == 0

    def test_int_init_sigma_is_stored_as_a_float(self):
        """Equal configs have one echo: an int sigma reads back as the float it equals."""
        cfg = NeckConfig.from_dict({"init_sigma": 1})
        assert type(cfg.init_sigma) is float and cfg == NeckConfig(init_sigma=1.0)
        assert json.dumps(cfg.to_dict()) == json.dumps(NeckConfig(init_sigma=1.0).to_dict())

    def test_register_count_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            NeckConfig.from_dict({"register_count": 4})

    @pytest.mark.parametrize("kwargs", [
        {"pyramid_width": "64"},
        {"dilations": (1.9, 2.5)},
        {"head_count": 2.0},
        {"use_registers": 0},
        {"init_sigma": float("nan")},
    ])
    def test_constructor_rejects_wrong_types(self, kwargs):
        """Direct construction gets the same type check as from_dict: no TypeError, no truncation."""
        with pytest.raises(ConfigError, match="wrong type"):
            NeckConfig(**kwargs)

    def test_constructor_turns_lists_into_tuples(self):
        cfg = NeckConfig(dilations=[1, 2], in_channels=[3, 4, 5])
        assert cfg.dilations == (1, 2) and cfg.in_channels == (3, 4, 5)
        assert hash(cfg) == hash(NeckConfig(dilations=(1, 2), in_channels=(3, 4, 5)))


class TestPyramidIn:
    """neck_forward derives each level's (B, C, H, W) from the config and c3's batch."""

    def forward(self, c3, c4, c5):
        cfg = small_cfg()
        return neck_forward(PyramidIn(c3, c4, c5), init_params(cfg, Rng(0)), cfg)

    def test_halving_enforced(self):
        with pytest.raises(ShapeError, match="c5"):
            self.forward(Tensor4.zeros(1, 3, 8, 8), Tensor4.zeros(1, 4, 4, 4), Tensor4.zeros(1, 5, 3, 2))

    def test_divisibility_enforced(self):
        with pytest.raises(ShapeError, match="c3"):
            self.forward(Tensor4.zeros(1, 3, 6, 6), Tensor4.zeros(1, 4, 3, 3), Tensor4.zeros(1, 5, 1, 1))

    def test_batch_taken_from_c3(self):
        with pytest.raises(ShapeError, match=r"c4: expected shape \(2, 4, 4, 4\), got \(1, 4, 4, 4\)"):
            self.forward(Tensor4.zeros(2, 3, 8, 8), Tensor4.zeros(1, 4, 4, 4), Tensor4.zeros(2, 5, 2, 2))

    def test_shape_checked_before_finiteness(self):
        c3 = Tensor4(np.full((1, 3, 8, 8), np.nan))
        with pytest.raises(ShapeError, match="c4"):
            self.forward(c3, Tensor4.zeros(1, 9, 4, 4), Tensor4.zeros(1, 5, 2, 2))

    def test_channel_mismatch_names_level(self):
        cfg = small_cfg()
        rng = Rng(0)
        pin = synthetic_pyramid(cfg, 1, rng)
        pin = PyramidIn(pin.c3, Tensor4.zeros(1, 9, 4, 4), pin.c5)
        params = init_params(cfg, rng.split(2))
        with pytest.raises(ShapeError, match="c4"):
            neck_forward(pin, params, cfg)

    @pytest.mark.parametrize("level", [3, 4, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_level(self, level, bad):
        cfg = small_cfg()
        rng = Rng(0)
        pin = synthetic_pyramid(cfg, 1, rng)
        pin.level(level).data[0, -1, 1, 0] = bad
        with pytest.raises(ContractError, match=f"c{level}: .*non-finite"):
            neck_forward(pin, init_params(cfg, rng.split(2)), cfg)


class TestForward:
    def test_zero_params_zero_output(self):
        for gating in ("raw", "logistic"):
            cfg = small_cfg(init_sigma=0.0, gating_mode=gating)
            rng = Rng(1)
            params = init_params(cfg, rng.split(2))
            pin = synthetic_pyramid(cfg, 2, rng.split(1))
            out = neck_forward(pin, params, cfg)
            for n in (3, 4, 5):
                assert np.array_equal(out.level(n).data, np.zeros_like(out.level(n).data))

    def test_shape_contract(self):
        cfg = NeckConfig(
            pyramid_width=8,
            head_count=2,
            scse_reduction=2,
            in_channels=(16, 32, 64),
            base_height=16,
            base_width=16,
        )
        rng = Rng(2)
        params = init_params(cfg, rng.split(2))
        pin = synthetic_pyramid(cfg, 2, rng.split(1))
        out = neck_forward(pin, params, cfg)
        assert out.p3.dims == (2, 8, 16, 16)
        assert out.p4.dims == (2, 8, 8, 8)
        assert out.p5.dims == (2, 8, 4, 4)

    def test_block_matches_primitive_composition(self):
        """Full-path block equals conv -> concat -> pointwise -> scse by hand."""
        cfg = small_cfg()
        rng = Rng(3)
        params = random_neck_params(cfg, rng, sigma=0.5)
        lp = params.levels[5]
        x = Tensor4(rng.normal((1, cfg.pyramid_width, 5, 5)))
        block_out = parallel_atrous_block(x, lp)
        branches = [conv2d(x, k) for k in lp.branches]
        by_hand = scse_recalibrate(pointwise_conv(concat_channels(branches), lp.post), lp.scse)
        assert np.max(np.abs(block_out.data - by_hand.data)) < 1e-12

    def test_standard_mode_is_single_dilation1_conv(self):
        """The standard arm runs its own level conv at dilation 1, whatever the dilation set."""
        cfg = small_cfg(atrous_mode="standard", dilations=(2, 3))
        rng = Rng(4)
        params = random_neck_params(cfg, rng, sigma=0.5)
        assert [name for name in params.tensors if name.startswith("level3.")] == [
            "level3.lateral.weight", "level3.lateral.bias", "level3.conv.weight", "level3.conv.bias",
        ]
        lp = params.levels[3]
        assert lp.post is None and lp.scse is None
        x = Tensor4(rng.normal((1, cfg.pyramid_width, 6, 6)))
        out = parallel_atrous_block(x, lp)
        own = ConvKernel(params.tensors["level3.conv.weight"], params.tensors["level3.conv.bias"], dilation=1)
        assert np.array_equal(out.data, conv2d(x, own).data)
        assert out.dims == x.dims

    def test_atrous_mode_equals_full_mode_with_neutral_gates(self):
        """With zero scse weights the gates sum to 1, so the paths agree."""
        rng = Rng(5)
        cfg_full = small_cfg()
        params = random_neck_params(cfg_full, rng, sigma=0.5)
        for lp in params.levels.values():
            for v in lp.scse.values():
                v.data[:] = 0.0
        pin = synthetic_pyramid(cfg_full, 1, rng.split(1))
        out_full = neck_forward(pin, params, cfg_full)
        cfg_atrous = small_cfg(atrous_mode="atrous")
        out_atrous = neck_forward(pin, arm_params(params, cfg_atrous), cfg_atrous)
        for n in (3, 4, 5):
            assert np.max(np.abs(out_full.level(n).data - out_atrous.level(n).data)) < 1e-12

    def test_unit_gate_matches_deconv_path(self):
        """Raw gating with pooled attention output 1 reduces to the deconv path."""
        cfg = small_cfg(gating_mode="raw")
        rng = Rng(6)
        params = random_neck_params(cfg, rng, sigma=0.5)
        step = params.steps["to4"]
        # constant-ones input with W_v = I makes every attention output token
        # all-ones regardless of W_q/W_k, so the pooled gate is exactly 1
        step.mhsa.w_qkv.data[2] = np.eye(cfg.pyramid_width)
        for v in (step.mhsa.r_qk, step.mhsa.r_v):
            v.data[:] = 0.0
        top = Tensor4(np.ones((1, cfg.pyramid_width, 2, 2)))
        from fusionneck.convkit import deconv2x

        gated = attention_upsample(top, step, cfg)
        unit = deconv2x(top, step.deconv)
        assert np.max(np.abs(gated.data - unit.data)) < 1e-12
        # dropping the attention path entirely gives the same result
        cfg_off = small_cfg(gating_mode="raw", use_mhsa=False)
        step_off = arm_params(params, cfg_off).steps["to4"]
        assert np.array_equal(attention_upsample(top, step_off, cfg_off).data, unit.data)

    def test_upsample_doubles_dims(self):
        cfg = small_cfg()
        rng = Rng(7)
        params = random_neck_params(cfg, rng, sigma=0.4)
        top = Tensor4(rng.normal((2, cfg.pyramid_width, 2, 2)))
        out = attention_upsample(top, params.steps["to4"], cfg)
        assert out.dims == (2, cfg.pyramid_width, 4, 4)

    def test_use_registers_false_equals_zeroed_registers(self):
        rng = Rng(8)
        cfg_on = small_cfg()
        cfg_off = small_cfg(use_registers=False)
        params = random_neck_params(cfg_on, rng, sigma=0.5)
        pin = synthetic_pyramid(cfg_on, 1, rng.split(1))
        out_off = neck_forward(pin, arm_params(params, cfg_off), cfg_off)
        for step in params.steps.values():
            for v in (step.mhsa.r_qk, step.mhsa.r_v):
                v.data[:] = 0.0
        out_zeroed = neck_forward(pin, params, cfg_on)
        for n in (3, 4, 5):
            assert np.max(np.abs(out_off.level(n).data - out_zeroed.level(n).data)) < 1e-12

    def test_use_mhsa_false_drops_gate(self):
        rng = Rng(9)
        cfg = small_cfg(use_mhsa=False)
        params = random_neck_params(cfg, rng, sigma=0.5)
        pin = synthetic_pyramid(cfg, 1, rng.split(1))
        out = neck_forward(pin, params, cfg)  # runs without attention machinery
        assert out.p3.dims == (1, 4, 8, 8)

    def test_top_down_directionality(self):
        rng = Rng(10)
        cfg = small_cfg()
        params = random_neck_params(cfg, rng, sigma=0.5)
        pin = synthetic_pyramid(cfg, 1, rng.split(1))
        base = neck_forward(pin, params, cfg)
        perturbed_c3 = PyramidIn(Tensor4(pin.c3.data + 1.0), pin.c4, pin.c5)
        out_c3 = neck_forward(perturbed_c3, params, cfg)
        assert np.array_equal(out_c3.p4.data, base.p4.data)
        assert np.array_equal(out_c3.p5.data, base.p5.data)
        assert not np.array_equal(out_c3.p3.data, base.p3.data)
        perturbed_c5 = PyramidIn(pin.c3, pin.c4, Tensor4(pin.c5.data + 1.0))
        out_c5 = neck_forward(perturbed_c5, params, cfg)
        assert np.max(np.abs(out_c5.p3.data - base.p3.data)) > 0.0

    def test_forward_deterministic(self):
        cfg = small_cfg()
        rng = Rng(11)
        params = init_params(cfg, rng.split(2))
        pin = synthetic_pyramid(cfg, 2, rng.split(1))
        a = neck_forward(pin, params, cfg)
        b = neck_forward(pin, params, cfg)
        for n in (3, 4, 5):
            assert np.array_equal(a.level(n).data, b.level(n).data)

    def test_full_neck_gradient(self):
        cfg = small_cfg(base_height=4, base_width=4, pyramid_width=2, head_count=1, in_channels=(2, 3, 4))
        rng = Rng(12)
        params = random_neck_params(cfg, rng.split(2), sigma=0.45)
        pin = synthetic_pyramid(cfg, 1, rng.split(1))
        assert grad_check(pyramid_loss(pin, params, cfg), params.values(), epsilon=1e-5) < 1e-4

    def test_params_for_another_config_refused(self):
        """Params decide the arm, so a forward under any other config is refused, naming the keys."""
        cfg = small_cfg()
        rng = Rng(13)
        pin = synthetic_pyramid(cfg, 1, rng.split(1))
        params = init_params(cfg, rng.split(2))
        other = small_cfg(use_registers=False, gating_mode="raw")
        with pytest.raises(ContractError, match=re.escape("keys differ: ['gating_mode', 'use_registers']")):
            neck_forward(pin, params, other)


class TestArms:
    """Each ablation arm owns exactly the tensors it runs."""

    @pytest.mark.parametrize("arm", ARMS)
    def test_default_config_tensor_and_element_counts(self, arm):
        overrides, counts = ARMS[arm]
        spec = parameter_spec(NeckConfig(**overrides))
        assert (len(spec), sum(int(np.prod(shape)) for _, shape in spec)) == counts

    @pytest.mark.parametrize("arm", ARMS)
    def test_every_tensor_gets_a_finite_gradient(self, arm):
        cfg = small_cfg(**ARMS[arm][0])
        rng = Rng(14)
        params = random_neck_params(cfg, rng.split(2))
        tape = Tape()
        loss = pyramid_loss(synthetic_pyramid(cfg, 2, rng.split(1)), params, cfg)(tape)
        loss.grad = np.ones(())
        tape.backward()
        for name, v in params.named_values():
            assert v.grad is not None and np.isfinite(v.grad).all(), name

    @pytest.mark.parametrize("arm", [arm for arm in ARMS if arm != "full"])  # full: test_full_neck_gradient
    def test_tiny_neck_grad_check(self, arm):
        """verify's tiny neck (width 2, base 4), run in this ablated arm, passes ``grad_check``."""
        cfg = dataclasses.replace(verify._neck_test_config(1), **ARMS[arm][0])
        rng = Rng(15)
        params = random_neck_params(cfg, rng.split(2), sigma=0.45)
        pin = synthetic_pyramid(cfg, 1, rng.split(1))
        assert grad_check(pyramid_loss(pin, params, cfg), params.values(), verify.NECK_EPS) < verify.NECK_TOL


def _zero_buffer_accum(target, grad):
    """Gradient accumulation as first written: a zeroed buffer, then ``+=``.

    The buffer takes its shape from ``grad``, which has the target's shape
    in every rule, since rules hand a gradient cell that holds no data.
    """
    if target.grad is None:
        target.grad = np.zeros(grad.shape)
    target.grad += grad


def _keep_all_replay(tape):
    """The reference replay: every closure runs in reverse order and stays on the tape."""
    for fn in reversed(tape._records):
        fn()


def _taped_step(cfg, replay=Tape.backward):
    """p3, p4, p5, then every param's and input's gradient, of one weighted-sum train step at batch 2; and its tape."""
    rng = Rng(0)
    pin = synthetic_pyramid(cfg, 2, rng.split(1))
    params = init_params(cfg, rng.split(2))
    weights = [rng.normal((2, cfg.pyramid_width, cfg.base_height // d, cfg.base_width // d)) for d in (1, 2, 4)]
    tape = Tape()
    out = neck_forward(pin, params, cfg, tape)
    loss = weighted_sum(out.p3, weights[0], tape)
    loss = add(loss, weighted_sum(out.p4, weights[1], tape), tape)
    loss = add(loss, weighted_sum(out.p5, weights[2], tape), tape)
    loss.grad = np.ones(())
    replay(tape)
    outputs = [out.p3.data, out.p4.data, out.p5.data]
    return outputs + [v.grad for v in params.values()] + [pin.level(n).grad for n in (3, 4, 5)], tape


def _step_gradients(cfg, replay=Tape.backward):
    """Every param's and input's gradient from one weighted-sum train step at batch 2."""
    return _taped_step(cfg, replay)[0][3:]


# the ablation arms, each at the default config
DEFAULT_ARMS = ["full", "no_registers", "no_mhsa", "atrous", "standard"]


class TestGradientAccumulation:
    def test_default_config_gradients_equal_zero_buffer_rule(self, monkeypatch):
        """Keeping or copying the first gradient changes no gradient bit (np.array_equal: zero signs may differ)."""
        cfg = NeckConfig()
        kept = _step_gradients(cfg)
        for module in (tensor, convkit, attention):
            monkeypatch.setattr(module, "_accum", _zero_buffer_accum)
        for module in (tensor, convkit, attention):
            monkeypatch.setattr(module, "_accum_own", _zero_buffer_accum)
        zero_buffer = _step_gradients(cfg)
        assert len(kept) == len(parameter_spec(cfg)) + 3
        for a, b in zip(kept, zero_buffer):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("arm", DEFAULT_ARMS)
    def test_replay_that_drops_and_hands_over_is_bit_identical(self, monkeypatch, arm):
        """Dropping closures as they run and keeping fresh first gradients changes no bit."""
        cfg = NeckConfig(**ARMS[arm][0])
        new = _step_gradients(cfg)
        for module in (tensor, convkit, attention):
            monkeypatch.setattr(module, "_accum_own", tensor._accum)
        old = _step_gradients(cfg, replay=_keep_all_replay)
        assert len(new) == ARMS[arm][1][0] + 3
        for a, b in zip(new, old):
            assert a is not None and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("arm", DEFAULT_ARMS)
    def test_no_two_gradients_share_memory(self, monkeypatch, arm):
        """No value's gradient overlaps another's: params, inputs, and every op output (its ``out.grad``)."""
        made = []
        for cls in (tensor.Value, tensor.Tensor4):
            def init(self, data, _init=cls.__init__):
                _init(self, data)
                made.append(self)
            monkeypatch.setattr(cls, "__init__", init)
        cfg = NeckConfig(**ARMS[arm][0])
        _step_gradients(cfg)
        grads = [v.grad for v in made if v.grad is not None]
        assert len(grads) > len(parameter_spec(cfg)) + 3  # op outputs too
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1:])


def _count_lane_runs(monkeypatch) -> list:
    """Record each ``fork_join`` that runs two threads (one per forward and one per backward)."""
    runs = []
    concurrently = tensor._concurrently
    monkeypatch.setattr(tensor, "_concurrently", lambda first, second: runs.append(1) or concurrently(first, second))
    return runs


def _in_sequence(monkeypatch, run, cfg):
    """``run(cfg)`` with ``fork_join``'s lanes off."""
    with monkeypatch.context() as patch:
        patch.setattr(tensor, "_lanes", lambda: False)
        return run(cfg)


def _forward_bytes(params, out, trace) -> list:
    """(name, dtype, shape, bytes) of every param, output level and traced array, in a fixed order."""
    arrays = [(name, v.data) for name, v in params.named_values()]
    arrays += [(f"p{n}", out.level(n).data) for n in (3, 4, 5)]
    for step, entry in sorted(trace.items()):
        arrays += [(f"{step}.mass", entry["mass"]), (f"{step}.mhsa_output", entry["mhsa_output"].data)]
    return [(name, a.dtype, a.shape, a.tobytes()) for name, a in arrays]


def _tapeless_forward(cfg, seed=4):
    """``init_params`` then a tape-less, traced ``neck_forward`` at batch 2, as ``_forward_bytes``."""
    rng = Rng(seed)
    pin = synthetic_pyramid(cfg, 2, rng.split(1))
    params, trace = init_params(cfg, rng.split(2)), {}
    return _forward_bytes(params, neck_forward(pin, params, cfg, trace=trace), trace)


def _drawn_forward(cfg, seed=4):
    """The same draws and forward through ``init_and_forward``, as ``_forward_bytes``."""
    rng = Rng(seed)
    pin = synthetic_pyramid(cfg, 2, rng.split(1))
    trace: dict = {}
    return _forward_bytes(*init_and_forward(pin, cfg, rng.split(2), trace), trace)


def _taped_bytes(cfg) -> list:
    """``_taped_step``'s outputs and gradients as (dtype, shape, bytes)."""
    return [(a.dtype, a.shape, a.tobytes()) for a in _taped_step(cfg)[0]]


def _check_short_switch_interval(monkeypatch, cases):
    """For each (run, reference, lane_runs): ``run`` of a default neck under a 1 us switch interval
    forks ``lane_runs`` lanes and equals ``reference`` run in sequence."""
    cfg = NeckConfig()
    runs = _count_lane_runs(monkeypatch)
    for run, reference, lane_runs in cases:
        runs.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            forked = run(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == lane_runs
        assert forked == _in_sequence(monkeypatch, reference, cfg)


class TestLanes:
    """Every forward of a default-size neck, taped or not, runs the finest level beside the coarse path."""

    @pytest.mark.needs_lanes
    @pytest.mark.parametrize("arm", DEFAULT_ARMS)
    def test_lanes_equal_the_run_in_sequence_bit_for_bit(self, monkeypatch, arm):
        """A taped step runs two lanes and a tape-less forward one; each equals its run in sequence."""
        cfg = NeckConfig(**ARMS[arm][0])
        start = threading.active_count()
        runs = _count_lane_runs(monkeypatch)
        forked, tape = _taped_step(cfg)
        assert len(runs) == 2 and threading.active_count() == start
        tapeless = _tapeless_forward(cfg)
        assert len(runs) == 3 and threading.active_count() == start
        assert len(tapeless) == ARMS[arm][1][0] + 3 + (2 * 2 if cfg.use_mhsa else 0)
        monkeypatch.setattr(tensor, "_lanes", lambda: False)
        sequential, sequential_tape = _taped_step(cfg)
        assert len(runs) == 3 and len(tape) == len(sequential_tape)
        assert len(forked) == ARMS[arm][1][0] + 6
        for a, b in zip(forked, sequential):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert tapeless == _tapeless_forward(cfg)

    @pytest.mark.needs_lanes
    def test_lanes_under_a_short_switch_interval(self, monkeypatch):
        """Threads switching every microsecond lose no gradient update or trace entry.

        A taped step and a tape-less forward each still equal their run in sequence.
        """
        _check_short_switch_interval(monkeypatch, ((_taped_bytes, _taped_bytes, 2),
                                                   (_tapeless_forward, _tapeless_forward, 1)))

    def test_default_step_counts_every_closure_and_replays_once(self):
        _, tape = _taped_step(NeckConfig())
        assert len(tape) == 60
        with pytest.raises(ContractError, match="a tape replays once"):
            tape.backward()

    def test_no_lanes_below_the_size_rule(self, monkeypatch):
        runs = _count_lane_runs(monkeypatch)
        tiny = small_cfg()  # a finest map of 2 * 4 * 8 * 8 elements
        assert 2 * tiny.pyramid_width * tiny.base_height * tiny.base_width < LANE_MIN_ELEMENTS
        _taped_step(tiny)
        assert runs == []


class TestInitAndForward:
    """The draw at the head of the coarse lane equals ``init_params`` then a tape-less ``neck_forward``."""

    @pytest.mark.parametrize("arm", DEFAULT_ARMS)
    @pytest.mark.parametrize("lanes", [pytest.param(True, marks=pytest.mark.needs_lanes), False],
                             ids=["lanes", "sequence"])
    def test_equals_init_params_then_neck_forward_bit_for_bit(self, monkeypatch, arm, lanes):
        """With lanes it runs exactly one; the reference runs in sequence."""
        if not lanes:
            monkeypatch.setattr(tensor, "_lanes", lambda: False)
        cfg = NeckConfig(**ARMS[arm][0])
        runs = _count_lane_runs(monkeypatch)
        start = threading.active_count()
        together = _drawn_forward(cfg)
        assert runs == ([1] if lanes else []) and threading.active_count() == start
        traced = 2 * 2 if cfg.use_mhsa else 0
        assert len(together) == ARMS[arm][1][0] + 3 + traced
        assert together == _in_sequence(monkeypatch, _tapeless_forward, cfg)

    @pytest.mark.needs_lanes
    def test_lanes_under_a_short_switch_interval(self, monkeypatch):
        """Threads switching every microsecond lose no draw and no trace entry."""
        _check_short_switch_interval(monkeypatch, ((_drawn_forward, _tapeless_forward, 1),))

    def test_below_the_size_rule_runs_in_sequence(self, monkeypatch):
        tiny = small_cfg()  # a finest map of 2 * 4 * 8 * 8 elements
        assert 2 * tiny.pyramid_width * tiny.base_height * tiny.base_width < LANE_MIN_ELEMENTS
        runs = _count_lane_runs(monkeypatch)
        together, apart = _drawn_forward(tiny), _tapeless_forward(tiny)
        assert runs == [] and together == apart

    @pytest.mark.needs_lanes
    def test_lane_draws_the_coarse_tensors(self, monkeypatch):
        """Level 3's weights are drawn on the calling thread, every later one on the lane, in spec order."""
        cfg = NeckConfig()
        drawn = []
        fill = Rng.fill_normal

        def record(rng, out, sigma=1.0):
            drawn.append((out.shape, threading.current_thread().name))
            return fill(rng, out, sigma)

        rng = Rng(4)
        pin = synthetic_pyramid(cfg, 2, rng.split(1))
        monkeypatch.setattr(Rng, "fill_normal", record)
        init_and_forward(pin, cfg, rng.split(2))
        weights = [(name, shape) for name, shape in parameter_spec(cfg) if not name.endswith(".bias")]
        assert [shape for shape, _ in drawn] == [shape for _, shape in weights]
        main = threading.current_thread().name
        assert [thread for _, thread in drawn] == [
            main if name.startswith("level3.") else "fusionneck-lane" for name, _ in weights
        ]

    def test_invalid_input_raises_before_any_draw(self, monkeypatch):
        cfg = small_cfg()
        rng = Rng(4)
        pin = synthetic_pyramid(cfg, 2, rng.split(1))
        monkeypatch.setattr(Rng, "fill_normal", lambda *args: pytest.fail("drew before validating the input"))
        with pytest.raises(ShapeError, match="c4: expected shape"):
            init_and_forward(PyramidIn(pin.c3, pin.c5, pin.c5), cfg, rng.split(2))


class TestInitParams:
    def test_same_seed_bit_identical(self):
        cfg = small_cfg()
        a = init_params(cfg, Rng(3))
        b = init_params(cfg, Rng(3))
        for (na, va), (nb, vb) in zip(a.named_values(), b.named_values()):
            assert na == nb
            assert np.array_equal(va.data, vb.data)

    def test_weight_std_matches_sigma(self):
        cfg = NeckConfig(
            pyramid_width=16,
            head_count=4,
            scse_reduction=4,
            in_channels=(16, 32, 64),
            base_height=32,
            base_width=32,
        )
        params = init_params(cfg, Rng(4))
        weights = np.concatenate(
            [v.data.reshape(-1) for name, v in params.named_values() if not name.endswith(".bias")]
        )
        assert weights.size >= 10 ** 5
        assert 0.0095 <= weights.std() <= 0.0105

    def test_biases_exactly_zero(self):
        params = init_params(small_cfg(), Rng(5))
        for name, v in params.named_values():
            if name.endswith(".bias"):
                assert np.array_equal(v.data, np.zeros_like(v.data))

    def test_spec_matches_structure(self):
        cfg = small_cfg()
        params = init_params(cfg, Rng(6))
        names = [(n, v.shape) for n, v in params.named_values()]
        assert names == parameter_spec(cfg)

    def test_structure_holds_the_named_values(self):
        """In every arm, each kernel and MHSA tensor (registers too) is the named table's own Value, and no other is."""
        for overrides, _ in ARMS.values():
            params = init_params(small_cfg(**overrides), Rng(6))
            parts = []
            for lp in params.levels.values():
                parts += [lp.lateral, *lp.branches, lp.post, lp.scse]
            for sp in params.steps.values():
                parts += [sp.mhsa, sp.deconv]
            reachable = [v for part in parts if part is not None for v in part.values()]
            assert sorted(map(id, reachable)) == sorted(map(id, params.values()))


def pack_stream(manifest: dict, payload: bytes, version: int = PARAMS_FORMAT_VERSION, length_delta: int = 0,
                header: str = "fusionneck-params {version} {length}\n") -> bytes:
    """A parameter stream with the given manifest and payload, as save_params lays it out.

    ``version`` and ``length_delta`` edit the header's format version and
    manifest length, and ``header`` its spelling.
    """
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("ascii")
    header = header.format(version=version, length=len(manifest_bytes) + length_delta)
    return header.encode("ascii") + manifest_bytes + payload


def relaid(tensors: list[dict], chunks: dict[str, bytes]) -> bytes:
    """Give ``tensors`` back-to-back offsets in list order; return the payload laid out to match."""
    offset = 0
    for t in tensors:
        t["offset"] = offset
        offset += len(chunks[t["name"]])
    return b"".join(chunks[t["name"]] for t in tensors)


def saved_stream(cfg: NeckConfig, seed: int) -> tuple[dict, bytes, dict[str, bytes]]:
    """(manifest, payload, payload bytes by tensor name) of a freshly saved stream."""
    manifest, payload = read_manifest(save_params(init_params(cfg, Rng(seed))))
    chunks = {}
    for t in manifest["tensors"]:
        chunks[t["name"]] = payload[t["offset"]:t["offset"] + 8 * int(np.prod(t["shape"]))]
    return manifest, payload, chunks


STREAM_EDITS = ("reorder", "drop", "duplicate", "name", "shape", "offset", "truncate", "extend", "version", "length",
                "key", "format", "header")
# header lines int() and split() read as save_params's, in other spellings
HEADER_RESPELLINGS = (
    "fusionneck-params 0_{version} {length}\n",
    "fusionneck-params +{version} {length}\n",
    "fusionneck-params 0{version} {length}\n",
    "fusionneck-params {version} +{length}\n",
    "fusionneck-params {version} 0{length}\n",
    "  fusionneck-params   {version} {length}  \r\n",
    "fusionneck-params\t{version} {length}\n",
    "fusionneck-params {version} {length}\r\n",
)
# JSON values other than the written format version 3, its float and string spellings included
OTHER_FORMAT_VERSIONS = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=5), st.integers(),
    st.lists(st.integers(), max_size=2),
).filter(lambda v: json.dumps(v) != json.dumps(PARAMS_FORMAT_VERSION))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        cfg = small_cfg()
        params = init_params(cfg, Rng(7))
        blob = save_params(params)
        restored = load_params(blob, cfg)
        for (na, va), (nb, vb) in zip(params.named_values(), restored.named_values()):
            assert na == nb
            assert va.data.tobytes() == vb.data.tobytes()

    def test_save_refuses_a_value_off_the_layout(self):
        """A value reshaped after init would be written under its spec shape; save_params refuses it."""
        cfg = small_cfg()
        params = init_params(cfg, Rng(7))
        value = params.tensors["level3.lateral.weight"]
        value.data = value.data.reshape(value.shape[1], value.shape[0], 1, 1)
        with pytest.raises(ShapeError, match=r"level3\.lateral\.weight"):
            save_params(params)

    def test_payload_length_matches_manifest(self):
        cfg = small_cfg()
        params = init_params(cfg, Rng(8))
        blob = save_params(params)
        header, rest = blob.split(b"\n", 1)
        manifest_len = int(header.split()[2])
        manifest = json.loads(rest[:manifest_len])
        payload = rest[manifest_len:]
        total = sum(int(np.prod(t["shape"])) for t in manifest["tensors"])
        assert len(payload) == total * 8

    def test_corrupted_shape_names_tensor(self):
        cfg = small_cfg()
        manifest, payload = read_manifest(save_params(init_params(cfg, Rng(9))))
        manifest["tensors"][5]["shape"][0] += 1
        name = manifest["tensors"][5]["name"]
        with pytest.raises(ParamsIOError, match=name.replace(".", r"\.")):
            load_params(pack_stream(manifest, payload), cfg)

    def test_overlapping_payload_names_tensor(self):
        cfg = small_cfg()
        blob = save_params(init_params(cfg, Rng(9)))
        manifest, payload = read_manifest(blob)
        first, second = manifest["tensors"][:2]
        second["offset"] = first["offset"]
        with pytest.raises(ParamsIOError, match="right after tensor") as exc:
            load_params(pack_stream(manifest, payload), cfg)
        assert first["name"] in str(exc.value) and second["name"] in str(exc.value)

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_uncovered_payload_bytes_name_tensor(self, where):
        cfg = small_cfg()
        manifest, payload = read_manifest(save_params(init_params(cfg, Rng(9))))
        tensors = manifest["tensors"]
        if where == "before":
            for t in tensors:
                t["offset"] += 8
            payload, name = bytes(8) + payload, tensors[0]["name"]
            message = rf"entry 0 must be tensor {re.escape(name)} .* at offset 0 \(the payload start\)"
        else:
            payload, name = payload + bytes(8), tensors[-1]["name"]
            message = f"after tensor {re.escape(name)} belong to no tensor"
        with pytest.raises(ParamsIOError, match=message):
            load_params(pack_stream(manifest, payload), cfg)

    def test_reordered_entries_refused(self):
        """Entries in another order, with offsets and payload moved to match, are not the layout save_params writes."""
        cfg = small_cfg()
        manifest, _, chunks = saved_stream(cfg, 9)
        tensors = manifest["tensors"]
        tensors[0], tensors[1] = tensors[1], tensors[0]
        payload = relaid(tensors, chunks)
        with pytest.raises(ParamsIOError, match=r"entry 0 must be tensor level3\.lateral\.weight"):
            load_params(pack_stream(manifest, payload), cfg)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_structured_edit_never_loads(self, data):
        """Every structured edit of a saved stream raises ParamsIOError.

        Edits: reorder, drop or duplicate entries (the payload relaid to
        match); change one entry's name, shape or offset; truncate or extend
        the payload; change the header's version or manifest length, or
        respell the header; add a manifest key, or change or drop the
        manifest's format version.  Raw
        payload byte flips are out of scope: the stream carries no checksum,
        so a flip that leaves a finite value loads as that value.
        """
        cfg = small_cfg()
        manifest, payload, chunks = saved_stream(cfg, 5)
        tensors = manifest["tensors"]
        n = len(tensors)
        edit = data.draw(st.sampled_from(STREAM_EDITS), label="edit")
        i = data.draw(st.integers(0, n - 1), label="entry")
        version, length_delta, header = PARAMS_FORMAT_VERSION, 0, "fusionneck-params {version} {length}\n"
        if edit == "reorder":
            order = data.draw(st.permutations(range(n)).filter(lambda p: list(p) != list(range(n))))
            tensors[:] = [tensors[j] for j in order]
            payload = relaid(tensors, chunks)
        elif edit == "drop":
            del tensors[i]
            payload = relaid(tensors, chunks)
        elif edit == "duplicate":
            tensors.insert(i, dict(tensors[i]))
            payload = relaid(tensors, chunks)
        elif edit == "name":
            tensors[i]["name"] = data.draw(st.text(max_size=30).filter(lambda s: s != tensors[i]["name"]))
        elif edit == "shape":
            old = tensors[i]["shape"]
            tensors[i]["shape"] = data.draw(st.lists(st.integers(0, 20), max_size=5).filter(lambda s: s != old))
        elif edit == "offset":
            tensors[i]["offset"] += data.draw(st.integers(-len(payload), len(payload)).filter(bool))
        elif edit == "truncate":
            payload = payload[:-data.draw(st.integers(1, len(payload)))]
        elif edit == "extend":
            payload += data.draw(st.binary(min_size=1, max_size=64))
        elif edit == "version":
            version = data.draw(st.integers(-10, 10**6).filter(lambda v: v != PARAMS_FORMAT_VERSION))
        elif edit == "length":
            length_delta = data.draw(st.integers(-200, 200).filter(bool))
        elif edit == "key":
            key = data.draw(st.text(max_size=10).filter(lambda k: k not in manifest), label="key")
            manifest[key] = data.draw(st.one_of(st.none(), st.integers(), st.text(max_size=5)), label="value")
        elif edit == "format":
            if data.draw(st.booleans(), label="drop"):
                del manifest["format_version"]
            else:
                manifest["format_version"] = data.draw(OTHER_FORMAT_VERSIONS, label="format_version")
        else:
            header = data.draw(st.sampled_from(HEADER_RESPELLINGS), label="header")
        with pytest.raises(ParamsIOError):
            load_params(pack_stream(manifest, payload, version, length_delta, header), cfg)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_tensor_named(self, bad):
        """The reader's check: a saved stream with one payload value patched to ``bad``."""
        cfg = small_cfg()
        manifest, payload, _ = saved_stream(cfg, 10)
        start = next(t["offset"] for t in manifest["tensors"] if t["name"] == "level5.lateral.weight") + 8
        payload = payload[:start] + np.array([bad], "<f8").tobytes() + payload[start + 8:]
        with pytest.raises(ParamsIOError, match=r"level5\.lateral\.weight .*non-finite"):
            load_params(pack_stream(manifest, payload), cfg)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_writer_refuses_non_finite_tensor(self, bad):
        """save_params refuses what load_params would, with the reader's message."""
        params = init_params(small_cfg(), Rng(10))
        params.tensors["level5.lateral.weight"].data[1, 0, 0, 0] = bad
        with pytest.raises(ParamsIOError, match=r"^tensor level5\.lateral\.weight holds non-finite values$"):
            save_params(params)

    def test_truncated_payload_names_tensor(self):
        cfg = small_cfg()
        blob = save_params(init_params(cfg, Rng(10)))
        with pytest.raises(ParamsIOError, match="truncated payload"):
            load_params(blob[:-16], cfg)

    def test_version_mismatch_rejected(self):
        cfg = small_cfg()
        blob = save_params(init_params(cfg, Rng(11)))
        header = f"fusionneck-params {PARAMS_FORMAT_VERSION} ".encode("ascii")
        bad = blob.replace(header, f"fusionneck-params {PARAMS_FORMAT_VERSION + 1} ".encode("ascii"), 1)
        with pytest.raises(ParamsIOError, match="version"):
            load_params(bad, cfg)

    def test_config_mismatch_rejected(self):
        cfg = small_cfg()
        blob = save_params(init_params(cfg, Rng(12)))
        other = small_cfg(gating_mode="raw")
        with pytest.raises(ParamsIOError, match="config mismatch"):
            load_params(blob, other)

    def test_bad_magic_rejected(self):
        with pytest.raises(ParamsIOError, match="magic"):
            load_params(b"not a params file", small_cfg())

    @pytest.mark.parametrize("manifest", [
        b"{not json",
        b"[1, 2]",
        b'{"tensors": []}',
        b'{"config": {}, "tensors": [{"shape": [1], "offset": 0}]}',
        b'{"config": {}, "tensors": [{"name": "x", "offset": 0}]}',
        b'{"config": {}, "tensors": [{"name": "x", "shape": [1]}]}',
        b'{"config": {}, "tensors": [{"name": "x", "shape": [1], "offset": "0"}]}',
    ])
    def test_malformed_manifest_rejected(self, manifest):
        blob = f"fusionneck-params {PARAMS_FORMAT_VERSION} {len(manifest)}\n".encode("ascii") + manifest
        with pytest.raises(ParamsIOError, match="manifest"):
            load_params(blob, small_cfg())

    @pytest.mark.parametrize("manifest", [b"{not json", b"[1, 2]", b'{"tensors": []}', b'{"config": {}}'])
    def test_read_manifest_refuses_a_stream_without_config_and_tensors(self, manifest):
        """read_manifest checks the JSON shape only; the entries are load_params's comparison."""
        blob = f"fusionneck-params {PARAMS_FORMAT_VERSION} {len(manifest)}\n".encode("ascii") + manifest
        with pytest.raises(ParamsIOError, match="manifest"):
            read_manifest(blob)

    @pytest.mark.parametrize("extra", [5, "x", None, [1], {"name": "x"}])
    def test_unexpected_entry_printed_as_json(self, extra):
        """An entry past the index is named as its JSON text, whatever its type."""
        cfg = small_cfg()
        manifest, payload, _ = saved_stream(cfg, 12)
        manifest["tensors"].append(extra)
        with pytest.raises(ParamsIOError, match=re.escape(f"unexpected tensor in manifest: {json.dumps(extra)}")):
            load_params(pack_stream(manifest, payload), cfg)

    @pytest.mark.parametrize("edit, message", [
        ({"extra": 1}, "manifest key 'extra' must be (absent), found 1"),
        ({"format_version": "abc"}, 'manifest key \'format_version\' must be 3, found "abc"'),
        ({"format_version": 3.0}, "manifest key 'format_version' must be 3, found 3.0"),
        ({"config": {"use_mhsa": 1}}, "manifest config mismatch on keys: ['use_mhsa']"),
    ])
    def test_manifest_other_than_the_written_one_names_the_key(self, edit, message):
        cfg = small_cfg()
        manifest, payload, _ = saved_stream(cfg, 12)
        for key, value in edit.items():
            manifest[key] = {**manifest[key], **value} if isinstance(value, dict) else value
        with pytest.raises(ParamsIOError, match=f"^{re.escape(message)}$"):
            load_params(pack_stream(manifest, payload), cfg)

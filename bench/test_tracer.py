"""The tracer restores every function it wraps; untraced runs call the plain library.

    PYTHONPATH=src python -m pytest -q bench
"""

import numpy as np
import pytest

from fusionneck import neck, tensor
from fusionneck.neck import NeckConfig
from run import Outcomes, run_op
from tracer import NECK_STAGES, StageTape, Tracer

CFG = NeckConfig(
    pyramid_width=4, head_count=2, scse_reduction=2, in_channels=(2, 3, 4),
    base_height=8, base_width=8, init_sigma=0.5,
)


class TinyForward:
    """Workload stand-in: one taped forward and backward of a small neck."""

    def __init__(self) -> None:
        rng = tensor.Rng(3)
        self.pin = neck.synthetic_pyramid(CFG, 1, rng.split(1))
        self.params = neck.init_params(CFG, rng.split(2))

    def op(self, i, tracer=None):
        tape = tensor.Tape() if tracer is None else StageTape(tracer)
        out = neck.neck_forward(self.pin, self.params, CFG, tape)
        loss = tensor.sum_all(out.p3, tape)
        loss.grad = np.ones_like(loss.data)
        tape.backward()
        grads = [v.grad.copy() for v in self.params.values()]
        self.params.zero_grad()
        return [out.p3.data, out.p4.data, out.p5.data] + grads

    def check(self, i, result):
        return None


def _installed(tracer):
    return {(module.__name__, attr): getattr(module, attr) for module, attr, *_ in tracer.targets()}


def _counts(tracer):
    return {name: stats.calls for name, stats in tracer.spans.items()}


def test_tracer_wraps_then_restores_every_function():
    tracer = Tracer()
    before = _installed(tracer)
    with tracer:
        during = _installed(tracer)
        for key, original in before.items():
            assert during[key] is not original, key
            assert during[key].__wrapped__ is original, key
    assert _installed(tracer) == before
    assert all(_installed(tracer)[key] is fn for key, fn in before.items())


def test_tracer_restores_when_traced_code_raises():
    tracer = Tracer()
    before = _installed(tracer)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert all(_installed(tracer)[key] is fn for key, fn in before.items())


def test_untraced_run_calls_unmodified_library():
    workload = TinyForward()
    tracer = Tracer()
    outcomes = Outcomes()
    _, plain = run_op(workload, 0, outcomes)
    assert _counts(tracer) == {}
    _, traced = run_op(workload, 1, outcomes, tracer)
    after_trace = _counts(tracer)
    assert after_trace["convkit.conv2d"] > 0
    for module, attr, *_ in tracer.targets():
        assert not hasattr(getattr(module, attr), "bench_tracer"), attr
    _, again = run_op(workload, 2, outcomes)
    assert _counts(tracer) == after_trace
    assert outcomes.failed == 0
    for a, b, c in zip(plain, traced, again):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_stages_cover_the_neck_forward_and_backward():
    workload = TinyForward()
    tracer = Tracer()
    with tracer:
        workload.op(0, tracer)
    assert set(tracer.stage_fwd_s) == set(NECK_STAGES)
    assert set(NECK_STAGES) <= set(tracer.stage_bwd_s)
    calls = _counts(tracer)
    assert calls["convkit.conv2d"] == 3 * len(CFG.dilations)
    # lateral and fusion per level, plus reduce, expand and spatial inside each SCSE
    assert calls["convkit.pointwise_conv"] == 3 * 2 + 3 * 3
    assert calls["attention.mhsa_forward"] == 2
    assert calls["convkit.deconv2x"] == 2

"""How long a train step holds memory, and glibc's heap policy set when ``fusionneck.tensor`` is imported.

``Tape.backward`` drops each closure once it has run, so what a rule captured
is freed while the backward still runs; the release tests check that with a
weak reference and with the traced peak of one default-config step.  A rule
holds the arrays it reads and gradient cells, not the Values it adds
gradients into, so op outputs no rule reads are freed during the forward;
the traced bytes alive right after a taped forward bound that.  The
attention gate keeps no (HW, HW) array beyond one block of query rows; a
40×40 forward and backward bounds that.  ``fusionneck forward`` draws the
coarse levels' parameters on a lane beside the finest level, so the two
lanes' temporaries overlap; the traced peak of one default run bounds that.

glibc heap policy, and what it must not change:

Freed blocks now stay in the process and are handed out again, so reused heap
memory holds whatever was last written there instead of fresh zeroed pages.
The poison test reruns the neck and the detection metrics, which fill
``np.empty`` buffers (``convkit._lowered``, ``detmetrics._greedy_hits``),
after leaving NaN in freed memory: a read before a write would show.
(``grad_check``'s buffer is written element by element in the loop that
fills it, and a NaN left there would make its result NaN, which fails any
tolerance.)
"""

import platform
import resource
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from fusionneck.attention import MhsaParams, mhsa_forward
from fusionneck.cli import RunConfig, cmd_forward
from fusionneck.detmetrics import evaluate_records, load_detections, load_ground_truths
from fusionneck.neck import NeckConfig, init_params, neck_forward, synthetic_pyramid
from fusionneck.tensor import Rng, Tape, Tensor4, add, sum_all, weighted_sum
from fusionneck.verify import random_neck_params

DATA = Path(__file__).parent / "data"
BLOCK = (16 << 20) // 8  # float64 elements in 16 MiB


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set for glibc's malloc only")
def test_freed_block_is_reused_without_faults():
    np.empty(BLOCK).fill(1.0)
    before = _minor_faults()
    again = np.empty(BLOCK)
    again.fill(1.0)
    faults = _minor_faults() - before
    assert faults < 16, f"{faults} minor faults writing a reused 16 MiB block"


def _tiny_run() -> dict:
    """Every output, gradient and AP result at a tiny config, as exact bytes or reprs."""
    cfg = NeckConfig(pyramid_width=4, head_count=2, scse_reduction=2, in_channels=(3, 4, 5),
                     base_height=8, base_width=8)
    rng = Rng(21)
    params = random_neck_params(cfg, rng.split(2), sigma=0.5)
    pin = synthetic_pyramid(cfg, 2, rng.split(1))
    run = {}
    out = neck_forward(pin, params, cfg)
    run["forward"] = [level.data.tobytes() for level in (out.p3, out.p4, out.p5)]

    tape = Tape()
    out = neck_forward(pin, params, cfg, tape)
    loss = add(add(sum_all(out.p3, tape), sum_all(out.p4, tape), tape), sum_all(out.p5, tape), tape)
    loss.grad = np.ones_like(loss.data)
    tape.backward()
    run["taped"] = [level.data.tobytes() for level in (out.p3, out.p4, out.p5)]
    run["grads"] = [v.grad.tobytes() for v in params.values() + [pin.c3, pin.c4, pin.c5]]

    dets = load_detections(str(DATA / "dets_4class.txt"))
    gts = load_ground_truths(str(DATA / "gts_4class.txt"))
    run["ap"] = repr(evaluate_records(dets, gts))
    return run


def test_results_do_not_depend_on_reused_memory():
    first = _tiny_run()
    poison = np.full(BLOCK, np.nan)
    del poison
    assert _tiny_run() == first


def _reads(captured):
    def backward():
        captured.sum()
    return backward


def test_closure_capture_is_freed_during_backward():
    captured = np.ones(1000)
    ref = weakref.ref(captured)
    dead = []
    tape = Tape()
    tape.record(lambda: dead.append(ref() is None))  # replayed last
    tape.record(_reads(captured))  # the only holder of ``captured``
    del captured
    tape.backward()
    assert dead == [True] and len(tape) == 2


# The traced peak of one default-config, batch-2 train step (inputs and params
# excluded): about 51 MiB while the tape held every closure until it was
# dropped, about 30 MiB with closures dropped as they replay, about 25 MiB
# once the attention gate held no (HW, HW) array beyond one block of rows,
# about 21-24 MiB with rules that hold cells and two lanes running at once.
STEP_PEAK_MIB = 32

# The traced bytes alive right after that step's taped forward: about 20 MiB
# while rules held the Values they add gradients into, so every op output
# stayed alive until the backward; about 11 MiB with rules holding only the
# arrays they read and gradient cells.
FORWARD_ALIVE_MIB = 14


def _default_step():
    """One default-config, batch-2 train step, with a hook run right after its taped forward."""
    cfg = NeckConfig()
    rng = Rng(0)
    pin = synthetic_pyramid(cfg, 2, rng.split(1))
    params = init_params(cfg, rng.split(2))
    weights = [rng.normal((2, cfg.pyramid_width, cfg.base_height // d, cfg.base_width // d)) for d in (1, 2, 4)]

    def step(after_forward=lambda: None) -> int:
        tape = Tape()
        out = neck_forward(pin, params, cfg, tape)
        after_forward()
        loss = add(weighted_sum(out.p3, weights[0], tape), weighted_sum(out.p4, weights[1], tape), tape)
        loss = add(loss, weighted_sum(out.p5, weights[2], tape), tape)
        loss.grad = np.ones(())
        tape.backward()
        params.zero_grad()
        return len(tape)

    step()  # warm-up: lazy set-up is not what the tests bound
    return step


def test_train_step_traced_peak():
    step = _default_step()
    tracemalloc.start()
    try:
        records = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records == 60
    assert peak < STEP_PEAK_MIB << 20, f"one train step peaked at {peak / 2**20:.1f} MiB"


def test_taped_forward_keeps_only_what_rules_read():
    step = _default_step()
    alive = []
    tracemalloc.start()
    try:
        step(lambda: alive.append(tracemalloc.get_traced_memory()[0]))
    finally:
        tracemalloc.stop()
    assert alive[0] < FORWARD_ALIVE_MIB << 20, f"{alive[0] / 2**20:.1f} MiB alive after a taped forward"


# The traced peak of one default ``cli.cmd_forward`` (batch 2, parameters
# drawn, report built), inputs and parameters included: 15.8 MiB with the draw
# and the forward in sequence; 15.2-18.0 MiB over 40 runs with the draw, p5,
# ``to4`` and p4 on a lane beside the finest level; and with ``to3`` in that
# lane too, at most 19.24 MiB (median 17.94) over 500 runs at 5 ms and 0.1 ms
# thread switch intervals, a fixed ceiling.
FORWARD_PEAK_MIB = 20


def test_default_forward_traced_peak():
    cfg = RunConfig(NeckConfig(), 0, 2, report_path=None, params_in=None, params_out=None)
    cmd_forward(cfg)  # warm-up: lazy set-up is not what the test bounds
    tracemalloc.start()
    try:
        report = cmd_forward(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(report["levels"]) == ["p3", "p4", "p5"]
    assert peak < FORWARD_PEAK_MIB << 20, f"one default forward peaked at {peak / 2**20:.1f} MiB"


# The traced peak of one attention-gate forward and backward at 40×40 tokens,
# batch 2, 64 channels, 4 heads, without registers (whose r_qk alone would be
# 82 MB here): about 400 MiB with the (B, heads, HW, HW) attention and its
# gradient held whole, about 23 MiB in 1 MiB blocks of query rows.
GATE_40_PEAK_MIB = 64


def test_attention_gate_traced_peak_at_40x40():
    rng = Rng(40)
    x = Tensor4(rng.normal((2, 64, 40, 40)))
    p = MhsaParams(rng.normal((3, 64, 64), 0.1), head_count=4)
    weights = rng.normal((2, 64, 1, 1))
    tracemalloc.start()
    try:
        tape = Tape()
        loss = weighted_sum(mhsa_forward(x, p, tape), weights, tape)
        loss.grad = np.ones(())
        tape.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.data.shape and p.w_qkv.grad.shape == p.w_qkv.data.shape
    assert peak < GATE_40_PEAK_MIB << 20, f"the 40x40 gate peaked at {peak / 2**20:.1f} MiB"

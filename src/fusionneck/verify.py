"""Self-verification suites.

Gradient suite: every differentiable primitive plus the composed neck is
checked against central finite differences at fixed seeds (tolerance 1e-5 for
primitives, 1e-4 for the neck).  Oracle suite: the vectorized convolutions
against their loop oracles, average precision against the explicit-cutoff
oracle, and the receptive-field recurrence against its closed form.  The CLI
``verify`` command runs these and maps failures to a nonzero exit code.

Inputs and test parameters are drawn at O(1) scale so the finite-difference
quotients are well-conditioned; the production sigma=0.01 init would push
gradients into float noise.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import convkit, detmetrics, neck
from .attention import (
    MhsaParams,
    ScseParams,
    build_registers,
    mhsa_forward,
    scse_recalibrate,
)
from .convkit import ConvKernel, DeconvKernel, ReceptiveFieldState, receptive_field_step
from .detmetrics import Box, Detection, GroundTruth
from .errors import ContractError
from .tensor import (
    Matrix,
    Rng,
    Tensor4,
    Value,
    add,
    concat_channels,
    global_avg_pool,
    grad_check,
    logistic,
    matmul,
    mul,
    softmax_rows,
    sub,
    sum_all,
    weighted_sum,
    _accum,
)

GRAD_SEEDS = 20
PRIMITIVE_TOL = 1e-5
NECK_TOL = 1e-4
PRIMITIVE_EPS = 1e-6
NECK_EPS = 1e-5
CONV_ORACLE_CASES = 50
CONV_ORACLE_TOL = 1e-12
AP_ORACLE_SCENES = 200


@dataclass
class SuiteCase:
    """One verification row: worst metric vs. its tolerance."""

    suite: str  # "grad" or "oracle"
    name: str
    metric: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.metric < self.tolerance


def _corrupt_tape(tape, param: Value) -> None:
    """Simulated backward-rule bug: an extra bogus gradient record."""
    if tape is not None:
        tape.record(lambda: _accum(param, np.full_like(param.data, 1e-2)))


def _grad_case(name: str, build: Callable[[Rng], tuple], seeds: int, epsilon: float, corrupt: bool) -> float:
    worst = 0.0
    for seed in range(seeds):
        rng = Rng(9000 + seed).split(zlib.crc32(name.encode()) % (2 ** 31))
        loss_fn, params = build(rng)
        if corrupt:
            target = params[0]
            original = loss_fn

            def loss_fn(tape, _orig=original, _target=target):
                out = _orig(tape)
                _corrupt_tape(tape, _target)
                return out

        worst = max(worst, grad_check(loss_fn, params, epsilon))
    return worst


def _loss_weights(rng: Rng, shape) -> np.ndarray:
    return rng.normal(shape)


# ---------------------------------------------------------------------------
# gradient case builders: each returns (loss_fn(tape) -> scalar Value, params)
# ---------------------------------------------------------------------------

def _case_elementwise(rng: Rng):
    a = Tensor4(rng.normal((2, 3, 4, 4)))
    gate_c = Tensor4(rng.normal((2, 3, 1, 1)))
    gate_s = Tensor4(rng.normal((2, 1, 4, 4)))
    b = Tensor4(rng.normal((2, 3, 4, 4)))
    w1 = _loss_weights(rng, (2, 3, 4, 4))
    w2 = _loss_weights(rng, (2, 3, 4, 4))

    def loss(tape):
        u = mul(add(a, gate_c, tape), gate_s, tape)
        v = sub(b, gate_c, tape)
        s1 = weighted_sum(u, w1, tape)
        s2 = weighted_sum(v, w2, tape)
        return add(s1, s2, tape)

    return loss, [a, b, gate_c, gate_s]


def _case_matmul(rng: Rng):
    a = Matrix(rng.normal((4, 3)))
    b = Matrix(rng.normal((3, 5)))
    w = _loss_weights(rng, (4, 5))

    def loss(tape):
        return weighted_sum(matmul(a, b, tape), w, tape)

    return loss, [a, b]


def _case_softmax(rng: Rng):
    m = Matrix(rng.normal((5, 6), 2.0))
    w = _loss_weights(rng, (5, 6))

    def loss(tape):
        return weighted_sum(softmax_rows(m, tape), w, tape)

    return loss, [m]


def _case_logistic(rng: Rng):
    x = Tensor4(rng.normal((1, 2, 3, 3), 2.0))
    w = _loss_weights(rng, (1, 2, 3, 3))

    def loss(tape):
        return weighted_sum(logistic(x, tape), w, tape)

    return loss, [x]


def _case_gap(rng: Rng):
    x = Tensor4(rng.normal((2, 3, 4, 5)))
    w = _loss_weights(rng, (2, 3, 1, 1))

    def loss(tape):
        return weighted_sum(global_avg_pool(x, tape), w, tape)

    return loss, [x]


def _case_concat(rng: Rng):
    parts = [Tensor4(rng.normal((1, c, 3, 3))) for c in (1, 2, 3)]
    w = _loss_weights(rng, (1, 6, 3, 3))

    def loss(tape):
        return weighted_sum(concat_channels(parts, tape), w, tape)

    return loss, list(parts)


def _case_conv2d(rng: Rng):
    d = 1 + rng.integers(0, 3)
    x = Tensor4(rng.normal((1, 2, 5, 5)))
    k = ConvKernel(rng.normal((2, 2, 3, 3), 0.7), rng.normal((2,), 0.3), dilation=d, padding=d)
    w = _loss_weights(rng, (1, 2, 5, 5))

    def loss(tape):
        return weighted_sum(convkit.conv2d(x, k, tape), w, tape)

    return loss, [x, k.weight, k.bias]


def _case_pointwise(rng: Rng):
    x = Tensor4(rng.normal((2, 3, 4, 4)))
    k = ConvKernel(rng.normal((2, 3, 1, 1), 0.7), rng.normal((2,), 0.3))
    w = _loss_weights(rng, (2, 2, 4, 4))

    def loss(tape):
        return weighted_sum(convkit.pointwise_conv(x, k, tape), w, tape)

    return loss, [x, k.weight, k.bias]


def _case_deconv(rng: Rng):
    x = Tensor4(rng.normal((2, 2, 3, 3)))
    k = DeconvKernel(rng.normal((2, 2, 2, 2), 0.7), rng.normal((2,), 0.3))
    w = _loss_weights(rng, (2, 2, 6, 6))

    def loss(tape):
        return weighted_sum(convkit.deconv2x(x, k, tape), w, tape)

    return loss, [x, k.weight, k.bias]


def _case_scse(rng: Rng):
    x = Tensor4(rng.normal((2, 4, 3, 3)))
    p = ScseParams.from_rng(rng.split(1), channels=4, reduction=2, sigma=0.6)
    w = _loss_weights(rng, (2, 4, 3, 3))

    def loss(tape):
        return weighted_sum(scse_recalibrate(x, p, tape), w, tape)

    return loss, [x, *p.values()]


def _mhsa_fixture(rng: Rng, with_registers: bool):
    x = Tensor4(rng.normal((2, 4, 2, 2)))
    p = MhsaParams.from_rng(rng.split(1), embed_dim=4, head_count=2, sigma=0.6)
    reg = build_registers(rng.split(2), head_count=2, hw=4, d_head=2, sigma=0.5) if with_registers else None
    w = _loss_weights(rng, (2, 4, 2, 2))
    params = [x, *p.values()] + (reg.values() if reg is not None else [])

    def loss(tape):
        return weighted_sum(mhsa_forward(x, p, reg, tape), w, tape)

    return loss, params


def _case_mhsa(rng: Rng):
    return _mhsa_fixture(rng, with_registers=False)


def _case_mhsa_registers(rng: Rng):
    return _mhsa_fixture(rng, with_registers=True)


def _neck_test_config(seed: int) -> neck.NeckConfig:
    base = 8 if seed % 5 == 0 else 4
    return neck.NeckConfig(
        pyramid_width=2,
        head_count=1 if seed % 2 else 2,
        dilations=(1, 2, 3),
        scse_reduction=2,
        in_channels=(2, 3, 4),
        base_height=base,
        base_width=base,
        gating_mode="logistic" if seed % 3 else "raw",
    )


def random_neck_params(cfg: neck.NeckConfig, rng: Rng, sigma: float = 0.5) -> neck.NeckParams:
    """O(1)-scale random parameters (biases included) for gradient checks."""
    arrays = {}
    for name, shape in neck.parameter_spec(cfg):
        arrays[name] = rng.normal(shape, sigma)
    return neck._params_from_arrays(cfg, arrays)


def _case_neck(rng: Rng):
    seed = rng.integers(0, 10 ** 6)
    cfg = _neck_test_config(seed)
    pin = neck.synthetic_pyramid(cfg, batch=1, rng=rng.split(1))
    params = random_neck_params(cfg, rng.split(2), sigma=0.45)

    def loss(tape):
        out = neck.neck_forward(pin, params, cfg, tape)
        total = sum_all(out.p3, tape)
        total = add(total, sum_all(out.p4, tape), tape)
        return add(total, sum_all(out.p5, tape), tape)

    return loss, params.values()


GRADIENT_CASES: list[tuple[str, Callable, float, float]] = [
    # (name, builder, tolerance, epsilon)
    ("elementwise", _case_elementwise, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("matmul", _case_matmul, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("softmax_rows", _case_softmax, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("logistic", _case_logistic, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("global_avg_pool", _case_gap, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("concat_channels", _case_concat, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("conv2d", _case_conv2d, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("pointwise_conv", _case_pointwise, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("deconv2x", _case_deconv, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("scse_recalibrate", _case_scse, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("mhsa", _case_mhsa, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("mhsa_registers", _case_mhsa_registers, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("neck_forward", _case_neck, NECK_TOL, NECK_EPS),
]


def gradient_suite(corrupt: str | None = None, seeds: int = GRAD_SEEDS) -> list[SuiteCase]:
    """Run all gradient checks; ``corrupt`` injects a fault into the named case."""
    results = []
    for name, builder, tol, eps in GRADIENT_CASES:
        start = time.perf_counter()
        metric = _grad_case(name, builder, seeds, eps, corrupt == name)
        elapsed = time.perf_counter() - start
        results.append(
            SuiteCase("grad", name, metric, tol, detail=f"{seeds} seeds, {elapsed:.2f}s")
        )
    return results


# ---------------------------------------------------------------------------
# oracle suites
# ---------------------------------------------------------------------------

def conv_oracle_cases(rng: Rng):
    """Random (input, kernel) pairs with dims <= 8 and dilation in {1,2,3}."""
    for _ in range(CONV_ORACLE_CASES):
        b = 1 + rng.integers(0, 2)
        ci = 1 + rng.integers(0, 3)
        co = 1 + rng.integers(0, 3)
        h = 3 + rng.integers(0, 6)
        w = 3 + rng.integers(0, 6)
        d = 1 + rng.integers(0, 3)
        x = Tensor4(rng.normal((b, ci, h, w)))
        k = ConvKernel(rng.normal((co, ci, 3, 3)), rng.normal((co,)), dilation=d, padding=d)
        yield x, k


def conv_oracle_suite(rng: Rng | None = None) -> SuiteCase:
    rng = rng or Rng(777)
    worst = 0.0
    for x, k in conv_oracle_cases(rng):
        fast = convkit.conv2d(x, k)
        slow = convkit.naive_conv2d(x, k)
        worst = max(worst, float(np.max(np.abs(fast.data - slow.data))))
    return SuiteCase("oracle", "conv2d_vs_naive", worst, CONV_ORACLE_TOL, f"{CONV_ORACLE_CASES} cases")


def deconv_oracle_suite(rng: Rng | None = None) -> SuiteCase:
    rng = rng or Rng(778)
    worst = 0.0
    for _ in range(20):
        ci = 1 + rng.integers(0, 3)
        co = 1 + rng.integers(0, 3)
        x = Tensor4(rng.normal((1 + rng.integers(0, 2), ci, 1 + rng.integers(0, 4), 1 + rng.integers(0, 4))))
        k = DeconvKernel(rng.normal((ci, co, 2, 2)), rng.normal((co,)))
        fast = convkit.deconv2x(x, k)
        slow = convkit.naive_deconv2x(x, k)
        worst = max(worst, float(np.max(np.abs(fast.data - slow.data))))
    return SuiteCase("oracle", "deconv2x_vs_naive", worst, CONV_ORACLE_TOL, "20 cases")


def pointwise_oracle_suite(rng: Rng | None = None) -> SuiteCase:
    rng = rng or Rng(779)
    worst = 0.0
    for _ in range(20):
        ci = 1 + rng.integers(0, 4)
        co = 1 + rng.integers(0, 4)
        x = Tensor4(rng.normal((2, ci, 3, 3)))
        k = ConvKernel(rng.normal((co, ci, 1, 1)), rng.normal((co,)))
        fast = convkit.pointwise_conv(x, k)
        slow = convkit.naive_conv2d(x, k)
        worst = max(worst, float(np.max(np.abs(fast.data - slow.data))))
    return SuiteCase("oracle", "pointwise_vs_naive", worst, CONV_ORACLE_TOL, "20 cases")


def random_scene(rng: Rng, max_boxes: int = 6):
    """A random single-class scene of jittered unit boxes for AP testing."""
    n_gt = rng.integers(1, max_boxes + 1)
    n_det = rng.integers(1, max_boxes + 1)
    gts = []
    for _ in range(n_gt):
        x = rng.uniform(0.0, 20.0)
        y = rng.uniform(0.0, 20.0)
        s = rng.uniform(1.0, 4.0)
        gts.append(GroundTruth(Box(x, y, x + s, y + s), class_id=0))
    dets = []
    for _ in range(n_det):
        anchor = gts[rng.integers(0, n_gt)].box
        jitter = rng.uniform(-1.5, 1.5, 2)
        grow = rng.uniform(-0.5, 0.5)
        side = max(anchor.x_max - anchor.x_min + grow, 0.2)
        x = anchor.x_min + float(jitter[0])
        y = anchor.y_min + float(jitter[1])
        dets.append(
            Detection(Box(x, y, x + side, y + side), score=float(rng.uniform(0.05, 0.99)), class_id=0)
        )
    return dets, gts


def ap_oracle_suite(rng: Rng | None = None, scenes: int = AP_ORACLE_SCENES) -> SuiteCase:
    rng = rng or Rng(780)
    worst = 0.0
    for i in range(scenes):
        dets, gts = random_scene(rng.split(i))
        thresh = (0.3, 0.5, 0.75)[i % 3]
        fast = detmetrics.average_precision(dets, gts, thresh)
        slow = detmetrics.brute_force_ap(dets, gts, thresh)
        worst = max(worst, abs(fast - slow))
    return SuiteCase("oracle", "ap_vs_bruteforce", worst, 1e-15, f"{scenes} scenes (exact)")


def receptive_field_suite(rng: Rng | None = None) -> SuiteCase:
    rng = rng or Rng(781)
    worst = 0.0
    for _ in range(100):
        r0 = 1 + rng.integers(0, 8)
        chain = [1 + rng.integers(0, 3) for _ in range(rng.integers(1, 8))]
        state = ReceptiveFieldState(r0)
        for d in chain:
            state = receptive_field_step(state, 3, d)
        closed_form = r0 + 2 * sum(chain)
        worst = max(worst, abs(state.r - closed_form))
    return SuiteCase("oracle", "receptive_field_closed_form", worst, 1e-15, "100 chains")


def oracle_suite() -> list[SuiteCase]:
    return [
        conv_oracle_suite(),
        pointwise_oracle_suite(),
        deconv_oracle_suite(),
        ap_oracle_suite(),
        receptive_field_suite(),
    ]


def run(scope: str = "all", corrupt: str | None = None, seeds: int = GRAD_SEEDS) -> list[SuiteCase]:
    """Run the requested suites; scope is one of grad, oracle, all."""
    if scope not in ("grad", "oracle", "all"):
        raise ContractError(f"verify scope must be grad|oracle|all, got {scope!r}")
    if seeds < 1:  # zero seeds would run no gradient case and pass vacuously
        raise ContractError(f"verify needs at least 1 seed per gradient case, got {seeds}")
    results: list[SuiteCase] = []
    if scope in ("grad", "all"):
        results.extend(gradient_suite(corrupt=corrupt, seeds=seeds))
    if scope in ("oracle", "all"):
        results.extend(oracle_suite())
    return results

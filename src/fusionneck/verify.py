"""Self-verification suites.

Gradient suite (11 rows): every differentiable primitive plus the composed
neck is checked against central finite differences at fixed seeds (tolerance
1e-5 for primitives, 1e-4 for the neck).  The neck row's seeds spread over
the five ablation arms of ``NECK_ARMS``.  Oracle suite (5 rows, one
``ORACLES`` table): the vectorized convolutions against their loop oracles,
average precision against the explicit-cutoff oracle, and the blocked
attention gate against a per-(item, head) loop over whole attention
matrices.  Every suite runs fixed inputs; a caller chooses only the scope
and the number of gradient seeds.

Each row is a stream of errors (one per seed, case or scene) folded by
``_row``, the one rule for all 16: the metric is the worst error, a NaN
error is kept as the worst so it fails the row, a row whose stream is empty
is refused with ``ContractError`` rather than run as a vacuous pass, and the
detail reads ``"<count> <unit>, <seconds>s"``.  A ``grad_check`` of params
holding no elements is refused the same way.  The CLI ``verify`` command
runs these and maps failures to a nonzero exit code.

Inputs and test parameters are drawn at O(1) scale so the finite-difference
quotients are well-conditioned; the production sigma=0.01 init would push
gradients into float noise.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from . import convkit, detmetrics, neck
from .attention import MhsaParams, RegisterTokens, ScseParams, mhsa_forward, scse_recalibrate
from .convkit import ConvKernel, DeconvKernel
from .detmetrics import Box, Detection, GroundTruth
from .errors import ContractError
from .tensor import (
    Rng, Tensor4, _worse, add, concat_channels, global_avg_pool, grad_check, logistic, mul, sum_all, weighted_sum,
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


def _row(suite: str, name: str, errors: Iterable[float], tolerance: float, unit: str) -> SuiteCase:
    """Fold a row's error stream into its worst error; an empty stream is refused."""
    start = time.perf_counter()
    worst, count = 0.0, 0
    for count, err in enumerate(errors, 1):
        worst = _worse(worst, err)
    if count == 0:  # a row that checked nothing would pass vacuously
        raise ContractError(f"{name}: no {unit} to check")
    return SuiteCase(suite, name, worst, tolerance, f"{count} {unit}, {time.perf_counter() - start:.2f}s")


def _grad_errors(name: str, build: Callable[[Rng], tuple], seeds: int, epsilon: float) -> Iterator[float]:
    """The ``grad_check`` error of the case ``build`` makes at each seed."""
    for seed in range(seeds):
        rng = Rng(9000 + seed).split(zlib.crc32(name.encode()) % (2 ** 31))
        yield grad_check(*build(rng), epsilon)


# ---------------------------------------------------------------------------
# gradient case builders: each returns (loss_fn(tape) -> scalar Value, params)
# ---------------------------------------------------------------------------

def _op_case(rng: Rng, params: list, op: Callable, *args) -> tuple:
    """The case for ``op(*args, tape)``: its weighted sum, weights drawn last in the output's shape."""
    w = rng.normal(op(*args, None).shape)

    def loss(tape):
        return weighted_sum(op(*args, tape), w, tape)

    return loss, params


def _case_elementwise(rng: Rng):
    a = Tensor4(rng.normal((2, 3, 4, 4)))
    gate_c = Tensor4(rng.normal((2, 3, 1, 1)))
    gate_s = Tensor4(rng.normal((2, 1, 4, 4)))
    b = Tensor4(rng.normal((2, 3, 4, 4)))
    w1 = rng.normal((2, 3, 4, 4))
    w2 = rng.normal((2, 3, 4, 4))

    def loss(tape):
        u = mul(add(a, gate_c, tape), gate_s, tape)
        v = add(mul(b, gate_c, tape), gate_s, tape)
        s1 = weighted_sum(u, w1, tape)
        s2 = weighted_sum(v, w2, tape)
        return add(s1, s2, tape)

    return loss, [a, b, gate_c, gate_s]


def _case_logistic(rng: Rng):
    x = Tensor4(rng.normal((1, 2, 3, 3), 2.0))
    return _op_case(rng, [x], logistic, x)


def _case_gap(rng: Rng):
    x = Tensor4(rng.normal((2, 3, 4, 5)))
    return _op_case(rng, [x], global_avg_pool, x)


def _case_concat(rng: Rng):
    parts = [Tensor4(rng.normal((1, c, 3, 3))) for c in (1, 2, 3)]
    return _op_case(rng, parts, concat_channels, parts)


def _case_conv2d(rng: Rng):
    d = 1 + rng.integers(0, 3)
    x = Tensor4(rng.normal((1, 2, 5, 5)))
    k = ConvKernel(rng.normal((2, 2, 3, 3), 0.7), rng.normal((2,), 0.3), dilation=d)
    return _op_case(rng, [x, *k.values()], convkit.conv2d, x, k)


def _case_pointwise(rng: Rng):
    x = Tensor4(rng.normal((2, 3, 4, 4)))
    k = ConvKernel(rng.normal((2, 3, 1, 1), 0.7), rng.normal((2,), 0.3))
    return _op_case(rng, [x, *k.values()], convkit.pointwise_conv, x, k)


def _case_deconv(rng: Rng):
    x = Tensor4(rng.normal((2, 2, 3, 3)))
    k = DeconvKernel(rng.normal((2, 2, 2, 2), 0.7), rng.normal((2,), 0.3))
    return _op_case(rng, [x, *k.values()], convkit.deconv2x, x, k)


def _case_scse(rng: Rng):
    x = Tensor4(rng.normal((2, 4, 3, 3)))
    r = rng.split(1)  # reduce 4 -> 2, expand 2 -> 4, spatial 4 -> 1
    p = ScseParams(*(ConvKernel(r.normal((o, i, 1, 1), 0.6), np.zeros(o)) for o, i in ((2, 4), (4, 2), (1, 4))))
    return _op_case(rng, [x, *p.values()], scse_recalibrate, x, p)


def _mhsa_fixture(rng: Rng, with_registers: bool):
    x = Tensor4(rng.normal((2, 4, 2, 2)))
    p = MhsaParams(rng.split(1).normal((3, 4, 4), 0.6), head_count=2)
    reg = None
    if with_registers:  # one (HW, HW) score and one (d_head, HW) value register per head
        r = rng.split(2)
        reg = RegisterTokens(r.normal((2, 4, 4), 0.5), r.normal((2, 2, 4), 0.5))
    gate = partial(mhsa_forward, block_rows=3)  # the 4 query rows in a block of 3 and a ragged block of 1
    return _op_case(rng, [x, *p.values(), *(reg.values() if reg is not None else [])], gate, x, p, reg)


# the ablation arms the neck row cycles through: full, no registers, no MHSA,
# atrous, and the FPN-like standard arm without MHSA
NECK_ARMS: tuple[dict, ...] = ({}, {"use_registers": False}, {"use_mhsa": False}, {"atrous_mode": "atrous"},
                               {"atrous_mode": "standard", "use_mhsa": False})


def _neck_test_config(seed: int) -> neck.NeckConfig:
    """The tiny neck of ``seed``; seeds 0..7 are the full arm, and each next run of 8 the next arm."""
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
        **NECK_ARMS[(seed // 8) % len(NECK_ARMS)],
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
    ("logistic", _case_logistic, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("global_avg_pool", _case_gap, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("concat_channels", _case_concat, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("conv2d", _case_conv2d, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("pointwise_conv", _case_pointwise, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("deconv2x", _case_deconv, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("scse_recalibrate", _case_scse, PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("mhsa", partial(_mhsa_fixture, with_registers=False), PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("mhsa_registers", partial(_mhsa_fixture, with_registers=True), PRIMITIVE_TOL, PRIMITIVE_EPS),
    ("neck_forward", _case_neck, NECK_TOL, NECK_EPS),
]


def gradient_suite(seeds: int = GRAD_SEEDS) -> list[SuiteCase]:
    """Run every gradient case at ``seeds`` seeds each."""
    return [_row("grad", name, _grad_errors(name, build, seeds, eps), tol, "seeds")
            for name, build, tol, eps in GRADIENT_CASES]


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
        k = ConvKernel(rng.normal((co, ci, 3, 3)), rng.normal((co,)), dilation=d)
        yield x, k


def _fast_vs_naive(fast, naive, cases: Callable[[Rng], Iterable], seed: int) -> Iterator[float]:
    """|fast − naive| at each (input, kernel) case that ``cases`` draws from ``Rng(seed)``."""
    for x, k in cases(Rng(seed)):
        yield float(np.max(np.abs(fast(x, k).data - naive(x, k).data)))


def _deconv_oracle_cases(rng: Rng):
    for _ in range(20):
        ci = 1 + rng.integers(0, 3)
        co = 1 + rng.integers(0, 3)
        x = Tensor4(rng.normal((1 + rng.integers(0, 2), ci, 1 + rng.integers(0, 4), 1 + rng.integers(0, 4))))
        yield x, DeconvKernel(rng.normal((ci, co, 2, 2)), rng.normal((co,)))


def _pointwise_oracle_cases(rng: Rng):
    for _ in range(20):
        ci = 1 + rng.integers(0, 4)
        co = 1 + rng.integers(0, 4)
        x = Tensor4(rng.normal((2, ci, 3, 3)))
        yield x, ConvKernel(rng.normal((co, ci, 1, 1)), rng.normal((co,)))


def random_scene(rng: Rng):
    """A random single-class, single-image scene of jittered unit boxes for AP testing."""
    n_gt = rng.integers(1, 7)
    n_det = rng.integers(1, 7)
    gts = []
    for _ in range(n_gt):
        x = rng.uniform(0.0, 20.0)
        y = rng.uniform(0.0, 20.0)
        s = rng.uniform(1.0, 4.0)
        gts.append(GroundTruth("", 0, Box(x, y, x + s, y + s)))
    dets = []
    for _ in range(n_det):
        anchor = gts[rng.integers(0, n_gt)].box
        jitter = rng.uniform(-1.5, 1.5, 2)
        grow = rng.uniform(-0.5, 0.5)
        side = max(anchor.x_max - anchor.x_min + grow, 0.2)
        x = anchor.x_min + float(jitter[0])
        y = anchor.y_min + float(jitter[1])
        dets.append(Detection("", 0, Box(x, y, x + side, y + side), float(rng.uniform(0.05, 0.99))))
    return dets, gts


def _ap_errors() -> Iterator[float]:
    """|fast − brute-force AP| on each random scene, thresholds cycling 0.3, 0.5, 0.75."""
    rng = Rng(780)
    for i in range(AP_ORACLE_SCENES):
        dets, gts = random_scene(rng.split(i))
        thresh = (0.3, 0.5, 0.75)[i % 3]
        yield abs(detmetrics.average_precision(dets, gts, thresh) - detmetrics.brute_force_ap(dets, gts, thresh))


def loop_attention_gate(x: np.ndarray, p: MhsaParams, reg: RegisterTokens | None = None):
    """Plain NumPy attention, one (item, head) at a time, with the whole (HW, HW) matrix.

    Returns the gate (B, C, 1, 1) as the spatial mean of the per-token
    output, the mass (B, heads, HW) as the column means of each matrix, and
    the per-token output (B, C, H, W).
    """
    b, c, h, w = x.shape
    d_head = c // p.head_count
    out = np.empty((b, h * w, c))
    mass = np.empty((b, p.head_count, h * w))
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
            mass[item, head] = attn.mean(axis=0)
            out[item, :, cols] = attn @ v
    return out.mean(axis=1).reshape(b, c, 1, 1), mass, out.transpose(0, 2, 1).reshape(b, c, h, w)


def _gate_errors() -> Iterator[float]:
    """|blocked − loop| over gate, mass and per-token output: 1-row, ragged and whole blocks, ± registers."""
    rng = Rng(781)
    x = Tensor4(rng.normal((2, 4, 2, 3)))
    p = MhsaParams(rng.normal((3, 4, 4), 0.6), head_count=2)
    reg = RegisterTokens(rng.normal((2, 6, 6), 0.5), rng.normal((2, 2, 6), 0.5))
    for r in (None, reg):
        expected = loop_attention_gate(x.data, p, r)
        for block_rows in (1, 4, 6):  # six rows: one per block, 4 + 2, all in one
            trace: dict = {}
            gate = mhsa_forward(x, p, r, None, trace, block_rows)
            got = (gate.data, trace["mass"], trace["mhsa_output"].data)
            yield max(float(np.max(np.abs(a - b))) for a, b in zip(got, expected))


ORACLES: list[tuple[str, Callable[[], Iterable[float]], float, str]] = [
    # (row name, error stream, tolerance, unit)
    ("conv2d_vs_naive", partial(_fast_vs_naive, convkit.conv2d, convkit.naive_conv2d, conv_oracle_cases, 777),
     CONV_ORACLE_TOL, "cases"),
    ("pointwise_vs_naive",
     partial(_fast_vs_naive, convkit.pointwise_conv, convkit.naive_conv2d, _pointwise_oracle_cases, 779),
     CONV_ORACLE_TOL, "cases"),
    ("deconv2x_vs_naive", partial(_fast_vs_naive, convkit.deconv2x, convkit.naive_deconv2x, _deconv_oracle_cases, 778),
     CONV_ORACLE_TOL, "cases"),
    ("ap_vs_bruteforce", _ap_errors, 1e-15, "scenes"),
    ("mhsa_gate_vs_loop", _gate_errors, 1e-12, "cases"),
]


def oracle_suite() -> list[SuiteCase]:
    return [_row("oracle", name, errors(), tol, unit) for name, errors, tol, unit in ORACLES]


def run(scope: str = "all", seeds: int = GRAD_SEEDS) -> list[SuiteCase]:
    """Run the requested suites; scope is one of grad, oracle, all."""
    if scope not in ("grad", "oracle", "all"):
        raise ContractError(f"verify scope must be grad|oracle|all, got {scope!r}")
    results: list[SuiteCase] = []
    if scope in ("grad", "all"):
        results.extend(gradient_suite(seeds))
    if scope in ("oracle", "all"):
        results.extend(oracle_suite())
    return results

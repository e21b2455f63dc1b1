"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import functools
import time
from pathlib import Path

import numpy as np

from fusionneck import verify
from fusionneck.attention import MhsaParams, mhsa_forward
from fusionneck.cli import EXIT_OK, main
from fusionneck.convkit import conv2d, deconv2x, naive_conv2d
from fusionneck.convkit import DeconvKernel
from fusionneck.detmetrics import (
    Box,
    Detection,
    GroundTruth,
    average_precision,
    brute_force_ap,
    evaluate_records,
    load_detections,
    load_ground_truths,
)
from fusionneck.errors import ParamsIOError
from fusionneck.neck import (
    PARAMS_FORMAT_VERSION,
    NeckConfig,
    PyramidIn,
    init_params,
    load_params,
    neck_forward,
    save_params,
    synthetic_pyramid,
)
from fusionneck.tensor import Rng, Tensor4
from fusionneck.verify import random_neck_params

DATA = Path(__file__).parent / "data"


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_01_conv_oracle_equivalence():
    """conv2d vs naive_conv2d: >=50 random cases, deviation < 1e-12, < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for x, k in verify.conv_oracle_cases(Rng(777)):
        fast = conv2d(x, k)
        slow = naive_conv2d(x, k)
        worst = max(worst, float(np.max(np.abs(fast.data - slow.data))))
        cases += 1
    elapsed = time.perf_counter() - start
    report(
        "01 conv-oracle",
        cases >= 50 and worst < 1e-12 and elapsed < 10.0,
        f"{cases} cases, max dev {worst:.2e}, {elapsed:.2f}s",
    )


@functools.cache
def timed_verify(scope: str) -> tuple[list, float]:
    """verify.run(scope) with its wall time, run once per session for test_02 and test_10."""
    start = time.perf_counter()
    results = verify.run(scope, seeds=20)
    return results, time.perf_counter() - start


def test_02_gradient_suite():
    """Every differentiable op within 1e-5 (neck 1e-4), >=20 seeds, < 60 s."""
    results, elapsed = timed_verify("grad")
    failing = [r.name for r in results if not r.passed]
    worst = max(r.metric / r.tolerance for r in results)
    report(
        "02 gradient-suite",
        not failing and elapsed < 60.0,
        f"{len(results)} ops x 20 seeds, worst metric/tol {worst:.2e}, {elapsed:.1f}s"
        + (f", failing: {failing}" if failing else ""),
    )


def test_03_zero_register_collapse():
    """Zero registers reproduce register-free attention within 1e-12, 50 inputs."""
    worst = 0.0
    for seed in range(50):
        rng = Rng(3000 + seed)
        heads = (1, 2, 4)[seed % 3]
        dim = 4 if heads < 4 else 8
        h = 1 + seed % 3
        w = 1 + (seed // 3) % 3
        x = Tensor4(rng.normal((2, dim, h, w)))
        p = MhsaParams(rng.split(1).normal((3, dim, dim), 0.6), heads)
        zeros = MhsaParams(p.w_qkv, heads, np.zeros((heads, h * w, h * w)), np.zeros((heads, dim // heads, h * w)))
        with_reg, without = {}, {}
        gate_with = mhsa_forward(x, zeros, None, with_reg)
        gate_without = mhsa_forward(x, p, None, without)
        for a, b in ((gate_with.data, gate_without.data), (with_reg["mass"], without["mass"]),
                     (with_reg["mhsa_output"].data, without["mhsa_output"].data)):
            worst = max(worst, float(np.max(np.abs(a - b))))
    report("03 zero-register-collapse", worst < 1e-12, f"50 inputs, max dev {worst:.2e}")


def test_04_shape_contract():
    """25 random valid configs produce the pinned pyramid shapes; deconv doubles."""
    rng = Rng(4000)
    ok = True
    detail = ""
    for case in range(25):
        b = 1 + rng.integers(0, 3)
        width = (2, 4, 8)[rng.integers(0, 3)]
        heads = (1, 2)[rng.integers(0, 2)]
        h = 4 * (1 + rng.integers(0, 3))
        w = 4 * (1 + rng.integers(0, 3))
        cfg = NeckConfig(
            pyramid_width=width,
            head_count=heads,
            scse_reduction=width if width <= 2 else 2,
            in_channels=(1 + rng.integers(0, 5), 1 + rng.integers(0, 5), 1 + rng.integers(0, 5)),
            base_height=h,
            base_width=w,
        )
        params = random_neck_params(cfg, rng.split(100 + case), sigma=0.3)
        pin = synthetic_pyramid(cfg, b, rng.split(200 + case))
        out = neck_forward(pin, params, cfg)
        expected = {
            3: (b, width, h, w),
            4: (b, width, h // 2, w // 2),
            5: (b, width, h // 4, w // 4),
        }
        for n in (3, 4, 5):
            if out.level(n).dims != expected[n]:
                ok = False
                detail = f"case {case}: p{n} {out.level(n).dims} != {expected[n]}"
    for case in range(10):
        ci = 1 + rng.integers(0, 4)
        co = 1 + rng.integers(0, 4)
        hh = 1 + rng.integers(0, 6)
        ww = 1 + rng.integers(0, 6)
        x = Tensor4(rng.normal((1 + rng.integers(0, 2), ci, hh, ww)))
        k = DeconvKernel(rng.normal((ci, co, 2, 2)), rng.normal((co,)))
        out = deconv2x(x, k)
        if out.dims != (x.dims[0], co, 2 * hh, 2 * ww):
            ok = False
            detail = f"deconv case {case}: {out.dims}"
    report("04 shape-contract", ok, detail or "25 neck configs + 10 deconv cases")


def test_06_ap_oracle_and_reference_values():
    """AP == brute force on 200 scenes; worked example and fixture mAP pinned."""
    mismatches = 0
    for seed in range(200):
        dets, gts = verify.random_scene(Rng(6000 + seed))
        thresh = (0.3, 0.5, 0.75)[seed % 3]
        if average_precision(dets, gts, thresh) != brute_force_ap(dets, gts, thresh):
            mismatches += 1
    box = lambda x: Box(x, 0.0, x + 10.0, 10.0)
    gts = [GroundTruth("img", 0, box(0)), GroundTruth("img", 0, box(20))]
    dets = [
        Detection("img", 0, box(0), 0.9),
        Detection("img", 0, Box(50, 50, 60, 60), 0.8),
        Detection("img", 0, box(20), 0.7),
    ]
    worked = average_precision(dets, gts, 0.5)
    fixture = evaluate_records(
        load_detections(str(DATA / "dets_4class.txt")),
        load_ground_truths(str(DATA / "gts_4class.txt")),
    )
    ok = mismatches == 0 and abs(worked - 0.8182) <= 1e-4 and abs(fixture.mean - 0.6966) <= 5e-4
    report(
        "06 ap-oracle",
        ok,
        f"200 scenes exact ({mismatches} mismatches), worked example {worked:.4f}, "
        f"fixture mAP {fixture.mean:.4f}",
    )


def test_07_top_down_directionality():
    """c3 perturbations leave p4/p5 bit-identical; c5 perturbations reach p3."""
    ok = True
    for seed in range(10):
        rng = Rng(7000 + seed)
        cfg = NeckConfig(
            pyramid_width=4,
            head_count=2,
            scse_reduction=2,
            in_channels=(3, 4, 5),
            base_height=8,
            base_width=8,
        )
        params = random_neck_params(cfg, rng.split(1), sigma=0.5)
        pin = synthetic_pyramid(cfg, 1, rng.split(2))
        base = neck_forward(pin, params, cfg)
        bumped_c3 = PyramidIn(Tensor4(pin.c3.data + rng.normal(pin.c3.dims)), pin.c4, pin.c5)
        out3 = neck_forward(bumped_c3, params, cfg)
        if not (np.array_equal(out3.p4.data, base.p4.data) and np.array_equal(out3.p5.data, base.p5.data)):
            ok = False
        bumped_c5 = PyramidIn(pin.c3, pin.c4, Tensor4(pin.c5.data + rng.normal(pin.c5.dims)))
        out5 = neck_forward(bumped_c5, params, cfg)
        if np.max(np.abs(out5.p3.data - base.p3.data)) == 0.0:
            ok = False
    report("07 top-down-directionality", ok, "10 random parameterizations")


def test_08_register_steering():
    """A -1e6 register column drives that token's mass below 1e-6 of baseline."""
    ok = True
    worst_ratio = 0.0
    for seed in range(20):
        rng = Rng(8000 + seed)
        heads = (1, 2)[seed % 2]
        dim = 4
        x = Tensor4(rng.normal((1, dim, 2, 2)))
        w_qkv = rng.split(1).normal((3, dim, dim), 0.6)
        r = rng.split(2)
        p = MhsaParams(w_qkv, heads, r.normal((heads, 4, 4), 0.3), r.normal((heads, dim // heads, 4), 0.3))
        target = seed % 4
        before, after = {}, {}
        mhsa_forward(x, p, None, before)
        steered = MhsaParams(p.w_qkv, heads, p.r_qk.data - 1e6 * (np.arange(4) == target), p.r_v.data.copy())
        mhsa_forward(x, steered, None, after)
        for m_before, m_after in zip(before["mass"][..., target].flat, after["mass"][..., target].flat):
            ratio = m_after / m_before
            worst_ratio = max(worst_ratio, ratio)
            if not (m_after < m_before and ratio < 1e-6):
                ok = False
    report("08 register-steering", ok, f"20 inputs, worst suppressed ratio {worst_ratio:.2e}")


def test_09_determinism_and_serialization(tmp_path):
    """Byte-identical reports, bit-exact param round trip, named corruption."""
    flags = [
        "--pyramid-width", "4", "--heads", "2", "--scse-reduction", "2",
        "--c3", "3", "--c4", "4", "--c5", "5", "--height", "8", "--width", "8",
        "--seed", "21",
    ]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["forward", *flags, "--report", str(r1)]) == EXIT_OK
    assert main(["forward", *flags, "--report", str(r2)]) == EXIT_OK
    reports_identical = r1.read_bytes() == r2.read_bytes()

    cfg = NeckConfig(
        pyramid_width=4, head_count=2, scse_reduction=2,
        in_channels=(3, 4, 5), base_height=8, base_width=8,
    )
    params = init_params(cfg, Rng(21).split(2))
    blob = save_params(params)
    restored = load_params(blob, cfg)
    round_trip_exact = all(
        va.data.tobytes() == vb.data.tobytes()
        for (_, va), (_, vb) in zip(params.named_values(), restored.named_values())
    )

    import json as _json

    header, rest = blob.split(b"\n", 1)
    manifest_len = int(header.split()[2])
    manifest = _json.loads(rest[:manifest_len])
    manifest["tensors"][3]["shape"][0] += 2
    corrupted_name = manifest["tensors"][3]["name"]
    new_manifest = _json.dumps(manifest, sort_keys=True).encode("ascii")
    corrupted = (
        f"fusionneck-params {PARAMS_FORMAT_VERSION} {len(new_manifest)}\n".encode("ascii")
        + new_manifest
        + rest[manifest_len:]
    )
    try:
        load_params(corrupted, cfg)
        names_offender = False
    except ParamsIOError as exc:
        names_offender = corrupted_name in str(exc)
    report(
        "09 determinism-serialization",
        reports_identical and round_trip_exact and names_offender,
        f"reports identical={reports_identical}, round trip exact={round_trip_exact}, "
        f"corruption names tensor={names_offender}",
    )


def test_10_desk_scale_performance():
    """Default-size forward < 2 s; full verify (gradient + oracle suites) < 120 s."""
    cfg = NeckConfig()  # width 64, heads 4, base 32x32
    rng = Rng(10)
    params = init_params(cfg, rng.split(2))
    pin = synthetic_pyramid(cfg, 2, rng.split(1))
    neck_forward(pin, params, cfg)  # warm-up
    start = time.perf_counter()
    neck_forward(pin, params, cfg)
    forward_s = time.perf_counter() - start

    grad_results, grad_s = timed_verify("grad")
    oracle_results, oracle_s = timed_verify("oracle")
    results = grad_results + oracle_results
    verify_s = grad_s + oracle_s
    all_green = all(r.passed for r in results)
    report(
        "10 desk-scale-performance",
        forward_s < 2.0 and verify_s < 120.0 and all_green,
        f"forward {forward_s:.2f}s (< 2s), verify all {verify_s:.1f}s (< 120s), green={all_green}",
    )

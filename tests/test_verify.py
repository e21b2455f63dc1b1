"""Every verify row can fail: corrupted gradients and NaN errors are caught, and no row passes empty."""

import collections
import itertools
import math
import re
from functools import partial

import numpy as np
import pytest

from faults import corrupted
from fusionneck import convkit, verify
from fusionneck.errors import ContractError
from fusionneck.neck import NeckConfig
from fusionneck.tensor import Value, _accum, mul, sum_all

ROWS = [("grad", case[0]) for case in verify.GRADIENT_CASES] + [("oracle", row[0]) for row in verify.ORACLES]
CONV_ROWS = [row for row in verify.ORACLES if row[0].endswith("_vs_naive")]


def run_row(monkeypatch, suite, name, wrap):
    """Run the one row ``name`` with its error stream (one seed for a gradient row) passed through ``wrap``."""
    if suite == "grad":
        monkeypatch.setattr(verify, "GRADIENT_CASES", [c for c in verify.GRADIENT_CASES if c[0] == name])
        grad_errors = verify._grad_errors
        monkeypatch.setattr(verify, "_grad_errors", lambda *args: wrap(grad_errors(*args)))
        return verify.gradient_suite(seeds=1)
    [(_, errors, tol, unit)] = [row for row in verify.ORACLES if row[0] == name]
    monkeypatch.setattr(verify, "ORACLES", [(name, lambda: wrap(errors()), tol, unit)])
    return verify.oracle_suite()


@pytest.mark.parametrize("suite, name", ROWS, ids=[name for _, name in ROWS])
def test_every_row_refuses_no_errors_and_keeps_a_first_nan(monkeypatch, suite, name):
    with pytest.raises(ContractError, match=f"^{re.escape(name)}: no "):
        run_row(monkeypatch, suite, name, lambda errors: iter(()))
    [row] = run_row(monkeypatch, suite, name, lambda errors: itertools.chain([math.nan], errors))
    assert row.name == name and math.isnan(row.metric) and not row.passed
    assert re.fullmatch(r"\d+ \w+, \d+\.\d\ds", row.detail)


@pytest.mark.parametrize("name, builder, tol, eps", verify.GRADIENT_CASES, ids=[c[0] for c in verify.GRADIENT_CASES])
def test_every_gradient_case_fails_when_corrupted(monkeypatch, name, builder, tol, eps):
    monkeypatch.setattr(verify, "GRADIENT_CASES", [(name, corrupted(builder), tol, eps)])
    [row] = verify.gradient_suite(seeds=1)
    assert row.metric >= tol and not row.passed


def test_nan_on_first_seed_is_kept(monkeypatch):
    """A NaN error on one seed stays the case's metric even when later seeds are finite."""
    calls = []

    def build(rng):
        x = Value(rng.normal((3,)))
        poison = not calls
        calls.append(poison)

        def loss(tape):
            out = sum_all(mul(x, x, tape), tape)
            if tape is not None and poison:
                tape.record(lambda: _accum(x, np.full(3, np.nan)))
            return out

        return loss, [x]

    monkeypatch.setattr(verify, "GRADIENT_CASES", [("nan_first", build, 1e-5, 1e-6)])
    [row] = verify.gradient_suite(seeds=2)
    assert math.isnan(row.metric) and row.detail.startswith("2 seeds, ")
    assert calls == [True, False]


def all_nan(fn):
    def patched(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.data[...] = np.nan
        return out
    return patched


@pytest.mark.parametrize("name, errors, tol, unit", CONV_ROWS, ids=[row[0] for row in CONV_ROWS])
def test_nan_oracle_output_fails_row(monkeypatch, name, errors, tol, unit):
    fast, naive, cases, seed = errors.args
    nan_errors = partial(verify._fast_vs_naive, fast, all_nan(naive), cases, seed)
    monkeypatch.setattr(verify, "ORACLES", [(name, nan_errors, tol, unit)])
    [row] = verify.oracle_suite()
    assert row.name == name and math.isnan(row.metric) and not row.passed


def test_fast_vs_naive_with_no_cases_refused(monkeypatch):
    errors = partial(verify._fast_vs_naive, convkit.conv2d, convkit.naive_conv2d, lambda rng: iter(()), 777)
    monkeypatch.setattr(verify, "ORACLES", [("conv2d_vs_naive", errors, verify.CONV_ORACLE_TOL, "cases")])
    with pytest.raises(ContractError, match="conv2d_vs_naive: no cases to check"):
        verify.oracle_suite()


def test_eleven_gradient_cases_and_five_oracle_rows():
    rows = verify.run("oracle")
    assert [r.name for r in rows] == [
        "conv2d_vs_naive", "pointwise_vs_naive", "deconv2x_vs_naive", "ap_vs_bruteforce", "mhsa_gate_vs_loop",
    ]
    assert [r.detail.split(",")[0] for r in rows] == ["50 cases", "20 cases", "20 cases", "200 scenes", "6 cases"]
    assert all(r.passed for r in rows)
    assert len(verify.GRADIENT_CASES) == 11


def test_neck_row_covers_every_arm(monkeypatch):
    """The neck row's default seeds reach all five arms (5/4/4/4/3 cases), and seed 1 stays the full arm."""
    def flags(cfg):
        return cfg.atrous_mode, cfg.use_mhsa, cfg.use_registers

    def arm_of(cfg):
        return [flags(NeckConfig(**arm)) for arm in verify.NECK_ARMS].index(flags(cfg))

    assert arm_of(verify._neck_test_config(1)) == 0
    arms = []
    neck_test_config = verify._neck_test_config

    def recording(seed):
        cfg = neck_test_config(seed)
        arms.append(arm_of(cfg))
        return cfg

    monkeypatch.setattr(verify, "_neck_test_config", recording)
    monkeypatch.setattr(verify, "grad_check", lambda loss, params, epsilon: 0.0)  # build the cases, check none
    list(verify._grad_errors("neck_forward", verify._case_neck, verify.GRAD_SEEDS, verify.NECK_EPS))
    assert sorted(collections.Counter(arms).values(), reverse=True) == [5, 4, 4, 4, 3]
    assert set(arms) == set(range(len(verify.NECK_ARMS)))

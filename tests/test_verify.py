"""Every verify row can fail: corrupted gradients and NaN errors are caught."""

import math

import numpy as np
import pytest

from faults import corrupted
from fusionneck import convkit, detmetrics, verify
from fusionneck.errors import ContractError
from fusionneck.tensor import Value, _accum, mul, sum_all


@pytest.mark.parametrize("name, builder, tol, eps", verify.GRADIENT_CASES, ids=[c[0] for c in verify.GRADIENT_CASES])
def test_every_gradient_case_fails_when_corrupted(name, builder, tol, eps):
    assert verify._grad_case(name, corrupted(builder), 1, eps) >= tol


def test_nan_on_first_seed_is_kept():
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

    assert math.isnan(verify._grad_case("nan_first", build, 2, 1e-6))
    assert calls == [True, False]


def all_nan(fn):
    def patched(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.data[...] = np.nan
        return out
    return patched


@pytest.mark.parametrize("index", range(len(verify.CONV_ORACLES)), ids=[row[0] for row in verify.CONV_ORACLES])
def test_nan_oracle_output_fails_row(monkeypatch, index):
    table = list(verify.CONV_ORACLES)
    name, fast, naive, cases, seed = table[index]
    table[index] = (name, fast, all_nan(naive), cases, seed)
    monkeypatch.setattr(verify, "CONV_ORACLES", table)
    row = verify.oracle_suite()[index]
    assert row.name == name and math.isnan(row.metric) and not row.passed


def test_nan_ap_fails_row(monkeypatch):
    monkeypatch.setattr(detmetrics, "brute_force_ap", lambda *args: math.nan)
    row = verify.ap_oracle_suite()
    assert math.isnan(row.metric) and not row.passed


def test_fast_vs_naive_with_no_cases_refused():
    with pytest.raises(ContractError, match="conv2d_vs_naive: no cases to compare"):
        verify._fast_vs_naive("conv2d_vs_naive", convkit.conv2d, convkit.naive_conv2d, [])


def test_gradient_suite_with_no_seeds_refused():
    with pytest.raises(ContractError, match="at least 1 seed per gradient case, got 0"):
        verify.gradient_suite(seeds=0)


def test_eleven_gradient_cases_and_five_oracle_rows():
    rows = verify.run("oracle")
    assert [r.name for r in rows] == [
        "conv2d_vs_naive", "pointwise_vs_naive", "deconv2x_vs_naive", "ap_vs_bruteforce", "receptive_field_closed_form",
    ]
    assert [r.detail for r in rows[:3]] == ["50 cases", "20 cases", "20 cases"]
    assert len(verify.GRADIENT_CASES) == 11

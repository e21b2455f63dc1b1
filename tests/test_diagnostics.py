"""Feature statistics, high-norm token detection, and Gini concentration."""

import numpy as np
import pytest

from fusionneck.diagnostics import artifact_report, gini_index, level_stats
from fusionneck.errors import ContractError, ShapeError
from fusionneck.tensor import Rng, Tensor4


class TestLevelStats:
    def test_zeros(self):
        s = level_stats(Tensor4.zeros(2, 3, 4, 4), level="p3")
        assert s["level"] == "p3"
        assert np.array_equal(s["channel_mean"], np.zeros(3))
        assert np.array_equal(s["channel_std"], np.zeros(3))
        assert np.array_equal(s["energy"], np.zeros((4, 4)))
        assert s["min"] == 0.0 and s["max"] == 0.0

    def test_constant(self):
        s = level_stats(Tensor4(np.full((1, 2, 3, 3), 2.5)))
        np.testing.assert_array_equal(s["channel_mean"], [2.5, 2.5])
        np.testing.assert_array_equal(s["channel_std"], [0.0, 0.0])

    def test_known_plane(self):
        x = Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        s = level_stats(x)
        assert s["channel_mean"][0] == 2.5
        np.testing.assert_allclose(s["channel_std"][0], np.sqrt(1.25), atol=1e-15)
        np.testing.assert_array_equal(s["energy"], [[1.0, 2.0], [3.0, 4.0]])
        assert s["min"] == 1.0 and s["max"] == 4.0

    def test_energy_is_channel_l2(self):
        x = np.zeros((1, 2, 1, 1))
        x[0, 0, 0, 0] = 3.0
        x[0, 1, 0, 0] = 4.0
        s = level_stats(Tensor4(x))
        assert s["energy"][0][0] == 5.0

    def test_deterministic(self):
        rng = Rng(0)
        x = Tensor4(rng.normal((2, 3, 4, 4)))
        a = level_stats(x)
        b = level_stats(x)
        assert a == b


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_index(np.ones(7)) == 0.0

    def test_point_mass(self):
        n = 8
        v = np.zeros(n)
        v[3] = n
        np.testing.assert_allclose(gini_index(v), (n - 1) / n, atol=1e-15)

    def test_scale_invariance(self):
        rng = Rng(1)
        v = np.abs(rng.normal((12,))) + 0.1
        assert abs(gini_index(v) - gini_index(123.456 * v)) < 1e-12

    def test_zero_iff_equal(self):
        rng = Rng(2)
        v = np.abs(rng.normal((9,))) + 0.1
        if np.ptp(v) > 0:
            assert gini_index(v) > 1e-12
        assert gini_index(np.full(9, v[0])) < 1e-15

    def test_bounded(self):
        for seed in range(30):
            v = np.abs(Rng(seed).normal((6,)))
            g = gini_index(v + 1e-9)
            assert 0.0 <= g <= 1.0

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            gini_index([-1.0, 2.0])


def uniform_mass(b, heads, n):
    """The traced mass of uniform attention: every column mean 1/n."""
    return np.full((b, heads, n), 1.0 / n)


class TestArtifactReport:
    def test_uniform_attention_uniform_norms(self):
        n = 9
        out = Tensor4(np.full((1, 2, 3, 3), 1.0))
        rep = artifact_report(uniform_mass(1, 1, n), out, k=3.0)
        assert rep["high_norm_fraction"] == 0.0
        np.testing.assert_allclose(rep["attention_mass"], np.ones(n), atol=1e-12)
        assert rep["gini"] < 1e-12

    def test_point_mass_gini(self):
        n = 4
        mass = np.zeros((1, 1, n))
        mass[..., 1] = 1.0
        rep = artifact_report(mass, Tensor4(np.full((1, 1, 2, 2), 1.0)), k=3.0)
        np.testing.assert_array_equal(rep["attention_mass"], [0.0, 4.0, 0.0, 0.0])
        np.testing.assert_allclose(rep["gini"], (n - 1) / n, atol=1e-12)

    def test_mass_averaged_over_items_and_heads(self):
        mass = np.zeros((2, 2, 4))
        mass[0, 0, 0] = mass[0, 1, 1] = mass[1, 0, 2] = mass[1, 1, 2] = 1.0
        rep = artifact_report(mass, Tensor4.zeros(2, 1, 2, 2))
        np.testing.assert_array_equal(rep["attention_mass"], [1.0, 1.0, 2.0, 0.0])

    def test_equal_norms_zero_fraction(self):
        """Degenerate sigma: threshold collapses to the mean, strict > gives 0."""
        rep = artifact_report(uniform_mass(2, 1, 4), Tensor4(np.full((2, 3, 2, 2), 0.7)), k=3.0)
        assert rep["high_norm_fraction"] == 0.0

    def test_outlier_detected(self):
        out = np.ones((1, 1, 4, 4))
        out[0, 0, 0, 0] = 100.0
        rep = artifact_report(uniform_mass(1, 1, 16), Tensor4(out), k=3.0)
        assert rep["high_norm_fraction"] == pytest.approx(1 / 16)

    def test_fraction_monotone_in_k(self):
        rng = Rng(3)
        out = Tensor4(rng.normal((1, 4, 4, 4)))
        mass = uniform_mass(1, 2, 16)
        fractions = [artifact_report(mass, out, k=k)["high_norm_fraction"] for k in (0.5, 1.0, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_non_stochastic_rejected(self):
        for total in (0.9, np.nan):
            with pytest.raises(ContractError, match="sum to 1"):
                artifact_report(np.full((1, 1, 3), total / 3), Tensor4.zeros(1, 1, 1, 3), k=3.0)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1, 3), (1, 0, 3), (1, 1, 4)])
    def test_mass_shape_checked(self, shape):
        with pytest.raises(ShapeError, match="mass must be"):
            artifact_report(np.zeros(shape), Tensor4.zeros(1, 1, 1, 3))

    def test_bad_k_rejected(self):
        with pytest.raises(ContractError):
            artifact_report(uniform_mass(1, 1, 2), Tensor4.zeros(1, 1, 1, 2), k=0.0)

    def test_deterministic(self):
        rng = Rng(4)
        out = Tensor4(rng.normal((2, 3, 2, 2)))
        mass = uniform_mass(2, 2, 4)
        assert artifact_report(mass, out) == artifact_report(mass, out)

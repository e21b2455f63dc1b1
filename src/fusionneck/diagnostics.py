"""Numeric diagnostics: per-level feature statistics and attention-artifact
measurements (high-norm token fractions, attention-mass concentration)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor4


@dataclass
class LevelStats:
    """Summary statistics for one pyramid level."""

    level: str
    channel_mean: np.ndarray  # (C,)
    channel_std: np.ndarray  # (C,) population std
    energy: np.ndarray  # (H, W) per-pixel L2 norm over channels, batch-averaged
    minimum: float
    maximum: float

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "channel_mean": self.channel_mean.tolist(),
            "channel_std": self.channel_std.tolist(),
            "energy": self.energy.tolist(),
            "min": self.minimum,
            "max": self.maximum,
        }


def level_stats(x: Tensor4, level: str = "") -> LevelStats:
    """Exact sample statistics of a feature map.

    Per-channel mean/std pool over batch and spatial positions; the energy
    map is sqrt(sum_c x²) per pixel, averaged over the batch.
    """
    data = x.data
    return LevelStats(
        level=level,
        channel_mean=data.mean(axis=(0, 2, 3)),
        channel_std=data.std(axis=(0, 2, 3)),
        energy=np.sqrt((data ** 2).sum(axis=1)).mean(axis=0),
        minimum=float(data.min()),
        maximum=float(data.max()),
    )


@dataclass
class ArtifactReport:
    """Token-level attention diagnostics for one attention site."""

    token_norms: np.ndarray  # (B·HW,) L2 over channels, batch-major token order
    high_norm_fraction: float  # share of tokens with norm > mean + k·std
    norm_threshold: float
    attention_mass: np.ndarray  # (HW,) incoming mass per token: column sums averaged over (item, head)
    gini: float

    def to_dict(self) -> dict:
        return {
            "token_norms": self.token_norms.tolist(),
            "high_norm_fraction": self.high_norm_fraction,
            "norm_threshold": self.norm_threshold,
            "attention_mass": self.attention_mass.tolist(),
            "gini": self.gini,
        }


def gini_index(values) -> float:
    """Gini concentration of a non-negative vector: 0 uniform, (n−1)/n point mass."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.ndim != 1 or v.size == 0:
        raise ContractError("gini_index: need a non-empty vector")
    if np.any(v < 0):
        raise ContractError("gini_index: values must be non-negative")
    total = v.sum()
    if total == 0.0:
        return 0.0
    n = v.size
    idx = np.arange(1, n + 1)
    return float(((2 * idx - n - 1) * v).sum() / (n * total))


def artifact_report(mass: np.ndarray, output: Tensor4, k: float = 3.0) -> ArtifactReport:
    """Quantify attention artifacts at one site.

    ``mass`` is the (B, heads, HW) attention mass that ``mhsa_forward``
    traces: per (batch item, head), the column means of the row-stochastic
    attention, so each sums to 1.  ``output`` is the per-token attention
    output map.  A token is flagged high-norm when its channel L2 norm
    strictly exceeds mean + k·std over all tokens.  The report's mass vector
    is the incoming mass per token, a column sum averaged over (item, head)
    pairs (HW times the mean of ``mass``), and gini measures its
    concentration.
    """
    if k <= 0:
        raise ContractError(f"artifact_report: k must be positive, got {k}")
    b, c, h, w = output.dims
    mass = np.asarray(mass, dtype=np.float64)
    if mass.ndim != 3 or mass.shape[0] != b or mass.shape[1] < 1 or mass.shape[2] != h * w:
        raise ShapeError(f"artifact_report: mass must be ({b}, heads, {h * w}), got {mass.shape}")
    if not np.max(np.abs(mass.sum(axis=-1) - 1.0)) <= 1e-9:  # NaN mass fails too
        raise ContractError("artifact_report: the mass of an (item, head) does not sum to 1 within 1e-9")
    norms = np.sqrt((output.data ** 2).sum(axis=1)).reshape(b * h * w)
    threshold = float(norms.mean() + k * norms.std())
    fraction = float((norms > threshold).mean())
    incoming = mass.mean(axis=(0, 1)) * (h * w)
    return ArtifactReport(
        token_norms=norms,
        high_norm_fraction=fraction,
        norm_threshold=threshold,
        attention_mass=incoming,
        gini=gini_index(incoming),
    )

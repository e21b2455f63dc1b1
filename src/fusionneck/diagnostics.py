"""Numeric diagnostics: per-level feature statistics and attention-artifact
measurements (high-norm token fractions, attention-mass concentration).

``level_stats`` and ``artifact_report`` return the JSON records that the
forward report holds under ``levels`` and ``attention``: plain dicts of
floats, strings and nested lists, so ``json.dumps`` writes them as they are.
Their docstrings list the keys.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor4


def level_stats(x: Tensor4, level: str = "") -> dict:
    """Exact sample statistics of a feature map, as one report record.

    Keys: ``level`` (the name given), ``channel_mean`` and ``channel_std``
    (C values each, pooled over batch and spatial positions; the std is the
    population std), ``energy`` (an H×W nested list: sqrt(sum_c x²) per
    pixel, averaged over the batch), and ``min`` and ``max`` (over every
    element of the map).
    """
    data = x.data
    return {
        "level": level,
        "channel_mean": data.mean(axis=(0, 2, 3)).tolist(),
        "channel_std": data.std(axis=(0, 2, 3)).tolist(),
        "energy": np.sqrt((data ** 2).sum(axis=1)).mean(axis=0).tolist(),
        "min": float(data.min()),
        "max": float(data.max()),
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


def artifact_report(mass: np.ndarray, output: Tensor4, k: float = 3.0) -> dict:
    """Quantify attention artifacts at one site, as one report record.

    ``mass`` is the (B, heads, HW) attention mass that ``mhsa_forward``
    traces: per (batch item, head), the column means of the row-stochastic
    attention, so each sums to 1.  ``output`` is the per-token attention
    output map.

    Keys: ``token_norms`` (the B·HW channel L2 norms of ``output``'s tokens,
    batch-major), ``norm_threshold`` (their mean + k·std),
    ``high_norm_fraction`` (the share of tokens whose norm strictly exceeds
    the threshold), ``attention_mass`` (the HW incoming mass per token: a
    column sum averaged over (item, head) pairs, HW times the mean of
    ``mass``) and ``gini`` (the ``gini_index`` of that mass).
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
    incoming = mass.mean(axis=(0, 1)) * (h * w)
    return {
        "token_norms": norms.tolist(),
        "high_norm_fraction": float((norms > threshold).mean()),
        "norm_threshold": threshold,
        "attention_mass": incoming.tolist(),
        "gini": gini_index(incoming),
    }

"""Machine-speed probes that put end-to-end times on a common scale.

On the 2-CPU VM this benchmark was built on, the host's speed drifts over
minutes: interpreter-bound code ran up to 2x slower from one minute to the
next and einsum-bound code about 1.35x, while the process's CPU time tracked
its wall time (slower execution, not time taken away).  Ten runs of one
commit on different seeds spread by up to 0.3 of their median, and the
median of two such sets twenty minutes apart differed by 25%.

A probe is a fixed kernel that runs no fusionneck code, doing the kind of
work that dominates a workload: numpy einsums over conv-sized arrays, or
einsums plus interpreter work on small objects.  Across runs of ``eval_8k``
on a host that drifted up to 2x, interpreter work alone over-corrected
(log-log slope of the op's time on the probe's 0.62) and ``mixed``
under-corrected (1.19); ``interpreter_mixed`` doubles the interpreter part.
``einsum_blas`` adds two BLAS-threaded matmuls of the shape MHSA multiplies
at p4: while another process kept the second CPU busy, ``infer_b2`` ran
1.37x slower and the einsum kernel not at all, since every threaded call
then waits for a time slice; with the matmuls its time over the probe's
moved by 6%.  A probe is sampled before every set-up and every operation,
and end-to-end times are reported at nominal speed: multiplied by the
probe's reference time over its median time near the operation (run.py), or
in the whole run for set-up.  The raw figures, the probe's median and the
scales are printed in the environment block of every run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

perf_counter = time.perf_counter

# Median kernel times on the build machine with the host quiet; they only set
# the unit of the scaled figures.
REFERENCE_MS = {"einsum": 16.0, "einsum_blas": 16.2, "mixed": 26.5, "interpreter_mixed": 37.0}
KERNELS = {
    "einsum": ("_einsum",),
    "einsum_blas": ("_einsum", "_blas"),
    "mixed": ("_einsum", "_interpreter"),
    "interpreter_mixed": ("_einsum", "_interpreter", "_interpreter"),
}


class _Span:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi


def _overlap(a: _Span, b: _Span) -> float:
    width = min(a.hi, b.hi) - max(a.lo, b.lo)
    return width * 0.5 if width > 0.0 else 0.0


class Probe:
    """One kind of probe kernel and the times it took in this run."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference_ms = REFERENCE_MS[kind]
        self._kernels = [getattr(self, name) for name in KERNELS[kind]]
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((64, 64))
        self._x = rng.standard_normal((2, 64, 34, 34))
        self._tokens = rng.standard_normal((256, 64))
        self._w_head = rng.standard_normal((64, 16))
        self.samples_ms: list[float] = []

    def _einsum(self) -> None:
        for u in range(3):
            np.einsum("oc,bchw->bohw", self._w, self._x[:, :, u:u + 32, 0:32])

    def _blas(self) -> None:
        q = self._tokens @ self._w_head
        q @ q.T

    def _interpreter(self) -> None:
        spans = [_Span(float(i % 7), float(i)) for i in range(3000)]
        probe = _Span(1.0, 3.0)
        total = 0.0
        for _ in range(8):
            for s in spans:
                total += _overlap(s, probe)

    def sample(self, budget_s: float = 0.0) -> None:
        """Run the kernel once, and again until ``budget_s`` seconds are spent."""
        spent = 0.0
        while True:
            start = perf_counter()
            for kernel in self._kernels:
                kernel()
            elapsed = perf_counter() - start
            self.samples_ms.append(elapsed * 1e3)
            spent += elapsed
            if spent >= budget_s:
                return

    def scale(self) -> float:
        """Factor that turns a time measured in this run into nominal time."""
        return self.reference_ms / statistics.median(self.samples_ms)

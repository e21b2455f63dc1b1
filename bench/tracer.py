"""Per-layer tracing of fusionneck from outside the package.

``Tracer`` replaces the library functions each layer exposes with timing
wrappers, installed at the module attribute the caller looks up (``neck``
resolves ``conv2d`` through its own namespace, ``attention`` its own
``pointwise_conv``, and so on), and puts every original back on exit, also
when the traced code raises.  Each wrapped call is a span; a span's self time
is its duration minus the time of the wrapped spans it encloses.

A *stage* is the outermost labelled span open at a moment.  Neck stages are
labelled by which neck call made them and which kernel they run: a
``pointwise_conv`` issued inside ``parallel_atrous_block`` is ``fusion``,
one issued by ``neck_forward`` itself is ``lateral``; a ``conv2d`` is the
branch of its kernel's dilation.  ``StageTape`` labels each backward closure
with the stage open when it was recorded and times it when the tape replays.
"""

from __future__ import annotations

import time
from typing import Callable

from fusionneck import attention, cli, detmetrics, neck, tensor

perf_counter = time.perf_counter

NECK_STAGES = (
    "neck.lateral",
    "neck.branch_d1",
    "neck.branch_d2",
    "neck.branch_d3",
    "neck.fusion",
    "neck.scse",
    "neck.mhsa",
    "neck.deconv",
    "neck.gate",
)
RUN_STAGES = (
    "neck.init_params",
    "neck.synthetic_pyramid",
    "diagnostics.level_stats",
    "diagnostics.artifact_report",
)
CONV_KERNELS = ("convkit.conv2d", "convkit.pointwise_conv", "convkit.deconv2x")


class SpanStats:
    """Totals for one traced function name."""

    __slots__ = ("calls", "self_s", "flop", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.flop = 0.0
        self.bytes = 0.0


def _conv_cost(args, out) -> tuple[float, float]:
    x, k = args[0], args[1]
    flop = 2.0 * out.size * k.in_channels * k.k_h * k.k_w
    return flop, 8.0 * (x.size + k.weight.size + k.bias.size + out.size)


def _deconv_cost(args, out) -> tuple[float, float]:
    x, k = args[0], args[1]
    flop = 2.0 * x.size * k.out_channels * k.k_h * k.k_w
    return flop, 8.0 * (x.size + k.weight.size + k.bias.size + out.size)


def _branch_stage(args) -> str:
    return f"neck.branch_d{args[1].dilation}"


class Tracer:
    """Context manager that wraps library functions and restores them on exit.

    Totals accumulate across every ``with`` block, so one tracer can cover
    many operations; divide by the operation count for per-operation figures.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.stage_fwd_s: dict[str, float] = {}
        self.stage_bwd_s: dict[str | None, float] = {}
        self.stage: str | None = None
        self._open: list[list] = []  # [name, child seconds] per open span
        self._patches: list[tuple[object, str, Callable]] = []

    def targets(self) -> list[tuple[object, str, str, object, Callable | None]]:
        """(module, attribute, span name, stage label, cost function) per wrap."""
        in_block = self._inside("neck.parallel_atrous_block")

        def pointwise_stage(_args) -> str:
            return "neck.fusion" if in_block() else "neck.lateral"

        return [
            (cli, "init_params", "neck.init_params", "neck.init_params", None),
            (cli, "synthetic_pyramid", "neck.synthetic_pyramid", "neck.synthetic_pyramid", None),
            (cli, "level_stats", "diagnostics.level_stats", "diagnostics.level_stats", None),
            (cli, "artifact_report", "diagnostics.artifact_report", "diagnostics.artifact_report", None),
            (neck, "parallel_atrous_block", "neck.parallel_atrous_block", None, None),
            (neck, "conv2d", "convkit.conv2d", _branch_stage, _conv_cost),
            (neck, "pointwise_conv", "convkit.pointwise_conv", pointwise_stage, _conv_cost),
            (neck, "concat_channels", "tensor.concat_channels", "neck.fusion", None),
            (neck, "scse_recalibrate", "attention.scse_recalibrate", "neck.scse", None),
            (attention, "pointwise_conv", "convkit.pointwise_conv", None, _conv_cost),
            (neck, "mhsa_forward", "attention.mhsa_forward", "neck.mhsa", None),
            (neck, "deconv2x", "convkit.deconv2x", "neck.deconv", _deconv_cost),
            (neck, "global_avg_pool", "tensor.global_avg_pool", "neck.gate", None),
            (neck, "logistic", "tensor.logistic", "neck.gate", None),
            (neck, "mul", "tensor.mul", "neck.gate", None),
            (detmetrics, "load_detections", "detmetrics.load", "detmetrics.load", None),
            (detmetrics, "load_ground_truths", "detmetrics.load", "detmetrics.load", None),
            (detmetrics, "evaluate_records", "detmetrics.evaluate_records", "detmetrics.evaluate_records", None),
            (detmetrics, "iou", "detmetrics.iou", None, None),
        ]

    def _inside(self, name: str) -> Callable[[], bool]:
        def check() -> bool:
            return any(frame[0] == name for frame in self._open)
        return check

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("Tracer is already installed")
        try:
            for module, attr, name, stage, cost in self.targets():
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, name, stage, cost))
                self._patches.append((module, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every original function, last wrapped first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        self._open.clear()
        self.stage = None

    def _wrap(self, original: Callable, name: str, stage, cost) -> Callable:
        stats = self.spans.setdefault(name, SpanStats())
        open_spans = self._open
        tracer = self

        def traced(*args, **kwargs):
            label = stage(args) if callable(stage) else stage
            owns_stage = label is not None and tracer.stage is None
            if owns_stage:
                tracer.stage = label
            frame = [name, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if owns_stage:
                    tracer.stage = None
                    tracer.stage_fwd_s[label] = tracer.stage_fwd_s.get(label, 0.0) + elapsed
            if cost is not None:
                flop, nbytes = cost(args, result)
                stats.flop += flop
                stats.bytes += nbytes
            return result

        traced.__wrapped__ = original
        traced.bench_tracer = self
        return traced

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())


class StageTape(tensor.Tape):
    """Tape whose closures time themselves into the stage that recorded them."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def record(self, fn: Callable[[], None]) -> None:
        label = self._tracer.stage
        totals = self._tracer.stage_bwd_s

        def timed() -> None:
            start = perf_counter()
            fn()
            totals[label] = totals.get(label, 0.0) + perf_counter() - start

        super().record(timed)

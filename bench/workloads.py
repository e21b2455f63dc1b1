"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come from the workload seed only;
what an operation costs never depends on the seed, so runs on different seeds
measure the same work.  ``setup`` may run several times in one process and
leaves the same state each time.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from fusionneck import cli, detmetrics, neck, tensor, verify
from fusionneck.neck import NeckConfig
from tracer import StageTape, Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# References in reference.json were recorded at this seed; every run checks
# against them whatever its own --seed is.
DEFAULT_SEED = 0
LEVEL_STATS_RTOL = 1e-9
LEVEL_FIELDS = ("channel_mean", "channel_std", "energy", "min", "max")

# gradcheck_tiny checks one of verify's tiny neck shapes (base 4x4, 2 heads,
# the commonest base with the per-head loop exercised).  Two shapes of
# different cost made the latency distribution bimodal and its median jump
# between the modes from run to run.
TINY_BASE, TINY_HEADS = 4, 2

EVAL_IMAGES = 200
EVAL_CLASSES = 4
EVAL_GTS_PER_IMAGE = 10
EVAL_DETS_PER_IMAGE = 40


class CheckFailed(Exception):
    """A workload output or a set-up check disagrees with its reference."""


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _relative_l2(actual, expected) -> float:
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    if a.shape != e.shape:
        return math.inf
    norm = float(np.linalg.norm(e))
    diff = float(np.linalg.norm(a - e))
    return diff / norm if norm > 0.0 else diff


def check_oracles() -> None:
    """Refuse to time a library whose oracle suite fails."""
    failed = [case.name for case in verify.oracle_suite() if not case.passed]
    if failed:
        raise CheckFailed(f"oracle suite failed: {', '.join(failed)}")


class Workload:
    """One operation type with its set-up, per-operation check and final checks."""

    name = ""
    unit = ""
    probe = ""  # calibrate.Probe kind: the kind of work that dominates an operation

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, tracer: Tracer | None = None):
        """Run operation ``i``; the result is handed to ``check``."""
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """Return an error message when the result of operation ``i`` is wrong."""
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, str | None]]:
        """Reference checks run once after timing: (name, error or None)."""
        return []

    def trace_metrics(self, result) -> dict[str, float]:
        """Workload-specific per-layer figures for one traced operation."""
        return {}


def _finite_shape_error(name: str, data: np.ndarray, shape: tuple) -> str | None:
    if data.shape != shape:
        return f"{name}: shape {data.shape}, expected {shape}"
    if not np.all(np.isfinite(data)):
        return f"{name}: non-finite values"
    return None


class InferB2(Workload):
    """``cli.cmd_forward`` at the default config, batch 2, no report file."""

    name = "infer_b2"
    unit = "one cmd_forward (param init, forward with attention trace, diagnostics)"
    probe = "einsum_blas"
    batch = 2

    def run_config(self, seed: int) -> cli.RunConfig:
        return cli.RunConfig(
            neck=NeckConfig(), seed=seed, batch=self.batch,
            report_path=None, params_in=None, params_out=None,
        )

    def setup(self) -> None:
        check_oracles()
        # Warm-up at the recorded seed; its level statistics are a final check.
        report = cli.cmd_forward(self.run_config(DEFAULT_SEED))
        self.reference_error = None
        for level, expected in load_reference()["infer_b2_levels"].items():
            for field in LEVEL_FIELDS:
                err = _relative_l2(report["levels"][level][field], expected[field])
                if not err <= LEVEL_STATS_RTOL and self.reference_error is None:
                    self.reference_error = f"{level}.{field} differs from the reference by {err:.3e}"

    def op(self, i: int, tracer: Tracer | None = None):
        return cli.cmd_forward(self.run_config(self.seed * 100_000 + i))

    def check(self, i: int, report) -> str | None:
        cfg = NeckConfig()
        c = cfg.pyramid_width
        for level, div in (("p3", 1), ("p4", 2), ("p5", 4)):
            stats = report["levels"][level]
            hw = (cfg.base_height // div, cfg.base_width // div)
            for field, shape in (("channel_mean", (c,)), ("channel_std", (c,)), ("energy", hw),
                                 ("min", ()), ("max", ())):
                err = _finite_shape_error(f"{level}.{field}", np.asarray(stats[field]), shape)
                if err:
                    return err
            if len(report["checksums"][level]) != 64:
                return f"{level}: missing checksum"
        for step in neck.STEPS:
            h, w = cfg.step_hw(step)
            norms = np.asarray(report["attention"][step]["token_norms"])
            err = _finite_shape_error(f"attention.{step}.token_norms", norms, (self.batch * h * w,))
            if err:
                return err
        return None

    def final_checks(self) -> list[tuple[str, str | None]]:
        return [("infer_b2.reference_level_stats", self.reference_error)]


def _pyramid_loss(out: neck.PyramidOut, weights, tape) -> tensor.Value:
    total = tensor.weighted_sum(out.p3, weights[0], tape)
    total = tensor.add(total, tensor.weighted_sum(out.p4, weights[1], tape), tape)
    return tensor.add(total, tensor.weighted_sum(out.p5, weights[2], tape), tape)


class TrainB2(Workload):
    """One training step: neck forward on a tape, weighted-sum loss, backward."""

    name = "train_b2"
    unit = "one forward + backward + zero_grad at the default config, batch 2"
    probe = "einsum"
    batch = 2

    def setup(self) -> None:
        check_oracles()
        self.cfg = NeckConfig()
        rng = tensor.Rng(self.seed)
        self.pin = neck.synthetic_pyramid(self.cfg, self.batch, rng.split(1))
        self.params = neck.init_params(self.cfg, rng.split(2))
        wrng = np.random.default_rng([self.seed, 2])
        self.out_shapes = [
            (self.batch, self.cfg.pyramid_width, self.cfg.base_height // div, self.cfg.base_width // div)
            for div in (1, 2, 4)
        ]
        self.weights = [wrng.standard_normal(shape) for shape in self.out_shapes]
        self.op(-1)  # warm-up

    def op(self, i: int, tracer: Tracer | None = None):
        tape = tensor.Tape() if tracer is None else StageTape(tracer)
        out = neck.neck_forward(self.pin, self.params, self.cfg, tape)
        loss = _pyramid_loss(out, self.weights, tape)
        loss.grad = np.ones_like(loss.data)
        start = perf_counter()
        tape.backward()
        backward_s = perf_counter() - start
        grads = [(name, v.grad) for name, v in self.params.named_values()]
        self.params.zero_grad()
        return out, grads, len(tape), backward_s

    def check(self, i: int, result) -> str | None:
        out, grads, _, _ = result
        for level, shape in zip((out.p3, out.p4, out.p5), self.out_shapes):
            err = _finite_shape_error("output", level.data, shape)
            if err:
                return err
        for (name, grad), (_, value) in zip(grads, self.params.named_values()):
            if grad is None:
                return f"{name}: no gradient"
            err = _finite_shape_error(f"grad {name}", grad, value.shape)
            if err:
                return err
        return None

    def final_checks(self) -> list[tuple[str, str | None]]:
        return [("train_b2.directional_difference", self.directional_check())]

    def directional_check(self) -> str | None:
        """Central difference along one seeded direction against the tape gradient."""
        values = self.params.values()
        drng = np.random.default_rng([self.seed, 3])
        direction = [drng.standard_normal(v.shape) for v in values]
        scale = 1.0 / math.sqrt(sum(float((d * d).sum()) for d in direction))
        direction = [d * scale for d in direction]
        _, grads, _, _ = self.op(-1)
        analytic = sum(float((g * d).sum()) for (_, g), d in zip(grads, direction))

        def loss_at(step: float) -> float:
            saved = [v.data.copy() for v in values]
            try:
                for v, d in zip(values, direction):
                    v.data += step * d
                return float(_pyramid_loss(neck.neck_forward(self.pin, self.params, self.cfg), self.weights, None).data)
            finally:
                for v, s in zip(values, saved):
                    v.data[...] = s

        eps = verify.NECK_EPS
        numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
        err = abs(numeric - analytic) / abs(analytic)
        if not err < verify.NECK_TOL:
            return f"directional derivative error {err:.3e} >= {verify.NECK_TOL:.0e}"
        return None

    def trace_metrics(self, result) -> dict[str, float]:
        _, _, records, backward_s = result
        return {"tensor.tape.records": records, "tensor.tape.backward_ms": backward_s * 1e3}


class GradcheckTiny(Workload):
    """One ``grad_check`` of the composed neck at verify's tiny configs."""

    name = "gradcheck_tiny"
    unit = "one tensor.grad_check of the tiny composed neck"
    probe = "mixed"

    def setup(self) -> None:
        check_oracles()
        self.max_err = 0.0
        loss, _, _ = self._case(0)
        loss(None)  # warm-up

    def _case(self, i: int):
        rng = tensor.Rng(self.seed).split(i)
        cfg = NeckConfig(
            pyramid_width=2, head_count=TINY_HEADS, dilations=(1, 2, 3), scse_reduction=2,
            in_channels=(2, 3, 4), base_height=TINY_BASE, base_width=TINY_BASE,
            gating_mode=("raw", "logistic")[rng.integers(0, 2)],
        )
        pin = neck.synthetic_pyramid(cfg, batch=1, rng=rng.split(1))
        params = verify.random_neck_params(cfg, rng.split(2), sigma=0.45)
        calls = [0]

        def loss(tape):
            calls[0] += 1
            out = neck.neck_forward(pin, params, cfg, tape)
            total = tensor.add(tensor.sum_all(out.p3, tape), tensor.sum_all(out.p4, tape), tape)
            return tensor.add(total, tensor.sum_all(out.p5, tape), tape)

        return loss, params.values(), calls

    def op(self, i: int, tracer: Tracer | None = None):
        loss, values, calls = self._case(i)
        err = tensor.grad_check(loss, values, verify.NECK_EPS)
        return err, calls[0]

    def check(self, i: int, result) -> str | None:
        err, _ = result
        self.max_err = max(self.max_err, err)
        if not err < verify.NECK_TOL:
            return f"grad_check error {err:.3e} >= {verify.NECK_TOL:.0e}"
        return None

    def trace_metrics(self, result) -> dict[str, float]:
        _, forwards = result
        return {"tensor.grad_check.forwards": forwards}


def write_scene_files(seed: int, directory: Path) -> tuple[Path, Path]:
    """Seeded detection and ground-truth interchange files (8k / 2k boxes).

    Ground-truth sides are log-uniform over 6..200 px so every size bucket is
    populated; 70% of detections jitter a ground truth of their image (90% of
    them keep its class), the rest are uniform false positives.
    """
    rng = np.random.default_rng([seed, 8])
    det_lines, gt_lines = [], []
    for n in range(EVAL_IMAGES):
        image = f"img{n:03d}"
        sides = np.exp(rng.uniform(math.log(6.0), math.log(200.0), (EVAL_GTS_PER_IMAGE, 2)))
        corners = rng.uniform(0.0, 1.0, (EVAL_GTS_PER_IMAGE, 2)) * (np.array([640.0, 480.0]) - sides)
        classes = rng.integers(0, EVAL_CLASSES, EVAL_GTS_PER_IMAGE)
        for (x, y), (w, h), c in zip(corners, sides, classes):
            gt_lines.append(f"{image} {c} {x:.2f} {y:.2f} {x + w:.2f} {y + h:.2f}")
        n_true = int(0.7 * EVAL_DETS_PER_IMAGE)
        for _ in range(n_true):
            j = rng.integers(0, EVAL_GTS_PER_IMAGE)
            w, h = sides[j] * np.exp(rng.normal(0.0, 0.15, 2))
            x, y = corners[j] + rng.normal(0.0, 0.1, 2) * sides[j]
            c = classes[j] if rng.uniform() < 0.9 else rng.integers(0, EVAL_CLASSES)
            det_lines.append(f"{image} {c} {x:.2f} {y:.2f} {x + w:.2f} {y + h:.2f} {rng.uniform(0.2, 1.0):.4f}")
        for _ in range(EVAL_DETS_PER_IMAGE - n_true):
            w, h = np.exp(rng.uniform(math.log(6.0), math.log(200.0), 2))
            x, y = rng.uniform(0.0, 640.0 - w), rng.uniform(0.0, 480.0 - h)
            c = rng.integers(0, EVAL_CLASSES)
            det_lines.append(f"{image} {c} {x:.2f} {y:.2f} {x + w:.2f} {y + h:.2f} {rng.uniform(0.0, 0.8):.4f}")
    directory.mkdir(parents=True, exist_ok=True)
    det_path = directory / f"dets_{seed}.txt"
    gt_path = directory / f"gts_{seed}.txt"
    det_path.write_text("\n".join(det_lines) + "\n")
    gt_path.write_text("\n".join(gt_lines) + "\n")
    return det_path, gt_path


def evaluate_files(det_path: Path, gt_path: Path) -> dict:
    dets = detmetrics.load_detections(str(det_path))
    gts = detmetrics.load_ground_truths(str(gt_path))
    return json.loads(json.dumps(detmetrics.evaluate_records(dets, gts).to_dict()))


class Eval8k(Workload):
    """Load both interchange files and evaluate them."""

    name = "eval_8k"
    unit = "one load_detections + load_ground_truths + evaluate_records (8k / 2k boxes)"
    probe = "interpreter_mixed"

    def setup(self) -> None:
        check_oracles()
        self.det_path, self.gt_path = write_scene_files(self.seed, self.workdir)
        dets = detmetrics.load_detections(str(self.det_path))
        gts = detmetrics.load_ground_truths(str(self.gt_path))
        counts: dict[tuple[str, int], list[int]] = {}
        for d in dets:
            counts.setdefault((d.image_id, d.class_id), [0, 0])[0] += 1
        for g in gts:
            counts.setdefault((g.image_id, g.class_id), [0, 0])[1] += 1
        self.distinct_pairs = sum(nd * ng for nd, ng in counts.values())
        self.first_result = None

    def op(self, i: int, tracer: Tracer | None = None):
        return evaluate_files(self.det_path, self.gt_path)

    def check(self, i: int, result) -> str | None:
        values = [result["map"], result["ap50"], result["ap75"],
                  result["ap_small"], result["ap_medium"], result["ap_large"]]
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"metric outside [0, 1]: {values}"
        if self.first_result is None:
            self.first_result = result
        elif result != self.first_result:
            return "result differs from the first evaluation of the same files"
        return None

    def final_checks(self) -> list[tuple[str, str | None]]:
        result = evaluate_files(*write_scene_files(DEFAULT_SEED, self.workdir))
        error = None if result == load_reference()["eval_8k_result"] else "differs from the reference"
        return [("eval_8k.reference", error)]


WORKLOADS = {w.name: w for w in (InferB2, TrainB2, GradcheckTiny, Eval8k)}

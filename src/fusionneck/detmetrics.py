"""Detection metrics: IoU matching, 11-point interpolated AP, and mAP.

The interpolation rule is the right-limit variant of the classic 11-point
scheme: the precision assigned to a recall grid point r is the best precision
among PR points with recall strictly greater than r, falling back to points
at exactly r when nothing lies beyond (the top of the curve).  A perfect
detector scores 1.0 and a detector with no true positives scores 0.0.

PR points are recorded at distinct-score cutoffs only (tie groups collapse
into one point), so ``average_precision``'s single ranking pass agrees
exactly with ``brute_force_ap``, which re-runs the greedy matching from
scratch at every cutoff.

Interchange files are line-oriented text, one box per line:

    detections:    image_id class_id x_min y_min x_max y_max score
    ground truth:  image_id class_id x_min y_min x_max y_max

Fields are whitespace-separated; blank lines and ``#`` comments are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ContractError, FileFormatError

RECALL_GRID = tuple(i / 10 for i in range(11))
DEFAULT_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))  # 0.50 ... 0.95
SMALL_AREA = 32.0 ** 2
LARGE_AREA = 96.0 ** 2


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in continuous pixel coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ContractError(f"degenerate box: {self}")

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass(frozen=True)
class Detection:
    """Scored class-labelled box."""

    box: Box
    score: float
    class_id: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ContractError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruth:
    """Reference class-labelled box."""

    box: Box
    class_id: int


@dataclass(frozen=True)
class DetectionRecord:
    """File-level detection row (adds the image id the core types omit)."""

    image_id: str
    class_id: int
    box: Box
    score: float


@dataclass(frozen=True)
class GroundTruthRecord:
    """File-level ground-truth row."""

    image_id: str
    class_id: int
    box: Box


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when the union has zero area."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area() + b.area() - inter
    return inter / union if union > 0.0 else 0.0


def _match_flags(
    ordered: Sequence[tuple[str, Box]],
    gts_by_image: dict[str, list[Box]],
    iou_thresh: float,
) -> list[bool]:
    """Greedy one-to-one matching of score-ordered detections to ground truths.

    Each detection takes the unmatched ground truth (of its image) with the
    highest IoU at or above the threshold; IoU ties keep the first ground
    truth in input order.
    """
    taken = {img: [False] * len(boxes) for img, boxes in gts_by_image.items()}
    flags: list[bool] = []
    for img, box in ordered:
        best_iou = 0.0
        best_j = -1
        for j, gt_box in enumerate(gts_by_image.get(img, ())):
            if taken.get(img, [])[j]:
                continue
            v = iou(box, gt_box)
            if v >= iou_thresh and v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0:
            taken[img][best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _pr_points(
    dets: Sequence[tuple[str, Box, float]],
    gts_by_image: dict[str, list[Box]],
    iou_thresh: float,
) -> list[tuple[float, float]]:
    """(recall, precision) points at every distinct score cutoff, best first."""
    npos = sum(len(v) for v in gts_by_image.values())
    order = sorted(range(len(dets)), key=lambda i: -dets[i][2])
    ordered = [(dets[i][0], dets[i][1]) for i in order]
    flags = _match_flags(ordered, gts_by_image, iou_thresh)
    points: list[tuple[float, float]] = []
    tp = 0
    for rank, idx in enumerate(order, start=1):
        tp += flags[rank - 1]
        boundary = rank == len(order) or dets[order[rank]][2] != dets[idx][2]
        if boundary:
            points.append((tp / npos if npos else 0.0, tp / rank))
    return points


def _interpolated_ap(points: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    for r in RECALL_GRID:
        best = 0.0
        found = False
        for rec, prec in points:
            if rec > r and prec > best:
                best = prec
                found = True
        if not found:
            for rec, prec in points:
                if rec == r and prec > best:
                    best = prec
        total += best
    return total / len(RECALL_GRID)


def _check_thresh(iou_thresh: float) -> None:
    if not 0.0 < iou_thresh < 1.0:
        raise ContractError(f"iou_thresh must lie in (0, 1), got {iou_thresh}")


def average_precision(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_thresh: float,
) -> float:
    """11-point interpolated AP for a single class (single image pool).

    Detections are ranked by descending score with ties kept in input order,
    matched greedily to ground truths, and the interpolated precision over
    the recall grid {0, 0.1, …, 1} is averaged.  No ground truths, or no
    detections, yields 0.
    """
    _check_thresh(iou_thresh)
    if not gts or not dets:
        return 0.0
    points = _pr_points(
        [("", d.box, d.score) for d in dets],
        {"": [g.box for g in gts]},
        iou_thresh,
    )
    return _interpolated_ap(points)


def brute_force_ap(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_thresh: float,
) -> float:
    """Oracle AP: re-derives the PR curve at every distinct score cutoff.

    For each cutoff the greedy matching is re-run from scratch on the
    surviving detections; the same 11-point rule is then applied.  Limited to
    small scenes (≤ 10 detections) and must agree with ``average_precision``
    exactly.
    """
    _check_thresh(iou_thresh)
    if len(dets) > 10:
        raise ContractError(f"brute_force_ap: limited to 10 detections, got {len(dets)}")
    if not gts or not dets:
        return 0.0
    npos = len(gts)
    gt_boxes = [g.box for g in gts]
    ranked = sorted(dets, key=lambda d: -d.score)
    cutoffs = sorted({d.score for d in dets}, reverse=True)
    points = []
    for cutoff in cutoffs:
        subset = [d for d in ranked if d.score >= cutoff]
        flags = _match_flags([("", d.box) for d in subset], {"": gt_boxes}, iou_thresh)
        tp = sum(flags)
        points.append((tp / npos, tp / len(subset)))
    total = 0.0
    for r in RECALL_GRID:
        above = [p for rec, p in points if rec > r]
        if not above:
            above = [p for rec, p in points if rec == r]
        total += max(above) if above else 0.0
    return total / 11.0


def mean_ap(per_class: Sequence[float]) -> float:
    """Arithmetic mean of per-class AP values."""
    if len(per_class) == 0:
        raise ContractError("mean_ap: need at least one class")
    return float(sum(per_class)) / len(per_class)


@dataclass
class ApResult:
    """Full evaluation summary across classes, thresholds, and size buckets."""

    per_class: dict[int, dict]
    mean: float  # mAP over classes at the headline threshold average
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float

    def to_dict(self) -> dict:
        return {
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "map": self.mean,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "ap_small": self.ap_small,
            "ap_medium": self.ap_medium,
            "ap_large": self.ap_large,
        }


def _class_ap(
    dets: Sequence[DetectionRecord],
    gts: Sequence[GroundTruthRecord],
    iou_thresh: float,
) -> float:
    if not gts or not dets:
        return 0.0
    gts_by_image: dict[str, list[Box]] = {}
    for g in gts:
        gts_by_image.setdefault(g.image_id, []).append(g.box)
    points = _pr_points([(d.image_id, d.box, d.score) for d in dets], gts_by_image, iou_thresh)
    return _interpolated_ap(points)


def _bucket(records: Iterable, lo: float, hi: float) -> list:
    return [r for r in records if lo <= r.box.area() < hi]


def evaluate_records(
    dets: Sequence[DetectionRecord],
    gts: Sequence[GroundTruthRecord],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> ApResult:
    """Per-class AP, mAP, AP50/AP75, and size-bucketed AP over record lists.

    Headline AP per class is the mean over ``thresholds``; matching is
    confined to each record's image.  Size buckets filter both detections and
    ground truths by box area (small < 32², medium < 96², large ≥ 96²).
    A class with no ground truths and no detections is flagged undefined.
    """
    if not thresholds:
        raise ContractError("evaluate_records: need at least one threshold")
    classes = sorted({d.class_id for d in dets} | {g.class_id for g in gts})
    if not classes:
        raise ContractError("evaluate_records: no classes present")
    per_class: dict[int, dict] = {}
    buckets = {
        "small": (0.0, SMALL_AREA),
        "medium": (SMALL_AREA, LARGE_AREA),
        "large": (LARGE_AREA, float("inf")),
    }
    bucket_totals = {name: [] for name in buckets}
    for cid in classes:
        cdets = [d for d in dets if d.class_id == cid]
        cgts = [g for g in gts if g.class_id == cid]
        ap_by_thresh = {t: _class_ap(cdets, cgts, t) for t in thresholds}
        headline = sum(ap_by_thresh[t] for t in thresholds) / len(thresholds)
        entry = {
            "ap": headline,
            "ap50": _class_ap(cdets, cgts, 0.50),
            "ap75": _class_ap(cdets, cgts, 0.75),
            "defined": bool(cdets or cgts),
        }
        for name, (lo, hi) in buckets.items():
            bdets = _bucket(cdets, lo, hi)
            bgts = _bucket(cgts, lo, hi)
            bucket_ap = sum(_class_ap(bdets, bgts, t) for t in thresholds) / len(thresholds)
            entry[f"ap_{name}"] = bucket_ap
            bucket_totals[name].append(bucket_ap)
        per_class[cid] = entry
    n = len(classes)
    return ApResult(
        per_class=per_class,
        mean=mean_ap([per_class[c]["ap"] for c in classes]),
        ap50=sum(per_class[c]["ap50"] for c in classes) / n,
        ap75=sum(per_class[c]["ap75"] for c in classes) / n,
        ap_small=sum(bucket_totals["small"]) / n,
        ap_medium=sum(bucket_totals["medium"]) / n,
        ap_large=sum(bucket_totals["large"]) / n,
    )


def _parse_line(path: str, lineno: int, line: str, with_score: bool):
    fields = line.split()
    expected = 7 if with_score else 6
    if len(fields) != expected:
        raise FileFormatError(f"{path}:{lineno}: expected {expected} fields, got {len(fields)}")
    image_id = fields[0]
    try:
        class_id = int(fields[1])
        coords = [float(v) for v in fields[2:6]]
        score = float(fields[6]) if with_score else None
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    try:
        box = Box(*coords)
        if with_score and not 0.0 <= score <= 1.0:
            raise ContractError(f"score {score} outside [0, 1]")
    except ContractError as exc:
        raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return image_id, class_id, box, score


def _iter_records(path: str):
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_detections(path: str) -> list[DetectionRecord]:
    """Read a detection interchange file; malformed rows name their line."""
    out = []
    for lineno, line in _iter_records(path):
        image_id, class_id, box, score = _parse_line(path, lineno, line, with_score=True)
        out.append(DetectionRecord(image_id, class_id, box, score))
    return out


def load_ground_truths(path: str) -> list[GroundTruthRecord]:
    """Read a ground-truth interchange file; malformed rows name their line."""
    out = []
    for lineno, line in _iter_records(path):
        image_id, class_id, box, _ = _parse_line(path, lineno, line, with_score=False)
        out.append(GroundTruthRecord(image_id, class_id, box))
    return out

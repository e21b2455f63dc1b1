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

Matching is greedy: in rank order (descending score, ties in input order),
each detection takes the unmatched ground truth of its image with the
highest IoU at or above the threshold, IoU ties keeping the first ground
truth in input order.  ``iou``, ``_match_flags`` and ``_pr_points``
implement this one box at a time; they are the reference, which
``average_precision`` uses.  ``brute_force_ap`` shares only
``_gts_by_image`` and ``_match_flags`` and builds its own PR curve, one
cutoff at a time.  Every entry point takes an IoU threshold in
(0, 1] and refuses any other with ``ContractError``.  ``evaluate_records``
computes the same values with array operations.  It ranks all detections
once (a stable sort), computes the IoU of every same-class, same-image
(detection, ground truth) pair once, with ``iou``'s operations in ``iou``'s
order, and drops the pairs below the smallest threshold, which never match.
It then runs the greedy matching for all thresholds together.  Matching
never crosses a (class, image) group, so step k matches the k-th ranked
detection of every group at once.  Size buckets reuse the IoU values but
match again on the same-bucket pairs, because dropping ground truths changes
what greedy matching picks.  Its results equal the reference's bit for bit.

Interchange files are line-oriented text, one box per line:

    detections:    image_id class_id x_min y_min x_max y_max score
    ground truth:  image_id class_id x_min y_min x_max y_max

A line ends at a line feed (a carriage return before it is dropped); fields
are separated by whitespace, which includes every other line separator.
Blank lines and ``#`` comments are skipped.  Box coordinates must be finite.
The loaders return ``Detection`` and ``GroundTruth`` records, the one record
pair that every function here takes: each carries its image id, class id and
box, and a detection its score.  ``Box``, ``Detection`` and ``GroundTruth``
are immutable named tuples, checked on every construction, ``_make`` and
``_replace`` included (a record's box must be a ``Box``); like any tuple, a
``Box`` equals the plain 4-tuple of its corners.  ``evaluate_records`` reads
only the ``image_id``, ``class_id``, ``box`` and ``score`` attributes, and a
box as its four corners in order.  It, ``average_precision`` and
``brute_force_ap`` refuse a box whose area exceeds half the largest float.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, FileFormatError

RECALL_GRID = tuple(i / 10 for i in range(11))
DEFAULT_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))  # 0.50 ... 0.95
SMALL_AREA = 32.0 ** 2
LARGE_AREA = 96.0 ** 2
_INF = float("inf")
_MAX = sys.float_info.max
SIZE_BUCKETS = {
    "small": (0.0, SMALL_AREA),
    "medium": (SMALL_AREA, LARGE_AREA),
    "large": (LARGE_AREA, _INF),
}
_PAIR_BLOCK = 512  # detections whose pairs evaluate_records builds at once
_box, _class_id, _image_id, _score = map(attrgetter, ("box", "class_id", "image_id", "score"))


class _Checked:
    """Mixin for the record tuples: ``_make``, and with it ``_replace``, go
    through the checking ``__new__`` instead of ``tuple.__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Box(_Checked, namedtuple("Box", "x_min y_min x_max y_max")):
    """Axis-aligned box in continuous pixel coordinates."""

    __slots__ = ()

    def __new__(cls, x_min: float, y_min: float, x_max: float, y_max: float) -> Box:
        self = tuple.__new__(cls, (x_min, y_min, x_max, y_max))
        # one chained comparison: false for NaN, infinities, ints beyond the
        # float range and inverted corners
        if not (-_MAX <= x_min <= x_max <= _MAX and -_MAX <= y_min <= y_max <= _MAX):
            raise ContractError(f"box needs finite coordinates with min <= max: {self}")
        return self

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


class Detection(_Checked, namedtuple("Detection", "image_id class_id box score")):
    """Scored class-labelled box in one image; the score lies in [0, 1]."""

    __slots__ = ()

    def __new__(cls, image_id: str, class_id: int, box: Box, score: float) -> Detection:
        if not isinstance(box, Box):
            raise ContractError(f"box must be a Box, got {box!r}")
        if not 0.0 <= score <= 1.0:  # false for NaN too
            raise ContractError(f"score {score} outside [0, 1]")
        return tuple.__new__(cls, (image_id, class_id, box, score))


class GroundTruth(_Checked, namedtuple("GroundTruth", "image_id class_id box")):
    """Reference class-labelled box in one image."""

    __slots__ = ()

    def __new__(cls, image_id: str, class_id: int, box: Box) -> GroundTruth:
        if not isinstance(box, Box):
            raise ContractError(f"box must be a Box, got {box!r}")
        return tuple.__new__(cls, (image_id, class_id, box))


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when the union has zero area."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area() + b.area() - inter
    return inter / union if union > 0.0 else 0.0


def _match_flags(
    ordered: Sequence[Detection],
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
    for d in ordered:
        img = d.image_id
        best_iou = 0.0
        best_j = -1
        for j, gt_box in enumerate(gts_by_image.get(img, ())):
            if taken[img][j]:
                continue
            v = iou(d.box, gt_box)
            if v >= iou_thresh and v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0:
            taken[img][best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _gts_by_image(gts: Iterable[GroundTruth]) -> dict[str, list[Box]]:
    """Ground-truth boxes grouped by image, each group in input order."""
    by_image: dict[str, list[Box]] = {}
    for g in gts:
        by_image.setdefault(g.image_id, []).append(g.box)
    return by_image


def _pr_points(
    dets: Sequence[Detection],
    gts_by_image: dict[str, list[Box]],
    iou_thresh: float,
) -> list[tuple[float, float]]:
    """(recall, precision) points at every distinct score cutoff, best first."""
    npos = sum(len(v) for v in gts_by_image.values())
    ordered = sorted(dets, key=lambda d: -d.score)
    flags = _match_flags(ordered, gts_by_image, iou_thresh)
    points: list[tuple[float, float]] = []
    tp = 0
    for rank, d in enumerate(ordered, start=1):
        tp += flags[rank - 1]
        boundary = rank == len(ordered) or ordered[rank].score != d.score
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


def _check_thresh(*thresholds: float) -> None:
    """The one IoU-threshold rule: each lies in (0, 1]; a NaN fails it."""
    if not all(0.0 < t <= 1.0 for t in thresholds):
        raise ContractError(f"IoU thresholds must lie in (0, 1], got {list(thresholds)}")


def average_precision(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_thresh: float,
) -> float:
    """11-point interpolated AP for a single class.

    Detections are ranked by descending score with ties kept in input order,
    matched greedily to the ground truths of their own image, and the
    interpolated precision over the recall grid {0, 0.1, …, 1} is averaged.
    No ground truths, or no detections, yields 0.
    """
    _check_thresh(iou_thresh)
    _box_areas(dets), _box_areas(gts)
    if not gts or not dets:
        return 0.0
    return _interpolated_ap(_pr_points(dets, _gts_by_image(gts), iou_thresh))


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
    _box_areas(dets), _box_areas(gts)
    if not gts or not dets:
        return 0.0
    npos = len(gts)
    gts_by_image = _gts_by_image(gts)
    ranked = sorted(dets, key=lambda d: -d.score)
    cutoffs = sorted({d.score for d in dets}, reverse=True)
    points = []
    for cutoff in cutoffs:
        subset = [d for d in ranked if d.score >= cutoff]
        flags = _match_flags(subset, gts_by_image, iou_thresh)
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


def _indices(*columns: Sequence) -> tuple[dict, list[np.ndarray]]:
    """Keys numbered in order of first appearance across the columns, and
    each column as an array of those numbers."""
    table = {k: i for i, k in enumerate(dict.fromkeys(chain(*columns)))}
    return table, [np.fromiter(map(table.__getitem__, c), dtype=np.intp, count=len(c)) for c in columns]


def _boxes(records: Sequence) -> np.ndarray:
    """(4, n) array of x_min, y_min, x_max, y_max rows, in record order."""
    corners = chain.from_iterable(map(_box, records))
    return np.fromiter(corners, dtype=np.float64, count=4 * len(records)).reshape(len(records), 4).T


def _box_areas(records: Sequence, boxes: np.ndarray | None = None) -> np.ndarray:
    """``Box.area`` of each record, ``boxes`` being ``_boxes(records)``; refuses an area above _MAX / 2 or NaN."""
    boxes = _boxes(records) if boxes is None else boxes
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
        areas = (boxes[2] - boxes[0]) * (boxes[3] - boxes[1])
    bad = np.flatnonzero(~(areas <= _MAX / 2))  # so that no union of two boxes overflows
    if len(bad):
        raise ContractError(f"box area of {records[bad[0]]} exceeds half the largest float, so a union could overflow")
    return areas


def _size_buckets(areas: np.ndarray) -> np.ndarray:
    """The ``SIZE_BUCKETS`` index of each area, -1 for none."""
    bucket = np.full(len(areas), -1)
    for b, (lo, hi) in enumerate(SIZE_BUCKETS.values()):
        bucket[(lo <= areas) & (areas < hi)] = b
    return bucket


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + n)`` over the (s, n) pairs."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _pair_iou(a: np.ndarray, b: np.ndarray, area_a: np.ndarray, area_b: np.ndarray) -> np.ndarray:
    """``iou`` of the columns of two (4, n) box arrays, with its operations in its order."""
    with np.errstate(over="ignore"):  # only a gap between far-apart boxes overflows, to -inf, read as 0
        ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
        iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def _matchable_pairs(
    det_group: np.ndarray,
    gt_group: np.ndarray,
    det_box: np.ndarray,
    gt_box: np.ndarray,
    det_area: np.ndarray,
    gt_area: np.ndarray,
    min_iou: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same-group (detection, ground truth) index pairs with IoU >= ``min_iou``, and that IoU.

    Sorted by detection, then by descending IoU, then by ground truth, which
    numbers a group's ground truths in input order.  Pairs are built for
    ``_PAIR_BLOCK`` detections at a time, which bounds the temporaries.
    """
    gt_order = np.argsort(gt_group, kind="stable")
    sorted_group = gt_group[gt_order]
    blocks = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    for start in range(0, len(det_group), _PAIR_BLOCK):
        group = det_group[start:start + _PAIR_BLOCK]
        lo = np.searchsorted(sorted_group, group, side="left")
        count = np.searchsorted(sorted_group, group, side="right") - lo
        det = np.repeat(np.arange(start, start + len(group)), count)
        gt = gt_order[_ranges(lo, count)]
        iou_k = _pair_iou(det_box[:, det], gt_box[:, gt], det_area[det], gt_area[gt])
        keep = np.flatnonzero(iou_k >= min_iou)
        keep = keep[np.lexsort((-iou_k[keep], det[keep]))]  # stable: IoU ties stay in ground-truth order
        blocks.append((det[keep], gt[keep], iou_k[keep]))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _greedy_hits(
    det_group: np.ndarray,
    pair_det: np.ndarray,
    pair_gt: np.ndarray,
    pair_iou: np.ndarray,
    n_gt: int,
    thresholds: np.ndarray,
) -> np.ndarray:
    """``_match_flags`` at every threshold at once: a (thresholds, detections) hit mask.

    Detections are numbered in rank order, and a ground truth pairs only with
    detections of its group.  Pairs are sorted as ``_matchable_pairs`` sorts
    them, so a detection takes its first pair at or above the threshold whose
    ground truth is not yet taken, as ``_match_flags`` does.  Groups never
    share ground truths, so step k matches the k-th ranked paired detection
    of every group, for all thresholds together.
    """
    hits = np.zeros((len(thresholds), len(det_group)), dtype=bool)
    seg_start = np.flatnonzero(np.diff(pair_det, prepend=-1))
    seg_len = np.diff(seg_start, append=len(pair_det))
    seg_det = pair_det[seg_start]
    # a detection's step is its rank among the paired detections of its group
    group = det_group[seg_det]
    by_group = np.argsort(group, kind="stable")
    position = np.arange(len(seg_det))
    step = np.empty_like(position)
    step[by_group] = position - np.maximum.accumulate(
        np.where(np.diff(group[by_group], prepend=-1) != 0, position, 0))
    by_step = np.argsort(step, kind="stable")
    bounds = np.cumsum(np.bincount(step)).tolist()
    del group, by_group, position, step  # the first steps are the largest

    taken = np.zeros((len(thresholds), n_gt), dtype=bool)
    column = thresholds[:, None]
    for s0, s1 in zip([0] + bounds[:-1], bounds):
        segs = by_step[s0:s1]
        pairs = _ranges(seg_start[segs], seg_len[segs])
        g = pair_gt[pairs]
        free = (pair_iou[pairs] >= column) & ~taken[:, g]
        n = len(pairs)
        position = np.where(free, np.arange(n, dtype=np.int32), n)
        first = np.minimum.reduceat(position, np.cumsum(seg_len[segs]) - seg_len[segs], axis=1)
        hit = first < n
        rows, cols = np.nonzero(hit)
        taken[rows, g[first[rows, cols]]] = True
        hits[:, seg_det[segs]] = hit
    return hits


def _ranked_aps(scores: np.ndarray, hits: np.ndarray, n_gt: int) -> list[float]:
    """``_interpolated_ap`` of the PR points of each hits row, for detections in rank order."""
    if not len(scores) or not n_gt:
        return [0.0] * len(hits)
    last = np.flatnonzero(np.diff(scores, append=np.nan))  # end of each tie group
    # recall never falls along the ranking, so the points above a grid value
    # are a suffix, whose best precision is a suffix maximum
    best = np.zeros(len(last) + 1)
    aps = []
    for row in hits:
        tp = np.cumsum(row)[last]
        recall = tp / n_gt
        best[:-1] = np.maximum.accumulate((tp / (last + 1))[::-1])[::-1]
        above = np.searchsorted(recall, RECALL_GRID, side="right")
        at = np.searchsorted(recall, RECALL_GRID, side="left")
        total = 0.0
        for value in best[np.where(above < len(last), above, at)].tolist():
            total += value  # left to right, as _interpolated_ap sums
        aps.append(total / len(RECALL_GRID))
    return aps


def evaluate_records(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> ApResult:
    """Per-class AP, mAP, AP50/AP75, and size-bucketed AP over record lists.

    Headline AP per class is the mean over ``thresholds``, each in (0, 1];
    matching is confined to each record's image.  Size buckets filter both
    detections and ground truths by box area (small < 32², medium < 96²,
    large ≥ 96²).  Classes are those the records name, so each has a
    detection or a ground truth and its ``"defined"`` flag is always true; the
    key stays so that results keep one shape.  Every AP equals the one
    ``average_precision`` gives.
    """
    if not thresholds:
        raise ContractError("evaluate_records: need at least one threshold")
    _check_thresh(*thresholds)
    class_ids, (d_cls, g_cls) = _indices(list(map(_class_id, dets)), list(map(_class_id, gts)))
    images, (d_img, g_img) = _indices(list(map(_image_id, dets)), list(map(_image_id, gts)))
    classes = sorted(class_ids)
    if not classes:
        raise ContractError("evaluate_records: no classes present")
    d_score = np.fromiter(map(_score, dets), dtype=np.float64, count=len(dets))
    if not np.all((0.0 <= d_score) & (d_score <= 1.0)):  # NaN would rank unlike sorted()
        raise ContractError("evaluate_records: detection scores must lie in [0, 1]")
    rank = np.argsort(-d_score, kind="stable")
    d_cls, d_img, d_score = d_cls[rank], d_img[rank], d_score[rank]
    d_box, g_box = _boxes(dets), _boxes(gts)
    d_area, g_area = _box_areas(dets, d_box)[rank], _box_areas(gts, g_box)
    d_box, d_bucket, g_bucket = d_box[:, rank], _size_buckets(d_area), _size_buckets(g_area)
    n_img, n_gt = len(images), len(g_cls)

    # A pair below every threshold never matches, so it is dropped.
    matched = sorted(set(thresholds) | {0.50, 0.75})
    group = d_cls * n_img + d_img
    pair_det, pair_gt, pair_iou = _matchable_pairs(
        group, g_cls * n_img + g_img, d_box, g_box, d_area, g_area, matched[0])
    del d_box, g_box, d_area, g_area
    hits = _greedy_hits(group, pair_det, pair_gt, pair_iou, n_gt, np.array(matched))
    # Buckets reuse the IoU values, but match again: dropping ground truths
    # changes what greedy matching picks.
    same = (d_bucket[pair_det] == g_bucket[pair_gt]) & (d_bucket[pair_det] >= 0)
    bucket_hits = _greedy_hits(group, pair_det[same], pair_gt[same], pair_iou[same], n_gt, np.array(matched))

    per_class: dict[int, dict] = {}
    for cid in classes:
        d_in, g_in = d_cls == class_ids[cid], g_cls == class_ids[cid]
        ap_by_thresh = dict(zip(matched, _ranked_aps(d_score[d_in], hits[:, d_in], int(g_in.sum()))))
        entry = {
            "ap": sum(ap_by_thresh[t] for t in thresholds) / len(thresholds),
            "ap50": ap_by_thresh[0.50],
            "ap75": ap_by_thresh[0.75],
            "defined": bool(d_in.any() or g_in.any()),
        }
        for b, name in enumerate(SIZE_BUCKETS):
            d_b, g_b = d_in & (d_bucket == b), g_in & (g_bucket == b)
            bucket_aps = dict(zip(matched, _ranked_aps(d_score[d_b], bucket_hits[:, d_b], int(g_b.sum()))))
            entry[f"ap_{name}"] = sum(bucket_aps[t] for t in thresholds) / len(thresholds)
        per_class[cid] = entry
    keys = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large")  # ApResult's field order
    return ApResult(per_class, *(mean_ap([per_class[c][key] for c in classes]) for key in keys))


def _load(path: str, with_score: bool) -> list:
    """Records of an interchange file; a malformed row raises naming ``path:lineno``.

    A line ends at a line feed; a carriage return before it, and any other
    line separator, is whitespace within the line.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}:{lineno}: byte {exc.start} is not UTF-8 text") from None
    expected = 7 if with_score else 6
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != expected:
            raise FileFormatError(f"{path}:{lineno}: expected {expected} fields, got {len(fields)}")
        try:  # all fields parse before Box checks the coordinates and Detection the score
            class_id = int(fields[1])
            corners = float(fields[2]), float(fields[3]), float(fields[4]), float(fields[5])
            score = float(fields[6]) if with_score else None
            box = Box(*corners)
            records.append(Detection(fields[0], class_id, box, score) if with_score
                           else GroundTruth(fields[0], class_id, box))
        except (ValueError, ContractError) as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return records


def load_detections(path: str) -> list[Detection]:
    """Read a detection interchange file; malformed rows name their line."""
    return _load(path, with_score=True)


def load_ground_truths(path: str) -> list[GroundTruth]:
    """Read a ground-truth interchange file; malformed rows name their line."""
    return _load(path, with_score=False)

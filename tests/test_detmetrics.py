"""IoU, 11-point interpolated AP vs. the cutoff oracle, mAP, and file I/O."""

from pathlib import Path

import numpy as np
import pytest

from fusionneck.detmetrics import (
    Box,
    Detection,
    GroundTruth,
    average_precision,
    brute_force_ap,
    evaluate_records,
    iou,
    load_detections,
    load_ground_truths,
    mean_ap,
)
from fusionneck.errors import ContractError, FileFormatError
from fusionneck.tensor import Rng
from fusionneck.verify import random_scene

DATA = Path(__file__).parent / "data"


def unit_box(x=0.0, y=0.0, side=1.0):
    return Box(x, y, x + side, y + side)


class TestIou:
    def test_identical_boxes(self):
        b = unit_box()
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(unit_box(0, 0), unit_box(5, 5)) == 0.0

    def test_half_overlap_is_one_third(self):
        a = unit_box(0.0, 0.0)
        b = unit_box(0.5, 0.0)
        np.testing.assert_allclose(iou(a, b), 1 / 3, atol=1e-15)

    def test_symmetric_and_bounded(self):
        rng = Rng(0)
        for _ in range(50):
            vals = rng.uniform(0.0, 10.0, 8)
            a = Box(min(vals[0], vals[1]), min(vals[2], vals[3]), max(vals[0], vals[1]), max(vals[2], vals[3]))
            b = Box(min(vals[4], vals[5]), min(vals[6], vals[7]), max(vals[4], vals[5]), max(vals[6], vals[7]))
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_zero_union(self):
        degenerate = Box(1.0, 1.0, 1.0, 1.0)
        assert iou(degenerate, degenerate) == 0.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(ContractError):
            Box(2.0, 0.0, 1.0, 1.0)


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        gt = [GroundTruth(unit_box(), 0)]
        det = [Detection(unit_box(), 0.9, 0)]
        assert average_precision(det, gt, 0.5) == 1.0

    def test_disjoint_detection(self):
        gt = [GroundTruth(unit_box(), 0)]
        det = [Detection(unit_box(10, 10), 0.9, 0)]
        assert average_precision(det, gt, 0.5) == 0.0

    def test_worked_three_detection_example(self):
        """hit(0.9), miss(0.8), hit(0.7) over two ground truths -> 9/11."""
        gts = [GroundTruth(unit_box(0, 0, 10), 0), GroundTruth(unit_box(20, 0, 10), 0)]
        dets = [
            Detection(unit_box(0, 0, 10), 0.9, 0),
            Detection(unit_box(50, 50, 10), 0.8, 0),
            Detection(unit_box(20, 0, 10), 0.7, 0),
        ]
        ap = average_precision(dets, gts, 0.5)
        np.testing.assert_allclose(ap, 9 / 11, atol=1e-12)
        assert abs(ap - 0.8182) < 1e-4
        assert brute_force_ap(dets, gts, 0.5) == ap

    def test_empty_cases(self):
        gt = [GroundTruth(unit_box(), 0)]
        det = [Detection(unit_box(), 0.9, 0)]
        assert average_precision([], gt, 0.5) == 0.0
        assert average_precision(det, [], 0.5) == 0.0
        assert average_precision([], [], 0.5) == 0.0

    def test_threshold_contract(self):
        with pytest.raises(ContractError):
            average_precision([], [], 0.0)
        with pytest.raises(ContractError):
            average_precision([], [], 1.0)

    def test_ap_bounded(self):
        for seed in range(50):
            dets, gts = random_scene(Rng(seed))
            ap = average_precision(dets, gts, 0.5)
            assert 0.0 <= ap <= 1.0

    def test_ap_non_increasing_in_threshold(self):
        thresholds = (0.3, 0.5, 0.7, 0.9)
        for seed in range(100):
            dets, gts = random_scene(Rng(1000 + seed))
            aps = [average_precision(dets, gts, t) for t in thresholds]
            assert all(a >= b - 1e-15 for a, b in zip(aps, aps[1:]))


class TestBruteForceOracle:
    def test_agrees_on_random_scenes(self):
        for seed in range(200):
            dets, gts = random_scene(Rng(2000 + seed))
            thresh = (0.3, 0.5, 0.75)[seed % 3]
            assert average_precision(dets, gts, thresh) == brute_force_ap(dets, gts, thresh)

    def test_tie_rule_shared(self):
        """Equal-score detections keep input order in both implementations."""
        gts = [GroundTruth(unit_box(0, 0, 10), 0), GroundTruth(unit_box(20, 0, 10), 0)]
        dets = [
            Detection(unit_box(0, 0, 10), 0.5, 0),
            Detection(unit_box(50, 0, 10), 0.5, 0),
            Detection(unit_box(20, 0, 10), 0.5, 0),
        ]
        assert average_precision(dets, gts, 0.5) == brute_force_ap(dets, gts, 0.5)
        permuted = [dets[2], dets[0], dets[1]]
        assert average_precision(permuted, gts, 0.5) == brute_force_ap(permuted, gts, 0.5)

    def test_rejects_large_scenes(self):
        dets = [Detection(unit_box(), 0.5, 0)] * 11
        with pytest.raises(ContractError):
            brute_force_ap(dets, [GroundTruth(unit_box(), 0)], 0.5)


class TestMeanAp:
    def test_single_class(self):
        assert mean_ap([0.42]) == 0.42

    def test_two_class(self):
        assert mean_ap([1.0, 0.0]) == 0.5

    def test_four_class_reference_values(self):
        np.testing.assert_allclose(mean_ap([0.728, 0.6996, 0.6175, 0.7411]), 0.69655, atol=1e-12)

    def test_identical_values(self):
        assert mean_ap([0.3, 0.3, 0.3]) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            mean_ap([])


class TestEvaluateRecords:
    def test_four_class_fixture(self):
        dets = load_detections(str(DATA / "dets_4class.txt"))
        gts = load_ground_truths(str(DATA / "gts_4class.txt"))
        result = evaluate_records(dets, gts)
        targets = {1: 0.7280, 2: 0.6996, 3: 0.6175, 4: 0.7411}
        for cid, target in targets.items():
            assert abs(result.per_class[cid]["ap"] - target) < 2e-4
        assert abs(result.mean - 0.6966) < 5e-4

    def test_repeated_threshold_weighs_like_any_other(self):
        dets = load_detections(str(DATA / "dets_4class.txt"))
        gts = load_ground_truths(str(DATA / "gts_4class.txt"))
        once = evaluate_records(dets, gts, (0.5,))
        twice = evaluate_records(dets, gts, (0.5, 0.5))
        assert twice.mean == once.mean > 0.0

    def test_size_buckets(self):
        # one small (10x10), one medium (50x50), one large (200x200) object
        gts = [
            ("img", 0, Box(0, 0, 10, 10)),
            ("img", 0, Box(100, 0, 150, 50)),
            ("img", 0, Box(300, 0, 500, 200)),
        ]
        from fusionneck.detmetrics import DetectionRecord, GroundTruthRecord

        gt_records = [GroundTruthRecord(*g) for g in gts]
        det_records = [
            DetectionRecord("img", 0, Box(0, 0, 10, 10), 0.9),
            DetectionRecord("img", 0, Box(100, 0, 150, 50), 0.8),
        ]
        res = evaluate_records(det_records, gt_records)
        assert res.per_class[0]["ap_small"] == 1.0
        assert res.per_class[0]["ap_medium"] == 1.0
        assert res.per_class[0]["ap_large"] == 0.0

    def test_matching_respects_image_ids(self):
        from fusionneck.detmetrics import DetectionRecord, GroundTruthRecord

        gt_records = [GroundTruthRecord("a", 0, unit_box())]
        # same coordinates but the wrong image: must not match
        det_records = [DetectionRecord("b", 0, unit_box(), 0.9)]
        res = evaluate_records(det_records, gt_records)
        assert res.per_class[0]["ap"] == 0.0


class TestInterchangeFiles:
    def test_round_trip_counts(self):
        dets = load_detections(str(DATA / "dets_4class.txt"))
        gts = load_ground_truths(str(DATA / "gts_4class.txt"))
        assert len(gts) == 40  # 10 per class
        assert len(dets) == 44 + 56 + 55 + 27

    def test_malformed_line_number_reported(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("img 0 0 0 1 1 0.5\nimg 0 zero 0 1 1 0.4\n")
        with pytest.raises(FileFormatError, match=r":2:"):
            load_detections(str(bad))

    def test_field_count_checked(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("img 0 0 0 1 1\n")
        with pytest.raises(FileFormatError, match="expected 7 fields"):
            load_detections(str(bad))

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "ok.txt"
        f.write_text("# header\n\nimg 3 0 0 1 1 0.25  # trailing comment\n")
        recs = load_detections(str(f))
        assert len(recs) == 1 and recs[0].class_id == 3 and recs[0].score == 0.25

    def test_score_range_checked(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("img 0 0 0 1 1 1.5\n")
        with pytest.raises(FileFormatError, match=":1:"):
            load_detections(str(bad))

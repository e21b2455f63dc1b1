"""IoU, 11-point interpolated AP vs. the cutoff oracle, mAP, and file I/O."""

import pickle
import re
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionneck.detmetrics import (
    DEFAULT_THRESHOLDS,
    SIZE_BUCKETS,
    ApResult,
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

    @pytest.mark.parametrize("coords", [
        (float("nan"), 0.0, 1.0, 1.0),
        (0.0, 0.0, 1.0, float("nan")),
        (float("-inf"), 0.0, 1.0, 1.0),
        (0.0, 0.0, 1.0, float("inf")),
        # ints compare exactly with floats, so these passed a bound of ±inf
        (0, 0, 10 ** 400, 1),
        (-(10 ** 400), 0, 1, 1),
        (0, 0, 1, 2 ** 1024),
    ])
    def test_non_finite_box_rejected(self, coords):
        with pytest.raises(ContractError, match="finite"):
            Box(*coords)

    def test_float_max_corners_accepted(self):
        top = sys.float_info.max
        assert Box(-top, -top, top, top).x_max == top


# far-apart boxes of zero area: their gap overflows to -inf, which reads as no overlap
FAR_APART = ([Detection("img", 0, Box(-1e308, 0, -1e308, 1), 0.9)], [GroundTruth("img", 0, Box(1e308, 0, 1e308, 1))])


class TestBoxAreaRule:
    """Every AP entry point refuses a box whose area exceeds half the largest float, or is NaN, with no warning."""

    @pytest.mark.parametrize("score", [
        lambda dets, gts: evaluate_records(dets, gts),
        lambda dets, gts: average_precision(dets, gts, 0.5),
        lambda dets, gts: brute_force_ap(dets, gts, 0.5),
    ], ids=["evaluate_records", "average_precision", "brute_force_ap"])
    @pytest.mark.parametrize("det_box, gt_box, refused", [
        ((0, 0, 1e308, 1e308), (-1e308, -1e308, 1e308, 1e308), "det"),  # true IoU 0.25; the areas overflow
        ((0, 0, 1, 1), (-1e308, 0, 1e308, 0), "gt"),  # an infinite width times a zero height is NaN
    ], ids=["overflow", "nan"])
    def test_refused_naming_the_record(self, score, det_box, gt_box, refused):
        det, gt = Detection("img", 0, Box(*det_box), 0.9), GroundTruth("img", 0, Box(*gt_box))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match=re.escape(f"box area of {det if refused == 'det' else gt}")):
                score([det], [gt])

    def test_largest_areas_score_their_true_iou(self):
        side = 4e153  # the ground truth's area, (2 * side) ** 2, is just below the limit
        dets = [Detection("img", 0, Box(0, 0, side, side), 0.9)]
        gts = [GroundTruth("img", 0, Box(-side, -side, side, side))]
        assert iou(dets[0].box, gts[0].box) == pytest.approx(0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert average_precision(dets, gts, 0.2) == brute_force_ap(dets, gts, 0.2) == 1.0
            assert evaluate_records(dets, gts, (0.2, 0.3)).per_class[0]["ap"] == 0.5
            assert evaluate_records(*FAR_APART, (0.5,)).mean == average_precision(*FAR_APART, 0.5) == 0.0


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        gt = [GroundTruth("img", 0, unit_box())]
        det = [Detection("img", 0, unit_box(), 0.9)]
        assert average_precision(det, gt, 0.5) == 1.0

    def test_disjoint_detection(self):
        gt = [GroundTruth("img", 0, unit_box())]
        det = [Detection("img", 0, unit_box(10, 10), 0.9)]
        assert average_precision(det, gt, 0.5) == 0.0

    def test_worked_three_detection_example(self):
        """hit(0.9), miss(0.8), hit(0.7) over two ground truths -> 9/11."""
        gts = [GroundTruth("img", 0, unit_box(0, 0, 10)), GroundTruth("img", 0, unit_box(20, 0, 10))]
        dets = [
            Detection("img", 0, unit_box(0, 0, 10), 0.9),
            Detection("img", 0, unit_box(50, 50, 10), 0.8),
            Detection("img", 0, unit_box(20, 0, 10), 0.7),
        ]
        ap = average_precision(dets, gts, 0.5)
        np.testing.assert_allclose(ap, 9 / 11, atol=1e-12)
        assert abs(ap - 0.8182) < 1e-4
        assert brute_force_ap(dets, gts, 0.5) == ap

    def test_empty_cases(self):
        gt = [GroundTruth("img", 0, unit_box())]
        det = [Detection("img", 0, unit_box(), 0.9)]
        assert average_precision([], gt, 0.5) == 0.0
        assert average_precision(det, [], 0.5) == 0.0
        assert average_precision([], [], 0.5) == 0.0

    def test_threshold_contract(self):
        """One rule for every entry point: an IoU threshold lies in (0, 1]."""
        det = [Detection("img", 0, unit_box(), 0.9)]
        gt = [GroundTruth("img", 0, unit_box())]
        assert average_precision(det, gt, 1.0) == brute_force_ap(det, gt, 1.0) == 1.0
        assert evaluate_records(det, gt, (1.0,)).mean == 1.0
        for bad in (0.0, 1.5):
            for call in (average_precision, brute_force_ap):
                with pytest.raises(ContractError, match=r"\(0, 1\]"):
                    call(det, gt, bad)
            with pytest.raises(ContractError, match=r"\(0, 1\]"):
                evaluate_records(det, gt, (bad,))

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


class TestRecords:
    @pytest.mark.parametrize("score", [float("nan"), -0.1, 1.5])
    def test_detection_score_checked(self, score):
        with pytest.raises(ContractError, match="score"):
            Detection("img", 0, unit_box(), score)

    @pytest.mark.parametrize("record", [Detection, GroundTruth])
    @pytest.mark.parametrize("box", [(0, 0, 1), (0, 0, 1, 1), None])
    def test_record_box_must_be_a_box(self, record, box):
        with pytest.raises(ContractError, match="must be a Box"):
            record("a", 0, box, *([0.5] if record is Detection else []))

    def test_loaders_return_records_with_image_ids(self, tmp_path):
        det_file, gt_file = tmp_path / "dets.txt", tmp_path / "gts.txt"
        det_file.write_text("img1 2 0 0 1 1 0.5\nimg2 3 1 1 2 2 0.25\n")
        gt_file.write_text("img2 3 1 1 2 2\n")
        assert load_detections(str(det_file)) == [
            Detection("img1", 2, Box(0, 0, 1, 1), 0.5),
            Detection("img2", 3, Box(1, 1, 2, 2), 0.25),
        ]
        assert load_ground_truths(str(gt_file)) == [GroundTruth("img2", 3, Box(1, 1, 2, 2))]

    @pytest.mark.parametrize("build", [
        lambda: unit_box()._replace(x_max=float("nan")),
        lambda: unit_box()._replace(y_min=float("-inf")),
        lambda: unit_box()._replace(x_min=2.0),
        lambda: Box._make([2, 0, 1, 1]),
        lambda: Box._make([0, 0, 1, float("inf")]),
        lambda: Detection("img", 0, unit_box(), 0.5)._replace(score=1.5),
        lambda: Detection._make(["img", 0, unit_box(), 1.5]),
        lambda: Detection("img", 0, unit_box(), 0.5)._replace(box=(0, 0, 1)),
        lambda: GroundTruth("img", 0, unit_box())._replace(box=(0, 0, 1)),
        lambda: GroundTruth._make(["img", 0, (0, 0, 1, 1)]),
    ], ids=["replace-nan", "replace-inf", "replace-inverted", "make-inverted", "make-inf",
            "replace-score", "make-score", "replace-det-box", "replace-gt-box", "make-gt-box"])
    def test_replace_and_make_are_checked(self, build):
        with pytest.raises(ContractError):
            build()

    def test_records_are_immutable(self):
        det = Detection("img", 0, unit_box(), 0.5)
        for record, field in ((det.box, "x_max"), (det, "score"), (GroundTruth("img", 0, unit_box()), "box")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)
            with pytest.raises(AttributeError):
                record.extra = 0.0

    def test_records_hash_and_pickle_equal(self):
        box = Box(0.0, 1.0, 2.0, 3.0)
        for record in (box, Detection("img", 2, box, 0.25), GroundTruth("img", 2, box)):
            again = pickle.loads(pickle.dumps(record))
            assert again == record and type(again) is type(record)
            assert hash(again) == hash(record)
        assert box == (0.0, 1.0, 2.0, 3.0)
        assert repr(box) == "Box(x_min=0.0, y_min=1.0, x_max=2.0, y_max=3.0)"


class TestImageConfinedMatching:
    """Two images hold the same boxes, so only the image id keeps matches apart."""

    def scene(self):
        gts = [GroundTruth("a", 0, unit_box(0, 0, 10)), GroundTruth("b", 0, unit_box(20, 0, 10))]
        dets = [
            Detection("b", 0, unit_box(0, 0, 10), 0.9),  # a's box, in image b: a miss
            Detection("a", 0, unit_box(0, 0, 10), 0.8),
            Detection("a", 0, unit_box(20, 0, 10), 0.7),  # b's box, in image a: a miss
            Detection("b", 0, unit_box(20, 0, 10), 0.6),
        ]
        return dets, gts

    def test_no_match_across_images(self):
        dets, gts = self.scene()
        # misses at ranks 1 and 3, hits at 2 and 4: precision 1/2 at recall 0.5 and 1
        assert average_precision(dets, gts, 0.5) == 0.5
        assert brute_force_ap(dets, gts, 0.5) == 0.5
        pooled = [Detection("a", d.class_id, d.box, d.score) for d in dets]
        assert average_precision(pooled, [GroundTruth("a", 0, g.box) for g in gts], 0.5) > 0.5

    def test_equals_evaluate_records_ap50(self):
        dets, gts = self.scene()
        assert average_precision(dets, gts, 0.5) == evaluate_records(dets, gts).ap50


class TestBruteForceOracle:
    def test_agrees_on_random_scenes(self):
        for seed in range(200):
            dets, gts = random_scene(Rng(2000 + seed))
            thresh = (0.3, 0.5, 0.75)[seed % 3]
            assert average_precision(dets, gts, thresh) == brute_force_ap(dets, gts, thresh)

    def test_tie_rule_shared(self):
        """Equal-score detections keep input order in both implementations."""
        gts = [GroundTruth("img", 0, unit_box(0, 0, 10)), GroundTruth("img", 0, unit_box(20, 0, 10))]
        dets = [
            Detection("img", 0, unit_box(0, 0, 10), 0.5),
            Detection("img", 0, unit_box(50, 0, 10), 0.5),
            Detection("img", 0, unit_box(20, 0, 10), 0.5),
        ]
        assert average_precision(dets, gts, 0.5) == brute_force_ap(dets, gts, 0.5)
        permuted = [dets[2], dets[0], dets[1]]
        assert average_precision(permuted, gts, 0.5) == brute_force_ap(permuted, gts, 0.5)

    def test_rejects_large_scenes(self):
        dets = [Detection("img", 0, unit_box(), 0.5)] * 11
        with pytest.raises(ContractError):
            brute_force_ap(dets, [GroundTruth("img", 0, unit_box())], 0.5)


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
        gt_records = [GroundTruth(*g) for g in gts]
        det_records = [
            Detection("img", 0, Box(0, 0, 10, 10), 0.9),
            Detection("img", 0, Box(100, 0, 150, 50), 0.8),
        ]
        res = evaluate_records(det_records, gt_records)
        assert res.per_class[0]["ap_small"] == 1.0
        assert res.per_class[0]["ap_medium"] == 1.0
        assert res.per_class[0]["ap_large"] == 0.0

    def test_rejects_thresholds_outside_unit_interval(self):
        dets = [Detection("img", 0, unit_box(), 0.9)]
        for bad in ((0.0,), (0.5, 1.5), (float("nan"),)):
            with pytest.raises(ContractError, match="thresholds"):
                evaluate_records(dets, [], bad)

    @pytest.mark.parametrize("score", [float("nan"), 1.5, -0.1])
    def test_rejects_scores_outside_unit_interval(self, score):
        # Detection refuses such a score itself; any record with the same
        # attributes reaches evaluate_records' own check
        bad = SimpleNamespace(image_id="img", class_id=0, box=unit_box(), score=score)
        dets = [Detection("img", 0, unit_box(), 0.9), bad]
        with pytest.raises(ContractError, match="scores"):
            evaluate_records(dets, [GroundTruth("img", 0, unit_box())])

    def test_duck_typed_records_and_empty_lists(self):
        dets = load_detections(str(DATA / "dets_4class.txt"))
        gts = load_ground_truths(str(DATA / "gts_4class.txt"))
        duck_dets = [SimpleNamespace(image_id=d.image_id, class_id=d.class_id, box=d.box, score=d.score)
                     for d in dets]
        duck_gts = [SimpleNamespace(image_id=g.image_id, class_id=g.class_id, box=g.box) for g in gts]
        result = evaluate_records(dets, gts)
        assert result == scalar_evaluate(dets, gts, DEFAULT_THRESHOLDS)
        assert evaluate_records(duck_dets, duck_gts) == result
        for scene in ((dets, []), ([], gts), (duck_dets, []), ([], duck_gts)):
            assert evaluate_records(*scene) == scalar_evaluate(*scene, DEFAULT_THRESHOLDS)

    def test_matching_respects_image_ids(self):
        gt_records = [GroundTruth("a", 0, unit_box())]
        # same coordinates but the wrong image: must not match
        det_records = [Detection("b", 0, unit_box(), 0.9)]
        res = evaluate_records(det_records, gt_records)
        assert res.per_class[0]["ap"] == 0.0


# Tokens a malformed interchange field may hold: non-finite and out-of-range
# numbers, huge and underscored integers, other spellings of numbers, words.
_odd_token = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "9" * 5000,
        "1_000", "1__0", "_1", "1_", "0x1f", "1.5e", "--1", "+2", "1.0.0",
    ]),
    st.integers(-10**30, 10**30).map(str),
    st.floats(-2.0, 2.0).map(repr),
    st.text(st.sampled_from("abcxyz019._-+"), min_size=1, max_size=6),
)
_axis = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(0, 4))
# Separators other than a line feed are whitespace within a line.
_separator = st.sampled_from([" ", " ", " ", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r"])


@st.composite
def _interchange_line(draw, with_score: bool) -> str:
    """A record (mostly well formed, corners inverted one time in five) with
    some fields replaced by odd tokens, one dropped or one added, its fields
    joined by spaces or other separators; or a comment or a blank line.  One
    line in three ends in a carriage return, which a line feed follows."""
    kind = draw(st.sampled_from(["record", "record", "record", "comment", "blank"]))
    end = draw(st.sampled_from(["", "", "\r"]))
    if kind == "comment":
        return draw(st.sampled_from(["# header", "   # indented", "#", "#\x0cpage"])) + end
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t", "\x0c", "\u2028"])) + end
    (x0, x1, kx), (y0, y1, ky) = draw(_axis), draw(_axis)
    x0, x1 = sorted((x0, x1)) if kx else (max(x0, x1), min(x0, x1))
    y0, y1 = sorted((y0, y1)) if ky else (max(y0, y1), min(y0, y1))
    fields = [draw(st.sampled_from(["img", "a.png", "0"])), str(draw(st.integers(-3, 3))),
              repr(x0), repr(y0), repr(x1), repr(y1)]
    if with_score:
        fields.append(draw(st.floats(-0.25, 1.25).map(repr) | st.sampled_from(["0", "1", "0.5"])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_odd_token)
    edit = draw(st.sampled_from(["none", "none", "none", "drop", "add"]))
    if edit == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif edit == "add":
        fields.insert(draw(st.integers(0, len(fields))), draw(_odd_token))
    return draw(_separator).join(fields) + draw(st.sampled_from(["", "", "  # trailing"])) + end


def _as_line(record) -> str:
    b = record.box
    line = f"{record.image_id} {record.class_id} {b.x_min!r} {b.y_min!r} {b.x_max!r} {b.y_max!r}"
    return f"{line} {record.score!r}" if isinstance(record, Detection) else line


@pytest.fixture(scope="module")
def lines_path(tmp_path_factory):
    return tmp_path_factory.mktemp("interchange") / "lines.txt"


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

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_line(self, tmp_path, coord):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"img0 0 0 0 1 1 0.5\nimg0 0 0 0 {coord} 5 0.5\n")
        with pytest.raises(FileFormatError, match=":2:.*finite"):
            load_detections(str(bad))

    def test_score_range_checked(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("img 0 0 0 1 1 1.5\n")
        with pytest.raises(FileFormatError, match=":1:"):
            load_detections(str(bad))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.booleans().flatmap(
        lambda with_score: st.tuples(st.just(with_score), st.lists(_interchange_line(with_score), max_size=6))
    ))
    def test_each_line_loads_or_names_itself(self, lines_path, case):
        """A file loads the records its lines load one by one, or fails at the
        first line that fails alone, naming path:lineno; valid records
        written back as lines load as equal records."""
        with_score, lines = case
        load = load_detections if with_score else load_ground_truths
        records, first_bad = [], None
        for lineno, line in enumerate(lines, start=1):
            lines_path.write_text(line + "\n")
            try:
                records += load(str(lines_path))
            except FileFormatError as exc:
                assert str(exc).startswith(f"{lines_path}:1: "), str(exc)
                first_bad = first_bad or lineno
        lines_path.write_text("".join(line + "\n" for line in lines))
        if first_bad is not None:
            with pytest.raises(FileFormatError) as info:
                load(str(lines_path))
            assert str(info.value).startswith(f"{lines_path}:{first_bad}: "), str(info.value)
            return
        loaded = load(str(lines_path))
        assert loaded == records
        for r in loaded:  # exactly the checked types, equal to what the checking constructors build
            assert type(r) is (Detection if with_score else GroundTruth) and type(r.box) is Box
            checked = type(r)(r.image_id, r.class_id, Box(*r.box), *([r.score] if with_score else []))
            assert r == checked and repr(r) == repr(checked)
            with pytest.raises(ContractError, match="min <= max"):
                r.box._replace(x_min=2 * abs(r.box.x_max) + 1)
            with pytest.raises(ContractError, match="must be a Box"):
                r._replace(box=tuple(r.box))
        lines_path.write_text("".join(_as_line(r) + "\n" for r in records))
        assert load(str(lines_path)) == records

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"img 0 0 0 1 1 0.5\r\nimg 0 0 0 1 1 0.\xff5\n")
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(bad))}:2: byte 35 is not UTF-8"):
            load_detections(str(bad))


def scalar_evaluate(dets, gts, thresholds) -> ApResult:
    """``evaluate_records`` recomputed with the scalar ``average_precision``,
    one class, threshold and size bucket at a time."""
    classes = sorted({d.class_id for d in dets} | {g.class_id for g in gts})
    per_class = {}
    for cid in classes:
        cdets = [d for d in dets if d.class_id == cid]
        cgts = [g for g in gts if g.class_id == cid]
        entry = {
            "ap": sum(average_precision(cdets, cgts, t) for t in thresholds) / len(thresholds),
            "ap50": average_precision(cdets, cgts, 0.50),
            "ap75": average_precision(cdets, cgts, 0.75),
            "defined": True,
        }
        for name, (lo, hi) in SIZE_BUCKETS.items():
            bdets = [d for d in cdets if lo <= d.box.area() < hi]
            bgts = [g for g in cgts if lo <= g.box.area() < hi]
            entry[f"ap_{name}"] = sum(average_precision(bdets, bgts, t) for t in thresholds) / len(thresholds)
        per_class[cid] = entry
    n = len(classes)
    return ApResult(
        per_class=per_class,
        mean=mean_ap([per_class[c]["ap"] for c in classes]),
        ap50=sum(per_class[c]["ap50"] for c in classes) / n,
        ap75=sum(per_class[c]["ap75"] for c in classes) / n,
        ap_small=sum(per_class[c]["ap_small"] for c in classes) / n,
        ap_medium=sum(per_class[c]["ap_medium"] for c in classes) / n,
        ap_large=sum(per_class[c]["ap_large"] for c in classes) / n,
    )


# Few distinct corners, sides and scores, so that scenes often hold score
# ties, duplicate boxes (IoU ties) and zero-area boxes (union 0); 32x32 and
# 16x64 have area exactly 32², 96x96 exactly 96².
_corner = st.sampled_from([0.0, 4.0, 8.0, 16.0])
_side = st.sampled_from([0.0, 8.0, 16.0, 32.0, 64.0, 96.0])
_box = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), _corner, _corner, _side, _side)
_image = st.sampled_from(["a", "b", "c"])
_class = st.sampled_from([0, 1, 2])
_dets = st.lists(
    st.builds(Detection, _image, _class, _box, st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])),
    max_size=25,
)
_gts = st.lists(st.builds(GroundTruth, _image, _class, _box), max_size=15)
_thresholds = st.lists(st.sampled_from([1.0, 0.75, 0.5, 0.3, 0.1]), min_size=1, max_size=5)


class TestEvaluateRecordsMatchesScalarReference:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_dets, _gts, _thresholds)
    @example(
        # class 0: duplicate ground truths and tied scores in image a, a
        # zero-area pair in image b, nothing small or large; class 1 has only
        # detections, class 2 only a ground truth; thresholds repeat, unsorted
        dets=[
            Detection("a", 0, Box(0, 0, 32, 32), 0.5),
            Detection("a", 0, Box(0, 0, 32, 32), 0.5),
            Detection("a", 1, Box(0, 0, 10, 10), 0.9),
            Detection("b", 0, Box(8, 8, 8, 8), 0.5),
        ],
        gts=[
            GroundTruth("a", 0, Box(0, 0, 32, 32)),
            GroundTruth("a", 0, Box(0, 0, 32, 32)),
            GroundTruth("a", 2, Box(0, 0, 96, 96)),
            GroundTruth("b", 0, Box(8, 8, 8, 8)),
        ],
        thresholds=[0.75, 0.5, 0.75, 1.0],
    )
    @example(
        # the first detection has IoU 1/3 with both ground truths and takes
        # the first; the second then misses, as it overlaps only that one
        dets=[Detection("a", 0, Box(8, 0, 24, 16), 0.9), Detection("a", 0, Box(0, 0, 16, 16), 0.5)],
        gts=[GroundTruth("a", 0, Box(0, 0, 16, 16)), GroundTruth("a", 0, Box(16, 0, 32, 16))],
        thresholds=[0.3],
    )
    @example(
        # equal scores match in input order: the first detection takes the
        # ground truth the second one needs, so only one of them hits
        dets=[Detection("a", 0, Box(0, 0, 16, 16), 0.5), Detection("a", 0, Box(0, 0, 8, 16), 0.5)],
        gts=[GroundTruth("a", 0, Box(0, 0, 16, 16)), GroundTruth("a", 0, Box(8, 0, 24, 16))],
        thresholds=[0.3],
    )
    @example(
        # ten ground truths, so every recall lands on a grid value; tied scores
        dets=[Detection("a", 0, Box(20 * i, 0, 20 * i + 16, 16), s)
              for i, s in enumerate([1.0, 0.9, 0.9, 0.75, 0.5, 0.5, 0.25])]
        + [Detection("a", 0, Box(300, 300, 316, 316), s) for s in (0.9, 0.3)],
        gts=[GroundTruth("a", 0, Box(20 * i, 0, 20 * i + 16, 16)) for i in range(10)],
        thresholds=[0.5, 0.3],
    )
    @example(
        # every ground truth is medium, while detections fall in all three buckets
        dets=[Detection("a", 0, Box(0, 0, 48, 48), 0.9), Detection("a", 0, Box(0, 0, 8, 8), 0.8),
              Detection("a", 0, Box(0, 0, 128, 128), 0.7), Detection("a", 0, Box(64, 0, 112, 48), 0.6)],
        gts=[GroundTruth("a", 0, Box(0, 0, 48, 48)), GroundTruth("a", 0, Box(64, 0, 112, 48)),
             GroundTruth("b", 0, Box(0, 0, 40, 40))],
        thresholds=[0.5],
    )
    @example(
        # more ground truths than detections: recall stops at 1/3, short of most of the grid
        dets=[Detection("a", 0, Box(0, 0, 16, 16), 0.5), Detection("b", 0, Box(0, 0, 16, 16), 0.5)],
        gts=[GroundTruth(img, 0, Box(x, 0, x + 16, 16)) for img in "abc" for x in (0, 32)],
        thresholds=[0.75, 0.5],
    )
    def test_equal_to_scalar_class_ap(self, dets, gts, thresholds):
        if not dets and not gts:
            return
        assert evaluate_records(dets, gts, thresholds) == scalar_evaluate(dets, gts, thresholds)

    def test_equal_on_random_scenes_and_fixture(self):
        rng = Rng(3000)
        dets, gts = [], []
        for i in range(40):
            scene_dets, scene_gts = random_scene(rng.split(i))
            dets += [Detection(f"img{i % 7}", i % 3, d.box, d.score) for d in scene_dets]
            gts += [GroundTruth(f"img{i % 7}", i % 3, g.box) for g in scene_gts]
        fixture = (load_detections(str(DATA / "dets_4class.txt")), load_ground_truths(str(DATA / "gts_4class.txt")))
        for scene in ((dets, gts), fixture):
            for thresholds in ((0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95), (0.9, 0.3, 0.3)):
                assert evaluate_records(*scene, thresholds) == scalar_evaluate(*scene, thresholds)


def _crowded_image(n_dets: int, columns: int, rows: int, spacing: float, side: float, seed: int):
    """Detections scattered over a grid of ground truths, all of one image and class."""
    rng = np.random.default_rng(seed)
    gts = [GroundTruth("a", 0, Box(spacing * i, spacing * j, spacing * i + side, spacing * j + side))
           for i in range(columns) for j in range(rows)]
    x, y = (rng.uniform(0.0, spacing * n, n_dets).tolist() for n in (columns, rows))
    scores = rng.choice([0.25, 0.5, 0.75, 0.9], n_dets).tolist()  # ties
    dets = [Detection("a", 0, Box(x0, y0, x0 + side, y0 + side), s) for x0, y0, s in zip(x, y, scores)]
    return dets, gts


class TestCrowdedImage:
    """One image and class whose candidate pairs outnumber what one block of pairs holds."""

    def test_equal_to_scalar_reference(self):
        # 30 detections on 80 overlapping ground truths (2400 candidate pairs),
        # and one more class whose 3 detections each pair with 2100
        dets, gts = _crowded_image(30, 10, 8, 4.0, 8.0, seed=0)
        more_dets, more_gts = _crowded_image(3, 50, 42, 2.0, 4.0, seed=1)
        dets += [d._replace(class_id=1) for d in more_dets]
        gts += [g._replace(class_id=1) for g in more_gts]
        result = evaluate_records(dets, gts, (0.5, 0.3))
        assert result == scalar_evaluate(dets, gts, (0.5, 0.3))
        assert result.per_class[0]["ap"] > 0.0 and result.per_class[1]["ap"] > 0.0

    def test_memory_bounded_by_candidate_pairs(self):
        """512 detections against 8000 ground truths: 4.1M candidate pairs,
        built a bounded number at a time, not all at once."""
        dets, gts = _crowded_image(512, 80, 100, 10.0, 8.0, seed=2)
        tracemalloc.start()
        try:
            result = evaluate_records(dets, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ap50 > 0.0
        assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

"""CLI surface: exit codes, report determinism, eval, and params tools."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusionneck.cli import EXIT_INPUT, EXIT_OK, EXIT_SHAPE, EXIT_VERIFY_FAILED, main
from fusionneck.errors import ShapeError

DATA = Path(__file__).parent / "data"

SMALL = [
    "--pyramid-width", "4",
    "--heads", "2",
    "--scse-reduction", "2",
    "--c3", "3", "--c4", "4", "--c5", "5",
    "--height", "8", "--width", "8",
]


def run_forward(tmp_path, name, extra=()):
    report = tmp_path / name
    code = main(["forward", "--seed", "11", "--batch", "1", *SMALL, "--report", str(report), *extra])
    return code, report


class TestForward:
    def test_reports_byte_identical(self, tmp_path):
        code1, r1 = run_forward(tmp_path, "a.json")
        code2, r2 = run_forward(tmp_path, "b.json")
        assert code1 == code2 == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_structure_and_echo(self, tmp_path):
        code, report = run_forward(tmp_path, "r.json")
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["format_version"] == 1
        cfg = doc["config"]
        assert cfg["pyramid_width"] == 4
        assert cfg["head_count"] == 2
        assert cfg["in_channels"] == [3, 4, 5]
        assert cfg["seed"] == 11 and cfg["batch"] == 1
        assert set(doc["levels"]) == {"p3", "p4", "p5"}
        assert set(doc["checksums"]) == {"p3", "p4", "p5"}
        assert set(doc["attention"]) == {"to3", "to4"}

    def test_no_mhsa_omits_attention_sections(self, tmp_path):
        code, report = run_forward(tmp_path, "r.json", extra=["--no-use-mhsa"])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert "attention" not in doc

    def test_invalid_config_exits_2(self, tmp_path):
        code = main(["forward", "--pyramid-width", "5", "--heads", "2",
                     "--report", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "pyramid_width": 4,
            "head_count": 2,
            "scse_reduction": 2,
            "in_channels": [3, 4, 5],
            "base_height": 8,
            "base_width": 8,
            "gating_mode": "raw",
        }))
        report = tmp_path / "r.json"
        code = main(["forward", "--config", str(cfg_file), "--gating", "logistic",
                     "--seed", "1", "--report", str(report)])
        assert code == EXIT_OK
        assert json.loads(report.read_text())["config"]["gating_mode"] == "logistic"

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"pyramid_widht": 8}')
        assert main(["forward", "--config", str(cfg_file)]) == EXIT_INPUT

    def test_report_reproducible_from_its_own_echo(self, tmp_path):
        code, original = run_forward(tmp_path, "orig.json")
        assert code == EXIT_OK
        echo = json.loads(original.read_text())["config"]
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echo))
        replay = tmp_path / "replay.json"
        assert main(["forward", "--config", str(cfg_file), "--report", str(replay)]) == EXIT_OK
        assert replay.read_bytes() == original.read_bytes()

    def test_shape_error_maps_to_exit_3(self, monkeypatch, tmp_path, capsys):
        import fusionneck.cli as cli_mod

        def boom(*args, **kwargs):
            raise ShapeError("forced shape failure")

        monkeypatch.setattr(cli_mod, "neck_forward", boom)
        code = main(["forward", *SMALL, "--report", str(tmp_path / "r.json")])
        assert code == EXIT_SHAPE
        assert "shape error" in capsys.readouterr().err


class TestParams:
    def test_init_inspect_forward_round_trip(self, tmp_path):
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--seed", "4", *SMALL, "--out", str(pfile)]) == EXIT_OK
        assert main(["params", "inspect", str(pfile)]) == EXIT_OK
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(["forward", "--seed", "4", *SMALL, "--params-in", str(pfile),
                     "--report", str(r1)]) == EXIT_OK
        assert main(["forward", "--seed", "4", *SMALL, "--params-in", str(pfile),
                     "--report", str(r2)]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    def test_params_out_round_trips(self, tmp_path):
        p1 = tmp_path / "p1.bin"
        p2 = tmp_path / "p2.bin"
        assert main(["forward", "--seed", "9", *SMALL, "--params-out", str(p1),
                     "--report", str(tmp_path / "r.json")]) == EXIT_OK
        assert main(["forward", "--seed", "0", *SMALL, "--params-in", str(p1),
                     "--params-out", str(p2), "--report", str(tmp_path / "r2.json")]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_with_wrong_config_exits_2(self, tmp_path):
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--seed", "4", *SMALL, "--out", str(pfile)]) == EXIT_OK
        code = main(["forward", "--seed", "4", *SMALL, "--gating", "raw",
                     "--params-in", str(pfile), "--report", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT

    def test_corrupt_file_exits_2(self, tmp_path):
        pfile = tmp_path / "p.bin"
        pfile.write_bytes(b"garbage")
        code = main(["forward", *SMALL, "--params-in", str(pfile),
                     "--report", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT


class TestVerify:
    def test_scoped_grad_run_passes(self, capsys):
        assert main(["verify", "--scope", "grad", "--seeds", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "neck_forward" in out
        assert "[oracle" not in out  # grad scope lists no oracle rows

    def test_oracle_scope(self, capsys):
        assert main(["verify", "--scope", "oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "conv2d_vs_naive" in out and "ap_vs_bruteforce" in out
        assert "neck_forward" not in out

    def test_zero_seeds_exits_2(self, capsys):
        # zero seeds would run no gradient case and report a vacuous pass
        assert main(["verify", "--scope", "grad", "--seeds", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "within tolerance" not in captured.out
        assert "seed" in captured.err

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fusionneck", "verify", "--scope", "oracle"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "conv2d_vs_naive" in proc.stdout

    def test_corrupted_backward_rule_exits_1(self, capsys):
        code = main(["verify", "--scope", "grad", "--seeds", "2", "--corrupt", "matmul"])
        assert code == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "FAILED: matmul" in out


class TestEval:
    def test_four_class_fixture_map(self, tmp_path, capsys):
        report = tmp_path / "eval.json"
        code = main([
            "eval",
            "--detections", str(DATA / "dets_4class.txt"),
            "--ground-truth", str(DATA / "gts_4class.txt"),
            "--report", str(report),
        ])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert abs(doc["result"]["map"] - 0.6966) < 5e-4
        assert "mAP 0.6965" in capsys.readouterr().out

    def test_perfect_predictions(self, tmp_path):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("img 0 0 0 10 10\nimg 1 20 0 30 10\n")
        det.write_text("img 0 0 0 10 10 0.9\nimg 1 20 0 30 10 0.8\n")
        report = tmp_path / "r.json"
        assert main(["eval", "--detections", str(det), "--ground-truth", str(gt),
                     "--report", str(report)]) == EXIT_OK
        assert json.loads(report.read_text())["result"]["map"] == 1.0

    def test_empty_detections_zero_map(self, tmp_path):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("img 0 0 0 10 10\n")
        det.write_text("# no detections\n")
        report = tmp_path / "r.json"
        assert main(["eval", "--detections", str(det), "--ground-truth", str(gt),
                     "--report", str(report)]) == EXIT_OK
        assert json.loads(report.read_text())["result"]["map"] == 0.0

    def test_malformed_record_exits_2_with_line(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("img 0 0 0 10 10\n")
        det.write_text("img 0 0 0 10 10 0.9\nimg 0 bad 0 10 10 0.8\n")
        code = main(["eval", "--detections", str(det), "--ground-truth", str(gt)])
        assert code == EXIT_INPUT
        assert ":2:" in capsys.readouterr().err

    def test_custom_thresholds(self, tmp_path):
        report = tmp_path / "r.json"
        code = main([
            "eval",
            "--detections", str(DATA / "dets_4class.txt"),
            "--ground-truth", str(DATA / "gts_4class.txt"),
            "--thresholds", "0.5,0.75",
            "--report", str(report),
        ])
        assert code == EXIT_OK
        assert abs(json.loads(report.read_text())["result"]["map"] - 0.6966) < 5e-4

    @pytest.mark.parametrize("thresholds", ["0.5,x", "0.5,", "", "nan", "0.5,inf", "0", "1.5", "-0.5"])
    def test_bad_thresholds_exit_2_naming_the_token(self, thresholds, capsys):
        code = main([
            "eval",
            "--detections", str(DATA / "dets_4class.txt"),
            "--ground-truth", str(DATA / "gts_4class.txt"),
            "--thresholds", thresholds,
        ])
        assert code == EXIT_INPUT
        bad = thresholds.split(",")[-1]
        assert f"IoU threshold {bad!r}" in capsys.readouterr().err

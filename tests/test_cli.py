"""CLI surface: exit codes, report determinism, eval, and params tools."""

import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faults import corrupted
from fusionneck import cli, verify
from fusionneck.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SHAPE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
    resolve_run,
)
from fusionneck.errors import FusionNeckError, ParamsIOError, ShapeError
from fusionneck.neck import PARAMS_FORMAT_VERSION, NeckConfig, load_params, read_manifest

DATA = Path(__file__).parent / "data"

SMALL = [
    "--pyramid-width", "4",
    "--heads", "2",
    "--scse-reduction", "2",
    "--c3", "3", "--c4", "4", "--c5", "5",
    "--height", "8", "--width", "8",
]

RUN_KEYS = [*NeckConfig.__dataclass_fields__, "seed", "batch"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
PLAUSIBLE = [0, 1, 2, 3, 4, 8, 64, 0.5, "raw", "logistic", "standard", "atrous", [1, 2, 3], [1, 1], [3, 4, 5], True, False]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("resolver") / "cfg.json"


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
        assert doc["format_version"] == 2
        assert "register_count" not in doc["config"]
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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"pyramid_widht": 8}')
        assert main(["forward", "--config", str(cfg_file)]) == EXIT_INPUT
        assert "unknown config keys: ['pyramid_widht']" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '"pyramid_width"',
        '{"pyramid_width": "64"}',
        '{"use_mhsa": "yes"}',
        '{"init_sigma": NaN}',
        '{"in_channels": 5}',
        '{"dilations": "1,x"}',
        '{"dilations": "1,2"}',
        '{"seed": "7"}',
        '{"seed": -1}',
        '{"batch": true}',
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert main(["forward", "--config", str(cfg_file), "--report", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"pyramid_width": "64"}',
        '{"seed": 1.5}',
        '{"seed": -1}',
        '{"batch": true}',
        '{"batch": 0}',
    ])
    def test_params_init_bad_config_file_exits_2(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert main(["params", "init", "--config", str(cfg_file), "--out", str(tmp_path / "p.bin")]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["forward", "--seed", "-1", *SMALL],
        ["params", "init", "--seed", "-1", *SMALL, "--out", "p.bin"],
    ])
    def test_negative_seed_flag_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_INPUT
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_output_exits_2_naming_the_level(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning would escape main as an exception
            code, report = run_forward(tmp_path, "r.json", extra=["--init-sigma", "1e200"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: forward output p3 is not finite\n"
        assert not report.exists()

    def test_draw_overflow_exits_2_with_one_error_line(self, tmp_path):
        """Draws scaled by 1e308 overflow to inf: no NumPy warning reaches stderr before the error."""
        proc = subprocess.run(
            [sys.executable, "-m", "fusionneck", "forward", *SMALL, "--init-sigma", "1e308",
             "--report", str(tmp_path / "r.json")],
            env=module_env(False), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == "error: forward output p3 is not finite\n"
        assert not (tmp_path / "r.json").exists()

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(b'\xff{"seed": 1}')
        assert main(["forward", "--config", str(cfg_file)]) == EXIT_INPUT
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_file_read_once(self, tmp_path, monkeypatch):
        import fusionneck.cli as cli_mod

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 3, "batch": 1, "pyramid_width": 4, "head_count": 2,
                                        "scse_reduction": 2, "in_channels": [3, 4, 5],
                                        "base_height": 8, "base_width": 8}))
        reads = []
        real_read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: reads.append(self) or real_read_text(self, *a, **k))
        report = tmp_path / "r.json"
        assert cli_mod.main(["forward", "--config", str(cfg_file), "--report", str(report)]) == EXIT_OK
        assert reads.count(cfg_file) == 1
        echo = json.loads(report.read_text())["config"]
        assert (echo["seed"], echo["batch"]) == (3, 1)

    def test_report_reproducible_from_its_own_echo(self, tmp_path):
        code, original = run_forward(tmp_path, "orig.json")
        assert code == EXIT_OK
        echo = json.loads(original.read_text())["config"]
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echo))
        replay = tmp_path / "replay.json"
        assert main(["forward", "--config", str(cfg_file), "--report", str(replay)]) == EXIT_OK
        assert replay.read_bytes() == original.read_bytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.dictionaries(st.sampled_from(RUN_KEYS), JSON_VALUES | st.sampled_from(PLAUSIBLE), max_size=3))
    @example({"init_sigma": 10**400})
    @example({"dilations": [1, 2], "batch": 1, "use_mhsa": False})
    def test_resolver_returns_a_config_or_a_named_error(self, config_path, file_values):
        """A config file over the known keys resolves to a config or raises a FusionNeckError.

        What resolves reads back to itself from its own echo.  The resolver
        runs no forward, so huge sizes cost nothing here.
        """
        config_path.write_text(json.dumps(file_values))
        args = build_parser().parse_args(["forward", "--config", str(config_path)])
        try:
            neck, seed, batch = resolve_run(args)
        except FusionNeckError:
            return
        config_path.write_text(json.dumps({**neck.to_dict(), "seed": seed, "batch": batch}))
        assert resolve_run(args) == (neck, seed, batch)

    def test_shape_error_maps_to_exit_3(self, monkeypatch, tmp_path, capsys):
        """On both forward paths: drawn params (``init_and_forward``) and ``--params-in`` (``neck_forward``)."""
        import fusionneck.cli as cli_mod

        def boom(*args, **kwargs):
            raise ShapeError("forced shape failure")

        pfile = tmp_path / "p.bin"
        assert main(["params", "init", *SMALL, "--out", str(pfile)]) == EXIT_OK
        for patched, extra in (("init_and_forward", []), ("neck_forward", ["--params-in", str(pfile)])):
            with monkeypatch.context() as m:
                m.setattr(cli_mod, patched, boom)
                code = main(["forward", *SMALL, *extra, "--report", str(tmp_path / "r.json")])
            assert code == EXIT_SHAPE, patched
            assert capsys.readouterr().err == "shape error: forced shape failure\n"
            assert not (tmp_path / "r.json").exists()


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

    def test_int_sigma_in_a_config_file_loads_under_the_flag(self, tmp_path):
        """``"init_sigma": 1`` in a config file is the float 1.0 that ``--init-sigma 1`` gives."""
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"init_sigma": 1, "pyramid_width": 4, "head_count": 2, "scse_reduction": 2,
                                        "in_channels": [3, 4, 5], "base_height": 8, "base_width": 8}))
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--config", str(cfg_file), "--out", str(pfile)]) == EXIT_OK
        echo = read_manifest(pfile.read_bytes())[0]["config"]["init_sigma"]
        assert type(echo) is float and echo == 1.0
        assert main(["forward", *SMALL, "--init-sigma", "1", "--params-in", str(pfile),
                     "--report", str(tmp_path / "r.json")]) == EXIT_OK

    @pytest.mark.parametrize("manifest", [
        b"{not json",
        b"[1, 2]",
        b'{"config": {}, "tensors": [{"name": "x", "offset": 0}]}',
        b'{"config": {}, "tensors": [{"shape": [1], "offset": 0}]}',
        b'{"config": {}, "tensors": [{"name": "x", "shape": [1]}]}',
    ])
    def test_inspect_malformed_manifest_exits_2(self, tmp_path, capsys, manifest):
        pfile = tmp_path / "p.bin"
        pfile.write_bytes(f"fusionneck-params {PARAMS_FORMAT_VERSION} {len(manifest)}\n".encode("ascii") + manifest)
        assert main(["params", "inspect", str(pfile)]) == EXIT_INPUT
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, header", [
        ("extra", 1, "fusionneck-params {version} {length}\n"),
        ("format_version", "abc", "fusionneck-params {version} {length}\n"),
        (None, None, "fusionneck-params 0_{version} {length}\n"),
        (None, None, "fusionneck-params +{version} {length}\n"),
        (None, None, "  fusionneck-params   {version} {length}  \r\n"),
    ])
    def test_inspect_refuses_a_stream_save_params_never_writes(self, tmp_path, capsys, key, value, header):
        """An extra manifest key, another format version or a respelled header: exit 2, one error line."""
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--seed", "4", *SMALL, "--out", str(pfile)]) == EXIT_OK
        manifest, payload = read_manifest(pfile.read_bytes())
        if key is not None:
            manifest[key] = value
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("ascii")
        header = header.format(version=PARAMS_FORMAT_VERSION, length=len(manifest_bytes))
        pfile.write_bytes(header.encode("ascii") + manifest_bytes + payload)
        capsys.readouterr()
        assert main(["params", "inspect", str(pfile)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("length", ["99999999999999999999", "-5"])
    def test_manifest_length_outside_the_stream_exits_2(self, tmp_path, capsys, length):
        pfile = tmp_path / "p.bin"
        pfile.write_bytes(f"fusionneck-params {PARAMS_FORMAT_VERSION} {length}\n{{}}".encode("ascii"))
        for argv in (["params", "inspect", str(pfile)],
                     ["forward", *SMALL, "--params-in", str(pfile), "--report", str(tmp_path / "r.json")]):
            assert main(argv) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err == f"error: manifest length {length} outside 0..{pfile.stat().st_size}, the stream's size\n"
        assert not (tmp_path / "r.json").exists()

    @staticmethod
    def assert_old_version_refused(tmp_path, capsys, version):
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--seed", "4", *SMALL, "--out", str(pfile)]) == EXIT_OK
        header = f"fusionneck-params {PARAMS_FORMAT_VERSION} ".encode("ascii")
        blob = pfile.read_bytes()
        assert blob.startswith(header)
        pfile.write_bytes(f"fusionneck-params {version} ".encode("ascii") + blob[len(header):])
        assert main(["params", "inspect", str(pfile)]) == EXIT_INPUT
        assert main(["forward", *SMALL, "--params-in", str(pfile),
                     "--report", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert f"unsupported format version {version}" in capsys.readouterr().err

    def test_version_1_stream_exits_2(self, tmp_path, capsys):
        """Version 1 echoed a register_count key: its streams are refused (ParamsIOError), not reinterpreted."""
        self.assert_old_version_refused(tmp_path, capsys, 1)

    def test_version_2_stream_exits_2(self, tmp_path, capsys):
        """Version 2 stored per-head registers and separate w_q/w_k/w_v: refused, not reinterpreted."""
        self.assert_old_version_refused(tmp_path, capsys, 2)

    def test_trailing_payload_bytes_exit_2(self, tmp_path, capsys):
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--seed", "4", *SMALL, "--out", str(pfile)]) == EXIT_OK
        pfile.write_bytes(pfile.read_bytes() + bytes(8))
        assert main(["forward", *SMALL, "--params-in", str(pfile),
                     "--report", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert "belong to no tensor" in capsys.readouterr().err

    def test_full_layout_under_atrous_echo_exits_2(self, tmp_path, capsys):
        """A stream laid out for the full arm but echoing an atrous config is refused at its first extra tensor."""
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--seed", "4", *SMALL, "--out", str(pfile)]) == EXIT_OK
        manifest, payload = read_manifest(pfile.read_bytes())
        manifest["config"]["atrous_mode"] = "atrous"
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("ascii")
        stream = f"fusionneck-params {PARAMS_FORMAT_VERSION} {len(manifest_bytes)}\n".encode("ascii") + manifest_bytes
        with pytest.raises(ParamsIOError, match=r"entry 10 must be tensor level4\.lateral\.weight .*level3\.scse\.reduce"):
            load_params(stream + payload, NeckConfig.from_dict(manifest["config"]))
        pfile.write_bytes(stream + payload)
        capsys.readouterr()
        assert main(["forward", *SMALL, "--atrous-mode", "atrous", "--params-in", str(pfile),
                     "--report", str(tmp_path / "r.json")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "level3.scse.reduce.weight" in err

    def test_registers_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forward", *SMALL, "--registers", "2"])
        assert exc.value.code == EXIT_INPUT

    def test_non_finite_tensor_exits_2_naming_it(self, tmp_path, capsys):
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", "--seed", "4", *SMALL, "--out", str(pfile)]) == EXIT_OK
        blob = pfile.read_bytes()
        manifest, payload = read_manifest(blob)
        offset = next(t["offset"] for t in manifest["tensors"] if t["name"] == "level5.lateral.weight")
        start = len(blob) - len(payload) + offset
        pfile.write_bytes(blob[:start] + struct.pack("<d", float("nan")) + blob[start + 8:])
        capsys.readouterr()
        assert main(["params", "inspect", str(pfile)]) == EXIT_INPUT
        assert "level5.lateral.weight" in capsys.readouterr().err
        assert main(["forward", "--seed", "4", *SMALL, "--params-in", str(pfile),
                     "--report", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert "level5.lateral.weight" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["params", "init", *SMALL, "--init-sigma", "1e308", "--out", "p.bin"],
        ["forward", *SMALL, "--init-sigma", "1e308", "--params-out", "p.bin", "--report", "r.json"],
    ], ids=["params-init", "forward-params-out"])
    def test_non_finite_draws_write_no_params_file(self, tmp_path, monkeypatch, capsys, argv):
        """Draws scaled by 1e308 are inf: the writer refuses them, so no stream the reader refuses is left."""
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning would escape main as an exception
            assert main(argv) == EXIT_INPUT
        assert re.fullmatch(r"error: tensor \S+ holds non-finite values\n", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_2(self, tmp_path, capsys):
        # the (4, 4194304, 4194304) register tensor r_qk would take 512 TiB,
        # beyond any user address space, so the allocation fails at once
        code = main(["params", "init", "--height", "8192", "--width", "8192", "--out", str(tmp_path / "w.bin")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "w.bin").exists()

    def test_corrupt_file_exits_2(self, tmp_path):
        pfile = tmp_path / "p.bin"
        pfile.write_bytes(b"garbage")
        code = main(["forward", *SMALL, "--params-in", str(pfile),
                     "--report", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT


def _stream_of(manifest: bytes) -> bytes:
    return f"fusionneck-params {PARAMS_FORMAT_VERSION} {len(manifest)}\n".encode("ascii") + manifest


NESTED = b"[" * 100_000  # deeper than the JSON decoder's recursion limit
LONG_INT = b'{"config": {}, "tensors": [' + b"7" * 5000 + b"]}"  # beyond the int-digit limit
HUGE = str(2 ** 62)


class TestInputLimits:
    """Input that the JSON decoder or NumPy cannot take ends in exit 2 and one error line, never a traceback."""

    @pytest.mark.parametrize("name, data, argv", [
        ("cfg.json", NESTED, ["forward", "--config", "cfg.json", "--report", "r.json"]),
        ("p.bin", _stream_of(NESTED), ["params", "inspect", "p.bin"]),
        ("p.bin", _stream_of(NESTED), ["forward", *SMALL, "--params-in", "p.bin", "--report", "r.json"]),
        ("p.bin", _stream_of(LONG_INT), ["params", "inspect", "p.bin"]),
    ], ids=["config-nesting", "inspect-nesting", "params-in-nesting", "inspect-int-digits"])
    def test_json_beyond_the_decoders_limits_exits_2(self, tmp_path, monkeypatch, capsys, name, data, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(data)
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("argv, array", [
        (["forward", "--height", HUGE, "--width", "4", "--report", "r.json"], "parameter step_to4.registers.r_qk"),
        (["params", "init", "--height", HUGE, "--width", "4", "--out", "p.bin"], "parameter step_to4.registers.r_qk"),
        (["forward", "--batch", HUGE, "--report", "r.json"], "input c3"),
    ], ids=["forward-height", "params-init-height", "forward-batch"])
    def test_unaddressable_size_exits_2_naming_the_array(self, tmp_path, monkeypatch, capsys, argv, array):
        """Refused when the run is resolved, before anything is allocated."""
        monkeypatch.chdir(tmp_path)
        for name in ("synthetic_pyramid", "init_params", "init_and_forward"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("allocated before the size check"))
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {array} of shape (") and err.count("\n") == 1
        assert "than NumPy can address" in err and os.listdir(tmp_path) == []


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

    def test_corrupted_backward_rule_exits_1(self, monkeypatch, capsys):
        cases = [(name, corrupted(build) if name == "conv2d" else build, tol, eps)
                 for name, build, tol, eps in verify.GRADIENT_CASES]
        monkeypatch.setattr(verify, "GRADIENT_CASES", cases)
        code = main(["verify", "--scope", "grad", "--seeds", "2"])
        assert code == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "FAILED: conv2d" in out


def module_env(unbuffered: bool) -> dict:
    """The environment for ``python -m fusionneck`` from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestBrokenPipe:
    """A reader that closes the pipe early: exit 141 (128 + SIGPIPE) and nothing on stderr."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", [
        ["params", "inspect", "PARAMS"],
        ["forward", *SMALL],
        ["verify", "--scope", "oracle"],
    ])
    def test_closed_stdout_exits_141_silently(self, tmp_path, command, unbuffered):
        pfile = tmp_path / "p.bin"
        assert main(["params", "init", *SMALL, "--out", str(pfile)]) == EXIT_OK
        argv = [str(pfile) if arg == "PARAMS" else arg for arg in command]
        proc = subprocess.Popen(
            [sys.executable, "-m", "fusionneck", *argv],
            env=module_env(unbuffered), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the child has written anything
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == EXIT_BROKEN_PIPE == 141
        assert err == b""


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

    def test_non_finite_coordinate_exits_2_with_line(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("img0 0 0 0 10 10\n")
        det.write_text("img0 0 0 0 10 10 0.9\nimg0 0 0 0 nan 5 0.5\n")
        code = main(["eval", "--detections", str(det), "--ground-truth", str(gt)])
        assert code == EXIT_INPUT
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_flag", ["--detections", "--ground-truth"])
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys, bad_flag):
        files = {"--detections": tmp_path / "det.txt", "--ground-truth": tmp_path / "gt.txt"}
        files["--detections"].write_text("img0 0 0 0 10 10 0.9\n")
        files["--ground-truth"].write_text("img0 0 0 0 10 10\n")
        files[bad_flag].write_bytes(b"img0 0 0 0 10 10\xff\n")
        code = main(["eval", *(str(part) for pair in files.items() for part in pair)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {files[bad_flag]}:1: byte 16 is not UTF-8 text"]

    def test_only_a_line_feed_ends_a_line(self, tmp_path, capsys):
        # the form feed is whitespace, so line 1 holds two records' fields
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("img 0 0 0 1 1\n")
        det.write_bytes(b"img 0 0 0 1 1 0.5\x0cimg 0 0 0 1 1 0.5\nimg 0 x 0 1 1 0.5\n")
        code = main(["eval", "--detections", str(det), "--ground-truth", str(gt)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {det}:1: expected 7 fields, got 14"]

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

"""Command-line surface.

Subcommands:

    forward   build a seeded synthetic pyramid, run the neck, write a report
    verify    run the gradient and oracle suites
    eval      score a detections file against a ground-truth file
    params    init / inspect parameter files

Exit codes: 0 success, 1 verification failure, 2 input or config error,
3 runtime shape error, 141 output pipe closed by its reader (128 + SIGPIPE,
as a shell reports it).  Reports are JSON with sorted keys so identical
configs and seeds produce byte-identical files; every report embeds its
format version, the full config echo, and the seed it can be reproduced from.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import verify
from .diagnostics import artifact_report, level_stats
from .detmetrics import evaluate_records, load_detections, load_ground_truths
from .errors import (
    ConfigError,
    ContractError,
    FileFormatError,
    FusionNeckError,
    ParamsIOError,
    ShapeError,
)
from .neck import (
    NeckConfig,
    init_params,
    load_params,
    neck_forward,
    read_manifest,
    save_params,
    synthetic_pyramid,
)
from .tensor import Rng

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_SHAPE = 3
EXIT_BROKEN_PIPE = 141

REPORT_FORMAT_VERSION = 2

CONFIG_FLAGS = {
    # dest -> (flag, type, help)
    "pyramid_width": ("--pyramid-width", int, "shared channel width of p3/p4/p5"),
    "head_count": ("--heads", int, "attention head count (must divide pyramid width)"),
    "dilations": ("--dilations", str, "comma-separated dilation set, e.g. 1,2,3"),
    "gating_mode": ("--gating", str, "gate squashing: raw or logistic"),
    "atrous_mode": ("--atrous-mode", str, "standard | atrous | attention_atrous"),
    "init_sigma": ("--init-sigma", float, "Gaussian std for weight init"),
    "scse_reduction": ("--scse-reduction", int, "channel-gate reduction ratio"),
    "base_height": ("--height", int, "base (c3) height, divisible by 4"),
    "base_width": ("--width", int, "base (c3) width, divisible by 4"),
}


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with the same keys as the flags")
    for dest, (flag, typ, help_text) in CONFIG_FLAGS.items():
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    parser.add_argument("--c3", type=int, default=None, help="c3 channel count")
    parser.add_argument("--c4", type=int, default=None, help="c4 channel count")
    parser.add_argument("--c5", type=int, default=None, help="c5 channel count")
    parser.add_argument(
        "--use-mhsa", action=argparse.BooleanOptionalAction, default=None,
        help="enable the attention gate on the top-down path",
    )
    parser.add_argument(
        "--use-registers", action=argparse.BooleanOptionalAction, default=None,
        help="enable register biases inside the attention gate",
    )


RUN_EXTRAS = ("seed", "batch")  # RunConfig keys a config file holds beside NeckConfig's


def _load_config_file(args: argparse.Namespace) -> dict:
    """The ``--config`` file's JSON object, or {} without one."""
    if not args.config:
        return {}
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object, got {type(loaded).__name__}")
    return loaded


def _run_extra(args: argparse.Namespace, file_config: dict, key: str, fallback: int) -> int:
    """seed/batch resolve as: explicit flag > config file > hard default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    value = file_config.get(key)
    if value is None:
        return fallback
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _neck_config_from_args(args: argparse.Namespace, file_config: dict) -> NeckConfig:
    values = NeckConfig().to_dict()
    values.update((k, v) for k, v in file_config.items() if k not in RUN_EXTRAS)
    for dest in CONFIG_FLAGS:
        arg = getattr(args, dest)
        if arg is not None:
            values[dest] = arg
    for flag, dest in (("use_mhsa", "use_mhsa"), ("use_registers", "use_registers")):
        arg = getattr(args, flag)
        if arg is not None:
            values[dest] = arg
    flags = [getattr(args, name) for name in ("c3", "c4", "c5")]
    channels = values["in_channels"]
    if isinstance(channels, (list, tuple)) and len(channels) == 3:  # else from_dict rejects it
        values["in_channels"] = [c if flag is None else flag for c, flag in zip(channels, flags)]
    if isinstance(values["dilations"], str):
        try:
            values["dilations"] = tuple(int(v) for v in values["dilations"].split(","))
        except ValueError:
            raise ConfigError(f"bad dilation list {values['dilations']!r}") from None
    return NeckConfig.from_dict(values)


@dataclasses.dataclass
class RunConfig:
    """Everything a forward run needs: structure, seed, batch, and outputs."""

    neck: NeckConfig
    seed: int
    batch: int
    report_path: str | None
    params_in: str | None
    params_out: str | None

    def echo(self) -> dict:
        d = self.neck.to_dict()
        d["seed"] = self.seed
        d["batch"] = self.batch
        return d


def _checksum(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest()


def cmd_forward(cfg: RunConfig) -> dict:
    """Run one seeded forward pass and return the report document."""
    rng = Rng(cfg.seed)
    pin = synthetic_pyramid(cfg.neck, cfg.batch, rng.split(1))
    if cfg.params_in:
        params = load_params(Path(cfg.params_in).read_bytes(), cfg.neck)
    else:
        params = init_params(cfg.neck, rng.split(2))
    if cfg.params_out:
        Path(cfg.params_out).write_bytes(save_params(params))
    trace: dict = {}
    out = neck_forward(pin, params, cfg.neck, trace=trace if cfg.neck.use_mhsa else None)
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": cfg.echo(),
        "levels": {
            name: level_stats(out.level(n), level=name).to_dict()
            for name, n in (("p3", 3), ("p4", 4), ("p5", 5))
        },
        "checksums": {
            "p3": _checksum(out.p3.data),
            "p4": _checksum(out.p4.data),
            "p5": _checksum(out.p5.data),
        },
    }
    if cfg.neck.use_mhsa:
        report["attention"] = {
            step: artifact_report(entry["attention"], entry["mhsa_output"]).to_dict()
            for step, entry in sorted(trace.items())
        }
    return report


def _write_report(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _forward(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args)
    cfg = RunConfig(
        neck=_neck_config_from_args(args, file_config),
        seed=_run_extra(args, file_config, "seed", 0),
        batch=_run_extra(args, file_config, "batch", 2),
        report_path=args.report,
        params_in=args.params_in,
        params_out=args.params_out,
    )
    if cfg.batch < 1:
        raise ConfigError(f"batch must be >= 1, got {cfg.batch}")
    report = cmd_forward(cfg)
    _write_report(report, cfg.report_path)
    if cfg.report_path:
        print(f"report written to {cfg.report_path}")
    return EXIT_OK


def _verify(args: argparse.Namespace) -> int:
    results = verify.run(scope=args.scope, corrupt=args.corrupt, seeds=args.seeds)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"[{r.suite:6s}] {r.name:<{width}s}  max err {r.metric:.3e}  tol {r.tolerance:.1e}  {status}  {r.detail}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} suites within tolerance")
    return EXIT_OK


def _parse_thresholds(text: str) -> tuple[float, ...]:
    """Comma-separated IoU thresholds, each a finite number in (0, 1]."""
    thresholds = []
    for token in text.split(","):
        try:
            value = float(token)
        except ValueError:
            value = float("nan")
        if not 0.0 < value <= 1.0:  # false for nan, so this also rejects non-numbers
            raise ConfigError(f"IoU threshold {token!r} is not a number in (0, 1]")
        thresholds.append(value)
    return tuple(thresholds)


def _eval(args: argparse.Namespace) -> int:
    thresholds = None if args.thresholds is None else _parse_thresholds(args.thresholds)
    dets = load_detections(args.detections)
    gts = load_ground_truths(args.ground_truth)
    result = (
        evaluate_records(dets, gts, thresholds) if thresholds else evaluate_records(dets, gts)
    )
    doc = {"format_version": REPORT_FORMAT_VERSION, "result": result.to_dict()}
    _write_report(doc, args.report)
    print(f"mAP {result.mean:.4f}  AP50 {result.ap50:.4f}  AP75 {result.ap75:.4f}")
    return EXIT_OK


def _params(args: argparse.Namespace) -> int:
    if args.action == "init":
        file_config = _load_config_file(args)
        cfg = _neck_config_from_args(args, file_config)
        params = init_params(cfg, Rng(_run_extra(args, file_config, "seed", 0)).split(2))
        Path(args.out).write_bytes(save_params(params))
        print(f"wrote {args.out}")
        return EXIT_OK
    # inspect
    raw = Path(args.file).read_bytes()
    manifest, _ = read_manifest(raw)
    cfg = NeckConfig.from_dict(manifest["config"])
    params = load_params(raw, cfg)
    total = sum(v.size for v in params.values())
    print(f"format version {manifest['format_version']}, {len(manifest['tensors'])} tensors, {total} parameters")
    for entry in manifest["tensors"]:
        print(f"  {entry['name']:<34s} shape {tuple(entry['shape'])} offset {entry['offset']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fusionneck", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fwd = sub.add_parser("forward", help="run the neck on a seeded synthetic pyramid")
    _add_config_args(p_fwd)
    p_fwd.add_argument("--seed", type=int, default=None, help="seed for inputs and init (default 0)")
    p_fwd.add_argument("--batch", type=int, default=None, help="batch size (default 2)")
    p_fwd.add_argument("--report", help="report file (stdout when omitted)")
    p_fwd.add_argument("--params-in", help="load parameters from this file")
    p_fwd.add_argument("--params-out", help="save the parameters used to this file")
    p_fwd.set_defaults(func=_forward)

    p_ver = sub.add_parser("verify", help="run gradient and oracle suites")
    p_ver.add_argument("--scope", choices=("grad", "oracle", "all"), default="all")
    p_ver.add_argument("--seeds", type=int, default=verify.GRAD_SEEDS, help="seeds per gradient case")
    p_ver.add_argument("--corrupt", help=argparse.SUPPRESS)  # fault injection for self-tests
    p_ver.set_defaults(func=_verify)

    p_eval = sub.add_parser("eval", help="evaluate detection metrics from interchange files")
    p_eval.add_argument("--detections", required=True)
    p_eval.add_argument("--ground-truth", required=True)
    p_eval.add_argument("--thresholds", help="comma-separated IoU thresholds for headline AP")
    p_eval.add_argument("--report", help="result file (stdout when omitted)")
    p_eval.set_defaults(func=_eval)

    p_par = sub.add_parser("params", help="parameter file tools")
    par_sub = p_par.add_subparsers(dest="action", required=True)
    p_init = par_sub.add_parser("init", help="initialize and save parameters")
    _add_config_args(p_init)
    p_init.add_argument("--seed", type=int, default=None, help="init seed (default 0)")
    p_init.add_argument("--out", required=True)
    p_init.set_defaults(func=_params, action="init")
    p_ins = par_sub.add_parser("inspect", help="print a parameter file manifest")
    p_ins.add_argument("file")
    p_ins.set_defaults(func=_params, action="inspect")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest of stdout, and the interpreter's
        # final flush, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (ConfigError, ContractError, FileFormatError, ParamsIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FusionNeckError as exc:  # any other package error is an input problem
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

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
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import verify
from .diagnostics import artifact_report, level_stats
from .detmetrics import evaluate_records, load_detections, load_ground_truths
from .errors import ConfigError, EvaluationError, FusionNeckError, ShapeError
from .neck import (
    LEVELS,
    NeckConfig,
    init_and_forward,
    init_params,
    load_params,
    neck_forward,
    parameter_spec,
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
    # NeckConfig field -> (flag, help); the flag's type follows the field's default
    "pyramid_width": ("--pyramid-width", "shared channel width of p3/p4/p5"),
    "head_count": ("--heads", "attention head count (must divide pyramid width)"),
    "dilations": ("--dilations", "comma-separated dilation set, e.g. 1,2,3"),
    "gating_mode": ("--gating", "gate squashing: raw or logistic"),
    "atrous_mode": ("--atrous-mode", "standard | atrous | attention_atrous"),
    "init_sigma": ("--init-sigma", "Gaussian std for weight init"),
    "scse_reduction": ("--scse-reduction", "channel-gate reduction ratio"),
    "base_height": ("--height", "base (c3) height, divisible by 4"),
    "base_width": ("--width", "base (c3) width, divisible by 4"),
    "use_mhsa": ("--use-mhsa", "enable the attention gate on the top-down path"),
    "use_registers": ("--use-registers", "enable register biases inside the attention gate"),
}


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with the keys and values of a report's config echo")
    defaults = NeckConfig()
    for dest, (flag, help_text) in CONFIG_FLAGS.items():
        default = getattr(defaults, dest)
        if isinstance(default, bool):
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": _int_list if isinstance(default, tuple) else type(default)}
        parser.add_argument(flag, dest=dest, default=None, help=help_text, **kind)
    parser.add_argument("--c3", type=int, default=None, help="c3 channel count")
    parser.add_argument("--c4", type=int, default=None, help="c4 channel count")
    parser.add_argument("--c5", type=int, default=None, help="c5 channel count")


def resolve_run(args: argparse.Namespace) -> tuple[NeckConfig, int, int]:
    """A run's (neck config, seed, batch): defaults, then ``--config``, then explicit flags.

    The three merge into one dict of JSON values keyed and typed like a
    report's ``config`` echo, so a config file holds exactly what an echo
    holds.  Any bad key or value raises a ``ConfigError``.
    """
    values = {**NeckConfig().to_dict(), "seed": 0, "batch": 2}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or int digits; deep nesting
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, got {type(loaded).__name__}")
        values.update(loaded)
    for key in (*CONFIG_FLAGS, "seed", "batch"):
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    channels, flags = values["in_channels"], (args.c3, args.c4, args.c5)
    if isinstance(channels, list) and len(channels) == 3:  # else NeckConfig rejects it
        values["in_channels"] = [c if flag is None else flag for c, flag in zip(channels, flags)]
    seed, batch = values.pop("seed"), values.pop("batch")
    for key, value in (("seed", seed), ("batch", batch)):
        if type(value) is not int:
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    neck = NeckConfig.from_dict(values)
    _refuse_unaddressable(neck, batch)
    return neck, seed, batch


def _refuse_unaddressable(neck: NeckConfig, batch: int) -> None:
    """Name the first parameter or input array too large for NumPy to address, before any is allocated."""
    inputs = [(f"input c{n}", (batch, c, *neck.level_hw(n))) for n, c in zip(LEVELS, neck.in_channels)]
    for what, shape in [(f"parameter {name}", shape) for name, shape in parameter_spec(neck)] + inputs:
        if 8 * math.prod(shape) > np.iinfo(np.intp).max:  # where NumPy raises a bare ValueError
            raise ConfigError(f"{what} of shape {shape} takes more bytes than NumPy can address")


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
    params = load_params(Path(cfg.params_in).read_bytes(), cfg.neck) if cfg.params_in else None
    trace: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the level instead
        if params is None:  # the draw runs beside the finest level
            params, out = init_and_forward(pin, cfg.neck, rng.split(2), trace=trace)
        else:
            out = neck_forward(pin, params, cfg.neck, trace=trace)
    if cfg.params_out:  # before the finiteness check: a non-finite draw is named by its tensor
        Path(cfg.params_out).write_bytes(save_params(params))
    report = {"format_version": REPORT_FORMAT_VERSION, "config": cfg.echo(), "levels": {}, "checksums": {}}
    for n in LEVELS:
        name, level = f"p{n}", out.level(n)
        if not np.isfinite(level.data).all():  # NaN or inf would make the report invalid JSON
            raise EvaluationError(f"forward output {name} is not finite")
        report["levels"][name] = level_stats(level, level=name).to_dict()
        report["checksums"][name] = _checksum(level.data)
    if trace:  # empty when the params hold no attention gate
        report["attention"] = {
            step: artifact_report(entry["mass"], entry["mhsa_output"]).to_dict()
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
    neck, seed, batch = resolve_run(args)
    cfg = RunConfig(neck, seed, batch, args.report, args.params_in, args.params_out)
    report = cmd_forward(cfg)
    _write_report(report, cfg.report_path)
    if cfg.report_path:
        print(f"report written to {cfg.report_path}")
    return EXIT_OK


def _verify(args: argparse.Namespace) -> int:
    results = verify.run(scope=args.scope, seeds=args.seeds)
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
        cfg, seed, _ = resolve_run(args)
        params = init_params(cfg, Rng(seed).split(2))
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
    except (FusionNeckError, OSError) as exc:  # every other package error is an input problem
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a config too large to allocate is bad input too
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

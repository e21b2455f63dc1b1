"""Three-level top-down fusion neck.

Each backbone level (c3, c4, c5) is projected to the shared pyramid width,
passed through a bank of parallel dilated 3x3 convolutions whose concatenated
output is fused by a 1x1 projection and recalibrated by concurrent
spatial/channel gates.  The top-down pathway upsamples each coarser output
with a learned 2x stride-2 transposed convolution and multiplies it by a
global gate pooled from a register-biased self-attention pass over the
pre-upsample map, then adds the lateral branch:

    p5 = block(project(c5))
    p4 = block(project(c4)) + gate(p5) ⊙ upsample(p5)
    p3 = block(project(c3)) + gate(p4) ⊙ upsample(p4)

``parameter_spec`` names every learnable tensor of the configured arm once,
with its shape, and is the one place that reads the ablation switches.  Per
level every arm owns ``lateral``; ``attention_atrous`` (the full path) adds
one ``branch_d{d}`` per dilation, ``post`` and the three ``scse`` gate
kernels; ``atrous`` drops the ``scse`` kernels; ``standard`` owns a single
``conv`` (c, c, 3, 3) run at dilation 1 instead.  Per top-down step every
arm owns ``deconv``; ``use_mhsa`` adds ``mhsa.w_qkv`` (3, C, C), and
``use_registers`` with it ``registers.r_qk`` (heads, HW, HW) and
``registers.r_v`` (heads, d_head, HW), all three in the step's one
``MhsaParams``.  ``NeckParams`` holds one ``Value`` per name, the kernels
are built on those same values, and the forward runs exactly the kernels
the params hold.
"""

from __future__ import annotations

import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .attention import (
    MhsaParams,
    ScseParams,
    mhsa_forward,
    scse_recalibrate,
)
from .convkit import ConvKernel, DeconvKernel, conv2d, deconv2x, pointwise_conv
from .errors import ConfigError, ContractError, ParamsIOError, ShapeError
from .tensor import (
    Rng,
    Tape,
    Tensor4,
    Value,
    add,
    concat_channels,
    fork_join,
    global_avg_pool,  # unused here; bench/tracer.py wraps ``neck.global_avg_pool`` by name
    logistic,
    mul,
)

PARAMS_MAGIC = "fusionneck-params"
PARAMS_FORMAT_VERSION = 3

GATING_MODES = ("raw", "logistic")
ATROUS_MODES = ("standard", "atrous", "attention_atrous")

LEVELS = (3, 4, 5)
STEPS = ("to4", "to3")

# Every forward, taped or not, runs the finest level beside the coarse path
# only when its map holds this many elements: a thread start plus join costs
# 105-145 µs on a 2-CPU VM, more than a tiny neck's whole finest level.
LANE_MIN_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class NeckConfig:
    """Structural hyperparameters; every parameter shape derives from these."""

    pyramid_width: int = 64
    head_count: int = 4
    dilations: tuple[int, ...] = (1, 2, 3)
    gating_mode: str = "logistic"
    use_mhsa: bool = True
    use_registers: bool = True
    atrous_mode: str = "attention_atrous"
    init_sigma: float = 0.01
    scse_reduction: int = 4
    in_channels: tuple[int, int, int] = (16, 32, 64)
    base_height: int = 32
    base_width: int = 32

    def __post_init__(self) -> None:
        """Type-check every field against its default, then validate.

        Lists become tuples and ints in float fields become floats, so two
        equal configs have one config echo.
        """
        for key, field in self.__dataclass_fields__.items():
            value = getattr(self, key)
            if not _has_field_type(value, field.default):
                raise ConfigError(f"config key {key!r} has the wrong type: {value!r}")
            if isinstance(value, list):
                object.__setattr__(self, key, tuple(value))
            elif isinstance(field.default, float):
                object.__setattr__(self, key, float(value))
        self.validate()

    def validate(self) -> None:
        c = self.pyramid_width
        if c < 1:
            raise ConfigError(f"pyramid_width must be >= 1, got {c}")
        if self.head_count < 1:
            raise ConfigError(f"head_count must be >= 1, got {self.head_count}")
        if c % self.head_count != 0:
            raise ConfigError(f"pyramid_width {c} not divisible by head_count {self.head_count}")
        if not self.dilations or any(d < 1 for d in self.dilations):
            raise ConfigError(f"dilations must be a non-empty set of ints >= 1, got {self.dilations}")
        if len(set(self.dilations)) != len(self.dilations):
            raise ConfigError(f"dilations must be distinct, got {self.dilations}")
        if self.gating_mode not in GATING_MODES:
            raise ConfigError(f"gating_mode must be one of {GATING_MODES}, got {self.gating_mode!r}")
        if self.atrous_mode not in ATROUS_MODES:
            raise ConfigError(f"atrous_mode must be one of {ATROUS_MODES}, got {self.atrous_mode!r}")
        if self.init_sigma < 0:
            raise ConfigError(f"init_sigma must be >= 0, got {self.init_sigma}")
        if self.scse_reduction < 1 or c % self.scse_reduction != 0:
            raise ConfigError(
                f"scse_reduction {self.scse_reduction} must divide pyramid_width {c}"
            )
        if len(self.in_channels) != 3 or any(ci < 1 for ci in self.in_channels):
            raise ConfigError(f"in_channels must be three positive ints, got {self.in_channels}")
        if self.base_height % 4 or self.base_width % 4 or self.base_height < 4 or self.base_width < 4:
            raise ConfigError(
                f"base size {self.base_height}x{self.base_width} must be divisible by 4"
            )

    def level_hw(self, n: int) -> tuple[int, int]:
        """Spatial size of pyramid level n: the base size halved n - 3 times."""
        return self.base_height >> (n - 3), self.base_width >> (n - 3)

    def step_hw(self, step: str) -> tuple[int, int]:
        """Spatial size of the map entering the given top-down step."""
        if step not in STEPS:
            raise ConfigError(f"unknown top-down step {step!r}")
        return self.level_hw(int(step[-1]) + 1)  # "to4" upsamples p5, "to3" upsamples p4

    def to_dict(self) -> dict:
        """Every field as a JSON value, tuples as lists: the config echo."""
        return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "NeckConfig":
        """Build from a JSON-style dict; the constructor checks each value's type."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _has_field_type(value, default) -> bool:
    """Whether ``value`` fits the NeckConfig field whose default is ``default``."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return _is_int(value)
    if isinstance(default, float):  # JSON also reads NaN, Infinity and ints beyond the float range
        return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
    if isinstance(default, str):
        return isinstance(value, str)
    return isinstance(value, (list, tuple)) and all(_is_int(v) for v in value)  # int tuples


@dataclass
class PyramidIn:
    """Backbone feature maps at base, half, and quarter resolution."""

    c3: Tensor4
    c4: Tensor4
    c5: Tensor4

    def level(self, n: int) -> Tensor4:
        return getattr(self, f"c{n}")


@dataclass
class PyramidOut:
    """Fused maps at the three lateral resolutions, all pyramid_width wide."""

    p3: Tensor4
    p4: Tensor4
    p5: Tensor4

    def level(self, n: int) -> Tensor4:
        return {3: self.p3, 4: self.p4, 5: self.p5}[n]


@dataclass
class LevelParams:
    """Lateral projection, dilated branch bank, fusion, and gates for one level.

    ``post`` is None in the ``standard`` arm, whose ``branches`` is its one
    dilation-1 conv; ``scse`` is None in the ``standard`` and ``atrous`` arms.
    """

    lateral: ConvKernel
    branches: list[ConvKernel]
    post: ConvKernel | None
    scse: ScseParams | None


@dataclass
class StepParams:
    """Attention gate and learned upsampler for one top-down step.

    ``mhsa`` is None without ``use_mhsa``; with it, ``mhsa`` holds the
    registers too, or none of them without ``use_registers``.
    """

    mhsa: MhsaParams | None
    deconv: DeconvKernel


class NeckParams:
    """All learnable tensors of the neck, addressable by canonical name.

    ``tensors`` maps each ``parameter_spec`` name, in spec order, to the very
    ``Value`` that ``levels`` and ``steps`` hold, so updating one updates both.
    Only the arm's own tensors exist: the ``LevelParams`` and ``StepParams``
    fields of kernels it does not run are None.
    """

    def __init__(
        self,
        tensors: dict[str, Value],
        levels: dict[int, LevelParams],
        steps: dict[str, StepParams],
        config: NeckConfig,
    ):
        self.tensors = tensors
        self.levels = levels
        self.steps = steps
        self.config = config

    def named_values(self) -> list[tuple[str, Value]]:
        """(name, value) pairs in the canonical serialization order."""
        return list(self.tensors.items())

    def values(self) -> list[Value]:
        return list(self.tensors.values())

    def zero_grad(self) -> None:
        for v in self.values():
            v.zero_grad()


def parameter_spec(cfg: NeckConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list of the arm's own tensors; the single source of truth for layout."""
    c = cfg.pyramid_width
    spec: list[tuple[str, tuple[int, ...]]] = []

    def conv(prefix: str, shape: tuple[int, ...]) -> None:
        spec.extend([(f"{prefix}.weight", shape), (f"{prefix}.bias", (shape[0],))])

    for n, ci in zip(LEVELS, cfg.in_channels):
        conv(f"level{n}.lateral", (c, ci, 1, 1))
        if cfg.atrous_mode == "standard":
            conv(f"level{n}.conv", (c, c, 3, 3))
            continue
        for d in cfg.dilations:
            conv(f"level{n}.branch_d{d}", (c, c, 3, 3))
        conv(f"level{n}.post", (c, len(cfg.dilations) * c, 1, 1))
        if cfg.atrous_mode == "attention_atrous":
            hidden = c // cfg.scse_reduction
            conv(f"level{n}.scse.reduce", (hidden, c, 1, 1))
            conv(f"level{n}.scse.expand", (c, hidden, 1, 1))
            conv(f"level{n}.scse.spatial", (1, c, 1, 1))
    heads = cfg.head_count
    for s in STEPS:
        h, w = cfg.step_hw(s)
        if cfg.use_mhsa:
            spec.append((f"step_{s}.mhsa.w_qkv", (3, c, c)))
            if cfg.use_registers:
                spec.append((f"step_{s}.registers.r_qk", (heads, h * w, h * w)))
                spec.append((f"step_{s}.registers.r_v", (heads, c // heads, h * w)))
        conv(f"step_{s}.deconv", (c, c, 2, 2))
    return spec


def _params_from_arrays(cfg: NeckConfig, arrays: dict[str, np.ndarray]) -> NeckParams:
    """Assemble structured params from a name->array mapping (canonical names).

    One ``Value`` per spec entry; the kernels are built from those same values.
    A kernel the spec does not name is None, so the params alone say what runs.
    """
    t = {name: Value(arrays[name]) for name, _ in parameter_spec(cfg)}

    def conv(prefix: str, dilation: int = 1) -> ConvKernel | None:
        if f"{prefix}.weight" not in t:
            return None
        return ConvKernel(t[f"{prefix}.weight"], t[f"{prefix}.bias"], dilation=dilation)

    levels: dict[int, LevelParams] = {}
    for n in LEVELS:
        kernels = [conv(f"level{n}.conv"), *(conv(f"level{n}.branch_d{d}", d) for d in cfg.dilations)]
        scse = [conv(f"level{n}.scse.{part}") for part in ("reduce", "expand", "spatial")]
        levels[n] = LevelParams(
            lateral=conv(f"level{n}.lateral"),
            branches=[k for k in kernels if k is not None],
            post=conv(f"level{n}.post"),
            scse=None if scse[0] is None else ScseParams(*scse),
        )
    steps: dict[str, StepParams] = {}
    for s in STEPS:
        w_qkv, r_qk, r_v = (t.get(f"step_{s}.{name}") for name in ("mhsa.w_qkv", "registers.r_qk", "registers.r_v"))
        steps[s] = StepParams(
            mhsa=None if w_qkv is None else MhsaParams(w_qkv, cfg.head_count, r_qk, r_v),
            deconv=DeconvKernel(t[f"step_{s}.deconv.weight"], t[f"step_{s}.deconv.bias"]),
        )
    return NeckParams(t, levels, steps, cfg)


def init_params(cfg: NeckConfig, rng: Rng) -> NeckParams:
    """Gaussian(0, init_sigma²) weights, zero biases, drawn in canonical order."""
    arrays = _allocate(cfg)
    _draw(arrays, list(arrays), rng, cfg.init_sigma)
    return _params_from_arrays(cfg, arrays)


def _allocate(cfg: NeckConfig) -> dict[str, np.ndarray]:
    """Every parameter array of the arm in spec order: biases zero, weights not yet drawn."""
    return {
        name: np.zeros(shape) if name.endswith(".bias") else np.empty(shape)
        for name, shape in parameter_spec(cfg)
    }


def _draw(arrays: dict[str, np.ndarray], names: list[str], rng: Rng, sigma: float) -> None:
    """Draw the weights among ``names``, in their order, into their arrays; biases stay zero."""
    for name in names:
        if not name.endswith(".bias"):
            rng.fill_normal(arrays[name], sigma)


def parallel_atrous_block(x: Tensor4, level: LevelParams, tape: Tape | None = None) -> Tensor4:
    """Multi-dilation branch bank with fusion and gate recalibration.

    Runs what ``level`` holds: every branch conv, then the ``post`` fusion
    and the ``scse`` gates where present.  The ``standard`` arm's single
    branch has no ``post`` and is returned as is; the ``atrous`` arm has no
    ``scse`` and returns the fused map.
    """
    branches = [conv2d(x, k, tape) for k in level.branches]
    if level.post is None:
        return branches[0]
    fused = pointwise_conv(concat_channels(branches, tape), level.post, tape)
    if level.scse is None:
        return fused
    return scse_recalibrate(fused, level.scse, tape)


def attention_upsample(
    top: Tensor4,
    step: StepParams,
    cfg: NeckConfig,
    tape: Tape | None = None,
    trace: dict | None = None,
    trace_key: str = "",
) -> Tensor4:
    """Dual-path 2x upsampling: learned deconvolution gated by pooled attention.

    Path A pools self-attention (with the step's registers, if it holds any)
    over the input into a per-channel gate in one ``mhsa_forward`` call,
    squashed by the logistic when ``cfg.gating_mode`` asks; path B applies
    the stride-2 transposed convolution.  The output is the gated product, or
    the raw deconvolution when the step holds no attention params.
    """
    up = deconv2x(top, step.deconv, tape)
    if step.mhsa is None:
        return up
    entry = None if trace is None else trace.setdefault(trace_key, {})
    gate = mhsa_forward(top, step.mhsa, tape, entry)
    if cfg.gating_mode == "logistic":
        gate = logistic(gate, tape)
    return mul(up, gate, tape)


def _validate_input(pin: PyramidIn, cfg: NeckConfig) -> None:
    """Check each level's (B, C, H, W) against the config, B from c3, then its finiteness."""
    batch = pin.c3.data.shape[0]
    for n, c in zip(LEVELS, cfg.in_channels):
        shape, expected = pin.level(n).data.shape, (batch, c, *cfg.level_hw(n))
        if shape != expected:
            raise ShapeError(f"c{n}: expected shape {expected}, got {shape}")
    for n in LEVELS:
        if not np.isfinite(pin.level(n).data).all():
            raise ContractError(f"c{n}: input holds non-finite values")


def _json_text(d: dict, key: str) -> str:
    return json.dumps(d[key], sort_keys=True) if key in d else "(absent)"


def _differing_keys(got: dict, want: dict) -> list[str]:
    """Sorted keys whose JSON text differs between two objects, keys that only one holds included."""
    return sorted(k for k in got.keys() | want.keys() if _json_text(got, k) != _json_text(want, k))


def neck_forward(
    pin: PyramidIn,
    params: NeckParams,
    cfg: NeckConfig,
    tape: Tape | None = None,
    trace: dict | None = None,
) -> PyramidOut:
    """Full top-down pass producing p3/p4/p5 at the lateral resolutions.

    ``params`` must be built for ``cfg`` itself, since they decide which arm
    runs.  The inputs must have the configured shapes and hold finite values
    only.  With a ``trace`` dict, each step that runs attention stores what
    ``mhsa_forward`` traces (``mass`` and ``mhsa_output``) under its name.

    The finest level's lateral conv and atrous block do not depend on the
    coarse path (p5, ``to4``, p4, ``to3``) until the final sum.  Given a
    finest map of at least ``LANE_MIN_ELEMENTS`` elements, with or without a
    tape, the two run as the lanes of ``fork_join``, the coarse path on the
    new thread; otherwise the finest level runs first, then the coarse path.
    Outputs and gradients are the same bit for bit.  The lanes share no
    value, because ``params`` holds one ``Value`` per name.
    """
    if params.config != cfg:
        keys = _differing_keys(params.config.to_dict(), cfg.to_dict())
        raise ContractError(f"params were built for another config; keys differ: {keys}")
    _validate_input(pin, cfg)
    return _top_down(pin, params, cfg, tape, trace)


def init_and_forward(
    pin: PyramidIn, cfg: NeckConfig, rng: Rng, trace: dict | None = None
) -> tuple[NeckParams, PyramidOut]:
    """``init_params(cfg, rng)``, then a tape-less ``neck_forward`` with them, equal bit for bit.

    ``parameter_spec`` lists level 3's tensors first.  This thread allocates
    every parameter array and draws level 3's weights; every later weight is
    drawn, in spec order into those same arrays, at the head of
    ``neck_forward``'s coarse lane.  The draw (some 14 ms of a default batch-2
    forward) thus hides beside the finest level.
    """
    _validate_input(pin, cfg)
    arrays = _allocate(cfg)
    names = list(arrays)
    split = sum(name.startswith("level3.") for name in names)
    _draw(arrays, names[:split], rng, cfg.init_sigma)
    params = _params_from_arrays(cfg, arrays)
    rest = functools.partial(_draw, arrays, names[split:], rng, cfg.init_sigma)
    return params, _top_down(pin, params, cfg, None, trace, rest)


def _top_down(
    pin: PyramidIn, params: NeckParams, cfg: NeckConfig, tape: Tape | None, trace: dict | None, draw=lambda: None
) -> PyramidOut:
    """``neck_forward`` on checked inputs: the finest level in one lane, ``draw()`` then the coarse path in the other."""
    finest = functools.partial(_lateral, pin, params, 3)

    def coarse(t: Tape | None) -> tuple[Tensor4, Tensor4, Tensor4]:
        draw()
        p5 = _lateral(pin, params, 5, t)
        t4 = attention_upsample(p5, params.steps["to4"], cfg, t, trace, "to4")
        p4 = add(_lateral(pin, params, 4, t), t4, t)
        del t4  # freed before to3, which sets the traced peak of a drawn forward
        return p5, p4, attention_upsample(p4, params.steps["to3"], cfg, t, trace, "to3")

    b, _, h, w = pin.c3.dims
    if b * cfg.pyramid_width * h * w >= LANE_MIN_ELEMENTS:
        l3, (p5, p4, t3) = fork_join(finest, coarse, tape)
    else:
        l3, (p5, p4, t3) = finest(tape), coarse(tape)
    return PyramidOut(add(l3, t3, tape), p4, p5)


def _lateral(pin: PyramidIn, params: NeckParams, n: int, tape: Tape | None) -> Tensor4:
    """Level ``n``'s lateral projection and atrous block."""
    level = params.levels[n]
    return parallel_atrous_block(pointwise_conv(pin.level(n), level.lateral, tape), level, tape)


def synthetic_pyramid(cfg: NeckConfig, batch: int, rng: Rng) -> PyramidIn:
    """Standard-normal backbone stand-in at the configured shapes."""
    return PyramidIn(*(Tensor4(rng.normal((batch, c, *cfg.level_hw(n)))) for n, c in zip(LEVELS, cfg.in_channels)))


def _manifest(cfg: NeckConfig) -> dict:
    """The manifest ``save_params`` writes for ``cfg``, and the only one ``load_params`` accepts.

    Its tensor index is in ``parameter_spec`` order, payloads back to back.
    """
    index, offset = [], 0
    for name, shape in parameter_spec(cfg):
        index.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return {"format_version": PARAMS_FORMAT_VERSION, "config": cfg.to_dict(), "tensors": index}


def save_params(params: NeckParams) -> bytes:
    """Serialize to a manifest header plus raw little-endian float64 payload.

    Layout: one ASCII header line ``fusionneck-params <version> <manifest_len>``,
    the JSON manifest of ``_manifest`` (format version, config echo, and the
    tensor index: names, shapes and payload byte offsets), then the
    concatenated tensor data.  The round trip is bit-exact.  A non-finite
    tensor raises ``load_params``'s ``ParamsIOError``: no stream the reader refuses.
    """
    manifest = _manifest(params.config)
    for entry, value in zip(manifest["tensors"], params.values()):
        if list(value.shape) != entry["shape"]:
            raise ShapeError(f"tensor {entry['name']} has shape {value.shape}, expected {tuple(entry['shape'])}")
        if not np.isfinite(value.data).all():
            raise ParamsIOError(f"tensor {entry['name']} holds non-finite values")
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("ascii")
    header = f"{PARAMS_MAGIC} {PARAMS_FORMAT_VERSION} {len(manifest_bytes)}\n".encode("ascii")
    payload = b"".join(np.ascontiguousarray(v.data, dtype="<f8").tobytes() for v in params.values())
    return header + manifest_bytes + payload


def read_manifest(stream: bytes) -> tuple[dict, bytes]:
    """Parse a parameter stream's header and manifest; return (manifest, payload).

    The header must be spelled as ``save_params`` spells it, and the manifest
    must be a JSON object with a ``config`` object and a ``tensors`` list;
    anything else raises ``ParamsIOError``.  Whether the manifest is the one
    written for a config is ``load_params``'s check.
    """
    buf = io.BytesIO(stream)
    line = buf.readline()
    parts = line.decode("ascii", errors="replace").split()
    if len(parts) != 3 or parts[0] != PARAMS_MAGIC:
        raise ParamsIOError("not a parameter stream (bad magic header)")
    try:
        version, manifest_len = int(parts[1]), int(parts[2])
    except ValueError:
        version = manifest_len = None
    if line != f"{PARAMS_MAGIC} {version} {manifest_len}\n".encode("ascii"):
        raise ParamsIOError("malformed parameter header")
    if version != PARAMS_FORMAT_VERSION:
        raise ParamsIOError(
            f"unsupported format version {version} (expected {PARAMS_FORMAT_VERSION})"
        )
    if not 0 <= manifest_len <= len(stream):
        raise ParamsIOError(f"manifest length {manifest_len} outside 0..{len(stream)}, the stream's size")
    manifest_bytes = buf.read(manifest_len)
    if len(manifest_bytes) != manifest_len:
        raise ParamsIOError("truncated manifest")
    try:
        manifest = json.loads(manifest_bytes)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an int over the digit limit, deep nesting
        raise ParamsIOError(f"manifest cannot be read as JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParamsIOError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    if not isinstance(manifest.get("config"), dict):
        raise ParamsIOError("manifest has no config object")
    if not isinstance(manifest.get("tensors"), list):
        raise ParamsIOError("manifest has no tensors list")
    return manifest, buf.read()


def load_params(stream: bytes, cfg: NeckConfig) -> NeckParams:
    """Parse a parameter stream written by ``save_params`` for ``cfg``.

    The stream must be exactly what ``save_params`` writes: a config echo
    equal to ``cfg``'s, the tensor index of ``_manifest(cfg)`` entry for
    entry, no other manifest key or value, a payload of exactly the indexed
    length, and finite values.  Anything else raises ``ParamsIOError``
    naming the first tensor or manifest key at fault.
    """
    manifest, payload = read_manifest(stream)
    want = _manifest(cfg)
    keys = _differing_keys(manifest["config"], want["config"])
    if keys:
        raise ParamsIOError(f"manifest config mismatch on keys: {keys}")
    index, tensors = want["tensors"], manifest["tensors"]
    for i, entry in enumerate(index):
        got = json.dumps(tensors[i] if i < len(tensors) else None, sort_keys=True)
        if got != json.dumps(entry, sort_keys=True):
            where = f"right after tensor {index[i - 1]['name']}" if i else "the payload start"
            raise ParamsIOError(
                f"manifest entry {i} must be tensor {entry['name']} with shape {tuple(entry['shape'])} "
                f"at offset {entry['offset']} ({where}), found {got}"
            )
    if len(tensors) > len(index):
        raise ParamsIOError(f"unexpected tensor in manifest: {json.dumps(tensors[len(index)], sort_keys=True)}")
    keys = _differing_keys(manifest, want)  # config and tensors are equal by now
    if keys:
        key = keys[0]
        raise ParamsIOError(f"manifest key {key!r} must be {_json_text(want, key)}, found {_json_text(manifest, key)}")
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for entry in index:
        name, start = entry["name"], entry["offset"]
        end = start + 8 * math.prod(entry["shape"])
        if end > len(payload):
            raise ParamsIOError(f"truncated payload for tensor {name}")
        arrays[name] = np.frombuffer(payload[start:end], dtype="<f8").reshape(entry["shape"]).copy()
        if not np.isfinite(arrays[name]).all():
            raise ParamsIOError(f"tensor {name} holds non-finite values")
    if end < len(payload):
        raise ParamsIOError(f"payload bytes {end}..{len(payload)} after tensor {index[-1]['name']} belong to no tensor")
    return _params_from_arrays(cfg, arrays)

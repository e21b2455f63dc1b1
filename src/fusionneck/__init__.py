"""fusionneck: attention-gated multi-scale feature pyramid fusion.

A small, verifiable numerical library: dense NCHW tensors with tape-based
reverse-mode differentiation, dilated/pointwise/transposed convolutions with
loop oracles, register-biased multi-head self-attention, a three-level
top-down fusion neck, attention-artifact diagnostics, and 11-point
interpolated detection metrics — all driven by a CLI over synthetic feature
pyramids.
"""

from .attention import (
    MhsaParams,
    ScseParams,
    mhsa_forward,
    scse_recalibrate,
)
from .convkit import (
    ConvKernel,
    DeconvKernel,
    conv2d,
    deconv2x,
    naive_conv2d,
    naive_deconv2x,
    pointwise_conv,
)
from .detmetrics import (
    ApResult,
    Box,
    Detection,
    GroundTruth,
    average_precision,
    brute_force_ap,
    evaluate_records,
    iou,
    mean_ap,
)
from .diagnostics import ArtifactReport, LevelStats, artifact_report, gini_index, level_stats
from .errors import (
    ConfigError,
    ContractError,
    EvaluationError,
    FileFormatError,
    FusionNeckError,
    ParamsIOError,
    ShapeError,
)
from .neck import (
    NeckConfig,
    NeckParams,
    PyramidIn,
    PyramidOut,
    attention_upsample,
    init_params,
    load_params,
    read_manifest,
    neck_forward,
    parallel_atrous_block,
    parameter_spec,
    save_params,
    synthetic_pyramid,
)
from .tensor import (
    Rng,
    Tape,
    Tensor4,
    Value,
    add,
    concat_channels,
    fork_join,
    global_avg_pool,
    grad_check,
    logistic,
    mul,
    sum_all,
    weighted_sum,
)

__version__ = "0.1.0"

"""Kronecker-sequence tensor decomposition and factorized convolution.

Decomposes N-way tensors into sequences of Kronecker factors by recursive
SVD of their unfoldings, convolves with the factors directly (never
materializing the composed weight), embeds CP/Tucker/TT/TR factorizations
into the same representation, and plans shape/rank configurations: it
picks the compression ratio (CR) closest to a target, within an optional
latency budget, and breaks ties on measured latency; the flops ratio (FR)
of each configuration is reported, not used to pick.
"""

from sekron.conv import conv2d_reference, conv_macs, sekron_conv2d
from sekron.decompose import (
    KroneckerSequence,
    reconstruct,
    sekron_decompose,
    stored_param_count,
)
from sekron.equivalences import (
    CpFactors,
    TrCores,
    TuckerFactors,
    from_cp,
    from_tr,
    from_tt,
    from_tucker,
)
from sekron.errors import (
    BadMagicError,
    CandidateLimitError,
    FileFormatError,
    MalformedHeaderError,
    NoFeasibleConfigError,
    NonFinitePayloadError,
    RankError,
    SekronError,
    ShapeError,
    SvdConvergenceError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from sekron.fileio import read_sequence, read_tensor, write_sequence, write_tensor
from sekron.linalg import truncated_svd
from sekron.planner import (
    CandidateConfig,
    PlanRequest,
    Sweep,
    compression_ratio,
    enumerate_configs,
    enumerate_factorizations,
    flops_ratio,
    measure_latency,
    measure_sequence_latency,
    select_config,
    write_candidates_csv,
)
from sekron.tensor_core import FactorShapeMatrix

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "CandidateConfig",
    "CandidateLimitError",
    "CpFactors",
    "FactorShapeMatrix",
    "FileFormatError",
    "KroneckerSequence",
    "MalformedHeaderError",
    "NoFeasibleConfigError",
    "NonFinitePayloadError",
    "PlanRequest",
    "RankError",
    "SekronError",
    "ShapeError",
    "SvdConvergenceError",
    "Sweep",
    "TrCores",
    "TruncatedPayloadError",
    "TuckerFactors",
    "VersionMismatchError",
    "compression_ratio",
    "conv2d_reference",
    "conv_macs",
    "enumerate_configs",
    "enumerate_factorizations",
    "flops_ratio",
    "from_cp",
    "from_tr",
    "from_tt",
    "from_tucker",
    "measure_latency",
    "measure_sequence_latency",
    "read_sequence",
    "read_tensor",
    "reconstruct",
    "select_config",
    "sekron_conv2d",
    "sekron_decompose",
    "stored_param_count",
    "truncated_svd",
    "write_candidates_csv",
    "write_sequence",
    "write_tensor",
]

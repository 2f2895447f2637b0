"""Kronecker-sequence tensor decomposition and factorized convolution.

Decomposes N-way tensors into sequences of Kronecker factors by recursive
SVD of block unfoldings, convolves with the factors directly (never
materializing the composed weight), embeds CP/Tucker/TT/TR factorizations
into the same representation, and plans shape/rank configurations by
compression ratio, FLOPs, and measured latency.
"""

from sekron.conv import conv2d_reference, conv_macs, flops_denominator, sekron_conv2d
from sekron.decompose import (
    KroneckerSequence,
    error_bound,
    random_sequence,
    reconstruct,
    reconstruction_error,
    sekron_decompose,
)
from sekron.equivalences import (
    CpFactors,
    TrCores,
    TuckerFactors,
    from_cp,
    from_tr,
    from_tt,
    from_tucker,
    native_reconstruct,
)
from sekron.errors import (
    BadMagicError,
    CandidateLimitError,
    FileFormatError,
    MalformedHeaderError,
    NoFeasibleConfigError,
    RankError,
    SekronError,
    ShapeError,
    SvdConvergenceError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from sekron.fileio import read_sequence, read_tensor, write_sequence, write_tensor
from sekron.linalg import SvdResult, svd, tail_energy, truncate
from sekron.planner import (
    CandidateConfig,
    PlanRequest,
    compression_ratio,
    enumerate_configs,
    enumerate_factorizations,
    flops_ratio,
    measure_dense_latency,
    measure_latency,
    measure_sequence_latency,
    select_config,
    stored_param_count,
    write_candidates_csv,
)
from sekron.tensor_core import (
    FactorShapeMatrix,
    fold_blocks,
    kron_pair,
    kron_sequence,
    reinterpret_shape,
    seq_index_compose,
    seq_index_decompose,
    unfold_blocks,
)

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
    "PlanRequest",
    "RankError",
    "SekronError",
    "ShapeError",
    "SvdConvergenceError",
    "SvdResult",
    "TrCores",
    "TruncatedPayloadError",
    "TuckerFactors",
    "VersionMismatchError",
    "compression_ratio",
    "conv2d_reference",
    "conv_macs",
    "enumerate_configs",
    "enumerate_factorizations",
    "error_bound",
    "flops_denominator",
    "flops_ratio",
    "fold_blocks",
    "from_cp",
    "from_tr",
    "from_tt",
    "from_tucker",
    "kron_pair",
    "kron_sequence",
    "measure_dense_latency",
    "measure_latency",
    "measure_sequence_latency",
    "native_reconstruct",
    "random_sequence",
    "read_sequence",
    "read_tensor",
    "reconstruct",
    "reconstruction_error",
    "reinterpret_shape",
    "select_config",
    "sekron_conv2d",
    "sekron_decompose",
    "seq_index_compose",
    "seq_index_decompose",
    "stored_param_count",
    "svd",
    "tail_energy",
    "truncate",
    "unfold_blocks",
    "write_candidates_csv",
    "write_sequence",
    "write_tensor",
]

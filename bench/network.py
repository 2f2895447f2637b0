"""The benchmark's model: ResNet-18's 19 non-stem convolutions, one fixed SeKron
configuration per unique layer shape, a seeded weight generator, and the
independent numpy oracles the workloads check the program against.

Nothing here calls into ``sekron``: the inputs and the oracles must not move
when the program changes.
"""

import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Fixed per-shape configurations (factor shapes, ranks).  They are not chosen
# by the planner, so a planner change cannot move `compress` or `infer`.  S=2
# configs keep rank 4; S=3 configs keep ranks 2..4; level-0 unfoldings run
# from thin (16 x N) to near-square (256 x N).
CONFIGS = {
    "64x64k3": ("16x16x1x1,4x4x3x3", (4,)),
    "128x64k3": ("4x4x1x1,4x4x1x1,8x4x3x3", (4, 2)),
    "128x128k3": ("16x8x1x1,8x16x3x3", (4,)),
    "128x64k1": ("8x8x1x1,16x8x1x1", (4,)),
    "256x128k3": ("4x4x1x1,8x4x1x1,8x8x3x3", (2, 4)),
    "256x256k3": ("8x8x1x1,4x4x1x1,8x8x3x3", (4, 4)),
    "256x128k1": ("16x16x1x1,16x8x1x1", (4,)),
    "512x256k3": ("4x4x1x1,8x8x1x1,16x8x3x3", (3, 2)),
    "512x512k3": ("16x16x1x1,32x32x3x3", (4,)),
    "512x256k1": ("8x8x1x1,4x4x1x1,16x8x1x1", (2, 3)),
}

# Synthetic weights: a Kronecker sequence with TERMS branches in the layer's
# factor shapes, branch t scaled by DECAY**t, plus Gaussian noise carrying
# NOISE of the energy.  Unfolding spectra then decay, so the compression error
# depends on the kept ranks (pure Gaussian weights give ~0.92 for every config).
SPECTRUM = {"terms": 8, "decay": 0.7, "noise": 0.01}


@dataclass(frozen=True)
class Layer:
    name: str
    out_channels: int
    in_channels: int
    kernel: int
    hw: int  # output resolution; every conv runs at stride 1 with "same" padding

    @property
    def label(self) -> str:
        return f"{self.out_channels}x{self.in_channels}k{self.kernel}"

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)

    @property
    def padding(self) -> int:
        return self.kernel // 2

    @property
    def shapes(self) -> str:
        return CONFIGS[self.label][0]

    @property
    def ranks(self) -> tuple[int, ...]:
        return CONFIGS[self.label][1]


def resnet18_layers() -> list[Layer]:
    """The 19 convolutions after the stem: sixteen 3x3 and three 1x1 downsamples."""
    layers = []
    for stage, (width, hw) in enumerate(((64, 56), (128, 28), (256, 14), (512, 7)), 1):
        stage_in = width if stage == 1 else width // 2
        for block in range(2):
            block_in = stage_in if block == 0 else width
            prefix = f"layer{stage}.{block}"
            layers.append(Layer(f"{prefix}.conv1", width, block_in, 3, hw))
            layers.append(Layer(f"{prefix}.conv2", width, width, 3, hw))
            if block == 0 and stage > 1:
                layers.append(Layer(f"{prefix}.downsample", width, stage_in, 1, hw))
    return layers


LAYERS = resnet18_layers()
LABELS = tuple(dict.fromkeys(layer.label for layer in LAYERS))


def parse_rows(shapes: str) -> list[tuple[int, ...]]:
    return [tuple(int(d) for d in part.split("x")) for part in shapes.split(",")]


def synth_weight(layer: Layer, seed: int) -> np.ndarray:
    """Seeded weight with decaying unfolding spectra, scaled like He init."""
    rng = np.random.default_rng([seed, LAYERS.index(layer)])
    rows = parse_rows(layer.shapes)
    terms = SPECTRUM["terms"]
    # orthonormal branches per factor, so the level-0 singular values are
    # exactly DECAY**t before noise and the error barely depends on the seed
    stacks = [
        np.linalg.qr(rng.standard_normal((math.prod(row), terms)))[0].T.reshape((terms,) + row)
        for row in rows
    ]
    # the level-0 unfolding of the sum of branch Kronecker chains is one GEMM
    scales = SPECTRUM["decay"] ** np.arange(terms)
    tail = reduce(_kron_batched, stacks[1:])
    unfolding = (stacks[0].reshape(terms, -1) * scales[:, None]).T @ tail.reshape(terms, -1)
    n = len(rows[0])
    w = unfolding.reshape(rows[0] + tail.shape[1:])
    w = w.transpose([a for pair in zip(range(n), range(n, 2 * n)) for a in pair])
    w = w.reshape(layer.shape) / np.linalg.norm(unfolding)
    noise = rng.standard_normal(layer.shape)
    w = math.sqrt(1 - SPECTRUM["noise"]) * w + math.sqrt(SPECTRUM["noise"]) * (
        noise / np.linalg.norm(noise)
    )
    fan_in = layer.in_channels * layer.kernel**2
    return w * math.sqrt(2.0 / fan_in * w.size)


def synth_input(channels: int, hw: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1000, channels, hw])
    return rng.standard_normal((batch, channels, hw, hw))


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# ---- independent oracles -------------------------------------------------


def _read_blob(path, magic: bytes) -> tuple[dict, np.ndarray]:
    data = open(path, "rb").read()
    if data[:4] != magic or data[4] != 1:
        raise ValueError(f"{path}: not a version-1 {magic!r} file")
    (n,) = struct.unpack("<I", data[5:9])
    return json.loads(data[9 : 9 + n]), np.frombuffer(data[9 + n :], dtype="<f8")


def read_skt(path) -> np.ndarray:
    header, values = _read_blob(path, b"SKTN")
    return values.reshape(header["shape"])


def read_sks(path) -> tuple[list[tuple[int, ...]], tuple[int, ...], list[np.ndarray]]:
    """(factor shape rows, ranks, branch-leading factors) of a ``.sks`` file."""
    header, values = _read_blob(path, b"SKSQ")
    rows = [tuple(r) for r in header["factor_shapes"]]
    ranks = tuple(header["ranks"])
    factors, offset = [], 0
    for k, row in enumerate(rows):
        branches = math.prod(ranks[: min(k, len(rows) - 2) + 1])
        size = branches * math.prod(row)
        factors.append(values[offset : offset + size].reshape((branches,) + row))
        offset += size
    if offset != values.size:
        raise ValueError(f"{path}: payload has {values.size} values, expected {offset}")
    return rows, ranks, factors


def _kron_batched(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Kronecker products of matching leading-axis slices: ``out[b] = kron(head[b], tail[b])``."""
    n = head.ndim - 1
    out = np.einsum(
        head, [0, *range(1, 2 * n, 2)], tail, [0, *range(2, 2 * n + 1, 2)],
        list(range(2 * n + 1)),
    )
    shape = tuple(h * t for h, t in zip(head.shape[1:], tail.shape[1:]))
    return out.reshape((head.shape[0],) + shape)


def compose(ranks, factors) -> np.ndarray:
    """Dense tensor of a branch-major sequence, composed last level first.

    Level ``k`` pairs each branch ``(r_0..r_k)`` of factor ``k`` with the
    composed tail of the same branch and sums over ``r_k``: a batched Kronecker
    product instead of the per-rank-tuple loop the package uses.
    """
    tail = factors[-1]
    for k in range(len(factors) - 2, -1, -1):
        kron = _kron_batched(factors[k], tail)
        tail = kron.reshape((-1, ranks[k]) + kron.shape[1:]).sum(axis=1)
    return tail[0]


def conv_gemm(x: np.ndarray, w: np.ndarray, padding: int) -> np.ndarray:
    """Dense stride-1 convolution lowered to one GEMM (im2col)."""
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = sliding_window_view(xp, w.shape[2:], axis=(2, 3))  # b, c, oh, ow, kh, kw
    return np.tensordot(windows, w, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)


def configs(shape, seq_len: int, max_rank: int):
    """Every (rows, ranks) the planner may choose from: ordered per-axis
    factorizations crossed with rank tuples up to ``max_rank`` and the rank
    ceilings of the unfoldings."""

    def factorizations(n, s):
        if s == 1:
            return [(n,)]
        return [(d, *rest) for d in range(1, n + 1) if n % d == 0
                for rest in factorizations(n // d, s - 1)]

    for combo in itertools.product(*(factorizations(d, seq_len) for d in shape)):
        rows = list(zip(*combo))
        caps = [
            min(max_rank, math.prod(rows[k]),
                math.prod(math.prod(row[n] for row in rows[k + 1 :]) for n in range(len(shape))))
            for k in range(seq_len - 1)
        ]
        for ranks in itertools.product(*(range(1, c + 1) for c in caps)):
            yield rows, ranks


def ratios(rows, ranks) -> tuple[float, float]:
    """(compression ratio, FLOP ratio) of a 4-axis config, from first principles:
    stored elements per branch-major layout, and MACs per output position of
    the staged evaluation (last factor first)."""
    s = len(rows)
    dense = math.prod(math.prod(row[n] for row in rows) for n in range(4))
    branches = [math.prod(ranks[: min(k, s - 2) + 1]) for k in range(s)]
    stored = sum(b * math.prod(row) for b, row in zip(branches, rows))
    macs = 0
    for k in range(s):
        f_out = math.prod(row[0] for row in rows[k:])
        c_groups = math.prod(row[1] for row in rows[:k])
        macs += f_out * branches[k] * c_groups * math.prod(rows[k][1:])
    return dense / stored, dense / macs

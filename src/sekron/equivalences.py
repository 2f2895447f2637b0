"""Embeddings of CP, Tucker, TT and TR factorizations into Kronecker
sequences.

Every ``from_*`` conversion returns a :class:`KroneckerSequence` whose
reconstruction equals the format's own scalar-formula reconstruction.  The
embeddings trade parameters for uniformity: factor slices that a format
shares across rank indices are stored replicated, and structural ones/zeros
are stored densely.

Each format holds its arrays in a tuple; any iterable of arrays is read
into one, and a container that is not iterable raises :class:`ShapeError`.
"""

import math
from dataclasses import dataclass

import numpy as np

from sekron.decompose import KroneckerSequence
from sekron.errors import RankError, ShapeError
from sekron.tensor_core import FactorShapeMatrix, _tuple, as_tensor


@dataclass(frozen=True)
class CpFactors:
    """CP format: ``W[i_1..i_N] = sum_r  m_1[r, i_1] * ... * m_N[r, i_N]``."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(map(as_tensor, _tuple(self.matrices, "CP factor matrices", "arrays")))
        object.__setattr__(self, "matrices", mats)
        if not mats:
            raise ShapeError("CP needs at least one factor matrix")
        if any(m.ndim != 2 for m in mats):
            raise ShapeError("CP factor matrices must be 2-D (rank x dim)")
        ranks = {m.shape[0] for m in mats}
        if len(ranks) != 1:
            raise RankError(f"inconsistent CP ranks across matrices: {sorted(ranks)}")

    @property
    def rank(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self.matrices)


@dataclass(frozen=True)
class TuckerFactors:
    """Tucker format: core contracted with one matrix per axis."""

    core: np.ndarray
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        core = as_tensor(self.core)
        mats = tuple(map(as_tensor, _tuple(self.matrices, "Tucker factor matrices", "arrays")))
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "matrices", mats)
        if core.ndim != len(mats):
            raise ShapeError(
                f"core has {core.ndim} axes but {len(mats)} factor matrices given"
            )
        for n, m in enumerate(mats):
            if m.ndim != 2:
                raise ShapeError("Tucker factor matrices must be 2-D (dim x rank)")
            if m.shape[1] != core.shape[n]:
                raise RankError(
                    f"matrix {n} has rank {m.shape[1]}, core axis {n} is {core.shape[n]}"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.shape[0] for m in self.matrices)


@dataclass(frozen=True)
class TrCores:
    """Tensor-ring format: cores ``(w_n, R_n, R_{n+1})`` with ``R_{N+1} = R_1``.

    Tensor-train is the special case with boundary ranks equal to one.
    """

    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        cores = tuple(map(as_tensor, _tuple(self.cores, "ring cores", "arrays")))
        object.__setattr__(self, "cores", cores)
        if not cores:
            raise ShapeError("ring needs at least one core")
        if any(c.ndim != 3 for c in cores):
            raise ShapeError("ring cores must be 3-D (dim x rank x rank)")
        for n in range(len(cores)):
            right = cores[n].shape[2]
            left_next = cores[(n + 1) % len(cores)].shape[1]
            if right != left_next:
                raise RankError(
                    f"core {n} right rank {right} != core {(n + 1) % len(cores)} "
                    f"left rank {left_next} (ring closure)"
                )

    @property
    def ring_ranks(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.cores)


def _one_hot_row(n_axes: int, axis: int, dim: int) -> tuple[int, ...]:
    return tuple(dim if n == axis else 1 for n in range(n_axes))


def from_cp(f: CpFactors) -> KroneckerSequence:
    """Embed CP factors: one Kronecker factor per axis, CP rank at the first
    level and rank one everywhere after."""
    n = len(f.matrices)
    dims = f.dims
    rows = tuple(_one_hot_row(n, k, dims[k]) for k in range(n))
    shapes = FactorShapeMatrix(rows)
    if n == 1:
        # the rank sum collapses into the single factor
        merged = f.matrices[0].sum(axis=0)
        return KroneckerSequence(shapes=shapes, ranks=(), factors=[merged[None]])
    ranks = (f.rank,) + (1,) * (n - 2)
    factors = [f.matrices[k].reshape((f.rank,) + rows[k]) for k in range(n)]
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def from_tucker(f: TuckerFactors) -> KroneckerSequence:
    """Embed Tucker factors: one Kronecker factor per axis plus a final
    all-singleton factor absorbing the core."""
    n = len(f.matrices)
    dims = f.dims
    core_ranks = f.core.shape
    rows = tuple(_one_hot_row(n, k, dims[k]) for k in range(n)) + ((1,) * n,)
    shapes = FactorShapeMatrix(rows)
    factors = []
    for k in range(n):
        base = f.matrices[k].T.reshape((core_ranks[k],) + rows[k])
        prefix = math.prod(core_ranks[:k])
        factors.append(np.tile(base, (prefix,) + (1,) * n))
    factors.append(f.core.reshape((f.core.size,) + (1,) * n))
    return KroneckerSequence(shapes=shapes, ranks=core_ranks, factors=factors)


def from_tr(f: TrCores) -> KroneckerSequence:
    """Embed ring cores: an all-ones factor carrying the closing rank index,
    then one Kronecker factor per axis."""
    n = len(f.cores)
    dims = f.dims
    ranks = f.ring_ranks
    rows = ((1,) * n,) + tuple(_one_hot_row(n, k, dims[k]) for k in range(n))
    shapes = FactorShapeMatrix(rows)
    factors = [np.ones((ranks[0],) + (1,) * n)]
    if n == 1:
        # single core closes on itself: take the rank diagonal
        diag = np.einsum("irr->ri", f.cores[0])
        factors.append(np.ascontiguousarray(diag).reshape((ranks[0],) + rows[1]))
        return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)
    for k in range(1, n):
        # slice for branch (.., r_prev, r_k) is cores[k-1][:, r_prev, r_k]
        base = f.cores[k - 1].transpose(1, 2, 0)
        prefix = math.prod(ranks[: k - 1])
        block = base.reshape((ranks[k - 1] * ranks[k],) + rows[k])
        factors.append(np.tile(block, (prefix,) + (1,) * n))
    # last factor depends on the first and last rank digits (ring closure)
    last = f.cores[n - 1].transpose(2, 1, 0)  # (R_1, R_N, w_N)
    spread = np.broadcast_to(
        last.reshape((ranks[0],) + (1,) * (n - 2) + last.shape[1:]),
        tuple(ranks) + (dims[n - 1],),
    )
    factors.append(
        np.ascontiguousarray(spread).reshape((math.prod(ranks),) + rows[n])
    )
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def _check_tt_boundary(f: TrCores) -> None:
    if f.cores[0].shape[1] != 1 or f.cores[-1].shape[2] != 1:
        raise RankError(
            "tensor-train cores must have boundary ranks 1, got "
            f"{f.cores[0].shape[1]} and {f.cores[-1].shape[2]}"
        )


def from_tt(f: TrCores) -> KroneckerSequence:
    """Tensor-train embedding: a ring whose boundary ranks are one."""
    _check_tt_boundary(f)
    return from_tr(f)

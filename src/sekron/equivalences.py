"""Embeddings of CP, Tucker, TT and TR factorizations into Kronecker
sequences.

Every ``from_*`` conversion returns a :class:`KroneckerSequence` whose
reconstruction equals the format's own scalar-formula reconstruction.  The
embeddings trade parameters for uniformity: factor slices that a format
shares across rank indices are stored replicated, and structural ones/zeros
are stored densely.

Factor ``k`` of a sequence keeps one slice per branch ``(r_0, ..., r_k)``
(see :mod:`sekron.tensor_core`), and each format's slice depends on only
some of those rank digits:

* CP, ranks ``(R, 1, ..., 1)``: every factor on ``r_0``, the CP rank, so
  each has ``R`` branches and is a plain reshape of its matrix, the channel
  axis (axis 1) last; a single axis sums its matrix over the rank instead;
* Tucker, ranks the core's shape: factor ``k < N`` on ``r_k``, a column of
  matrix ``k``, and the last, all-singleton factor on every digit, one core
  entry per branch, a plain reshape of the core;
* TR, ranks the ring ranks ``(R_0, ..., R_{N-1})``: factor 0, all ones, on
  ``r_0``; factor ``k`` in ``1 .. N-1`` on ``(r_{k-1}, r_k)``, the slice
  ``cores[k-1][:, r_{k-1}, r_k]``; and the last factor, which closes the
  ring, on ``(r_0, r_{N-1})``, the slice ``cores[N-1][:, r_{N-1}, r_0]``;
  a single core takes its rank diagonal instead;
* TT, a ring whose boundary ranks are one, as TR.

:func:`_branched` is the one place a factor is copied across the digits its
slices do not depend on; it takes those digits as one argument.

Each format holds its arrays in a tuple; any iterable of arrays is read
into one, and a container that is not iterable raises :class:`ShapeError`.
"""

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
            raise ShapeError(f"core has {core.ndim} axes but {len(mats)} factor matrices given")
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


def _axis_rows(dims) -> tuple[tuple[int, ...], ...]:
    # row k holds dims[k] on axis k and 1 on every other axis
    return tuple(tuple(d if n == k else 1 for n in range(len(dims))) for k, d in enumerate(dims))


def _branched(slices: np.ndarray, ranks, digits) -> np.ndarray:
    """The factor of the branch tree with these ``ranks`` whose slice for
    branch ``(r_0, ..., r_k)`` is ``slices[r_d for d in digits]``: shape
    ``(prod(ranks), *row)``, where ``slices`` has shape ``(*(ranks[d] for d
    in digits), *row)`` and ``digits`` ascend.  The one place a factor is
    copied across the rank digits its slices do not depend on."""
    row = slices.shape[len(digits) :]
    native = tuple(r if j in digits else 1 for j, r in enumerate(ranks))
    spread = np.broadcast_to(slices.reshape(native + row), tuple(ranks) + row)
    return np.ascontiguousarray(spread).reshape((-1,) + row)


def from_cp(f: CpFactors) -> KroneckerSequence:
    """Embed CP factors: one Kronecker factor per axis, CP rank at the first
    level and rank one everywhere after.

    The factors list the axes in order, except that axis 1, a weight's
    channel axis, comes last: a 4-D ``(F, C, Kh, Kw)`` weight becomes the
    factors F, Kh, Kw, C.  The conv, which runs such a sequence last factor
    first, then sums the input channels into the ``R`` branches before any
    spatial tap, instead of running the taps on every channel of every
    branch.
    """
    n = len(f.matrices)
    # a single axis stays alone
    axes = (0, *range(2, n), 1)[:n]
    rows = [_axis_rows(f.dims)[k] for k in axes]
    shapes = FactorShapeMatrix(rows)
    if n == 1:
        # the rank sum collapses into the single factor
        return KroneckerSequence(shapes=shapes, ranks=(), factors=[f.matrices[0].sum(axis=0)[None]])
    ranks = (f.rank,) + (1,) * (n - 2)
    factors = [f.matrices[k].reshape((f.rank,) + row) for k, row in zip(axes, rows)]
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def from_tucker(f: TuckerFactors) -> KroneckerSequence:
    """Embed Tucker factors: one Kronecker factor per axis plus a final
    all-singleton factor absorbing the core."""
    n = len(f.matrices)
    rows = _axis_rows(f.dims)
    ranks = f.core.shape
    shapes = FactorShapeMatrix(rows + ((1,) * n,))
    factors = [_branched(m.T.reshape((ranks[k],) + rows[k]), ranks[: k + 1], (k,))
               for k, m in enumerate(f.matrices)]
    factors.append(f.core.reshape((f.core.size,) + (1,) * n))
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def from_tr(f: TrCores) -> KroneckerSequence:
    """Embed ring cores: an all-ones factor carrying the closing rank index,
    then one Kronecker factor per axis."""
    n = len(f.cores)
    rows = _axis_rows(f.dims)
    ranks = f.ring_ranks
    shapes = FactorShapeMatrix(((1,) * n,) + rows)
    factors = [np.ones((ranks[0],) + (1,) * n)]
    if n == 1:
        # single core closes on itself: take the rank diagonal
        factors.append(np.einsum("irr->ri", f.cores[0]).reshape((ranks[0],) + rows[0]))
        return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)
    for k in range(1, n):
        slices = f.cores[k - 1].transpose(1, 2, 0).reshape(ranks[k - 1 : k + 1] + rows[k - 1])
        factors.append(_branched(slices, ranks[: k + 1], (k - 1, k)))
    # the ring closes on the first and the last rank digit
    slices = f.cores[n - 1].transpose(2, 1, 0).reshape((ranks[0], ranks[n - 1]) + rows[n - 1])
    factors.append(_branched(slices, ranks, (0, n - 1)))
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def from_tt(f: TrCores) -> KroneckerSequence:
    """Tensor-train embedding: a ring whose boundary ranks are one."""
    if f.cores[0].shape[1] != 1 or f.cores[-1].shape[2] != 1:
        got = f"{f.cores[0].shape[1]} and {f.cores[-1].shape[2]}"
        raise RankError(f"tensor-train cores must have boundary ranks 1, got {got}")
    return from_tr(f)

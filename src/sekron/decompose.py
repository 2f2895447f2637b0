"""Recursive Kronecker-sequence decomposition and its inverse.

The decomposition repeatedly rearranges the working tensor so that Kronecker
structure becomes low-rank matrix structure (one ``(branch, block, element)``
unfolding per level), truncates its SVD, and carries the sigma-scaled right
factors into the next level.  At full ranks the procedure is exact.
:func:`reconstruct` runs the same levels backwards: per branch it multiplies
the kept left vectors by the carried blocks and folds the unfolding back.

Each level's truncation is the nearest-Kronecker-product step of Van Loan &
Pitsianis (1993) applied per branch.  Its discarded tail (the sum of squared
singular values past the kept rank) is recorded on the returned sequence as
``level_tails``, and the squared reconstruction error *equals* the sum of
all tails over all levels and branches.  Within one branch, a level's error
is its discarded tail plus, for each kept left vector ``u_r``, ``u_r``
Kronecker the error that later levels make in ``u_r``'s carried block.  The
left vectors are orthonormal and the tail lies in their orthogonal
complement, so these terms are mutually orthogonal and their squared norms
add; by induction over levels the squared error is the sum of all tails.

Each level passes the stack of all its branch unfoldings, branch axis
leading, to one :func:`sekron.linalg.truncated_svd` call, so a level is the
mirror of a :func:`reconstruct` level.  A level kept below its full rank
takes its left vectors from the eigenvectors of each unfolding's smaller
Gram matrix, which never builds the discarded triplets; the price is a
squared condition number, so singular values below about ``1e-8 * sigma_1``
are lost to rounding.  Its tails are measured as residuals of the kept
factors, so the error identity above holds to rounding either way.  A level
kept at full rank runs the full SVD and records tails of exactly ``0.0``.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from sekron.errors import RankError, ShapeError
from sekron.linalg import truncated_svd
from sekron.tensor_core import (
    FactorShapeMatrix,
    _as_int,
    as_tensor,
    fold_blocks,
    unfold_blocks,
)


def _branch_sizes(ranks: tuple[int, ...]) -> tuple[int, ...]:
    # factor k keeps one slice per retained rank tuple (r_0..r_k); the last
    # factor shares the branch count of the one before it
    s = len(ranks) + 1
    return tuple(math.prod(ranks[: min(k, s - 2) + 1]) for k in range(s))


def _branch_total(branch_sizes, per_branch) -> int:
    # sum_k branch_sizes[k] * per_branch[k]: a per-slice count of each factor
    # totalled over all of that factor's branches
    return sum(map(operator.mul, branch_sizes, per_branch))


def _factor_volumes(shapes: FactorShapeMatrix) -> tuple[int, ...]:
    return tuple(shapes.factor_volume(k) for k in range(shapes.num_factors))


def _validate_ranks(shapes: FactorShapeMatrix, ranks) -> tuple[int, ...]:
    ranks = tuple(_as_int(r, "rank", RankError) for r in ranks)
    if len(ranks) != shapes.num_factors - 1:
        raise RankError(
            f"need {shapes.num_factors - 1} ranks for {shapes.num_factors} factors, "
            f"got {len(ranks)}"
        )
    if any(r < 1 for r in ranks):
        raise RankError("ranks must be >= 1")
    return ranks


def stored_param_count(shapes: FactorShapeMatrix, ranks) -> int:
    """Elements stored by a sequence with these shapes and ranks:
    ``sum_k branch_k * volume_k`` over the factors."""
    ranks = _validate_ranks(shapes, ranks)
    return _branch_total(_branch_sizes(ranks), _factor_volumes(shapes))


@dataclass
class KroneckerSequence:
    """Factors of a Kronecker-sequence representation.

    ``factors[k]`` has shape ``(branch_sizes[k], *shapes.rows[k])``; the
    branch axis flattens the retained rank tuple ``(r_0, ..., r_k)``
    row-major (``branch = previous_branch * ranks[k] + r_k``).

    ``level_tails[k][b]`` is the squared singular-value tail that level ``k``
    discarded on branch ``b``; it is ``None`` unless the sequence came from
    :func:`sekron_decompose`.
    """

    shapes: FactorShapeMatrix
    ranks: tuple[int, ...]
    factors: list[np.ndarray] = field(repr=False)
    level_tails: list[list[float]] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.ranks = _validate_ranks(self.shapes, self.ranks)
        if len(self.factors) != self.shapes.num_factors:
            raise ShapeError(
                f"expected {self.shapes.num_factors} factors, got {len(self.factors)}"
            )
        self.factors = [as_tensor(f) for f in self.factors]
        for k, (factor, rho) in enumerate(zip(self.factors, self.branch_sizes)):
            want = (rho,) + self.shapes.rows[k]
            if factor.shape != want:
                raise ShapeError(
                    f"factor {k} has shape {factor.shape}, expected {want}"
                )

    @property
    def branch_sizes(self) -> tuple[int, ...]:
        return _branch_sizes(self.ranks)

    @property
    def target_shape(self) -> tuple[int, ...]:
        return self.shapes.target_shape

    @property
    def param_count(self) -> int:
        """Total stored factor elements."""
        return sum(f.size for f in self.factors)


def random_sequence(shapes: FactorShapeMatrix, ranks, rng=None) -> KroneckerSequence:
    """Standard-normal factors with the layout a decomposition would produce.

    Handy for synthetic weights in equivalence tests and latency probes; the
    ranks are not required to respect the decomposition rank ceilings.
    """
    ranks = _validate_ranks(shapes, ranks)
    rng = np.random.default_rng(rng)
    factors = [
        rng.standard_normal((rho,) + shapes.rows[k])
        for k, rho in enumerate(_branch_sizes(ranks))
    ]
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def sekron_decompose(w, shapes: FactorShapeMatrix, ranks) -> KroneckerSequence:
    """Decompose ``w`` into a Kronecker sequence with the given factor shapes.

    Level ``k`` unfolds every branch of the working tensor into blocks of
    shape ``shapes.block_shape(k)``, keeps the top ``ranks[k]`` singular
    triplets per branch in one stacked truncated SVD (left vectors become
    factor ``k``, sigma-scaled right vectors the next working tensor), and
    the final working tensor becomes the last factor.  Each level's
    truncation is the Frobenius-optimal low-rank approximation of its
    unfolding.  The discarded tails are kept as ``level_tails``; their sum is
    the exact squared reconstruction error.
    """
    w = as_tensor(w)
    shapes.validate_target(w.shape)
    ranks = _validate_ranks(shapes, ranks)
    work = w[None]  # leading branch axis, initially a single branch
    factors, level_tails = [], []
    for k, r in enumerate(ranks):
        cap = shapes.full_rank(k)
        if r > cap:
            raise RankError(f"rank {r} exceeds full rank {cap} of the level-{k} unfolding")
        block = shapes.block_shape(k)
        u, scaled_v, tails = truncated_svd(unfold_blocks(work, block), r)
        factors.append(np.swapaxes(u, 1, 2).reshape((-1,) + shapes.rows[k]))
        work = np.swapaxes(scaled_v, 1, 2).reshape((-1,) + block)
        level_tails.append(tails.tolist())
    factors.append(work)
    return KroneckerSequence(
        shapes=shapes, ranks=ranks, factors=factors, level_tails=level_tails
    )


def reconstruct(seq: KroneckerSequence) -> np.ndarray:
    """Compose the factors back into a dense tensor: the inverse of the
    decomposition's level loop.

    Runs the levels last to first.  At level ``k`` each branch's unfolding is
    the product of its factor-``k`` slices (as columns) and the carried
    blocks of the level below (as rows), and ``fold_blocks`` turns the
    unfoldings back into the working tensor one level up.  A single factor
    has no level and is returned as a copy.
    """
    shapes, ranks, factors = seq.shapes, seq.ranks, seq.factors
    work = factors[-1]
    for k in reversed(range(shapes.num_factors - 1)):
        r = ranks[k]
        n_branches = factors[k].shape[0] // r
        u = factors[k].reshape(n_branches, r, -1).transpose(0, 2, 1)
        v = work.reshape(n_branches, r, -1)
        work = fold_blocks(u @ v, shapes.rows[k], shapes.block_shape(k))
    return work[0].copy() if shapes.num_factors == 1 else work[0]

"""Recursive Kronecker-sequence decomposition, reconstruction, and the
per-level truncation error bound.

The decomposition repeatedly rearranges the working tensor so that Kronecker
structure becomes low-rank matrix structure (one ``(branch, block, element)``
unfolding per level), truncates its SVD, and carries the sigma-scaled right
factors into the next level.  At full ranks the procedure is exact.

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
:func:`error_bound` is a looser bound on the same error that weights each
level's tails by the factor volumes of the levels before it.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from sekron.errors import RankError, ShapeError
from sekron.linalg import svd, tail_energy, truncate
from sekron.tensor_core import (
    FactorShapeMatrix,
    as_tensor,
    kron_sequence,
    unfold_blocks,
)


def _branch_sizes(shapes: FactorShapeMatrix, ranks: tuple[int, ...]) -> tuple[int, ...]:
    # factor k keeps one slice per retained rank tuple (r_0..r_k); the last
    # factor shares the branch count of the one before it
    s = shapes.num_factors
    return tuple(math.prod(ranks[: min(k, s - 2) + 1]) for k in range(s))


def _validate_ranks(shapes: FactorShapeMatrix, ranks) -> tuple[int, ...]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != shapes.num_factors - 1:
        raise RankError(
            f"need {shapes.num_factors - 1} ranks for {shapes.num_factors} factors, "
            f"got {len(ranks)}"
        )
    if any(r < 1 for r in ranks):
        raise RankError("ranks must be >= 1")
    return ranks


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
        return _branch_sizes(self.shapes, self.ranks)

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
        for k, rho in enumerate(_branch_sizes(shapes, ranks))
    ]
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def _decompose_levels(w, shapes, ranks):
    """Shared engine: returns (factors, per-level lists of branch tail energies)."""
    work = w[None]  # leading branch axis, initially a single branch
    factors = []
    level_tails = []
    for k in range(shapes.num_factors - 1):
        r_hat = ranks[k]
        cap = shapes.full_rank(k)
        if r_hat > cap:
            raise RankError(
                f"rank {r_hat} exceeds full rank {cap} of the level-{k} unfolding"
            )
        row = shapes.rows[k]
        block = shapes.block_shape(k)
        n_branches = work.shape[0]
        mats = unfold_blocks(work, block, n_branches)
        head = np.empty((n_branches * r_hat,) + row)
        carried = np.empty((n_branches * r_hat,) + block)
        tails = []
        for b in range(n_branches):
            res = svd(mats[b])
            u_r, scaled_v_r = truncate(res, r_hat)
            head[b * r_hat : (b + 1) * r_hat] = u_r.T.reshape((r_hat,) + row)
            carried[b * r_hat : (b + 1) * r_hat] = scaled_v_r.T.reshape(
                (r_hat,) + block
            )
            tails.append(tail_energy(res, r_hat))
        factors.append(head)
        level_tails.append(tails)
        work = carried
    factors.append(work)
    return factors, level_tails


def sekron_decompose(w, shapes: FactorShapeMatrix, ranks) -> KroneckerSequence:
    """Decompose ``w`` into a Kronecker sequence with the given factor shapes.

    Level ``k`` unfolds every branch of the working tensor into blocks of
    shape ``shapes.block_shape(k)``, keeps the top ``ranks[k]`` singular
    triplets per branch (left vectors become factor ``k``, sigma-scaled right
    vectors the next working tensor), and the final working tensor becomes
    the last factor.  Each level's truncation is the Frobenius-optimal
    low-rank approximation of its unfolding.  The discarded tails are kept
    as ``level_tails``; their sum is the exact squared reconstruction error.
    """
    w = as_tensor(w)
    shapes.validate_target(w.shape)
    ranks = _validate_ranks(shapes, ranks)
    factors, level_tails = _decompose_levels(w, shapes, ranks)
    return KroneckerSequence(
        shapes=shapes, ranks=ranks, factors=factors, level_tails=level_tails
    )


def reconstruct(seq: KroneckerSequence) -> np.ndarray:
    """Compose the factors back into a dense tensor.

    Sums, over every retained rank tuple ``(r_0, ..., r_{S-2})``, the
    Kronecker product chain of the branch-selected factor slices.
    """
    shapes, ranks = seq.shapes, seq.ranks
    out = np.zeros(shapes.target_shape)
    for tup in itertools.product(*(range(r) for r in ranks)):
        slices = []
        branch = 0
        for k in range(shapes.num_factors):
            if k < len(ranks):
                branch = branch * ranks[k] + tup[k]
            slices.append(seq.factors[k][branch])
        out += kron_sequence(slices)
    return out


def reconstruction_error(w, seq: KroneckerSequence) -> float:
    """Squared Frobenius norm of ``w - reconstruct(seq)``."""
    w = as_tensor(w)
    if w.shape != seq.target_shape:
        raise ShapeError(
            f"tensor shape {w.shape} != sequence target {seq.target_shape}"
        )
    diff = w - reconstruct(seq)
    return float(np.sum(diff * diff))


def tail_bound(shapes: FactorShapeMatrix, level_tails) -> float:
    """Volume-weighted bound from the per-level tails of a decomposition.

    Sums each level's tails over its branches, weighting level ``k`` by the
    product of the factor volumes of the levels before it.
    """
    bound = 0.0
    weight = 1.0
    for k, tails in enumerate(level_tails):
        bound += weight * sum(tails)
        weight *= shapes.factor_volume(k)
    return bound


def error_bound(w, shapes: FactorShapeMatrix, ranks) -> float:
    """Upper bound on the squared reconstruction error of the decomposition.

    :func:`tail_bound` of the tails that ``sekron_decompose(w, shapes,
    ranks)`` discards.  The exact error is the unweighted sum of the same
    tails (see the module docstring), so this bound is tight for two factors
    (a single truncation, weight 1) and looser for more; it is never below
    the measured error.  Whether it is the bound the SeKron paper states is
    unverified.
    """
    return tail_bound(shapes, sekron_decompose(w, shapes, ranks).level_tails)

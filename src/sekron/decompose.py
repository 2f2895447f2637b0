"""Recursive Kronecker-sequence decomposition and its inverse.

The decomposition copies the tensor once into digit-major order (each axis
cut into one mixed-radix digit per factor, the digits then listed factor by
factor).  In that order every level is a reshape: level ``k`` reads each
branch of the working array as a matrix with one row per factor-``k`` digit
tuple and one column per tuple of later digits, so Kronecker structure
becomes low-rank matrix structure.  It truncates that matrix's SVD, and the
sigma-scaled right factors, already in digit-major order, are the next
level's working array.  At full ranks the procedure is exact to rounding.
:func:`reconstruct` runs the same levels backwards: per branch it multiplies
the kept left vectors by the carried rows, and one inverse transpose at the
end restores the tensor's own axis order.

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

Each level passes the stack of all its branch matrices, branch axis
leading, to one :func:`sekron.linalg.truncated_svd` call, so a level is the
mirror of a :func:`reconstruct` level.  Every level, at any rank up to its
full rank, takes its left vectors from the eigenvectors of each matrix's
smaller Gram matrix, which never builds the discarded triplets; the price
is a squared condition number, so singular values below about ``1e-8 *
sigma_1`` are lost to rounding.  Its tails are measured as residuals of
the kept factors, so the error identity above holds to rounding at every
rank; at full rank the tails are that rounding, not zero.
"""

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from sekron.errors import RankError, ShapeError
from sekron.linalg import truncated_svd
from sekron.tensor_core import FactorShapeMatrix, _dims, _instance, _tuple, as_tensor


def _branch_sizes(ranks: tuple[int, ...]) -> tuple[int, ...]:
    # the branch count of each factor, as the sekron.tensor_core docstring
    # defines it: the prefix products of (*ranks, 1), in O(S)
    return tuple(itertools.accumulate((*ranks, 1), operator.mul))


def _branch_total(branch_sizes, per_branch) -> int:
    # sum_k branch_sizes[k] * per_branch[k]: a per-slice count of each factor
    # totalled over all of that factor's branches
    return sum(map(operator.mul, branch_sizes, per_branch))


def _digit_major(shapes: FactorShapeMatrix):
    """``(split, order)`` taking a tensor of the target shape to digit-major
    order: ``t.reshape(split).transpose(order)``.

    ``split`` cuts axis ``n`` into its mixed-radix digits ``(rows[0][n], ...,
    rows[S-1][n])``, most significant first; ``order`` lists the digits
    factor by factor, so the result has shape ``rows[0] + ... + rows[S-1]``.
    """
    s = shapes.num_factors
    split = tuple(row[n] for n in range(shapes.num_axes) for row in shapes.rows)
    order = tuple(n * s + k for k in range(s) for n in range(shapes.num_axes))
    return split, order


def _check_shapes(shapes) -> FactorShapeMatrix:
    """``shapes``, after the one check that factor shapes are a
    :class:`FactorShapeMatrix`: anything else, such as its string form,
    raises :class:`ShapeError`.  :func:`sekron_decompose`,
    :func:`_validate_ranks` (so :func:`stored_param_count` and
    :func:`sekron.planner.compression_ratio`), :class:`KroneckerSequence`
    and :func:`sekron.planner.flops_ratio` run it before they read the
    shapes."""
    return _instance(shapes, FactorShapeMatrix, "factor shapes")


def _validate_ranks(shapes: FactorShapeMatrix, ranks) -> tuple[int, ...]:
    """``ranks`` as one Python int >= 1 per level of ``shapes``, read by
    :func:`sekron.tensor_core._dims`; anything else raises :class:`RankError`,
    and ``shapes`` that fail :func:`_check_shapes` :class:`ShapeError`."""
    return _dims(ranks, len(_check_shapes(shapes).rows) - 1, "ranks", RankError)


def stored_param_count(shapes: FactorShapeMatrix, ranks) -> int:
    """Elements stored by a sequence with these shapes and ranks:
    ``sum_k branch_k * volume_k`` over the factors."""
    ranks = _validate_ranks(shapes, ranks)
    return _branch_total(_branch_sizes(ranks), shapes.volumes)


@dataclass(frozen=True, eq=False)
class KroneckerSequence:
    """Factors of a Kronecker-sequence representation, checked once, by
    the constructor, and frozen.

    ``factors[k]`` has shape ``(branch_sizes[k], *shapes.rows[k])``, its
    branch axis as the :mod:`sekron.tensor_core` docstring defines it.

    The constructor is the one check of a sequence.  It stores ``factors``
    as a tuple of float64 arrays (:func:`sekron.tensor_core.as_tensor`),
    ``factors`` that is not iterable raising :class:`ShapeError`
    (:func:`sekron.tensor_core._tuple`), and ``ranks`` as the tuple of
    Python ints :func:`_validate_ranks` reads, else :class:`RankError`;
    ``shapes`` that fail :func:`_check_shapes`, and a factor count or a
    factor shape other than the shapes and ranks give, raise
    :class:`ShapeError`.  No field can be assigned after, and no tuple
    changed, so :func:`reconstruct`, :func:`sekron.fileio.write_sequence`,
    :func:`sekron.conv.sekron_conv2d` and :func:`sekron.conv.conv_macs`
    read a sequence as it was checked; only the factor values stay
    writeable.  Sequences compare and hash by identity, never by their
    arrays (``eq=False``).

    ``level_tails[k][b]`` is the squared singular-value tail that level ``k``
    discarded on branch ``b``, measured as the residual of its kept factors,
    a tuple of tuples; it is ``None`` unless the sequence came from
    :func:`sekron_decompose`.
    """

    shapes: FactorShapeMatrix
    ranks: tuple[int, ...]
    factors: tuple[np.ndarray, ...] = field(repr=False)
    level_tails: tuple[tuple[float, ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        factors = tuple(map(as_tensor, _tuple(self.factors, "factors", "arrays")))
        rows = _check_shapes(self.shapes).rows
        ranks = _validate_ranks(self.shapes, self.ranks)
        if len(factors) != len(rows):
            raise ShapeError(f"expected {len(rows)} factors, got {len(factors)}")
        for k, (rho, row, factor) in enumerate(zip(_branch_sizes(ranks), rows, factors)):
            if factor.shape != (rho, *row):
                raise ShapeError(
                    f"factor {k} has shape {factor.shape}, expected an array of shape {(rho, *row)}"
                )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "ranks", ranks)
        if self.level_tails is not None:
            tails = _tuple(self.level_tails, "level tails", "sequences of floats")
            tails = tuple(_tuple(t, "level tails", "floats") for t in tails)
            object.__setattr__(self, "level_tails", tails)

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


def sekron_decompose(w, shapes: FactorShapeMatrix, ranks) -> KroneckerSequence:
    """Decompose ``w`` into a Kronecker sequence with the given factor shapes.

    ``w`` is copied once into digit-major order (see :func:`_digit_major`).
    Level ``k`` reads every branch of the working array as a ``(factor-k
    digits, later digits)`` matrix, a reshape, keeps the top ``ranks[k]``
    singular triplets per branch in one stacked truncated SVD (left vectors
    become factor ``k``, sigma-scaled right vectors the next working array),
    and the final working array becomes the last factor.  Every rank is
    checked against its level's full rank (:meth:`FactorShapeMatrix.max_ranks`)
    before the copy and any SVD; one above it raises :class:`RankError`.
    Each level's truncation is the Frobenius-optimal low-rank approximation
    of its unfolding.  The discarded tails, each the measured residual of
    its level's kept factors, are kept as ``level_tails``; their sum is the
    squared reconstruction error to rounding, at full rank too.
    """
    w = as_tensor(w)
    _check_shapes(shapes).validate_target(w.shape)
    ranks = _validate_ranks(shapes, ranks)
    for k, (r, cap) in enumerate(zip(ranks, shapes.max_ranks())):
        if r > cap:
            raise RankError(f"rank {r} exceeds full rank {cap} of the level-{k} unfolding")
    split, order = _digit_major(shapes)
    # leading branch axis, initially a single branch
    work = w.reshape(split).transpose(order).copy().reshape(1, -1)
    factors, level_tails = [], []
    for k, (r, volume) in enumerate(zip(ranks, shapes.volumes)):
        stack = work.reshape(work.shape[0], volume, -1)
        u, scaled_v, tails = truncated_svd(stack, r)
        factors.append(np.swapaxes(u, 1, 2).reshape((-1,) + shapes.rows[k]))
        work = np.swapaxes(scaled_v, 1, 2).reshape(work.shape[0] * r, -1)
        level_tails.append(tails.tolist())
    factors.append(work.reshape((-1,) + shapes.rows[-1]))
    return KroneckerSequence(
        shapes=shapes, ranks=ranks, factors=factors, level_tails=level_tails
    )


def reconstruct(seq: KroneckerSequence) -> np.ndarray:
    """Compose the factors back into a dense tensor: the inverse of the
    decomposition's level loop.

    Runs the levels last to first on digit-major arrays.  At level ``k``
    each branch's ``(factor-k digits, later digits)`` matrix is the product
    of its factor-``k`` slices (as columns) and the carried rows of the
    level below, and its flattening is that branch's slice of the working
    array one level up.  One inverse transpose of the last product then
    gives the dense tensor.  The result is always a new array, also for a
    single factor, which has no level.  Every size it reshapes by comes
    from the ranks and the shapes, none from a factor's own shape.  ``seq``
    that is no :class:`KroneckerSequence` raises :class:`ShapeError`.
    """
    ranks = _instance(seq, KroneckerSequence, "sequence").ranks
    shapes, factors = seq.shapes, seq.factors
    # level k has one branch per rank tuple of the levels before it
    prefix = (1, *_branch_sizes(ranks))
    work = factors[-1]
    for k in reversed(range(len(ranks))):
        u = factors[k].reshape(prefix[k], ranks[k], -1).transpose(0, 2, 1)
        work = u @ work.reshape(prefix[k], ranks[k], -1)
    split, order = _digit_major(shapes)
    digits = work.reshape([split[i] for i in order]).transpose(np.argsort(order))
    return digits.copy().reshape(shapes.target_shape)

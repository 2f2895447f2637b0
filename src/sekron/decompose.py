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
    :func:`sekron.planner.compression_ratio`), :func:`_check_sequence` and
    :func:`sekron.planner.flops_ratio` run it before they read the
    shapes."""
    return _instance(shapes, FactorShapeMatrix, "factor shapes")


def _validate_ranks(shapes: FactorShapeMatrix, ranks) -> tuple[int, ...]:
    """``ranks`` as one Python int >= 1 per level of ``shapes``, read by
    :func:`sekron.tensor_core._dims`; anything else raises :class:`RankError`,
    and ``shapes`` that fail :func:`_check_shapes` :class:`ShapeError`."""
    return _dims(ranks, len(_check_shapes(shapes).rows) - 1, "ranks", RankError)


def _check_sequence(seq: "KroneckerSequence") -> tuple[int, ...]:
    """The ranks of ``seq`` as a tuple of Python ints, after the one check
    of a sequence: ``seq`` is a :class:`KroneckerSequence` and ``seq.shapes``
    passes :func:`_check_shapes`, else :class:`ShapeError`; its ranks pass
    :func:`_validate_ranks`, else :class:`RankError`; and ``seq.factors``
    holds one array of shape ``(branch_sizes[k], *shapes.rows[k])`` per
    factor ``k``, else :class:`ShapeError`, also where it is no list at all.

    The constructor, :func:`reconstruct`, :func:`sekron.fileio.write_sequence`,
    :func:`sekron.conv.sekron_conv2d` and :func:`sekron.conv.conv_macs` run
    it, since a caller may change a sequence's fields after construction;
    the conv keys its memo on the ranks it returns.
    """
    rows = _check_shapes(_instance(seq, KroneckerSequence, "sequence").shapes).rows
    factors = seq.factors
    # _validate_ranks' check, called directly: the conv runs this on every call
    ranks = _dims(seq.ranks, len(rows) - 1, "ranks", RankError)
    extended, rho = (*ranks, 1), 1
    try:
        count = len(factors)
    except TypeError:
        raise ShapeError(
            f"factors must be a list of arrays, got {type(factors).__name__}"
        ) from None
    if count != len(rows):
        raise ShapeError(f"expected {len(rows)} factors, got {count}")
    # rho steps through the branch counts, the prefix products of (*ranks,
    # 1) that _branch_sizes returns: the conv runs this loop on every call,
    # and building that tuple and unpacking a zip per factor cost more than
    # the comparisons
    for k, factor in enumerate(factors):
        rho *= extended[k]
        if not isinstance(factor, np.ndarray) or factor.shape != (rho,) + rows[k]:
            got, want = getattr(factor, "shape", type(factor).__name__), (rho,) + rows[k]
            raise ShapeError(f"factor {k} has shape {got}, expected an array of shape {want}")
    return ranks


def stored_param_count(shapes: FactorShapeMatrix, ranks) -> int:
    """Elements stored by a sequence with these shapes and ranks:
    ``sum_k branch_k * volume_k`` over the factors."""
    ranks = _validate_ranks(shapes, ranks)
    return _branch_total(_branch_sizes(ranks), shapes.volumes)


@dataclass
class KroneckerSequence:
    """Factors of a Kronecker-sequence representation.

    ``factors[k]`` has shape ``(branch_sizes[k], *shapes.rows[k])``, its
    branch axis as the :mod:`sekron.tensor_core` docstring defines it.

    The constructor makes every factor a float64 array, ``factors`` that is
    not iterable raising :class:`ShapeError`
    (:func:`sekron.tensor_core._tuple`), and reads ``ranks`` as a tuple of
    Python ints.  The fields stay open to callers, so a sequence may change
    after construction; :func:`reconstruct`,
    :func:`sekron.fileio.write_sequence`, :func:`sekron.conv.sekron_conv2d`
    and :func:`sekron.conv.conv_macs` each check it again, through the
    constructor's own check (:func:`_check_sequence`), and raise
    :class:`RankError` or :class:`ShapeError` for a sequence it refuses.

    ``level_tails[k][b]`` is the squared singular-value tail that level ``k``
    discarded on branch ``b``, measured as the residual of its kept factors;
    it is ``None`` unless the sequence came from :func:`sekron_decompose`.
    """

    shapes: FactorShapeMatrix
    ranks: tuple[int, ...]
    factors: list[np.ndarray] = field(repr=False)
    level_tails: list[list[float]] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.factors = [as_tensor(f) for f in _tuple(self.factors, "factors", "arrays")]
        self.ranks = _check_sequence(self)

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
    single factor, which has no level.  Raises :class:`RankError` or
    :class:`ShapeError` for a sequence that fails :func:`_check_sequence`,
    say one whose ranks or factors were changed after construction.
    """
    ranks = _check_sequence(seq)
    shapes, factors = seq.shapes, seq.factors
    work = factors[-1]
    for k in reversed(range(shapes.num_factors - 1)):
        r = ranks[k]
        n_branches = factors[k].shape[0] // r
        u = factors[k].reshape(n_branches, r, -1).transpose(0, 2, 1)
        work = u @ work.reshape(n_branches, r, -1)
    split, order = _digit_major(shapes)
    digits = work.reshape([split[i] for i in order]).transpose(np.argsort(order))
    return digits.copy().reshape(shapes.target_shape)

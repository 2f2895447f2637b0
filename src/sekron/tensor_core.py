"""Dense N-way tensors and the factor shape matrix of a Kronecker sequence.

Conventions used throughout the package:

* tensors are ``float64`` numpy arrays, row-major (last axis fastest);
* a "branch" axis, when present, is always the leading axis;
* axis ``n`` of a composed tensor splits into the mixed-radix digits
  ``(rows[0][n], ..., rows[S-1][n])``, most significant first, one digit per
  factor; "digit-major" order lists those digits factor by factor, which
  turns Kronecker structure into matrix rank (see :mod:`sekron.decompose`);
* the branch count: a sequence of ``S`` factors with ranks ``(R_0, ...,
  R_{S-2})`` keeps one branch of factor ``k`` per rank tuple ``(r_0, ...,
  r_k)``, ``r_j < R_j``, flattened row-major (``branch = previous_branch *
  R_k + r_k``), and the last factor shares the count of the one before it;
  so factor ``k`` has ``R_0 * ... * R_k`` branches, the prefix products of
  ``(*ranks, 1)``.

Every integer argument the package reads, from a library caller, the CLI or
a file header, goes through one of two checks here, and a bad value raises
the error type its caller passes, never a raw ``TypeError``:

* :func:`_as_int` reads one int, refusing floats, strings and bools: the
  conv padding (:class:`ShapeError`), the rank
  :func:`sekron.linalg.truncated_svd` keeps (:class:`RankError`), and the
  planner's counts and trials (``ValueError``);
* :func:`_dims` reads a tuple of ints >= 1, each through :func:`_as_int`:
  the rows of a :class:`FactorShapeMatrix` and a target shape for it, a
  conv input shape, ``conv_macs``' input size and a plan request's target
  shape (:class:`ShapeError`); a sequence's ranks (:class:`RankError`,
  :func:`sekron.decompose._check_sequence`); and the ``shape`` of a
  ``.skt`` header and the ``S``, ``N`` and ``ranks`` of a ``.sks`` header
  (:class:`MalformedHeaderError`), whose reader also turns the
  :class:`ShapeError` of its ``factor_shapes`` rows into that type.

:func:`_tuple`, which :func:`_dims` calls, reads a container into a tuple
and refuses one that is not iterable; it also reads the rows of a
:class:`FactorShapeMatrix` and the arrays of each format in
:mod:`sekron.equivalences` (:class:`ShapeError`).

Every array argument goes through one conversion, :func:`as_tensor`: the
tensor to decompose or write, a conv input and weight, each factor of a
:class:`sekron.decompose.KroneckerSequence` and each array of a format in
:mod:`sekron.equivalences`.  It gives a C-contiguous float64 array, and
data numpy cannot read as float64 values (a string, a dict, ragged nested
lists, complex numbers), a scalar or an array with a zero-length axis
raises :class:`ShapeError`, never numpy's ``TypeError`` or ``ValueError``
or a ``ComplexWarning``.  The one array argument read in place, the stack
:func:`sekron.linalg.truncated_svd` truncates, goes through the same
mapping (:func:`_floats`) without the copy.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from sekron.errors import ShapeError


def _as_int(value, what: str, error=ShapeError) -> int:
    """``value`` as a Python int, read through ``operator.index``.

    A float or a string raises ``error`` instead of being truncated, and so
    does a bool, which would read as 0 or 1; numpy ints are accepted.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise error(f"{what} must be an integer, not a bool, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _tuple(values, what: str, items: str, error=ShapeError) -> tuple:
    """``tuple(values)``; a value that is not iterable raises ``error``,
    naming it ``what``, a sequence of ``items``."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{what} must be a sequence of {items}, got {values!r}") from None


def _dims(values, ndim: int | None, what: str, error=ShapeError) -> tuple[int, ...]:
    """``values`` as ``ndim`` Python ints >= 1, or at least one where ``ndim``
    is ``None``, each read through :func:`_as_int`.  A value that is not
    iterable (:func:`_tuple`), a float, a bool or a string among it, a value
    below 1 or the wrong count raises ``error``, its message naming the
    values ``what``: a plural, such as ``"ranks"``."""
    dims = _tuple(values, what, "integers", error)
    # the conv reads its ranks here on every call, so ints are taken as they
    # are, without a call per value, and neither a comprehension over this
    # function's names nor min() with a default, each slower, is used
    for v in dims:
        if type(v) is not int:
            each = itertools.repeat(f"each of the {what}")
            dims = tuple(map(_as_int, dims, each, itertools.repeat(error)))
            break
    if (not dims if ndim is None else len(dims) != ndim) or dims and min(dims) < 1:
        raise error(f"need {'1 or more' if ndim is None else ndim} {what}, each >= 1, got {dims}")
    return dims


def _floats(data, order=None) -> np.ndarray:
    """``data`` as a float64 array in ``order`` (``np.asarray``'s), with as
    many axes as it has; an array that is already one is returned as it is.
    Data numpy cannot read as float64 values, such as a string, a dict or
    ragged nested lists, raises :class:`ShapeError` instead of numpy's
    ``TypeError`` or ``ValueError``, and so does complex data, whose
    imaginary part a cast would drop with only a ``ComplexWarning``."""
    try:
        arr = np.asarray(data, order=order)
        if arr.dtype.kind == "c":
            raise ShapeError(f"cannot read {arr.dtype} as float64 values: complex data")
        return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"cannot read {type(data).__name__} as float64 values: {exc}") from None


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array with at least one axis;
    data that is not real numbers (:func:`_floats`), a scalar or a
    zero-length axis raises :class:`ShapeError`."""
    arr = _floats(data, "C")
    if arr.ndim == 0:
        raise ShapeError("tensors must have at least one axis")
    if arr.size == 0:
        raise ShapeError("tensors must not have zero-length axes")
    return arr


def _rank_caps(volumes) -> tuple[int, ...]:
    """Rank ceiling of each level ``k`` in ``0 .. S-2`` of a sequence whose
    factors have these ``volumes``: ``min(volume_k, prod_{j>k} volume_j)``,
    the smaller side of the level-``k`` unfolding, whose columns span the
    later factors.  One pass of suffix products, so O(S) for S factors."""
    # later[k] = prod_{j>k} volume_j, accumulated from the last factor back
    later = list(itertools.accumulate(reversed(volumes[1:]), operator.mul))[::-1]
    return tuple(map(min, volumes, later))


@dataclass(frozen=True)
class FactorShapeMatrix:
    """Per-factor, per-axis dimensions of a Kronecker sequence.

    ``rows[k]`` holds the shape of factor ``k``; the elementwise product of
    all rows recovers the shape of the composed tensor.

    ``rows`` may be any iterable of rows, each an iterable of ints >= 1,
    Python or numpy, such as a list or a 2-D numpy array; they are stored as
    a tuple of tuples of Python ints.  No row, a row with no value or a
    different length, a value that is not an int (a bool included) or below
    1, and ``rows`` or a row that is not iterable raise :class:`ShapeError`
    (:func:`_dims`).
    """

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def _of_ints(cls, rows: tuple[tuple[int, ...], ...]) -> "FactorShapeMatrix":
        """The matrix of ``rows`` without re-reading them: for a caller whose
        rows are already a tuple of equal-length tuples of Python ints >= 1,
        at least one of each, such as the planner's enumeration."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    def __post_init__(self):
        rows = _tuple(self.rows, "factor shapes", "rows")
        if not rows:
            raise ShapeError("factor shape matrix needs at least one row")
        n = len(_dims(rows[0], None, "factor dimensions"))
        object.__setattr__(self, "rows", tuple(_dims(row, n, "factor dimensions") for row in rows))

    @property
    def num_factors(self) -> int:
        return len(self.rows)

    @property
    def num_axes(self) -> int:
        return len(self.rows[0])

    @cached_property
    def target_shape(self) -> tuple[int, ...]:
        """Elementwise product of all rows: the shape this matrix composes to.

        Computed once per instance; the rows of a frozen matrix cannot change.
        """
        return tuple(math.prod(row[n] for row in self.rows) for n in range(self.num_axes))

    @property
    def volumes(self) -> tuple[int, ...]:
        """Number of elements of one slice of each factor, in factor order."""
        return tuple(map(math.prod, self.rows))

    def max_ranks(self) -> tuple[int, ...]:
        """Rank ceiling of each level ``k`` in ``0 .. S-2``, the smaller side
        of its unfolding, in one pass (:func:`_rank_caps`)."""
        return _rank_caps(self.volumes)

    def validate_target(self, shape) -> None:
        """Raise :class:`ShapeError` unless ``shape`` is :attr:`target_shape`,
        read through :func:`_dims`."""
        shape = _dims(shape, self.num_axes, "target dimensions")
        if self.target_shape != shape:
            raise ShapeError(
                f"per-axis factor products {self.target_shape} != target shape {shape}"
            )

    @classmethod
    def from_string(cls, text: str) -> "FactorShapeMatrix":
        """Parse ``"2x2x1x1,2x2x3x3"``: factors comma-separated, axes x-separated."""
        try:
            rows = tuple(
                tuple(int(d) for d in part.split("x")) for part in text.split(",")
            )
        except ValueError as exc:
            raise ShapeError(f"cannot parse factor shapes {text!r}") from exc
        return cls(rows)

    def to_string(self) -> str:
        row_format = "x".join(["%d"] * self.num_axes)
        return ",".join([row_format % row for row in self.rows])

"""Dense N-way tensors, the factor shape matrix of a Kronecker sequence, and
the block unfolding that turns Kronecker structure into matrix rank.

Conventions used throughout the package:

* tensors are ``float64`` numpy arrays, row-major (last axis fastest);
* a "branch" axis, when present, is always the leading axis;
* block grids and within-block offsets are enumerated row-major.
"""

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
    if isinstance(value, bool):
        raise error(f"{what} must be an integer, not a bool, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _dim(value) -> int:
    return _as_int(value, "dimension")


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array with at least one axis."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim == 0:
        raise ShapeError("tensors must have at least one axis")
    if arr.size == 0:
        raise ShapeError("tensors must not have zero-length axes")
    return arr


@dataclass(frozen=True)
class FactorShapeMatrix:
    """Per-factor, per-axis dimensions of a Kronecker sequence.

    ``rows[k]`` holds the shape of factor ``k``; the elementwise product of
    all rows recovers the shape of the composed tensor.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(_dim, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ShapeError("factor shape matrix needs at least one row")
        n = len(rows[0])
        if n == 0:
            raise ShapeError("factor shapes need at least one axis")
        for row in rows:
            if len(row) != n:
                raise ShapeError("all factor shapes must have the same axis count")
            if any(d < 1 for d in row):
                raise ShapeError("factor dimensions must be >= 1")

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

    def block_shape(self, k: int) -> tuple[int, ...]:
        """Elementwise product of rows ``k+1 .. S-1`` (all-ones for the last row)."""
        return tuple(
            math.prod(row[n] for row in self.rows[k + 1 :])
            for n in range(self.num_axes)
        )

    def factor_volume(self, k: int) -> int:
        """Number of elements of one factor-``k`` slice."""
        return math.prod(self.rows[k])

    def full_rank(self, k: int) -> int:
        """Rank ceiling of the level-``k`` unfolding, ``k`` in ``0 .. S-2``."""
        return min(self.factor_volume(k), math.prod(self.block_shape(k)))

    def max_ranks(self) -> tuple[int, ...]:
        return tuple(self.full_rank(k) for k in range(self.num_factors - 1))

    def validate_target(self, shape) -> None:
        shape = tuple(map(_dim, shape))
        if len(shape) != self.num_axes:
            raise ShapeError(
                f"target has {len(shape)} axes, factor shapes have {self.num_axes}"
            )
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
        return ",".join("x".join(str(d) for d in row) for row in self.rows)


def unfold_blocks(w, block_shape) -> np.ndarray:
    """Rearrange a branch-leading tensor into ``(branch, block, element)`` layout.

    ``w`` has shape ``(n_branches, *dims)``, the layout :func:`fold_blocks`
    returns; axis ``n`` of each branch slice must have size ``g_n *
    block_shape[n]``.  Blocks enumerate the grid ``(g_1, ..., g_N)``
    row-major, elements the within-block offsets row-major, and source index
    ``i_n = grid_n * block_shape[n] + offset_n``.  Pure permutation, so the
    Frobenius norm is preserved.
    """
    w = as_tensor(w)
    block_shape = tuple(int(b) for b in block_shape)
    if w.ndim != len(block_shape) + 1:
        raise ShapeError(
            f"expected a branch axis and {len(block_shape)} block axes, got {w.ndim} axes"
        )
    n_branches = w.shape[0]
    grid = []
    for n, (size, b) in enumerate(zip(w.shape[1:], block_shape)):
        if b < 1 or size % b:
            raise ShapeError(f"axis {n} of size {size} not divisible by block {b}")
        grid.append(size // b)
    split = [n_branches]
    for g, b in zip(grid, block_shape):
        split += [g, b]
    m = w.reshape(split)
    ndim = len(block_shape)
    order = [0] + [1 + 2 * n for n in range(ndim)] + [2 + 2 * n for n in range(ndim)]
    m = m.transpose(order)
    return np.ascontiguousarray(
        m.reshape(n_branches, math.prod(grid), math.prod(block_shape))
    )


def fold_blocks(m, grid_shape, block_shape) -> np.ndarray:
    """Inverse of :func:`unfold_blocks`; returns the branch-leading tensor."""
    m = as_tensor(m)
    grid_shape = tuple(int(g) for g in grid_shape)
    block_shape = tuple(int(b) for b in block_shape)
    if len(grid_shape) != len(block_shape):
        raise ShapeError("grid and block shapes must have the same axis count")
    if m.ndim != 3:
        raise ShapeError("expected a (branch, block, element) array")
    n_branches = m.shape[0]
    if m.shape[1] != math.prod(grid_shape) or m.shape[2] != math.prod(block_shape):
        raise ShapeError(
            f"array of shape {m.shape} inconsistent with grid {grid_shape} "
            f"and block {block_shape}"
        )
    ndim = len(grid_shape)
    t = m.reshape((n_branches,) + grid_shape + block_shape)
    order = [0]
    for n in range(ndim):
        order += [1 + n, 1 + ndim + n]
    t = t.transpose(order)
    final = tuple(g * b for g, b in zip(grid_shape, block_shape))
    return np.ascontiguousarray(t.reshape((n_branches,) + final))


"""Dense reference 2D convolution and its reconstruction-free counterpart
for Kronecker-sequence weights.

Both operate on activations of shape ``(batch, channels, height, width)``
with symmetric zero padding and stride 1, and both lower convolution to GEMM
over an im2col window view (Chellapilla et al. 2006), image by image, so an
image's result does not depend on the rest of its batch.  The reference
runs one GEMM per image.  The factorized path runs one stage per factor on
bands of output rows (:func:`_bands`), each band small enough that its
stage buffers stay near the L2 cache: a band's rows go through the whole
stage chain before the next band starts.  Its working activation keeps the
open channel groups leading (:func:`_plans`), so a stage without taps reads
its column matrix as a view of its input and only stages with taps copy
windows.  Factor matrices, window views and every buffer are set up once
per call and reused by every band of every image.

One stage schedule, :func:`_schedule`, fixes the stage order and each
stage's accumulated ``f`` digits, open channel groups, tap dilation and
output size; the factorized conv, its per-position MAC terms and its exact
MAC count all read it.  The flops ratio (FR) of the planner is per output
position: a stage that runs before a stage with taps also computes the
border that the later taps consume, and FR leaves that border out.
:func:`conv_macs` counts it, in every band, so it is the exact number of
MACs the GEMMs run.
"""

import math

import numpy as np

from sekron.decompose import (
    KroneckerSequence,
    _branch_sizes,
    _branch_total,
    _validate_ranks,
)
from sekron.errors import ShapeError
from sekron.tensor_core import FactorShapeMatrix, _as_int, _dims, as_tensor


def _check_conv_geometry(h, w, kh, kw, padding, what: str = "input"):
    """Output size of a stride-1 convolution, and ``padding`` as a Python int.

    ``padding`` is read through ``operator.index``, so a float or a string
    raises :class:`ShapeError` instead of being truncated or failing deep in
    numpy; a bool is refused as well, since ``True`` would read as 1.  A
    kernel larger than the padded input is refused with a message that
    names the input ``what``.
    """
    padding = _as_int(padding, "padding")
    if padding < 0:
        raise ShapeError("padding must be >= 0")
    out_h = h + 2 * padding - kh + 1
    out_w = w + 2 * padding - kw + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded {what} {h + 2 * padding}x{w + 2 * padding}"
        )
    return padding, out_h, out_w


def _zero_pad(x, padding: int) -> np.ndarray:
    # a zero array with the input assigned to its interior: the same values
    # as np.pad, without its per-call overhead
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def _conv_shape(x_shape, w_shape, padding, what: str = "input"):
    """``(padding, out_h, out_w)`` of a stride-1 convolution of an input of
    shape ``x_shape`` with a weight of shape ``w_shape``: the one check that
    an input fits a weight, for both convolutions and for callers that
    have only the shapes.

    Raises :class:`ShapeError` unless ``x_shape`` is four positive ints
    ``(batch, C, H, W)`` and ``w_shape`` has four axes ``(F, C, K_h, K_w)``
    with the same ``C``, and otherwise as :func:`_check_conv_geometry`
    does.  Messages about the input name it ``what``.
    """
    _, channels, h, w = _dims(x_shape, 4, what)
    if len(w_shape) != 4:
        raise ShapeError(f"weights must be (F, C, K_h, K_w), got {len(w_shape)} axes")
    if channels != w_shape[1]:
        raise ShapeError(
            f"channel mismatch: {what} has {channels} channels, weights expect {w_shape[1]}"
        )
    return _check_conv_geometry(h, w, w_shape[2], w_shape[3], padding, what)


def conv2d_reference(x, weights, padding: int = 0) -> np.ndarray:
    """Cross-correlation of ``x`` (batch, C, H, W) with a dense
    ``(F, C, K_h, K_w)`` weight tensor, stride 1, as one im2col GEMM.

    ``out[b,f,x,y] = sum_{c,i,j} weights[f,c,i,j] * padded[b,c,i+x,j+y]``,
    computed as ``weights.reshape(F, -1) @ cols`` with the window columns in
    ``(c, i, j)`` order.

    Raises :class:`ShapeError` when ``x`` is not 4-D, ``weights`` is not
    4-D, their channel counts differ, ``padding`` is not a non-negative
    integer (a Python or numpy int, not a bool), or the kernel is larger
    than the padded input.
    """
    x = as_tensor(x)
    weights = as_tensor(weights)
    padding, out_h, out_w = _conv_shape(x.shape, weights.shape, padding)
    kh, kw = weights.shape[2], weights.shape[3]
    xp = _zero_pad(x, padding)
    # im2col: columns (c, i, j) by output position (u, v); a tap and an
    # output position step through the padded image alike
    win_shape = (x.shape[0], x.shape[1], kh, kw, out_h, out_w)
    win = np.ndarray(win_shape, buffer=xp, strides=xp.strides + xp.strides[2:])
    cols = win.reshape(x.shape[0], -1, out_h * out_w)
    out = weights.reshape(weights.shape[0], -1) @ cols
    return out.reshape(x.shape[0], weights.shape[0], out_h, out_w)


def _schedule(shapes: FactorShapeMatrix, in_h: int, in_w: int):
    """The stages of :func:`sekron_conv2d` in execution order, last factor
    first, for a padded ``in_h x in_w`` input.

    Yields ``(k, f_acc, groups, dil_h, dil_w, out_h, out_w)`` per stage: the
    factor ``k`` it contracts; ``f_acc``, the ``f`` digits of the factors
    after ``k``, already produced; ``groups``, the ``c`` digits of the
    factors before ``k``, not yet summed; the dilation of its taps, the
    kernel extent of the factors after ``k``; and its output size.  A stage
    whose factor has taps shrinks the image, so every stage before it
    writes the border that those taps read.
    """
    groups = math.prod(row[1] for row in shapes.rows)
    f_acc = dil_h = dil_w = 1
    for k in reversed(range(shapes.num_factors)):
        f_k, c_k, h_k, w_k = shapes.rows[k]
        groups //= c_k
        in_h, in_w = in_h - (h_k - 1) * dil_h, in_w - (w_k - 1) * dil_w
        yield k, f_acc, groups, dil_h, dil_w, in_h, in_w
        f_acc, dil_h, dil_w = f_acc * f_k, dil_h * h_k, dil_w * w_k


# bytes of the largest stage buffer, columns or GEMM output, of one band of
# output rows: 1 MB, so a band's working set stays near the L2 cache; of
# 256 KB to 4 MB, 1 MB gave the fastest ResNet-18-shaped forward pass
_BAND_BYTES = 2**20


def _bands(seq: KroneckerSequence, out_h: int, in_w: int):
    """``(first row, row count)`` of the bands of output rows that
    :func:`sekron_conv2d` runs one at a time, for an image with ``out_h``
    output rows and ``in_w`` padded columns.

    A band gets as many rows as keep every stage buffer of the band, each
    stage's GEMM output and, for a stage with taps, its columns, within
    :data:`_BAND_BYTES`, and at least one; the rows are then shared out
    evenly over the bands.  A stage that runs before a stage with taps
    writes the border rows those taps read, so it runs on that many more
    rows than the band has.
    """
    ranks = seq.ranks + (1,)
    branches = seq.branch_sizes
    item = np.dtype(np.float64).itemsize
    fit, branch = out_h, 1
    # a one-row band: each stage's output rows are its border plus one
    for k, f_acc, groups, _, _, rows, cols in _schedule(seq.shapes, seq.target_shape[2], in_w):
        f_k, c_k, h_k, w_k = seq.shapes.rows[k]
        out_branch = branches[k] // ranks[k]
        per_row = max(out_branch * f_k, branch * c_k * h_k * w_k if h_k * w_k > 1 else 0)
        per_row *= groups * f_acc * cols * item
        fit = min(fit, _BAND_BYTES // per_row - (rows - 1))
        branch = out_branch
    step = -(-out_h // -(-out_h // max(fit, 1)))
    return [(y, min(step, out_h - y)) for y in range(0, out_h, step)]


def _plans(seq: KroneckerSequence, channels: int, in_hs, in_w: int):
    """What :func:`sekron_conv2d` runs on a band, for each padded slab
    height in ``in_hs``: ``{in_h: (slab, stages)}``.

    ``slab`` is a ``(channels, in_h, in_w)`` array that the band's input
    rows are written into, and ``stages`` lists, in the order of
    :func:`_schedule`, ``(factor matrix, window, columns, output)`` per
    stage: the GEMM ``output = factor matrix @ columns`` contracts the
    stage's factor, and ``window`` is ``None`` when ``columns`` is a view of
    the stage input, else the strided view of it to copy into ``columns``
    first.  Every array is made once per call, the factor matrices once for
    all heights, so every band of a call reuses the same memory.

    The input of the stage that contracts factor ``k`` has axes ``(G, c_k,
    r_k, Q, F, H, W)``: the open channel groups ``G = (c_0 .. c_{k-1})``,
    factor ``k``'s channel digit and rank, the surviving branch digits ``Q
    = (r_{k-1} .. r_0)``, the accumulated ``f`` digits and the image.  Its
    window view has axes ``(G, Q, c_k, r_k, i, j, F, u, v)``, so the row-major
    reshape to ``(G, Q, K, F u v)`` is the column matrix; for a stage
    without taps that reshape is a view of the input, with no copy.  The
    factor is permuted once per call to ``(Q, f_k, K)``, and the GEMM output
    ``(G, Q, f_k, F u v)`` is the next stage's input.  The first stage, the
    fan-out, has no ``Q`` and writes its rows as ``(r_{S-2} .. r_0,
    f_{S-1})``.
    """
    item = np.dtype(np.float64).itemsize
    s = seq.shapes.num_factors
    ranks = seq.ranks + (1,)
    fmats = []
    for k in reversed(range(s)):
        q = math.prod(ranks[:k]) if k < s - 1 else 1
        factor = seq.factors[k].reshape(ranks[: k + 1] + seq.shapes.rows[k])
        fmat = factor.transpose(*range(k - 1, -1, -1), k + 1, k + 2, k, k + 3, k + 4)
        fmats.append(np.ascontiguousarray(fmat).reshape(q, -1, math.prod(fmat.shape[-4:])))
    plans = {}
    for in_h in in_hs:
        # zeros, so the padding columns, which no band writes, stay zero
        t = slab = np.zeros((channels, in_h, in_w))
        stages = []
        h, w = in_h, in_w
        for (k, f_acc, groups, dil_h, dil_w, out_h, out_w), fmat in zip(
            _schedule(seq.shapes, in_h, in_w), fmats
        ):
            _, c_k, h_k, w_k = seq.shapes.rows[k]
            r_k, q = ranks[k], fmat.shape[0]
            s_h = w * item
            s_f = h * s_h
            s_r = q * f_acc * s_f
            win_shape = (groups, q, c_k, r_k, h_k, w_k, f_acc, out_h, out_w)
            win_strides = (
                c_k * r_k * s_r, f_acc * s_f, r_k * s_r, s_r, dil_h * s_h, dil_w * item, s_f, s_h, item
            )
            win = np.ndarray(win_shape, buffer=t, strides=win_strides)
            cols_shape = (groups, q, fmat.shape[2], f_acc * out_h * out_w)
            if h_k * w_k == 1:
                win, cols = None, win.reshape(cols_shape)
            else:
                cols = np.empty(cols_shape)
            t = np.empty((groups, q, fmat.shape[1], cols_shape[3]))
            stages.append((fmat, win, cols, t))
            h, w = out_h, out_w
        plans[in_h] = slab, stages
    return plans


def _fill_slab(slab, image, top: int, padding: int) -> None:
    """Write image rows ``top ..`` into ``slab`` from column ``padding`` on,
    and zeros into its rows outside the image.  Its other columns are
    padding, zero since the slab was made."""
    h, w = image.shape[1:]
    first = max(top, 0)
    last = max(min(top + slab.shape[1], h), first)
    slab[:, : first - top] = 0
    slab[:, last - top :] = 0
    slab[:, first - top : last - top, padding : padding + w] = image[:, first:last]


def sekron_conv2d(x, seq: KroneckerSequence, padding: int = 0) -> np.ndarray:
    """Convolve without materializing the composed weight tensor.

    Runs each image through one stage per factor, last factor first: stage
    ``k`` is one GEMM of factor ``k``, as an ``(f_k, c_k r_k h_k w_k)``
    matrix per surviving branch, with a column matrix of its input, so the
    channel digit ``c_k``, the rank ``r_k`` and the taps, dilated by the
    kernel extent of the factors after ``k``, are summed in one product.
    The last factor is the same stage with ``r = 1``: the input has a single
    branch, so all ``prod(ranks)`` branches of the factor fold into the GEMM
    rows and the stage fans out.

    The working activation keeps the open channel groups leading (layout in
    :func:`_plans`), so a stage without taps reads its columns as a strided
    view of its input; only stages with taps copy a window into columns.
    Each image's output rows are cut into bands (:func:`_bands`) that keep
    every stage buffer near :data:`_BAND_BYTES`, and the whole stage chain
    runs on one band at a time, from a zero-padded slab of input rows.  Stage
    setup and every buffer are made once per call and reused across bands
    and images.  Numerically equivalent to ``conv2d_reference(x,
    reconstruct(seq), padding)``, and raises :class:`ShapeError` in the same
    cases, with ``seq.target_shape`` as the weight shape.
    """
    x = as_tensor(x)
    padding, out_h, out_w = _conv_shape(x.shape, seq.target_shape, padding)
    kh = seq.target_shape[2]
    in_w = x.shape[3] + 2 * padding
    bands = _bands(seq, out_h, in_w)
    heights = {rows + kh - 1 for _, rows in bands}
    plans = _plans(seq, x.shape[1], heights, in_w)
    out = np.empty((x.shape[0], seq.target_shape[0], out_h, out_w))
    for b in range(x.shape[0]):
        for y, rows in bands:
            slab, stages = plans[rows + kh - 1]
            _fill_slab(slab, x[b], y - padding, padding)
            for fmat, win, cols, t in stages:
                if win is not None:
                    np.copyto(cols.reshape(win.shape), win)
                np.matmul(fmat, cols, out=t)
            out[b, :, y : y + rows] = t.reshape(-1, rows, out_w)
    return out


def stage_macs_per_branch(shapes: FactorShapeMatrix) -> tuple[int, ...]:
    """Per-output-position MACs of each stage of :func:`sekron_conv2d`, for
    one branch of its factor, in factor order.

    Term ``k`` is ``f_k f_acc c_k groups h_k w_k`` for the stage of
    :func:`_schedule` that contracts factor ``k``, i.e. ``(prod_{j>=k} f_j)
    (prod_{j<=k} c_j) h_k w_k``: the stage writes the ``f`` digits of
    factors ``k .. S-1`` for each open channel group, and each output sums
    over ``c_k h_k w_k`` inputs.  The terms depend only on the shapes, so a
    sweep over rank tuples computes them once per shape matrix.
    """
    if shapes.num_axes != 4:
        raise ShapeError("FLOP accounting needs factor axes (f, c, h, w)")
    # per-position terms do not depend on the input size, nor read the
    # output sizes it sets
    stages = _schedule(shapes, 0, 0)
    terms = [math.prod(shapes.rows[k]) * f_acc * groups for k, f_acc, groups, *_ in stages]
    return tuple(reversed(terms))


def flops_denominator(shapes: FactorShapeMatrix, ranks) -> int:
    """Per-output-position MACs of the factorized convolution, the
    denominator of the planner's flops ratio (FR).

    ``sum_k branch_k * term_k``: the branch count of factor ``k``
    (``prod_{j<=k} rank_j``, the last factor sharing the one before it)
    times its term from :func:`stage_macs_per_branch`.  Each term counts the
    outputs of its stage at the final output positions only; the border that
    a stage before a tapped stage also computes is left out, so this times
    the output size is at most :func:`conv_macs`, and equal to it when no
    factor but the last (factor ``S-1``, the first stage) has taps.
    """
    stages = stage_macs_per_branch(shapes)
    ranks = _validate_ranks(shapes, ranks)
    return _branch_total(_branch_sizes(ranks), stages)


def conv_macs(seq: KroneckerSequence, input_hw, padding: int = 0) -> int:
    """Exact multiply-accumulate count of :func:`sekron_conv2d`.

    ``sum_k branch_k * term_k * out_h_k * out_w_k`` over the bands of
    :func:`_bands` and, in each band, the stages of :func:`_schedule` on its
    slab of ``rows + K_h - 1`` input rows, with ``term_k`` from
    :func:`stage_macs_per_branch` and each stage's own output size, border
    included, for the given spatial input size ``(H, W)``, two positive
    integers; anything else raises :class:`ShapeError`.  A stage before a
    tapped stage writes, in every band, the border rows the taps read, so
    splitting an image into bands adds MACs when a factor other than the
    last has taps.  These are the MACs the GEMMs run.
    """
    terms = stage_macs_per_branch(seq.shapes)
    branches = seq.branch_sizes
    h, w = _dims(input_hw, 2, "input size")
    kh, kw = seq.target_shape[2:]
    padding, out_h, _ = _check_conv_geometry(h, w, kh, kw, padding)
    in_w = w + 2 * padding
    return sum(
        branches[k] * terms[k] * rows_k * cols_k
        for _, rows in _bands(seq, out_h, in_w)
        for k, *_, rows_k, cols_k in _schedule(seq.shapes, rows + kh - 1, in_w)
    )

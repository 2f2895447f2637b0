"""Dense reference 2D convolution and its reconstruction-free counterpart
for Kronecker-sequence weights.

Both operate on activations of shape ``(batch, channels, height, width)``
with symmetric zero padding and stride 1, and both lower convolution to GEMM
over an im2col window view (Chellapilla et al. 2006): one matrix product per
image, per stage on the factorized path.  An image's result therefore does
not depend on the rest of its batch.  The factorized path sets up its
stages once per call: each stage's factor matrix and the shape and strides
of its window view depend only on the sequence and the padded input size,
so the loop over images only takes strided views and runs GEMMs.

One stage schedule, :func:`_schedule`, fixes the stage order and each
stage's accumulated ``f`` digits, open channel groups, tap dilation and
output size; the factorized conv, its per-position MAC terms and its exact
MAC count all read it.  The flops ratio (FR) of the planner is per output
position: a stage that runs before a stage with taps also computes the
border that the later taps consume, and FR leaves that border out.
:func:`conv_macs` counts it, so it is the exact number of MACs the GEMMs
run.
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


def _stage_plans(seq: KroneckerSequence, in_h: int, in_w: int):
    """What each stage of :func:`sekron_conv2d` needs, in the order of
    :func:`_schedule`, for one padded ``in_h x in_w`` image.

    Every stage input is C-contiguous: an image of the padded copy, or the
    previous stage's GEMM output reshaped.  So the strides of its window
    view follow from its shape, and one record per stage serves every image
    of a call: ``(factor matrix, window shape, window strides, column
    matrix shape, stage output shape)``.  The window view has axes ``(q,
    r, c, i, j, F, g, u, v)``: surviving branch, rank, channel digit, the two
    dilated taps, accumulated ``f``, channel group and output position, so
    its row-major reshape is the column matrix.
    """
    item = np.dtype(np.float64).itemsize
    ranks = seq.ranks + (1,)
    branch = 1
    plans = []
    for k, f_acc, groups, dil_h, dil_w, out_h, out_w in _schedule(seq.shapes, in_h, in_w):
        (f_k, c_k, h_k, w_k), r_k, factor = seq.shapes.rows[k], ranks[k], seq.factors[k]
        p, q = factor.shape[0] // r_k, branch // r_k
        # strides of the input read as (q, r_k, f_acc, groups, c_k, in_h, in_w)
        s_w = item
        s_h = in_w * s_w
        s_c = in_h * s_h
        s_g = c_k * s_c
        s_f = groups * s_g
        s_r = f_acc * s_f
        win_shape = (q, r_k, c_k, h_k, w_k, f_acc, groups, out_h, out_w)
        win_strides = (r_k * s_r, s_r, s_c, dil_h * s_h, dil_w * s_w, s_f, s_g, s_h, s_w)
        fmat = factor.reshape(p, r_k, f_k, -1).transpose(0, 2, 1, 3)
        fmat = np.ascontiguousarray(fmat).reshape(q, p // q * f_k, -1)
        cols_shape = (q, r_k * c_k * h_k * w_k, -1)
        t_shape = (p, f_k * f_acc, groups, out_h, out_w)
        plans.append((fmat, win_shape, win_strides, cols_shape, t_shape))
        branch, in_h, in_w = p, out_h, out_w
    return plans


def sekron_conv2d(x, seq: KroneckerSequence, padding: int = 0) -> np.ndarray:
    """Convolve without materializing the composed weight tensor.

    Runs each image through one stage per factor, last factor first, so no
    intermediate is larger than one image's.  A working activation with
    axes ``(branch, accumulated-f, channel group, H, W)`` is contracted with
    factor ``k``: the stage splits the branch axis into ``(surviving branch,
    r_k)`` and takes a window view of the spatial axes whose taps are
    dilated by the kernel extent of the factors after ``k``.  The stage is
    then one GEMM of the factor, as an ``(f_k, r_k c_k h_k w_k)`` matrix per
    surviving branch, with the window columns, so ``r_k``, the channel
    digit ``c_k`` and the taps are summed in one product.  The last factor
    is the same stage with ``r = 1``: the input has a single branch, so all
    ``prod(ranks)`` branches of the factor fold into the GEMM rows and the
    stage fans out.

    Stage setup runs once per call, not once per image: each stage's factor
    matrix and the shape and strides of its window view depend only on the
    sequence and the padded input size.  The loop over images then takes
    each window as a strided view, copies it into columns and runs the
    GEMM.  Numerically equivalent to
    ``conv2d_reference(x, reconstruct(seq), padding)``, and raises
    :class:`ShapeError` in the same cases, with ``seq.target_shape`` as the
    weight shape.
    """
    x = as_tensor(x)
    padding, out_h, out_w = _conv_shape(x.shape, seq.target_shape, padding)

    xp = _zero_pad(x, padding)
    plans = _stage_plans(seq, *xp.shape[2:])
    out = np.empty((x.shape[0], seq.target_shape[0], out_h, out_w))
    for b in range(x.shape[0]):
        t = xp[b]
        for fmat, win_shape, win_strides, cols_shape, t_shape in plans:
            win = np.ndarray(win_shape, buffer=t, strides=win_strides)
            t = np.matmul(fmat, win.reshape(cols_shape)).reshape(t_shape)
        out[b] = t.reshape(out.shape[1:])
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

    ``sum_k branch_k * term_k * out_h_k * out_w_k`` over the stages of
    :func:`_schedule`, with ``term_k`` from :func:`stage_macs_per_branch`
    and each stage's own output size, border included, for the given
    spatial input size ``(H, W)``, two positive integers; anything else
    raises :class:`ShapeError`.  These are the MACs the GEMMs run.
    """
    terms = stage_macs_per_branch(seq.shapes)
    branches = seq.branch_sizes
    h, w = _dims(input_hw, 2, "input size")
    padding, _, _ = _check_conv_geometry(h, w, *seq.target_shape[2:], padding)
    stages = _schedule(seq.shapes, h + 2 * padding, w + 2 * padding)
    return sum(branches[k] * terms[k] * out_h * out_w for k, *_, out_h, out_w in stages)

"""Dense reference 2D convolution and its reconstruction-free counterpart
for Kronecker-sequence weights.

Both operate on activations of shape ``(batch, channels, height, width)``
with symmetric zero padding and stride 1, and both lower convolution to GEMM
over an im2col window view (Chellapilla et al. 2006): one matrix product per
image, per stage on the factorized path.  An image's result therefore does
not depend on the rest of its batch.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sekron.decompose import (
    KroneckerSequence,
    _branch_sizes,
    _branch_total,
    _validate_ranks,
)
from sekron.errors import ShapeError
from sekron.tensor_core import FactorShapeMatrix, _as_int, _dims, as_tensor


def _check_conv_geometry(h, w, kh, kw, padding):
    """Output size of a stride-1 convolution, and ``padding`` as a Python int.

    ``padding`` is read through ``operator.index``, so a float or a string
    raises :class:`ShapeError` instead of being truncated or failing deep in
    numpy; a bool is refused as well, since ``True`` would read as 1.
    """
    padding = _as_int(padding, "padding")
    if padding < 0:
        raise ShapeError("padding must be >= 0")
    out_h = h + 2 * padding - kh + 1
    out_w = w + 2 * padding - kw + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    return padding, out_h, out_w


def _zero_pad(x, padding: int) -> np.ndarray:
    # a zero array with the input assigned to its interior: the same values
    # as np.pad, without its per-call overhead
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def conv2d_reference(x, weights, padding: int = 0) -> np.ndarray:
    """Cross-correlation of ``x`` (batch, C, H, W) with a dense
    ``(F, C, K_h, K_w)`` weight tensor, stride 1, as one im2col GEMM.

    ``out[b,f,x,y] = sum_{c,i,j} weights[f,c,i,j] * padded[b,c,i+x,j+y]``,
    computed as ``weights.reshape(F, -1) @ cols`` with the window columns in
    ``(c, i, j)`` order.
    """
    x = as_tensor(x)
    weights = as_tensor(weights)
    if x.ndim != 4:
        raise ShapeError(f"input must be (batch, C, H, W), got {x.ndim} axes")
    if weights.ndim != 4:
        raise ShapeError(f"weights must be (F, C, K_h, K_w), got {weights.ndim} axes")
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(
            f"channel mismatch: input has {x.shape[1]}, weights expect {weights.shape[1]}"
        )
    kh, kw = weights.shape[2], weights.shape[3]
    padding, out_h, out_w = _check_conv_geometry(x.shape[2], x.shape[3], kh, kw, padding)
    xp = _zero_pad(x, padding)
    # im2col: columns (c, i, j) by output position (u, v)
    cols = sliding_window_view(xp, (kh, kw), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    cols = cols.reshape(x.shape[0], -1, out_h * out_w)
    out = weights.reshape(weights.shape[0], -1) @ cols
    return out.reshape(x.shape[0], weights.shape[0], out_h, out_w)


def _check_sequence_for_conv(seq: KroneckerSequence, in_channels: int):
    if seq.shapes.num_axes != 4:
        raise ShapeError(
            f"convolution needs factors with axes (f, c, h, w); got {seq.shapes.num_axes} axes"
        )
    if seq.target_shape[1] != in_channels:
        raise ShapeError(
            f"channel mismatch: input has {in_channels}, factors compose to {seq.target_shape[1]}"
        )


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
    stage fans out.  A stage whose factor has a 1x1 kernel (dilated span
    ``(1, 1)``) takes no window view: its columns are the input positions
    themselves.  ``padding`` must be a non-negative integer (a Python or
    numpy int, not a bool); anything else raises :class:`ShapeError`.
    Numerically equivalent to
    ``conv2d_reference(x, reconstruct(seq), padding)``.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"input must be (batch, C, H, W), got {x.ndim} axes")
    _check_sequence_for_conv(seq, x.shape[1])
    kh, kw = seq.target_shape[2], seq.target_shape[3]
    padding, out_h, out_w = _check_conv_geometry(x.shape[2], x.shape[3], kh, kw, padding)

    xp = _zero_pad(x, padding)
    stages = list(zip(seq.shapes.rows, seq.ranks + (1,), seq.factors))[::-1]
    out = np.empty((x.shape[0], seq.target_shape[0], out_h, out_w))
    for b in range(x.shape[0]):
        # (branch, accumulated-f, channel group, H, W)
        t = xp[b, None, None]
        dil_h = dil_w = 1
        for (f_k, c_k, h_k, w_k), r_k, factor in stages:
            branch, f_acc, channels, in_h, in_w = t.shape
            p, q = factor.shape[0] // r_k, branch // r_k
            tin = t.reshape(q, r_k, f_acc, channels // c_k, c_k, in_h, in_w)
            if h_k == w_k == 1:
                # span (1, 1): the window view would be tin with two unit axes
                win = tin[..., None, None]
            else:
                span = ((h_k - 1) * dil_h + 1, (w_k - 1) * dil_w + 1)
                win = sliding_window_view(tin, span, axis=(5, 6))[..., ::dil_h, ::dil_w]
            # columns (r, c, i, j) by (F, g, u, v) per surviving branch
            cols = win.transpose(0, 1, 4, 7, 8, 2, 3, 5, 6)
            cols = cols.reshape(q, r_k * c_k * h_k * w_k, -1)
            fmat = factor.reshape(p, r_k, f_k, -1).transpose(0, 2, 1, 3)
            t = np.matmul(fmat.reshape(q, p // q * f_k, -1), cols)
            t = t.reshape(p, f_k * f_acc, channels // c_k, *win.shape[5:7])
            dil_h *= h_k
            dil_w *= w_k
        out[b] = t.reshape(out.shape[1:])
    return out


def stage_macs_per_branch(shapes: FactorShapeMatrix) -> tuple[int, ...]:
    """Per-output-position MACs of each stage of :func:`sekron_conv2d`, for
    one branch of its factor.

    Term ``i`` is ``(prod_{k>=i} f_k) (prod_{k<=i} c_k) h_i w_i``: the stage
    that contracts factor ``i`` produces the ``f`` digits of factors ``i ..
    S-1`` for each channel group still open (the ``c`` digits of factors
    before ``i``), and each output sums over ``c_i h_i w_i`` inputs.  The
    terms depend only on the shapes, so a sweep over rank tuples computes
    them once per shape matrix.
    """
    if shapes.num_axes != 4:
        raise ShapeError("FLOP accounting needs factor axes (f, c, h, w)")
    f_suffix = math.prod(row[0] for row in shapes.rows)
    c_prefix = 1
    terms = []
    for f, c, h, w in shapes.rows:
        c_prefix *= c
        terms.append(f_suffix * c_prefix * h * w)
        f_suffix //= f
    return tuple(terms)


def flops_denominator(shapes: FactorShapeMatrix, ranks) -> int:
    """Per-output-position MACs of the factorized convolution.

    ``sum_i branch_i * stage_i``: the branch count of factor ``i``
    (``prod_{k<=i} rank_k``, the last factor sharing the one before it)
    times its term from :func:`stage_macs_per_branch`, i.e.
    ``sum_i (prod_{k>=i} f_k) (prod_{k<=i} rank_k) (prod_{k<=i} c_k) h_i w_i``.
    Term ``i`` is the stage of :func:`sekron_conv2d` that contracts factor
    ``i``.
    """
    stages = stage_macs_per_branch(shapes)
    ranks = _validate_ranks(shapes, ranks)
    return _branch_total(_branch_sizes(ranks), stages)


def conv_macs(seq: KroneckerSequence, input_hw, padding: int = 0) -> int:
    """Multiply-accumulate count of the staged evaluation.

    :func:`flops_denominator` per output position, times the number of
    output positions for the given spatial input size ``(H, W)``, two
    positive integers; anything else raises :class:`ShapeError`.
    """
    per_position = flops_denominator(seq.shapes, seq.ranks)
    h, w = _dims(input_hw, 2, "input size")
    kh, kw = seq.target_shape[2], seq.target_shape[3]
    _, out_h, out_w = _check_conv_geometry(h, w, kh, kw, padding)
    return per_position * out_h * out_w

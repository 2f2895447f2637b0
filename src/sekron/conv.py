"""Dense reference 2D convolution and its reconstruction-free counterpart
for Kronecker-sequence weights.

Both operate on activations of shape ``(batch, channels, height, width)``
with symmetric zero padding and stride 1, and both accumulate kernel taps in
a fixed row-major order so results are deterministic.
"""

import math

import numpy as np

from sekron.decompose import KroneckerSequence, _validate_ranks
from sekron.errors import ShapeError
from sekron.tensor_core import FactorShapeMatrix, as_tensor


def _check_conv_geometry(h, w, kh, kw, padding):
    if padding < 0:
        raise ShapeError("padding must be >= 0")
    out_h = h + 2 * padding - kh + 1
    out_w = w + 2 * padding - kw + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    return out_h, out_w


def conv2d_reference(x, weights, padding: int = 0) -> np.ndarray:
    """Direct cross-correlation of ``x`` (batch, C, H, W) with a dense
    ``(F, C, K_h, K_w)`` weight tensor, stride 1.

    ``out[b,f,x,y] = sum_{c,i,j} weights[f,c,i,j] * padded[b,c,i+x,j+y]``
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
    out_h, out_w = _check_conv_geometry(x.shape[2], x.shape[3], kh, kw, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((x.shape[0], weights.shape[0], out_h, out_w))
    for i in range(kh):
        for j in range(kw):
            out += np.einsum(
                "fc,bcuv->bfuv",
                weights[:, :, i, j],
                xp[:, :, i : i + out_h, j : j + out_w],
            )
    return out


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

    Runs one stage per factor, last factor first.  A working activation
    with axes ``(batch, accumulated-f, branch, channel group, H, W)`` is
    contracted with factor ``k``: the stage splits the branch axis into
    ``(surviving branch, r_k)``, sums ``r_k`` and the channel digit ``c_k``,
    and samples spatial taps with dilation equal to the kernel extent of the
    factors after ``k``.  The last factor is the same stage with ``r = 1``:
    the input's single branch broadcasts against the factor's
    ``prod(ranks)`` branches, so that stage fans out.  Numerically
    equivalent to ``conv2d_reference(x, reconstruct(seq), padding)``.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"input must be (batch, C, H, W), got {x.ndim} axes")
    _check_sequence_for_conv(seq, x.shape[1])
    kh, kw = seq.target_shape[2], seq.target_shape[3]
    _check_conv_geometry(x.shape[2], x.shape[3], kh, kw, padding)

    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (batch, accumulated-f, branch, channel group, H, W)
    t = xp[:, None, None, :, :, :]
    dil_h = dil_w = 1
    stages = zip(seq.shapes.rows, seq.ranks + (1,), seq.factors)
    for (f_k, c_k, h_k, w_k), r_k, factor in reversed(list(stages)):
        batch, f_acc, branch, channels, in_h, in_w = t.shape
        out_h = in_h - (h_k - 1) * dil_h
        out_w = in_w - (w_k - 1) * dil_w
        tin = t.reshape(
            batch, f_acc, branch // r_k, r_k, channels // c_k, c_k, in_h, in_w
        )
        fin = factor.reshape(-1, r_k, f_k, c_k, h_k, w_k)
        out = np.zeros(
            (batch, f_k, f_acc, fin.shape[0], channels // c_k, out_h, out_w)
        )
        for i in range(h_k):
            for j in range(w_k):
                out += np.einsum(
                    "prfc,bFprgcuv->bfFpguv",
                    fin[:, :, :, :, i, j],
                    tin[..., i * dil_h : i * dil_h + out_h,
                        j * dil_w : j * dil_w + out_w],
                )
        t = out.reshape((batch, f_k * f_acc) + out.shape[3:])
        dil_h *= h_k
        dil_w *= w_k
    batch, f_total, _, _, out_h, out_w = t.shape
    return t.reshape(batch, f_total, out_h, out_w)


def flops_denominator(shapes: FactorShapeMatrix, ranks) -> int:
    """Per-output-position MACs of the factorized convolution.

    ``sum_i (prod_{k>=i} f_k) (prod_{k<=i} rank_k) (prod_{k<=i} c_k) h_i w_i``
    with the rank product of the last term sharing the one before it.
    Term ``i`` is the stage of :func:`sekron_conv2d` that contracts factor
    ``i``.
    """
    if shapes.num_axes != 4:
        raise ShapeError("FLOP accounting needs factor axes (f, c, h, w)")
    ranks = _validate_ranks(shapes, ranks)
    rows = shapes.rows
    s = shapes.num_factors
    total = 0
    for i in range(s):
        f_prod = math.prod(rows[l][0] for l in range(i, s))
        r_prod = math.prod(ranks[: min(i, s - 2) + 1])
        c_prod = math.prod(rows[l][1] for l in range(i + 1))
        total += f_prod * r_prod * c_prod * rows[i][2] * rows[i][3]
    return total


def conv_macs(seq: KroneckerSequence, input_hw, padding: int = 0) -> int:
    """Multiply-accumulate count of the staged evaluation.

    :func:`flops_denominator` per output position, times the number of
    output positions for the given spatial input size.
    """
    per_position = flops_denominator(seq.shapes, seq.ranks)
    h, w = (int(v) for v in input_hw)
    kh, kw = seq.target_shape[2], seq.target_shape[3]
    out_h, out_w = _check_conv_geometry(h, w, kh, kw, padding)
    return per_position * out_h * out_w

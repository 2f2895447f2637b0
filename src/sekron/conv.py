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
digits a stage carries through unchanged trailing (:func:`_windows`), so a
stage without taps reads its column matrix as a view of its input; stages
with taps, and the last stage of some factor-0-first sequences, copy
windows.  Factor matrices, window views and every buffer are set up once
per call and reused by every band of every image.

The stages run last factor first or factor 0 first.  Both orders sum the
same products over the same branch tree, so both are exact; each sequence
runs in the one whose GEMMs cost fewer MACs per output position
(:func:`_cheaper_schedule`).  One stage schedule, :func:`_schedule`, fixes
either order and each stage's GEMM sizes, whether it copies its window, its
tap dilation and how much the image has shrunk; the factorized conv, its
bands, the choice of order, the per-position MAC terms and the exact MAC
count all read it.  The flops ratio (FR) of the planner is the per-position
count of the last-factor-first order, so it is an upper bound on what the
conv runs per position.  FR leaves out the border that a stage before a
stage with taps also computes for the later taps; :func:`conv_macs` counts
it, in every band and in the order that runs, so it is the exact number of
MACs the GEMMs run.
"""

import functools
import itertools
import math
import operator

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


def _schedule(shapes: FactorShapeMatrix, ranks, factor0_first: bool = False) -> tuple:
    """The stages of :func:`sekron_conv2d` in execution order, last factor
    first or factor 0 first.

    One ``(k, batch, m, kdim, n, copy, dil_h, dil_w, cut_h, cut_w)`` per
    stage: the factor ``k`` it contracts; its GEMMs, ``batch`` products of
    an ``m x kdim`` factor matrix with a ``kdim x (n out_h out_w)`` column
    matrix, where ``n`` counts the digits the stage carries through
    unchanged; whether its columns are a copied window (``copy``) rather
    than a view of its input; the dilation of its taps, the kernel extent
    of the factors after ``k`` in either order; and the rows and columns
    the image has lost to taps by the end of the stage, so that on a padded
    ``in_h x in_w`` input it writes ``out_h x out_w = (in_h - cut_h) x (in_w
    - cut_w)`` positions.  A stage whose factor has taps shrinks the image,
    so every stage before it writes the border that those taps read.

    Last factor first, the first stage fans out every branch of factor
    ``S-1``, and stage ``k < S-1`` then sums ``c_k`` and the rank digit
    ``r_k`` for each open channel group ``c_0 .. c_{k-1}`` and surviving
    branch ``r_0 .. r_{k-1}``, carrying the ``f`` digits already produced.
    Factor 0 first mirrors that tree: stage ``k < S-1`` sums ``c_k`` and
    fans out ``r_k`` for each produced ``f_0 .. f_{k-1}`` and branch ``r_0
    .. r_{k-1}``, carrying the open groups ``c_{k+1} .. c_{S-1}``, and the
    last stage sums every rank digit in one GEMM.  A stage copies its window
    when its factor has taps, and, factor 0 first, the last stage also when
    one of ``f_1 .. f_{S-2}`` is not 1: those digits sit between its rank
    digits in its input (layout in :func:`_windows`).
    """
    rows = shapes.rows
    s = len(rows)
    ranks = tuple(ranks) + (1,)
    # prefix[k] = prod(ranks[:k]), the branches r_0 .. r_{k-1}; prefix[S-1]
    # is the branch count of the last factor
    prefix = list(itertools.accumulate(ranks, operator.mul, initial=1))
    open_c = math.prod(row[1] for row in rows)
    done_f = done_h = done_w = 1
    cut_h = cut_w = 0
    stages = []
    for k in range(s) if factor0_first else reversed(range(s)):
        f_k, c_k, h_k, w_k = rows[k]
        if factor0_first:
            dil_h = math.prod(row[2] for row in rows[k + 1 :])
            dil_w = math.prod(row[3] for row in rows[k + 1 :])
        else:
            dil_h, dil_w = done_h, done_w
        cut_h, cut_w = cut_h + (h_k - 1) * dil_h, cut_w + (w_k - 1) * dil_w
        open_c //= c_k
        taps, q, r_k = h_k * w_k, prefix[k], ranks[k]
        if k < s - 1 and factor0_first:  # fans out r_k
            batch, m, kdim = done_f * q, f_k * r_k, c_k * taps
        elif k < s - 1:  # sums r_k
            batch, m, kdim = open_c * q, f_k, c_k * r_k * taps
        elif factor0_first:  # sums every rank digit
            batch, m, kdim = done_f, f_k, q * c_k * taps
        else:  # fans out every branch
            batch, m, kdim = open_c, q * f_k, c_k * taps
        n = open_c if factor0_first else done_f
        copy = taps > 1 or (factor0_first and k == s - 1 and done_f > rows[0][0])
        stages.append((k, batch, m, kdim, n, copy, dil_h, dil_w, cut_h, cut_w))
        done_f, done_h, done_w = done_f * f_k, done_h * h_k, done_w * w_k
    return tuple(stages)


@functools.lru_cache(maxsize=1024)
def _cheaper_schedule(shapes: FactorShapeMatrix, ranks: tuple[int, ...]):
    """``(factor0_first, stages)``: the stage order :func:`sekron_conv2d`
    runs and its :func:`_schedule`.

    It runs factor 0 first only when that order's GEMMs run strictly fewer
    MACs per output position and its windows copy no more elements per
    position; otherwise, ties included, last factor first.  A pure function
    of the shapes and ranks, so it is memoized.
    """

    def per_position(stages):
        macs = copied = 0
        for _, batch, m, kdim, n, copy, *_ in stages:
            macs += batch * m * kdim * n
            copied += batch * kdim * n if copy else 0
        return macs, copied

    first, last = _schedule(shapes, ranks, True), _schedule(shapes, ranks)
    (macs, copied), (last_macs, last_copied) = per_position(first), per_position(last)
    if macs < last_macs and copied <= last_copied:
        return True, first
    return False, last


# bytes of the largest stage buffer, columns or GEMM output, of one band of
# output rows: 1 MB, so a band's working set stays near the L2 cache; of
# 256 KB to 4 MB, 1 MB gave the fastest ResNet-18-shaped forward pass
_BAND_BYTES = 2**20


def _bands(stages, kh: int, out_h: int, in_w: int):
    """``(first row, row count)`` of the bands of output rows that
    :func:`sekron_conv2d` runs one at a time through ``stages`` (from
    :func:`_schedule`), for a kernel ``kh`` rows high and an image with
    ``out_h`` output rows and ``in_w`` padded columns.

    A band gets as many rows as keep every stage buffer of the band, each
    stage's GEMM output and, for a stage that copies its window, its
    columns, within :data:`_BAND_BYTES`, and at least one; the rows are then
    shared out evenly over the bands.  A stage that runs before a stage with
    taps writes the border rows those taps read, so it runs on that many
    more rows than the band has.
    """
    item = np.dtype(np.float64).itemsize
    fit = out_h
    for _, batch, m, kdim, n, copy, _, _, cut_h, cut_w in stages:
        per_row = max(batch * m, batch * kdim if copy else 0) * n * (in_w - cut_w) * item
        # the stage's border: its output rows for a one-row band, less one
        fit = min(fit, _BAND_BYTES // per_row - (kh - 1 - cut_h))
    step = -(-out_h // -(-out_h // max(fit, 1)))
    return [(y, min(step, out_h - y)) for y in range(0, out_h, step)]


@functools.lru_cache(maxsize=1024)
def _windows(shapes: FactorShapeMatrix, ranks: tuple[int, ...], factor0_first: bool):
    """How :func:`_plans` lays out each stage of :func:`_schedule` in the
    order ``factor0_first`` names: ``(order, shared, sizes, planes,
    batch_shape)`` per stage.  Memoized, as it depends only on its arguments.

    A stage's input is its outer digits, then the ``n`` digits it carries,
    then the image.  Last factor first, the outer digits of the stage that
    contracts factor ``k`` are ``(G, c_k, r_k, Q)``: the open channel groups
    ``G = (c_0 .. c_{k-1})``, factor ``k``'s channel digit and rank, and the
    surviving branch digits ``Q = (r_{k-1} .. r_0)``; it carries the ``f``
    digits already produced.  The first stage, the fan-out, has no ``r_k``
    or ``Q`` and writes its rows as ``(r_{S-2} .. r_0, f_{S-1})``.  Factor 0
    first they are ``(f_0, r_0, .., f_{k-1}, r_{k-1}, c_k)``, the stage
    carries the open groups ``(c_{k+1} .. c_{S-1})``, and stage ``k < S-1``
    writes its rows as ``(f_k, r_k)``.

    The window view lists the outer digits the stage does not sum, in input
    order, then the summed digits and the taps as ``K``, then the carried
    digits and the output positions as ``N``, so its row-major reshape to
    ``(batch.., K, N)`` is the column matrix; for a stage that does not copy
    (:func:`_schedule`) that reshape is a view of the input.  ``sizes`` and
    ``planes`` are the window's outer digits and taps and the strides of
    those digits in image planes, and ``batch_shape`` the shape of the
    batch digits.  The factor, transposed by ``order``, is reshaped to
    ``shared + (M, K)``, with size 1 on the batch digits it is shared over,
    and the GEMM output ``(batch.., M, N)`` is the next stage's input.
    """
    s = shapes.num_factors
    stages = _schedule(shapes, ranks, factor0_first)
    ranks = ranks + (1,)
    windows = []
    for k, batch, _, _, n, *_ in stages:
        # outer digits as (size, role): "g" a batch digit the factor matrix
        # is shared over, "q" a branch digit that selects its slice, "k" a
        # digit the GEMM sums
        if not factor0_first:
            q = math.prod(ranks[:k]) if k < s - 1 else 1
            layout = [(batch // q, "g"), (shapes.rows[k][1], "k"), (ranks[k], "k"), (q, "q")]
            order = (*range(k - 1, -1, -1), k + 1, k + 2, k, k + 3, k + 4)
        else:
            role = "q" if k < s - 1 else "k"
            layout = [d for j in range(k) for d in ((shapes.rows[j][0], "g"), (ranks[j], role))]
            layout.append((shapes.rows[k][1], "k"))
            if k < s - 1:
                order = (*range(k), k + 1, k, k + 2, k + 3, k + 4)
            else:
                order = (k + 1, *range(k + 1), k + 2, k + 3, k + 4)
        # each digit's stride in image planes: the planes of the digits after it
        strides, p = [], n
        for size, _ in reversed(layout):
            strides.insert(0, p)
            p *= size
        # the digits the stage does not sum, then those it sums, each in order
        window = sorted(range(len(layout)), key=lambda i: layout[i][1] == "k")
        shared = tuple(size if role == "q" else 1 for size, role in layout if role != "k")
        # leading axes of size 1 broadcast without being listed
        while shared[:1] == (1,):
            shared = shared[1:]
        sizes = tuple(layout[i][0] for i in window) + shapes.rows[k][2:]
        batch_shape = tuple(size for size, role in layout if role != "k")
        windows.append((order, shared, sizes, tuple(strides[i] for i in window), batch_shape))
    return tuple(windows)


def _plans(seq: KroneckerSequence, factor0_first: bool, stages, channels: int, in_hs, in_w: int):
    """What :func:`sekron_conv2d` runs on a band, for each padded slab
    height in ``in_hs``: ``{in_h: (slab, plan)}``, for ``stages`` from
    :func:`_schedule` in the order ``factor0_first`` names.

    ``slab`` is a ``(channels, in_h, in_w)`` array that the band's input
    rows are written into, and ``plan`` lists, in the order of ``stages``,
    ``(factor matrix, window, columns, output)`` per stage, laid out as
    :func:`_windows` says: the GEMM ``output = factor matrix @ columns``
    contracts the stage's factor, and ``window`` is ``None`` when
    ``columns`` is a view of the stage input, else the strided view of it to
    copy into ``columns`` first.  Every array is made once per call, the
    factor matrices once for all heights, so every band of a call reuses
    the same memory.
    """
    item = np.dtype(np.float64).itemsize
    ranks = seq.ranks + (1,)
    windows = _windows(seq.shapes, seq.ranks, factor0_first)
    fmats = []
    for (k, _, m, kdim, *_), (order, shared, *_) in zip(stages, windows):
        factor = seq.factors[k].reshape(ranks[: k + 1] + seq.shapes.rows[k])
        fmats.append(np.ascontiguousarray(factor.transpose(order)).reshape(shared + (m, kdim)))
    plans = {}
    for in_h in in_hs:
        # zeros, so the padding columns, which no band writes, stay zero
        t = slab = np.zeros((channels, in_h, in_w))
        plan = []
        h, w = in_h, in_w
        for stage, (_, _, sizes, planes, batch_shape), fmat in zip(stages, windows, fmats):
            _, _, m, kdim, n, copy, dil_h, dil_w, cut_h, cut_w = stage
            out_h, out_w = in_h - cut_h, in_w - cut_w
            s_h = w * item
            s_f = h * s_h
            strides = tuple(p * s_f for p in planes) + (dil_h * s_h, dil_w * item, s_f, s_h, item)
            win = np.ndarray(sizes + (n, out_h, out_w), buffer=t, strides=strides)
            cols_shape = batch_shape + (kdim, n * out_h * out_w)
            if copy:
                cols = np.empty(cols_shape)
            else:
                win, cols = None, win.reshape(cols_shape)
            t = np.empty(batch_shape + (m, cols_shape[-1]))
            plan.append((fmat, win, cols, t))
            h, w = out_h, out_w
        plans[in_h] = slab, plan
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

    Runs each image through one stage per factor: stage ``k`` multiplies
    factor ``k``, as a stack of matrices, with column matrices of its input,
    so the channel digit ``c_k`` and the taps, dilated by the kernel extent
    of the factors after ``k``, are summed in one GEMM per batch.  The
    stages run last factor first, or factor 0 first where that costs less
    (:func:`_cheaper_schedule`): last factor first, the first stage fans out
    every branch of factor ``S-1`` and each later stage also sums its rank
    digit; factor 0 first, each stage but the last fans out its rank digit
    and the last stage sums them all (:func:`_schedule`).  Both orders
    compute the same sums.

    The working activation keeps the digits a stage carries through
    unchanged trailing (layout in :func:`_windows`), so a stage without taps
    reads its columns as a strided view of its input; only stages with taps,
    and factor 0 first the last stage of some ``S >= 3`` sequences, copy a
    window into columns.  Each image's output rows are cut into bands
    (:func:`_bands`) that keep every stage buffer near :data:`_BAND_BYTES`,
    and the whole stage chain runs on one band at a time, from a zero-padded
    slab of input rows.  Stage setup and every buffer are made once per call
    and reused across bands and images.  Numerically equivalent to
    ``conv2d_reference(x, reconstruct(seq), padding)``, and raises
    :class:`ShapeError` in the same cases, with ``seq.target_shape`` as the
    weight shape.
    """
    x = as_tensor(x)
    padding, out_h, out_w = _conv_shape(x.shape, seq.target_shape, padding)
    kh = seq.target_shape[2]
    in_w = x.shape[3] + 2 * padding
    factor0_first, stages = _cheaper_schedule(seq.shapes, seq.ranks)
    bands = _bands(stages, kh, out_h, in_w)
    heights = {rows + kh - 1 for _, rows in bands}
    plans = _plans(seq, factor0_first, stages, x.shape[1], heights, in_w)
    out = np.empty((x.shape[0], seq.target_shape[0], out_h, out_w))
    for b in range(x.shape[0]):
        for y, rows in bands:
            slab, plan = plans[rows + kh - 1]
            _fill_slab(slab, x[b], y - padding, padding)
            for fmat, win, cols, t in plan:
                if win is not None:
                    np.copyto(cols.reshape(win.shape), win)
                np.matmul(fmat, cols, out=t)
            out[b, :, y : y + rows] = t.reshape(-1, rows, out_w)
    return out


def _check_conv_axes(shapes: FactorShapeMatrix) -> None:
    if shapes.num_axes != 4:
        raise ShapeError("FLOP accounting needs factor axes (f, c, h, w)")


def stage_macs_per_branch(shapes: FactorShapeMatrix) -> tuple[int, ...]:
    """Per-output-position MACs of each stage of :func:`sekron_conv2d` run
    last factor first, for one branch of its factor, in factor order.

    Term ``k`` is ``(prod_{j>=k} f_j) (prod_{j<=k} c_j) h_k w_k``: the stage
    that contracts factor ``k`` writes the ``f`` digits of factors ``k ..
    S-1`` for each open channel group, and each output sums over ``c_k h_k
    w_k`` inputs.  It is that stage's MACs per position in
    :func:`_schedule` at rank 1, where every factor has a single branch.
    The terms depend only on the shapes, so a sweep over rank tuples
    computes them once per shape matrix.
    """
    _check_conv_axes(shapes)
    terms = [0] * shapes.num_factors
    for k, batch, m, kdim, n, *_ in _schedule(shapes, (1,) * (shapes.num_factors - 1)):
        terms[k] = batch * m * kdim * n
    return tuple(terms)


def flops_denominator(shapes: FactorShapeMatrix, ranks) -> int:
    """Per-output-position MACs of the factorized convolution run last
    factor first, the denominator of the planner's flops ratio (FR).

    ``sum_k branch_k * term_k``: the branch count of factor ``k``
    (``prod_{j<=k} rank_j``, the last factor sharing the one before it)
    times its term from :func:`stage_macs_per_branch`.  :func:`sekron_conv2d`
    runs factor 0 first only where that order runs fewer MACs per position,
    so this is an upper bound on the per-position MACs of the order it runs.
    Each term counts the outputs of its stage at the final output positions
    only, leaving out the border that a stage before a tapped stage also
    computes; :func:`conv_macs` counts both exactly for a given input size.
    This times the output size equals :func:`conv_macs` when the conv runs
    last factor first and no factor but the last (factor ``S-1``, the first
    stage) has taps.
    """
    stages = stage_macs_per_branch(shapes)
    ranks = _validate_ranks(shapes, ranks)
    return _branch_total(_branch_sizes(ranks), stages)


def conv_macs(seq: KroneckerSequence, input_hw, padding: int = 0) -> int:
    """Exact multiply-accumulate count of :func:`sekron_conv2d`, in the
    stage order it runs.

    ``sum batch * m * kdim * n * out_h_k * out_w_k`` over the bands of
    :func:`_bands` and, in each band, the stages of :func:`_schedule` on its
    slab of ``rows + K_h - 1`` input rows, each at its own output size,
    border included, for the given spatial input size ``(H, W)``, two
    positive integers; anything else raises :class:`ShapeError`.  A stage
    before a tapped stage writes, in every band, the border rows the taps
    read, so splitting an image into bands adds MACs when a factor that
    runs after another has taps.  These are the MACs the GEMMs run.
    """
    _check_conv_axes(seq.shapes)
    h, w = _dims(input_hw, 2, "input size")
    kh, kw = seq.target_shape[2:]
    padding, out_h, _ = _check_conv_geometry(h, w, kh, kw, padding)
    in_w = w + 2 * padding
    _, stages = _cheaper_schedule(seq.shapes, seq.ranks)
    return sum(
        batch * m * kdim * n * (rows + kh - 1 - cut_h) * (in_w - cut_w)
        for _, rows in _bands(stages, kh, out_h, in_w)
        for _, batch, m, kdim, n, *_, cut_h, cut_w in stages
    )

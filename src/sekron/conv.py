"""Dense reference 2D convolution and its reconstruction-free counterpart
for Kronecker-sequence weights.

Both operate on activations of shape ``(batch, channels, height, width)``
with symmetric zero padding and stride 1, and both lower convolution to GEMM
over an im2col window view (Chellapilla et al. 2006), image by image, so an
image's result does not depend on the rest of its batch.  The reference
runs one GEMM per image.

The factorized path runs one stage per factor, last factor first or
factor 0 first.  Both orders sum the same products over the same branch
tree, so both are exact.  A sequence runs factor 0 first only where that
order's GEMMs run strictly fewer MACs per output position and its
windows copy no more elements per position; otherwise, ties included, it
runs last factor first (:func:`_cheaper_schedule`).  One schedule,
:func:`_schedule`, describes every stage of either order as one digit
layout: the outer digits of the stage's input, each kept as a batch
digit, kept as a branch digit that selects a slice of the factor, or
summed, and the order of the factor's axes.  It walks each stage's
digits once and derives from them the stage's GEMM sizes and MACs per
output position, whether it copies its window, and the sizes and strides
of its window; the stage order, the height of the bands of output rows
and the window views and buffers (:func:`_geometry`, :func:`_plans`), and
the exact MAC count, one closed sum over the stages (:func:`conv_macs`),
read those records.  A stage reads its column matrix as a view of its
input unless its factor has taps or a kept digit sits between two summed
ones.  The stage chain runs on one band of output rows at a time, each
band small enough that its stage buffers stay near the L2 cache; every
band has one height but the last, which takes the rest.  Without padding
a band reads its rows straight from the image, and where one band covers
the image the last GEMM writes straight into the result.

What the factor values do not decide, the stage order, the band height and
the shapes and strides of every window and buffer, depends only on the
factor shapes, the ranks, the input's height and width, the padding and the
band size, and is memoized on them (:func:`_geometry`), after the input is
checked.  An entry holds the band height, not a list of bands, so it does
not grow with the image.  A :class:`sekron.decompose.KroneckerSequence` is
checked once, when it is built, and cannot change after, so the memo holds
no factor shapes to check against.  Each call then makes its factor
matrices, from the stage records, and its window views and buffers from
that geometry, once, and every band of every image reuses them.
"""

import collections
import functools
import math
import operator

import numpy as np

from sekron.decompose import KroneckerSequence, _branch_sizes
from sekron.errors import ShapeError
from sekron.tensor_core import FactorShapeMatrix, _as_int, _dims, _instance, as_tensor


# bytes of one float64, the dtype of every stage buffer
_ITEM = np.dtype(np.float64).itemsize

# the most bytes an array can span: numpy counts them in a signed np.intp
_MAX_BYTES = np.iinfo(np.intp).max


def _conv_shape(x_shape, w_shape, padding, what: str = "input"):
    """``(padding, out_h, out_w)`` of a stride-1 convolution of an input of
    shape ``x_shape`` with a weight of shape ``w_shape``: the one check that
    an input fits a weight, for both convolutions and for callers that
    have only the shapes.

    Raises :class:`ShapeError` unless ``w_shape`` has four axes ``(F, C,
    K_h, K_w)`` and ``x_shape`` is four positive ints ``(batch, C, H, W)``
    with the same ``C``.  ``padding`` is read through ``operator.index``, so
    a float or a string raises :class:`ShapeError` instead of being
    truncated or failing deep in numpy; a bool is refused as well, since
    ``True`` would read as 1.  A kernel larger than the padded input is
    refused too, and so is a padded input that no float64 array can
    describe, one of more bytes than ``np.intp`` counts.  Messages about the
    input name it ``what``.
    """
    if len(w_shape) != 4:
        raise ShapeError(f"weights must be (F, C, K_h, K_w), got {len(w_shape)} axes")
    batch, channels, h, w = _dims(x_shape, 4, f"{what} dimensions")
    if channels != w_shape[1]:
        raise ShapeError(
            f"channel mismatch: {what} has {channels} channels, weights expect {w_shape[1]}"
        )
    padding = _as_int(padding, "padding")
    if padding < 0:
        raise ShapeError("padding must be >= 0")
    kh, kw = w_shape[2:]
    in_h, in_w = h + 2 * padding, w + 2 * padding
    if in_h < kh or in_w < kw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded {what} {in_h}x{in_w}")
    if batch * channels * in_h * in_w * _ITEM > _MAX_BYTES:
        raise ShapeError(f"padded {what} {in_h}x{in_w} exceeds any array")
    return padding, in_h - kh + 1, in_w - kw + 1


def conv2d_reference(x, weights, padding: int = 0) -> np.ndarray:
    """Cross-correlation of ``x`` (batch, C, H, W) with a dense
    ``(F, C, K_h, K_w)`` weight tensor, stride 1, as one im2col GEMM.

    ``out[b,f,x,y] = sum_{c,i,j} weights[f,c,i,j] * padded[b,c,i+x,j+y]``,
    computed as ``weights.reshape(F, -1) @ cols`` with the window columns in
    ``(c, i, j)`` order.

    Raises :class:`ShapeError` when ``x`` is not 4-D, ``weights`` is not
    4-D, their channel counts differ, ``padding`` is not a non-negative
    integer (a Python or numpy int, not a bool), the kernel is larger
    than the padded input, or the padded input is larger than any array
    (:func:`_conv_shape`).
    """
    x = as_tensor(x)
    weights = as_tensor(weights)
    padding, out_h, out_w = _conv_shape(x.shape, weights.shape, padding)
    kh, kw = weights.shape[2], weights.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # im2col: columns (c, i, j) by output position (u, v); a tap and an
    # output position step through the padded image alike
    win_shape = (x.shape[0], x.shape[1], kh, kw, out_h, out_w)
    win = np.ndarray(win_shape, buffer=xp, strides=xp.strides + xp.strides[2:])
    cols = win.reshape(x.shape[0], -1, out_h * out_w)
    out = weights.reshape(weights.shape[0], -1) @ cols
    return out.reshape(x.shape[0], weights.shape[0], out_h, out_w)


# one stage of _schedule, fields as its docstring describes them
_Stage = collections.namedtuple("_Stage", "k batch m kdim n macs copy dil_h dil_w cut_h cut_w "
                                "sizes planes batch_shape split axes shape")


def _schedule(shapes: FactorShapeMatrix, ranks, factor0_first: bool = False) -> tuple:
    """The stages of :func:`sekron_conv2d` in execution order, last factor
    first or factor 0 first: the one description of a stage in either order.

    A stage's input is its outer digits, then the ``n`` digits it carries
    through unchanged, then the image.  Each outer digit is kept as a batch
    digit the factor matrix is shared over, kept as a branch digit that
    selects a slice of the factor, or summed by the GEMM.  One
    :data:`_Stage` ``(k, batch, m, kdim, n, macs, copy, dil_h, dil_w,
    cut_h, cut_w, sizes, planes, batch_shape, split, axes, shape)`` per
    stage, a named tuple, where ``k`` is the factor it contracts:

    - the stage runs ``batch`` GEMMs, one per value of its kept digits, of
      an ``m x kdim`` factor matrix with a ``kdim x (n out_h out_w)`` column
      matrix: ``kdim`` is the summed digits times the taps, and ``m`` the
      factor's entries over those; ``macs``, their product ``batch m kdim
      n``, is what those GEMMs run per output position, the one MAC count
      that :func:`_cheaper_schedule` and :func:`conv_macs` read, and
      :func:`sekron.planner._fr_terms` its closed form at rank 1;
    - ``copy`` says its columns are a copied window rather than a view of
      its input: when its factor has taps, or when a kept digit of size > 1
      sits between two summed digits of size > 1, which then cannot merge
      into one axis of a view (a digit of size 1 has no stride to keep);
    - its taps are dilated by ``dil_h x dil_w``, the kernel extent of the
      factors after ``k``, in either order; ``cut_h`` and ``cut_w`` count
      the rows and columns the image has lost to taps by the end of the
      stage, so that on a padded ``in_h x in_w`` input it writes ``(in_h -
      cut_h) x (in_w - cut_w)`` positions: a stage whose factor has taps
      shrinks the image, so every stage before it writes the border those
      taps read;
    - ``sizes``, ``planes`` and ``batch_shape`` lay out the stage's window
      view, which lists the outer digits it keeps, in input order, then
      those it sums, then its taps, the digits it carries and the output
      positions, so the row-major reshape of the window to ``batch_shape +
      (kdim, n out_h out_w)`` is the column matrix; where the stage does
      not copy, that reshape is a view of its input.  ``sizes`` and
      ``planes`` are the window's outer digits and their strides in image
      planes, and ``batch_shape`` the sizes of the kept digits;
    - ``split``, ``axes`` and ``shape`` make the stage's factor matrix from
      factor ``k``: its branch axis split into the ranks, ``split = (r_0 ..
      r_k) + rows[k]`` with ``r_{S-1} = 1``, transposed to ``axes``, copied
      and reshaped to ``shape``.  ``axes`` is the order the factor's axes
      ``(r_0 .. r_k, f_k, c_k, h_k, w_k)`` take in its matrix: the branch
      digits, the rows, then the summed digits and the taps.  ``shape`` is
      ``shared + (m, kdim)``, where ``shared`` stacks the matrix over the
      kept digits: the branch digits, and size 1 on the batch digits it is
      shared over.

    Last factor first, the outer digits of the stage of factor ``k`` are
    ``(G, c_k, r_k, Q)``: the open channel groups ``G = c_0 .. c_{k-1}``,
    kept as batch digits, the channel digit and rank it sums, and the
    surviving branches ``Q = r_{k-1} .. r_0``, kept as branch digits; it
    carries the ``f`` digits already produced and writes rows ``f_k``.  The
    first stage, ``k = S-1``, has ``r_k = Q = 1`` and fans out every branch
    into rows ``(r_{S-2} .. r_0, f_{S-1})``.  Factor 0 first they are
    ``(f_0, r_0, .., f_{k-1}, r_{k-1}, c_k)``, and the stage carries the
    open groups ``c_{k+1} .. c_{S-1}``.  Stage ``k < S-1`` sums ``c_k`` and
    fans out ``r_k`` into rows ``(f_k, r_k)``, one factor slice per branch
    ``r_0 .. r_{k-1}``; the last stage sums every rank digit, so it copies
    when one of ``f_1 .. f_{S-2}`` separates two of them.  The branch
    counts are those the :mod:`sekron.tensor_core` docstring defines
    (:func:`sekron.decompose._branch_sizes`).
    """
    rows = shapes.rows
    s = len(rows)
    # prefix[k]: the branches r_0 .. r_{k-1}
    prefix = (1, *_branch_sizes(ranks))
    ranks = (*ranks, 1)
    # extent[k]: the f, c, h and w extents of factors k .. S-1
    extent = [(1, 1, 1, 1)]
    for row in reversed(rows):
        extent.insert(0, tuple(map(operator.mul, row, extent[0])))
    cut_h = cut_w = 0
    stages = []
    for k in range(s) if factor0_first else reversed(range(s)):
        f_k, c_k, h_k, w_k = rows[k]
        f_after, c_after, dil_h, dil_w = extent[k + 1]
        # the outer digits as (size, role): "g" for a batch digit, "q" for a
        # branch digit, "k" for a summed digit
        if factor0_first:
            role = "q" if k < s - 1 else "k"
            produced = (d for j in range(k) for d in ((rows[j][0], "g"), (ranks[j], role)))
            digits = (*produced, (c_k, "k"))
            n = c_after
            if k < s - 1:
                axes = (*range(k), k + 1, k, k + 2, k + 3, k + 4)
            else:
                axes = (k + 1, *range(k + 1), k + 2, k + 3, k + 4)
        else:
            groups = extent[0][1] // extent[k][1]
            branches = prefix[k] if k < s - 1 else 1
            digits = ((groups, "g"), (c_k, "k"), (ranks[k], "k"), (branches, "q"))
            n = f_after
            axes = (*range(k - 1, -1, -1), k + 1, k + 2, k, k + 3, k + 4)
        kept, summed, shared = [], [], []
        # each digit's stride in image planes: the planes of the digits after it
        stride = n * math.prod(size for size, _ in digits)
        for size, role in digits:
            stride //= size
            if role == "k":
                summed.append((size, stride))
            else:
                kept.append((size, stride))
                shared.append(size if role == "q" else 1)
        sizes, planes = zip(*kept, *summed)
        batch_shape = sizes[: len(kept)]
        batch = math.prod(batch_shape)
        kdim = math.prod(sizes[len(kept) :]) * h_k * w_k
        # the factor is its branch slices of an m x kdim matrix
        m = prefix[k + 1] * f_k * c_k * h_k * w_k // (math.prod(shared) * kdim)
        # the summed digits merge into one axis of a view unless the stage
        # has taps or a kept digit sits between two of them; the roles are
        # those of the digits of size > 1, in input order
        roles = "".join(role for size, role in digits if size > 1)
        copy = h_k * w_k > 1 or roles.strip("gq").strip("k") != ""
        cut_h, cut_w = cut_h + (h_k - 1) * dil_h, cut_w + (w_k - 1) * dil_w
        stages.append(_Stage(k, batch, m, kdim, n, batch * m * kdim * n, copy, dil_h, dil_w, cut_h,
                             cut_w, sizes, planes, batch_shape, ranks[: k + 1] + rows[k], axes,
                             (*shared, m, kdim)))
    return tuple(stages)


def _cheaper_schedule(shapes: FactorShapeMatrix, ranks: tuple[int, ...]):
    """``(factor0_first, stages)``: the stage order :func:`sekron_conv2d`
    runs and its :func:`_schedule`.

    It runs factor 0 first only when that order's GEMMs run strictly fewer
    MACs per output position and its windows copy no more elements per
    position; otherwise, ties included, last factor first.  The copied
    elements are those the schedule copies, not the copy of each band's
    input rows that :func:`_geometry` leaves out of its band budget too.
    """

    def per_position(stages):
        # (MACs, copied elements) per output position
        return (sum(s.macs for s in stages),
                sum(s.batch * s.kdim * s.n for s in stages if s.copy))

    first, last = _schedule(shapes, ranks, True), _schedule(shapes, ranks)
    (macs, copied), (last_macs, last_copied) = per_position(first), per_position(last)
    factor0_first = macs < last_macs and copied <= last_copied
    return factor0_first, first if factor0_first else last


# bytes of the largest stage buffer, columns or GEMM output, of one band of
# output rows: 1 MB, so a band's working set stays near the L2 cache; of
# 256 KB to 4 MB, 1 MB gave the fastest ResNet-18-shaped forward pass
_BAND_BYTES = 2**20

@functools.lru_cache(maxsize=1024)
def _geometry(shapes: FactorShapeMatrix, ranks, h: int, w: int, padding: int, band_bytes: int):
    """Everything about a :func:`sekron_conv2d` call that the factor values
    do not decide: ``(stages, step, slabs)`` for a sequence of these
    ``shapes`` and ``ranks`` on ``h x w`` images with the shapes' channel
    count, zero-padded by ``padding``, in bands of ``band_bytes``
    (:data:`_BAND_BYTES`).

    - ``stages``: the :func:`_schedule` of the stage order
      :func:`_cheaper_schedule` picks, in the order the stages run, each
      record holding how its factor matrix is made;
    - ``step``: the band height.  The image's ``out_h`` output rows run in
      bands of ``step`` rows from rows ``0, step, 2 step ..``, the last band
      taking the rest, ``min(step, out_h - y)`` rows from row ``y``, so
      ``step == out_h`` where one band covers the image.  A band gets as
      many rows as keep every stage buffer of the band, each stage's GEMM
      output and, for a stage that copies its window, its columns, within
      ``band_bytes``, and at least one; the rows are then shared out evenly
      over the bands.  A stage that runs before a stage with taps writes
      the border rows those taps read, so it runs on that many more rows
      than the band has.  The copy of the band's input rows is not counted:
      with padding the zero-padded slab, and without it the first stage's
      columns where they copy only because a band shorter than the image
      cuts apart the planes the stage carries.  That stage has no taps and
      sums ``c_0``, so its columns hold the slab's elements in the slab's
      order;
    - ``slabs``: ``(rows, slab shape, views)`` per band height ``rows``, at
      most two, ``views`` holding ``(copy, window shape, window strides,
      columns shape, output shape)`` per stage, strides in bytes: the window
      is the strided view of the stage input that the stage's ``sizes`` and
      ``planes`` describe, with the taps at their dilation, and the output
      the next stage's input.  A band reads ``rows + K_h - 1`` input rows.
      With padding, the first stage reads them from a zero-padded slab of
      ``slab shape``; without, the slab shape is ``None`` and the first
      stage reads the band's rows straight from the image, whose planes are
      ``h`` rows high.  Its columns are then a view only where the rows of
      its ``n`` carried planes are adjacent: one carried plane, or a band
      the image's height; elsewhere ``copy`` is set and the window is
      copied.

    Only shapes, strides, flags and the band height, never arrays, factor
    values, the shapes the factors must have or a list of bands, so an entry
    does not grow with the image and one entry serves every batch size and
    every sequence of these shapes and ranks.  Memoized on all six
    arguments, at most 1,024 entries; callers check the input and padding
    first, with :func:`_conv_shape`, so ``padding`` is an int, and take
    ``shapes`` and ``ranks`` from a sequence, whose ranks are a tuple of
    ints.
    """
    _, stages = _cheaper_schedule(shapes, ranks)
    kh = shapes.target_shape[2]
    in_w = w + 2 * padding
    out_h = fit = h + 2 * padding - kh + 1
    for s in stages:
        per_row = max(s.m, s.kdim if s.copy else 0) * s.batch * s.n * (in_w - s.cut_w) * _ITEM
        # the stage's border: its output rows for a one-row band, less one
        fit = min(fit, band_bytes // per_row - (kh - 1 - s.cut_h))
    step = -(-out_h // -(-out_h // max(fit, 1)))
    slabs = []
    # the band height and the last band's
    for rows in sorted({step, (out_h - 1) % step + 1}):
        in_h = rows + kh - 1
        views = []
        # the rows and columns of the planes of the stage's input
        stage_h, stage_w = in_h if padding else h, in_w
        for s in stages:
            next_h, next_w = in_h - s.cut_h, in_w - s.cut_w
            s_h = stage_w * _ITEM
            s_f = stage_h * s_h
            shape = s.sizes + shapes.rows[s.k][2:] + (s.n, next_h, next_w)
            strides = (*(p * s_f for p in s.planes), s.dil_h * s_h, s.dil_w * _ITEM, s_f, s_h, _ITEM)
            cols_shape = s.batch_shape + (s.kdim, s.n * next_h * next_w)
            copy = s.copy or (s.n > 1 and stage_h * stage_w != next_h * next_w)
            views.append((copy, shape, strides, cols_shape, s.batch_shape + (s.m, cols_shape[-1])))
            stage_h, stage_w = next_h, next_w
        slab = (shapes.target_shape[1], in_h, in_w) if padding else None
        slabs.append((rows, slab, tuple(views)))
    return stages, step, tuple(slabs)


def _plans(seq: KroneckerSequence, stages, slabs):
    """What :func:`sekron_conv2d` runs on a band, for the ``stages`` and
    ``slabs`` of its :func:`_geometry`: ``{rows: (slab, first, plan)}`` per
    band height ``rows``.

    ``slab`` is a zero array that the band's input rows are written into,
    or ``None`` without padding.  ``plan`` lists, stage by stage, ``[factor
    matrix, window, columns, output]``; the GEMM ``output = factor matrix @
    columns`` is the next stage's input.  ``window`` is ``None`` where the
    stage does not copy and ``columns`` is the window reshaped, a view of
    the stage input; otherwise ``columns`` is a buffer the window is copied
    into first.  Without a slab the first stage reads each band's rows of
    the image, so its window, where it copies, or else its columns are left
    ``None`` for the caller to make per band from ``first``, the stage's
    view in :func:`_geometry`.  Every array is made once per call, the
    factor matrices once for both heights, straight from the stage records,
    so every band of a call reuses the same memory.  It compares no shapes:
    the sequence's constructor has checked them.
    """
    fmats = [
        np.ascontiguousarray(seq.factors[s.k].reshape(s.split).transpose(s.axes)).reshape(s.shape)
        for s in stages
    ]
    plans = {}
    for rows, slab_shape, views in slabs:
        # zeros, so the padding columns, which no band writes, stay zero
        t = slab = None if slab_shape is None else np.zeros(slab_shape)
        plan = []
        for fmat, (copy, win_shape, strides, cols_shape, out_shape) in zip(fmats, views):
            win = cols = None
            if copy:
                cols = np.empty(cols_shape)
            if t is not None:
                win = np.ndarray(win_shape, buffer=t, strides=strides)
                if not copy:
                    win, cols = None, win.reshape(cols_shape)
            t = np.empty(out_shape)
            plan.append([fmat, win, cols, t])
        plans[rows] = slab, views[0], plan
    return plans


def _fill_slab(slab, image, top: int, padding: int) -> None:
    """Write image rows ``top ..`` into ``slab`` from column ``padding`` on,
    and zeros into its rows outside the image.  Its other columns are
    padding, zero since the slab was made."""
    h, w = image.shape[1:]
    first = max(top, 0)
    last = max(min(top + slab.shape[1], h), first)
    if first > top:
        slab[:, : first - top] = 0
    if last - top < slab.shape[1]:
        slab[:, last - top :] = 0
    slab[:, first - top : last - top, padding : padding + w] = image[:, first:last]


def sekron_conv2d(x, seq: KroneckerSequence, padding: int = 0) -> np.ndarray:
    """Convolve without materializing the composed weight tensor.

    Runs each image through one stage per factor: stage ``k`` multiplies
    factor ``k``, as a stack of matrices, with column matrices of its input,
    so the digits the stage sums, among them the channel digit ``c_k``, and
    the taps, dilated by the kernel extent of the factors after ``k``, are
    summed in one GEMM per value of the digits it keeps.  The stages run
    last factor first, or factor 0 first where that costs less
    (:func:`_cheaper_schedule`); both orders compute the same sums.

    Each stage is one digit layout of :func:`_schedule`: the outer digits of
    its input, kept or summed, and its factor's axis order.  The working
    activation keeps the digits a stage carries through unchanged trailing,
    so a stage reads its columns as a strided view of its input unless its
    factor has taps or a kept digit sits between two digits it sums; then
    it copies a window into columns.  Each image's output rows are cut into
    bands of one height, the last band taking the rest, that keep every
    stage buffer near :data:`_BAND_BYTES` (:func:`_geometry`), and the
    whole stage chain runs on one band at a time.  With padding, each
    band's input rows are first written into a zero-padded slab; with
    ``padding=0`` no slab is filled, and the first stage reads the band's
    rows straight from ``x``, as a view where its columns are one, else
    copying its window from ``x``.  Where one band covers the image, the
    last GEMM writes straight into the image's rows of the result;
    otherwise each band's last output is copied there.

    After ``x`` is read, ``seq`` that is no :class:`KroneckerSequence`
    raises :class:`ShapeError`, before any field of it is read; then
    ``padding`` is checked.  Everything the factor values do not decide
    (stage order, band height, window and buffer shapes and strides) is
    then read from a memo keyed on ``seq.shapes``, ``seq.ranks``, the
    input's height and width, the padding and :data:`_BAND_BYTES`
    (:func:`_geometry`, at most 1,024 entries); the batch size is not in
    the key.  The memo holds no arrays and no factor values: each call
    makes its factor matrices from ``seq.factors`` as they are then, and
    its buffers, once (:func:`_plans`), and reuses them across bands and
    images.  Numerically equivalent to ``conv2d_reference(x,
    reconstruct(seq), padding)``, and raises :class:`ShapeError` in the
    same cases, with ``seq.target_shape`` as the weight shape.
    """
    x = as_tensor(x)
    ranks = _instance(seq, KroneckerSequence, "sequence").ranks
    padding, out_h, out_w = _conv_shape(x.shape, seq.target_shape, padding)
    stages, step, slabs = _geometry(seq.shapes, ranks, *x.shape[2:], padding, _BAND_BYTES)
    plans = _plans(seq, stages, slabs)
    # made after the buffers: made first, it ran the 128x128k3 layer about
    # 10% slower at batch 1 (the allocator then gave out other memory)
    out = np.empty((x.shape[0], seq.target_shape[0], out_h, out_w))
    for b in range(x.shape[0]):
        for y in range(0, out_h, step):
            # min(step, out_h - y), without the call
            rows = step if y + step <= out_h else out_h - y
            slab, first, plan = plans[rows]
            if slab is None:
                # the first stage reads the band's rows straight from the image
                copy, win_shape, strides, cols_shape, _ = first
                win = np.ndarray(win_shape, buffer=x[b], offset=y * x.strides[2], strides=strides)
                if copy:
                    plan[0][1] = win
                else:
                    plan[0][2] = win.reshape(cols_shape)
            else:
                _fill_slab(slab, x[b], y - padding, padding)
            if step == out_h:
                # the last GEMM writes straight into the image's rows of the result
                plan[-1][3] = out[b].reshape(plan[-1][3].shape)
            for fmat, win, cols, t in plan:
                if win is not None:
                    np.copyto(cols.reshape(win.shape), win)
                np.matmul(fmat, cols, out=t)
            if step < out_h:
                out[b, :, y : y + rows] = t.reshape(-1, rows, out_w)
    return out


def conv_macs(seq: KroneckerSequence, input_hw, padding: int = 0) -> int:
    """Exact multiply-accumulate count of :func:`sekron_conv2d`, in the
    stage order it runs.

    ``sum macs * out_h_k * out_w_k`` over the bands of :func:`_geometry`
    and, in each band, the stages of :func:`_schedule` on its ``rows + K_h
    - 1`` input rows, each at its own output size, border included, for the
    given spatial input size ``(H, W)``, two positive integers
    (:func:`sekron.tensor_core._dims`); anything else, a size that is not
    iterable included, a bad ``padding``, one that pads the input past any
    array (:func:`_conv_shape`), and a sequence whose factors do not have
    the four axes ``(f, c, h, w)``, raises :class:`ShapeError`, as does
    ``seq`` that is no :class:`KroneckerSequence`.  A stage before
    a tapped stage writes, in every band, the border rows the taps read, so
    splitting an image into bands adds MACs when a factor that runs after
    another has taps.  These are the MACs the GEMMs run.

    The bands' rows sum to ``out_h``, so over ``n`` bands the count is one
    closed sum over the stages, ``sum macs (in_w - cut_w) (out_h + n (K_h - 1
    - cut_h))`` on the padded width ``in_w``, and takes no time that grows
    with the image.
    """
    h, w = _dims(input_hw, 2, "input size dimensions")
    ranks = _instance(seq, KroneckerSequence, "sequence").ranks
    # a weight without a channel axis fails _conv_shape's weight check
    x_shape = (1, *seq.target_shape[1:2], h, w)
    padding, out_h, _ = _conv_shape(x_shape, seq.target_shape, padding)
    kh = seq.target_shape[2]
    in_w = w + 2 * padding
    stages, step, _ = _geometry(seq.shapes, ranks, h, w, padding, _BAND_BYTES)
    bands = -(-out_h // step)
    return sum(s.macs * (in_w - s.cut_w) * (out_h + bands * (kh - 1 - s.cut_h)) for s in stages)

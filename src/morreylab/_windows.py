"""Array kernels shared by every cube-family sweep, in any dimension.

These are the hot loops of the package: every norm, maximal operator, and
Muckenhoupt constant reduces to window sums, window extrema, or dyadic block
sums over cell arrays.  Two orders are fixed here, and every reported value
depends on them bit for bit:

- **Sum order.**  Box sums come from an integral image with the terms in the
  order P[hi,hi] - P[lo,hi] - P[hi,lo] + P[lo,lo], where axis 0 takes its
  lower end first (`window_sums_2d`).  Dyadic block sums reshape and sum all
  of a block's axes at once (`level_sums`); summing one axis at a time would
  round differently.  Only extrema, which are exact, are taken one axis at a
  time (`per_axis`).
- **Tie order.**  `ArgSup` keeps the first maximum of each block of values
  (row-major) and replaces the best only on strict improvement.  Fed sides
  ascending and start lists in order, ties resolve to the smallest cube
  address.

The sum kernels and the arg-sup take leading batch axes: the prefix-sum and
window-sum kernels slice with `...`, `level_sums` reshapes the last `ndim`
axes, and `ArgSup` keeps one best per item.  Each item's entries come from
its own values by the same operations in the same order as an unbatched
call.  Per item, `ArgSup` picks the first block whose maximum is the largest,
which is the block a strict-improvement sweep keeps, and within it the first
maximum in row-major order, so each item's ties resolve among its own
values only: stacking many same-shape inputs changes no value and no
witness.

The prefix-sum and window-sum kernels exist once per dimension, because the
1D forms are cheaper; `window_kernels` picks them once per call.

Two kernels give the aligned M_alpha, the per-cell max over every window
covering a cell.  In 1D `covering_pair_max` takes all window start/end pairs
in one pass.  In 2D a cube's one side ties the axes together, so the sweep
goes one side length at a time: `covering_window_extreme` per axis, over the
sparse-table `sliding_extreme` (which the A_p minima use as well).  Both
multiply the same per-width coefficient into the same window sums, and a
max is exact, so they agree bit for bit; the coefficients are built with
Python's scalar `**`, because `np.power` differs from it in the last bit on
some inputs (AVX-512 hosts).
"""

from __future__ import annotations

import itertools

import numpy as np


def prefix_sum_1d(values: np.ndarray) -> np.ndarray:
    """P with P[..., i] = sum(values[..., :i]) along the last axis (leading
    axes are a batch); length N+1 there."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,), dtype=np.float64)
    np.cumsum(values, axis=-1, out=out[..., 1:])
    return out


def window_sums_1d(prefix: np.ndarray, width: int) -> np.ndarray:
    """Sums over every window [i, i+width) of the last axis; length N-width+1."""
    return prefix[..., width:] - prefix[..., :-width]


def prefix_sum_2d(values: np.ndarray) -> np.ndarray:
    """Integral image of the last two axes with a zero border; shape
    (..., N0+1, N1+1)."""
    out = np.zeros(values.shape[:-2] + (values.shape[-2] + 1, values.shape[-1] + 1),
                   dtype=np.float64)
    np.cumsum(np.cumsum(values, axis=-2), axis=-1, out=out[..., 1:, 1:])
    return out


def window_sums_2d(prefix: np.ndarray, width: int) -> np.ndarray:
    """Sums over every width x width window of the last two axes; shape
    (..., N0-width+1, N1-width+1)."""
    w = width
    return (prefix[..., w:, w:] - prefix[..., :-w, w:] - prefix[..., w:, :-w]
            + prefix[..., :-w, :-w])


def window_kernels(ndim: int):
    """The (prefix_sum, window_sums) kernels of one dimension."""
    if ndim == 1:
        return prefix_sum_1d, window_sums_1d
    return prefix_sum_2d, window_sums_2d


def level_sums(values: np.ndarray, level: int, ndim: int) -> np.ndarray:
    """Sums over the dyadic blocks of one level: 2^level blocks along each of
    the last `ndim` axes (leading axes are a batch)."""
    k = 1 << level
    s = values.shape[-1] // k
    if s == 2 and ndim == 1:
        # a pair adds as a + b either way; slicing is ~4x faster than reducing
        # a length-2 axis, and the content DP pools pairs at every level
        return values[..., 0::2] + values[..., 1::2]
    lead = values.ndim - ndim
    blocks = values.reshape(values.shape[:lead] + (k, s) * ndim)
    return blocks.sum(axis=tuple(range(lead + 1, lead + 2 * ndim, 2)))


def broadcast_level(vals: np.ndarray, side: int) -> np.ndarray:
    """A per-block array of one dyadic level as a per-cell array: every entry
    repeated `side` times along every axis."""
    for axis in range(vals.ndim):
        vals = np.repeat(vals, side, axis=axis)
    return vals


def tripled_sums(block: np.ndarray) -> np.ndarray:
    """Sum of each block with its (clipped) neighbours: the integral over 3Q.
    The 3^n terms are added in row-major offset order."""
    padded = np.zeros(tuple(m + 2 for m in block.shape), dtype=block.dtype)
    padded[(slice(1, -1),) * block.ndim] = block
    out = np.zeros_like(block)
    for offset in itertools.product(range(3), repeat=block.ndim):
        out += padded[tuple(slice(d, d + m) for d, m in zip(offset, block.shape))]
    return out


class ArgSup:
    """Running arg-sup of a batch of items over blocks of values, offered in
    sweep order.

    `offer(vals, key)` takes one block per item, shape (batch,) + block shape,
    and keeps only each item's block maximum.  `best()` then gives each item's
    best value and the first offer attaining it, which is the winner of a
    sweep that replaces its best only on strict improvement; a block holding
    a NaN never wins (its maximum is NaN), just as a NaN never improves.
    Within the winning block the winner is the first maximum in row-major
    order, `first_max` of the block's values, which the caller regenerates:
    for one winning block per item that costs less than an arg-max of every
    block.  Each item's result depends on its own values only, so it is the
    same in any batch.
    """

    __slots__ = ("keys", "_maxima")

    def __init__(self) -> None:
        self.keys: list = []
        self._maxima: list[np.ndarray] = []

    def offer(self, vals: np.ndarray, key) -> None:
        self._maxima.append(vals.reshape(vals.shape[0], -1).max(axis=1))
        self.keys.append(key)

    def best(self) -> tuple[np.ndarray, np.ndarray]:
        """Per item, the best value and the index of its offer (-1, with value
        -inf, when no value is above -inf)."""
        maxima = np.stack(self._maxima)
        maxima[np.isnan(maxima)] = -np.inf
        block = np.argmax(maxima, axis=0)
        value = maxima[block, np.arange(maxima.shape[1])]
        block[~(value > -np.inf)] = -1
        return value, block


def first_max(vals: np.ndarray) -> np.ndarray:
    """Per item, the flat index of the first maximum of its block (row-major)."""
    return np.argmax(vals.reshape(vals.shape[0], -1), axis=1)


def sliding_extreme(arr: np.ndarray, width: int, kind: str = "max") -> np.ndarray:
    """Extreme over every window of `width` consecutive entries along axis 0.

    Uses a doubling (sparse-table) scheme: O(len * log width) work, exact.
    Result has length arr.shape[0] - width + 1 along axis 0.
    """
    if width < 1 or width > arr.shape[0]:
        raise ValueError("window width out of range")
    op = np.maximum if kind == "max" else np.minimum
    if width == 1:
        return arr.copy()
    level = width.bit_length() - 1  # largest power of two <= width
    table = arr
    step = 1
    for _ in range(level):
        table = op(table[:-step], table[step:])
        step *= 2
    # windows of length `width` = union of two windows of length 2^level
    off = width - step
    if off == 0:
        return table
    return op(table[: table.shape[0] - off], table[off:])


def covering_window_extreme(window_vals: np.ndarray, width: int, n_cells: int,
                            kind: str = "max") -> np.ndarray:
    """Per-cell extreme of window values over all windows covering the cell.

    `window_vals[i]` belongs to the window [i, i+width); cell c is covered by
    windows with i in [c-width+1, c] clipped to [0, n_cells-width].  Out-of-range
    slots are padded with the identity for the chosen extreme.
    """
    pad_val = -np.inf if kind == "max" else np.inf
    if window_vals.shape[0] != n_cells - width + 1:
        raise ValueError("need one window value per start in [0, n_cells - width]")
    pad_shape = (width - 1,) + window_vals.shape[1:]
    padded = np.concatenate([
        np.full(pad_shape, pad_val),
        window_vals,
        np.full(pad_shape, pad_val),
    ], axis=0)
    return sliding_extreme(padded, width, kind=kind)


# window starts per block of covering_pair_max: a (32, N) float buffer is 1 MB
# at N = 4096, while 64 rows raised the peak RSS of a whole 1D sparse fuzz run
# by about 6 % for a small speed gain
_PAIR_BLOCK = 32


def covering_pair_max(prefix: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Per-cell max of coef[j-i] * (prefix[j] - prefix[i]) over the windows
    [i, j) that cover the cell (i <= c < j), for a 1D prefix-sum array.

    One pass over start/end pairs, `_PAIR_BLOCK` starts at a time.  For the cells
    from the block's last start on, a window is covering exactly when its end
    is past the cell, so a reverse running max of the block's column maxima
    serves them all.  The block's own cells read the square of ends up to the
    block's end, with each start's max over the ends past the block carried
    in as its last column: a running max down the starts, then back along
    the ends, leaves cell c's value on the diagonal.  That read takes starts
    <= c and ends > c only, so the pairs with j <= i in the square are never
    read and need no mask.  The coefficients are read through a Toeplitz view
    of `coef` (no gather) into one reused buffer.  Each candidate is the same
    subtraction and product as `coef[s] * window_sums_1d(prefix, s)`, and a max
    is exact, so the result equals the per-width covering sweep bit for bit.
    """
    n = prefix.shape[0] - 1
    if coef.shape[0] != n + 1:
        raise ValueError("need one coefficient per window width 0..N")
    rows = min(_PAIR_BLOCK, n)
    # row r of `toeplitz` holds coef[t + 1 - r] at column t (end j = b0 + 1 + t
    # of the block's start i = b0 + r); the zero pad meets only pairs j < i
    padded = np.concatenate([np.zeros(rows - 1), coef])
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, n)[rows:0:-1]
    buf = np.empty((rows, n))
    out = np.full(n, -np.inf)
    for b0 in range(0, n, rows):
        r = min(rows, n - b0)
        blk = buf[:r, :n - b0]
        np.subtract(prefix[None, b0 + 1:], prefix[b0:b0 + r, None], out=blk)
        np.multiply(toeplitz[:r, :n - b0], blk, out=blk)
        past = blk[:, r - 1:]  # ends j >= b0 + r, past every start of the block
        suffix = np.maximum.accumulate(past.max(axis=0)[::-1])[::-1]
        np.maximum(out[b0 + r:], suffix[1:], out=out[b0 + r:])
        carried = past.max(axis=1)
        inner = blk[:, :r]
        inner[:, r - 1] = carried
        np.maximum.accumulate(inner, axis=0, out=inner)
        np.maximum.accumulate(inner[:, ::-1], axis=1, out=inner[:, ::-1])
        np.maximum(out[b0:b0 + r], inner.diagonal(), out=out[b0:b0 + r])
    return out


def per_axis(kernel, arr: np.ndarray, *args) -> np.ndarray:
    """Apply a kernel that works along axis 0 to every axis in turn (exact for
    extremes, whose value does not depend on the order)."""
    out = kernel(arr, *args)
    for axis in range(1, arr.ndim):
        out = np.swapaxes(kernel(np.swapaxes(out, 0, axis), *args), 0, axis)
    return out

"""Sets as CSR index lists ``(ptr, indices)``, set k being
``indices[ptr[k]:ptr[k + 1]]``, ascending: the rows of a data matrix, a
sampling's support, a block of draws. :func:`_pair_sum` builds every n x n
sum of outer products over them: A'A over the rows of A, and every P
summed from sets, one matrix per call or, given each set's slot, a stack
of them in one call (the identity battery's enumerated P). Every per-set
quadratic form h_S' M_SS h_S is :func:`_quadratic_forms` on a stack of
equal-size sets from :func:`_size_stacks`: O(sum_k |S_k|^2), no sets x n array."""

from __future__ import annotations

import itertools

import numpy as np

# Index pairs of the largest chunk of sets _pair_sum scatters, of the
# largest (sets, |S|, |S|) stack of equal-size sets _size_stacks yields for
# the per-set quadratic forms and restricted_lambda_primes, and entries of
# the largest (matrices, n, n) stack the identity battery sums: the one
# stack budget.
_STACK_ENTRIES = 1 << 16


def _ptr(sizes) -> np.ndarray:
    """CSR row pointer of sets of the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))


def _csr(sets) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, indices)`` of a sequence of sorted index tuples."""
    return _ptr([len(s) for s in sets]), np.fromiter(itertools.chain(*sets), dtype=np.intp)


def _row_of(ptr: np.ndarray) -> np.ndarray:
    """The set number of each index of ``(ptr, indices)``."""
    return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))


def _block_ids(n: int, blocks) -> np.ndarray:
    """Block number of each index of a partition of [n]."""
    out = np.empty(n, dtype=int)
    for b, members in enumerate(blocks):
        out[list(members)] = b
    return out


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``range(starts[k], starts[k] + lengths[k])``, concatenated."""
    ends = np.cumsum(lengths, dtype=np.intp)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def _take(ptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sets ``rows`` of ``(ptr, indices)``, in that order, as CSR."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    if lengths.size and lengths.min() == lengths.max():
        # Sets of one size: a single 2-D gather.
        size = int(lengths[0])
        return np.arange(rows.size + 1) * size, indices[starts[:, None] + np.arange(size)].reshape(-1)
    return _ptr(lengths), indices[_spans(starts, lengths)]


def _filter(ptr: np.ndarray, indices: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, indices)`` with the indices where ``keep`` is false dropped."""
    kept = np.concatenate(([0], np.cumsum(keep, dtype=np.intp)))
    return kept[ptr], indices[keep]


def _scatter(n: int, ptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """(sets, n) bool rows with row k set on set k of ``(ptr, indices)``."""
    masks = np.zeros((len(ptr) - 1, n), dtype=bool)
    masks[_row_of(ptr), indices] = True
    return masks


def _size_stacks(ptr: np.ndarray, indices: np.ndarray):
    """Stacks of the nonempty sets of ``(ptr, indices)`` that share a size s:
    yields (sets, idx) with ``idx[r]`` the indices of set ``sets[r]``, at
    most ``_STACK_ENTRIES`` index pairs (and at least one set) per stack,
    sizes ascending and sets in order within a size."""
    sizes = np.diff(ptr)
    for s in np.unique(sizes[sizes > 0]).tolist():
        rows = np.flatnonzero(sizes == s)
        step = max(1, _STACK_ENTRIES // (s * s))
        for lo in range(0, rows.size, step):
            sets = rows[lo : lo + step]
            yield sets, indices[ptr[sets, None] + np.arange(s)]


def _quadratic_forms(m: np.ndarray, h_s: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """h_S' M_SS h_S for each row S of a stack ``idx`` of :func:`_size_stacks`,
    given ``h_s = h[idx]``. The blocks M_SS are gathered by flat index, which
    is faster than by an index pair."""
    n = m.shape[0]
    return np.einsum("ki,kij,kj->k", h_s, m.reshape(-1)[idx[:, :, None] * n + idx[:, None, :]], h_s)


def _upper_pairs(position: np.ndarray, after: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position pairs (p, q) with p in ``position`` and p <= q < p +
    after[p]: an index and the ones after it in its set."""
    return np.repeat(position, after), _spans(position, after)


def _pair_sum(
    n: int,
    ptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None = None,
    values: np.ndarray | None = None,
    slot: np.ndarray | None = None,
    slots: int = 1,
) -> np.ndarray:
    """sum_k weights[k] 1_{S_k} 1_{S_k}' over the sets of ``(ptr, indices)``
    (unit weights for None), or sum_k a_k a_k' with a_k set k's ``values``
    at its indices: O(sum_k |S_k|^2) work, no BLAS. With ``slot``, set k
    goes into matrix ``slot[k]`` of a (slots, n, n) stack instead, so one
    call sums many matrices: each is the n x n result of a call on its own
    sets alone, bit for bit, and one that receives no set is zero.

    The sets are taken in order, in chunks of consecutive sets that hold at
    most ``_STACK_ENTRIES`` index pairs i <= j (each set ascends; at least
    one set). A chunk of sets of one size is a (sets, size) block of the
    indices; any other chunk lists, for each index, the indices after it in
    its set. Each pair's term (1, the set's weight, or the product
    values[p] * values[q]) is added in place by ``np.add.at``, in pair
    order, so every entry is summed in set order from zero whatever the
    chunk size, in O(pairs) per chunk; unit counts are exact integers up to
    2^53. The entries below the diagonal mirror those above: the result is
    exactly symmetric and a function of the inputs alone.
    """
    sizes = np.diff(ptr)
    half = sizes * (sizes + 1) // 2
    ends = np.cumsum(half)
    out = np.zeros(slots * n * n)
    # Each set's offset into the flat stack.
    base = None if slot is None else np.asarray(slot, dtype=np.intp) * (n * n)
    lo = 0
    while lo < sizes.size:
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _STACK_ENTRIES, "right")))
        own, start, stop = sizes[lo:hi], ptr[lo], ptr[hi]
        if own.min() == own.max():
            block = indices[start:stop].reshape(hi - lo, -1)
            column = np.arange(block.shape[1])
            first, second = _upper_pairs(column, block.shape[1] - column)
            pairs = block[:, first] * n + block[:, second]
            if base is not None:
                pairs += base[lo:hi, None]
            if values is not None:
                held = values[start:stop].reshape(hi - lo, -1)
                terms = (held[:, first] * held[:, second]).reshape(-1)
        else:
            entry = np.arange(start, stop)
            first, second = _upper_pairs(entry, np.repeat(ptr[lo + 1 : hi + 1], own) - entry)
            pairs = indices[first] * n + indices[second]
            if base is not None:
                pairs += np.repeat(base[lo:hi], half[lo:hi])
            if values is not None:
                terms = values[first] * values[second]
        if values is None:
            terms = 1.0 if weights is None else np.repeat(weights[lo:hi], half[lo:hi])
        np.add.at(out, pairs.reshape(-1), terms)
        lo = hi
    # Without slots the result owns a plain (n, n) array: a view into a
    # one-matrix stack measured about 8% slower downstream (the Monte-Carlo
    # P and quadratic checks of the monte-carlo benchmark).
    upper = out.reshape((n, n) if slot is None else (slots, n, n))
    # Each entry off the diagonal is zero on one side, so the sum is exact;
    # the diagonal (every (n + 1)-th entry of a matrix) is set aside first,
    # as doubling it could overflow.
    diagonal = out.reshape(slots, n * n)[:, :: n + 1]
    kept = diagonal.copy()
    diagonal[...] = 0.0
    full = upper + np.swapaxes(upper, -1, -2)
    full.reshape(slots, n * n)[:, :: n + 1] = kept
    return full

"""Sparse data matrices in triplet form, their row supports and column norms.

The text format is one header line ``m n nnz`` followed by nnz lines
``row col value`` with 1-based indices; lines starting with '%' are comments.
Duplicate (row, col) pairs are rejected rather than summed - silent summation
hides data errors. Explicit zeros are dropped after the duplicate check since
they never contribute to supports or norms.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import config, csr
from .errors import ParseError, ValidationError, _is_int


@dataclass(frozen=True)
class DataMatrix:
    """m-by-n real matrix stored as (row, col, value) triplets.

    The triplets are kept in row-major order (by row, then column), which
    makes them compressed sparse rows with pointer :attr:`row_ptr`: row j's
    entries are ``cols/values[row_ptr[j]:row_ptr[j + 1]]``. The column-major
    copy (compressed sparse columns) is ``col_ptr``, ``col_rows`` and
    ``col_values``, built on first use. These arrays are the only storage.
    The package reads them directly (the stepsize formulas, the graph checks
    and the products with A and A'), and nothing in it builds a dense m-by-n
    array except :meth:`to_dense`: :func:`assemble_from_pieces` joins its
    maps' triplets. ``row_supports``, ``row_entries`` and
    ``column_entries`` are per-row and per-column Python views split from
    them for callers; no module of the package reads them.

    Every array it holds or builds (triplets, compressed views, column norms,
    Gram matrix) is read-only, so none can fall out of step with the
    triplets; a changed matrix is a new ``DataMatrix``. The dense Gram
    matrix A'A of :meth:`gram` is kept with the matrix when it has at most
    three entries per nonzero (``n**2 <= 3 * nnz``), so it is no larger than
    the triplets and keeping it at most doubles the matrix's memory; a
    larger one is rebuilt on every call.
    """

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if not (_is_int(self.m) and _is_int(self.n) and self.m >= 1 and self.n >= 1):
            raise ValidationError("shape", f"m and n must be positive integers, got {self.m!r} and {self.n!r}")
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValidationError("triplets", "rows, cols and values must be equal-length vectors")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m:
                raise ValidationError("rows", f"row indices must lie in [0, {self.m})")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ValidationError("cols", f"column indices must lie in [0, {self.n})")
            if not np.all(np.isfinite(values)):
                raise ValidationError("values", "non-finite entry")
        # Canonical order by one sort of the (row, col) keys; duplicates are
        # then adjacent. Explicit zeros are dropped after the duplicate check.
        keys = rows * self.n + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValidationError("triplets", "duplicate (row, col) entries are rejected")
        order = order[values[order] != 0.0]
        object.__setattr__(self, "rows", _kept(rows[order]))
        object.__setattr__(self, "cols", _kept(cols[order]))
        object.__setattr__(self, "values", _kept(values[order]))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_triplets(m: int, n: int, triplets: Iterable[tuple[int, int, float]]) -> "DataMatrix":
        items = list(triplets)
        rows = np.array([t[0] for t in items], dtype=np.int64)
        cols = np.array([t[1] for t in items], dtype=np.int64)
        values = np.array([t[2] for t in items], dtype=float)
        return DataMatrix(m, n, rows, cols, values)

    @staticmethod
    def from_dense(a) -> "DataMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValidationError("matrix", "expected a 2-d array")
        rows, cols = np.nonzero(a)
        return DataMatrix(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    # -- compressed row and column storage -----------------------------------

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @cached_property
    def row_ptr(self) -> np.ndarray:
        """CSR pointer (length m + 1) into ``cols`` and ``values``."""
        return _kept(csr._ptr(np.bincount(self.rows, minlength=self.m)))

    @cached_property
    def row_sizes(self) -> np.ndarray:
        """|J_j| for every row j."""
        return _kept(np.diff(self.row_ptr))

    @cached_property
    def _col_order(self) -> np.ndarray:
        # Stable, so each column keeps its entries in row order.
        return _kept(np.argsort(self.cols, kind="stable"))

    @cached_property
    def col_ptr(self) -> np.ndarray:
        """CSC pointer (length n + 1) into ``col_rows`` and ``col_values``."""
        return _kept(csr._ptr(np.bincount(self.cols, minlength=self.n)))

    @cached_property
    def col_rows(self) -> np.ndarray:
        return _kept(self.rows[self._col_order])

    @cached_property
    def col_values(self) -> np.ndarray:
        return _kept(self.values[self._col_order])

    # -- derived quantities --------------------------------------------------

    @cached_property
    def row_supports(self) -> tuple[tuple[int, ...], ...]:
        """J_j: columns with a nonzero entry in row j."""
        cols = self.cols.tolist()
        bounds = self.row_ptr.tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))

    @cached_property
    def column_sq_norms(self) -> np.ndarray:
        """w_i = sum_j A_ji^2; inf, without a warning, where it overflows
        (the stepsize formulas refuse a non-finite w or v)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _kept(np.bincount(self.cols, weights=self.values**2, minlength=self.n))

    @cached_property
    def largest_sq_norm(self) -> float:
        """max_i w_i, kept as the verdict on A'A: A'A is finite exactly when
        this is, as its diagonal w bounds every entry by Cauchy-Schwarz; and
        c * w is finite for a c >= 0 exactly when c * max_i w_i is, as
        rounding is monotone."""
        return float(self.column_sq_norms.max())

    @cached_property
    def scaled_squares_are_finite(self) -> bool:
        """Whether c * A_ji^2 is finite for every entry and every 0 <= c <=
        2 * omega: true when 4 * omega * max A_ji^2 < float max, which leaves
        a factor 2 for the rounding of c."""
        if not self.nnz:
            return True
        largest = float(np.abs(self.values).max())
        return 4.0 * self.max_row_support * largest * largest < sys.float_info.max

    @property
    def max_row_support(self) -> int:
        """omega: degree of partial separability."""
        return int(self.row_sizes.max())

    @cached_property
    def row_entries(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-row (column indices, values) views."""
        cuts = self.row_ptr[1:-1]
        return tuple(zip(np.split(self.cols, cuts), np.split(self.values, cuts)))

    @cached_property
    def column_entries(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-column (row indices, values) views."""
        cuts = self.col_ptr[1:-1]
        return tuple(zip(np.split(self.col_rows, cuts), np.split(self.col_values, cuts)))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.m, self.n))
        a[self.rows, self.cols] = self.values
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        return np.bincount(self.rows, weights=self.values * x[self.cols], minlength=self.m)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A' y."""
        return np.bincount(self.cols, weights=self.values * y[self.rows], minlength=self.n)

    def gram(self) -> np.ndarray:
        """Dense A^T A, read-only; refused beyond ``config.DENSE_EIG_CAP``.

        The cap is checked on every call. The result is built once and kept
        when ``n**2 <= 3 * nnz`` (its 8 n^2 bytes are then no more than the
        24 bytes per nonzero of the triplets); a larger Gram matrix is built
        anew on each call, so it lives only as long as its caller holds it.
        Callers that change it work on a copy.

        It is the index-pair sum :func:`csr._pair_sum` of A's rows: entry
        (a, b), a <= b, adds A_ja A_jb over the rows j in row order into +0.0
        with ``np.add.at`` for any chunk size, and entry (b, a) mirrors it, so
        the result is exactly symmetric.
        """
        cap = config.DENSE_EIG_CAP
        if self.n > cap:
            raise ValidationError("n", f"gram matrix of size {self.n} exceeds dense cap {cap}")
        g = self.__dict__.get("_gram")
        if g is None:
            g = _kept(csr._pair_sum(self.n, self.row_ptr, self.cols, values=self.values))
            if self.n * self.n <= 3 * self.nnz:
                object.__setattr__(self, "_gram", g)
        return g

    def scaled(self, factor: float) -> "DataMatrix":
        return DataMatrix(self.m, self.n, self.rows, self.cols, self.values * factor)

    def with_ridge_rows(self, ridge: float) -> "DataMatrix":
        """Append sqrt(ridge) * e_i rows so the Gram matrix gains ridge * I."""
        if ridge < 0:
            raise ValidationError("ridge", "must be nonnegative")
        if ridge == 0.0:
            return self
        extra = np.arange(self.n, dtype=np.int64)
        return DataMatrix(
            self.m + self.n,
            self.n,
            np.concatenate([self.rows, self.m + extra]),
            np.concatenate([self.cols, extra]),
            np.concatenate([self.values, np.full(self.n, np.sqrt(ridge))]),
        )


def _kept(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array


# ---------------------------------------------------------------------------
# Text format


def write_matrix(data: DataMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{data.m} {data.n} {data.nnz}\n")
        for r, c, v in zip(data.rows, data.cols, data.values):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def read_matrix(path) -> DataMatrix:
    """Parse the triplet text format, reporting 1-based line numbers on errors.

    A file with no '%' whose first line is the header ``m n nnz`` and whose
    other lines ``np.loadtxt`` reads as nnz triplets is parsed in bulk by
    that one call. Any other file is parsed line by line, so both parsers
    accept the same files, give the same arrays and raise the same
    line-numbered errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    bulk = _parse_bulk(text)
    try:
        return _parse_lines(text) if bulk is None else DataMatrix(*bulk)
    except ValidationError as e:
        raise ParseError(str(e)) from e


_TRIPLET = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _parse_bulk(text: str):
    """(m, n, rows, cols, values), with 0-based indices, when the first line
    of ``text`` is the header and ``np.loadtxt`` reads the rest as the
    header's count of triplets with indices of at least 1; otherwise None,
    and the line parser decides. loadtxt splits at the whitespace ``split``
    splits at, skips blank lines and refuses every token that ``int`` or
    ``float`` refuses (and some they accept, such as ``1_0``)."""
    if "%" in text:
        return None
    header, _, body = text.partition("\n")
    try:
        m, n, nnz = (int(t) for t in header.split())
    except ValueError:
        return None
    if body.strip():
        try:
            entries = np.loadtxt(io.StringIO(body), dtype=_TRIPLET, comments=None, ndmin=1)
        except (ValueError, OverflowError):
            return None
    else:
        # No triplets; loadtxt would warn on input without data.
        entries = np.zeros(0, dtype=_TRIPLET)
    if entries.size != nnz or (nnz and min(entries["row"].min(), entries["col"].min()) < 1):
        return None
    return m, n, entries["row"] - 1, entries["col"] - 1, entries["value"]


def _parse_lines(text: str) -> DataMatrix:
    header: tuple[int, int, int] | None = None
    triplets: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 3:
                raise ParseError("header must be 'm n nnz'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]), int(parts[2]))
            except ValueError as e:
                raise ParseError(f"bad header: {e}", lineno) from e
            continue
        if len(parts) != 3:
            raise ParseError("expected 'row col value'", lineno)
        try:
            r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise ParseError(f"bad triplet: {e}", lineno) from e
        if r < 1 or c < 1:
            raise ParseError("row and col are 1-based and must be >= 1", lineno)
        triplets.append((r - 1, c - 1, v))
    if header is None:
        raise ParseError("empty matrix file")
    m, n, nnz = header
    if len(triplets) != nnz:
        raise ParseError(f"header promises {nnz} entries, file has {len(triplets)}")
    return DataMatrix.from_triplets(m, n, triplets)


# ---------------------------------------------------------------------------
# Composite smooth functions


@dataclass(frozen=True)
class ComposedFunction:
    """Sum of gamma_j-smooth terms phi_j(M_j x), each map M_j held as a
    :class:`DataMatrix` (a dense 2-d map is converted once); :meth:`gram`,
    sum_j gamma_j M_j' M_j, sums the maps' Gram matrices under their cap."""

    pieces: tuple[tuple[float, DataMatrix], ...]

    def __post_init__(self):
        pieces = []
        for g, a in self.pieces:
            g = float(g)
            if not isinstance(a, DataMatrix):
                if np.ndim(a) != 2:
                    raise ValidationError("pieces", "each map must be a DataMatrix or a 2-d array")
                a = DataMatrix.from_dense(a)
            if not g > 0:
                raise ValidationError("pieces", "smoothness constants must be positive")
            if pieces and a.n != pieces[0][1].n:
                raise ValidationError("pieces", "all maps must share the column dimension")
            pieces.append((g, a))
        if not pieces:
            raise ValidationError("pieces", "at least one piece required")
        object.__setattr__(self, "pieces", tuple(pieces))

    @property
    def n(self) -> int:
        return self.pieces[0][1].n

    def gram(self) -> np.ndarray:
        return sum(g * a.gram() for g, a in self.pieces)


def assemble_from_pieces(pieces: ComposedFunction) -> DataMatrix:
    """Single data matrix whose Gram matrix is the composite one, from the
    maps' triplets: coordinate-subset indicators (square, ones on the diagonal
    only) give a diagonal matrix, other maps are stacked as sqrt(gamma_j) M_j."""
    parts, n = pieces.pieces, pieces.n
    if all(a.m == n and np.array_equal(a.rows, a.cols) and np.all(a.values == 1.0) for _, a in parts):
        weights = np.zeros(n)
        for g, a in parts:
            weights[a.cols] += g
        idx = np.flatnonzero(weights)
        return DataMatrix(n, n, idx, idx, np.sqrt(weights[idx]))
    tops = np.cumsum([0] + [a.m for _, a in parts])
    rows = np.concatenate([a.rows + top for (_, a), top in zip(parts, tops)])
    cols = np.concatenate([a.cols for _, a in parts])
    values = np.concatenate([np.sqrt(g) * a.values for g, a in parts])
    return DataMatrix(int(tops[-1]), n, rows, cols, values)

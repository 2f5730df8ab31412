import time
import tracemalloc

import numpy as np
import pytest

import esokit as ek
from esokit import config, datamatrix
from esokit.datamatrix import ComposedFunction, read_matrix, write_matrix
from esokit.errors import ParseError, ValidationError


def test_triplet_construction_and_derived_quantities():
    data = ek.DataMatrix.from_triplets(2, 3, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 2.0)])
    assert data.nnz == 3
    assert data.row_supports == ((0, 1), (1,))
    assert data.column_sq_norms == pytest.approx([1.0, 5.0, 0.0])
    assert data.max_row_support == 2
    assert data.gram() == pytest.approx(data.to_dense().T @ data.to_dense())


def test_duplicates_rejected_and_zeros_dropped():
    with pytest.raises(ValidationError, match="duplicate"):
        ek.DataMatrix.from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    data = ek.DataMatrix.from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 0.0)])
    assert data.nnz == 1
    assert data.row_supports == ((0,), ())


def test_out_of_range_indices():
    with pytest.raises(ValidationError, match="row"):
        ek.DataMatrix.from_triplets(2, 2, [(2, 0, 1.0)])
    with pytest.raises(ValidationError, match="col"):
        ek.DataMatrix.from_triplets(2, 2, [(0, 5, 1.0)])


def test_file_round_trip(tmp_path):
    data = ek.DataMatrix.from_triplets(3, 4, [(0, 1, 1.25), (2, 3, -2.0), (1, 0, 0.5)])
    path = tmp_path / "a.mtx"
    write_matrix(data, path)
    again = read_matrix(path)
    assert again.m == 3 and again.n == 4
    assert np.array_equal(again.to_dense(), data.to_dense())


def test_file_parser_tolerates_comments_and_reports_line_numbers(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("% comment\n2 2 2\n1 1 1.0\n% another\n2 2 oops\n")
    with pytest.raises(ParseError, match="line 5"):
        read_matrix(path)

    path.write_text("2 2 3\n1 1 1.0\n2 2 2.0\n")
    with pytest.raises(ParseError, match="promises 3"):
        read_matrix(path)


def _reference_read(path) -> ek.DataMatrix:
    """The line-by-line parser read_matrix falls back to, as a reference."""
    header = None
    triplets = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    try:
        return ek.DataMatrix.from_triplets(m, n, triplets)
    except ValidationError as e:
        raise ParseError(str(e)) from e


def _outcome(read, path):
    try:
        data = read(path)
    except ParseError as e:
        return ("error", str(e), e.line)
    return (data.m, data.n, data.rows.tolist(), data.cols.tolist(), data.values.tolist())


@pytest.mark.parametrize(
    "text, bulk",
    [
        ("3 2 3\n1 1 1.5\n2 2 -2.0\n3 1 1e-3\n", True),
        ("3 2 3\n1 1 1.5\n2 2 -2.0\n3 1 1e-3", True),  # no final line break
        ("3 2 3\r\n1\t1 1.5\r\n2 2   -2.0\r\n  3 1 1e-3  \r\n", True),
        ("2 2 0\n", True),
        ("2 2 2\n1 1 0.0\n2 1 4.0\n", True),  # an explicit zero is dropped
        ("% comment\n2 2 2\n1 1 1.0\n% another\n2 2 3.0\n", False),
        ("2 2 2\n1 1 1.0 % trailing\n2 2 3.0\n", False),
        ("2 2 2\n\n1 1 1.0\n2 2 3.0\n", True),  # loadtxt skips blank lines
        ("2 2 2\n1 1 1.0\n2 2 3.0\n\n  \n", True),
        ("2 2 2\n1.0 1 1.0\n2 2 3.0\n", False),
        ("2 2 2\n1 2.0 1.0\n2 2 3.0\n", False),
        ("2 2 2\n0 1 1.0\n2 2 3.0\n", False),
        ("2 2 2\n1 -1 1.0\n2 2 3.0\n", False),
        ("2 2 3\n1 1 1.0\n2 2 3.0\n", False),  # the header promises more
        ("2 2 1\n1 1 1.0\n2 2 3.0\n", False),  # and fewer
        ("2 2 2\n1 1 oops\n2 2 3.0\n", False),
        ("2 2 2\n1 1\n1.0 2 2 3.0\n", False),  # right token count, wrong lines
        ("2 2 2\n1 1 1.0 9 2 2 3.0\n", False),  # seven tokens on one line
        ("2 2 2 1\n1 1 1.0\n2 2\n", False),
        ("2 x 2\n1 1 1.0\n2 2 3.0\n", False),
        ("", False),
        ("2 2 2\n1 1 1.0\n1 1 3.0\n", True),  # duplicate: a ValidationError
        ("2 2 2\n1 1 nan\n2 2 3.0\n", True),  # non-finite: a ValidationError
        ("2 2 1\n3 1 1.0\n", True),  # out of range: a ValidationError
        ("0 2 0\n", True),
        ("2 2 1\n99999999999999999999 1 1.0\n", False),
        ("2 2 1\n1 1 1\x00\n", False),
        # Tokens loadtxt refuses; int() or float() accept all but nan(1).
        ("2 2 1\n1_0 1 1.0\n", False),
        ("2 2 1\n1 1 1e1_0\n", False),
        ("2 2 1\n\u0661 1 1.0\n", False),
        ("2 2 1\n1 \uff11 1.0\n", False),
        ("2 2 1\n1 1 nan(1)\n", False),
    ],
)
def test_bulk_parse_matches_the_line_parser(tmp_path, text, bulk):
    path = tmp_path / "a.mtx"
    path.write_bytes(text.encode("utf-8"))
    assert (datamatrix._parse_bulk(path.read_text(encoding="utf-8")) is not None) == bulk
    try:
        expected = _outcome(_reference_read, path)
    except OverflowError:
        with pytest.raises(OverflowError):
            read_matrix(path)
        return
    assert _outcome(read_matrix, path) == expected


def test_bulk_parse_reads_a_written_matrix(tmp_path):
    rng = ek.rng_for_stream(71, 0)
    a = np.where(rng.random((40, 30)) < 0.2, rng.standard_normal((40, 30)), 0.0)
    data = ek.DataMatrix.from_dense(a)
    path = tmp_path / "a.mtx"
    write_matrix(data, path)
    assert datamatrix._parse_bulk(path.read_text(encoding="utf-8")) is not None
    assert _outcome(read_matrix, path) == _outcome(_reference_read, path)
    assert np.array_equal(read_matrix(path).to_dense(), a)


def test_ridge_rows_extend_gram():
    data = ek.DataMatrix.from_triplets(2, 3, [(0, 0, 1.0), (1, 2, 2.0)])
    augmented = data.with_ridge_rows(0.25)
    assert augmented.m == 5
    assert augmented.gram() == pytest.approx(data.gram() + 0.25 * np.eye(3))
    # Augmented rows are singleton supports.
    assert all(len(s) == 1 for s in augmented.row_supports[2:])


def test_assemble_partial_separability():
    # Coordinate-subset indicator maps with overlap on the middle coordinate.
    m1 = np.diag([1.0, 1.0, 0.0])
    m2 = np.diag([0.0, 1.0, 0.0])
    data = ek.assemble_from_pieces(ComposedFunction(((1.0, m1), (3.0, m2))))
    dense = data.to_dense()
    assert dense.shape == (3, 3)
    assert dense == pytest.approx(np.diag([1.0, 2.0, 0.0]))


def test_assemble_single_map():
    data = ek.assemble_from_pieces(ComposedFunction(((4.0, np.eye(3)),)))
    assert data.to_dense() == pytest.approx(2 * np.eye(3))


def test_assemble_row_scaled():
    rows = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
    data = ek.assemble_from_pieces(ComposedFunction(((1.0, rows[0]), (4.0, rows[1]))))
    assert data.to_dense() == pytest.approx(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_assemble_general_stack_has_matching_gram():
    rng = ek.rng_for_stream(41, 0)
    pieces = ComposedFunction(
        tuple((float(rng.uniform(0.5, 2.0)), rng.standard_normal((3, 4))) for _ in range(3))
    )
    data = ek.assemble_from_pieces(pieces)
    assert data.gram() == pytest.approx(pieces.gram())


def test_composed_function_rejects_bad_pieces():
    with pytest.raises(ValidationError, match="positive"):
        ComposedFunction(((0.0, np.eye(2)),))
    with pytest.raises(ValidationError, match="column"):
        ComposedFunction(((1.0, np.eye(2)), (1.0, np.eye(3))))


def _random_composite(rng, indicator: bool):
    """Dense pieces: 1-4 indicator maps (some all-zero, overlapping), or 1-4
    maps with zero rows, zero entries and now and then an all-zero map."""
    n = int(rng.integers(1, 9))
    pieces = []
    for _ in range(int(rng.integers(1, 5))):
        if indicator:
            m = np.diag((rng.random(n) < 0.5).astype(float))
        else:
            m = np.where(rng.random((int(rng.integers(1, 6)), n)) < 0.6, rng.standard_normal((1, n)), 0.0)
            m[rng.random(m.shape[0]) < 0.3] = 0.0
            m *= rng.random() > 0.1
        pieces.append((float(rng.uniform(0.1, 5.0)), m))
    return pieces


def _assembled_densely(pieces) -> ek.DataMatrix:
    """The dense assembly: diag(sqrt(sum_j gamma_j diag(M_j))) for indicator
    maps, else the dense stack of the sqrt(gamma_j) M_j."""
    if all(m.shape[0] == m.shape[1] and not np.any(m - np.diag(np.diag(m))) and np.isin(m, (0.0, 1.0)).all()
           for _, m in pieces):
        weights = np.zeros(pieces[0][1].shape[1])
        for g, m in pieces:
            weights += g * np.diag(m)
        return ek.DataMatrix.from_dense(np.diag(np.sqrt(weights)))
    return ek.DataMatrix.from_dense(np.vstack([np.sqrt(g) * m for g, m in pieces]))


@pytest.mark.parametrize("as_data", ["dense", "data", "mixed"])
def test_assembled_triplets_are_the_dense_assembly_bit_for_bit(as_data):
    rng = np.random.default_rng(71)
    for case in range(200):
        pieces = _random_composite(rng, indicator=case % 2 == 0)
        given = [
            (g, ek.DataMatrix.from_dense(m) if as_data == "data" or (as_data == "mixed" and k % 2) else m)
            for k, (g, m) in enumerate(pieces)
        ]
        data, reference = ek.assemble_from_pieces(ComposedFunction(tuple(given))), _assembled_densely(pieces)
        assert (data.m, data.n) == (reference.m, reference.n)
        for got, want in ((data.rows, reference.rows), (data.cols, reference.cols), (data.values, reference.values)):
            assert got.tobytes() == want.tobytes()


def _no_dense_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("densified")

    monkeypatch.setattr(ek.DataMatrix, "from_dense", staticmethod(refuse))
    monkeypatch.setattr(ek.DataMatrix, "to_dense", refuse)


def test_assembling_data_matrix_pieces_never_densifies(monkeypatch):
    indicator = ek.DataMatrix(4, 4, [0, 2], [0, 2], [1.0, 1.0])
    other = ek.DataMatrix(2, 4, [0, 1, 1], [3, 0, 2], [2.0, -1.0, 0.5])
    _no_dense_path(monkeypatch)
    diagonal = ek.assemble_from_pieces(ComposedFunction(((2.0, indicator), (3.0, indicator))))
    assert diagonal.rows.tolist() == diagonal.cols.tolist() == [0, 2]
    assert diagonal.values.tolist() == [np.sqrt(5.0)] * 2
    stack = ek.assemble_from_pieces(ComposedFunction(((4.0, other), (1.0, indicator))))
    assert (stack.m, stack.n, stack.rows.tolist()) == (6, 4, [0, 1, 1, 2, 4])
    assert stack.values.tolist() == [4.0, -2.0, 1.0, 1.0, 1.0]


def _assemble_and_run_auto(pieces):
    """Traced peak bytes and seconds of assembling ``pieces`` and running
    ``auto`` under tau_nice(n, 16) on the result."""
    tracemalloc.start()
    try:
        start = time.monotonic()
        data = ek.assemble_from_pieces(ComposedFunction(pieces))
        result = ek.compute_v(data, ek.tau_nice(data.n, 16), "auto")
        elapsed = time.monotonic() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(result.v).all()
    return peak, elapsed


def test_indicator_pieces_past_the_dense_cap_assemble_in_little_memory(monkeypatch):
    # Eight overlapping indicator maps at n = 50k; densely each is 20 GB.
    n = 50_000
    maps = [np.arange(start, min(start + 9_000, n)) for start in range(0, 8 * 6_000, 6_000)]
    pieces = tuple((1.0 + k, ek.DataMatrix(n, n, idx, idx, np.ones(idx.size))) for k, idx in enumerate(maps))
    _no_dense_path(monkeypatch)
    peak, elapsed = _assemble_and_run_auto(pieces)
    assert peak < 16 * 2**20 and elapsed < 5.0


def test_stacked_pieces_past_the_dense_cap_assemble_in_little_memory(monkeypatch):
    m, n, nnz = 100_000, 50_000, 250_000
    rng = np.random.default_rng(72)
    pieces = []
    for gamma in (0.5, 2.0):
        keys = rng.choice(m * n, size=nnz, replace=False)
        pieces.append((gamma, ek.DataMatrix(m, n, keys // n, keys % n, rng.standard_normal(nnz))))
    _no_dense_path(monkeypatch)
    peak, elapsed = _assemble_and_run_auto(tuple(pieces))
    assert peak < 128 * 2**20 and elapsed < 20.0


def test_composite_gram_keeps_the_dense_cap(monkeypatch):
    pieces = ComposedFunction(((1.0, np.eye(5)), (2.0, ek.DataMatrix(1, 5, [0], [4], [3.0]))))
    assert np.array_equal(pieces.gram(), np.diag([1.0, 1.0, 1.0, 1.0, 19.0]))
    monkeypatch.setattr(config, "DENSE_EIG_CAP", 4)
    with pytest.raises(ValidationError) as info:
        pieces.gram()
    assert info.value.field == "n"


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((1, 3, 3)), 2.0])
def test_a_map_that_is_not_two_dimensional_is_refused(bad):
    with pytest.raises(ValidationError) as info:
        ComposedFunction(((1.0, np.eye(3)), (1.0, bad)))
    assert info.value.field == "pieces"


def test_canonical_order_is_row_major_from_one_sort():
    rng = np.random.default_rng(31)
    for m, n, nnz in ((7, 5, 20), (50, 40, 600), (1, 9, 9), (9, 1, 9)):
        keys = rng.choice(m * n, size=nnz, replace=False)
        rows, cols = np.divmod(keys, n)
        values = rng.standard_normal(nnz)
        values[rng.random(nnz) < 0.2] = 0.0
        data = ek.DataMatrix(m, n, rows, cols, values)
        keep = values != 0.0
        order = np.lexsort((cols[keep], rows[keep]))
        assert np.array_equal(data.rows, rows[keep][order])
        assert np.array_equal(data.cols, cols[keep][order])
        assert np.array_equal(data.values, values[keep][order])


@pytest.mark.parametrize("second", [2.0, 0.0])
def test_duplicate_pair_is_rejected_even_when_one_copy_is_zero(second):
    with pytest.raises(ValidationError) as info:
        ek.DataMatrix(3, 3, [2, 0, 1, 0], [1, 2, 0, 2], [1.0, 3.0, 4.0, second])
    assert info.value.field == "triplets"


@pytest.mark.parametrize("m, n", [(4.5, 3), (4, 3.0), (True, 3), (4, False), ("4", 3), (np.float64(4.0), 3)])
def test_a_shape_that_is_not_an_integer_pair_is_refused(m, n):
    with pytest.raises(ValidationError) as info:
        ek.DataMatrix(m, n, [0], [1], [1.0])
    assert info.value.field == "shape"


def test_an_integer_shape_of_any_integer_type_is_kept():
    data = ek.DataMatrix(np.int64(4), np.int32(3), [0], [1], [1.0])
    assert (data.m, data.n) == (4, 3) and data.row_ptr.tolist() == [0, 1, 1, 1, 1]


# Every array a matrix holds or builds: its triplets, compressed views and norms.
_KEPT_ARRAYS = ("rows", "cols", "values", "row_ptr", "row_sizes", "_col_order", "col_ptr", "col_rows",
                "col_values", "column_sq_norms")


def test_every_array_a_matrix_holds_or_builds_is_read_only():
    data = ek.DataMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 0.0]])
    fresh = ek.DataMatrix.from_dense(data.to_dense())
    arrays = [getattr(data, name) for name in _KEPT_ARRAYS] + [data.gram()]
    arrays += [a for entry in data.row_entries + data.column_entries for a in entry]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0
    with pytest.raises(ValueError, match="read-only"):
        data.values[:] *= 10
    # So nothing built from the triplets can fall out of step with them.
    for name in _KEPT_ARRAYS:
        assert getattr(data, name).tobytes() == getattr(fresh, name).tobytes()
    assert data.gram().tobytes() == fresh.gram().tobytes()


def test_read_only_triplets_leave_the_callers_arrays_writable():
    rows, cols, values = np.array([1, 0]), np.array([0, 1]), np.array([2.0, 3.0])
    data = ek.DataMatrix(2, 2, rows, cols, values)
    values[0] = 5.0
    assert values.flags.writeable and data.values.tolist() == [3.0, 2.0]
    assert data.scaled(2.0).values.tolist() == [6.0, 4.0]

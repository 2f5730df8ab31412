import numpy as np
import pytest

import esokit as ek
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

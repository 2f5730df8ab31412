"""The sparse core: compressed row/column storage, products with A and A',
the Gram matrix, and a solver that never densifies A.

Each sparse result is compared with a dense reference built from
``to_dense()``; the solver is compared with the dense loop it replaced.
"""

import json
import math

import numpy as np
import pytest

import esokit as ek
from conftest import capped_partition_spec, graph_spec_for
from esokit import config, csr, eso, samplings
from esokit.cli import main
from esokit.datamatrix import DataMatrix, write_matrix


def _with_edge_cases() -> DataMatrix:
    """Empty rows, an empty column, a full row and a full column."""
    rng = np.random.default_rng(5)
    a = np.where(rng.random((9, 7)) < 0.35, rng.standard_normal((9, 7)), 0.0)
    a[2] = 0.0
    a[6] = 0.0
    a[:, 4] = 0.0
    a[0] = rng.standard_normal(7)
    a[:, 1] = rng.standard_normal(9)
    return DataMatrix.from_dense(a)


def _dense_beyond_one_gram_chunk() -> DataMatrix:
    """A full matrix whose entry pairs span several gram chunks."""
    n = 32
    m = 3 * csr._STACK_ENTRIES // (n * (n + 1) // 2) + 3
    return DataMatrix.from_dense(np.random.default_rng(6).standard_normal((m, n)))


MATRICES = {
    "edge-cases": _with_edge_cases,
    "random": lambda: DataMatrix.from_dense(
        np.where(np.random.default_rng(7).random((40, 15)) < 0.2,
                 np.random.default_rng(8).standard_normal((40, 15)), 0.0)
    ),
    "no-entries": lambda: DataMatrix(3, 2, [], [], []),
    "beyond-one-chunk": _dense_beyond_one_gram_chunk,
}


@pytest.mark.parametrize("name", list(MATRICES))
def test_views_products_and_gram_match_dense(name):
    data = MATRICES[name]()
    a = data.to_dense()
    m, n = a.shape
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal(n), rng.standard_normal(m)

    assert np.array_equal(data.row_ptr, np.concatenate(([0], np.cumsum(np.count_nonzero(a, axis=1)))))
    assert np.array_equal(data.col_ptr, np.concatenate(([0], np.cumsum(np.count_nonzero(a, axis=0)))))
    assert data.row_supports == tuple(tuple(np.flatnonzero(row).tolist()) for row in a)
    assert data.max_row_support == max(len(s) for s in data.row_supports)
    for j, (idx, vals) in enumerate(data.row_entries):
        assert np.array_equal(idx, np.flatnonzero(a[j]))
        assert np.array_equal(vals, a[j, idx])
    for i, (idx, vals) in enumerate(data.column_entries):
        assert np.array_equal(idx, np.flatnonzero(a[:, i]))
        assert np.array_equal(vals, a[idx, i])
    assert len(data.row_entries) == m and len(data.column_entries) == n

    np.testing.assert_allclose(data.matvec(x), a @ x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(data.rmatvec(y), a.T @ y, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(data.gram(), a.T @ a, rtol=1e-12, atol=1e-10)
    np.testing.assert_allclose(data.column_sq_norms, np.sum(a * a, axis=0), rtol=1e-12)


def test_gram_chunks_give_the_single_chunk_sums(monkeypatch):
    # Every chunk adds into the one output in row order, so any chunk size
    # gives the bits of a single chunk, and the result is exactly symmetric.
    # A matrix keeps its Gram matrix, so each chunk size gets a fresh matrix,
    # built at the default size (which the larger fixture reads).
    default = csr._STACK_ENTRIES

    def gram(make, pairs):
        data = make()
        monkeypatch.setattr(csr, "_STACK_ENTRIES", pairs)
        try:
            return data.gram()
        finally:
            monkeypatch.setattr(csr, "_STACK_ENTRIES", default)

    for make in (_with_edge_cases, _dense_beyond_one_gram_chunk):
        whole = gram(make, 1 << 62)
        assert np.array_equal(whole, whole.T)
        for pairs in (1, 5, default):
            chunked = gram(make, pairs)
            assert chunked.tobytes() == whole.tobytes(), pairs
            assert np.array_equal(chunked, chunked.T), pairs


def _gram_by_row_pairs(data: DataMatrix) -> np.ndarray:
    """A'A as every entry pair of each row, rows in order, added by np.add.at."""
    g = np.zeros((data.n, data.n))
    for j in range(data.m):
        cols = data.cols[data.row_ptr[j] : data.row_ptr[j + 1]]
        vals = data.values[data.row_ptr[j] : data.row_ptr[j + 1]]
        np.add.at(g, (cols[:, None], cols[None, :]), vals[:, None] * vals[None, :])
    return g


def _ragged_over_several_gram_chunks() -> DataMatrix:
    rng = np.random.default_rng(10)
    a = np.where(rng.random((3000, 200)) < 0.1, rng.standard_normal((3000, 200)), 0.0)
    return DataMatrix.from_dense(a)


@pytest.mark.parametrize(
    "make, one_size, chunks",
    [(_with_edge_cases, False, 1), (_dense_beyond_one_gram_chunk, True, 3), (_ragged_over_several_gram_chunks, False, 3)],
    ids=["ragged", "one-size", "ragged-several-chunks"],
)
def test_gram_is_the_row_pair_sum(make, one_size, chunks):
    data = make()
    sizes = np.diff(data.row_ptr)
    assert (sizes.min() == sizes.max()) == one_size
    assert np.sum(sizes * (sizes + 1) // 2) > (chunks - 1) * csr._STACK_ENTRIES
    assert np.array_equal(data.gram(), _gram_by_row_pairs(data))


@pytest.mark.parametrize("mode", ["weights", "unit", "values"])
def test_pair_sum_does_not_depend_on_the_chunk_size(mode, monkeypatch):
    # Ragged sets and a run of one size, over three default chunks of pairs.
    rng = np.random.default_rng(12)
    sizes = np.concatenate([rng.integers(0, 30, 1500), np.full(300, 12)])
    sets = [np.sort(rng.choice(40, size=s, replace=False)) for s in sizes]
    ptr, indices = csr._ptr(sizes), np.concatenate(sets)
    assert np.sum(sizes * (sizes + 1) // 2) > 3 * csr._STACK_ENTRIES
    weights = rng.random(sizes.size) / 7 if mode == "weights" else None
    values = rng.standard_normal(indices.size) if mode == "values" else None
    sums = []
    for pairs in (64, csr._STACK_ENTRIES, 1 << 30):
        monkeypatch.setattr(csr, "_STACK_ENTRIES", pairs)
        sums.append(csr._pair_sum(40, ptr, indices, weights, values))
    assert all(np.array_equal(sums[0], other) for other in sums[1:])


@pytest.mark.parametrize("mode", ["weights", "unit", "values"])
@pytest.mark.parametrize("pairs", [64, None, 1 << 30], ids=["64", "default", "2^30"])
def test_each_slot_of_a_stack_is_the_call_on_its_own_sets(mode, pairs, monkeypatch):
    # Empty sets, mixed sizes, a run of one size, and slots 2 and 6 empty.
    rng = np.random.default_rng(13)
    sizes = np.concatenate([rng.integers(0, 30, 600), np.full(200, 12), [0, 0]])
    sets = [np.sort(rng.choice(40, size=s, replace=False)) for s in sizes]
    ptr, indices = csr._ptr(sizes), np.concatenate(sets)
    slot = rng.choice([0, 1, 3, 4, 5], size=sizes.size)
    weights = rng.random(sizes.size) / 7 if mode == "weights" else None
    values = rng.standard_normal(indices.size) if mode == "values" else None
    if pairs is not None:
        monkeypatch.setattr(csr, "_STACK_ENTRIES", pairs)
    stack = csr._pair_sum(40, ptr, indices, weights, values, slot=slot, slots=7)
    assert stack.shape == (7, 40, 40)
    for k in range(7):
        own = np.flatnonzero(slot == k)
        own_ptr, own_indices = csr._take(ptr, indices, own)
        own_values = None if values is None else values[csr._spans(ptr[own], sizes[own])]
        own_weights = None if weights is None else weights[own]
        alone = csr._pair_sum(40, own_ptr, own_indices, own_weights, own_values)
        assert np.array_equal(stack[k], alone), k
        assert np.array_equal(np.signbit(stack[k]), np.signbit(alone)), k
        assert own.size or not stack[k].any(), k


def test_gram_keeps_the_dense_cap(monkeypatch):
    data = DataMatrix(1, 5, [0], [4], [1.0])
    monkeypatch.setattr(config, "DENSE_EIG_CAP", 4)
    with pytest.raises(ek.ValidationError):
        data.gram()


def test_a_small_gram_is_kept_read_only():
    data = _with_edge_cases()
    assert data.n**2 <= 3 * data.nnz
    gram = data.gram()
    assert data.gram() is gram
    assert not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0, 0] = 1.0
    a = data.to_dense()
    np.testing.assert_allclose(gram, a.T @ a, rtol=1e-12, atol=1e-12)


def test_a_gram_larger_than_its_triplets_is_rebuilt_on_every_call():
    data = DataMatrix(3, 6, [0, 1, 2], [0, 2, 5], [1.0, -2.0, 0.5])
    assert data.n**2 > 3 * data.nnz
    first, second = data.gram(), data.gram()
    assert first is not second
    assert first.tobytes() == second.tobytes()
    assert not first.flags.writeable


def test_a_kept_gram_still_obeys_a_lowered_dense_cap(monkeypatch):
    data = _with_edge_cases()
    data.gram()
    monkeypatch.setattr(config, "DENSE_EIG_CAP", data.n - 1)
    with pytest.raises(ek.ValidationError):
        data.gram()


def test_the_hessian_is_a_writable_copy_of_the_kept_gram():
    problem = ek.QuadraticProblem(_with_edge_cases(), ridge=0.25)
    gram = problem.data.gram()
    before = gram.tobytes()
    h = problem.hessian()
    assert h.flags.writeable and h is not gram
    assert h.tobytes() == (gram + 0.25 * np.eye(problem.n)).tobytes()
    h[0, 0] = -1.0
    assert problem.data.gram() is gram and gram.tobytes() == before


def test_a_gram_that_overflows_is_refused():
    # Finite entries near 1e200 square to inf in A'A.
    data = DataMatrix(2, 2, [0, 0, 1], [0, 1, 1], [1e200, 2e200, 1.0])
    with np.errstate(over="ignore"):
        assert np.isinf(data.gram()).any()
        with pytest.raises(ek.ValidationError):
            eso.compute_v(data, samplings.tau_nice(2, 1), "uncoupled")
        with pytest.raises(ek.ValidationError):
            ek.lambda_prime(data.gram())


# ---------------------------------------------------------------------------
# The solver against the dense loop it replaced


def _dense_reference_solve(problem, spec, v, x0, epsilon, max_iter, rng_seed, stream_index):
    """The solver loop as it was with a dense A: same draws, the same
    per-iteration arithmetic, every product taken on the dense matrix."""
    a = problem.data.to_dense()
    b, ridge = problem.b, problem.ridge

    def objective(z):
        az = a @ z
        return 0.5 * float(az @ az) + 0.5 * ridge * float(z @ z) - float(b @ z)

    cols = [(np.flatnonzero(a[:, i]), a[np.flatnonzero(a[:, i]), i]) for i in range(a.shape[1])]
    x = np.asarray(x0, dtype=float).copy()
    f_star = objective(problem.x_star())
    r = a @ x
    gap = objective(x) - f_star
    rng = ek.rng_for_stream(rng_seed, stream_index)
    pending = []
    k = 0
    while gap > epsilon and k < max_iter:
        if not pending:
            # The solver takes its draws in blocks of 64 per stream.
            block = csr._scatter(spec.n, *samplings._draw_blocks(spec, [rng], [64]))
            pending = [np.flatnonzero(row).tolist() for row in block[::-1]]
        idx = pending.pop()
        deltas = []
        for i in idx:
            rows_i, vals_i = cols[i]
            deltas.append(-(float(vals_i @ r[rows_i]) + ridge * x[i] - b[i]) / v[i])
        for i, d in zip(idx, deltas):
            x[i] += d
            rows_i, vals_i = cols[i]
            r[rows_i] += d * vals_i
        k += 1
        gap = 0.5 * float(r @ r) + 0.5 * ridge * float(x @ x) - float(b @ x) - f_star
    return k, x


def _shared_rows_problem(seed):
    # Few rows, many entries per row: sampled columns share rows in most
    # iterations, so a step that dropped shared-row updates would show.
    rng = np.random.default_rng(seed)
    m, n = 10, 12
    a = np.where(rng.random((m, n)) < 0.5, rng.standard_normal((m, n)), 0.0)
    a[0] = rng.standard_normal(n)
    return ek.QuadraticProblem(DataMatrix.from_dense(a), ridge=0.3, b=rng.standard_normal(n))


@pytest.mark.parametrize(
    "seed, spec",
    [
        (11, ek.tau_nice(12, 4)),
        (12, ek.tau_nice(12, 7)),
        (13, ek.ctau_distributed([list(range(6)), list(range(6, 12))], 2)),
    ],
)
def test_solver_matches_the_dense_loop(seed, spec):
    problem = _shared_rows_problem(seed)
    v = problem.stepsizes(spec).v
    x0 = np.random.default_rng(seed + 100).standard_normal(problem.n)
    for stream in range(3):
        trace = ek.solve(problem, spec, v, x0=x0, epsilon=1e-9, max_iter=20_000,
                         rng_seed=seed, stream_index=stream)
        k, x = _dense_reference_solve(problem, spec, v, x0, 1e-9, 20_000, seed, stream)
        assert trace.converged and trace.iterations > 1
        assert trace.iterations == k
        np.testing.assert_allclose(trace.x_final, x, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# No dense copy of A on the solve, stepsize, certificate and check paths


def test_solve_and_certify_paths_never_densify(tmp_path, monkeypatch):
    problem = _shared_rows_problem(21)
    matrix = tmp_path / "A.mtx"
    write_matrix(problem.data, matrix)
    sampling = tmp_path / "sampling.json"
    sampling.write_text(json.dumps(ek.tau_nice(problem.n, 3).to_dict()))
    sidecar = tmp_path / "problem.json"
    sidecar.write_text(json.dumps({"lambda": problem.ridge, "b": problem.b.tolist(),
                                   "x0": [1.0] * problem.n}))
    x = np.linspace(-1.0, 1.0, problem.n)
    a = problem.data.to_dense()
    expected_objective = 0.5 * float((a @ x) @ (a @ x)) + 0.5 * problem.ridge * float(x @ x) - float(problem.b @ x)
    expected_gradient = a.T @ (a @ x) + problem.ridge * x - problem.b
    expected_x_star = np.linalg.solve(a.T @ a + problem.ridge * np.eye(problem.n), problem.b)

    def refuse(self):
        raise AssertionError("A was densified")

    monkeypatch.setattr(DataMatrix, "to_dense", refuse)
    assert main(["solve", "--matrix", str(matrix), "--sampling", str(sampling),
                 "--problem", str(sidecar), "--seeds", "2", "--epsilon", "1e-8",
                 "--out", str(tmp_path / "solve.json")]) == 0
    assert main(["compute-v", "--matrix", str(matrix), "--sampling", str(sampling),
                 "--certify", "--out", str(tmp_path / "v.json")]) == 0
    spec = ek.tau_nice(problem.n, 3)
    v = ek.compute_v(problem.data, spec, "taunice").v
    assert ek.check_eso_quadratic(problem.data, spec, v, mode="exhaustive").passed
    assert ek.check_eso_quadratic(problem.data, spec, v, mode="monte_carlo", trials=2_000).passed
    assert math.isclose(problem.objective(x), expected_objective, rel_tol=1e-12)
    np.testing.assert_allclose(problem.gradient(x), expected_gradient, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(problem.x_star(), expected_x_star, rtol=1e-9, atol=1e-12)


def test_the_package_reads_the_csr_arrays_not_the_python_views(monkeypatch):
    # Every formula, the certificate, the conflict graph, the quadratic check
    # and the solver work from row_ptr/cols; the tuple views are for callers.
    problem = _shared_rows_problem(22)
    data, n = problem.data, problem.n
    halves = [list(range(6)), list(range(6, 12))]
    specs = [
        ek.tau_nice(n, 3),
        ek.ctau_distributed(halves, 2),
        ek.doubly_uniform([0.0, 0.1, 0.3, 0.2, 0.2, 0.2] + [0.0] * 7),
        graph_spec_for(data),
        ek.intersection(ek.tau_nice(n, 8), ek.ctau_distributed(halves, 4)),
        capped_partition_spec(np.random.default_rng(23), n, 3),
    ]

    def refuse(self):
        raise AssertionError("a Python view of the rows or columns was read")

    for name in ("row_supports", "row_entries", "column_entries"):
        monkeypatch.setattr(DataMatrix, name, property(refuse))
    assert ek.build_conflict_graph(data).n == n
    for spec in specs:
        computed = 0
        for formula in eso.FORMULAS:
            try:
                result = ek.compute_v(data, spec, formula)
            except ek.UnsupportedMethodError:
                continue
            computed += 1
            assert np.all(result.v > 0)
        assert computed >= 5, spec.kind
        assert ek.certify(data, spec, ek.compute_v(data, spec, "coupled-exact").v) >= -1e-8
    spec = specs[0]
    v = problem.stepsizes(spec).v
    assert ek.check_eso_quadratic(data, spec, ek.compute_v(data, spec, "auto").v).passed
    assert ek.solve(problem, spec, v, epsilon=1e-6, max_iter=20_000).converged

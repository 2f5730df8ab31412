"""The benchmark's span tracer (bench/spans.py) against the package.

The tracer wraps package names from outside: module functions, class methods
and the DataMatrix cached views. A rename or removal of any of them fails
here, instead of midway through a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import esokit as ek
from esokit import cli, datamatrix, eso, probability, samplings, solver, spectral, verify

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
TRACED = (cli, datamatrix, eso, probability, samplings, solver, spectral, verify,
          datamatrix.DataMatrix, solver.QuadraticProblem)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return [dict(vars(owner)) for owner in TRACED]


def test_tracer_installs_counts_and_removes(tmp_path):
    spans = _load_spans()
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        a = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 3.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        matrix = tmp_path / "A.mtx"
        datamatrix.write_matrix(ek.DataMatrix.from_dense(a), matrix)
        out = tmp_path / "v.json"
        nice = json.dumps(ek.tau_nice(4, 2).to_dict())
        assert cli.main(["compute-v", "--matrix", str(matrix), "--sampling", nice,
                         "--certify", "--out", str(out)]) == 0
        data = datamatrix.read_matrix(str(matrix))
        inter = samplings.intersection(samplings.tau_nice(4, 3), samplings.tau_nice(4, 2))
        result = eso.compute_v(data, inter, "auto")
        # auto reads no moments (the cardinality cap decides the serial case);
        # the moment bounds do.
        spectral.lambda_bounds(inter)
        probability.prob_matrix(inter, "monte_carlo", mc_samples=200)
        verify.check_eso_quadratic(data, inter, result.v, mode="monte_carlo", trials=200)
        problem = solver.QuadraticProblem(data, ridge=0.1)
        solver.solve(problem, inter, problem.stepsizes(inter).v, x0=np.ones(4), max_iter=50)
        metrics = tracer.round_metrics(mark)
    finally:
        tracer.remove()
    assert _namespaces() == before

    assert metrics["datamatrix.read_matrix.s"] > 0
    assert metrics["eso.certify.calls"] == 1
    assert metrics["samplings.cardinality_moments.calls"] >= 1
    assert metrics["samplings.cardinality_moments.mc_fallbacks"] == 0
    assert metrics["probability.prob_matrix.monte_carlo.calls"] == 1
    assert metrics["verify.check_eso_quadratic.monte_carlo.trials_per_s"] > 0
    assert metrics["solver.iterations"] > 0
    assert metrics["cli.compute-v.s"] > 0
    assert metrics["cli.report_bytes"] == out.stat().st_size

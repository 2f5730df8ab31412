import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esokit as ek
from esokit.cli import main
from esokit.datamatrix import write_matrix
from esokit.errors import ValidationError


@pytest.fixture()
def workdir(tmp_path):
    rng = ek.rng_for_stream(91, 0)
    a = np.where(rng.random((6, 4)) < 0.6, rng.standard_normal((6, 4)), 0.0)
    a[0, 0] = 1.5  # ensure no empty first row/col
    data = ek.DataMatrix.from_dense(a)
    matrix = tmp_path / "A.mtx"
    write_matrix(data, matrix)
    sampling = tmp_path / "taunice.json"
    sampling.write_text(json.dumps(ek.tau_nice(4, 2).to_dict()))
    return tmp_path, matrix, sampling


def test_compute_v_happy_path(workdir, capsys):
    tmp, matrix, sampling = workdir
    out = tmp / "v.json"
    code = main(
        ["compute-v", "--matrix", str(matrix), "--sampling", str(sampling), "--formula",
         "coupled-exact", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["result"]["v"]) == 4
    assert "max_i v_i*tau/(p_i*n)" in capsys.readouterr().out


def test_compute_v_reports_malformed_line(workdir, capsys):
    tmp, matrix, sampling = workdir
    bad = tmp / "bad.mtx"
    bad.write_text("2 2 2\n1 1 1.0\n1 x 2.0\n")
    code = main(["compute-v", "--matrix", str(bad), "--sampling", str(sampling)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_unsupported_formula_pairing_exits_3(workdir, capsys):
    tmp, matrix, _ = workdir
    serial_spec = json.dumps(ek.serial([0.25] * 4).to_dict())
    code = main(["compute-v", "--matrix", str(matrix), "--sampling", serial_spec, "--formula", "ctau"])
    assert code == 3
    assert "unsupported" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3", "1"])
def test_the_removed_tau_cap_option_exits_2(workdir, capsys, cap):
    # The cap is always the sampling's own: a caller's cap could only loosen
    # v or break the certificate, so compute-v no longer takes one.
    tmp, matrix, sampling = workdir
    with pytest.raises(SystemExit) as info:
        main(["compute-v", "--matrix", str(matrix), "--sampling", str(sampling), "--formula",
              "conservative", f"--tau-cap={cap}", "--certify"])
    assert info.value.code == 2
    assert "--tau-cap" in capsys.readouterr().err


def test_verify_pass_and_fail_with_witness(workdir, capsys):
    tmp, matrix, sampling = workdir
    vfile = tmp / "v.json"
    assert main(
        ["compute-v", "--matrix", str(matrix), "--sampling", str(sampling), "--out", str(vfile)]
    ) == 0
    assert main(
        ["verify", "--matrix", str(matrix), "--sampling", str(sampling), "--v", str(vfile),
         "--mode", "exhaustive"]
    ) == 0

    payload = json.loads(vfile.read_text())
    halved = tmp / "v_half.json"
    halved.write_text(json.dumps({"v": [x / 2 for x in payload["result"]["v"]]}))
    capsys.readouterr()
    code = main(
        ["verify", "--matrix", str(matrix), "--sampling", str(sampling), "--v", str(halved),
         "--mode", "exhaustive"]
    )
    assert code == 1
    assert "witness" in capsys.readouterr().out


def test_probmatrix_csv_matches_closed_form(workdir):
    tmp, _, sampling = workdir
    out = tmp / "P.csv"
    assert main(["probmatrix", "--sampling", str(sampling), "--method", "enumerate",
                 "--out", str(out)]) == 0
    enumerated = np.loadtxt(out, delimiter=",", comments="#")
    closed = ek.prob_matrix(ek.tau_nice(4, 2), "closed_form")
    assert np.max(np.abs(enumerated - closed.entries)) <= 1e-12


def test_solve_writes_trace_and_summary(workdir):
    tmp, matrix, sampling = workdir
    problem = tmp / "problem.json"
    problem.write_text(json.dumps({"lambda": 0.2, "b": [1.0, -1.0, 0.5, 0.0], "x0": [1.0] * 4}))
    out = tmp / "solve.json"
    trace = tmp / "trace.csv"
    code = main(
        ["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--problem", str(problem),
         "--epsilon", "1e-8", "--seeds", "3", "--out", str(out), "--trace-csv", str(trace)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["runs"] == 3
    assert payload["result"]["converged"]
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,gap"
    assert len(lines) > 2


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_solve_without_runs_is_an_input_error(workdir, capsys, seeds):
    tmp, matrix, sampling = workdir
    code = main(["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--ridge", "0.2",
                 "--seeds", seeds, "--out", str(tmp / "solve.json")])
    assert code == 2
    assert "n_runs" in capsys.readouterr().err
    assert not (tmp / "solve.json").exists()


@pytest.mark.parametrize("entries", ['[1.0, "a", 1.0, 1.0]', "[1.0, NaN, 1.0, 1.0]", "[1.0, 1.0, Infinity, 1.0]",
                                     "[1.0, null, 1.0, 1.0]", "[1.0, true, 1.0, 1.0]", '[1.0, "2", 1.0, 1.0]'])
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_non_numeric_or_non_finite_v_is_an_input_error(workdir, capsys, entries, command):
    tmp, matrix, sampling = workdir
    vfile = tmp / "v.json"
    vfile.write_text('{"v": ' + entries + "}")
    extra = ["--mode", "matrix"] if command == "verify" else ["--ridge", "0.2"]
    code = main([command, "--matrix", str(matrix), "--sampling", str(sampling), "--v", str(vfile), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert "v.json" in err and "Traceback" not in err


def test_tradeoff_and_design_serial(workdir):
    tmp, matrix, sampling = workdir
    out = tmp / "tradeoff.json"
    assert main(["tradeoff", "--matrix", str(matrix), "--sampling", str(sampling),
                 "--lambda-sc", "0.5", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["result"]["rows"]
    assert [r["formula"] for r in rows] == ["conservative", "generic", "coupled-exact"]

    points = tmp / "points.json"
    points.write_text(json.dumps({"x0": [1.0, 2.0, 0.0, 1.0], "xstar": [0.0] * 4}))
    out2 = tmp / "design.json"
    assert main(["design-serial", "--matrix", str(matrix), "--points", str(points),
                 "--out", str(out2)]) == 0
    design = json.loads(out2.read_text())["result"]
    assert design["c_opt"] <= design["c_unif"]
    assert design["p"][2] == 0.0


def test_tradeoff_takes_formula_names_and_no_power_iterations(workdir, capsys):
    tmp, matrix, sampling = workdir
    base = ["tradeoff", "--matrix", str(matrix), "--sampling", str(sampling)]
    out = tmp / "tradeoff.json"
    assert main(base + ["--formulas", "auto,taunice,uncoupled", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [r["formula"] for r in report["result"]["rows"]] == ["auto", "taunice", "uncoupled"]
    assert "power_iterations" not in report["config"] and "power_iterations" not in report["result"]
    assert main(base + ["--formulas", "coupled"]) == 3
    with pytest.raises(SystemExit) as info:
        main(base + ["--power-iterations", "5"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--lambda-sc", "nan"], ["--epsilon", "nan"], ["--epsilon", "-1"]])
def test_tradeoff_with_a_bad_number_is_an_input_error(workdir, capsys, extra):
    _, matrix, sampling = workdir
    assert main(["tradeoff", "--matrix", str(matrix), "--sampling", str(sampling), *extra]) == 2
    err = capsys.readouterr().err
    assert extra[0][2:].replace("-", "_") in err and "Traceback" not in err


def test_tradeoff_with_epsilon_above_one_reports_no_iteration_passes(workdir):
    tmp, matrix, sampling = workdir
    out = tmp / "tradeoff.json"
    assert main(["tradeoff", "--matrix", str(matrix), "--sampling", str(sampling),
                 "--epsilon", "10", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["result"]["rows"]
    assert rows and all(r["iteration_passes"] == 0.0 for r in rows)


def test_solve_with_a_nan_epsilon_is_an_input_error(workdir, capsys):
    _, matrix, sampling = workdir
    code = main(["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--ridge", "0.1", "--epsilon", "nan"])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


def test_solve_with_a_nan_ridge_blames_the_ridge(workdir, capsys):
    _, matrix, sampling = workdir
    code = main(["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--ridge", "nan"])
    assert code == 2
    assert "input error: ridge" in capsys.readouterr().err


def test_solve_with_diverging_stepsizes_exits_1(workdir, capsys):
    tmp, _, _ = workdir
    matrix, vfile, problem = tmp / "A3.mtx", tmp / "v3.json", tmp / "problem3.json"
    write_matrix(ek.DataMatrix.from_dense(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])), matrix)
    vfile.write_text("[0.01, 0.01, 0.01]")
    problem.write_text(json.dumps({"b": [1.0, -2.0, 0.5]}))
    spec = json.dumps(ek.tau_nice(3, 2).to_dict())
    code = main(["solve", "--matrix", str(matrix), "--sampling", spec, "--v", str(vfile), "--problem", str(problem)])
    assert code == 1
    assert "check failed" in capsys.readouterr().err


def test_solve_with_a_sampling_over_another_n_is_an_input_error(workdir, capsys):
    tmp, _, _ = workdir
    matrix, vfile = tmp / "A3.mtx", tmp / "v3.json"
    write_matrix(ek.DataMatrix.from_dense(np.eye(3)), matrix)
    vfile.write_text("[1.0, 1.0, 1.0]")
    spec = json.dumps({"n": 2, "kind": "tau_nice", "tau": 1})
    code = main(["solve", "--matrix", str(matrix), "--sampling", spec, "--v", str(vfile)])
    assert code == 2
    err = capsys.readouterr().err
    assert "sampling" in err and "Traceback" not in err


def test_battery_command(workdir):
    tmp, _, _ = workdir
    out = tmp / "battery.json"
    junit = tmp / "battery.xml"
    code = main(["battery", "--sizes", "3,4", "--specs-per-size", "4", "--pairs-per-spec", "2",
                 "--out", str(out), "--junit", str(junit)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["pass"]
    assert "testsuite" in junit.read_text()


def test_reports_are_deterministic_modulo_timestamp(workdir):
    tmp, matrix, sampling = workdir
    out1, out2 = tmp / "r1.json", tmp / "r2.json"
    inputs = ["--matrix", str(matrix), "--sampling", str(sampling)]
    for args in (["compute-v", *inputs, "--certify"], ["tradeoff", *inputs]):
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("generated_at")
        b.pop("generated_at")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert "power_iterations" not in a["config"]


def test_reports_record_the_rng_scheme_and_the_streams(workdir):
    tmp, matrix, sampling = workdir
    vfile = tmp / "v.json"
    assert main(["compute-v", "--matrix", str(matrix), "--sampling", str(sampling), "--out", str(vfile)]) == 0
    assert json.loads(vfile.read_text())["config"]["rng_scheme"] == ek.config.RNG_SCHEME
    commands = {
        "probmatrix": ["probmatrix", "--sampling", str(sampling), "--method", "monte-carlo", "--samples", "500"],
        "verify": ["verify", "--matrix", str(matrix), "--sampling", str(sampling), "--v", str(vfile),
                   "--mode", "monte-carlo", "--trials", "500"],
    }
    for name, argv in commands.items():
        reports = {}
        for threads in (1, 4):
            out = tmp / f"{name}-{threads}.json"
            assert main(["--seed", "5", "--threads", str(threads)] + argv + ["--out", str(out)]) == 0
            reports[threads] = json.loads(out.read_text())
            assert reports[threads]["config"]["threads"] == threads
            assert reports[threads]["config"]["rng_scheme"] == ek.config.RNG_SCHEME
        # The streams change the draws, so the results differ.
        assert reports[1]["result"] != reports[4]["result"]


def test_missing_sampling_file_is_input_error(workdir, capsys):
    _, matrix, _ = workdir
    code = main(["compute-v", "--matrix", str(matrix), "--sampling", "missing.json"])
    assert code == 2


def test_non_object_sampling_json_is_input_error(workdir, capsys):
    tmp, matrix, _ = workdir
    array = tmp / "array.json"
    array.write_text("[1, 2]")
    code = main(["compute-v", "--matrix", str(matrix), "--sampling", str(array)])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


def test_design_serial_points_errors_are_input_errors(workdir, capsys):
    tmp, matrix, _ = workdir
    points = tmp / "points.json"
    points.write_text(json.dumps({"x0": [1.0] * 4}))
    code = main(["design-serial", "--matrix", str(matrix), "--points", str(points)])
    assert code == 2
    assert "xstar" in capsys.readouterr().err

    points.write_text("[1.0, 2.0]")
    code = main(["design-serial", "--matrix", str(matrix), "--points", str(points)])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err

    for payload, key in (
        ({"x0": ["a", 1, 1, 1], "xstar": [0] * 4}, "x0"),
        ({"x0": [1] * 4, "xstar": [0, 0, "b", 0]}, "xstar"),
        ({"x0": [1, 1, True, 1], "xstar": [0] * 4}, "x0"),
        ({"x0": [1] * 4, "xstar": [0, 0, "0", 0]}, "xstar"),
    ):
        points.write_text(json.dumps(payload))
        code = main(["design-serial", "--matrix", str(matrix), "--points", str(points)])
        assert code == 2
        assert f"input error: {key} in " in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"n": "abc", "kind": "tau_nice", "tau": 2}, "n"),
        ({"n": 4, "kind": "tau_nice", "tau": [1]}, "tau"),
        ({"n": 4, "kind": "convex_combination", "components": [1, 2], "weights": [0.5, 0.5]}, "components"),
        # Integer fields take integral numbers only: no truncation, no bools, no strings.
        ({"n": 4, "kind": "tau_nice", "tau": 2.5}, "tau"),
        ({"n": 4.9, "kind": "tau_nice", "tau": 2}, "n"),
        ({"n": 4, "kind": "tau_nice", "tau": True}, "tau"),
        ({"n": "4", "kind": "tau_nice", "tau": 2}, "n"),
        ({"n": 4, "kind": "elementary", "set": [0.7, 1]}, "set"),
        ({"n": 4, "kind": "elementary", "set": [0, "1"]}, "set"),
        # Float fields take numbers only: no bools, no numeric strings.
        ({"n": 4, "kind": "serial", "q": [True, 0, 0, 0]}, "q"),
        ({"n": 4, "kind": "serial", "q": [0.25, "0.25", 0.25, 0.25]}, "q"),
        ({"n": 4, "kind": "doubly_uniform", "q": [0, [1], 0, 0, 0]}, "q"),
        ({"n": 4, "kind": "convex_combination", "components": [{"n": 4, "kind": "tau_nice", "tau": 1}] * 2,
          "weights": ["1", False]}, "weights"),
        ({"n": 4, "kind": "explicit", "members": [[0, 1], [2, 3]], "weights": [True, 0.0]}, "weights"),
        # A misspelled key is refused, not dropped.
        ({"n": 4, "kind": "tau_nice", "taus": 2}, "taus"),
    ],
)
def test_mistyped_sampling_field_is_input_error(workdir, capsys, payload, field):
    _, matrix, _ = workdir
    code = main(["compute-v", "--matrix", str(matrix), "--sampling", json.dumps(payload)])
    assert code == 2
    assert f"input error: {field}:" in capsys.readouterr().err


def test_integral_float_sampling_fields_are_accepted(workdir):
    tmp, matrix, sampling = workdir
    outs = {}
    for name, spec in (("float", {"n": 4.0, "kind": "tau_nice", "tau": 2.0}), ("int", sampling)):
        outs[name] = tmp / f"{name}.json"
        arg = json.dumps(spec) if isinstance(spec, dict) else str(spec)
        assert main(["compute-v", "--matrix", str(matrix), "--sampling", arg, "--out", str(outs[name])]) == 0
    assert json.loads(outs["float"].read_text())["result"] == json.loads(outs["int"].read_text())["result"]


@pytest.mark.parametrize(
    "sidecar, field",
    [({"lambda": "a"}, "lambda"), ({"lambda": [0.1, 0.2]}, "lambda"), ({"b": ["a", 1, 1, 1]}, "b"),
     ({"x0": {"a": 1}}, "x0"), ({"x0": [1, [2], 3, 4]}, "x0"), ({"lambda": None}, "lambda"),
     ({"b": [1.0, float("nan"), 1.0, 1.0]}, "b"), ({"lambda": "0.2"}, "lambda"), ({"lambda": True}, "lambda"),
     ({"b": [True, 1, 1, 1]}, "b"), ({"x0": [1, 1, 1, "1"]}, "x0"), ({"x0": [[1, 1], [1, False]]}, "x0")],
)
def test_non_numeric_solve_sidecar_is_an_input_error(workdir, capsys, sidecar, field):
    tmp, matrix, sampling = workdir
    problem = tmp / "problem.json"
    problem.write_text(json.dumps(sidecar))
    code = main(["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--problem", str(problem),
                 "--ridge", "0.2"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"input error: {field} in " in err and "Traceback" not in err


def test_non_integer_battery_sizes_are_an_input_error(capsys):
    assert main(["battery", "--sizes", "3,a"]) == 2
    assert "input error: --sizes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--sizes", "0"], "sizes"),
        (["--sizes", "-2"], "sizes"),
        (["--specs-per-size", "0"], "specs_per_size"),
        (["--pairs-per-spec", "0"], "pairs_per_spec"),
    ],
)
def test_degenerate_battery_arguments_are_an_input_error(argv, field, capsys):
    assert main(["battery", *argv]) == 2
    err = capsys.readouterr().err
    assert f"input error: {field}: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"n": 4, "kind": "elementary", "set": [0.7, 2]}, "set"),
        ({"n": 2, "kind": "serial", "q": [True, False]}, "q"),
        ({"n": 4, "kind": "tau_nice", "tau": 1.5}, "tau"),
    ],
)
def test_a_malformed_sampling_value_is_refused_as_the_factories_refuse_it(workdir, payload, field, capsys):
    # --sampling is read as the estimators read a sampling, through spec_from_dict.
    _, matrix, _ = workdir
    assert main(["compute-v", "--matrix", str(matrix), "--sampling", json.dumps(payload)]) == 2
    err = capsys.readouterr().err
    with pytest.raises(ValidationError) as info:
        ek.validation.as_sampling_spec(payload)
    assert info.value.field == field and str(info.value) in err


def test_enumeration_cap_names_the_exact_auto_method(capsys):
    spec = json.dumps({"n": 20, "kind": "tau_nice", "tau": 3})
    code = main(["probmatrix", "--sampling", spec, "--method", "enumerate"])
    assert code == 3
    err = capsys.readouterr().err
    assert "--method auto" in err and "Monte-Carlo" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(ek.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "esokit", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "compute-v" in done.stdout


def test_importing_the_package_loads_no_network_modules():
    # These come in only through heavy imports (xml.sax pulls in urllib and
    # email), which would cost every interpreter start and CLI call.
    src = str(Path(ek.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import esokit\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(new & {'urllib.request', 'http.client', 'ssl', 'email.parser'}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_probmatrix_above_the_dense_cap_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr(ek.config, "DENSE_EIG_CAP", 4)
    spec = json.dumps({"n": 5, "kind": "tau_nice", "tau": 2})
    for method in ("auto", "monte-carlo"):
        assert main(["probmatrix", "--sampling", spec, "--method", method]) == 2
        assert "input error: n: a dense probability matrix needs n <= 4" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["matrix", "exhaustive", "monte-carlo"])
def test_verify_with_a_sampling_above_the_dense_cap_is_an_input_error(workdir, monkeypatch, capsys, mode):
    # The matrix has 4 columns and v 4 entries; the sampling's n, above the
    # (patched) dense cap, is refused before any grid sized by it is built.
    tmp, matrix, _ = workdir
    monkeypatch.setattr(ek.config, "DENSE_EIG_CAP", 8)
    vfile = tmp / "v.json"
    vfile.write_text(json.dumps([1.0] * 4))
    spec = json.dumps({"n": 50, "kind": "tau_nice", "tau": 2})
    code = main(["verify", "--matrix", str(matrix), "--sampling", spec, "--v", str(vfile), "--mode", mode])
    assert code == 2
    assert "input error: sampling: spec is over 50 coordinates" in capsys.readouterr().err


def _default_reports(tmp, matrix, sampling):
    """command label -> (exit code, report) for every subcommand's default
    report on the 6 x 4 fixture, n = 4, so no eigen-solve depends on the BLAS
    thread count."""
    vfile, half = tmp / "v.json", tmp / "half.json"
    problem, points = tmp / "problem.json", tmp / "points.json"
    problem.write_text(json.dumps({"lambda": 0.2, "b": [1.0, -1.0, 0.5, 0.0], "x0": [1.0] * 4}))
    points.write_text(json.dumps({"x0": [1.0, 2.0, 0.0, 1.0], "xstar": [0.0] * 4}))
    inputs = ["--matrix", str(matrix), "--sampling", str(sampling)]
    commands = {
        "compute-v --certify": ["compute-v", *inputs, "--certify"],
        "compute-v coupled-exact": ["compute-v", *inputs, "--formula", "coupled-exact"],
        "verify exhaustive": ["verify", *inputs, "--v", str(vfile)],
        "verify monte-carlo": ["verify", *inputs, "--v", str(vfile), "--mode", "monte-carlo", "--trials", "2000"],
        "verify matrix": ["verify", *inputs, "--v", str(vfile), "--mode", "matrix"],
        "verify matrix failing": ["verify", *inputs, "--v", str(half), "--mode", "matrix"],
        "probmatrix auto": ["probmatrix", "--sampling", str(sampling)],
        "probmatrix monte-carlo": ["probmatrix", "--sampling", str(sampling), "--method", "monte-carlo",
                                   "--samples", "2000"],
        "solve": ["solve", *inputs, "--problem", str(problem), "--epsilon", "1e-8", "--seeds", "2"],
        "tradeoff": ["tradeoff", *inputs],
        "design-serial": ["design-serial", "--matrix", str(matrix), "--points", str(points)],
        "battery": ["battery", "--sizes", "3,4"],
    }
    assert main(["compute-v", *inputs, "--out", str(vfile)]) == 0
    half.write_text(json.dumps([x / 2 for x in json.loads(vfile.read_text())["result"]["v"]]))
    reports = {}
    for label, argv in commands.items():
        out = tmp / "report.json"
        code = main(["--seed", "3", *argv, "--out", str(out)])
        reports[label] = code, json.loads(out.read_text())
    return reports


# Any change to a subcommand's default report changes these digests of its
# command, schema version and result (the config holds the fixture's paths).
# A change that moves a report re-pins its digest and says why.
_REPORT_DIGESTS = {
    "compute-v --certify": "c42c85942af568eac2e66586b8b38b7af5dd0e3610b011dc6a76e9fba227b6a5",
    "compute-v coupled-exact": "d779fbfc8183383fce20faa6e0bfc6a93a2997f26f7f40cd3e21f42e35ce40b6",
    "verify exhaustive": "9fe7b395704eae85c8d9565d0253676b2254b1b058075d28072c1376cb859810",
    "verify monte-carlo": "150758978f41cf9b087d3aec87e7c6b8d65c68c907559b5c7cf2dcd9103e45c2",
    "verify matrix": "82beaf4ee7d157181a7aaa3e73eac7323e12c5f21282c8ffbe7f09e4aa7fb707",
    "verify matrix failing": "90b664313487d4afa4d27e6a1a673e3a41006d32492552e11eda40709399a9b3",
    "probmatrix auto": "da0c85b4624ed1a07bab1bff3598af920e14520ac47839be75138f04f118cc25",
    "probmatrix monte-carlo": "f5d21b50ca2b59b7b3864b5161b234fea2ed54e22c7d7fbb64c48a6d00533c5b",
    "solve": "f787679dc319fd33c97e90756d3cf8af98d72f0ac99ce20a903f64085055ccc4",
    "tradeoff": "02365be464ee9d6525c23c86a15f34e8db69f586255acd7ea2ad7823b566574d",
    "design-serial": "8b9094ac7045a10f0f597db5259ff0b30b713f6d854ff0142261e025a3f76cac",
    "battery": "0d8e427aa1c16e9a4402a773bd6b26d718a3197bd69a1e74e6e4fab4fc28afb1",
}


def test_every_commands_default_report_is_pinned(workdir, capsys):
    reports = _default_reports(*workdir)
    capsys.readouterr()
    digests = {}
    for label, (code, report) in reports.items():
        assert code == (1 if label == "verify matrix failing" else 0), label
        pinned = {key: report[key] for key in ("command", "schema_version", "result")}
        digests[label] = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
    assert digests == _REPORT_DIGESTS


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sub_one_threads_for_a_monte_carlo_run_exits_2(workdir, capsys, threads):
    tmp, matrix, sampling = workdir
    vfile = tmp / "v.json"
    vfile.write_text(json.dumps([1.0] * 4))
    commands = (
        ["probmatrix", "--sampling", str(sampling), "--method", "monte-carlo", "--samples", "100"],
        ["verify", "--matrix", str(matrix), "--sampling", str(sampling), "--v", str(vfile),
         "--mode", "monte-carlo", "--trials", "100"],
    )
    for argv in commands:
        assert main(["--threads", threads, *argv]) == 2
        assert "input error: streams: must be positive and an integer" in capsys.readouterr().err
    # The exact modes draw nothing, so they never read --threads.
    assert main(["--threads", threads, "probmatrix", "--sampling", str(sampling)]) == 0


def test_a_negative_seed_is_taken(workdir, capsys):
    _, _, sampling = workdir
    argv = ["probmatrix", "--sampling", str(sampling), "--method", "monte-carlo", "--samples", "100"]
    assert main(["--seed", "-1", *argv]) == 0
    negative = json.loads(capsys.readouterr().out)["result"]
    assert main(["--seed", str(2**64 - 1), *argv]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == negative

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
    from esokit.probability import read_csv

    enumerated = read_csv(out)
    closed = ek.prob_matrix(ek.tau_nice(4, 2), "closed_form")
    assert np.max(np.abs(enumerated.entries - closed.entries)) <= 1e-12


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


def test_solve_with_a_nan_epsilon_is_an_input_error(workdir, capsys):
    _, matrix, sampling = workdir
    code = main(["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--ridge", "0.1", "--epsilon", "nan"])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


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

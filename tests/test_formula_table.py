"""The stepsize formula table: golden outputs and documentation drift.

The golden file ``data/formula_golden.json`` holds, for every name in
``eso.FORMULAS`` and every sampling below on two seeded fixtures, what
``eso.compute_v`` returned: v (as float reprs), formula_id and cost_estimate,
or the class of the exception it raised. Regenerate it, only when a change
of the numbers is intended, with ``PYTHONPATH=src python tests/test_formula_table.py``.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import esokit as ek
from esokit import eso
from esokit.cli import build_parser
from esokit.errors import EsoKitError

from conftest import capped_partition_spec, graph_spec_for, random_sparse_matrix

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "formula_golden.json"
FIXTURES = {"fixture0": (5, 7, 6, 0.45), "fixture1": (17, 9, 8, 0.35)}  # seed, m, n, density


def fixture_specs(name: str):
    seed, m, n, density = FIXTURES[name]
    rng = ek.rng_for_stream(seed, 0)
    data = random_sparse_matrix(rng, m, n, density)
    order = [int(i) for i in rng.permutation(n)]
    q_du = rng.dirichlet(np.ones(n + 1))
    q_du[0] = 0.0
    q_serial = rng.dirichlet(np.ones(n)) + 1e-3
    blocks = [list(range(k, min(k + 3, n))) for k in range(0, n, 3)]
    specs = {
        "tau_nice": ek.tau_nice(n, 3),
        "ctau_distributed": ek.ctau_distributed([order[: n // 2], order[n // 2 :]], 2),
        "doubly_uniform": ek.doubly_uniform(q_du / q_du.sum()),
        "graph": graph_spec_for(data),
        # No conflict edges: the members need not cover the data's row supports.
        "graph_uncovered": ek.graph_sampling(
            n, blocks, [1.0 / len(blocks)] * len(blocks), ek.ConflictGraph(n, ())
        ),
        "serial": ek.serial(q_serial / q_serial.sum()),
        "explicit": capped_partition_spec(rng, n, 3),
        "intersection": ek.intersection(ek.tau_nice(n, 4), ek.tau_nice(n, 3)),
        "mixture_with_restriction": ek.convex_combination(
            [0.4, 0.6], [ek.restriction(ek.tau_nice(n, 3), range(n // 2)), ek.tau_nice(n, 2)]
        ),
    }
    return data, specs


def outcome(data, spec, formula: str) -> dict:
    try:
        result = eso.compute_v(data, spec, formula)
    except EsoKitError as e:
        return {"error": type(e).__name__}
    return {
        "v": [repr(x) for x in result.v.tolist()],
        "formula_id": result.formula_id,
        "cost_estimate": repr(result.cost_estimate),
    }


def outcomes() -> dict:
    out = {}
    for name in FIXTURES:
        data, specs = fixture_specs(name)
        for label, spec in specs.items():
            for formula in eso.FORMULAS:
                out[f"{name}/{label}/{formula}"] = outcome(data, spec, formula)
    return out


def test_formula_table_matches_golden_outputs():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = outcomes()
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        assert current[key] == expected, key


def test_table_formula_ids_are_the_reported_ids():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key, expected in golden.items():
        formula_id = eso.FORMULAS[key.rsplit("/", 1)[1]].formula_id
        if formula_id is not None and "formula_id" in expected:
            assert expected["formula_id"] == formula_id, key


# Every P is evaluated without BLAS: elementwise, or for graph and explicit
# kinds by scattering each set's weight into its index pairs.
_THREAD_FREE_LABELS = (
    "tau_nice", "ctau_distributed", "doubly_uniform", "graph", "graph_uncovered", "explicit",
    "intersection", "mixture_with_restriction",
)
_V_BYTES_SCRIPT = f"""
import json
from esokit import eso
from test_formula_table import FIXTURES, fixture_specs
out = {{}}
for name in FIXTURES:
    data, specs = fixture_specs(name)
    for label in {_THREAD_FREE_LABELS!r}:
        for formula in ("uncoupled", "coupled-exact"):
            v = eso.compute_v(data, specs[label], formula).v
            out[f"{{name}}/{{label}}/{{formula}}"] = v.tobytes().hex()
print(json.dumps(out))
"""


def _v_bytes(threads: int) -> dict:
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", _V_BYTES_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_eigen_solved_v_does_not_depend_on_the_blas_thread_count():
    # The uncoupled and coupled-exact eigen-solves at golden sizes give the
    # same bits with one BLAS thread and with two.
    one, two = _v_bytes(1), _v_bytes(2)
    assert len(one) == 2 * len(FIXTURES) * len(_THREAD_FREE_LABELS)
    assert one == two


def _formula_choices(command: str) -> list:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == "formula")
    return list(action.choices)


def test_cli_formula_choices_are_the_table():
    for command in ("compute-v", "solve"):
        assert _formula_choices(command) == list(eso.FORMULAS)


def test_readme_formula_table_names_every_formula():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Stepsize formulas", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"`([a-z-]+)`", section))
    missing = [name for name in eso.FORMULAS if name not in documented]
    assert not missing, f"README 'Stepsize formulas' lacks {missing}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")

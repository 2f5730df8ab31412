import numpy as np
import pytest

import esokit as ek
from conftest import random_sparse_matrix
from esokit.errors import ValidationError


def _dense_fixture(seed=81, m=10, n=5):
    rng = ek.rng_for_stream(seed, 0)
    return random_sparse_matrix(rng, m, n, 0.5).to_dense()


def test_eso_stepsizes_fit_sets_attributes():
    X = _dense_fixture()
    est = ek.EsoStepsizes(sampling=ek.tau_nice(5, 2), certify=True)
    assert est.fit(X) is est
    assert est.v_.shape == (5,)
    assert np.all(est.v_ > 0)
    assert est.formula_id_ == "TAU_NICE"
    assert est.certificate_margin_ >= -1e-8
    assert est.n_features_in_ == 5


def test_eso_stepsizes_accepts_json_and_dict_sampling():
    X = _dense_fixture()
    spec = ek.tau_nice(5, 2)
    import json

    for payload in (spec.to_dict(), json.dumps(spec.to_dict())):
        est = ek.EsoStepsizes(sampling=payload).fit(X)
        assert est.formula_id_ == "TAU_NICE"


@pytest.mark.parametrize("payload", ["{bad", "[1]"])
def test_a_malformed_sampling_string_names_the_sampling(payload):
    with pytest.raises(ValidationError) as info:
        ek.validation.as_sampling_spec(payload)
    assert info.value.field == "sampling"
    with pytest.raises(ValidationError) as info:
        ek.EsoStepsizes(sampling=payload).fit(_dense_fixture())
    assert info.value.field == "sampling"


def test_eso_stepsizes_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match="coordinates"):
        ek.EsoStepsizes(sampling=ek.tau_nice(4, 2)).fit(_dense_fixture())


def test_get_set_params_round_trip_and_sklearn_clone():
    est = ek.EsoStepsizes(sampling=ek.tau_nice(5, 2), formula="generic")
    params = est.get_params()
    assert params["formula"] == "generic"
    est.set_params(formula="conservative")
    assert est.formula == "conservative"
    with pytest.raises(ValueError):
        est.set_params(nope=1)

    sklearn = pytest.importorskip("sklearn")
    clone = sklearn.clone(est)
    assert clone.get_params() == est.get_params()


def test_coordinate_descent_estimator_converges_to_optimum():
    rng = ek.rng_for_stream(82, 0)
    X = _dense_fixture(seed=83, m=12, n=6)
    b = rng.standard_normal(6)
    model = ek.SamplingCoordinateDescent(
        sampling=ek.tau_nice(6, 2), ridge=0.3, epsilon=1e-10, max_iter=50_000, seed=4
    )
    model.fit(X, b)
    assert model.converged_
    assert model.coef_ == pytest.approx(model.x_star_, abs=1e-4)
    assert model.gap_history_[0] >= model.gap_history_[-1]
    assert model.trace_.iterations == model.n_iter_


def test_coordinate_descent_estimator_params_clone():
    sklearn = pytest.importorskip("sklearn")
    model = ek.SamplingCoordinateDescent(sampling=ek.serial([0.5, 0.5]), ridge=0.1)
    clone = sklearn.clone(model)
    assert clone.get_params()["ridge"] == 0.1

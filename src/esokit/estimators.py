"""Estimator-style facade over the stepsize and solver machinery.

Both classes follow the scikit-learn parameter conventions (keyword-only
constructor state, ``get_params``/``set_params``, fitted attributes with a
trailing underscore), so they clone and compose with that ecosystem without
importing it.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import eso, solver
from .validation import as_data_matrix, as_sampling_spec, as_vector


class ParamsMixin:
    """get_params/set_params over the constructor signature, scikit-learn style."""

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self


class EsoStepsizes(ParamsMixin):
    """Fit per-coordinate stepsize parameters v for a sampling on a data matrix.

    Parameters
    ----------
    sampling : SamplingSpec | dict | str
        The sampling distribution (spec object, payload dict, or JSON).
    formula : str
        A name of ``eso.FORMULAS``; ``auto`` prefers the per-family
        closed form.
    certify : bool
        Compute the PSD certificate margin during fit (exact matrices only).

    Attributes (after fit)
    ----------------------
    v_, p_ : ndarray
        Stepsize parameters and inclusion probabilities.
    formula_id_ : str
    certificate_margin_ : float | None
    cost_estimate_ : float
    n_features_in_ : int
    """

    def __init__(
        self,
        sampling=None,
        formula: str = "auto",
        certify: bool = False,
    ):
        self.sampling = sampling
        self.formula = formula
        self.certify = certify

    def fit(self, X, y=None):
        data = as_data_matrix(X)
        spec = as_sampling_spec(self.sampling)
        result = eso.compute_v(data, spec, formula=self.formula)
        if self.certify:
            result = result.with_margin(eso.certify(data, spec, result.v))
        self.result_ = result
        self.v_ = result.v
        self.p_ = result.p
        self.formula_id_ = result.formula_id
        self.certificate_margin_ = result.certificate_margin
        self.cost_estimate_ = result.cost_estimate
        self.n_features_in_ = data.n
        return self


class SamplingCoordinateDescent(ParamsMixin):
    """Minimize 0.5 ||Ax||^2 + (ridge/2)||x||^2 - b'x by randomized coordinate
    descent with the configured sampling.

    ``fit(X, y)`` takes the data matrix and the linear term b; the solution is
    exposed as ``coef_`` and the per-epoch objective gaps as ``gap_history_``.
    """

    def __init__(
        self,
        sampling=None,
        ridge: float = 0.0,
        formula: str = "auto",
        epsilon: float = 1e-6,
        max_iter: int = 1_000_000,
        seed: int = 0,
    ):
        self.sampling = sampling
        self.ridge = ridge
        self.formula = formula
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.seed = seed

    def fit(self, X, y, x0=None):
        data = as_data_matrix(X)
        spec = as_sampling_spec(self.sampling)
        b = as_vector(y, data.n, "y")
        problem = solver.QuadraticProblem(data, ridge=self.ridge, b=b)
        stepsizes = problem.stepsizes(spec, formula=self.formula)
        trace = solver.solve(
            problem,
            spec,
            stepsizes.v,
            x0=np.asarray(x0, dtype=float) if x0 is not None else None,
            epsilon=self.epsilon,
            max_iter=self.max_iter,
            rng_seed=self.seed,
        )
        self.problem_ = problem
        self.v_ = stepsizes.v
        self.p_ = stepsizes.p
        self.trace_ = trace
        self.coef_ = trace.x_final
        self.gap_history_ = [g for _, g in trace.gaps]
        self.n_iter_ = trace.iterations
        self.converged_ = trace.converged
        self.x_star_ = problem.x_star()
        return self

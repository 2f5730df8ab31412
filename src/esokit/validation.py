"""Input coercion helpers shared by the estimator facade and the CLI."""

from __future__ import annotations

import json

import numpy as np

from .datamatrix import DataMatrix
from .errors import ValidationError
from .samplings import SamplingSpec, spec_from_dict


def as_data_matrix(x) -> DataMatrix:
    """Accept a DataMatrix or any dense 2-d array-like."""
    if isinstance(x, DataMatrix):
        return x
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("X", "expected a DataMatrix or a 2-d array")
    return DataMatrix.from_dense(arr)


def as_sampling_spec(s) -> SamplingSpec:
    """Accept a SamplingSpec, a payload dict, or a JSON string."""
    if isinstance(s, SamplingSpec):
        return s
    if isinstance(s, str):
        try:
            s = json.loads(s)
        except json.JSONDecodeError as e:
            raise ValidationError("sampling", f"not valid JSON: {e}") from None
    if isinstance(s, dict):
        return spec_from_dict(s)
    raise ValidationError("sampling", f"a sampling spec is a SamplingSpec or a JSON object, not a {type(s).__name__}")


def as_vector(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise ValidationError(name, f"expected a vector of length {n}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(name, "non-finite entries")
    return arr

"""esokit: stepsize parameters and solver tooling for randomized coordinate
descent with arbitrary coordinate samplings.

The package computes, bounds, certifies and empirically verifies the
per-coordinate curvature constants v that make the expected separable
overapproximation

    E[f(x + h_S)] <= f(x) + sum_i p_i grad_i f(x) h_i + 0.5 sum_i p_i v_i h_i^2

hold for a sampling S-hat and any function whose curvature is dominated by a
data matrix Gram product, and runs a coordinate-descent solver driven by
those constants.
"""

from .config import rng_for_stream
from .datamatrix import ComposedFunction, DataMatrix, assemble_from_pieces, read_matrix, write_matrix
from .errors import (
    CapacityError,
    DivergenceError,
    EsoKitError,
    ParseError,
    UnsupportedMethodError,
    ValidationError,
)
from .eso import (
    EsoResult,
    certify,
    compute_v,
    eso_conservative,
    eso_coupled,
    eso_specialized,
    eso_uncoupled,
)
from .estimators import EsoStepsizes, SamplingCoordinateDescent
from .probability import ProbMatrix, check_identities, prob_matrix
from .samplings import (
    ConflictGraph,
    SamplingSpec,
    build_conflict_graph,
    cardinality_cap,
    cardinality_moments,
    convex_combination,
    ctau_distributed,
    doubly_uniform,
    draw,
    elementary,
    enumerate_support,
    explicit,
    graph_sampling,
    intersection,
    is_nil,
    is_proper,
    marginals,
    product_sampling,
    random_spec,
    restriction,
    serial,
    tau_nice,
)
from .solver import (
    QuadraticProblem,
    SolverTrace,
    complexity_estimate,
    optimal_serial_sampling,
    solve,
    solve_many,
    tradeoff_report,
)
from .spectral import (
    BoundsReport,
    EigenEstimate,
    lambda_bounds,
    lambda_max,
    lambda_prime,
    lambda_prime_restricted,
)
from .verify import (
    BatteryReport,
    EsoCheckReport,
    check_eso_matrix_form,
    check_eso_quadratic,
    run_identity_battery,
    write_junit,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

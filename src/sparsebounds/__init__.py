"""Lower bounds for sparse estimation when the sensing matrix is noisy.

The package computes the constrained Cramer-Rao bound and the
Hammersley-Chapman-Robbins bound for the model y = (A + E)x + n with an
s-sparse x, provides the reference estimators the bounds are validated
against, and ships a Monte Carlo harness plus a CLI reproducing the
experiment protocols.
"""

from .ccrb import (
    CcrbReport,
    NoiseLevels,
    RipConstants,
    ccrb_bound,
    ccrb_maximal,
    ccrb_nonmaximal,
    gamma_approx,
    gamma_bounds,
    noise_levels,
    oracle_mse_theoretical,
    rip_constants,
    sigmas_for_levels,
    transition_ce,
)
from .errors import (
    AssumptionViolatedError,
    DegenerateModelError,
    DivergentTestPointError,
    ExcessiveFailureError,
    InfeasibleOffsetError,
    InvalidInputError,
    NoUnbiasedEstimatorError,
    OverflowingMatrixError,
    SingularMatrixError,
    SparseBoundsError,
    UnsupportedMatrixError,
    UnsupportedSizeError,
    WrongRegimeError,
)
from .estimators import (
    EstimatorSpec,
    apply_estimator,
    estimate_locally_unbiased,
    estimate_ml_unit,
    estimate_noise_exploiting,
    estimate_oracle,
)
from .fisher import (
    FisherMatrix,
    fim_closed_form,
    fim_monte_carlo,
    log_likelihood,
    score,
)
from .hcrb import (
    HcrbReport,
    TestPointSet,
    beta_of,
    d_hcrb,
    g_function,
    hcrb_general,
    hcrb_unit_closed_form,
    test_points,
    transition_sigma_e,
)
from .model import (
    Measurement,
    ProblemModel,
    SparseSignal,
    generate_bernoulli_signal,
    generate_gaussian_matrix,
    sample_measurement,
    sigma_x_squared,
    spark_exceeds,
)
from .montecarlo import TrialSummary, run_trials, sweep, trial_stream

__version__ = "0.1.0"

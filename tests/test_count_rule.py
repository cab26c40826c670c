"""Every count argument of the package reads through model.checked_count:
an int or numpy integer >= 1, with floats (even integral ones), bools,
NaN, strings and None rejected by one message.  A range rule on top of
the count (s <= n, s <= len(y), n >= 2, s == rip.s) keeps its own
error."""

import math

import numpy as np
import pytest

from sparsebounds import (
    EstimatorSpec,
    InvalidInputError,
    NoiseLevels,
    ProblemModel,
    RipConstants,
    SparseSignal,
    estimate_ml_unit,
    gamma_approx,
    gamma_bounds,
    generate_bernoulli_signal,
    generate_gaussian_matrix,
    run_trials,
    spark_exceeds,
)
from sparsebounds.hcrb import g_function, transition_sigma_e

BAD_COUNTS = [0, -1, 2.5, 2.0, True, math.nan, "2", None]

_MODEL = ProblemModel(np.eye(4), 0.1, 0.1, 1)
_SIGNAL = SparseSignal([1.0, 0.0, 0.0, 0.0])
_RIP = RipConstants(theta_lower=0.1, theta_upper=0.2, s=2, exact=True)


def _rng():
    return np.random.default_rng(0)


# site -> (argument name, call with the count, a valid count)
SITES = {
    "ProblemModel": ("sparsity budget s", lambda v: ProblemModel(np.eye(3), 0.1, 0.1, v), 2),
    "run_trials": ("trials", lambda v: run_trials(_MODEL, _SIGNAL, EstimatorSpec.oracle((0,)), v, 0), 3),
    "EstimatorSpec.maximum_likelihood": ("s", EstimatorSpec.maximum_likelihood, 2),
    "EstimatorSpec(maximum_likelihood)": ("s", lambda v: EstimatorSpec("maximum_likelihood", s=v), 2),
    "estimate_ml_unit": ("s", lambda v: estimate_ml_unit(np.arange(4.0), v), 2),
    "gamma_bounds": ("s", lambda v: gamma_bounds(_RIP, NoiseLevels(0.5, 0.1), v), 2),
    "gamma_approx": ("s", lambda v: gamma_approx(0.5, 0.1, v), 2),
    "transition_sigma_e": ("s", transition_sigma_e, 4),
    "g_function": ("n", lambda v: g_function(0.5, v, 0.1), 5),
    "generate_gaussian_matrix m": ("m", lambda v: generate_gaussian_matrix(v, 3, _rng()), 2),
    "generate_gaussian_matrix n": ("n", lambda v: generate_gaussian_matrix(2, v, _rng()), 3),
    "generate_bernoulli_signal n": ("n", lambda v: generate_bernoulli_signal(v, 1, _rng()), 3),
    "generate_bernoulli_signal s": ("s", lambda v: generate_bernoulli_signal(3, v, _rng()), 2),
    "spark_exceeds": ("k", lambda v: spark_exceeds(np.eye(3), v), 2),
}


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_rejects_a_count_that_is_not_an_integer_ge_1(site, bad):
    name, call, _ = SITES[site]
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= 1"):
        call(bad)


@pytest.mark.parametrize("site", SITES)
def test_accepts_a_numpy_integer_count(site):
    _, call, good = SITES[site]
    call(np.int64(good))


def test_ml_spec_stores_a_python_int():
    s = EstimatorSpec.maximum_likelihood(np.int64(2)).s
    assert s == 2 and type(s) is int


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize(
    "draw",
    [
        lambda v, rng: generate_gaussian_matrix(v, 3, rng),
        lambda v, rng: generate_gaussian_matrix(2, v, rng),
        lambda v, rng: generate_bernoulli_signal(v, 1, rng),
        lambda v, rng: generate_bernoulli_signal(3, v, rng),
    ],
    ids=["gaussian m", "gaussian n", "bernoulli n", "bernoulli s"],
)
def test_generators_reject_a_bad_count_before_drawing(draw, bad):
    rng = _rng()
    state = rng.bit_generator.state
    with pytest.raises(InvalidInputError):
        draw(bad, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generate_bernoulli_signal(3, 4, _rng()), r"^need 1 <= s <= n, got s=4, n=3$"),
        (lambda: estimate_ml_unit(np.ones(2), 3), r"^need 1 <= s <= len\(y\), got s=3$"),
        (lambda: gamma_bounds(_RIP, NoiseLevels(0.5, 0.1), 3), r"^s=3 does not match"),
        (lambda: g_function(0.5, 1, 0.1), r"^g is defined for n >= 2$"),
    ],
    ids=["bernoulli s > n", "ml s > len(y)", "gamma_bounds s != rip.s", "g n < 2"],
)
def test_a_range_rule_keeps_its_own_error(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()

"""The log-likelihood, score and Fisher information J(x) of the
equivalent law, in README's closed forms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import (
    ProblemModel,
    SparseSignal,
    _finite,
    checked_count,
    model_measurement,
    positive_sigma_x_squared,
    real_array,
)

__all__ = [
    "FisherMatrix",
    "fim_closed_form",
    "fim_monte_carlo",
    "log_likelihood",
    "score",
]

# Rows per draw, fixed so the estimate depends only on the generator's state.
DEFAULT_SAMPLE_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Fisher information matrix together with the variance it was built at."""

    J: np.ndarray
    sigma_x2: float

    def __post_init__(self):
        J = real_array("J", self.J)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise InvalidInputError("J must be square")
        if not np.all(np.isfinite(J)):
            raise InvalidInputError("J must be finite")
        out = np.array(J)
        out.flags.writeable = False
        object.__setattr__(self, "J", out)
        object.__setattr__(self, "sigma_x2", float(self.sigma_x2))


def log_likelihood(model: ProblemModel, signal: SparseSignal, y) -> float:
    """Exact log-density of y under the equivalent noise law.  Raises
    DegenerateModelError where sigma_x^2 = 0 and OverflowingMatrixError
    past double range."""
    sx2 = positive_sigma_x_squared(model, signal)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        r = model_measurement(model, y) - model.A @ signal.x
        ll = -0.5 * model.m * math.log(2.0 * math.pi * sx2) - (r @ r) / (2.0 * sx2)
    return _finite("log-likelihood overflows double range", float(ll))


def score(model: ProblemModel, signal: SparseSignal, y) -> np.ndarray:
    """The gradient of log_likelihood in x.  Raises DegenerateModelError
    where sigma_x^2 = 0 and OverflowingMatrixError past double range."""
    sx2 = positive_sigma_x_squared(model, signal)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        r = model_measurement(model, y) - model.A @ signal.x
        return _finite("score overflows double range", _scores(model, signal.x, sx2, r[None])[0])


def _scores(model: ProblemModel, x: np.ndarray, sx2: float, R: np.ndarray) -> np.ndarray:
    """The score at x for each residual row r of R (k, m):
    A^T r / sigma_x^2 + sigma_e^2 (||r||^2 - m sigma_x^2) x / sigma_x^4."""
    rr = np.einsum("ij,ij->i", R, R)
    # never squares sigma_x^2, which may underflow where sigma_x^2 does not
    c = (model.sigma_e**2 / sx2) * (rr / sx2 - model.m)
    return (R @ model.A) / sx2 + c[:, None] * x[None, :]


def fim_closed_form(model: ProblemModel, signal: SparseSignal) -> FisherMatrix:
    """Fisher information J(x) in closed form.  Raises DegenerateModelError
    where sigma_x^2 = 0 and OverflowingMatrixError past double range."""
    sx2 = positive_sigma_x_squared(model, signal)
    x = signal.x
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _fisher
        J = model.A.T @ model.A + (2.0 * model.m * model.sigma_e**4 / sx2) * np.outer(x, x)
        J /= sx2
        return _fisher(J, sx2)


def fim_monte_carlo(
    model: ProblemModel,
    signal: SparseSignal,
    samples: int,
    rng: np.random.Generator,
) -> FisherMatrix:
    """J(x) estimated as the second moment of the score over `samples`
    residuals r = sigma_x z, z ~ N(0, I_m), drawn from rng in chunks of
    DEFAULT_SAMPLE_CHUNK.  Raises InvalidInputError unless samples is an
    integer >= 1, DegenerateModelError where sigma_x^2 = 0 and
    OverflowingMatrixError past double range."""
    samples = checked_count("samples", samples)
    sx2 = positive_sigma_x_squared(model, signal)
    A, x, m = model.A, signal.x, model.m
    ZZ, Zc, cc = np.zeros((m, m)), np.zeros(m), 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _fisher
        for done in range(0, samples, DEFAULT_SAMPLE_CHUNK):
            k = min(DEFAULT_SAMPLE_CHUNK, samples - done)
            Z = rng.standard_normal((k, m))
            # the score at r = sigma_x z is A^T z / sigma_x + c x
            c = (model.sigma_e**2 / sx2) * (np.einsum("ij,ij->i", Z, Z) - m)
            ZZ += Z.T @ Z
            Zc += Z.T @ c
            cc += float(c @ c)
        v = A.T @ Zc / math.sqrt(sx2)
        J = A.T @ ZZ @ A / sx2 + np.outer(v, x) + np.outer(x, v) + cc * np.outer(x, x)
        return _fisher(J / samples, sx2)


def _fisher(J: np.ndarray, sx2: float) -> FisherMatrix:
    """The FisherMatrix of J symmetrized.  Raises OverflowingMatrixError
    past double range."""
    J = _finite("Fisher information J overflows double range", 0.5 * (J + J.T))
    return FisherMatrix(J, sx2)

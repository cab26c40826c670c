"""Likelihood, score, and Fisher information for the perturbed model.

With r = y - Ax and sigma_x^2 = sigma_e^2 ||x||^2 + sigma_n^2 the
log-likelihood is

    ln p(y; x) = -(m/2) ln(2 pi sigma_x^2) - ||r||^2 / (2 sigma_x^2),

its gradient in x is

    score(y; x) = [A^T r + sigma_e^2 ||r||^2 x / sigma_x^2] / sigma_x^2
                  - m sigma_e^2 x / sigma_x^2,

and the Fisher information matrix has the closed form

    J(x) = [A^T A + 2 m sigma_e^4 x x^T / sigma_x^2] / sigma_x^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OverflowingMatrixError
from .model import (
    ProblemModel,
    SparseSignal,
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

# Fixed sampling chunk so the Monte Carlo estimate is reproducible
# regardless of how chunks would be scheduled.
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
    """Exact log-density of a measurement under the equivalent noise law."""
    sx2 = positive_sigma_x_squared(model, signal)
    r = model_measurement(model, y) - model.A @ signal.x
    return float(-0.5 * model.m * math.log(2.0 * math.pi * sx2) - (r @ r) / (2.0 * sx2))


def score(model: ProblemModel, signal: SparseSignal, y) -> np.ndarray:
    """Gradient of log_likelihood with respect to the signal.

    Both the residual and the x-dependence of sigma_x^2 contribute; the
    second term of _scores is the latter.
    """
    sx2 = positive_sigma_x_squared(model, signal)
    r = model_measurement(model, y) - model.A @ signal.x
    return _scores(model, signal.x, sx2, r[None])[0]


def _scores(model: ProblemModel, x: np.ndarray, sx2: float, R: np.ndarray) -> np.ndarray:
    """The score at x for each residual row r of R (k, m):
    A^T r / sigma_x^2 + sigma_e^2 (||r||^2 - m sigma_x^2) x / sigma_x^4."""
    P, c = _score_parts(model, sx2, R)
    return P / sx2 + c[:, None] * x[None, :]


def _score_parts(model: ProblemModel, sx2: float, R: np.ndarray):
    """(P, c) for the residual rows r of R (k, m): P = R A and
    c = sigma_e^2 (||r||^2 - m sigma_x^2) / sigma_x^4, so the score at x of
    row i is P[i] / sigma_x^2 + c[i] x.  c is formed as (sigma_e^2 /
    sigma_x^2) (||r||^2 / sigma_x^2 - m), never squaring sigma_x^2, which
    may underflow where sigma_x^2 itself does not."""
    rr = np.einsum("ij,ij->i", R, R)
    return R @ model.A, (model.sigma_e**2 / sx2) * (rr / sx2 - model.m)


def fim_closed_form(model: ProblemModel, signal: SparseSignal) -> FisherMatrix:
    """Fisher information J(x) in closed form."""
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
    """Estimate J(x) as the sample second moment of the score.

    Residuals are drawn in fixed-size chunks directly from the equivalent
    law r ~ N(0, sigma_x^2 I), so the estimate is deterministic for a given
    generator state.  Each chunk adds to P^T P, P^T c and c^T c (see
    _score_parts), whose sum of score outer products is P^T P / sigma_x^4 +
    v x^T + x v^T + (c^T c) x x^T with v = P^T c / sigma_x^2; no score is
    formed.  Raises InvalidInputError unless samples is an integer >= 1.
    """
    samples = checked_count("samples", samples)
    sx2 = positive_sigma_x_squared(model, signal)
    sx, x = math.sqrt(sx2), signal.x
    PP, Pc, cc = np.zeros((model.n, model.n)), np.zeros(model.n), 0.0
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _fisher
        while done < samples:
            k = min(DEFAULT_SAMPLE_CHUNK, samples - done)
            P, c = _score_parts(model, sx2, sx * rng.standard_normal((k, model.m)))
            PP += P.T @ P
            Pc += P.T @ c
            cc += float(c @ c)
            done += k
        v = Pc / sx2
        J = PP / sx2 / sx2 + np.outer(v, x) + np.outer(x, v) + cc * np.outer(x, x)
        return _fisher(J / samples, sx2)


def _fisher(J: np.ndarray, sx2: float) -> FisherMatrix:
    """The FisherMatrix of J symmetrized, raising OverflowingMatrixError
    when J is not finite: its entries left double range."""
    J = 0.5 * (J + J.T)
    if not np.isfinite(J).all():
        raise OverflowingMatrixError("Fisher information J overflows double range")
    return FisherMatrix(J, sx2)

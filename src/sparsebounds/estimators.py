"""The reference estimators the bounds are checked against by simulation:
oracle least squares, maximum likelihood, a locally unbiased and a biased
noise-exploiting estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SparseBoundsError, UnsupportedMatrixError
from .model import (
    ProblemModel,
    SparseSignal,
    checked_count,
    checked_indices,
    checked_support,
    model_measurement,
    positive_sigma_x_squared,
    support_factor,
)

__all__ = ["EstimatorSpec", "estimate_oracle", "apply_estimator"]


# Each estimator kind and its short name; the command line accepts both.
_KIND_NAMES = {
    "oracle": "oracle",
    "maximum_likelihood": "ml",
    "locally_unbiased": "unbiased",
    "noise_exploiting": "noise",
}


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """One reference estimator, `kind`, with its parameters, built by the
    factory classmethods.  Raises InvalidInputError on an unknown kind or a
    missing parameter."""

    kind: str
    support: tuple[int, ...] | None = None
    s: int | None = None
    x0: SparseSignal | None = None

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise InvalidInputError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "oracle":
            if not self.support:
                raise InvalidInputError("oracle estimator needs a support")
            object.__setattr__(
                self, "support", tuple(sorted(checked_indices(self.support)))
            )
        elif self.kind == "maximum_likelihood":
            object.__setattr__(self, "s", checked_count("s", self.s))
        elif self.kind == "locally_unbiased":
            if self.x0 is None or len(self.x0.support) != 1:
                raise InvalidInputError(
                    "locally_unbiased estimator needs a 1-sparse reference point"
                )

    @classmethod
    def oracle(cls, support) -> "EstimatorSpec":
        return cls(kind="oracle", support=tuple(support))

    @classmethod
    def maximum_likelihood(cls, s: int) -> "EstimatorSpec":
        return cls(kind="maximum_likelihood", s=s)

    @classmethod
    def locally_unbiased(cls, x0: SparseSignal) -> "EstimatorSpec":
        return cls(kind="locally_unbiased", x0=x0)

    @classmethod
    def noise_exploiting(cls) -> "EstimatorSpec":
        return cls(kind="noise_exploiting")

    @classmethod
    def named(cls, name: str, model: ProblemModel, signal: SparseSignal) -> "EstimatorSpec":
        """The estimator a long or short name selects, set up for one model
        and signal: the oracle on the signal's support, maximum likelihood
        at the model's s, the locally unbiased one anchored at the signal."""
        kind = next((k for k, short in _KIND_NAMES.items() if name in (k, short)), None)
        if kind is None:
            raise InvalidInputError(f"unknown estimator {name!r}")
        if kind == "oracle":
            return cls.oracle(signal.support)
        if kind == "maximum_likelihood":
            return cls.maximum_likelihood(model.s)
        if kind == "locally_unbiased":
            return cls.locally_unbiased(signal)
        return cls.noise_exploiting()

    @property
    def name(self) -> str:
        return _KIND_NAMES[self.kind]


# Every kernel maps a block Y of k measurements, one per row, to the dense
# estimates Xhat (k, n) and the failures {row: error}, in row order; the
# rows of Xhat that failed hold no estimate.  The kernels reject a
# non-finite estimate with InvalidInputError(_NOT_FINITE), so a Monte
# Carlo trial counts it as failed.
_NOT_FINITE = "x must be finite"
_ZERO_MEASUREMENT = "zero measurement has no identifiable support"


def row_dot(E: np.ndarray) -> np.ndarray:
    """E[i] @ E[i] for every row of a 2-d array, bit for bit."""
    return np.vecdot(E, E)  # einsum and (E * E).sum(1) add in other orders


def _not_finite(values: np.ndarray) -> dict:
    """{row: InvalidInputError} for each row of a (k, s) array that holds
    a value that is not finite."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    return {int(i): InvalidInputError(_NOT_FINITE) for i in bad}


def estimate_oracle(model: ProblemModel, y, support) -> np.ndarray:
    """Least squares G A_S^T y on a known support, with the bounds' G from
    support_factor, as a dense estimate of length n.  Raises
    SingularMatrixError as the bounds do, and InvalidInputError when the
    estimate is not finite."""
    S = checked_support(model, support)
    yv = model_measurement(model, y)
    A_S, G = support_factor(model, S)
    # called once per Monte Carlo trial: `@` makes the same BLAS call with
    # the same bits, but as a gufunc costs about 1 us more on operands this small
    coeffs = G.dot(A_S.T.dot(yv))
    if not all(map(math.isfinite, coeffs.tolist())):
        raise InvalidInputError(_NOT_FINITE)
    x = np.zeros(model.n)
    x.put(S, coeffs)
    return x


def _oracle(model: ProblemModel, support: tuple[int, ...]):
    """The block map of the oracle: estimate_oracle once per row, so each
    row keeps that function's checks and its exact error.  A row whose
    product overflows is reported as its failure, with no warning."""

    def kernel(Y: np.ndarray):
        X = np.zeros((len(Y), model.n))
        errors = {}
        # one errstate per block: per row it would cost about 5% of a trial
        with np.errstate(over="ignore", invalid="ignore"):
            for i, y in enumerate(Y):
                try:
                    X[i] = estimate_oracle(model, y, support)
                except SparseBoundsError as exc:
                    errors[i] = exc
        return X, errors

    return kernel


def _ml_unit(Y: np.ndarray, s: int):
    """Dense ML estimates for a unit sensing matrix, the s largest
    magnitudes of each row (ties toward the lowest index), and the
    failures: each row that is not finite."""
    keep = np.sort(np.argsort(-np.abs(Y), axis=1, kind="stable")[:, :s], axis=1)
    rows = np.arange(len(Y))[:, None]
    X = np.zeros(Y.shape)
    X[rows, keep] = Y[rows, keep]
    return X, _not_finite(Y)


def _locally_unbiased(model: ProblemModel, x0: SparseSignal):
    """The block map of the unbiased estimator anchored at a 1-sparse x0:
    y_q at its coordinate q, every other coordinate damped by exp(-(2 y_q
    x0q + x0q^2) / (2 sigma_x0^2)); a row that is not finite fails."""
    s0sq = positive_sigma_x_squared(model, x0)
    q = x0.support[0]
    x0q = float(x0.x[q])

    def kernel(Y: np.ndarray):
        yq = Y[:, q]
        with np.errstate(over="ignore", invalid="ignore"):  # failed below
            damp = np.exp(-(2.0 * yq * x0q + x0q**2) / (2.0 * s0sq))
            X = Y * damp[:, None]
        X[:, q] = yq
        return X, _not_finite(X)

    return kernel


def _noise_exploiting(Y: np.ndarray):
    """Dense noise-exploiting estimates, sum(y^2) / (2 y_k) on the
    largest-magnitude coordinate k of each row, and the failures."""
    rows = np.arange(len(Y))
    peak_at = np.abs(Y).argmax(axis=1)
    # an overflowing energy, an infinite peak or a zero row's 0/0 fails below
    with np.errstate(over="ignore", invalid="ignore"):
        peak = row_dot(Y) / (2.0 * Y[rows, peak_at])
    X = np.zeros(Y.shape)
    X[rows, peak_at] = peak
    errors = _not_finite(peak[:, None])
    for i in errors:
        if not Y[i].any():
            errors[i] = InvalidInputError(_ZERO_MEASUREMENT)
    return X, errors


def estimator_kernel(model: ProblemModel, spec: EstimatorSpec):
    """The block map Y (k, m) -> (Xhat (k, n), {row: error}) of one
    estimator on one model.  Raises what apply_estimator would when the
    estimator does not fit the model."""
    if spec.kind == "oracle":
        return _oracle(model, checked_support(model, spec.support))
    if not model._unit:  # the flag the closed-form HCRB reads
        raise UnsupportedMatrixError(f"estimator {spec.name!r} requires identity matrix")
    if spec.kind == "locally_unbiased":
        return _locally_unbiased(model, spec.x0)
    if spec.kind == "maximum_likelihood":
        if spec.s > model.m:
            raise InvalidInputError(f"need 1 <= s <= len(y), got s={spec.s}")
        return lambda Y: _ml_unit(Y, spec.s)
    return _noise_exploiting


def apply_estimator(model: ProblemModel, y, spec: EstimatorSpec) -> np.ndarray:
    """Run one estimator and return a dense estimate of length n."""
    yv = model_measurement(model, y)
    X, errors = estimator_kernel(model, spec)(yv[None])
    if errors:
        raise errors[0]
    return X[0]

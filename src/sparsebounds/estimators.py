"""Reference estimators used to validate the bounds by simulation.

Four estimators appear in the experiments:

* oracle: least squares on a known support;
* maximum likelihood for a unit sensing matrix: keep the s largest
  magnitudes of y;
* a locally unbiased estimator built around a 1-sparse reference point,
  whose off-support components damp y by a likelihood ratio in the
  reference coordinate;
* a biased "noise exploiting" estimator for s = 1 that averages the
  perturbation energy into the peak coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateModelError, InvalidInputError, SparseBoundsError
from .model import (
    Measurement,
    ProblemModel,
    SparseSignal,
    measurement_vector,
    support_factor,
)

__all__ = [
    "EstimatorSpec",
    "estimate_oracle",
    "estimate_ml_unit",
    "estimate_locally_unbiased",
    "estimate_noise_exploiting",
    "apply_estimator",
]


# Each estimator kind and its short name; the command line accepts both.
_KIND_NAMES = {
    "oracle": "oracle",
    "maximum_likelihood": "ml",
    "locally_unbiased": "unbiased",
    "noise_exploiting": "noise",
}


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """Declarative description of one reference estimator.

    Use the factory classmethods; `kind` selects the estimator and the
    remaining fields carry its parameters.
    """

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
                self, "support", tuple(sorted(int(i) for i in self.support))
            )
        elif self.kind == "maximum_likelihood":
            if self.s is None or self.s < 1:
                raise InvalidInputError("maximum_likelihood estimator needs s >= 1")
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
        return cls(kind="maximum_likelihood", s=int(s))

    @classmethod
    def locally_unbiased(cls, x0: SparseSignal) -> "EstimatorSpec":
        return cls(kind="locally_unbiased", x0=x0)

    @classmethod
    def noise_exploiting(cls) -> "EstimatorSpec":
        return cls(kind="noise_exploiting")

    @property
    def name(self) -> str:
        return _KIND_NAMES[self.kind]


# Every kernel maps a block Y of k measurements, one per row, to the dense
# estimates Xhat (k, n) and the failures {row: error}, in row order; the
# rows of Xhat that failed hold no estimate.  The kernels reject a
# non-finite estimate as SparseSignal would, so a Monte Carlo trial counts
# it as failed.
_NOT_FINITE = "x must be finite"
_ZERO_MEASUREMENT = "zero measurement has no identifiable support"


def row_dot(E: np.ndarray) -> np.ndarray:
    """E[i] @ E[i] for every row of a 2-d array, bit for bit: vecdot takes
    the same dot product per row as the 1-d `@` does (einsum and
    (E * E).sum(1) add in other orders)."""
    return np.vecdot(E, E)


def _not_finite(values: np.ndarray) -> dict:
    """{row: InvalidInputError} for each row of a (k, s) array that holds
    a value that is not finite."""
    finite = np.isfinite(values)
    if finite.all():  # the common case, at half the cost of the row test
        return {}
    bad = np.flatnonzero(~finite.all(axis=1))
    return {int(i): InvalidInputError(_NOT_FINITE) for i in bad}


def estimate_oracle(model: ProblemModel, y, support) -> SparseSignal:
    """Least squares restricted to a known support.

    The Cholesky factor of A_S^T A_S is the one the bounds use
    (model.support_factor), computed once per matrix and support; the
    solve gives the same bits as cho_solve.  Raises SingularMatrixError
    when A_S^T A_S is numerically singular, by the same test as the bounds.
    """
    S = tuple(sorted(int(i) for i in support))
    if not S or len(S) != len(set(S)) or S[0] < 0 or S[-1] >= model.n:
        raise InvalidInputError("invalid oracle support")
    yv = measurement_vector(y)
    if yv.size != model.m:
        raise InvalidInputError("measurement length does not match model m")
    A_S, (upper, _) = support_factor(model, S)
    coeffs, _ = scipy.linalg.lapack.dpotrs(upper, A_S.T @ yv, lower=0, overwrite_b=1)
    x = np.zeros(model.n)
    x[list(S)] = coeffs
    return SparseSignal(x, S)


def _oracle(model: ProblemModel, support: tuple[int, ...]):
    """The block map of the oracle: estimate_oracle once per row, so each
    row keeps that function's checks and its exact error."""

    def kernel(Y: np.ndarray):
        X = np.zeros((len(Y), model.n))
        errors = {}
        for i, y in enumerate(Y):
            try:
                X[i] = estimate_oracle(model, y, support).x
            except SparseBoundsError as exc:
                errors[i] = exc
        return X, errors

    return kernel


def _ml_unit(Y: np.ndarray, s: int):
    """Dense ML estimates for a unit sensing matrix, the failures, and the
    kept indices of each row (k, s), in increasing order."""
    if s == 1:
        # argmax keeps the lowest index on ties, like the stable sort below
        keep = np.abs(Y).argmax(axis=1, keepdims=True)
    else:
        keep = np.sort(np.argsort(-np.abs(Y), axis=1, kind="stable")[:, :s], axis=1)
    rows = np.arange(len(Y))[:, None]
    kept = Y[rows, keep]
    X = np.zeros(Y.shape)
    X[rows, keep] = kept
    return X, _not_finite(kept), keep


def estimate_ml_unit(y, s: int) -> SparseSignal:
    """Maximum likelihood for a unit sensing matrix: keep the s largest
    magnitudes of y (ties broken toward the lowest index)."""
    yv = measurement_vector(y)
    if not 1 <= s <= yv.size:
        raise InvalidInputError(f"need 1 <= s <= len(y), got s={s}")
    X, errors, keep = _ml_unit(yv[None], s)
    if errors:
        raise errors[0]
    return SparseSignal(X[0], tuple(keep[0].tolist()))


def _locally_unbiased(model: ProblemModel, x0: SparseSignal):
    """The block map of the estimator anchored at x0."""
    if len(x0.support) != 1:
        raise InvalidInputError("reference point must have a single-index support")
    if x0.n != model.n:
        raise InvalidInputError("reference point length does not match model")
    if model.m != model.n:
        raise InvalidInputError("this estimator requires m = n measurements")
    q = x0.support[0]
    x0q = float(x0.x[q])
    s0sq = model.sigma_e**2 * x0q**2 + model.sigma_n**2
    if s0sq <= 0.0:
        raise DegenerateModelError("reference noise variance is zero")

    def kernel(Y: np.ndarray):
        yq = Y[:, q]
        damp = np.exp(-(2.0 * yq * x0q + x0q**2) / (2.0 * s0sq))
        X = Y * damp[:, None]
        X[:, q] = yq
        return X, {}

    return kernel


def estimate_locally_unbiased(model: ProblemModel, y, x0: SparseSignal) -> np.ndarray:
    """Unbiased estimator anchored at a 1-sparse reference point x0.

    The reference coordinate q passes y_q through; every other coordinate
    is damped by exp(-(2 y_q x0q + x0q^2) / (2 sigma_x0^2)), the
    likelihood ratio between -x0q and 0 at coordinate q.  The output is
    dense: it is not projected onto a sparse support.
    """
    yv = measurement_vector(y)
    if yv.size != model.n:
        raise InvalidInputError("this estimator requires m = n measurements")
    return _locally_unbiased(model, x0)(yv[None])[0][0]


def _noise_exploiting(Y: np.ndarray):
    """Dense noise-exploiting estimates, the failures, and the peak
    coordinate of each row."""
    rows = np.arange(len(Y))
    peak_at = np.abs(Y).argmax(axis=1)
    den = 2.0 * Y[rows, peak_at]
    # only a zero row has a zero peak: NaN fails it below without the 0/0
    # warning, and costs far less than np.errstate
    den[den == 0.0] = np.nan
    peak = row_dot(Y) / den
    X = np.zeros(Y.shape)
    X[rows, peak_at] = peak
    errors = _not_finite(peak[:, None])
    for i in errors:
        if not Y[i].any():
            errors[i] = InvalidInputError(_ZERO_MEASUREMENT)
    return X, errors, peak_at


def estimate_noise_exploiting(y) -> SparseSignal:
    """Biased s = 1 estimator that folds perturbation energy into the peak.

    Places sum(y^2) / (2 y_k) on the largest-magnitude coordinate k.
    Raises InvalidInputError when y is identically zero.
    """
    X, errors, peak_at = _noise_exploiting(measurement_vector(y)[None])
    if errors:
        raise errors[0]
    return SparseSignal(X[0], (int(peak_at[0]),))


def estimator_kernel(model: ProblemModel, spec: EstimatorSpec):
    """The block map Y (k, m) -> (Xhat (k, n), {row: error}) of one
    estimator on one model.

    Everything that depends only on (model, spec) is checked here, once;
    the returned function takes a block of measurements of length m and
    reports what depends on each row as that row's failure.  Raises the
    error every call of apply_estimator would raise when the estimator
    does not fit the model.
    """
    if spec.kind == "oracle":
        return _oracle(model, spec.support)
    if spec.kind == "locally_unbiased":
        return _locally_unbiased(model, spec.x0)
    if spec.kind == "maximum_likelihood":
        s = spec.s
        if s > model.m:
            raise InvalidInputError(f"need 1 <= s <= len(y), got s={s}")
        kernel = lambda Y: _ml_unit(Y, s)[:2]  # noqa: E731
    else:
        kernel = lambda Y: _noise_exploiting(Y)[:2]  # noqa: E731
    if model.m != model.n:
        raise InvalidInputError("estimate length does not match model n")
    return kernel


def apply_estimator(model: ProblemModel, y, spec: EstimatorSpec) -> np.ndarray:
    """Run one estimator and return a dense estimate of length n."""
    yv = measurement_vector(y)
    if yv.size != model.m:
        raise InvalidInputError("measurement length does not match model m")
    X, errors = estimator_kernel(model, spec)(yv[None])
    if errors:
        raise errors[0]
    return X[0]

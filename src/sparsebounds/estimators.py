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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateModelError, InvalidInputError
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


# The kernels reject a non-finite estimate as SparseSignal would, so a
# Monte Carlo trial counts it as failed.
_NOT_FINITE = "x must be finite"


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


def _ml_unit(yv: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ML estimate for a unit sensing matrix and its kept indices."""
    if s == 1:
        # argmax keeps the lowest index on ties, like the stable sort below
        keep = np.abs(yv).argmax(keepdims=True)
    else:
        keep = np.sort(np.argsort(-np.abs(yv), kind="stable")[:s])
    kept = yv[keep]
    if not np.isfinite(kept).all():
        raise InvalidInputError(_NOT_FINITE)
    x = np.zeros(yv.size)
    x[keep] = kept
    return x, keep


def estimate_ml_unit(y, s: int) -> SparseSignal:
    """Maximum likelihood for a unit sensing matrix: keep the s largest
    magnitudes of y (ties broken toward the lowest index)."""
    yv = measurement_vector(y)
    if not 1 <= s <= yv.size:
        raise InvalidInputError(f"need 1 <= s <= len(y), got s={s}")
    x, keep = _ml_unit(yv, s)
    return SparseSignal(x, tuple(keep.tolist()))


def _locally_unbiased(model: ProblemModel, x0: SparseSignal):
    """The y -> estimate map of the estimator anchored at x0."""
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

    def kernel(yv: np.ndarray) -> np.ndarray:
        damp = np.exp(-(2.0 * yv[q] * x0q + x0q**2) / (2.0 * s0sq))
        out = yv * damp
        out[q] = yv[q]
        return out

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
    return _locally_unbiased(model, x0)(yv)


def _noise_exploiting(yv: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense noise-exploiting estimate and its peak coordinate."""
    if not yv.any():
        raise InvalidInputError("zero measurement has no identifiable support")
    k = int(np.abs(yv).argmax())
    peak = float(yv @ yv) / (2.0 * yv[k])
    if not math.isfinite(peak):
        raise InvalidInputError(_NOT_FINITE)
    x = np.zeros(yv.size)
    x[k] = peak
    return x, k


def estimate_noise_exploiting(y) -> SparseSignal:
    """Biased s = 1 estimator that folds perturbation energy into the peak.

    Places sum(y^2) / (2 y_k) on the largest-magnitude coordinate k.
    Raises InvalidInputError when y is identically zero.
    """
    x, k = _noise_exploiting(measurement_vector(y))
    return SparseSignal(x, (k,))


def estimator_kernel(model: ProblemModel, spec: EstimatorSpec):
    """The y -> dense estimate map of one estimator on one model.

    Everything that depends only on (model, spec) is checked here, once;
    the returned function takes a measurement vector of length m and
    checks only what depends on y.  Raises the error every call of
    apply_estimator would raise when the estimator does not fit the model.
    """
    if spec.kind == "oracle":
        support = spec.support
        # every oracle trial goes through estimate_oracle and its cached factor
        return lambda yv: estimate_oracle(model, yv, support).x
    if spec.kind == "locally_unbiased":
        return _locally_unbiased(model, spec.x0)
    if spec.kind == "maximum_likelihood":
        s = spec.s
        if s > model.m:
            raise InvalidInputError(f"need 1 <= s <= len(y), got s={s}")
        kernel = lambda yv: _ml_unit(yv, s)[0]  # noqa: E731
    else:
        kernel = lambda yv: _noise_exploiting(yv)[0]  # noqa: E731
    if model.m != model.n:
        raise InvalidInputError("estimate length does not match model n")
    return kernel


def apply_estimator(model: ProblemModel, y, spec: EstimatorSpec) -> np.ndarray:
    """Run one estimator and return a dense estimate of length n."""
    yv = measurement_vector(y)
    if yv.size != model.m:
        raise InvalidInputError("measurement length does not match model m")
    return estimator_kernel(model, spec)(yv)

"""Hammersley-Chapman-Robbins bounds for sparse estimation.

The general bound uses a finite set of test-point offsets {v_i} with
x + v_i still s-sparse:  Cov >= V H^+ V^T, where V stacks the offsets
and, with s_i^2 = sigma_{x+v_i}^2 and 1/vs_ij^2 = 1/s_i^2 + 1/s_j^2
- 1/sigma_x^2 (which must stay positive),

    H_ij = (sigma_x^2 vs_ij^2 / (s_i^2 s_j^2))^{m/2}
           * exp(-||A v_i||^2/(2 s_i^2) - ||A v_j||^2/(2 s_j^2)
                 + (vs_ij^2/2) ||A v_i / s_i^2 + A v_j / s_j^2||^2) - 1.

For a unit sensing matrix and a fully supported signal the supremum over
offsets has a closed form: the support part equals the maximal-support
CCRB and the off-support part is sigma_x^2 d with

    d = (n-s) beta e^{-beta} / (e^beta - 1)
        * (1 - 1/(n - s + e^beta (1 - g(beta))^{-1})),

beta = x_q^2 / sigma_x^2 for the smallest-magnitude nonzero entry x_q and

    g(beta) = beta (1 - 2 sigma_e^2 beta)^2
              / ((e^beta - 1)(1 + 2 n sigma_e^4 beta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateModelError,
    DivergentTestPointError,
    InfeasibleOffsetError,
    InvalidInputError,
    UnsupportedMatrixError,
    WrongRegimeError,
)
from .model import ProblemModel, SparseSignal, positive_sigma_x_squared

__all__ = [
    "TestPointSet",
    "HcrbReport",
    "test_points",
    "hcrb_general",
    "hcrb_unit_closed_form",
    "g_function",
    "beta_of",
    "d_hcrb",
    "transition_sigma_e",
]

# Relative eigenvalue cutoff for the pseudo-inverse of H.
PINV_RTOL = 1e-12

# Beyond this beta every exp(-beta)-weighted term underflows double
# precision outright.
_BETA_OVERFLOW = 700.0


@dataclass(frozen=True, eq=False)
class TestPointSet:
    """Offsets with their matrix H and the pairwise variances vs_ij^2."""

    offsets: tuple[np.ndarray, ...]
    V: np.ndarray
    H: np.ndarray
    varsigma2: np.ndarray


@dataclass(frozen=True)
class HcrbReport:
    """Closed-form bound split into support and off-support parts."""

    bound: float
    support_part: float
    nonsupport_part: float
    beta: float
    g_beta: float

    def __post_init__(self):
        for name in ("bound", "support_part", "nonsupport_part", "beta", "g_beta"):
            object.__setattr__(self, name, float(getattr(self, name)))


def test_points(model: ProblemModel, signal: SparseSignal, offsets) -> TestPointSet:
    """Assemble H for a set of offsets.

    Each entry is evaluated as expm1 of its logarithm, which keeps the
    -1 cancellation exact for offsets of any size.  Raises
    InfeasibleOffsetError when some x + v_i is not s-sparse and
    DivergentTestPointError when some pair has vs_ij^2 <= 0.
    """
    if signal.n != model.n:
        raise InvalidInputError("signal length does not match model")
    sx2 = positive_sigma_x_squared(model, signal)
    vs = []
    for v in offsets:
        v = np.asarray(v, dtype=float)
        if v.shape != (model.n,):
            raise InvalidInputError("offset length does not match model n")
        vs.append(v)
    if not vs:
        raise InvalidInputError("need at least one offset")
    k = len(vs)
    s2 = np.empty(k)
    Av = np.empty((k, model.m))
    for i, v in enumerate(vs):
        xi = signal.x + v
        if np.count_nonzero(xi) > model.s:
            raise InfeasibleOffsetError(
                f"offset {i} leaves the sparse set: ||x + v||_0 = "
                f"{np.count_nonzero(xi)} > s = {model.s}"
            )
        s2[i] = model.sigma_e**2 * (xi @ xi) + model.sigma_n**2
        if s2[i] <= 0.0:
            raise DegenerateModelError(f"offset {i} has zero equivalent variance")
        Av[i] = model.A @ v
    H = np.empty((k, k))
    varsigma2 = np.empty((k, k))
    half_m = 0.5 * model.m
    for i in range(k):
        for j in range(i, k):
            inv_vs = 1.0 / s2[i] + 1.0 / s2[j] - 1.0 / sx2
            if inv_vs <= 0.0:
                raise DivergentTestPointError(
                    f"test-point pair ({i}, {j}) has vs^2 <= 0; the defining "
                    "integral diverges"
                )
            vs2 = 1.0 / inv_vs
            w = Av[i] / s2[i] + Av[j] / s2[j]
            L = (
                half_m
                * (math.log(sx2) + math.log(vs2) - math.log(s2[i]) - math.log(s2[j]))
                - (Av[i] @ Av[i]) / (2.0 * s2[i])
                - (Av[j] @ Av[j]) / (2.0 * s2[j])
                + 0.5 * vs2 * (w @ w)
            )
            H[i, j] = H[j, i] = math.expm1(L)
            varsigma2[i, j] = varsigma2[j, i] = vs2
    V = np.column_stack(vs)
    return TestPointSet(offsets=tuple(vs), V=V, H=H, varsigma2=varsigma2)


def _pinv_psd(H: np.ndarray, rtol: float = PINV_RTOL) -> np.ndarray:
    # divide and conquer: several times faster than the default driver on
    # the unit-diagonal matrices hcrb_general passes in
    w, Q = scipy.linalg.eigh(H, driver="evd")
    cut = rtol * max(w[-1], 0.0)
    inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return (Q * inv) @ Q.T


def hcrb_general(
    model: ProblemModel, signal: SparseSignal, offsets
) -> tuple[np.ndarray, float]:
    """Covariance lower bound V H^+ V^T and its trace.

    It is evaluated as (V D^-1) (D^-1 H D^-1)^+ (V D^-1)^T with
    d_i = sqrt(H_ii): with offsets of mixed scales H spans many decades,
    and an eigenvalue cut relative to the largest would drop the
    small-offset directions.  This equals V H^-1 V^T when H is invertible
    and is a valid bound otherwise.  Accepts raw offset vectors or an
    already assembled TestPointSet.
    """
    if isinstance(offsets, TestPointSet):
        tps = offsets
    else:
        tps = test_points(model, signal, offsets)
    h = np.diag(tps.H)
    d = np.sqrt(np.where(h > 0.0, h, 1.0))
    W = tps.V / d
    C = W @ _pinv_psd(tps.H / np.outer(d, d)) @ W.T
    C = 0.5 * (C + C.T)
    return C, float(np.trace(C))


def beta_of(model: ProblemModel, signal: SparseSignal) -> float:
    """Normalized squared smallest nonzero entry, x_q^2 / sigma_x^2.

    At most 1/(k sigma_e^2) for a k-nonzero signal whenever sigma_e > 0,
    since sigma_x^2 = sigma_e^2 ||x||^2 + sigma_n^2 >= k sigma_e^2 x_q^2.
    """
    nz = np.flatnonzero(signal.x)
    if nz.size == 0:
        raise InvalidInputError("the zero signal has no smallest nonzero entry")
    sx2 = positive_sigma_x_squared(model, signal)
    xq = np.min(np.abs(signal.x[nz]))
    return float(xq**2 / sx2)


def g_function(beta: float, n: int, sigma_e: float) -> float:
    """The factor g(beta) in the off-support part; lies in [0, 1).

    Zero exactly at beta = 1/(2 sigma_e^2) and decaying like
    beta e^{-beta} for large beta.
    """
    if beta <= 0.0:
        raise InvalidInputError("beta must be positive")
    if n < 2:
        raise InvalidInputError("g is defined for n >= 2")
    if sigma_e < 0.0:
        raise InvalidInputError("sigma_e must be nonnegative")
    if beta > _BETA_OVERFLOW:
        return 0.0
    num = beta * (1.0 - 2.0 * sigma_e**2 * beta) ** 2
    den = math.expm1(beta) * (1.0 + 2.0 * n * sigma_e**4 * beta)
    return num / den


def _require_unit_maximal(model: ProblemModel, signal: SparseSignal) -> None:
    if signal.n != model.n:
        raise InvalidInputError("signal length does not match model")
    if model.m != model.n or not np.array_equal(model.A, np.eye(model.n)):
        raise UnsupportedMatrixError("closed-form HCRB requires identity matrix")
    if model.n < 2:
        raise InvalidInputError("closed-form HCRB requires n >= 2")
    if signal.nonzero_count != model.s or len(signal.support) != model.s:
        raise WrongRegimeError(
            f"closed-form HCRB needs ||x||_0 = s = {model.s}, "
            f"got {signal.nonzero_count}"
        )


def _off_support(model: ProblemModel, signal: SparseSignal) -> tuple[float, float, float]:
    """(beta, g(beta), d) of the unit-matrix bound."""
    _require_unit_maximal(model, signal)
    n, s = model.n, model.s
    beta = beta_of(model, signal)
    g = g_function(beta, n, model.sigma_e)
    if n == s or beta > _BETA_OVERFLOW:
        return beta, g, 0.0
    h = beta * math.exp(-beta) / math.expm1(beta)
    if g < 1.0:
        tail = (n - s) + math.exp(beta) / (1.0 - g)
    else:
        tail = math.inf  # g rounds to 1 only as beta -> 0, where the tail diverges
    return beta, g, (n - s) * h * (1.0 - 1.0 / tail)


def d_hcrb(model: ProblemModel, signal: SparseSignal) -> float:
    """Off-support part of the unit-matrix bound, as a multiple of sigma_x^2."""
    return _off_support(model, signal)[2]


def hcrb_unit_closed_form(model: ProblemModel, signal: SparseSignal) -> HcrbReport:
    """Closed-form HCRB for a unit sensing matrix and ||x||_0 = s.

    The support part coincides with the maximal-support CCRB at A = I;
    the off-support part sigma_x^2 d closes the gap toward the
    unconstrained bound as the smallest entry shrinks.
    """
    beta, g, d = _off_support(model, signal)
    sx2 = positive_sigma_x_squared(model, signal)
    n, s = model.n, model.s
    x = signal.x
    energy = float(x @ x)
    c = 2.0 * n * model.sigma_e**4
    support_part = sx2 * (s - c * energy / (sx2 + c * energy))
    nonsupport_part = sx2 * d
    return HcrbReport(
        bound=support_part + nonsupport_part,
        support_part=support_part,
        nonsupport_part=nonsupport_part,
        beta=beta,
        g_beta=g,
    )


def transition_sigma_e(s: int) -> float:
    """Perturbation level 1/sqrt(s) separating the two gap regimes."""
    if s < 1:
        raise InvalidInputError("s must be positive")
    return 1.0 / math.sqrt(s)

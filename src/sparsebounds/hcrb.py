"""Hammersley-Chapman-Robbins bounds (HCRB) for sparse estimation: the
general bound from test-point offsets, and the closed form for a unit
sensing matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccrb import maximal_report, maximal_support
from .errors import (
    DegenerateModelError,
    DivergentTestPointError,
    InfeasibleOffsetError,
    InvalidInputError,
    OverflowingTestPointError,
    UnsupportedMatrixError,
)
from .model import (
    ProblemModel, SparseSignal, _check_signal, _deviations, checked_count, positive_sigma_x_squared,
    real_array,
)

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

# Ridge added to the unit diagonal of D^-1 H D^-1 before hcrb_general's solve.
RIDGE = 1e-12

# Beyond this beta every exp(-beta)-weighted term underflows double
# precision outright.
_BETA_OVERFLOW = 700.0


@dataclass(frozen=True, eq=False)
class TestPointSet:
    """Offsets with their matrix H."""

    offsets: tuple[np.ndarray, ...]
    V: np.ndarray
    H: np.ndarray


@dataclass(frozen=True)
class HcrbReport:
    """Closed-form bound split into support and off-support parts; every
    numeric field is a Python float."""

    bound: float
    support_part: float
    nonsupport_part: float
    beta: float
    g_beta: float


def test_points(model: ProblemModel, signal: SparseSignal, offsets) -> TestPointSet:
    """The offsets, V and H = expm1(L) of README's L_ij.  Raises
    InvalidInputError for the first offset that is not a finite real vector
    of length n; then, for the first offending offset, InfeasibleOffsetError
    when x + v_i is not s-sparse and DegenerateModelError when s_i^2 = 0;
    then, for the first pair (i, j >= i) in row-major order,
    DivergentTestPointError when 1 - a_i a_j <= 0 and
    OverflowingTestPointError when H_ij overflows."""
    sx2 = positive_sigma_x_squared(model, signal)
    vs = []
    for i, v in enumerate(offsets):
        v = real_array(f"offset {i}", v)
        if v.shape != (model.n,):
            raise InvalidInputError("offset length does not match model n")
        if not np.isfinite(v).all():
            raise InvalidInputError(f"offset {i} must be finite")
        vs.append(v)
    if not vs:
        raise InvalidInputError("need at least one offset")
    V = np.column_stack(vs)
    X = signal.x[:, None] + V
    nnz = np.count_nonzero(X, axis=0)
    s2 = model.sigma_e**2 * np.einsum("ij,ij->j", X, X) + model.sigma_n**2
    bad = np.flatnonzero((nnz > model.s) | (s2 <= 0.0))
    if bad.size:
        i = int(bad[0])
        if nnz[i] > model.s:
            raise InfeasibleOffsetError(
                f"offset {i} leaves the sparse set: ||x + v||_0 = "
                f"{nnz[i]} > s = {model.s}"
            )
        raise DegenerateModelError(f"offset {i} has zero equivalent variance")
    a = model.sigma_e**2 * np.einsum("ij,ij->j", X + signal.x[:, None], V) / sx2
    B = V.T @ model.A.T  # row i is b_i = A v_i
    aa = a[:, None] * a
    den = 1.0 - aa
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        L = np.einsum("ij,ij->i", B, B)[:, None] * a  # a_j ||b_i||^2
        L += L.T  # numpy reads L.T as it was before the sum
        L *= 0.5
        L += B @ B.T
        L /= sx2 * den
        L -= 0.5 * model.m * np.log1p(-aa)
        H = np.expm1(L)
    # an entry beyond double precision raises, as math.expm1 does
    bad = np.flatnonzero(np.triu((den <= 0.0) | (np.isinf(H) & np.isfinite(L))))
    if bad.size:
        pair = divmod(int(bad[0]), len(vs))
        if den[pair] <= 0.0:
            raise DivergentTestPointError(
                f"test-point pair {pair} has vs^2 <= 0; the defining integral diverges"
            )
        raise OverflowingTestPointError(f"test-point pair {pair} overflows H")
    return TestPointSet(offsets=tuple(vs), V=V, H=H)


def hcrb_general(
    model: ProblemModel, signal: SparseSignal, offsets
) -> tuple[np.ndarray, float]:
    """The covariance bound C = W (K + RIDGE I)^-1 W^T of README and its
    trace, from raw offsets.  Raises as test_points raises."""
    tps = test_points(model, signal, offsets)
    h = np.diag(tps.H)
    d = np.sqrt(np.where(h > 0.0, h, 1.0))
    W = np.where(h > 0.0, tps.V / d, 0.0)
    K = tps.H / np.outer(d, d) + RIDGE * np.eye(len(h))
    C = W @ np.linalg.solve(K, W.T)
    C = 0.5 * (C + C.T)
    return C, float(np.trace(C))


def beta_of(model: ProblemModel, signal: SparseSignal) -> float:
    """beta = x_q^2 / sigma_x^2 for the smallest-magnitude nonzero entry x_q.
    Raises InvalidInputError for the zero signal."""
    nz = np.flatnonzero(signal.x)
    if nz.size == 0:
        raise InvalidInputError("the zero signal has no smallest nonzero entry")
    return _beta(signal.x[nz], positive_sigma_x_squared(model, signal))


def _beta(nonzeros: np.ndarray, sx2: float) -> float:
    # in Python floats, which overflow to inf and underflow to 0 silently
    x_q = float(np.min(np.abs(nonzeros)))
    return x_q * x_q / sx2


def g_function(beta: float, n: int, sigma_e: float) -> float:
    """The factor g(beta) of the off-support part, in [0, 1).  Raises
    InvalidInputError unless beta > 0, n >= 2 and sigma_e is a deviation."""
    if not beta > 0.0:
        raise InvalidInputError("beta must be positive")
    n = checked_count("n", n)
    if n < 2:
        raise InvalidInputError("g is defined for n >= 2")
    sigma_e, _ = _deviations(sigma_e, 0.0)
    if beta > _BETA_OVERFLOW:
        return 0.0
    num = beta * (1.0 - 2.0 * sigma_e**2 * beta) ** 2
    den = math.expm1(beta) * (1.0 + 2.0 * n * sigma_e**4 * beta)
    if math.isfinite(num) and math.isfinite(den):
        return num / den
    # a large sigma_e^2 beta overflows num or den, and then sigma_e > 0:
    # divide both by sigma_e^4, and take beta / expm1(beta) apart
    scaled = (1.0 / sigma_e**2 - 2.0 * beta) ** 2 / (1.0 / sigma_e**4 + 2.0 * n * beta)
    return beta / math.expm1(beta) * scaled


def _unit_maximal(model: ProblemModel, signal: SparseSignal) -> tuple[tuple[int, ...], float]:
    """(S, sigma_x^2) of a unit-matrix instance with ||x||_0 = s, checked in
    this order: the signal's length, A = I, n >= 2, then maximal_support's
    regime and sigma_x^2 > 0.  A = I was decided when the model was built."""
    _check_signal(model, signal)
    if not model._unit:
        raise UnsupportedMatrixError("closed-form HCRB requires identity matrix")
    if model.n < 2:
        raise InvalidInputError("closed-form HCRB requires n >= 2")
    return maximal_support(model, signal)


def _off_support(
    model: ProblemModel, signal: SparseSignal, S: tuple[int, ...], sx2: float
) -> tuple[float, float, float]:
    """(beta, g(beta), d) of the unit-matrix bound, from the support and
    sigma_x^2 that _unit_maximal returns.  Where x_q^2 underflows, beta = 0
    takes the limit beta -> 0: g = 1 and d = n - s."""
    n, s = model.n, model.s
    beta = _beta(signal.x[list(S)], sx2)
    if beta == 0.0:
        return beta, 1.0, float(n - s)
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
    return _off_support(model, signal, *_unit_maximal(model, signal))[2]


def hcrb_unit_closed_form(model: ProblemModel, signal: SparseSignal) -> HcrbReport:
    """The closed-form HCRB of a unit sensing matrix and ||x||_0 = s: the
    maximal CCRB of the same S and sigma_x^2 plus sigma_x^2 d.  Raises as
    _unit_maximal orders the checks, then the off-support part's errors
    before the support part's."""
    S, sx2 = _unit_maximal(model, signal)
    beta, g, d = _off_support(model, signal, S, sx2)
    support_part = maximal_report(model, signal, S, sx2).bound
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
    return 1.0 / math.sqrt(checked_count("s", s))

"""The measurement model y = (A + E)x + n, its equivalent law y - Ax ~
N(0, sigma_x^2 I), and the input and finite-result checks every layer shares."""

from __future__ import annotations

import copy
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateModelError,
    InvalidInputError,
    OverflowingMatrixError,
    SingularMatrixError,
    UnsupportedSizeError,
)

__all__ = [
    "ProblemModel",
    "SparseSignal",
    "sigma_x_squared",
    "sample_measurement",
    "generate_gaussian_matrix",
    "generate_bernoulli_signal",
    "spark_exceeds",
]

# Exhaustive spark verification enumerates column subsets; beyond this
# many columns the count is unreasonable and the caller must not rely on it.
SPARK_ENUMERATION_LIMIT = 20

# Noise deviations must stay below this: the Fisher information and the
# bounds take sigma^4, which overflows double range beyond about 1e77.
MAX_DEVIATION = 1e75

# Relative threshold below which a Gram eigenvalue, or a signal's share
# of a Gram null direction, counts as zero.
SINGULARITY_RTOL = 1e-12

# Share of its trace that gram_inverse's Cholesky screen takes off a Gram's
# diagonal; a Gram that still factors skips the eigensolve.
_SCREEN_SHIFT = 1e-8


def _deviations(sigma_e, sigma_n) -> tuple[float, float]:
    """Both deviations as floats, raising InvalidInputError unless each is
    a real number, not a bool, in [0, MAX_DEVIATION)."""
    # a numpy scalar is tested as its Python value, so a float32 cannot overflow the test
    devs =[v.item() if isinstance(v, np.generic) else v for v in (sigma_e, sigma_n)]
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and 0.0 <= v < MAX_DEVIATION for v in devs):
        raise InvalidInputError(
            f"noise deviations must be finite, nonnegative real numbers below {MAX_DEVIATION:g}"
        )
    return float(sigma_e), float(sigma_n)


def _is_integer(value) -> bool:
    """The count type rule: an int or a numpy integer.  A float, even an
    integral one, and a bool are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_count(name: str, value) -> int:
    """value as an int, raising InvalidInputError unless it is an integer
    (_is_integer) >= 1."""
    if not _is_integer(value) or value < 1:
        raise InvalidInputError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def checked_seed(name: str, value) -> int:
    """value as an int, raising InvalidInputError unless it is an integer
    (_is_integer) >= 0, as a SeedSequence entropy or spawn key word."""
    if not _is_integer(value) or value < 0:
        raise InvalidInputError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def real_array(name: str, value) -> np.ndarray:
    """value as a float64 array, itself if it is one, raising
    InvalidInputError naming it unless its entries are real numbers."""
    arr = np.asarray(value)
    if arr.dtype != np.float64:
        kind = arr.dtype.kind
        if kind not in "biuf" and not (
            kind == "O" and all(isinstance(v, numbers.Real) for v in arr.flat)
        ):
            raise InvalidInputError(f"{name} must hold real numbers, got dtype {arr.dtype}")
        return arr.astype(float)
    return arr


def checked_matrix(A) -> np.ndarray:
    """A as a float array (real_array), raising InvalidInputError unless it
    is nonempty, 2-d and finite."""
    A = real_array("A", A)
    if A.ndim != 2 or A.size == 0:
        raise InvalidInputError("A must be a nonempty 2-d array")
    if not (np.isfinite(A.min()) and np.isfinite(A.max())):  # NaN too, and no m x n temporary
        raise InvalidInputError("A must be finite")
    return A


def _is_identity(A: np.ndarray) -> bool:
    """Whether the finite matrix A equals I (-0.0 counts as zero).  Only a
    square A with a unit diagonal costs a scan of all its entries."""
    m, n = A.shape
    return m == n and bool((A.diagonal() == 1.0).all()) and np.count_nonzero(A) == n


def _frozen(name: str, arr) -> np.ndarray:
    """A read-only float copy of arr (real_array)."""
    out = np.array(real_array(name, arr))
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProblemModel:
    """The nominal sensing matrix A (m, n), the deviations sigma_e of each
    entry of its perturbation and sigma_n of the noise, and the sparsity
    budget s in [1, n] (checked_count), over a read-only copy of A.
    Raises InvalidInputError on any other input."""

    A: np.ndarray
    sigma_e: float
    sigma_n: float
    s: int
    # sorted support -> (A_S, (A_S^T A_S)^{-1}); see support_factor
    _factors: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # A == I; see _is_identity
    _unit: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        A = checked_matrix(_frozen("A", self.A))  # scans the model's own copy
        sigma_e, sigma_n = _deviations(self.sigma_e, self.sigma_n)
        s = checked_count("sparsity budget s", self.s)
        if s > A.shape[1]:
            raise InvalidInputError(f"sparsity budget s={s} must lie in [1, n={A.shape[1]}]")
        for name, value in zip(("A", "sigma_e", "sigma_n", "s", "_unit"),
                               (A, sigma_e, sigma_n, s, _is_identity(A))):
            object.__setattr__(self, name, value)

    def with_noise(self, sigma_e: float, sigma_n: float) -> ProblemModel:
        """This model at other noise deviations, checked as the constructor
        checks them; it shares A, s and the support cache, with no scan."""
        sibling = copy.copy(self)
        for name, value in zip(("sigma_e", "sigma_n"), _deviations(sigma_e, sigma_n)):
            object.__setattr__(sibling, name, value)
        return sibling

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A finite nonempty 1-d x and its support, by default the indices of
    its nonzero entries; a declared one must be sorted, duplicate free, in
    range and cover every nonzero.  Raises InvalidInputError otherwise."""

    x: np.ndarray
    support: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        x = _frozen("x", self.x)
        if x.ndim != 1 or x.size == 0:
            raise InvalidInputError("x must be a nonempty 1-d array")
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise InvalidInputError("x must be finite")
        nonzero = x.nonzero()[0].tolist()
        if self.support is None:
            support = tuple(nonzero)
        else:
            support = checked_indices(self.support)
            if support != tuple(sorted(set(support))):
                raise InvalidInputError("support must be sorted and duplicate free")
            if support and not (0 <= support[0] and support[-1] < x.size):
                raise InvalidInputError("support indices out of range")
            if not set(support).issuperset(nonzero):
                raise InvalidInputError("x has nonzero entries off the declared support")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "support", support)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.x))


def model_measurement(model: ProblemModel, y) -> np.ndarray:
    """y as a float array (real_array), raising InvalidInputError unless it
    is a nonempty 1-d vector of length m."""
    yv = real_array("y", y)
    if yv.ndim != 1 or yv.size == 0:
        raise InvalidInputError("measurement must be a nonempty 1-d vector")
    if yv.size != model.m:
        raise InvalidInputError("measurement length does not match model m")
    return yv


def checked_indices(support) -> tuple[int, ...]:
    """support as a tuple of ints, raising InvalidInputError unless every
    index is an integer (_is_integer): a float or a bool index is not."""
    S = tuple(support)
    if set(map(type, S)) <= {int}:  # plain ints, as every oracle row passes
        return S
    if not all(map(_is_integer, S)):
        raise InvalidInputError(f"support indices must be integers, got {S!r}")
    return tuple(map(int, S))


def checked_support(model: ProblemModel, support) -> tuple[int, ...]:
    """support sorted, raising InvalidInputError unless it is nonempty,
    duplicate free, within [0, n) and of integers (checked_indices)."""
    S = tuple(sorted(checked_indices(support)))
    if not S or len(S) != len(set(S)) or S[0] < 0 or S[-1] >= model.n:
        raise InvalidInputError("support must be nonempty, duplicate free and within [0, n)")
    return S


def _check_signal(model: ProblemModel, signal: SparseSignal) -> None:
    if signal.n != model.n:
        raise InvalidInputError(
            f"signal length {signal.n} does not match model n={model.n}"
        )


def _finite(message: str, *values):
    """values, or the one value, unchanged.  Raises
    OverflowingMatrixError(message) unless every float and array is finite."""
    for v in values:
        if not (math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()):
            raise OverflowingMatrixError(message)
    return values if len(values) > 1 else values[0]


def sigma_x_squared(model: ProblemModel, signal: SparseSignal) -> float:
    """The equivalent noise variance sigma_e^2 ||x||^2 + sigma_n^2.  Raises
    OverflowingMatrixError past double range."""
    _check_signal(model, signal)
    x = signal.x
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        sx2 = float(model.sigma_e**2 * (x @ x) + model.sigma_n**2)
    return _finite("sigma_e^2 ||x||^2 + sigma_n^2 overflows double range", sx2)


def positive_sigma_x_squared(model: ProblemModel, signal: SparseSignal) -> float:
    """sigma_x_squared, raising DegenerateModelError when it is zero:
    the likelihood, the bounds and beta all divide by it."""
    sx2 = sigma_x_squared(model, signal)
    if sx2 <= 0.0:
        raise DegenerateModelError(
            "equivalent noise variance is zero; the model is degenerate"
        )
    return sx2


def _has_cholesky(a: np.ndarray) -> bool:
    """Whether the matrix a, or every matrix of the stack a, has a Cholesky factor."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def gram_inverse(A_S: np.ndarray) -> np.ndarray:
    """The read-only (A_S^T A_S)^{-1}.  Raises SingularMatrixError when
    lambda_min <= SINGULARITY_RTOL * lambda_max, and OverflowingMatrixError
    when the Gram, its spectrum or its inverse passes double range."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        gram = A_S.T @ A_S
        t = float(gram.trace())
    _finite("A_S^T A_S overflows double range", gram)  # before any factorisation
    shifted = gram.copy()
    # Cholesky is backward stable: a Gram that factors with tau = _SCREEN_SHIFT * t
    # off its diagonal has lambda_min > tau - O(s^2 eps) t, so it passes the
    # singularity test by four orders of magnitude for s up to several thousand
    shifted.ravel()[:: len(gram) + 1] -= _SCREEN_SHIFT * t
    if not (0.0 < t < math.inf and _has_cholesky(shifted)):
        w = _finite("A_S^T A_S overflows double range", np.linalg.eigvalsh(gram))
        if w[-1] <= 0.0 or w[0] <= SINGULARITY_RTOL * w[-1]:
            raise SingularMatrixError("A_S^T A_S is singular")
    G = _finite("(A_S^T A_S)^{-1} overflows double range", np.linalg.inv(gram))
    G.setflags(write=False)
    return G


def support_factor(model: ProblemModel, support: tuple[int, ...]):
    """(A_S, gram_inverse(A_S)) for a sorted, duplicate-free support, cached
    on the model and its siblings; a support that raises is not cached."""
    hit = model._factors.get(support)
    if hit is None:
        A_S = model.A if len(support) == model.n else model.A[:, list(support)]
        # when threads race on a cold entry, all get the first one stored
        hit = model._factors.setdefault(support, (A_S, gram_inverse(A_S)))
    return hit


def sample_measurement(
    model: ProblemModel, signal: SparseSignal, rng: np.random.Generator
) -> np.ndarray:
    """One measurement y = (A + E)x + n, drawn by the equivalent law as
    Ax + sigma_x z: a read-only array of length m."""
    sx = math.sqrt(sigma_x_squared(model, signal))
    z = rng.standard_normal(model.m)
    y = model.A @ signal.x + sx * z
    y.setflags(write=False)
    return y


def generate_gaussian_matrix(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """An m x n matrix with iid N(0, 1/m) entries."""
    m, n = checked_count("m", m), checked_count("n", n)
    A = rng.standard_normal((m, n))
    # rng.normal(0.0, 1/sqrt(m), (m, n))'s bits and end state without its location
    # pass, bar a draw of exactly -0.0, which normal's 0.0 + scale * z makes +0.0
    A *= 1.0 / math.sqrt(m)
    return A


def generate_bernoulli_signal(n: int, s: int, rng: np.random.Generator) -> SparseSignal:
    """s-sparse signal with a uniform random support and +-1 entries."""
    n, s = checked_count("n", n), checked_count("s", s)
    if s > n:
        raise InvalidInputError(f"need 1 <= s <= n, got s={s}, n={n}")
    support = np.sort(rng.choice(n, size=s, replace=False))
    x = np.zeros(n)
    x[support] = rng.integers(0, 2, size=s) * 2.0 - 1.0
    return SparseSignal(x, tuple(int(i) for i in support))


def spark_exceeds(A: np.ndarray, k: int) -> bool:
    """Whether spark(A), the size of its smallest linearly dependent column
    subset, exceeds k.  Raises UnsupportedSizeError when A has more than
    SPARK_ENUMERATION_LIMIT columns."""
    A = checked_matrix(A)
    m, n = A.shape
    k = checked_count("k", k)
    if n > SPARK_ENUMERATION_LIMIT:
        raise UnsupportedSizeError(
            "exhaustive spark verification supports at most "
            f"{SPARK_ENUMERATION_LIMIT} columns, got {n}"
        )
    if k > min(m, n):
        return False  # spark <= n + 1, and any k > m columns in R^m are dependent
    # every subset of size <= k is independent iff each of size k is
    subsets = itertools.combinations(range(n), k)
    return all(np.linalg.matrix_rank(A[:, cols]) == k for cols in subsets)

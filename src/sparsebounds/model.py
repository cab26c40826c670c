"""Measurement model with a randomly perturbed sensing matrix.

The observation is y = (A + E)x + n where E has iid N(0, sigma_e^2)
entries, n ~ N(0, sigma_n^2 I), and x is sparse.  Conditioned on x the
measurement obeys the exact equivalent law

    y - Ax ~ N(0, sigma_x^2 I),   sigma_x^2 = sigma_e^2 ||x||^2 + sigma_n^2,

which is what the sampler and every likelihood expression here use.
"""

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
    a real number (numbers.Real, not a bool) in [0, MAX_DEVIATION).  A
    numpy scalar is tested as its Python value, so a float32 deviation
    cannot overflow the comparison."""
    devs = [v.item() if isinstance(v, np.generic) else v for v in (sigma_e, sigma_n)]
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
    """value as a float array, raising InvalidInputError naming it unless
    its entries are real: a complex or text array, or an object array
    holding anything but numbers.Real, is rejected.  A float64 array passes
    with one dtype test and no copy."""
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
    """A as a float array (real_array), rejected unless it is nonempty, 2-d
    and finite.  NaN fails too, and neither reduction makes an m x n
    temporary."""
    A = real_array("A", A)
    if A.ndim != 2 or A.size == 0:
        raise InvalidInputError("A must be a nonempty 2-d array")
    if not (np.isfinite(A.min()) and np.isfinite(A.max())):
        raise InvalidInputError("A must be finite")
    return A


def _is_identity(A: np.ndarray) -> bool:
    """Whether the finite matrix A equals I (-0.0 counts as zero).  Only a
    square A with a unit diagonal costs a scan of all its entries."""
    m, n = A.shape
    return m == n and bool((A.diagonal() == 1.0).all()) and np.count_nonzero(A) == n


def _frozen(name: str, arr) -> np.ndarray:
    """A read-only float copy of arr (real_array), which no caller can
    write through."""
    out = np.array(real_array(name, arr))
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProblemModel:
    """Sensing matrix plus noise levels and the sparsity budget s.

    Parameters
    ----------
    A : (m, n) array
        Nominal (unperturbed) sensing matrix.
    sigma_e : float
        Standard deviation of each entry of the matrix perturbation.
    sigma_n : float
        Standard deviation of the additive measurement noise.
    s : int
        Sparsity budget, an integer in [1, n] by checked_count's type rule
        (a float, even 2.0, or a bool is rejected); signals live in
        {x : ||x||_0 <= s}.

    The model keeps its own read-only copy of A, which no caller can
    write through, and decides once whether A is the identity, which the
    closed-form HCRB requires.
    """

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
        checks them.  The sibling shares the validated A (no copy, no
        finiteness scan and no identity test), s and the support cache."""
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
    """A parameter vector together with its support.

    The support defaults to the indices of the nonzero entries.  A larger
    declared support is accepted (entries on it may be zero, which some
    reference points need), but entries off the declared support must be
    exactly zero.
    """

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
    """A support as a sorted tuple, raising InvalidInputError unless its
    indices are integers (checked_indices) and it is nonempty, duplicate
    free and within [0, n)."""
    S = tuple(sorted(checked_indices(support)))
    if not S or len(S) != len(set(S)) or S[0] < 0 or S[-1] >= model.n:
        raise InvalidInputError("support must be nonempty, duplicate free and within [0, n)")
    return S


def _check_signal(model: ProblemModel, signal: SparseSignal) -> None:
    if signal.n != model.n:
        raise InvalidInputError(
            f"signal length {signal.n} does not match model n={model.n}"
        )


def sigma_x_squared(model: ProblemModel, signal: SparseSignal) -> float:
    """Equivalent noise variance sigma_e^2 ||x||^2 + sigma_n^2, raising
    OverflowingMatrixError where its double is not finite."""
    _check_signal(model, signal)
    x = signal.x
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sx2 = float(model.sigma_e**2 * (x @ x) + model.sigma_n**2)
    if not math.isfinite(sx2):
        raise OverflowingMatrixError("sigma_e^2 ||x||^2 + sigma_n^2 overflows double range")
    return sx2


def positive_sigma_x_squared(model: ProblemModel, signal: SparseSignal) -> float:
    """sigma_x_squared, raising DegenerateModelError when it is zero:
    the likelihood, the bounds and beta all divide by it."""
    sx2 = sigma_x_squared(model, signal)
    if sx2 <= 0.0:
        raise DegenerateModelError(
            "equivalent noise variance is zero; the model is degenerate"
        )
    return sx2


def _clears_screen(gram: np.ndarray, t: float) -> bool:
    """Whether gram is finite, its trace t is finite and positive, and
    gram - _SCREEN_SHIFT * t I has a Cholesky factor; gram is not written."""
    if not (0.0 < t < math.inf and np.isfinite(gram).all()):
        return False
    shifted = gram.copy()
    shifted.ravel()[:: len(gram) + 1] -= _SCREEN_SHIFT * t  # the diagonal, in place
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def gram_inverse(A_S: np.ndarray) -> np.ndarray:
    """The read-only (A_S^T A_S)^{-1}, for the bounds and the oracle alike.

    Raises SingularMatrixError when the Gram has lambda_min <=
    SINGULARITY_RTOL * lambda_max, and OverflowingMatrixError when the
    Gram, its eigenvalues or its inverse are not finite: a NaN eigenvalue
    fails every comparison, so it would pass as regular.

    A screen spares most Grams the eigensolve: a finite Gram with a finite,
    positive trace t clears it when a copy with tau = _SCREEN_SHIFT * t
    taken off its diagonal has a Cholesky factor.  Cholesky is backward
    stable, so that success means lambda_min > tau - O(s^2 eps) lambda_max
    for s columns, and t >= lambda_max: a cleared Gram passes the
    singularity test above with four orders of magnitude to spare for s up
    to several thousand.  Every other Gram takes the eigensolve, which
    decides and raises exactly as without the screen.  G is the inverse
    of the same Gram either way, so its bytes do not depend on the screen.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        gram = A_S.T @ A_S
        t = float(gram.trace())
    if not _clears_screen(gram, t):
        w = np.linalg.eigvalsh(gram)
        if not np.isfinite(w).all():
            raise OverflowingMatrixError("A_S^T A_S overflows double range")
        if w[-1] <= 0.0 or w[0] <= SINGULARITY_RTOL * w[-1]:
            raise SingularMatrixError("A_S^T A_S is singular")
    G = np.linalg.inv(gram)
    if not np.isfinite(G).all():
        raise OverflowingMatrixError("(A_S^T A_S)^{-1} overflows double range")
    G.setflags(write=False)
    return G


def support_factor(model: ProblemModel, support: tuple[int, ...]):
    """(A_S, gram_inverse(A_S)) for a sorted, duplicate-free support S: one
    entry per A and S, shared by the bounds, the oracle and every
    with_noise sibling.  The full support's A_S is model.A itself.  A
    singular or overflowing support is not cached and raises on every
    call."""
    hit = model._factors.get(support)
    if hit is None:
        A_S = model.A if len(support) == model.n else model.A[:, list(support)]
        # when threads race on a cold entry, all get the first one stored
        hit = model._factors.setdefault(support, (A_S, gram_inverse(A_S)))
    return hit


def sample_measurement(
    model: ProblemModel, signal: SparseSignal, rng: np.random.Generator
) -> np.ndarray:
    """Draw one measurement y = (A + E)x + n, a read-only array of length m.

    Uses the equivalent law y = Ax + sigma_x z with z standard normal,
    which matches the joint perturbation-plus-noise distribution exactly
    and never materializes the m-by-n perturbation.
    """
    sx = math.sqrt(sigma_x_squared(model, signal))
    z = rng.standard_normal(model.m)
    y = model.A @ signal.x + sx * z
    y.setflags(write=False)
    return y


def generate_gaussian_matrix(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random m-by-n matrix with iid N(0, 1/m) entries.

    Columns then have expected squared norm 1; no explicit normalization
    is applied.  The standard normal draw is scaled in place, which skips
    the location pass of rng.normal(0.0, 1/sqrt(m), (m, n)) and matches
    its bits and the generator's end state (bar a draw of exactly -0.0,
    which normal's 0.0 + scale * z turns into +0.0).
    """
    m, n = checked_count("m", m), checked_count("n", n)
    A = rng.standard_normal((m, n))
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
    """Decide by enumeration whether spark(A) > k.

    spark(A) is the size of the smallest linearly dependent column subset
    (n + 1 when the columns are in general position).  One subset size
    suffices: every subset of size <= k is independent iff each of size k is.

    Raises UnsupportedSizeError when A has more than SPARK_ENUMERATION_LIMIT
    columns.
    """
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
    subsets = itertools.combinations(range(n), k)
    return all(np.linalg.matrix_rank(A[:, cols]) == k for cols in subsets)

"""Correctness checks on the outputs of one unit of work.

Each function takes program output (CSV text or numbers computed by the
package) and returns a list of Check records; a benchmark run is correct
only when every record is ok.  The functions are pure so the tests can
feed them corrupted outputs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from statistics import NormalDist, median

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def rows(csv_text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(csv_text)))


# Chance that a correct program fails a run's family of statistical tests.
# The t-statistic of a mean of chi-square errors has a heavier lower tail
# than the normal law, so the real rate at 1000 trials is a few times this.
FALSE_ALARM = 1e-5


def family_z(tests: int, false_alarm: float = FALSE_ALARM) -> float:
    """Two-sided per-test z threshold keeping the chance that any of
    `tests` correct results is flagged below `false_alarm` (Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - false_alarm / (2 * tests))


def same_bytes(name: str, first: bytes | str, other: bytes | str) -> Check:
    if first == other:
        return Check(name, True)
    a, b = (x.encode() if isinstance(x, str) else x for x in (first, other))
    at = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return Check(name, False, f"outputs differ from byte {at}")


def simulate_checks(csv_text: str) -> list[Check]:
    """mc_small: criterion 11 and criterion 2 at every sigma_n point.

    The locally unbiased MSE may not fall below the HCRB by more than z
    standard errors, and the oracle MSE must match its exact value within
    z standard errors, z being the family-wise threshold for all the
    points checked.
    """
    table = rows(csv_text)
    unbiased = [r for r in table if r["estimator"] == "unbiased"]
    oracle = [r for r in table if r["estimator"] == "oracle"]
    z = family_z(len(unbiased) + len(oracle))
    out = []
    if not unbiased or not oracle:
        out.append(Check("simulate.estimators_present", False, "missing rows"))
    for r in unbiased:
        mse, se, hcrb = float(r["mse"]), float(r["std_error"]), float(r["hcrb"])
        ok = mse >= hcrb - z * se
        out.append(
            Check(
                f"criterion11.sigma_n={r['sigma_n']}",
                ok,
                f"unbiased MSE {mse:.6g}, HCRB {hcrb:.6g}, {z:.2f} se = {z * se:.3g}",
            )
        )
    for r in oracle:
        mse, se, theory = float(r["mse"]), float(r["std_error"]), float(r["oracle_theory"])
        ok = abs(mse - theory) <= z * se
        out.append(
            Check(
                f"criterion2.sigma_n={r['sigma_n']}",
                ok,
                f"oracle MSE {mse:.6g}, theory {theory:.6g}, {z:.2f} se = {z * se:.3g}",
            )
        )
    return out


def table1_checks(csv_text: str) -> list[Check]:
    """mc_highdim: the criterion 9 bands of the high-dimension table."""
    vals = {r["curve_id"]: float(r["value"]) for r in rows(csv_text)}
    ls = vals.get("ls_empirical", math.nan)
    ne = vals.get("noise_exploiting_empirical", math.nan)
    theory = vals.get("ls_theoretical", math.nan)
    return [
        Check("criterion9.ls_theoretical", abs(theory - 1e-4) <= 1e-16, f"{theory:.6g}"),
        Check("criterion9.ls_band", 0.9e-4 <= ls <= 1.1e-4, f"LS MSE {ls:.4e}"),
        Check("criterion9.ne_band", 4.5e-5 <= ne <= 5.5e-5, f"NE MSE {ne:.4e}"),
        Check("criterion9.ne_below_ls", ne < ls, f"{ne:.4e} vs {ls:.4e}"),
    ]


SLOPE_BAND = (-1.25, -0.75)


def fig5_slopes(csv_text: str) -> dict[str, float]:
    """Log-log slope of the median CCRB gamma against s, per curve."""
    per_curve: dict[str, dict[float, list[float]]] = {}
    for r in rows(csv_text):
        if r["curve_id"].startswith("ccrb_"):
            per_curve.setdefault(r["curve_id"], {}).setdefault(
                float(r["x_value"]), []
            ).append(float(r["value"]))
    slopes = {}
    for curve, per_s in per_curve.items():
        s = sorted(per_s)
        med = [median(per_s[v]) for v in s]
        if len(s) < 2 or min(med) <= 0.0:
            slopes[curve] = math.nan
            continue
        slopes[curve] = float(np.polyfit(np.log(s), np.log(med), 1)[0])
    return slopes


def fig5_checks(csv_text: str) -> list[Check]:
    """bounds_large: every gamma finite and positive, slopes in band.

    gamma <= 1/s is deliberately not checked: gamma * s exceeds 1 on
    random matrices and the restricted-eigenvalue sandwich allows that.
    """
    gammas = [float(r["value"]) for r in rows(csv_text) if r["curve_id"].startswith("ccrb_")]
    out = [
        Check(
            "fig5.gamma_finite_positive",
            bool(gammas) and all(math.isfinite(g) and g > 0.0 for g in gammas),
            f"{len(gammas)} values",
        )
    ]
    lo, hi = SLOPE_BAND
    slopes = fig5_slopes(csv_text)
    if not slopes:
        out.append(Check("fig5.slopes_present", False, "no ccrb curves"))
    for curve, slope in sorted(slopes.items()):
        out.append(Check(f"fig5.slope.{curve}", lo <= slope <= hi, f"slope {slope:.3f}"))
    return out


def fim_check(relative_error: float) -> Check:
    """bounds_many: criterion 1, Monte Carlo FIM within 2% of the closed form."""
    return Check(
        "criterion1.fim_error",
        relative_error < 0.02,
        f"relative Frobenius error {relative_error:.4f}",
    )


def ccrb_below_hcrb_checks(pairs) -> list[Check]:
    """bounds_many: CCRB <= closed-form HCRB on each (label, ccrb, hcrb)."""
    return [
        Check(f"ccrb_le_hcrb.{label}", ccrb <= hcrb * (1.0 + 1e-12), f"{ccrb:.6g} vs {hcrb:.6g}")
        for label, ccrb, hcrb in pairs
    ]

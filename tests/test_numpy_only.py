"""The package runs on numpy alone, and its numpy.linalg numerics agree
with the scipy constructions they replaced (scipy is imported here, as a
reference, and nowhere in the package)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sparsebounds.ccrb import ccrb_nonmaximal
from sparsebounds.fisher import fim_closed_form
from sparsebounds.hcrb import RIDGE, hcrb_general, test_points as make_test_points
from sparsebounds.model import (
    ProblemModel,
    SparseSignal,
    generate_gaussian_matrix,
    gram_inverse,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Each step prints its name once it succeeded; the commands write their
# CSVs under the directory given as the one argument (figure prints each
# path it writes), and scipy cannot be imported.
WITHOUT_SCIPY = r"""
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np

import sparsebounds
from sparsebounds.ccrb import ccrb_nonmaximal
from sparsebounds.cli import main
from sparsebounds.hcrb import hcrb_general
from sparsebounds.model import ProblemModel, SparseSignal

print("import")
out = ["--out-dir", sys.argv[1]]
unit = ["--n", "4", "--m", "4", "--s", "1", "--sigma-e", "0.1", "--x", "1,0,0,0"]
for kind in ("ccrb", "hcrb"):
    assert main(["bounds", kind, *unit, "--sigma-n", "0.5", *out, "--output", f"{kind}.csv"]) == 0
    print(f"bounds {kind}")
assert main(["simulate", "--matrix", "gaussian", "--estimators", "oracle", "--trials", "20",
             "--sigma-n", "0.5", "--n", "6", "--m", "5", "--s", "2", "--sigma-e", "0.1",
             *out, "--output", "simulate.csv"]) == 0
print("simulate")
assert main(["figure", "fig4", "--s", "2", "--points", "3", "--draws", "1", *out]) == 0
print("fig4")
model = ProblemModel(A=np.eye(3), sigma_e=0.1, sigma_n=0.3, s=2)
x = SparseSignal(np.array([1.0, 0.0, 0.0]))
_, trace = hcrb_general(model, x, [np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.2, 0.0])])
assert np.isfinite(trace)
print("hcrb_general")
rng = np.random.default_rng(17)
a1, a3, a4 = rng.normal(size=(3, 3))
model = ProblemModel(A=np.column_stack([a1, -a1, a3, a4]), sigma_e=0.5, sigma_n=0.4, s=3)
assert ccrb_nonmaximal(model, SparseSignal(np.array([1.0, 1.0, 0.0, 0.0]))).d_ccrb == 0.0
print("fallback")
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
"""


def test_every_entry_point_runs_without_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if not line.endswith(".csv")] == [
        "import", "bounds ccrb", "bounds hcrb", "simulate", "fig4", "hcrb_general", "fallback"
    ]
    for name in ("ccrb", "hcrb", "simulate", "fig4"):
        assert (tmp_path / f"{name}.csv").stat().st_size > 0


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("s", [1, 5, 50])
def test_gram_inverse_matches_cho_solve(s):
    rng = np.random.default_rng(s)
    A_S = generate_gaussian_matrix(4 * s + 8, s, rng)
    gram = A_S.T @ A_S
    want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), np.eye(s))
    assert rel_err(gram_inverse(A_S), want) <= 1e-12


@pytest.mark.parametrize("copies", [1, 2])
def test_hcrb_general_matches_scipy_positive_solve(copies):
    # copies = 2 repeats every offset: K is singular, and K + RIDGE I has a
    # condition number of about 4e12
    rng = np.random.default_rng(copies)
    model = ProblemModel(A=generate_gaussian_matrix(6, 4, rng), sigma_e=0.2, sigma_n=0.5, s=4)
    x = SparseSignal(rng.normal(size=4))
    offsets = list(0.3 * rng.normal(size=(4, 4))) * copies
    tps = make_test_points(model, x, offsets)
    d = np.sqrt(np.diag(tps.H))
    W, K = tps.V / d, tps.H / np.outer(d, d)
    want = W @ scipy.linalg.solve(K + RIDGE * np.eye(len(d)), W.T, assume_a="pos")
    C, trace = hcrb_general(model, x, offsets)
    assert rel_err(C, want) <= 1e-12
    assert trace == np.trace(C)


def test_nonmaximal_fallback_matches_positive_solve():
    rng = np.random.default_rng(17)
    a1, a3, a4 = rng.normal(size=(3, 3))
    model = ProblemModel(A=np.column_stack([a1, -a1, a3, a4]), sigma_e=0.5, sigma_n=0.4, s=3)
    x = SparseSignal(np.array([1.0, 1.0, 0.0, 0.0]))
    J = fim_closed_form(model, x).J
    want = np.trace(scipy.linalg.solve(J, np.eye(4), assume_a="pos"))
    assert abs(ccrb_nonmaximal(model, x).bound - want) <= 1e-12 * want

"""Input checks that no other test reaches, each with its message."""

import numpy as np
import pytest

import sparsebounds.cli as cli
from sparsebounds import hcrb
from sparsebounds.ccrb import noise_levels, rip_constants
from sparsebounds.errors import InvalidInputError
from sparsebounds.estimators import EstimatorSpec
from sparsebounds.model import ProblemModel, SparseSignal

E0 = SparseSignal(np.array([1.0, 0.0, 0.0]))


def _dead_first_column():
    A = np.eye(3)
    A[:, 0] = 0.0
    return ProblemModel(A, 0.1, 0.1, 1)


def _matrix_file(tmp_path):
    path = tmp_path / "A.csv"
    path.write_text("1,0\n0,1\n")
    return cli._build_matrix(str(path), 3, 3, 0)


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda _: rip_constants(np.eye(3), 4), "need 1 <= s <= n, got s=4"),
        (lambda _: rip_constants(np.eye(3), 1, mode="bogus"), "unknown mode 'bogus'"),
        (lambda _: noise_levels(_dead_first_column(), E0), "A_S has zero energy"),
        (lambda _: cli.figure_rows(cli.ExperimentConfig("fig9")), "unknown figure id 'fig9'"),
        (_matrix_file, "matrix file has shape (2, 2), expected (3, 3)"),
        (lambda _: EstimatorSpec.oracle(()), "oracle estimator needs a support"),
        (lambda _: hcrb.test_points(ProblemModel(np.eye(3), 0.1, 0.1, 1), E0, []),
         "need at least one offset"),
    ],
    ids=["rip-s", "rip-mode", "zero-energy", "figure-id", "matrix-shape", "oracle-support",
         "no-offset"],
)
def test_input_check_message(check, message, tmp_path):
    with pytest.raises(InvalidInputError) as info:
        check(tmp_path)
    assert str(info.value) == message

"""Golden output hashes.

Every figure protocol at a small size, the two `simulate` commands and the
`bounds` rows are run through the command line, and each output file's
sha256 is compared with the table in golden_hashes.json.  A pure refactor
must leave them all unchanged.

The bytes depend on numpy's generators and the BLAS build, so the table
records the numpy version it was made with; on another version every case
skips with a reason naming both.  They also depend on the BLAS thread
count: the hashes hold with OpenBLAS at two or more threads, and under
OPENBLAS_NUM_THREADS=1 the fig5 case fails, as 8 of its 90 rows move by
at most 2.2e-16 relative (README, determinism).  The package imports no scipy, so the
scipy version plays no part.  A change that alters output
bytes on purpose prints a fresh table with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_hashes.json

and lists the old and new hashes in CHANGES.md.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sparsebounds.cli import main

TABLE = Path(__file__).with_name("golden_hashes.json")

_UNIT = ["--n", "5", "--m", "5", "--s", "1", "--sigma-e", "0.1"]

# output name -> command line; figures run at seed 7
COMMANDS = {
    "fig3": ["figure", "fig3", "--points", "9", "--seed", "7"],
    "fig4": ["figure", "fig4", "--s", "2", "--points", "3", "--draws", "1", "--seed", "7"],
    "fig5": ["figure", "fig5", "--draws", "1", "--seed", "7"],
    "fig6": ["figure", "fig6", "--points", "5", "--seed", "7"],
    "fig7": ["figure", "fig7", "--points", "5", "--seed", "7"],
    "fig-estimators": [
        "figure", "fig-estimators", "--points", "3", "--trials", "300", "--seed", "7",
    ],
    "table1": ["figure", "table1", "--n", "1000", "--trials", "500", "--seed", "7"],
    # two trial chunks per cell, so the chunk merge is covered
    "simulate-unit": [
        "simulate", *_UNIT, "--sigma-n", "log:1e-3:10:5", "--x", "1,0,0,0,0",
        "--estimators", "oracle,ml,unbiased,noise", "--trials", "4500", "--seed", "11",
    ],
    "simulate-gaussian": [
        "simulate", "--n", "12", "--m", "8", "--s", "3", "--sigma-e", "0.1",
        "--sigma-n", "log:1e-2:1:3", "--matrix", "gaussian", "--estimators", "oracle",
        "--trials", "3000", "--seed", "12",
    ],
    "bounds-ccrb": ["bounds", "ccrb", *_UNIT, "--sigma-n", "0.1", "--x", "1,0,0,0,0"],
    "bounds-ccrb-nonmaximal": [
        "bounds", "ccrb", "--n", "6", "--m", "6", "--s", "3", "--sigma-e", "0.3",
        "--sigma-n", "0.1", "--x", "1,0,2,0,0,0",
    ],
    "bounds-hcrb": ["bounds", "hcrb", *_UNIT, "--sigma-n", "0.1", "--x", "1,0,0,0,0"],
}


def output_hash(name: str, out_dir: str) -> str:
    """sha256 of the file one command writes."""
    code = main([*COMMANDS[name], "--out-dir", out_dir, "--output", f"{name}.csv"])
    assert code == 0, name
    return hashlib.sha256(Path(out_dir, f"{name}.csv").read_bytes()).hexdigest()


def versions() -> dict:
    return {"numpy": np.__version__}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_hash(name, tmp_path):
    table = json.loads(TABLE.read_text())
    made = table["versions"]
    if made != versions():
        pytest.skip(
            f"golden hashes were recorded with numpy {made['numpy']}; "
            f"this run has numpy {np.__version__}"
        )
    assert output_hash(name, str(tmp_path)) == table["sha256"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out_dir:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            hashes = {name: output_hash(name, out_dir) for name in sorted(COMMANDS)}
    json.dump({"versions": versions(), "sha256": hashes}, sys.stdout, indent=2)
    print()

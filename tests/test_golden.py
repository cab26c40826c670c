"""Golden outputs: byte hashes and a value table.

Every figure protocol at a small size, the two `simulate` commands and the
`bounds` rows are run through the command line, once per session.

Hashes.  Each output file's sha256 is compared with the table in
golden_hashes.json.  A pure refactor must leave them all unchanged.  The
bytes depend on numpy's generators and the BLAS build, so the table
records the numpy version it was made with; on another version every hash
case skips with a reason naming both.  They also depend on the BLAS thread
count: the hashes hold with OpenBLAS at two or more threads, and under
OPENBLAS_NUM_THREADS=1 the fig5 case fails, as 8 of its 90 rows move by
at most 2.2e-16 relative (README, determinism).  The package imports no
scipy, so the scipy version plays no part.

Values.  golden_values/ holds each case's CSV, the very bytes the hash
table hashes, so it was made with the hash table's numpy.  A fresh run is
compared with it cell by cell, and a failure lists every cell that moved
and by how much.  These cases never skip:

- on the table's numpy, every numeric cell matches at rel 1e-12, and ints
  and text match exactly;
- on another numpy, the rows that depend on a random instance are left
  out (fig4 and fig5 `ccrb_*` rows, every simulate-gaussian row).  Monte
  Carlo cells (figure rows with std_error > 0; simulate's mse, std_error,
  bias_l2 and rel_gap) lie within 4 combined standard errors
  sqrt(se_table^2 + se_run^2), se being the row's std_error for mse,
  value and std_error, std_error / oracle_theory for rel_gap, and
  sqrt(mse / trials) for bias_l2.  biased_regime is recomputed from its
  own row; every other numeric cell matches at rel 1e-12, and ints and
  text match exactly.

A change that alters output bytes on purpose writes fresh tables with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_hashes.json
    PYTHONPATH=src python tests/test_golden.py --values

and lists the old and new hashes, and the values that moved, in CHANGES.md.
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import sparsebounds.cli as cli

TABLE = Path(__file__).with_name("golden_hashes.json")
VALUES = Path(__file__).with_name("golden_values")

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

INT_COLUMNS = {"trials", "failures"}
TEXT_COLUMNS = {"curve_id", "estimator", "regime", "biased_regime"}
REL = 1e-12


@functools.cache
def run_case(name: str) -> tuple[bytes, frozenset]:
    """The file one command writes, and the types of the values cli._fmt formats."""
    fmt, seen = cli._fmt, set()

    def spy(value):
        seen.add(type(value))
        return fmt(value)

    cli._fmt = spy
    try:
        with tempfile.TemporaryDirectory() as out_dir, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*COMMANDS[name], "--out-dir", out_dir, "--output", "out.csv"]) == 0
            data = Path(out_dir, "out.csv").read_bytes()
    finally:
        cli._fmt = fmt
    return data, frozenset(seen)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict:
    return {"numpy": np.__version__}


def table_numpy() -> bool:
    """Whether this run has the numpy the golden tables were made with."""
    return json.loads(TABLE.read_text())["versions"] == versions()


def _random_instance(name: str, row: dict) -> bool:
    return name == "simulate-gaussian" or (
        name in ("fig4", "fig5") and row["curve_id"].startswith("ccrb_")
    )


def _monte_carlo_tolerances(old: dict, new: dict) -> dict:
    """Column -> 4 combined standard errors, for each Monte Carlo cell of a
    table row and its fresh run; empty for a row without one."""
    if "curve_id" in old:  # a figure row
        if float(old["std_error"]) == 0.0:
            return {}
        tol = 4.0 * math.hypot(float(old["std_error"]), float(new["std_error"]))
        return {"value": tol, "std_error": tol}
    if "mse" not in old or "" in (old["mse"], new["mse"]):  # a bounds row, or no trials
        return {}
    tol = 4.0 * math.hypot(float(old["std_error"]), float(new["std_error"]))
    trials = int(old["trials"])
    out = {"mse": tol, "std_error": tol,
           "bias_l2": 4.0 * math.sqrt((float(old["mse"]) + float(new["mse"])) / trials)}
    if old["rel_gap"]:
        out["rel_gap"] = tol / float(old["oracle_theory"])
    return out


def moved_cells(name: str, recorded: str, fresh: str, same_numpy: bool) -> list[str]:
    """Each cell of the fresh CSV text that does not match the recorded one,
    read as the module docstring says for this numpy or another."""
    old_rows = list(csv.DictReader(io.StringIO(recorded)))
    new_rows = list(csv.DictReader(io.StringIO(fresh)))
    old_head, new_head = recorded.partition("\n")[0], fresh.partition("\n")[0]
    if old_head != new_head or len(old_rows) != len(new_rows):
        return [f"{name}: header {old_head!r} and {len(old_rows)} rows, "
                f"got {new_head!r} and {len(new_rows)} rows"]
    moved = []
    for line, (old, new) in enumerate(zip(old_rows, new_rows), 2):
        if not same_numpy and _random_instance(name, old):
            continue
        tolerances = {} if same_numpy else _monte_carlo_tolerances(old, new)
        for column, want in old.items():
            got = new[column]
            if column == "biased_regime" and not same_numpy and new["mse"]:
                hcrb = new["hcrb"]
                biased = bool(hcrb) and float(new["mse"]) < float(hcrb) - 3.0 * float(
                    new["std_error"])
                want = "true" if biased else "false"
            if "" in (want, got) or column in INT_COLUMNS | TEXT_COLUMNS:
                if want != got:
                    moved.append(f"{name} line {line} {column}: {want!r} -> {got!r}")
                continue
            a, b = float(want), float(got)
            if column in tolerances:
                if not abs(b - a) <= tolerances[column]:
                    moved.append(f"{name} line {line} {column}: {want} -> {got}, "
                                 f"|diff| {abs(b - a):.3g} > {tolerances[column]:.3g}")
            elif not math.isclose(a, b, rel_tol=REL, abs_tol=0.0):
                moved.append(f"{name} line {line} {column}: {want} -> {got}, "
                             f"rel {abs(b - a) / max(abs(a), abs(b)):.3g}")
    return moved


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_hash(name):
    table = json.loads(TABLE.read_text())
    made = table["versions"]
    if made != versions():
        pytest.skip(
            f"golden hashes were recorded with numpy {made['numpy']}; "
            f"this run has numpy {np.__version__}"
        )
    assert sha256(run_case(name)[0]) == table["sha256"][name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_values(name):
    recorded = (VALUES / f"{name}.csv").read_text(encoding="utf-8")
    fresh = run_case(name)[0].decode("utf-8")
    moved = moved_cells(name, recorded, fresh, table_numpy())
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_value_table_holds_the_hashed_bytes(name):
    # so the value table was made with the numpy the hash table names
    table = json.loads(TABLE.read_text())
    assert sha256((VALUES / f"{name}.csv").read_bytes()) == table["sha256"][name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_formats_no_numpy_scalar(name):
    assert not [t for t in run_case(name)[1] if issubclass(t, np.generic)]


def _edit(text: str, line: int, column: str, change) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[line - 1][col] = change(rows[line - 1][col])
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize(
    "name, line, column, change, flagged_here, flagged_elsewhere",
    [
        # a Monte Carlo mean: 1e-9 relative is within its standard error, 5
        # combined standard errors are not
        ("simulate-unit", 2, "mse", lambda v: repr(float(v) * (1 + 1e-9)), True, False),
        ("simulate-unit", 2, "mse", lambda v: repr(float(v) + 5 * 2**0.5 * 0.000205),
         True, True),
        ("simulate-unit", 2, "bias_l2", lambda v: repr(float(v) + 0.01), True, True),
        ("simulate-unit", 2, "ccrb", lambda v: repr(float(v) * (1 + 1e-9)), True, True),
        ("simulate-unit", 2, "failures", lambda v: "1", True, True),
        # on another numpy biased_regime must agree with its own row's mse, std_error and hcrb
        ("simulate-unit", 2, "biased_regime", lambda v: "true", True, True),
        ("simulate-unit", 18, "biased_regime", lambda v: "false", True, True),
        ("simulate-gaussian", 2, "ccrb", lambda v: repr(float(v) * 2), True, False),
        ("fig4", 2, "value", lambda v: repr(float(v) * 2), True, False),
        ("fig4", 5, "value", lambda v: repr(float(v) * (1 + 1e-9)), True, True),
        ("table1", 2, "value", lambda v: repr(float(v) * (1 + 1e-9)), True, True),
        ("table1", 3, "value", lambda v: repr(float(v) * (1 + 1e-9)), True, False),
        ("bounds-hcrb", 2, "regime", lambda v: "nonmaximal", True, True),
    ],
)
def test_moved_cells_reads_each_numpy_as_documented(
    name, line, column, change, flagged_here, flagged_elsewhere
):
    recorded = (VALUES / f"{name}.csv").read_text(encoding="utf-8")
    fresh = _edit(recorded, line, column, change)
    assert fresh != recorded
    assert bool(moved_cells(name, recorded, fresh, True)) is flagged_here
    assert bool(moved_cells(name, recorded, fresh, False)) is flagged_elsewhere


if __name__ == "__main__":
    if sys.argv[1:] == ["--values"]:
        VALUES.mkdir(exist_ok=True)
        for name in sorted(COMMANDS):
            (VALUES / f"{name}.csv").write_bytes(run_case(name)[0])
    else:
        hashes = {name: sha256(run_case(name)[0]) for name in sorted(COMMANDS)}
        json.dump({"versions": versions(), "sha256": hashes}, sys.stdout, indent=2)
        print()

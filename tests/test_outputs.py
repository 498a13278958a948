"""Byte pins of the CSV tables the library writes, and the one table writer.

Every table (CLI outputs, plan, quantile grid, stop-loss curve) goes
through ``dist._write_table``. The sha256 digests below were recorded
from the row-by-row ``csv.writer`` output that writer replaced, with
numpy 2.4 and scipy 1.17 on x86-64 Linux; a platform whose math library
rounds a last bit differently may move a digest without any code change.
"""

import csv
import hashlib
import math

import numpy as np
import pytest

from ordrisk.cli import _write_csv, entry
from ordrisk.coupling import dl_plan_discrete, export_plan_csv, sample_coupling
from ordrisk.dist import Normal, Uniform, _write_table, empirical_from_samples, write_grid_csv
from ordrisk.oracle import stop_loss_curve, write_stop_loss_csv

PARETO = ["--margF", "pareto:1,1", "--margG", "pareto:2,1"]

# The README commands, with the tables each one writes.
README_RUNS = {
    "bounds": (["bounds", *PARETO, "--measure", "var"], ("curve.csv", "couplings.csv")),
    "probbounds": (
        ["probbounds", *PARETO, "--t-from", "4.5", "--t-to", "16", "--t-step", "0.5"],
        ("probbounds.csv",),
    ),
    "sample": (
        ["sample", "--margF", "uniform:0,1", "--margG", "uniform:0,1.5"]
        + ["--kind", "dl", "--size", "10000", "--seed", "7", "--jitter"],
        ("samples.csv",),
    ),
}

PINS = {
    "bounds/curve.csv": "843cda05ea6401122a9a611efcbd65ab631b67b6ef9452f89d2f10fecc4940a3",
    "bounds/couplings.csv": "76f9dea02d675d92f1f7f7c9eb5e151f055a5f2c74266cd5a9dc8ace211b3c61",
    "probbounds/probbounds.csv": "accd7e2af2f8bd0be3ae527b36ab86d06ec515dd65a8f7cfde698d0d4ceeb695",
    "sample/samples.csv": "3885b75ad6a6cce0d43e7165da5804a5bf0bbbc8135367b9c880152269ea5c4a",
    "plan.csv": "22de35a86ca63ebde88e7835c06e6945677304edf1f5d3721a0ede805627077d",
    "grid.csv": "ad22fe3b2768f48c099289167922bb28140b393e58825a68bfb5d1f19d39ee5c",
    "stop_loss.csv": "55d03104c8121cb328e5816c8507e59a1306a15cc9eda70f59b3de1ae6273e20",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_library_tables(out) -> None:
    """The plan, grid and stop-loss tables of the pins, written into ``out``."""
    f = empirical_from_samples([-2.0, -0.5, 0.0, 1.0, 3.0, 4.0])
    g = empirical_from_samples([-0.5, 0.0, 1.0, 3.0, 4.0, 6.0])
    export_plan_csv(dl_plan_discrete(f, g, 50), out / "plan.csv")
    write_grid_csv(Normal(0.0, 1.0), out / "grid.csv", n=200)
    batch = sample_coupling(Uniform(0.0, 1.0), Uniform(0.0, 1.5), "comonotone", 1000, 3)
    write_stop_loss_csv(stop_loss_curve(batch, np.linspace(0.0, 3.0, 25)), out / "stop_loss.csv")


@pytest.mark.parametrize("name", sorted(README_RUNS))
def test_readme_tables_are_pinned(tmp_path, name):
    argv, tables = README_RUNS[name]
    assert entry([*argv, "--out", str(tmp_path)]) == 0
    for table in tables:
        assert _sha256(tmp_path / table) == PINS[f"{name}/{table}"], table


def test_library_tables_are_pinned(tmp_path):
    _write_library_tables(tmp_path)
    for table in ("plan.csv", "grid.csv", "stop_loss.csv"):
        assert _sha256(tmp_path / table) == PINS[table], table


SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e20, 0.1, -123456.789012345]


def _csv_writer_reference(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else f"{float(v):.12g}" for v in row])


def test_write_table_matches_csv_writer(tmp_path):
    rows = [(a, b) for a in SPECIAL for b in reversed(SPECIAL)]
    _write_table(tmp_path / "got.csv", ["a", "b"], "%.12g,%.12g", rows)
    _csv_writer_reference(tmp_path / "want.csv", ["a", "b"], rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_cli_table_writes_none_cells_empty(tmp_path):
    rows = [(v, None, np.float64(v)) for v in SPECIAL] + [(None, None, None)]
    _write_csv(tmp_path / "got.csv", ["p", "R", "x"], rows)
    _csv_writer_reference(tmp_path / "want.csv", ["p", "R", "x"], rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_table_empty_body(tmp_path):
    _write_table(tmp_path / "t.csv", ["x", "y"], "%.12g,%.12g", [])
    assert (tmp_path / "t.csv").read_bytes() == b"x,y\r\n"

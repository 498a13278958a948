"""Byte pins of the CSV tables the library writes, and the one table writer.

Every table (CLI outputs, plan, stop-loss curve) goes
through ``dist._write_table``. The sha256 digests below were recorded
from the row-by-row ``csv.writer`` output that writer replaced, with
numpy 2.4 and scipy 1.17 on x86-64 Linux; a platform whose math library
rounds a last bit differently may move a digest without any code change.
The plan-route digests (ES and RVaR curves, couplings and reports) were
recorded from the cell means that evaluated each closed form at both
ends of every cell, before the one-pass kernel of ``dist._cell_means``.
The normal, uniform and atom ``probbounds`` digests were recorded from the
per-bound refinements, before the four bounds at a threshold refined together.
"""

import csv
import hashlib
import math

import numpy as np
import pytest

from ordrisk.cli import _write_csv, entry
from ordrisk.coupling import dl_plan_discrete, export_plan_csv, sample_coupling
from ordrisk.dist import Uniform, _write_table, empirical_from_samples
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

UNIFORM = ["--margF", "uniform:0,100", "--margG", "uniform:0,120"]
RVAR = ["--measure", "rvar", "--q", "0.999"]

# The ES and RVaR routes: each level window's directed plan and countermonotone cells.
# The Pareto pair takes the shape-1 log branch, the case study the empirical branch.
PLAN_RUNS = {
    "es_uniform": ["bounds", *UNIFORM, "--measure", "es"],
    "rvar_uniform": ["bounds", *UNIFORM, *RVAR],
    "rvar_pareto": ["bounds", *PARETO, *RVAR],
    "casestudy_es": ["casestudy", "--groupX", "30", "--groupY", "30", "--replicates", "500"]
    + ["--seed", "3", "--project", "--measure", "es"],
}
PLAN_TABLES = ("curve.csv", "couplings.csv", "reports.json")

# The CI's other probbounds commands: infinite supports, t/2 below both supports
# up to the upper end of G's, and the threshold tables of step CDFs.
PROB_RUNS = {
    "prob_normal": ["--margF", "normal:0,1", "--margG", "normal:0.5,1"]
    + ["--t-from", "-2", "--t-to", "4", "--t-step", "0.5"],
    "prob_uniform": [*UNIFORM, "--t-from", "-20", "--t-to", "240", "--t-step", "10"],
    "prob_atoms": ["--margF", "csv:{x}", "--margG", "csv:{y}", "--t-from", "1", "--t-to", "17", "--t-step", "0.5"],
}
ATOMS = {"x": "value,weight\n1,2\n2,3\n4,1\n7,2\n", "y": "value,weight\n2,1\n3,3\n5,2\n8,2\n"}

PINS = {
    "bounds/curve.csv": "843cda05ea6401122a9a611efcbd65ab631b67b6ef9452f89d2f10fecc4940a3",
    "bounds/couplings.csv": "76f9dea02d675d92f1f7f7c9eb5e151f055a5f2c74266cd5a9dc8ace211b3c61",
    "probbounds/probbounds.csv": "accd7e2af2f8bd0be3ae527b36ab86d06ec515dd65a8f7cfde698d0d4ceeb695",
    "prob_normal/probbounds.csv": "51d5b6f7534c5d73b0ded7a58401a9ee101c9548a76d0c4067d5ad8444af855b",
    "prob_uniform/probbounds.csv": "39e5f069d1634706570ea907f59385be6e9c35dca29f646ea504a9b50d86caeb",
    "prob_atoms/probbounds.csv": "b9200b19d8141060af43b508107e12d0574337ac4d094ede3360020de66fdd6a",
    "sample/samples.csv": "3885b75ad6a6cce0d43e7165da5804a5bf0bbbc8135367b9c880152269ea5c4a",
    "plan.csv": "22de35a86ca63ebde88e7835c06e6945677304edf1f5d3721a0ede805627077d",
    "stop_loss.csv": "55d03104c8121cb328e5816c8507e59a1306a15cc9eda70f59b3de1ae6273e20",
    "casestudy_es/curve.csv": "ae16f3ea64dad161e5f51eed8e2be9849144f7fa3b085f98cb30cc266818c38c",
    "casestudy_es/couplings.csv": "b2949a7a29423e601a67b1467d5806cc3e5e7d0b8cc27e60a0fefd364fedf67a",
    "casestudy_es/reports.json": "5160e142bd789a0d5a2ca8901cf2a29f5955e3b7448a1e09f82af86a48f27df7",
    "es_uniform/curve.csv": "0433b6389604bade4263137b847e1833bd5e1154d7a92ce06007299ebdc72a69",
    "es_uniform/couplings.csv": "9f7c1ae177c7a25adc9482de57375ac16b0c9411cef24f313d8f702c326d7a4d",
    "es_uniform/reports.json": "f77bfb5b85e714ae2322210b870ac5db9d60beed680badd69824de103bb185f0",
    "rvar_pareto/curve.csv": "4006e40575ac8a008341e61b5cd8aef6b6477b6623f83a0eb0b7500476b6e51d",
    "rvar_pareto/couplings.csv": "76f9dea02d675d92f1f7f7c9eb5e151f055a5f2c74266cd5a9dc8ace211b3c61",
    "rvar_pareto/reports.json": "751cf05e91c49deaedc565eda22066e433e167918e0f7700790e058ce17c7dfc",
    "rvar_uniform/curve.csv": "5433d6e9d93926cb7200a6d51d87ab86f91d2759b6ab9976006dc2a401dc1957",
    "rvar_uniform/couplings.csv": "9f7c1ae177c7a25adc9482de57375ac16b0c9411cef24f313d8f702c326d7a4d",
    "rvar_uniform/reports.json": "4de1f8553070c0e762e4e67fc45d0384a9eb38f8ffe6f17e7ce8bb202babc175",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_library_tables(out) -> None:
    """The plan and stop-loss tables of the pins, written into ``out``."""
    f = empirical_from_samples([-2.0, -0.5, 0.0, 1.0, 3.0, 4.0])
    g = empirical_from_samples([-0.5, 0.0, 1.0, 3.0, 4.0, 6.0])
    export_plan_csv(dl_plan_discrete(f, g, 50), out / "plan.csv")
    batch = sample_coupling(Uniform(0.0, 1.0), Uniform(0.0, 1.5), "comonotone", 1000, 3)
    write_stop_loss_csv(stop_loss_curve(batch, np.linspace(0.0, 3.0, 25)), out / "stop_loss.csv")


def _observations(root) -> list[str]:
    """Two observation files from a fixed seed; Y sits just out of order, so --project repairs."""
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 1.0, 400)
    near = rng.permutation(xs) - 0.004 + 0.008 * rng.uniform(size=400)
    args = []
    for flag, name, vals in (("--obsX", "x.csv", xs), ("--obsY", "y.csv", near)):
        path = root / name
        path.write_text("value\n" + "\n".join(f"{v:.9f}" for v in vals) + "\n")
        args += [flag, str(path)]
    return args


@pytest.mark.parametrize("name", sorted(PLAN_RUNS))
def test_plan_route_tables_are_pinned(tmp_path, name):
    argv = PLAN_RUNS[name] + (_observations(tmp_path) if name == "casestudy_es" else [])
    out = tmp_path / "out"
    assert entry([*argv, "--out", str(out)]) == 0
    for table in PLAN_TABLES:
        assert _sha256(out / table) == PINS[f"{name}/{table}"], table


@pytest.mark.parametrize("name", sorted(README_RUNS))
def test_readme_tables_are_pinned(tmp_path, name):
    argv, tables = README_RUNS[name]
    assert entry([*argv, "--out", str(tmp_path)]) == 0
    for table in tables:
        assert _sha256(tmp_path / table) == PINS[f"{name}/{table}"], table


@pytest.mark.parametrize("name", sorted(PROB_RUNS))
def test_prob_tables_are_pinned(tmp_path, name):
    paths = {}
    for side, text in ATOMS.items():
        paths[side] = tmp_path / f"{side}.csv"
        paths[side].write_text(text)
    argv = [arg.format(**paths) for arg in PROB_RUNS[name]]
    out = tmp_path / "out"
    assert entry(["probbounds", *argv, "--out", str(out)]) == 0
    assert _sha256(out / "probbounds.csv") == PINS[f"{name}/probbounds.csv"]


def test_library_tables_are_pinned(tmp_path):
    _write_library_tables(tmp_path)
    for table in ("plan.csv", "stop_loss.csv"):
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

"""The README experiment scripts, run on short grids."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_table1(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    argv = ["--p-from", "0.9", "--p-to", "0.95", "--p-step", "0.05", "--out", str(out)]
    assert _main("run_table1")(argv) == 0
    rows = _rows(out)
    assert len(rows) == 6 * 2
    for row in rows:
        l, lo, uo, u = (float(row[k]) for k in ("L", "Lo", "Uo", "U"))
        assert l <= lo <= uo <= u
        assert 0.0 <= float(row["R"]) <= 1.0
    assert f"wrote {out}" in capsys.readouterr().out


def test_pareto_probbounds(tmp_path):
    out = tmp_path / "probbounds.csv"
    argv = ["--t-from", "3.0", "--t-to", "16.0", "--t-step", "0.5", "--grid-n", "1000", "--out", str(out)]
    assert _main("pareto_probbounds")(argv) == 0
    rows = _rows(out)
    assert len(rows) == 27
    for row in rows:
        # the closed forms are exact on this pair, at the printed 8 digits
        assert row["mo"] == row["mo_exact"], row
        assert row["Mo"] == row["Mo_exact"], row
        m, mo, big_mo, big_m = (float(row[k]) for k in ("m", "mo", "Mo", "M"))
        assert m <= mo <= big_mo <= big_m
        assert m <= float(row["prob_dl"]) <= big_m
        assert m <= float(row["prob_ct"]) <= big_m


"""Byte pins of the CSV tables the library writes, and the one table writer.

Every table (CLI outputs, plan, samples, stop-loss curve) goes through
``dist._write_table``, which takes columns: each float column is formatted
in blocks of rows by one numpy ``%.12g`` kernel, ``_g12.format_g12``, and
the cells it cannot prove (zeros, inf, nan, exponent notation, near-ties
and carries) by Python's ``'%.12g' % v``; the CLI's tables of preformatted
string cells are joined as they are. The tests below compare the kernel with ``'%.12g' % v`` cell
by cell. The sha256 digests below were recorded
from the row-by-row ``csv.writer`` output that writer replaced, with
numpy 2.4 and scipy 1.17 on x86-64 Linux; a platform whose math library
rounds a last bit differently may move a digest without any code change.
The plan-route digests (ES and RVaR curves, couplings and reports) were
recorded from the cell means that evaluated each closed form at both
ends of every cell, before the one-pass kernel of ``dist._cell_means``.
The normal, uniform and atom ``probbounds`` digests were recorded from the
per-bound refinements, before the four bounds at a threshold refined together.
The comonotone and countermonotone draw digests were recorded while the
samplers clipped every level to [1e-12, 1 - 1e-12], before they read levels
through ``dist._grid_points``. The unjittered uniform, normal and near-atom
plan draw digests were recorded from the writer's ``'%.12g' % row`` format,
one Python call per float, before the column kernel. The step-pair digests
(the case study's VaR curve and the atom pair's VaR and essential curves) were
recorded while each VaR scan read the quantiles of its step laws at the scan
levels into the node grid and each reflected scan rebuilt both reflected laws.
"""

import csv
import hashlib
import math

import numpy as np
import pytest

from ordrisk.cli import _write_csv, entry
from ordrisk.coupling import dl_plan_discrete, export_plan_csv, sample_coupling
from hypothesis import given, settings
from hypothesis import strategies as st

from ordrisk._g12 import format_g12
from ordrisk.dist import _BLOCK_ROWS, Uniform, _write_table, empirical_from_samples
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

# The step-pair (atom) VaR and essential scans: the case study after its projection,
# and the CI's atom pair of the probbounds run, the VaR curve at levels that include
# cumulative weights of both laws (0.25, 0.5, 0.75).
ATOM_PAIR = ["--margF", "csv:{x}", "--margG", "csv:{y}"]
STEP_RUNS = {
    "casestudy_var": ["casestudy", "--groupX", "30", "--groupY", "30", "--replicates", "500"]
    + ["--seed", "3", "--project", "--measure", "var"],
    "var_atoms": ["bounds", *ATOM_PAIR, "--measure", "var", "--p-from", "0.05", "--p-to", "0.95", "--p-step", "0.05"],
    "essinf_atoms": ["bounds", *ATOM_PAIR, "--measure", "essinf"],
    "esssup_atoms": ["bounds", *ATOM_PAIR, "--measure", "esssup"],
}

SEED7 = ["--size", "10000", "--seed", "7"]
# The draws that read quantiles at raw uniform levels: comonotone on a pair with
# unbounded upper supports, countermonotone on a normal pair (unbounded at both ends);
# and the CI's unjittered plan draws: uniform, normal (whose bottom points sit at the
# truncation clip) and an atom pair crossing by 1e-10, which the order gate admits.
DRAW_RUNS = {
    "sample_comonotone": [*PARETO, "--kind", "comonotone", *SEED7],
    "sample_countermonotone": ["--margF", "normal:0,1", "--margG", "normal:0.5,1", "--kind", "countermonotone", *SEED7],
    "sample_plan": ["--margF", "uniform:0,1", "--margG", "uniform:0,1.5", "--kind", "dl", *SEED7],
    "sample_plan_normal": ["--margF", "normal:0,1", "--margG", "normal:0.5,1", "--kind", "dl", *SEED7],
    "sample_plan_near_atoms": ["--margF", "csv:{x}", "--margG", "csv:{y}"]
    + ["--kind", "dl", "--size", "1000", "--seed", "1"],
}
NEAR_ATOMS = {"x": "value,weight\n0,0.4999999999\n1,0.5000000001\n", "y": "value,weight\n0,0.5\n1,0.5\n"}

PINS = {
    "bounds/curve.csv": "843cda05ea6401122a9a611efcbd65ab631b67b6ef9452f89d2f10fecc4940a3",
    "bounds/couplings.csv": "76f9dea02d675d92f1f7f7c9eb5e151f055a5f2c74266cd5a9dc8ace211b3c61",
    "probbounds/probbounds.csv": "accd7e2af2f8bd0be3ae527b36ab86d06ec515dd65a8f7cfde698d0d4ceeb695",
    "prob_normal/probbounds.csv": "51d5b6f7534c5d73b0ded7a58401a9ee101c9548a76d0c4067d5ad8444af855b",
    "prob_uniform/probbounds.csv": "39e5f069d1634706570ea907f59385be6e9c35dca29f646ea504a9b50d86caeb",
    "prob_atoms/probbounds.csv": "b9200b19d8141060af43b508107e12d0574337ac4d094ede3360020de66fdd6a",
    "sample/samples.csv": "3885b75ad6a6cce0d43e7165da5804a5bf0bbbc8135367b9c880152269ea5c4a",
    "sample_comonotone/samples.csv": "065e4fcd763443f5fb7018bd97fe29301e11bc8a4ae6b7013b2ed4864cd2528a",
    "sample_countermonotone/samples.csv": "f1cbc803c25db17a595f122866e83533f8c04a23ab719a149fbf60afe847b685",
    "sample_plan/samples.csv": "3479e89a88ef73690a73d73f26e943401b07e664d13bb266257c588ba9eae0e1",
    "sample_plan_normal/samples.csv": "ecbf77bb06a9cb9e5d63180dfe6dead67f47d96c0afa44c8f607d34d2a5f8ea4",
    "sample_plan_near_atoms/samples.csv": "76b76f2fc6aac759775fd4d91dbb1f7d91dd41eda09966c79db56fdeec6e8854",
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
    "casestudy_var/curve.csv": "dcb645571c1d65ea0d7bb1b150427fe26f6d93b070998037b0d2f3c56a78c815",
    "casestudy_var/couplings.csv": "b2949a7a29423e601a67b1467d5806cc3e5e7d0b8cc27e60a0fefd364fedf67a",
    "casestudy_var/reports.json": "cdc2c737210c0ad8aa58bc075ff72e350b67054dacea4f2c20c2fc9b4212e1d2",
    "var_atoms/curve.csv": "c612ef9dd8da65a0cbcb981d210dca9c43df4ee231a5483fac7641a5b1f57a78",
    "var_atoms/couplings.csv": "085897e1756ff5dee8a87e3588460b26a298e2033dd1458e5d241c2659e00d56",
    "var_atoms/reports.json": "2bb76ff5465ab4ec64503da8db3b92880d637389074d77285fad125b92e8e151",
    "essinf_atoms/curve.csv": "4cdd497dffe764f4f62e43dee76d894a3a26b7289600b22f1b1a43b8d52bb39f",
    "essinf_atoms/couplings.csv": "a4218a6233fc2da3b0e1d2b3266e652dab6e91913999fa927688253883428fae",
    "essinf_atoms/reports.json": "5ecd523738643101a2aac1cf9d9a220545a9f1d30947ca33678a97cf5c9cfb27",
    "esssup_atoms/curve.csv": "eb1c96b4be313af6b7cb0fc8caf45a8a919177fbc13ffae99e06720447e4e62b",
    "esssup_atoms/couplings.csv": "a4218a6233fc2da3b0e1d2b3266e652dab6e91913999fa927688253883428fae",
    "esssup_atoms/reports.json": "ad528c6e1dcc2169b52d2bb3dace5411f47d3385e25c664f98abffc0d4074c20",
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


@pytest.mark.parametrize("name", sorted(STEP_RUNS))
def test_step_pair_tables_are_pinned(tmp_path, name):
    paths = {}
    for side, text in ATOMS.items():
        paths[side] = tmp_path / f"{side}.csv"
        paths[side].write_text(text)
    argv = [arg.format(**paths) for arg in STEP_RUNS[name]]
    argv += _observations(tmp_path) if name == "casestudy_var" else []
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


@pytest.mark.parametrize("name", sorted(DRAW_RUNS))
def test_draw_tables_are_pinned(tmp_path, name):
    paths = {}
    for side, text in NEAR_ATOMS.items():
        paths[side] = tmp_path / f"{side}.csv"
        paths[side].write_text(text)
    argv = [arg.format(**paths) for arg in DRAW_RUNS[name]]
    assert entry(["sample", *argv, "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "samples.csv") == PINS[f"{name}/samples.csv"]


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
    _write_table(tmp_path / "got.csv", ["a", "b"], [np.array(col) for col in zip(*rows)])
    _csv_writer_reference(tmp_path / "want.csv", ["a", "b"], rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_cli_table_writes_none_cells_empty(tmp_path):
    rows = [(v, None, np.float64(v)) for v in SPECIAL] + [(None, None, None)]
    _write_csv(tmp_path / "got.csv", ["p", "R", "x"], rows)
    _csv_writer_reference(tmp_path / "want.csv", ["p", "R", "x"], rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_table_empty_body(tmp_path):
    _write_table(tmp_path / "t.csv", ["x", "y"], [np.empty(0), np.empty(0)])
    assert (tmp_path / "t.csv").read_bytes() == b"x,y\r\n"


def _g12_cells(values):
    """The kernel's cells for ``values`` as str, and the indices Python formatted."""
    v = np.asarray(values, dtype=float)
    out = np.zeros((v.size, 3), "<u8")
    rest = format_g12(v, out)
    return [bytes(c).replace(b"\0", b"").decode() for c in out.view("S24").ravel()], rest


def _assert_g12(values):
    cells, rest = _g12_cells(values)
    want = ["%.12g" % v for v in np.asarray(values, dtype=float).tolist()]
    bad = [(w, c) for w, c in zip(want, cells) if w != c]
    assert not bad, bad[:5]
    return rest


def test_g12_matches_python_on_random_bit_patterns():
    rng = np.random.default_rng(27)
    values = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    rest = _assert_g12(values)
    assert 0 < rest.size < values.size - 1000  # both the kernel and the Python path


def test_g12_matches_python_in_fixed_notation():
    rng = np.random.default_rng(28)
    mantissas = rng.uniform(-10.0, 10.0, 200_000)
    values = np.concatenate([mantissas * 10.0 ** rng.integers(-6, 14, mantissas.size), np.round(mantissas, 4)])
    rest = _assert_g12(values)
    assert 0 < rest.size < values.size // 3


def _neighbours(values):
    v = np.asarray(values, dtype=float)
    near = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return np.concatenate([near, -near])


def test_g12_matches_python_at_the_edges():
    rng = np.random.default_rng(29)
    digits = rng.integers(10**11, 10**12, 200).astype(float)
    exps = np.arange(-4, 12)
    halfway = ((digits[:, None] + 0.5) * 10.0 ** (exps - 11)).ravel()  # exact ties at X = 11
    beyond = (digits[:, None] + 0.5 + np.array([-2e-3, 2e-3])).ravel()  # just past the tie margin
    edges = [
        1e-4, 1e-5, 9.99999999999e-5, 0.000999999999999, 1e12, 1e11, 999999999999.0, 999999999999.4,
        *(999999999999.5 * 10.0 ** np.arange(-24, 24)),
        *(10.0 ** np.arange(-6, 14)),
        5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310, 0.0, 0.1, 0.055, 1.5, 120.0,
    ]
    rest = _assert_g12(_neighbours([*edges, *halfway, *beyond]))
    assert rest.size > 0
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    assert _assert_g12(specials).size == specials.size
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    assert _assert_g12(np.concatenate([subnormals, -subnormals])).size == 2000


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_g12_matches_python_on_any_floats(values):
    _assert_g12(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-5, max_value=1e12), min_size=1, max_size=40))
def test_g12_matches_python_on_fixed_notation_floats(values):
    _assert_g12(values + [-v for v in values])


def test_write_table_blocks_match_csv_writer(tmp_path):
    rng = np.random.default_rng(30)
    n = 2 * _BLOCK_ROWS + 7
    x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 15, n)
    x[rng.integers(0, n, 50)] = rng.choice(SPECIAL, 50)
    tags = rng.choice(["common", "singular", ""], n)
    _write_table(tmp_path / "got.csv", ["k", "x", "tag", "y"], [np.arange(1, n + 1), x, tags, -x[::-1]])
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "x", "tag", "y"])
        for k, a, tag, b in zip(range(1, n + 1), x.tolist(), tags.tolist(), (-x[::-1]).tolist()):
            writer.writerow(["%d" % k, "%.12g" % a, tag, "%.12g" % b])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

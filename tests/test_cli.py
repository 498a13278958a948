"""End-to-end command line behavior, run in process through entry()."""

import csv
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ordrisk.cli
from ordrisk.cli import _GRID_CAP, _bootstrap_totals, _grid, _grid_size, _validate, build_parser, entry, parse_marginal
from ordrisk.bounds import bound_report
from ordrisk.coupling import dl_plan_discrete
from ordrisk.dist import DEFAULT_TRUNC, Empirical, Normal, Pareto, Uniform
from ordrisk.errors import DomainError


def run(*argv):
    return entry(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# marginal specs and config


def test_parse_marginal_kinds(tmp_path):
    assert isinstance(parse_marginal("pareto:1,1"), Pareto)
    assert isinstance(parse_marginal("uniform:0,2"), Uniform)
    assert isinstance(parse_marginal("normal:0,1"), Normal)
    p = tmp_path / "obs.csv"
    p.write_text("value\n1\n2\n3\n")
    d = parse_marginal(f"csv:{p}")
    assert isinstance(d, Empirical)
    assert d.values.size == 3


@pytest.mark.parametrize(
    "spec",
    ["pareto", "pareto:1", "pareto:1,1,1", "pareto:a,b", "cauchy:0,1"],
)
def test_parse_marginal_rejects(spec):
    with pytest.raises(DomainError):
        parse_marginal(spec)


MARG = ["--margF", "uniform:0,1", "--margG", "uniform:0,2"]
OBS = ["--obsX", "x.csv", "--obsY", "y.csv", "--groupX", "5", "--groupY", "5"]
THRESH = ["--t-from", "5", "--t-to", "8", "--t-step", "1.5"]


def parsed(*argv):
    return build_parser().parse_args(list(argv))


def test_config_validation():
    _validate(
        parsed("bounds", *MARG, "--p-from", "0.9", "--p-to", "0.99", "--p-step", "0.01")
    )
    for argv in [
        ["bounds", *MARG, "--p-from", "0.0"],
        ["bounds", *MARG, "--p-from", "0.95", "--p-to", "0.9"],
        ["bounds", *MARG, "--p-step", "0.0"],
        ["bounds", *MARG, "--grid-n", "99"],
        ["bounds", *MARG, "--q", "1.5"],
        ["casestudy", *OBS, "--replicates", "0"],
        ["sample", *MARG, "--kind", "dl", "--size", "0"],
        ["probbounds", *MARG, "--t-from", "5", "--t-to", "8", "--t-step", "-1.0"],
        ["casestudy", *OBS, "--max-violation", "-0.1"],
        ["sample", *MARG, "--kind", "dl", "--size", "10", "--seed", "-1"],
        ["casestudy", *OBS, "--seed", "-1"],
        ["casestudy", *OBS, "--groupX", "0"],
        ["casestudy", *OBS, "--groupY", "-1"],
    ]:
        with pytest.raises(DomainError):
            _validate(parsed(*argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["probbounds", *MARG, "--t-from", "4.5", "--t-to", "6", "--t-step", "nan"],
        ["probbounds", *MARG, "--t-from", "nan", "--t-to", "6", "--t-step", "0.5"],
        ["probbounds", *MARG, "--t-from", "4.5", "--t-to", "inf", "--t-step", "0.5"],
        ["bounds", *MARG, "--p-step", "nan"],
        ["bounds", *MARG, "--p-step", "inf"],
        ["casestudy", *OBS, "--max-violation", "nan"],
    ],
    ids=["t-step-nan", "t-from-nan", "t-to-inf", "p-step-nan", "p-step-inf", "max-violation-nan"],
)
def test_non_finite_float_flags_refused(argv, tmp_path, capsys):
    # refused as a DomainError (exit 2) before any output; a NaN step used to
    # crash the grid with a ValueError and a NaN threshold turned the refusal off
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_default_level_grid(tmp_path):
    # the level grid the command writes, not a copy of its arithmetic
    args = ["bounds", *MARG, "--measure", "essinf", "--grid-n", "100"]
    assert run(*args, "--out", str(tmp_path)) == 0
    levels = [r["p"] for r in json.loads((tmp_path / "reports.json").read_text())]
    assert len(levels) == 20
    assert levels[0] == 0.900 and levels[-1] == 0.995


def test_threshold_grid():
    args = parsed("probbounds", *MARG, *THRESH)
    _validate(args)
    assert np.allclose(_grid(args.t_from, args.t_to, args.t_step), [5.0, 6.5, 8.0])
    with pytest.raises(SystemExit):
        parsed("probbounds", *MARG, "--t-to", "8", "--t-step", "1")
    with pytest.raises(DomainError):
        _validate(
            parsed("probbounds", *MARG, "--t-from", "8", "--t-to", "5", "--t-step", "1")
        )


def test_one_truncation_level(tmp_path):
    # every scan and plan truncates at DEFAULT_TRUNC: each report carries it, no flag sets it
    f, g = Pareto(1.0, 1.0), Pareto(2.0, 1.0)
    for measure, kw in [
        ("var", {"p": 0.9}),
        ("es", {"p": 0.9}),
        ("rvar", {"p": 0.9, "q": 0.99}),
        ("essinf", {}),
        ("esssup", {}),
        ("prob", {"t": 8.0}),
    ]:
        assert bound_report(f, g, measure, grid_n=500, **kw).truncation_m == DEFAULT_TRUNC
    f, g = Normal(0.0, 1.0), Normal(0.5, 1.0)  # the plan's level-0 points read level 1 - DEFAULT_TRUNC
    plan = dl_plan_discrete(f, g, 500)
    assert plan.x[-1] == f.quantile_left(1.0 - DEFAULT_TRUNC)
    assert plan.y.min() == g.quantile_left(1.0 - DEFAULT_TRUNC)
    with pytest.raises(SystemExit) as exc:
        run("bounds", *MARG, "--truncate-m", "0.9", "--out", str(tmp_path))
    assert exc.value.code == 2


def test_parser_rejects_bad_usage():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bounds"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", *MARG, "--seed", "1"],
        ["probbounds", *MARG, *THRESH, "--seed", "1"],
        ["selftest", "--perturb", "1.0"],
    ],
)
def test_unread_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


def test_readme_commands_parse():
    # every documented command must still parse and pass the flag checks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cmds = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["ordrisk"]:
                cmds.append(words[1:])
    assert [c[0] for c in cmds] == [
        "bounds",
        "probbounds",
        "sample",
        "casestudy",
        "selftest",
    ]
    for argv in cmds:
        _validate(build_parser().parse_args(argv))


def test_cached_parser_keeps_no_state_between_calls():
    assert build_parser() is build_parser()
    first = parsed("bounds", *MARG, "--project", "--p-from", "0.5", "--measure", "es")
    assert first.project and first.p_from == 0.5 and first.measure == "es"
    sample = parsed("sample", *MARG, "--kind", "dl", "--size", "5")
    assert not hasattr(sample, "project") and not hasattr(sample, "measure")
    assert sample.func is ordrisk.cli.cmd_sample and not sample.jitter
    again = parsed("bounds", *MARG)
    assert not again.project
    assert (again.p_from, again.measure, again.q) == (0.9, "var", None)
    assert again.func is ordrisk.cli.cmd_bounds
    assert not hasattr(again, "kind")


@pytest.mark.parametrize(
    "extra",
    [
        ["--margF", "pareto:1,1", "--margG", "pareto:2,1", "--measure", "var"],
        ["--margF", "uniform:0,100", "--margG", "uniform:0,120", "--measure", "rvar"]
        + ["--q", "0.999", "--grid-n", "1000"],
    ],
)
def test_bounds_job_checks_the_pair_once(tmp_path, monkeypatch, extra):
    # the CLI gate, 20 levels of four bounds, the plans and couplings.csv
    checks = []
    original = ordrisk.coupling.check_st

    def counting(*args, **kwargs):
        checks.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(ordrisk.coupling, "check_st", counting)
    monkeypatch.setattr(ordrisk.cli, "check_st", counting)
    assert run("bounds", *extra, "--out", str(tmp_path)) == 0
    assert len(read_rows(tmp_path / "curve.csv")) == 21
    assert len(checks) == 1


@pytest.mark.parametrize(
    "measure, integrals",
    [
        # windows [p, 1) at three levels, [0, q) and [0, 1), two laws each
        (["--measure", "rvar", "--q", "0.999"], 10),
        # the [0, 1) window, plus ES_p of each law at three levels
        (["--measure", "es"], 8),
    ],
    ids=["rvar", "es"],
)
def test_bounds_job_integrates_each_window_once(tmp_path, monkeypatch, measure, integrals):
    # every quantile integral (one ``_quantile_integral`` or ``_cell_means``
    # call) builds its closed form once; each window's plan and
    # countermonotone sums share one set of cell means
    laws = []
    original = ordrisk.dist._integral_parts

    def counting(d):
        laws.append(d)
        return original(d)

    monkeypatch.setattr(ordrisk.dist, "_integral_parts", counting)
    levels = ["--p-from", "0.9", "--p-to", "0.91", "--p-step", "0.005", "--grid-n", "1000"]
    margins = ["--margF", "uniform:0,100", "--margG", "uniform:0,120"]
    assert run("bounds", *margins, *measure, *levels, "--out", str(tmp_path)) == 0
    assert len(read_rows(tmp_path / "curve.csv")) == 4
    assert len(laws) == integrals


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    assert "all 6 checks passed" in out
    assert out.count("pass") >= 6


def test_selftest_forced_failure(capsys, monkeypatch):
    worst = ordrisk.cli.worst_ess_inf_constrained
    monkeypatch.setattr(
        ordrisk.cli, "worst_ess_inf_constrained", lambda f, g: worst(f, g) + 1.0
    )
    assert run("selftest") == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "1 of 6 checks failed" in captured.err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ordrisk", "selftest"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# bounds


BOUNDS_ARGS = [
    "bounds",
    "--margF",
    "uniform:0,100",
    "--margG",
    "uniform:0,120",
    "--p-from",
    "0.9",
    "--p-to",
    "0.95",
    "--p-step",
    "0.01",
    "--grid-n",
    "2000",
]


def test_bounds_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(*BOUNDS_ARGS, "--out", str(out)) == 0
    assert "order check: max violation" in capsys.readouterr().out

    rows = read_rows(out / "curve.csv")
    assert rows[0] == ["p", "L", "Lo", "Uo", "U", "R"]
    assert len(rows) == 7
    for row in rows[1:]:
        p, l, lo, uo, u, r = map(float, row)
        assert l <= lo <= uo <= u
        assert 0.0 <= r <= 1.0

    crows = read_rows(out / "couplings.csv")
    assert crows[0] == ["p", "var_dl", "var_ct"]
    assert len(crows) == 7

    reports = json.loads((out / "reports.json").read_text())
    assert len(reports) == 6
    assert reports[0]["measure"] == "var"
    assert reports[0]["grid_n"] == 2000


def test_bounds_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*BOUNDS_ARGS, "--out", str(a)) == 0
    assert run(*BOUNDS_ARGS, "--out", str(b)) == 0
    for name in ("curve.csv", "couplings.csv", "reports.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_bounds_rvar_requires_q(capsys):
    args = [a for a in BOUNDS_ARGS] + ["--measure", "rvar", "--out", "/tmp"]
    assert run(*args) == 2
    assert "requires --q" in capsys.readouterr().err
    assert run(*args, "--q", "0.93") == 2  # q below top of grid


@pytest.mark.parametrize("measure", ["var", "es", "essinf", "esssup"])
def test_q_refused_unless_rvar(tmp_path, capsys, measure):
    out = tmp_path / "out"
    assert run(*BOUNDS_ARGS, "--measure", measure, "--q", "0.999", "--out", str(out)) == 2
    assert "--q is read by --measure rvar only" in capsys.readouterr().err
    assert not out.exists()


def test_casestudy_q_refused_before_any_output(obs_files, tmp_path, capsys):
    out = tmp_path / "cs"
    args = casestudy_args(obs_files["x"], obs_files["y"], out)
    assert run(*args, "--measure", "es", "--q", "0.999") == 2
    assert "read by --measure rvar only" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_rvar_runs(tmp_path):
    assert (
        run(*BOUNDS_ARGS, "--measure", "rvar", "--q", "0.99", "--out", str(tmp_path))
        == 0
    )
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert reports[0]["measure"] == "rvar"
    assert reports[0]["q"] == 0.99


def _count_plans(monkeypatch):
    """Record the level window (p, q) of every plan the bounds and the CLI build."""
    windows = []

    def counting(module):
        original = module.dl_plan_discrete

        def plan(f, g, n, p=0.0, *, q=1.0, **kwargs):
            windows.append((module.__name__, p, q))
            return original(f, g, n, p, q=q, **kwargs)

        monkeypatch.setattr(module, "dl_plan_discrete", plan)

    counting(ordrisk.bounds)
    counting(ordrisk.cli)
    return windows


def test_bounds_es_builds_one_whole_pair_plan(tmp_path, monkeypatch):
    # three levels and couplings.csv share one plan: 4 builds before the memo
    windows = _count_plans(monkeypatch)
    args = ["bounds", "--margF", "pareto:1,2", "--margG", "pareto:1.5,2", "--measure", "es"]
    args += ["--p-from", "0.9", "--p-to", "0.94", "--p-step", "0.02", "--grid-n", "500"]
    assert run(*args, "--out", str(tmp_path)) == 0
    assert len(read_rows(tmp_path / "curve.csv")) == 4
    assert windows == [("ordrisk.bounds", 0.0, 1.0)]


def test_bounds_rvar_builds_one_plan_below_q(tmp_path, monkeypatch):
    windows = _count_plans(monkeypatch)
    args = [*BOUNDS_ARGS, "--measure", "rvar", "--q", "0.99", "--out", str(tmp_path)]
    assert run(*args) == 0
    assert windows.count(("ordrisk.bounds", 0.0, 0.99)) == 1
    assert windows.count(("ordrisk.bounds", 0.0, 1.0)) == 1
    # the upper p-tails of worst RVaR change with the level: one per level
    assert sorted(p for _, p, q in windows if p > 0.0) == [0.9, 0.91, 0.92, 0.93, 0.94, 0.95]


def test_bounds_order_gate(tmp_path, capsys):
    rng = np.random.default_rng(1)
    lo = tmp_path / "lo.csv"
    hi = tmp_path / "hi.csv"
    lo.write_text("value\n" + "\n".join(f"{v:.9f}" for v in rng.uniform(0, 1, 300)))
    hi.write_text(
        "value\n" + "\n".join(f"{v:.9f}" for v in rng.uniform(0.3, 1.3, 300))
    )
    args = [
        "bounds",
        "--margF",
        f"csv:{hi}",
        "--margG",
        f"csv:{lo}",
        "--p-from",
        "0.9",
        "--p-to",
        "0.9",
        "--grid-n",
        "1000",
        "--out",
        str(tmp_path / "o"),
    ]
    assert run(*args) == 2
    assert "--project repairs" in capsys.readouterr().err
    assert run(*args, "--project") == 0


def _found_pair(tmp_path):
    """X = {0: 0.4995, 1: 0.5005}, Y = {0: 0.5, 2: 0.5}: F(0) - G(0) = -5e-4, not ordered."""
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    x.write_text("value,weight\n0,0.4995\n1,0.5005\n")
    y.write_text("value,weight\n0,0.5\n2,0.5\n")
    return ["--margF", f"csv:{x}", "--margG", f"csv:{y}"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["bounds", "--p-from", "0.9", "--p-to", "0.99", "--p-step", "0.03"], "curve.csv"),
        (["probbounds", "--t-from", "-1", "--t-to", "4", "--t-step", "0.5"], "probbounds.csv"),
    ],
    ids=["bounds", "probbounds"],
)
def test_gate_refuses_a_crossing_below_the_old_atom_tolerance(tmp_path, capsys, argv, name):
    # the violation 5e-4 lies below 2/2048, the tolerance atoms used to get; the
    # pair then passed the gate and every bound failed after the first output
    out = tmp_path / "o"
    args = [*argv, *_found_pair(tmp_path), "--out", str(out)]
    assert run(*args) == 2
    assert "--project repairs" in capsys.readouterr().err
    assert not out.exists()
    assert run(*args, "--project") == 0
    for row in read_rows(out / name)[1:]:
        vals = [float(v) for v in row[1:5]]
        assert vals == sorted(vals)


def test_es_bounds_and_plan_draws_on_a_pair_crossing_by_1e_10(tmp_path):
    # the gate admits X = {0: 0.5 - 1e-10, 1: 0.5 + 1e-10}, Y = {0: 0.5, 1: 0.5};
    # the plan used to find no y >= 1 for pair 5000 of 10000 and exit 2
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    x.write_text("value,weight\n0,0.4999999999\n1,0.5000000001\n")
    y.write_text("value,weight\n0,0.5\n1,0.5\n")
    marg = ["--margF", f"csv:{x}", "--margG", f"csv:{y}"]
    levels = ["--p-from", "0.5", "--p-to", "0.9", "--p-step", "0.2"]
    assert run("bounds", *marg, "--measure", "es", *levels, "--out", str(tmp_path / "es")) == 0
    for row in read_rows(tmp_path / "es" / "curve.csv")[1:]:
        vals = [float(v) for v in row[1:5]]
        assert vals == sorted(vals)
    assert run("sample", *marg, "--kind", "dl", "--size", "100", "--out", str(tmp_path / "dl")) == 0
    assert all(float(a) <= float(b) for a, b in read_rows(tmp_path / "dl" / "samples.csv")[1:])


@pytest.mark.parametrize("command", ["bounds", "casestudy"])
def test_failing_bound_writes_no_output(obs_files, tmp_path, monkeypatch, capsys, command):
    # every row is computed before the first file is written, casestudy's
    # preprocessing.json included
    def fail(*args, **kwargs):
        raise ordrisk.cli.OrdriskError("no available y")

    monkeypatch.setattr(ordrisk.cli, "dl_sum_var", fail)
    out = tmp_path / "o"
    if command == "bounds":
        args = ["bounds", *MARG, "--p-from", "0.9", "--p-to", "0.92", "--p-step", "0.01", "--out", str(out)]
    else:
        args = casestudy_args(obs_files["x"], obs_files["y"], out)
    assert run(*args) == 2
    assert "no available y" in capsys.readouterr().err
    assert not out.exists()


def test_missing_csv_is_io_error(tmp_path, capsys):
    args = [
        "bounds",
        "--margF",
        f"csv:{tmp_path}/absent.csv",
        "--margG",
        "uniform:0,1",
        "--out",
        str(tmp_path),
    ]
    assert run(*args) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [("value\n1\nabc\n", 3), ("value,weight\n1,2\n2\n", 3)],
    ids=["non-numeric", "missing-weight"],
)
@pytest.mark.parametrize("command", ["bounds", "casestudy"])
def test_malformed_csv_exits_2_naming_the_line(tmp_path, capsys, command, text, line):
    # a ValueError and an IndexError used to escape as tracebacks (exit 1)
    bad, out = tmp_path / "bad.csv", tmp_path / "out"
    bad.write_text(text)
    if command == "bounds":
        argv = ["bounds", "--margF", f"csv:{bad}", "--margG", "uniform:0,1", "--out", str(out)]
    else:
        argv = ["casestudy", "--obsX", str(bad), "--obsY", str(bad), "--groupX", "5", "--groupY", "5", "--out", str(out)]
    assert run(*argv) == 2
    assert f"{bad}, line {line}: bad row" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# probbounds


def test_probbounds_outputs(tmp_path):
    out = tmp_path / "pb"
    rc = run(
        "probbounds",
        "--margF",
        "pareto:1,1",
        "--margG",
        "pareto:2,1",
        "--t-from",
        "5",
        "--t-to",
        "8",
        "--t-step",
        "1.5",
        "--out",
        str(out),
    )
    assert rc == 0
    rows = read_rows(out / "probbounds.csv")
    assert rows[0] == ["t", "m", "mo", "Mo", "M", "prob_dl", "prob_ct"]
    assert len(rows) == 4
    for row in rows[1:]:
        t, m, mo, big_mo, big_m, p_dl, p_ct = map(float, row)
        assert 0.0 <= m <= mo <= big_mo <= big_m <= 1.0
        assert mo - 1e-6 <= p_dl <= big_mo + 1e-6
    last = dict(zip(rows[0], map(float, rows[3])))
    assert last["t"] == 8.0
    assert abs(last["mo"] - 0.5) < 2e-3
    assert abs(last["Mo"] - 5.0 / 7.0) < 2e-3


def test_probbounds_bad_grid(capsys):
    rc = run(
        "probbounds",
        "--margF",
        "pareto:1,1",
        "--margG",
        "pareto:2,1",
        "--t-from",
        "8",
        "--t-to",
        "5",
        "--t-step",
        "1",
    )
    assert rc == 2
    assert "t_from <= t_to" in capsys.readouterr().err


# A level step of 2**-20 from 0.25 is exact, so these grids hold _GRID_CAP + 1 points.
OVER_CAP_P = ["--p-from", "0.25", "--p-to", repr(0.25 + _GRID_CAP * 2.0**-20), "--p-step", repr(2.0**-20)]


@pytest.mark.parametrize(
    "argv",
    [
        ["probbounds", *MARG, "--t-from", "4.5", "--t-to", "16", "--t-step", "1e-300"],
        ["probbounds", *MARG, "--t-from", "0", "--t-to", str(_GRID_CAP), "--t-step", "1"],
        ["probbounds", *MARG, "--t-from=-1e308", "--t-to", "1e308", "--t-step", "1"],
        ["bounds", *MARG, "--p-from", "0.5", "--p-to", "0.9", "--p-step", "1e-300"],
        ["bounds", *MARG, *OVER_CAP_P],
    ],
    ids=["t_tiny", "t_over_cap", "t_overflow", "p_tiny", "p_over_cap"],
)
def test_grid_over_cap_exits_2_before_output(tmp_path, capsys, argv):
    # a tiny step used to end in an uncaught ValueError from np.arange, or in
    # an allocation of (hi - lo) / step floats; the count is refused first
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    assert "grid points" in capsys.readouterr().err
    assert not out.exists()


def test_grid_size_counts_without_building():
    assert _grid_size(0.0, _GRID_CAP - 1.0, 1.0) == _GRID_CAP
    assert _grid_size(0.25, 0.25 + (_GRID_CAP - 1) * 2.0**-20, 2.0**-20) == _GRID_CAP
    assert _grid_size(5.0, 8.0, 1.5) == 3
    with pytest.raises(DomainError):
        _grid_size(0.25, 0.25 + _GRID_CAP * 2.0**-20, 2.0**-20)


# ---------------------------------------------------------------------------
# sample


def test_sample_comonotone(tmp_path):
    out = tmp_path / "s"
    rc = run(
        "sample",
        "--margF",
        "uniform:0,1",
        "--margG",
        "uniform:0,2",
        "--kind",
        "comonotone",
        "--size",
        "300",
        "--seed",
        "1",
        "--out",
        str(out),
    )
    assert rc == 0
    rows = read_rows(out / "samples.csv")
    assert rows[0] == ["x", "y"]
    data = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    assert data.shape[0] == 300
    order = np.argsort(data[:, 0])
    assert np.all(np.diff(data[order, 1]) >= -1e-12)
    meta = json.loads((out / "samples.json").read_text())
    assert meta["kind"] == "comonotone"
    assert meta["seed"] == 1
    assert meta["size"] == 300


def test_sample_countermonotone_constant_sum(tmp_path):
    out = tmp_path / "s"
    rc = run(
        "sample",
        "--margF",
        "uniform:0,1",
        "--margG",
        "uniform:0,1",
        "--kind",
        "countermonotone",
        "--size",
        "200",
        "--seed",
        "2",
        "--out",
        str(out),
    )
    assert rc == 0
    rows = read_rows(out / "samples.csv")
    sums = np.array([float(r[0]) + float(r[1]) for r in rows[1:]])
    assert np.allclose(sums, 1.0, atol=1e-9)


def test_sample_dl_directed_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = [
        "sample",
        "--margF",
        "pareto:1,1",
        "--margG",
        "pareto:2,1",
        "--kind",
        "dl",
        "--size",
        "500",
        "--seed",
        "9",
        "--grid-n",
        "2000",
    ]
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    rows = read_rows(out1 / "samples.csv")
    for r in rows[1:]:
        assert float(r[0]) <= float(r[1]) + 1e-12


# ---------------------------------------------------------------------------
# casestudy


@pytest.fixture(scope="module")
def obs_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs")
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 1.0, 400)
    ys = rng.uniform(0.2, 1.4, 400)
    near = rng.permutation(xs) - 0.004 + 0.008 * rng.uniform(size=400)

    def write(name, vals):
        p = root / name
        p.write_text("value\n" + "\n".join(f"{v:.9f}" for v in vals) + "\n")
        return str(p)

    return {
        "x": write("x.csv", xs),
        "y": write("y.csv", ys),
        "near": write("near.csv", near),
    }


@pytest.mark.parametrize("weights", [[1.0, 1.00001], [1.0, 1.0]], ids=["unequal", "equal"])
def test_bootstrap_draws_read_unequal_weights(weights):
    # weights within np.allclose of 1/n used to be drawn as equal ones: [8, 7, 7] for both
    d = Empirical([1.0, 2.0], weights)
    p = None if weights[0] == weights[1] else d.weights
    want = np.random.default_rng(1).choice(d.values, size=(3, 5), replace=True, p=p).sum(axis=1)
    np.testing.assert_array_equal(_bootstrap_totals(np.random.default_rng(1), d, 5, 3), want)


def casestudy_args(obs_x, obs_y, out):
    return [
        "casestudy",
        "--obsX",
        obs_x,
        "--obsY",
        obs_y,
        "--groupX",
        "30",
        "--groupY",
        "30",
        "--replicates",
        "500",
        "--seed",
        "3",
        "--p-from",
        "0.9",
        "--p-to",
        "0.92",
        "--p-step",
        "0.01",
        "--grid-n",
        "2000",
        "--out",
        str(out),
    ]


def test_casestudy_clean_pair(obs_files, tmp_path):
    out = tmp_path / "cs"
    assert run(*casestudy_args(obs_files["x"], obs_files["y"], out)) == 0
    pre = json.loads((out / "preprocessing.json").read_text())
    assert pre["max_violation"] == 0.0
    assert pre["projected"] is False
    assert pre["replicates"] == 500
    assert pre["threshold"] == pytest.approx(2.0 / np.sqrt(500))
    rows = read_rows(out / "curve.csv")
    assert len(rows) == 4
    for row in rows[1:]:
        vals = [float(v) for v in row[1:5]]
        assert vals == sorted(vals)


def test_casestudy_small_violation_needs_project(obs_files, tmp_path, capsys):
    out = tmp_path / "cs"
    args = casestudy_args(obs_files["x"], obs_files["near"], out)
    assert run(*args) == 2
    assert "rerun with --project" in capsys.readouterr().err
    assert run(*args, "--project") == 0
    pre = json.loads((out / "preprocessing.json").read_text())
    assert pre["projected"] is True
    assert 0.0 < pre["max_violation"] <= pre["threshold"]


def test_casestudy_large_violation_always_fails(obs_files, tmp_path, capsys):
    out = tmp_path / "cs"
    args = casestudy_args(obs_files["y"], obs_files["x"], out)
    assert run(*args) == 2
    assert run(*args, "--project") == 2
    assert "exceeds threshold" in capsys.readouterr().err


def test_casestudy_rvar_requires_q_before_any_output(obs_files, tmp_path, capsys):
    out = tmp_path / "cs"
    args = casestudy_args(obs_files["x"], obs_files["y"], out)
    assert run(*args, "--measure", "rvar") == 2
    assert "requires --q" in capsys.readouterr().err
    assert not out.exists()


def test_casestudy_explicit_threshold(obs_files, tmp_path):
    out = tmp_path / "cs"
    args = casestudy_args(obs_files["x"], obs_files["near"], out)
    assert run(*args, "--project", "--max-violation", "0") == 2

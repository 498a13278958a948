"""Tests of the benchmark harness itself (not of ordrisk).

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import inspect

import ordrisk._search
import ordrisk.bounds
import ordrisk.cli
import ordrisk.coupling
import ordrisk.dist
import pytest

import run
import worker
import workloads

MODULES = (ordrisk.bounds, ordrisk.cli, ordrisk.coupling, ordrisk.dist, ordrisk._search)


def _cheap(ops, families, k=2):
    picked = []
    for fam in families:
        picked += [op for op in ops if op["family"] == fam][:k]
    return picked


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload, tmp_path):
    root = str(tmp_path)
    a = workloads.make_ops(workload, 3, root)
    assert a == workloads.make_ops(workload, 3, root)
    assert a != workloads.make_ops(workload, 4, root)


def test_seed_fixes_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for workload, families in (
        ("var_curves", ["table1"]),
        ("plan_jobs", ["es_uniform", "casestudy_es", "sample_dl"]),
    ):
        digests = []
        for _ in range(2):
            ops = _cheap(workloads.make_ops(workload, 5, "out"), families)
            r = worker.Run(workload, ops)
            for i in range(len(ops)):
                r.execute(i)
            assert r.failed == 0, r.failures
            digests.append(workloads.digest(r.texts))
        assert digests[0] == digests[1]


def _snapshot():
    owners = list(MODULES)
    owners += [c for c in vars(ordrisk.dist).values() if inspect.isclass(c)]
    owners.append(ordrisk.coupling.TransportEvaluator)
    return {owner: dict(vars(owner)) for owner in owners}


def test_traced_pass_restores_every_attribute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _snapshot()
    for workload, families in (("var_curves", ["table1"]), ("plan_jobs", ["es_uniform", "casestudy_var"])):
        ops = _cheap(workloads.make_ops(workload, 1, "out"), families, k=1)
        r = worker.Run(workload, ops)
        times, tr = worker._measure(r, 0.0, trace=True)
        assert tr is not None and all(len(t) == 1 for t in times[True])
        layer = tr.metrics()
        assert layer["bounds.report.calls"] >= 1 and layer["dist.cdf.calls"] > 0
    after = _snapshot()
    for owner, attrs in before.items():
        assert set(after[owner]) == set(attrs), owner
        for name, obj in attrs.items():
            assert after[owner][name] is obj, f"{owner}.{name} was not restored"


def test_untraced_pass_patches_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _snapshot()
    ops = _cheap(workloads.make_ops("var_curves", 1, "out"), ["table1"], k=1)
    times, tr = worker._measure(worker.Run("var_curves", ops), 0.0, trace=False)
    assert tr is None and times[True] == [[]]
    assert all(_snapshot()[o][n] is v for o, attrs in before.items() for n, v in attrs.items())


def test_wrong_value_is_a_failed_op(tmp_path, monkeypatch):
    ops = _cheap(workloads.make_ops("var_curves", 2, str(tmp_path)), ["pareto_1_2"], k=1)
    original = ordrisk.bounds.bound_report

    def skewed(*args, **kwargs):
        rep = original(*args, **kwargs)
        return dataclasses.replace(rep, constrained_worst=rep.constrained_worst * 1.01)

    monkeypatch.setattr(ordrisk.bounds, "bound_report", skewed)
    r = worker.Run("var_curves", ops)
    r.execute(0)
    assert (r.attempted, r.failed, r.wrong_ops) == (1, 1, 1)
    assert r.failures[0]["inputs"] == ops[0]
    assert any("misses 4/(1-p)" in p for p in r.failures[0]["problems"])


def test_refusal_is_failed_but_not_wrong(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = _cheap(workloads.make_ops("plan_jobs", 1, "out"), ["es_uniform"], k=1)
    ops[0]["argv"] = ops[0]["argv"] + ["--grid-n", "10"]  # below the CLI minimum
    r = worker.Run("plan_jobs", ops)
    r.execute(0)
    r.execute(0)  # a repetition does not count the op twice
    assert (r.attempted, r.failed, r.wrong_ops) == (1, 1, 0)
    assert r.failures[0]["problems"][0].startswith("exit 2")


def test_run_refuses_a_directory_without_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "var_curves", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""

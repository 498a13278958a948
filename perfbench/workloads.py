"""Seeded inputs, operations and correctness gates of the three workloads.

Every workload is a list of ops built from ``--seed`` alone. An op is a
JSON-ready dict naming its inputs, so a failing op can be logged and
replayed. ``op_calls`` gives the library calls of one op through the
public entry points, looking each function up at call time so the tracer
can see it;
``check_op`` returns the problems found in its result (empty when it
passes); ``result_text`` renders a result with ``.12g`` digits for the
output digest.

var_curves  one ``bound_report(f, g, "var", p=...)`` per op, as
            scripts/run_table1.py calls it: the continuous transport route
            (tail laws, a TransportEvaluator build, the upper_many scan and
            the golden refinement). It builds no discrete plan.
prob_grid   one threshold row per op, the four bounds on P(S <= t) as
            ``ordrisk probbounds`` computes them: 88 VaR solves on one pair
            at nearby levels, the workload with the most shared work.
plan_jobs   one in-process ``ordrisk.cli.entry(argv)`` per op: the discrete
            plan route plus the order gate, projection, bootstrap and the
            CSV/JSON writers. It builds no TransportEvaluator, so it is the
            control for transport changes and the target for plan changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import ordrisk.bounds
import ordrisk.cli
import ordrisk.dist
import ordrisk.oracle

WORKLOADS = ("var_curves", "prob_grid", "plan_jobs")

# Acceptance tolerances of tests/test_acceptance.py (criteria 3, 5 and 8)
# and the CLI's probability nesting tolerance.
VAR_REL_TOL = 1e-3
PROB_ABS_TOL = 1e-3
PROB_NEST_TOL = 1e-4
RA_N = 100_000

_LEVELS_PER_PAIR = 10
_NORMAL_LEVELS = 20


# ---------------------------------------------------------------------------
# input generation


def _r(x, digits=6):
    return round(float(x), digits)


def _uniform_pair(rng):
    """An ordered uniform pair: lo and hi of G at or above those of F."""
    a = _r(rng.uniform(0.0, 10.0), 4)
    w = _r(rng.uniform(50.0, 100.0), 4)
    c = _r(a + rng.uniform(0.0, 20.0), 4)
    d = _r(a + w + rng.uniform(5.0, 40.0), 4)
    return ["uniform", a, _r(a + w, 4)], ["uniform", c, d]


def _pareto_pair(rng, shape_lo, shape_hi):
    """An ordered Pareto pair with a shared shape (G has the larger scale)."""
    shape = _r(rng.uniform(shape_lo, shape_hi), 4)
    s1 = _r(rng.uniform(1.0, 5.0), 4)
    s2 = _r(s1 * rng.uniform(1.1, 1.6), 4)
    return ["pareto", s1, shape], ["pareto", s2, shape]


def _levels(rng, k):
    return [_r(p) for p in rng.uniform(0.90, 0.995, k)]


def _var_curves(rng):
    pairs = [("table1", ["uniform", 0.0, 100.0], ["uniform", 0.0, hi]) for hi in (120.0, 140.0, 160.0)]
    pairs += [("table1", ["pareto", 25.0, 2.0], ["pareto", sc, 2.0]) for sc in (30.0, 35.0, 40.0)]
    pairs.append(("pareto_1_2", ["pareto", 1.0, 1.0], ["pareto", 2.0, 1.0]))
    mean, sd = _r(rng.uniform(-1.0, 1.0), 4), _r(rng.uniform(0.5, 2.0), 4)
    shift = _r(sd * rng.uniform(0.1, 1.0), 4)
    normal = ("normal_shift", ["normal", mean, sd], ["normal", _r(mean + shift, 4), sd])
    pairs.append(("pareto_shared", *_pareto_pair(rng, 1.5, 3.0)))
    ops = []
    for family, f, g in pairs:
        for p in _levels(rng, _LEVELS_PER_PAIR):
            ops.append({"family": family, "f": f, "g": g, "p": p})
    for p in _levels(rng, _NORMAL_LEVELS):
        ops.append({"family": normal[0], "f": normal[1], "g": normal[2], "p": p})
    return ops


def _prob_grid(rng):
    # Thresholds start at 6 rather than 4.5: below the unconstrained
    # worst ess-inf 3 + 2 sqrt(2) the m column returns 0 at once, and the
    # work per row (88 VaR solves) would then depend on the seed.
    # For the uniform pair, t lies between the countermonotone sums a+d and
    # b+c, where none of the four bounds is 0 or 1 and every bisection runs.
    f, g = _uniform_pair(rng)
    lo, hi = sorted((f[1] + g[2], f[2] + g[1]))
    ops = [{"family": "uniform_seed", "f": f, "g": g, "t": _r(lo + (hi - lo) * rng.uniform(0.25, 0.75), 4)}]
    t = _r(rng.uniform(6.0, 16.0), 4)
    ops.append({"family": "pareto_1_2", "f": ["pareto", 1.0, 1.0], "g": ["pareto", 2.0, 1.0], "t": t})
    return ops


def _spec(d):
    return f"{d[0]}:{d[1]:.12g},{d[2]:.12g}"


def _short_grid(rng):
    p_from = _r(rng.uniform(0.90, 0.95), 4)
    return p_from, _r(p_from + 0.04, 4), 0.02


def _bounds_argv(rng, measure, f, g):
    p_from, p_to, step = _short_grid(rng)
    argv = ["bounds", "--margF", _spec(f), "--margG", _spec(g), "--measure", measure]
    argv += ["--p-from", f"{p_from:g}", "--p-to", f"{p_to:g}", "--p-step", f"{step:g}"]
    if measure == "rvar":
        argv += ["--q", f"{_r(rng.uniform(max(p_to + 0.003, 0.99), 0.999), 4):g}"]
    return argv


def _observations(rng, n=200):
    """X and Y observations whose bootstrap totals are nearly ordered."""
    mu, sigma = rng.uniform(0.0, 1.0), rng.uniform(0.3, 0.6)
    base = rng.lognormal(mu, sigma, n)
    x = base * rng.uniform(0.9, 1.1, n)
    y = base * rng.uniform(0.96, 1.12, n)
    return [_r(v) for v in x], [_r(v) for v in y]


def _plan_jobs(rng):
    """CLI jobs: (family, argv without --out, observation files to write)."""
    jobs = []
    # The counts keep the median op inside the class of ~30 ms jobs (es,
    # casestudy es, sample) rather than on its border with the ~50 ms class,
    # where op_p50_ms would jump between the two from seed to seed.
    for measure, count in (("es", 15), ("rvar", 10)):
        for _ in range(count):
            jobs.append((f"{measure}_pareto_light", _bounds_argv(rng, measure, *_pareto_pair(rng, 2.5, 4.0)), None))
        for _ in range(count):
            jobs.append((f"{measure}_pareto_heavy", _bounds_argv(rng, measure, *_pareto_pair(rng, 1.1, 2.0)), None))
        for _ in range(10):
            jobs.append((f"{measure}_uniform", _bounds_argv(rng, measure, *_uniform_pair(rng)), None))
    for measure, count in (("var", 8), ("es", 6), ("rvar", 6)):
        for _ in range(count):
            p_from, p_to, step = _short_grid(rng)
            argv = ["casestudy", "--groupX", "20", "--groupY", "20", "--replicates", "400"]
            argv += ["--seed", str(int(rng.integers(0, 2**31))), "--project", "--measure", measure]
            argv += ["--p-from", f"{p_from:g}", "--p-to", f"{p_to:g}", "--p-step", f"{step:g}"]
            if measure == "rvar":
                argv += ["--q", "0.999"]
            jobs.append((f"casestudy_{measure}", argv, _observations(rng)))
    for _ in range(20):
        f, g = _uniform_pair(rng)
        argv = ["sample", "--margF", _spec(f), "--margG", _spec(g), "--kind", "dl"]
        argv += ["--size", "10000", "--seed", str(int(rng.integers(0, 2**31))), "--jitter"]
        jobs.append(("sample_dl", argv, None))
    return jobs


def make_ops(workload: str, seed: int, out_root: str) -> list[dict]:
    """The workload's op list for ``seed``; plan_jobs also writes its CSV inputs."""
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    if workload == "var_curves":
        return _var_curves(rng)
    if workload == "prob_grid":
        return _prob_grid(rng)
    if workload != "plan_jobs":
        raise ValueError(f"unknown workload {workload!r}")
    inputs = os.path.join(out_root, "plan_jobs", "inputs")
    os.makedirs(inputs, exist_ok=True)
    ops = []
    for k, (family, argv, obs) in enumerate(_plan_jobs(rng)):
        out_dir = os.path.join(out_root, "plan_jobs", f"op{k:03d}")
        if obs is not None:
            paths = [os.path.join(inputs, f"op{k:03d}_{side}.csv") for side in "xy"]
            for path, values in zip(paths, obs):
                with open(path, "w") as fh:
                    fh.write("value\n")
                    fh.writelines(f"{v:.6f}\n" for v in values)
            argv = argv + ["--obsX", paths[0], "--obsY", paths[1]]
        ops.append({"family": family, "argv": argv + ["--out", out_dir], "out": out_dir})
    return ops


def describe(ops: list[dict]) -> dict:
    """Input properties of an op list, for the benchmark record."""
    fams = {}
    for op in ops:
        fam = fams.setdefault(op["family"], {"ops": 0})
        fam["ops"] += 1
        if "argv" in op:
            fam.setdefault("command", op["argv"][0])
        else:
            fam["f"], fam["g"] = op["f"], op["g"]
            key = "levels" if "p" in op else "thresholds"
            fam.setdefault(key, []).append(op.get("p", op.get("t")))
    return {"ops": len(ops), "families": fams}


# ---------------------------------------------------------------------------
# execution


def _dist(spec):
    kind, a, b = spec
    cls = {"pareto": ordrisk.dist.Pareto, "uniform": ordrisk.dist.Uniform, "normal": ordrisk.dist.Normal}[kind]
    return cls(a, b)


def prepare(workload: str, ops: list[dict]) -> list:
    """Per-op arguments built once, outside the timed region."""
    if workload == "plan_jobs":
        return [None] * len(ops)
    return [(_dist(op["f"]), _dist(op["g"])) for op in ops]


def op_calls(workload: str, op: dict, args) -> list:
    """The op as the list of library calls it makes, to be timed one by one."""
    if workload == "var_curves":
        f, g = args

        def report():
            rep = ordrisk.bounds.bound_report(f, g, "var", p=op["p"])
            return (rep.unconstrained_best, rep.constrained_best, rep.constrained_worst, rep.unconstrained_worst)

        return [report]
    if workload == "prob_grid":
        b = ordrisk.bounds
        names = ("prob_lower_unconstrained", "prob_lower", "prob_upper", "prob_upper_unconstrained")
        return [lambda name=name: getattr(b, name)(*args, op["t"]) for name in names]
    return [lambda: _cli(op)]


def combine(results: list):
    """An op's result from the results of its calls."""
    return results[0] if len(results) == 1 else tuple(results)


def run_op(workload: str, op: dict, args):
    """Execute one op and return its result."""
    return combine([call() for call in op_calls(workload, op, args)])


def _cli(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = ordrisk.cli.entry(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    files = {}
    if rc == 0:
        for name in sorted(os.listdir(op["out"])):
            with open(os.path.join(op["out"], name), "rb") as fh:
                files[name] = fh.read()
    return (rc, buf.getvalue(), files)


def result_text(workload: str, result) -> str:
    """A result rendered with ``.12g`` digits; the output digest hashes these."""
    if workload != "plan_jobs":
        return ",".join(f"{float(v):.12g}" for v in result)
    rc, _, files = result
    parts = [f"rc={rc}"]
    parts += [f"{name}:{hashlib.sha256(data).hexdigest()}" for name, data in files.items()]
    return ",".join(parts)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness gates


def _nest_problems(vals, tol=0.0):
    if any(math.isnan(v) for v in vals):
        return ["NaN in result"]
    l, lo, uo, u = vals
    if not (l <= lo + tol and lo <= uo + tol and uo <= u + tol):
        return [f"bounds do not nest: {vals}"]
    return []


def _rel(a, b):
    return abs(a - b) / abs(b)


def _check_var(op, vals, args):
    problems = _nest_problems(vals)
    if problems:
        return problems
    f, g = args
    p = op["p"]
    if op["family"] == "pareto_1_2":
        if _rel(vals[2], 4.0 / (1.0 - p)) > VAR_REL_TOL:
            problems.append(f"worst VaR {vals[2]!r} misses 4/(1-p)")
        if _rel(vals[1], 1.0 + 2.0 / (1.0 - p)) > VAR_REL_TOL:
            problems.append(f"best VaR {vals[1]!r} misses 1+2/(1-p)")
    trunc = ordrisk.dist.DEFAULT_TRUNC
    spread = (f.quantile_left(trunc) - f.quantile_left(p)) + (g.quantile_left(trunc) - g.quantile_left(p))
    ra = ordrisk.oracle.ra_unconstrained_var(f, g, p, RA_N)
    if abs(vals[3] - ra) > 2.0 * spread / RA_N:
        problems.append(f"unconstrained worst VaR {vals[3]!r} misses rearrangement value {ra!r}")
    return problems


def _check_prob(op, vals):
    problems = _nest_problems(vals, PROB_NEST_TOL)
    if problems or op["family"] != "pareto_1_2":
        return problems
    t = op["t"]
    if abs(vals[1] - max(0.0, 1.0 - 4.0 / t)) > PROB_ABS_TOL:
        problems.append(f"mo {vals[1]!r} misses 1-4/t")
    if abs(vals[2] - max(0.0, 1.0 - 2.0 / (t - 1.0))) > PROB_ABS_TOL:
        problems.append(f"Mo {vals[2]!r} misses 1-2/(t-1)")
    return problems


def _csv_rows(data: bytes):
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _num(cell):
    return float(cell) if cell != "" else math.nan


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_cli(op, result):
    rc, output, files = result
    if rc != 0:
        return [f"exit {rc}: {output.strip().splitlines()[-1] if output.strip() else ''}"]
    argv = op["argv"]
    problems = []
    if argv[0] == "sample":
        rows = _csv_rows(files["samples.csv"])
        size = int(_argv_value(argv, "--size"))
        if len(rows) != size:
            problems.append(f"{len(rows)} sample rows, expected {size}")
        xy = np.array([[float(r["x"]), float(r["y"])] for r in rows])
        if np.isnan(xy).any() or np.any(xy[:, 0] > xy[:, 1]):
            problems.append("sample pair with x > y or NaN")
        meta = json.loads(files["samples.json"])
        if meta != {"kind": "dl", "seed": int(_argv_value(argv, "--seed")), "size": size}:
            problems.append(f"sidecar {meta} does not match the command")
        return problems
    for row in _csv_rows(files["curve.csv"]):
        vals = [_num(row[k]) for k in ("L", "Lo", "Uo", "U")]
        problems += _nest_problems(vals)
        if argv[0] == "bounds" and _argv_value(argv, "--measure") == "es":
            p = float(row["p"])
            f = ordrisk.cli.parse_marginal(_argv_value(argv, "--margF"))
            g = ordrisk.cli.parse_marginal(_argv_value(argv, "--margG"))
            es = ordrisk.dist.es_eval(f, p) + ordrisk.dist.es_eval(g, p)
            if float(f"{es:.12g}") != vals[3]:
                problems.append(f"worst ES {vals[3]!r} at p={p} is not ES_p(F)+ES_p(G)={es!r}")
    return problems


def check_op(workload: str, op: dict, result, args) -> list[str]:
    """Problems in one op's result; an empty list means the op passed."""
    if workload == "var_curves":
        return _check_var(op, [float(v) for v in result], args)
    if workload == "prob_grid":
        return _check_prob(op, [float(v) for v in result])
    return _check_cli(op, result)

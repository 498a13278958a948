"""Batch command-line pipelines over the bounds and coupling layers.

Subcommands
-----------
bounds       best/worst curves of one risk measure over a level grid
probbounds   probability bound columns over a threshold grid
sample       coupled pairs under a chosen dependence, as CSV
casestudy    bootstrap totals from two observation files, order repair,
             then the bounds pipeline
selftest     analytic oracle checks; nonzero exit on any failure

Every flag is checked before any marginal is parsed, any input file is
read or any output is written. Exit codes: 0 success, 2 precondition or
order failure, 3 I/O failure, 4 selftest failure. All outputs are
deterministic for fixed flags and seed. Infinite values are written as
``inf``/``-inf`` in CSV and as the strings ``"inf"``/``"-inf"`` in JSON;
undefined cells are empty in CSV and ``null`` in JSON. The parser is built
once per process. The order gate's check and the plans and sums of the run
are built once per pair in ``dist._per_pair``, and every bound reuses them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .bounds import (
    _sum_law,
    best_var_constrained,
    bound_report,
    ct_sum_var,
    dl_sum_var,
    prob_lower,
    prob_lower_unconstrained,  # unused here; perfbench/tracer.py patches this name
    prob_upper,
    prob_upper_unconstrained,  # unused here; perfbench/tracer.py patches this name
    worst_ess_inf_constrained,
    worst_ess_inf_unconstrained,
    worst_var_constrained,
)
from .coupling import (
    COUPLING_KINDS,
    _order_report,
    dl_plan_discrete,  # unused here; perfbench/tracer.py patches this name
    export_batch_csv,
    sample_coupling,
)
from .dist import (
    DEFAULT_GRID_N,
    Dist,
    Normal,
    Pareto,
    Uniform,
    _check_count,
    _check_level,
    _per_pair,
    _write_table,
    check_st,
    empirical_from_samples,
    isotonic_pair_projection,
    read_empirical_csv,
)
from .errors import (
    DegenerateSpreadError,
    DomainError,
    OrderViolationError,
    OrdriskError,
)

_MEASURES = ("var", "es", "rvar", "essinf", "esssup")


_GRID_CAP = 100_000  # points of a --p-step or --t-step grid


def _grid_size(lo: float, hi: float, step: float) -> int:
    """Points of ``_grid(lo, hi, step)``, counted before any is made; DomainError above ``_GRID_CAP``."""
    k = (hi - lo) / step + 1e-9  # the slack keeps ``hi`` despite rounding
    if not k < _GRID_CAP:
        raise DomainError(f"step {step:g} from {lo:g} to {hi:g} makes more than {_GRID_CAP} grid points")
    return math.floor(k) + 1


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """``lo, lo + step, ...`` up to ``hi``."""
    return lo + step * np.arange(_grid_size(lo, hi, step))


def _validate(args: argparse.Namespace) -> None:
    """Every flag check, each applied where the subcommand has the flag."""
    a = vars(args)
    for dest, value in a.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{dest.replace('_', '-')} must be a finite number")
    if "p_from" in a:
        if not (0.0 < args.p_from <= args.p_to < 1.0):
            raise DomainError("level grid must satisfy 0 < p_from <= p_to < 1")
        if args.p_step <= 0.0:
            raise DomainError("p step must be positive")
        _grid_size(args.p_from, args.p_to, args.p_step)
    counts = {"grid_n": 100, "replicates": 1, "size": 1, "seed": 0, "group_x": 1, "group_y": 1}
    for dest, least in counts.items():
        if dest in a:
            _check_count(a[dest], dest, least)
    q = a.get("q")
    if q is not None:
        _check_level(q, name="q")
    if "t_step" in a:
        if args.t_step <= 0.0:
            raise DomainError("t step must be positive")
        if args.t_from > args.t_to:
            raise DomainError("threshold grid must satisfy t_from <= t_to")
        _grid_size(args.t_from, args.t_to, args.t_step)
    mv = a.get("max_violation")
    if mv is not None and mv < 0.0:
        raise DomainError("violation threshold must be nonnegative")
    if a.get("measure") == "rvar":
        if q is None:
            raise DomainError("measure rvar requires --q")
        if q <= args.p_to:
            raise DomainError("q must exceed the top of the level grid")
    elif q is not None:
        raise DomainError("--q is read by --measure rvar only")
    if a.get("jitter") and args.kind != "dl":
        raise DomainError("--jitter is read by --kind dl only")


def parse_marginal(spec: str) -> Dist:
    """Build a distribution from ``kind:args`` notation.

    Kinds: ``pareto:scale,shape``, ``uniform:lo,hi``, ``normal:mean,sd``,
    ``csv:path`` (one ``value`` column with optional ``weight``).
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise DomainError(f"marginal spec {spec!r} needs kind:args")
    if kind == "csv":
        return read_empirical_csv(rest)
    try:
        args = [float(tok) for tok in rest.split(",")]
    except ValueError:
        raise DomainError(f"bad numeric arguments in marginal spec {spec!r}") from None
    if kind == "pareto" and len(args) == 2:
        return Pareto(args[0], args[1])
    if kind == "uniform" and len(args) == 2:
        return Uniform(args[0], args[1])
    if kind == "normal" and len(args) == 2:
        return Normal(args[0], args[1])
    raise DomainError(f"unknown marginal spec {spec!r}")


def _write_csv(path, header, rows) -> None:
    cells = [["" if row[j] is None else f"{float(row[j]):.12g}" for row in rows] for j in range(len(header))]
    _write_table(path, header, cells)
    print(f"wrote {path}")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _project(f: Dist, g: Dist):
    """Isotonic repair of an empirical pair; the result must hold the order exactly."""
    f, g = isotonic_pair_projection(f, g)
    if not check_st(f, g, tol=0.0).holds:
        raise OrdriskError("isotonic projection left an order violation")
    return f, g


def _gate(f: Dist, g: Dist, args: argparse.Namespace, limit: float | None = None):
    """The one order gate: ``(f, g, report, projected)`` for a pair that holds F <= G.

    A violation above ``limit`` is refused; a pair that then fails the check is
    repaired when ``--project`` is set (``projected``), or refused.
    """
    rep = _order_report(f, g)
    mv = rep.max_violation
    if limit is not None and mv > limit:
        print(f"max violation {mv:.6g} exceeds threshold {limit:.6g}", file=sys.stderr)
        raise OrderViolationError(rep)
    if not rep.holds:
        if not args.project:
            print(
                f"order check failed (max violation {mv:.6g}); --project repairs "
                "empirical or grid marginals, so rerun with --project",
                file=sys.stderr,
            )
            raise OrderViolationError(rep)
        f, g = _project(f, g)
    bound = "" if limit is None else f" (threshold {limit:.6g})"
    print(f"order check: max violation {mv:.6g}{bound}")
    return f, g, rep, not rep.holds


def _nested(r):
    """A report's four bounds in their nesting order L, Lo, Uo, U."""
    return r.unconstrained_best, r.constrained_best, r.constrained_worst, r.unconstrained_worst


def _emit_bound_outputs(f: Dist, g: Dist, args: argparse.Namespace, preprocessing=None) -> None:
    """Curve CSV, per-level coupling VaRs and JSON reports for one pair.

    Every row is computed before any file is written, so a failing bound
    leaves no partial output; ``preprocessing`` (casestudy's record) goes first.
    """
    ps = [float(p) for p in np.round(_grid(args.p_from, args.p_to, args.p_step), 12)]
    reports = [bound_report(f, g, args.measure, p=p, q=args.q, grid_n=args.grid_n) for p in ps]
    n = args.grid_n
    crows = [(p, dl_sum_var(f, g, p, grid_n=n), ct_sum_var(f, g, p, grid_n=n)) for p in ps]
    rows = [(r.p, *_nested(r), r.r) for r in reports]
    d = args.out_dir
    os.makedirs(d, exist_ok=True)
    if preprocessing is not None:
        _write_json(os.path.join(d, "preprocessing.json"), preprocessing)
    _write_csv(os.path.join(d, "curve.csv"), ["p", "L", "Lo", "Uo", "U", "R"], rows)
    _write_csv(os.path.join(d, "couplings.csv"), ["p", "var_dl", "var_ct"], crows)
    _write_json(os.path.join(d, "reports.json"), [r.to_json_dict() for r in reports])


def cmd_bounds(args: argparse.Namespace) -> int:
    f, g, *_ = _gate(parse_marginal(args.marg_f), parse_marginal(args.marg_g), args)
    _emit_bound_outputs(f, g, args)
    return 0


def cmd_probbounds(args: argparse.Namespace) -> int:
    f, g, *_ = _gate(parse_marginal(args.marg_f), parse_marginal(args.marg_g), args)
    dl, ct = (_per_pair(_sum_law, f, g, args.grid_n, 0.0, 1.0, o) for o in (True, False))
    rows = []
    for t in _grid(args.t_from, args.t_to, args.t_step):
        r = bound_report(f, g, "prob", t=float(t), grid_n=args.grid_n)
        m, mo, big_mo, big_m = _nested(r)
        rows.append((r.t, m, mo, big_mo, big_m, dl.cdf(r.t), ct.cdf(r.t)))
    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(args.out_dir, "probbounds.csv"),
        ["t", "m", "mo", "Mo", "M", "prob_dl", "prob_ct"],
        rows,
    )
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    f = parse_marginal(args.marg_f)
    g = parse_marginal(args.marg_g)
    batch = sample_coupling(
        f,
        g,
        args.kind,
        args.size,
        args.seed,
        jitter=args.jitter,
        plan_n=args.grid_n,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "samples.csv")
    export_batch_csv(batch, csv_path, os.path.join(args.out_dir, "samples.json"))
    print(f"wrote {csv_path}")
    return 0


def _bootstrap_totals(rng, d, group: int, replicates: int) -> np.ndarray:
    w = d.weights
    if np.all(w == w[0]):  # equal weights: the uniform draw
        w = None
    draws = rng.choice(d.values, size=(replicates, group), replace=True, p=w)
    return draws.sum(axis=1)


def cmd_casestudy(args: argparse.Namespace) -> int:
    obs_x = read_empirical_csv(args.obs_x)
    obs_y = read_empirical_csv(args.obs_y)
    rng = np.random.default_rng(args.seed)
    tot_x = _bootstrap_totals(rng, obs_x, args.group_x, args.replicates)
    tot_y = _bootstrap_totals(rng, obs_y, args.group_y, args.replicates)
    if np.unique(tot_x).size < 2 or np.unique(tot_y).size < 2:
        raise DegenerateSpreadError("bootstrap totals are degenerate")
    fhat = empirical_from_samples(tot_x)
    ghat = empirical_from_samples(tot_y)

    thr = args.max_violation if args.max_violation is not None else 2.0 / math.sqrt(args.replicates)
    fhat, ghat, rep, projected = _gate(fhat, ghat, args, thr)
    preprocessing = {
        "obs_x": str(args.obs_x),
        "obs_y": str(args.obs_y),
        "group_x": args.group_x,
        "group_y": args.group_y,
        "replicates": args.replicates,
        "seed": args.seed,
        "max_violation": rep.max_violation,
        "witness": rep.witness,
        "threshold": thr,
        "projected": projected,
    }
    _emit_bound_outputs(fhat, ghat, args, preprocessing)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Pareto-pair oracle values with analytic expectations."""
    f, g = Pareto(1.0, 1.0), Pareto(2.0, 1.0)
    checks = [
        (
            "worst ess-inf (constrained)",
            worst_ess_inf_constrained(f, g),
            4.0,
            1e-9,
        ),
        (
            "worst ess-inf (unconstrained)",
            worst_ess_inf_unconstrained(f, g),
            3.0 + 2.0 * math.sqrt(2.0),
            1e-6,
        ),
        (
            "worst VaR at p=0.5",
            worst_var_constrained(f, g, 0.5),
            8.0,
            1e-6,
        ),
        (
            "best VaR at p=0.5",
            best_var_constrained(f, g, 0.5),
            5.0,
            1e-3,
        ),
        (
            "prob lower (mo) at t=8",
            prob_lower(f, g, 8.0),
            0.5,
            1e-3,
        ),
        (
            "prob upper (Mo) at t=5",
            prob_upper(f, g, 5.0),
            0.5,
            1e-3,
        ),
    ]
    width = max(len(name) for name, *_ in checks)
    failed = 0
    for name, value, expected, tol in checks:
        err = abs(value - expected)
        ok = err <= tol
        failed += 0 if ok else 1
        print(
            f"{name:<{width}}  value {value:<22.12g} expected {expected:<22.12g}"
            f" err {err:<12.3g} tol {tol:<8.0e} {'pass' if ok else 'FAIL'}"
        )
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 4
    print(f"all {len(checks)} checks passed")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    marg = argparse.ArgumentParser(add_help=False)
    marg.add_argument(
        "--margF",
        dest="marg_f",
        required=True,
        metavar="SPEC",
        help="pareto:scale,shape | uniform:lo,hi | normal:mean,sd | csv:path",
    )
    marg.add_argument("--margG", dest="marg_g", required=True, metavar="SPEC")

    num = argparse.ArgumentParser(add_help=False)
    num.add_argument("--grid-n", dest="grid_n", type=int, default=DEFAULT_GRID_N)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", dest="out_dir", default=".", metavar="DIR")

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--p-from", dest="p_from", type=float, default=0.900)
    levels.add_argument("--p-to", dest="p_to", type=float, default=0.995)
    levels.add_argument("--p-step", dest="p_step", type=float, default=0.005)

    meas = argparse.ArgumentParser(add_help=False)
    meas.add_argument("--measure", choices=_MEASURES, default="var")
    meas.add_argument("--q", type=float, default=None, help="upper level for rvar")

    proj = argparse.ArgumentParser(add_help=False)
    proj.add_argument("--project", action="store_true")

    top = argparse.ArgumentParser(
        prog="ordrisk",
        description="risk bounds for ordered sums with known marginals",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bounds",
        parents=[marg, levels, num, io, meas, proj],
        help="bound curves over a level grid",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "probbounds",
        parents=[marg, num, io, proj],
        help="probability bounds over a threshold grid",
    )
    p.add_argument("--t-from", dest="t_from", type=float, required=True)
    p.add_argument("--t-to", dest="t_to", type=float, required=True)
    p.add_argument("--t-step", dest="t_step", type=float, required=True)
    p.set_defaults(func=cmd_probbounds)

    p = sub.add_parser(
        "sample",
        parents=[marg, num, io, seed],
        help="draw coupled pairs to CSV",
    )
    p.add_argument("--kind", choices=COUPLING_KINDS, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--jitter", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "casestudy",
        parents=[levels, num, io, seed, meas, proj],
        help="bootstrap two observation files into bound curves",
    )
    p.add_argument("--obsX", dest="obs_x", required=True, metavar="CSV")
    p.add_argument("--obsY", dest="obs_y", required=True, metavar="CSV")
    p.add_argument("--groupX", dest="group_x", type=int, required=True)
    p.add_argument("--groupY", dest="group_y", type=int, required=True)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument(
        "--max-violation", dest="max_violation", type=float, default=None
    )
    p.set_defaults(func=cmd_casestudy)

    p = sub.add_parser("selftest", help="analytic oracle checks")
    p.set_defaults(func=cmd_selftest)
    return top


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return int(args.func(args))
    except OrdriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())

"""Bound curves for the six benchmark marginal pairs.

Writes one long-format CSV: family, g_param, p, L, Lo, Uo, U, R.
L/U are the unconstrained best/worst VaR of the sum, Lo/Uo the
order-constrained ones, R the spread reduction.
"""

import argparse
import csv
import sys

import numpy as np

from ordrisk.bounds import bound_report
from ordrisk.dist import Pareto, Uniform


def pairs():
    for hi in (120.0, 140.0, 160.0):
        yield "uniform", hi, Uniform(0.0, 100.0), Uniform(0.0, hi)
    for scale in (30.0, 35.0, 40.0):
        yield "pareto", scale, Pareto(25.0, 2.0), Pareto(scale, 2.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p-from", type=float, default=0.900)
    ap.add_argument("--p-to", type=float, default=0.995)
    ap.add_argument("--p-step", type=float, default=0.005)
    ap.add_argument("--out", default="table1_curves.csv")
    args = ap.parse_args(argv)

    count = int(round((args.p_to - args.p_from) / args.p_step))
    ps = np.linspace(args.p_from, args.p_to, count + 1)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "g_param", "p", "L", "Lo", "Uo", "U", "R"])
        for family, gp, f, g in pairs():
            rs = []
            for p in ps:
                rep = bound_report(f, g, "var", p=float(p))
                rs.append(rep.r)
                writer.writerow(
                    [
                        family,
                        f"{gp:g}",
                        f"{p:.6g}",
                        f"{rep.unconstrained_best:.10g}",
                        f"{rep.constrained_best:.10g}",
                        f"{rep.constrained_worst:.10g}",
                        f"{rep.unconstrained_worst:.10g}",
                        f"{rep.r:.6g}",
                    ]
                )
            print(
                f"{family} G={gp:g}: R from {rs[0]:.3f} at p={ps[0]:g} "
                f"to {rs[-1]:.3f} at p={ps[-1]:g}"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

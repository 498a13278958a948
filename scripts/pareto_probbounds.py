"""Probability bound curves for the benchmark Pareto pair.

For S = X + Y with X ~ Pareto(1,1), Y ~ Pareto(2,1) and X <= Y, tabulates
the four bounds on P(S <= t) over a threshold grid next to the two
analytic curves 1 - 4/t (lower, ordered) and 1 - 2/(t-1) (upper, ordered)
plus the probabilities under the two reference couplings.
"""

import argparse
import csv
import sys

import numpy as np

from ordrisk.bounds import (
    ct_sum_cdf,
    prob_lower,
    prob_lower_unconstrained,
    prob_upper,
    prob_upper_unconstrained,
)
from ordrisk.coupling import dl_plan_discrete, dl_sum_cdf
from ordrisk.dist import Pareto


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-from", type=float, default=4.2)
    ap.add_argument("--t-to", type=float, default=16.0)
    ap.add_argument("--t-step", type=float, default=0.2)
    ap.add_argument("--grid-n", type=int, default=10_000)
    ap.add_argument("--out", default="pareto_probbounds.csv")
    args = ap.parse_args(argv)

    f, g = Pareto(1.0, 1.0), Pareto(2.0, 1.0)
    plan = dl_plan_discrete(f, g, args.grid_n, 0.0)
    count = int(round((args.t_to - args.t_from) / args.t_step))
    ts = np.linspace(args.t_from, args.t_to, count + 1)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "m", "mo", "Mo", "M", "mo_exact", "Mo_exact", "prob_dl", "prob_ct"]
        )
        for t in ts:
            t = float(t)
            row = [
                t,
                prob_lower_unconstrained(f, g, t),
                prob_lower(f, g, t),
                prob_upper(f, g, t),
                prob_upper_unconstrained(f, g, t),
                max(0.0, 1.0 - 4.0 / t),
                max(0.0, 1.0 - 2.0 / (t - 1.0)) if t > 1.0 else 0.0,
                dl_sum_cdf(plan, t),
                ct_sum_cdf(f, g, t, grid_n=args.grid_n),
            ]
            writer.writerow([f"{v:.8g}" for v in row])
    print(f"wrote {args.out} ({ts.size} thresholds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

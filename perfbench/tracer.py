"""Per-layer tracing of ordrisk from outside the library.

The tracer wraps the library's functions at the places where callers
look them up: ``bounds``, ``coupling`` and ``cli`` import by name, so a
function is patched in each of those module namespaces rather than where
it is defined. Methods (``Dist.cdf``, ``TransportEvaluator.upper_many``
and friends) are patched on their classes. Everything is restored by
``uninstall``; a tracer that is never installed patches nothing.

Calls between layers become spans (name, start, end, parent, op id),
kept in memory and written as JSONL once the run ends. The hot ``dist``
leaf calls (CDF and quantile evaluation) are too frequent for one span
each; they are aggregated into counters and time, and that time is
subtracted from the enclosing span so self times add up.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import ordrisk.bounds
import ordrisk.cli
import ordrisk.coupling
import ordrisk.dist

LAYERS = ("dist", "coupling", "search", "bounds", "cli")

# (module, attribute, span group). A group's layer is its first dotted part.
SPAN_SITES = (
    (ordrisk.bounds, "worst_var_constrained", "bounds.var_constrained"),
    (ordrisk.bounds, "best_var_constrained", "bounds.var_constrained"),
    (ordrisk.bounds, "worst_var_unconstrained", "bounds.var_unconstrained"),
    (ordrisk.bounds, "best_var_unconstrained", "bounds.var_unconstrained"),
    (ordrisk.bounds, "worst_es_constrained", "bounds.plan_route"),
    (ordrisk.bounds, "best_es_constrained", "bounds.plan_route"),
    (ordrisk.bounds, "best_es_unconstrained", "bounds.plan_route"),
    (ordrisk.bounds, "worst_rvar_constrained", "bounds.plan_route"),
    (ordrisk.bounds, "best_rvar_constrained", "bounds.plan_route"),
    (ordrisk.bounds, "worst_rvar_unconstrained", "bounds.plan_route"),
    (ordrisk.bounds, "best_rvar_unconstrained", "bounds.plan_route"),
    (ordrisk.bounds, "prob_lower", "bounds.prob"),
    (ordrisk.bounds, "prob_upper", "bounds.prob"),
    (ordrisk.bounds, "prob_lower_unconstrained", "bounds.prob"),
    (ordrisk.bounds, "prob_upper_unconstrained", "bounds.prob"),
    (ordrisk.bounds, "bound_report", "bounds.report"),
    (ordrisk.bounds, "refine_min", "search.refine"),
    (ordrisk.bounds, "refine_max", "search.refine"),
    (ordrisk.bounds, "dl_plan_discrete", "coupling.plan"),
    (ordrisk.bounds, "upper_tail", "dist.tail"),
    (ordrisk.bounds, "lower_tail", "dist.tail"),
    (ordrisk.bounds, "negate_dist", "dist.tail"),
    (ordrisk.coupling, "refine_min", "search.refine"),
    (ordrisk.coupling, "upper_tail", "dist.tail"),
    (ordrisk.coupling, "negate_dist", "dist.tail"),
    (ordrisk.coupling, "check_st", "dist.order_check"),
    (ordrisk.coupling, "dl_plan_discrete", "coupling.plan"),
    (ordrisk.dist, "negate_dist", "dist.tail"),
    (ordrisk.dist, "to_grid", "dist.tail"),
    (ordrisk.cli, "bound_report", "bounds.report"),
    (ordrisk.cli, "prob_lower", "bounds.prob"),
    (ordrisk.cli, "prob_upper", "bounds.prob"),
    (ordrisk.cli, "prob_lower_unconstrained", "bounds.prob"),
    (ordrisk.cli, "prob_upper_unconstrained", "bounds.prob"),
    (ordrisk.cli, "dl_plan_discrete", "coupling.plan"),
    (ordrisk.cli, "check_st", "dist.order_check"),
    (ordrisk.cli, "isotonic_pair_projection", "dist.projection"),
    (ordrisk.cli, "sample_coupling", "coupling.sample"),
    (ordrisk.cli, "export_batch_csv", "coupling.export"),
    (ordrisk.cli, "entry", "cli.entry"),
    (ordrisk.coupling.TransportEvaluator, "__init__", "coupling.evaluator"),
    (ordrisk.coupling.TransportEvaluator, "upper_many", "coupling.transport"),
)

_VAR_SOLVES = ("bounds.var_constrained", "bounds.var_unconstrained")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Work counts taken from a call's arguments, by span group.
_ARG_COUNTS = {
    "coupling.transport": ("coupling.transport.points", lambda a, k: np.size(_arg(a, k, 1, "xs"))),
    "coupling.plan": ("coupling.plan.pairs", lambda a, k: int(_arg(a, k, 2, "n"))),
    "coupling.sample": ("coupling.sample.draws", lambda a, k: int(_arg(a, k, 3, "size"))),
    "coupling.export": ("coupling.export.rows", lambda a, k: _arg(a, k, 0, "batch").size),
}


def leaf_sites():
    """(class, method, counter group) for every hot ``dist`` evaluation method."""
    sites = [
        (ordrisk.dist.Dist, "quantile_left", "dist.quantile"),
        (ordrisk.dist.Dist, "quantile_right", "dist.quantile"),
    ]
    for obj in vars(ordrisk.dist).values():
        if (
            isinstance(obj, type)
            and issubclass(obj, ordrisk.dist.Dist)
            and obj is not ordrisk.dist.Dist
            and "cdf" in obj.__dict__
        ):
            sites.append((obj, "cdf", "dist.cdf"))
    return sites


class Tracer:
    """Spans and counters for one traced pass over a workload's ops."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.op = None
        self.recording = False
        self._stack = []  # frames [span id, child seconds] of open spans
        self._next_id = 0
        self._prob_depth = 0
        self._prob_ops = set()
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        for owner, attr, group in SPAN_SITES:
            self._patch(owner, attr, self._span_wrapper(group, owner.__dict__[attr]))
        for owner, attr, group in leaf_sites():
            self._patch(owner, attr, self._leaf_wrapper(group, owner.__dict__[attr]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, group, original):
        tracer = self
        arg_count = _ARG_COUNTS.get(group)
        counts_evals = group == "search.refine"

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            tracer.counts[group + ".calls"] += 1
            if arg_count is not None:
                tracer.counts[arg_count[0]] += arg_count[1](args, kwargs)
            if counts_evals:
                args = (tracer._counted(args[0]),) + args[1:]
            if group in _VAR_SOLVES and tracer._prob_depth:
                tracer.counts["bounds.prob.var_solves"] += 1
            if group == "bounds.prob":
                tracer._prob_depth += 1
                tracer._prob_ops.add(tracer.op)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if group == "bounds.prob":
                    tracer._prob_depth -= 1
                if group == "cli.entry" and result != 0:
                    tracer.counts["cli.exit_nonzero"] += 1
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.self_s[group] += dur - frame[1]
                tracer.total_s[group] += dur
                tracer.spans.append(
                    (frame[0], group, start, end, None if parent is None else parent[0], tracer.op)
                )

        return wrapper

    def _leaf_wrapper(self, group, original):
        tracer = self

        def wrapper(obj, x, *args, **kwargs):
            if not tracer.recording:
                return original(obj, x, *args, **kwargs)
            start = time.perf_counter()
            try:
                return original(obj, x, *args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer.counts[group + ".calls"] += 1
                tracer.counts[group + ".points"] += np.size(x)
                tracer.self_s[group] += dur
                if tracer._stack:
                    tracer._stack[-1][1] += dur

        return wrapper

    def _counted(self, fn):
        tracer = self

        def counted(x):
            tracer.counts["search.refine.evals"] += 1
            return fn(x)

        return counted

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far, by metric name."""
        c, s = self.counts, self.self_s
        out = {}
        for group in ("dist.cdf", "dist.quantile"):
            out[group + ".calls"] = c[group + ".calls"]
            out[group + ".points"] = c[group + ".points"]
            out[group + ".self_s"] = s[group]
        calls = c["dist.cdf.calls"] + c["dist.quantile.calls"]
        points = c["dist.cdf.points"] + c["dist.quantile.points"]
        out["dist.points_per_call"] = points / calls if calls else 0.0
        for group in ("dist.tail", "dist.order_check"):
            out[group + ".calls"] = c[group + ".calls"]
            out[group + ".self_s"] = s[group]
        out["dist.projection.self_s"] = s["dist.projection"]
        out["coupling.evaluator.builds"] = c["coupling.evaluator.calls"]
        out["coupling.evaluator.build_s"] = self.total_s["coupling.evaluator"]
        out["coupling.transport.calls"] = c["coupling.transport.calls"]
        out["coupling.transport.points"] = c["coupling.transport.points"]
        out["coupling.transport.self_s"] = s["coupling.transport"]
        out["search.refine.calls"] = c["search.refine.calls"]
        out["search.refine.evals"] = c["search.refine.evals"]
        out["search.refine.self_s"] = s["search.refine"]
        out["coupling.plan.calls"] = c["coupling.plan.calls"]
        out["coupling.plan.pairs"] = c["coupling.plan.pairs"]
        out["coupling.plan.self_s"] = s["coupling.plan"]
        out["coupling.sample.draws"] = c["coupling.sample.draws"]
        out["coupling.sample.self_s"] = s["coupling.sample"]
        out["coupling.export.rows"] = c["coupling.export.rows"]
        out["coupling.export.self_s"] = s["coupling.export"]
        for group in (
            "bounds.var_constrained",
            "bounds.var_unconstrained",
            "bounds.plan_route",
            "bounds.prob",
            "bounds.report",
        ):
            out[group + ".calls"] = c[group + ".calls"]
            out[group + ".self_s"] = s[group]
        queries = len(self._prob_ops)
        out["bounds.prob.var_solves_per_query"] = (
            c["bounds.prob.var_solves"] / queries if queries else 0.0
        )
        out["cli.entry.calls"] = c["cli.entry.calls"]
        out["cli.entry.self_s"] = s["cli.entry"]
        out["cli.out.bytes"] = c["cli.out.bytes"]
        out["cli.exit_nonzero"] = c["cli.exit_nonzero"]
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                v for k, v in s.items() if k.split(".", 1)[0] == layer
            )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, group, start, end, parent, op in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": group,
                            "layer": group.split(".", 1)[0],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

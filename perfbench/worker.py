"""One benchmark process: set up a workload, then time or trace its ops.

Run by perfbench/run.py with ``src`` on PYTHONPATH; writes one JSON
result file. ``--setup-only`` stops after set-up, which is timed from
before the library import to the end of input generation.

Timing. The op list is repeated in passes until ``--seconds`` have
elapsed (and at least one whole pass ran). The host's speed is not
steady: other tenants slow each CPU by up to 1.8x, in spells from a
fraction of a second to more than a run, so the raw time of one
30-second run moves by a third from run to run. Before each library
call of an op the process is pinned to whichever CPU runs a fixed numpy
kernel (``probe``, about 1 ms, no ordrisk code) fastest at that moment,
and the probe is timed again after the call. Each call is scaled by
``REF_PROBE_S`` / (mean of its two probes): its time on a host where the
probe takes exactly 1 ms. (The 2-CPU Xeon the benchmark was defined on
takes 0.8 ms when idle and up to 1.5 ms under load.) An op's time is the
median of its scaled repetitions; ``wall_s`` sums them over the op list
and ``op_p50_ms``/``op_p90_ms`` are quantiles over the op list. The
unscaled figures are kept in the run record as ``raw``.

Set-up is timed the same way with a kernel that needs no import
(``setup_probe``, stdlib only, best of three runs of about 0.4 ms): the
process pins itself to the CPU that runs it fastest before importing
anything, probes again once the inputs exist, and scales by
``REF_SETUP_PROBE_S`` / (mean of the two probes). The numpy probe could
run only after set-up, which lasts a fraction of a second, and a probe
after it alone tracks the speed set-up ran at poorly.

Tracing. With ``--trace 1`` untraced and traced passes alternate, so
``trace_overhead_frac`` compares the two under the same machine state.
Counts, self times and spans come from the first traced pass only, so
counts are exact for a given seed; self times are not scaled.
"""

import bisect
import math
import os
import time

REF_PROBE_S = 1e-3
REF_SETUP_PROBE_S = 0.5e-3
_CPUS = sorted(os.sched_getaffinity(0))
_SETUP_GRID = [k / 63 for k in range(64)]


def setup_probe():
    """Seconds taken by a fixed stdlib kernel, best of three: the host's speed, before any import."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for k in range(1500):
            acc += bisect.bisect_left(_SETUP_GRID, (k % 64) / 64.0) + math.sqrt(k)
        best = min(best, time.perf_counter() - start)
    return best


def pin_fastest_cpu(kernel):
    """Pin this process to the CPU that runs ``kernel`` fastest now; return that time."""
    best_cpu, best = None, math.inf
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        t = kernel()
        if t < best:
            best_cpu, best = cpu, t
    os.sched_setaffinity(0, {best_cpu})
    return best


_SETUP_BEFORE = pin_fastest_cpu(setup_probe)
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports ordrisk)

_PROBE_GRID = np.linspace(0.0, 1.0, 64)


def probe():
    """Seconds taken by a fixed numpy kernel: the host's current speed."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(600):
        acc += float(np.searchsorted(_PROBE_GRID, (k % 64) / 64.0)) + math.sqrt(k)
    return time.perf_counter() - start


def _percentile(sorted_vals, q):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[k - 1]


class Run:
    """Op execution with the per-op correctness gate and failure log.

    ``attempted``, ``failed`` and ``wrong_ops`` count distinct ops, not
    repetitions: how often an op repeats depends on the host's speed,
    which ops fail depends only on the seed.
    """

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.args = workloads.prepare(workload, ops)
        self.texts = [None] * len(ops)
        self.problems = [None] * len(ops)
        self.wrong = [False] * len(ops)

    @property
    def attempted(self):
        return sum(text is not None for text in self.texts)

    @property
    def failures(self):
        return [{"op": i, "inputs": self.ops[i], "problems": p} for i, p in enumerate(self.problems) if p]

    @property
    def failed(self):
        return len(self.failures)

    @property
    def wrong_ops(self):
        return sum(self.wrong)

    def execute(self, i, tracer=None):
        """Run op ``i`` once; return (per-call samples, result or None).

        A sample is (seconds, probe before, probe after); each call of the
        op is pinned to the fastest CPU and probed on its own.
        """
        samples, results, error = [], [], None
        for call in workloads.op_calls(self.workload, self.ops[i], self.args[i]):
            before = pin_fastest_cpu(probe)
            if tracer is not None:
                tracer.op = i
                tracer.recording = True
            start = time.perf_counter()
            try:
                results.append(call())
            except Exception as exc:  # a library error fails the op, not the run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.recording = False
            samples.append((elapsed, before, probe()))
            if error is not None:
                break
        result = None if error is not None else workloads.combine(results)
        self._judge(i, result, error)
        return samples, result

    def _judge(self, i, result, error):
        text = f"error={error}" if error is not None else workloads.result_text(self.workload, result)
        if self.texts[i] is None:
            self.texts[i] = text
            if error is not None:
                self.problems[i] = [error]
            else:
                self.problems[i] = workloads.check_op(self.workload, self.ops[i], result, self.args[i])
                # A CLI exit code is a refusal, like an exception; any other
                # problem is a wrong output.
                refused = self.workload == "plan_jobs" and result[0] != 0
                self.wrong[i] = bool(self.problems[i]) and not refused
        elif text != self.texts[i] and "result differs between repetitions" not in self.problems[i]:
            self.problems[i] = self.problems[i] + ["result differs between repetitions"]
            self.wrong[i] = True


def _measure(run, seconds, trace):
    """Repeat passes over the op list until the time is up; per-op timings.

    Untraced runs may stop inside a pass once one whole pass is done;
    traced runs stop between passes so the first traced pass is whole.
    """
    n = len(run.ops)
    times = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    passes = {False: 0, True: 0}
    first_tracer = None
    start = time.perf_counter()
    traced = False
    while True:
        tr = None
        if traced:
            import tracer

            tr = tracer.Tracer().install()
        try:
            for i in range(n):
                sample, result = run.execute(i, tr)
                times[traced][i].append(sample)
                if tr is not None and result is not None and run.workload == "plan_jobs":
                    tr.counts["cli.out.bytes"] += sum(len(b) for b in result[2].values())
                if not trace and passes[False] and time.perf_counter() - start >= seconds:
                    return times, None
        finally:
            if tr is not None:
                tr.uninstall()
        passes[traced] += 1
        if traced and first_tracer is None:
            first_tracer = tr
        if passes[False] and (passes[True] or not trace) and time.perf_counter() - start >= seconds:
            return times, first_tracer
        traced = trace and not traced


def _summary(per_op, ref=None):
    """wall_s and op quantiles; with ``ref``, times are scaled to that probe time."""
    op_s = [
        statistics.median(
            sum(t * (ref / ((a + b) / 2) if ref else 1.0) for t, a, b in calls) for calls in reps
        )
        for reps in per_op
        if reps
    ]
    ordered = sorted(op_s)
    return {
        "op_s": op_s,
        "wall_s": sum(op_s),
        "op_p50_ms": 1e3 * statistics.median(ordered),
        "op_p90_ms": 1e3 * _percentile(ordered, 0.9),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-root", default=".bench_out")
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.make_ops(args.workload, args.seed, args.out_root)
    setup_s = time.perf_counter() - _T0
    probes = (_SETUP_BEFORE, setup_probe())
    out = {"setup_s": setup_s * REF_SETUP_PROBE_S / statistics.mean(probes), "setup_raw_s": setup_s}
    out["setup_probe_s"] = probes
    if not args.setup_only:
        run = Run(args.workload, ops)
        try:  # untimed warm-up op; its outcome is judged in the passes
            workloads.run_op(args.workload, ops[0], run.args[0])
        except Exception:
            pass
        times, tr = _measure(run, args.seconds, bool(args.trace))
        probes = sorted(
            p for mode in times.values() for reps in mode for calls in reps for _, a, b in calls for p in (a, b)
        )
        out.update(_summary(times[False], REF_PROBE_S))
        out["op_s"] = [round(t, 6) for t in out["op_s"]]
        out["raw"] = _summary(times[False])
        out["probe_p10_s"] = probes[len(probes) // 10]
        out["probe_p50_s"] = probes[len(probes) // 2]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["passes"] = min(len(ts) for ts in times[False])
        out["attempted"] = run.attempted
        out["failed"] = run.failed
        out["wrong_ops"] = run.wrong_ops
        out["failures"] = run.failures
        out["digest"] = workloads.digest(run.texts)
        out["inputs"] = workloads.describe(ops)
        if tr is not None:
            layer = tr.metrics()
            layer["trace_overhead_frac"] = _summary(times[True], REF_PROBE_S)["wall_s"] / out["wall_s"] - 1.0
            out["per_layer"] = layer
            spans = os.path.join(args.out_root, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tr.write_spans(spans)
            out["spans"] = spans
    with open(args.result, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

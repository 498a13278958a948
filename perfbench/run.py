"""ordrisk benchmark: run one workload, check every result, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload var_curves|prob_grid|plan_jobs \\
        --seed N [--seconds 30] [--trace 0|1]

The library is imported from the checkout's ``src`` in fresh worker
processes, one thread per numeric library. Set-up is timed in
``SETUP_RUNS`` fresh processes (the measuring worker is one of them),
each pinned to the fastest CPU and scaled to a host where the set-up
probe takes 0.5 ms (see worker.py), and reported as their median. With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass. The full record of the run (metrics,
output digest, failing inputs, input properties) is written to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("var_curves", "prob_grid", "plan_jobs")
SETUP_RUNS = 7
OUT_ROOT = ".bench_out"
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _worker(args, env, result, extra, timeout):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--out-root", OUT_ROOT, "--result", result] + extra
    proc = subprocess.run(cmd, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "per_call", "per_query")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ordrisk", "__init__.py")):
        print("error: run from the root of an ordrisk checkout (src/ordrisk not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    stem = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        setups = [
            _worker(args, env, f"{stem}-setup{k}.json", ["--setup-only"], 120)
            for k in range(0 if args.trace else SETUP_RUNS - 1)
        ]
        res = _worker(args, env, f"{stem}-worker.json", [], args.seconds + 140)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    setup_s = [s["setup_s"] for s in setups]

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {name: res[name] for name in ("wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup_s)
    failed_frac = res["failed"] / res["attempted"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "setup_samples_s": setup_s,
        "setup_raw_samples_s": [s["setup_raw_s"] for s in setups],
        "op_s": res["op_s"],
        "raw": {k: v for k, v in res["raw"].items() if k != "op_s"},
        "probe_p10_s": res["probe_p10_s"],
        "probe_p50_s": res["probe_p50_s"],
        "passes": res["passes"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": failed_frac,
        "wrong_ops": res["wrong_ops"],
        "digest": res["digest"],
        "failures": res["failures"],
        "inputs": res["inputs"],
    }
    if args.trace:
        record["spans"] = res["spans"]
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for fail in res["failures"]:
        print(f"failed op {fail['op']}: {json.dumps(fail['inputs'])}: {'; '.join(fail['problems'])}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    print(f"failed_frac {failed_frac:.6g} ratio ({res['failed']} of {res['attempted']} ops)")
    print(f"digest {res['digest']}")
    print(
        json.dumps(
            {
                "correct": res["wrong_ops"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

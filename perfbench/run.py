#!/usr/bin/env python3
"""Layered benchmark for jsrkit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--summary BENCH_x.json]

Run from the repository root. Each workload runs in its own process with
the package imported from ./src and BLAS pinned to one thread. With
--trace 0 the run reports the end-to-end metrics (setup_s, solve_s,
peak_rss_mib); with --trace 1 it reports the per-module metrics of a
separate traced run. Every output is checked against the independent
reference in reference.py. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs the
four workloads one at a time, each untraced and traced, and prints a
table; --summary also writes it as JSON.

Raw per-run output and trace files go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import inputs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
# set-up is timed in this many fresh processes per run; the median is reported
SETUP_SAMPLES = 7
PROCESS_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ENV_SNIPPET = r"""
import json, os, platform
import numpy, jsrkit
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "jsrkit_version": jsrkit.__version__,
    "jsrkit_using_numba": getattr(jsrkit, "USING_NUMBA", None),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": {v: os.environ.get(v) for v in %r},
    "cpu_count": os.cpu_count(),
    "affinity": sorted(os.sched_getaffinity(0)),
}))
""" % (BLAS_THREAD_VARS,)


def pin_environment():
    """Children import jsrkit from ./src and run BLAS on one thread."""
    src = os.path.join(ROOT, "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed):
    proc = subprocess.run([sys.executable, "-c", ENV_SNIPPET], capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT_S, check=True, cwd=ROOT)
    block = json.loads(proc.stdout)
    block.update(git_commit=git_commit(), seed=seed)
    return block


def spawn(cmd):
    """Run a worker; returns (seconds from spawn to READY, its last stdout line)."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = None
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - t0
                    break
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return ready, (lines[-1] if lines else None)


def run_one(workload, seed, seconds, trace, toy=False):
    """One benchmark run; returns the record that run.py prints and saves."""
    env_block = environment(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", OUT_DIR] + (["--toy"] if toy else [])
    setups = []
    if not trace:
        probe = calibrate.probe_s("cold")
        for _ in range(SETUP_SAMPLES):
            wall = spawn(cmd + ["--mode", "setup"])[0]
            after = calibrate.probe_s("cold")
            setups.append((wall, calibrate.scaled("cold", wall, probe, after)))
            probe = after
    line = spawn(cmd + ["--mode", "trace" if trace else "time"])[1]
    out = json.loads(line)

    ops = inputs.operations(workload, seed, toy)
    problems, known_faults, n_failed = [], [], 0
    for op, res in zip(ops, out["results"]):
        probs = reference.check(op, res)
        if op["kind"] != "cli" and not res["stable"]:
            probs.append("output changed between rounds")
        if probs and op.get("known_fault"):
            n_failed += 1
            known_faults += [f"{op['id']}: {p}" for p in probs]
        else:
            problems += [f"{op['id']}: {p}" for p in probs]
    for op, ok in zip(ops, out.get("split_agrees", [])):
        if not ok:
            problems.append(f"{op['id']}: split calls disagree with the composite call")

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    else:
        e2e = {"setup_s": (statistics.median(s[1] for s in setups), "s"),
               "solve_s": (statistics.median(out["round_ref_s"]), "s"),
               "peak_rss_mib": (out["peak_rss_mib"], "MiB")}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    record = {"workload": workload, "trace": int(trace), "environment": env_block,
              "correct": not problems, "attempted": len(ops) * out["rounds"],
              "failed": n_failed * out["rounds"], "metrics": metrics,
              "problems": problems, "known_faults": known_faults,
              "absent": out.get("absent", []), "setup_samples_s": setups,
              "worker": {k: v for k, v in out.items() if k not in ("results", "metrics")},
              "results": out["results"]}
    with open(os.path.join(OUT_DIR, f"run-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def print_record(rec):
    print(f"[{rec['workload']}{' traced' if rec['trace'] else ''}]")
    for name, m in rec["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in rec["absent"]:
        print(f"  {name} = absent")
    print(f"  attempted = {rec['attempted']}, failed = {rec['failed']}")
    for f in rec["known_faults"]:
        print(f"  known fault: {f}")
    for p in rec["problems"]:
        print(f"  WRONG: {p}", file=sys.stderr)
    print(f"  environment = {json.dumps(rec['environment'])}")


def summary_table(records):
    lines = [f"{'workload':<14} {'setup_s':>9} {'solve_s':>9} {'peak_rss_mib':>12} "
             f"{'attempted':>9} {'failed':>6} correct"]
    for rec in records:
        if rec["trace"]:
            continue
        m = rec["metrics"]
        lines.append(f"{rec['workload']:<14} {m['setup_s']['value']:>9.3f} "
                     f"{m['solve_s']['value']:>9.3f} {m['peak_rss_mib']['value']:>12.1f} "
                     f"{rec['attempted']:>9} {rec['failed']:>6} {rec['correct']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the tests")
    ap.add_argument("--summary", help="with --workload all: write the records here")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jsrkit", "__init__.py")):
        print("error: no jsrkit sources at src/jsrkit; run from a repository checkout",
              file=sys.stderr)
        return 2
    pin_environment()

    if args.workload == "all":
        records = []
        for workload in inputs.WORKLOADS:
            for trace in (0, 1):
                rec = run_one(workload, args.seed, args.seconds, trace, args.toy)
                print_record(rec)
                records.append(rec)
        print(summary_table(records))
        if args.summary:
            keep = ("workload", "trace", "correct", "attempted", "failed", "metrics",
                    "known_faults", "absent")
            with open(args.summary, "w") as f:
                json.dump({"seed": args.seed, "seconds": args.seconds,
                           "environment": records[0]["environment"],
                           "runs": [{k: r[k] for k in keep} for r in records]}, f, indent=1)
                f.write("\n")
        return 0 if all(r["correct"] for r in records) else 1

    rec = run_one(args.workload, args.seed, args.seconds, args.trace, args.toy)
    print_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

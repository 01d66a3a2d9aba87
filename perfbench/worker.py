"""One workload in one process: set-up, then whole rounds of its operations.

Invoked by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S
        --mode setup|time|trace --out DIR [--toy]

It prints READY once set-up ends (import, inputs, one warm-up call), so
the parent can time set-up from interpreter start. `setup` mode exits
there. `time` mode runs whole rounds until S seconds have passed (at
least two, so repeated CLI output can be compared). `trace` mode runs
half the time untraced, half split into public calls under spans, then
the module probes. The last stdout line is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import inputs

MIN_ROUNDS = 2


def _load_jsrkit():
    global jsrkit, bounds, lift, sets, cli, algebra
    import jsrkit
    from jsrkit import algebra, bounds, cli, lift, sets


def _cli_argv(op, set_dir):
    path = os.path.join(set_dir, op["set_name"] + ".json")
    return [sys.executable, "-m", "jsrkit.cli", op["sub"], path, "--format", "json", *op["argv"]]


def write_set_files(ops, set_dir):
    os.makedirs(set_dir, exist_ok=True)
    for op in ops:
        path = os.path.join(set_dir, op["set_name"] + ".json")
        with open(path, "w") as f:
            json.dump(inputs.set_file_payload(op["set_name"], op["gens"]), f)


def run_cli(argv):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    reported = None
    for line in proc.stderr.splitlines():
        if line.startswith("wall_time_s="):
            reported = float(line.split("=", 1)[1])
    return {"code": proc.returncode, "stdout": proc.stdout, "wall_s": wall,
            "wall_time_s": reported}


def run_op(op, M, set_dir):
    """One operation, composite form; returns a JSON-able result."""
    kind = op["kind"]
    if kind == "refine":
        rep = bounds.refine(M, op["width"], op["budget"])
        return {"lower": rep.lower, "upper": rep.upper, "witness": list(rep.lower_witness),
                "nodes": rep.nodes_explored, "depth_used": rep.depth_used,
                "converged": rep.converged}
    if kind == "lift":
        return lift.check_lift_identities(M, op["n"], tol=op["tol"], width=op["width"],
                                          budget=op["budget"]).to_dict()
    if kind == "profiles":
        r, beta = bounds.sandwich_profiles(M, op["depth"])
        return {"r": r.tolist(), "beta": beta.tolist()}
    if kind == "verify":
        return bounds.verify_berger_wang(M, op["tol"], op["budget"]).to_dict()
    return run_cli(_cli_argv(op, set_dir))


def _same(res, first):
    if "stdout" in res:
        return (res["code"], res["stdout"]) == (first["code"], first["stdout"])
    return res == first


# -- traced form: the same work split into its public calls ----------------

def _split_lift(t, op, M, oid):
    n, width, budget = op["n"], op["width"], op["budget"]
    L = t.call(lift, "lift_set", oid, M)
    r_m, _ = t.call(bounds, "sandwich_profiles", oid, M, n, budget=budget)
    r_l, _ = t.call(bounds, "sandwich_profiles", oid, L, n, budget=budget)
    box = t.call(bounds, "refine", oid, M, width, budget)
    box_l = t.call(bounds, "refine", oid, L, width, budget)
    r_gap = max(abs(r_l[k] - r_m[k] ** 2) / max(1.0, r_m[k] ** 2) for k in range(n))
    return {"interval": list(box.interval), "lifted_interval": list(box_l.interval),
            "r_exact_gap": float(r_gap)}


def _split_verify(t, op, M, oid):
    used, depth, n = 0, 0, 1
    r_best, b_best = 0.0, float("inf")
    while True:
        cost = t.call(sets, "tree_size", oid, M.size, n)
        if used + cost > op["budget"]:
            break
        r, beta = t.call(bounds, "sandwich_profiles", oid, M, n, budget=op["budget"])
        used += cost
        depth = n
        r_best, b_best = max(r_best, float(r[-1])), min(b_best, float(beta[-1]))
        if b_best - r_best <= op["tol"]:
            break
        n *= 2
    return {"r_lower": r_best, "rho_upper": b_best, "depth_reached": depth,
            "words_evaluated": used}


def replay_cli(t, op, res):
    """The subcommand of a cold process, re-run in-process from its public calls.

    Returns whether the replay reproduces the process's result block.
    """
    oid = op["id"]
    report = json.loads(res["stdout"])
    p = report["params"]
    M, _ = t.call(cli, "load_matrix_set", oid, report["input"])
    sub = op["sub"]
    if sub == "refine":
        got = t.call(bounds, "refine", oid, M, p["width"], p["budget"]).to_dict()
    elif sub == "bounds":
        lo = t.call(bounds, "lower_bound_r", oid, M, p["depth"], budget=p["budget"])
        up = t.call(bounds, "upper_bound", oid, M, p["depth"], budget=p["budget"])
        got = {"lower": lo.value, "lower_witness": list(lo.witness), "upper": up}
    elif sub == "verify-bw":
        got = t.call(bounds, "verify_berger_wang", oid, M, p["tol"], p["budget"]).to_dict()
    elif sub == "lift-check":
        got = t.call(lift, "check_lift_identities", oid, M, p["depth"], tol=p["tol"],
                     width=p["width"], budget=p["budget"]).to_dict()
    elif sub == "radical":
        A = t.call(algebra, "generated_subalgebra", oid, M, p["max_algebra_dim"])
        rad = t.call(algebra, "jacobson_radical", oid, A)
        Q = t.call(algebra, "quotient", oid, A, rad)
        got = {"algebra_dim": A.dim, "radical_dim": rad.dim, "quotient_rep_dim": Q.rep_dim}
    elif sub == "inessential":
        got = t.call(algebra, "check_inessential", oid, M, width=p["width"],
                     budget=p["budget"], max_dim=p["max_algebra_dim"]).to_dict()
    else:  # chain
        A = t.call(algebra, "generated_subalgebra", oid, M, p["max_algebra_dim"])
        chain = t.call(algebra, "radical_power_chain", oid, A)
        got = t.call(algebra, "ideal_chain_monotonicity", oid, M, chain, width=p["width"],
                     budget=p["budget"]).to_dict()
    got = json.loads(json.dumps(got))
    return all(report["result"].get(k) == v for k, v in got.items())


def run_split(t, op, M, set_dir, first):
    """Traced form of one operation; returns (result, agrees with composite)."""
    oid = op["id"]
    kind = op["kind"]
    with t.span(f"op.{kind}", "bench", oid):
        if kind == "cli":
            with t.span(f"cli.process.{op['sub']}", "cli", oid):
                res = run_cli(_cli_argv(op, set_dir))
            return res, _same(res, first)
        if kind == "lift":
            got = _split_lift(t, op, M, oid)
        elif kind == "verify":
            got = _split_verify(t, op, M, oid)
        else:  # refine and profiles are single public calls
            with t.span(f"bounds.{'refine' if kind == 'refine' else 'sandwich_profiles'}",
                        "bounds", oid):
                res = run_op(op, M, set_dir)
            return res, res == first
    return first, all(first.get(k) == v for k, v in got.items())


# -- driver ------------------------------------------------------------------

def _rounds(fn, seconds, minimum):
    """Whole rounds until `seconds` have passed, at least `minimum` of them."""
    out = []
    start = time.perf_counter()
    while len(out) < minimum or time.perf_counter() - start < seconds:
        out.append(fn())
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)

    cold = args.workload == "cli-cold"
    if not cold or args.mode == "trace":
        _load_jsrkit()
    ops = inputs.operations(args.workload, args.seed, args.toy)
    set_dir = os.path.join(args.out, f"sets-{args.workload}-{args.seed}")
    if cold:
        write_set_files(ops, set_dir)
        sets_ = [None] * len(ops)
        run_cli(_cli_argv(ops[0], set_dir))  # warm-up: one cold process
    else:
        sets_ = [jsrkit.MatrixSet(op["gens"], op["id"]) for op in ops]
        warm = jsrkit.MatrixSet(ops[0]["gens"][:1])
        bounds.refine(warm, 0.5, 50)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    probe_kind = "cold" if cold else "compute"
    calibrate.probe_s(probe_kind)  # warm the speed probe

    first = [None] * len(ops)
    stable = [True] * len(ops)
    op_s = [[] for _ in ops]

    def timed_round(run):
        """One round of run(i); returns (raw seconds, seconds at reference speed)."""
        raw = ref = 0.0
        probes_s = [calibrate.probe_s(probe_kind)]
        for i in range(len(ops)):
            t0 = time.perf_counter()
            res = run(i)
            dt = time.perf_counter() - t0
            probes_s.append(calibrate.probe_s(probe_kind))
            raw += dt
            ref += calibrate.scaled(probe_kind, dt, probes_s[-2], probes_s[-1])
            op_s[i].append(dt)
            if first[i] is None:
                first[i] = res
            else:
                stable[i] &= _same(res, first[i])
        return raw, ref, probes_s

    def plain(i):
        return run_op(ops[i], sets_[i], set_dir)

    out = {"ops": [op["id"] for op in ops]}
    if args.mode == "time":
        rounds = _rounds(lambda: timed_round(plain), args.seconds, MIN_ROUNDS)
        out["round_s"], out["round_ref_s"], out["probe_s"] = (list(x) for x in zip(*rounds))
        out["op_s"] = op_s
        out["rounds"] = len(rounds)
        usage = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
        out["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024.0
    else:
        import probes
        from tracing import Tracer

        untraced = _rounds(lambda: timed_round(plain), args.seconds / 2, 1)
        t = Tracer()
        split_ok = [True] * len(ops)

        def split(i):
            res, agree = run_split(t, ops[i], sets_[i], set_dir, first[i])
            split_ok[i] &= agree
            return res

        traced = _rounds(lambda: timed_round(split), args.seconds / 2, 1)
        # cold processes are split once, outside the timed rounds
        for i, op in enumerate(ops):
            if op["kind"] == "cli":
                with t.span("op.cli-replay", "bench", op["id"]):
                    split_ok[i] &= replay_cli(t, op, first[i])
        metrics, absent = probes.run_all(t, args.out)
        for module, s in t.self_times().items():
            metrics[f"self_s.{module}"] = (s, "s")
        overhead = (statistics.median(r[1] for r in traced)
                    - statistics.median(r[1] for r in untraced))
        metrics["trace.overhead_s"] = (overhead, "s")
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        t.write(trace_path)
        out.update(rounds=len(untraced) + len(traced), untraced_s=untraced,
                   traced_s=traced, split_agrees=split_ok, metrics=metrics,
                   absent=absent, trace_file=trace_path, spans=len(t.spans))
    for op, res, ok in zip(ops, first, stable):
        res["stable"] = ok
    out["results"] = first
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-module probes of the traced run, on fixed inputs that ignore the seed.

Every probe times the benchmark's own calls into one public function and
records a span around them. Counts (nodes, words, explored share) come
from fixed inputs, so they repeat exactly on every run. A probe whose
public function no longer exists reports its metrics as absent.
"""

import importlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
from tracing import Absent, need

import jsrkit


def _module(name):
    try:
        return importlib.import_module(f"jsrkit.{name}")
    except ImportError:
        return None


_kernels, algebra, bounds, cli, lift, matrices, sets = (
    _module(n) for n in ("_kernels", "algebra", "bounds", "cli", "lift", "matrices", "sets"))

DIMS = (2, 5, 9)
STACK = 200          # matrices per op_norm / spectral_radius batch
WORD_LEN = 300       # letters per sets.evaluate word
REPEATS = 5          # batches per micro probe; the median is reported
REFINE_WIDTH = 0.005
PASS_DEPTH = 10
SWEEP_DEPTH = 13
CLI_REPEATS = 3


def timed(t, module, name, fn, *args, **kwargs):
    with t.span(f"{module}.{name}", module, "probe"):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0


def median_time(t, module, name, fn, repeats=REPEATS):
    return statistics.median(timed(t, module, name, fn)[1] for _ in range(repeats))


def probe_matrices(t, out_dir):
    out = {}
    for d in DIMS:
        rng = np.random.default_rng(500 + d)
        stack = rng.standard_normal((STACK, d, d)) + 1j * rng.standard_normal((STACK, d, d))
        for key, name in (("norm_us", "op_norm"), ("rho_us", "spectral_radius")):
            fn = need(matrices, name)
            s = median_time(t, "matrices", name, lambda: [fn(a) for a in stack])
            out[f"matrices.{key}.d{d}"] = (s / STACK * 1e6, "us")
    return out


def probe_sets(t, out_dir):
    fn = need(sets, "evaluate")
    out = {}
    for d in DIMS:
        rng = np.random.default_rng(600 + d)
        g = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        g /= np.linalg.norm(g, ord=2, axis=(1, 2))[:, None, None]
        M = jsrkit.MatrixSet(g)
        word = tuple(int(x) for x in rng.integers(0, 2, WORD_LEN))
        s = median_time(t, "sets", "evaluate", lambda: fn(M, word))
        out[f"sets.matmul_us.d{d}"] = (s / WORD_LEN * 1e6, "us")
    return out


def probe_bounds_kernels(t, out_dir):
    M = jsrkit.MatrixSet(inputs.bench_sets()["refine-2x5x5"])
    rep, s = timed(t, "bounds", "refine", need(bounds, "refine"), M, REFINE_WIDTH, 500_000)
    out = {"bounds.refine_s": (s, "s"),
           "bounds.refine_nodes": (rep.nodes_explored, "count"),
           "bounds.refine_nodes_per_s": (rep.nodes_explored / s, "1/s"),
           "bounds.refine_depth_used": (rep.depth_used, "count")}
    # one branch-and-bound pass at a fixed depth cap, seeded with the
    # certified lower end, as refine's last passes see it
    refine_pass = getattr(_kernels, "refine_pass", None)
    if refine_pass is None:
        return out
    res, s = timed(t, "kernels", "refine_pass", refine_pass,
                   M.gens, PASS_DEPTH, REFINE_WIDTH, rep.lower, 10**7, False)
    nodes = int(res[6])
    out.update({"kernels.refine_pass_s": (s, "s"),
                "kernels.refine_pass_nodes": (nodes, "count"),
                "kernels.refine_pass_nodes_per_s": (nodes / s, "1/s"),
                "kernels.refine_pass_explored":
                    (nodes / need(sets, "tree_size")(M.size, PASS_DEPTH), "share")})
    return out


def probe_sweep(t, out_dir):
    M = jsrkit.MatrixSet(inputs.bench_sets()["sweep-2x2"])
    _, s = timed(t, "bounds", "sandwich_profiles", need(bounds, "sandwich_profiles"),
                 M, SWEEP_DEPTH)
    words = need(sets, "tree_size")(M.size, SWEEP_DEPTH)
    return {"bounds.sweep_s": (s, "s"), "bounds.sweep_words": (words, "count"),
            "bounds.sweep_words_per_s": (words / s, "1/s")}


def probe_lift(t, out_dir):
    fn = need(lift, "lift_set")
    M = jsrkit.MatrixSet(inputs.a2_member(10))
    out = {"lift.lift_set_s": (median_time(t, "lift", "lift_set", lambda: fn(M)), "s")}
    M = jsrkit.MatrixSet(inputs.a2_member(14))
    p = inputs.A2_PARAMS
    _, s = timed(t, "lift", "check_lift_identities", need(lift, "check_lift_identities"), M,
                 p["n"], tol=p["tol"], width=p["width"], budget=p["budget"])
    out["lift.check_lift_identities_s"] = (s, "s")
    return out


def probe_algebra(t, out_dir):
    idx = dict(inputs.CLI_BLOCK_SETS)
    Ma = jsrkit.MatrixSet(inputs.a4_member(idx["block-a"])[0])
    Mb = jsrkit.MatrixSet(inputs.a4_member(idx["block-b"])[0])
    gen, rad, quo = (need(algebra, n) for n in ("generated_subalgebra", "jacobson_radical",
                                                 "quotient"))
    A = gen(Ma)
    J = rad(A)
    out = {"algebra.generated_subalgebra_s":
               (median_time(t, "algebra", "generated_subalgebra", lambda: gen(Ma)), "s"),
           "algebra.jacobson_radical_s":
               (median_time(t, "algebra", "jacobson_radical", lambda: rad(A)), "s"),
           "algebra.quotient_s": (median_time(t, "algebra", "quotient", lambda: quo(A, J)), "s")}
    hand = jsrkit.MatrixSet(inputs.HAND + 0j)
    _, s = timed(t, "algebra", "check_inessential", need(algebra, "check_inessential"), hand)
    out["algebra.check_inessential_s"] = (s, "s")
    chain_fn, mono = need(algebra, "radical_power_chain"), need(algebra, "ideal_chain_monotonicity")
    Ab = gen(Mb)
    _, s = timed(t, "algebra", "chain", lambda: mono(Mb, chain_fn(Ab)))
    out["algebra.chain_s"] = (s, "s")
    return out


IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import jsrkit; "
                  "print(time.perf_counter() - t)")


def probe_cli(t, out_dir):
    from worker import run_cli

    need(cli, "main")
    set_dir = os.path.join(out_dir, "probe-sets")
    os.makedirs(set_dir, exist_ok=True)
    files = {"golden": inputs.GOLDEN + 0j, "hand": inputs.HAND + 0j}
    for name, idx in inputs.CLI_BLOCK_SETS:
        files[name] = inputs.a4_member(idx)[0]
    for name, g in files.items():
        with open(os.path.join(set_dir, name + ".json"), "w") as f:
            json.dump(inputs.set_file_payload(name, g), f)

    imports = []
    for _ in range(CLI_REPEATS):
        with t.span("cli.import", "cli", "probe"):
            proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], capture_output=True,
                                  text=True, check=True, timeout=60)
        imports.append(float(proc.stdout))
    load = need(cli, "load_matrix_set")
    hand_path = os.path.join(set_dir, "hand.json")
    out = {"cli.import_s": (statistics.median(imports), "s"),
           "cli.load_s": (median_time(t, "cli", "load_matrix_set",
                                      lambda: load(hand_path), 20), "s")}
    startup = []
    for op_id, sub, fname, argv in inputs.CLI_RUNS:
        walls = []
        for _ in range(CLI_REPEATS):
            with t.span(f"cli.process.{sub}", "cli", "probe"):
                res = run_cli([sys.executable, "-m", "jsrkit.cli", sub,
                               os.path.join(set_dir, fname + ".json"), "--format", "json", *argv])
            walls.append(res["wall_s"])
            if res["wall_time_s"] is not None:
                startup.append(res["wall_s"] - res["wall_time_s"])
        out[f"cli.process_s.{sub}"] = (statistics.median(walls), "s")
    if startup:
        out["cli.startup_s"] = (statistics.median(startup), "s")
    return out


# (metric names, probe): the names are what the probe reports when its
# public functions exist, so a missing function marks each one absent
PROBES = (
    ([f"matrices.{k}.d{d}" for k in ("norm_us", "rho_us") for d in DIMS], probe_matrices),
    ([f"sets.matmul_us.d{d}" for d in DIMS], probe_sets),
    ([f"bounds.refine_{k}" for k in ("s", "nodes", "nodes_per_s", "depth_used")]
     + [f"kernels.refine_pass_{k}" for k in ("s", "nodes", "nodes_per_s", "explored")],
     probe_bounds_kernels),
    ([f"bounds.sweep_{k}" for k in ("s", "words", "words_per_s")], probe_sweep),
    (["lift.lift_set_s", "lift.check_lift_identities_s"], probe_lift),
    ([f"algebra.{k}_s" for k in ("generated_subalgebra", "jacobson_radical", "quotient",
                                  "check_inessential", "chain")], probe_algebra),
    (["cli.import_s", "cli.load_s", "cli.startup_s"]
     + [f"cli.process_s.{run[1]}" for run in inputs.CLI_RUNS], probe_cli),
)


def run_all(t, out_dir):
    """Returns ({metric: (value, unit)}, [absent metric names])."""
    metrics, absent = {}, []
    for names, probe in PROBES:
        try:
            got = probe(t, out_dir)
        except Absent:
            absent.extend(names)
            continue
        metrics.update(got)
        absent.extend(n for n in names if n not in got)
    return metrics, absent

"""Tests of the benchmark itself: its reference, its inputs, and toy runs.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

DIAG_PAIR = np.array([np.diag([2.0, 1.0]), np.diag([1.0, 3.0])], dtype=complex)


def test_golden_pair_bracket_pins_phi():
    lo, hi = reference.bracket(inputs.GOLDEN, 12)
    assert abs(lo - inputs.PHI) <= 1e-12
    assert abs(hi - inputs.PHI) <= 1e-12


def test_commuting_diagonal_pair_is_exact_at_depth_one():
    r, beta = reference.profiles(DIAG_PAIR, 4)
    assert r.tolist() == [3.0] * 4
    assert beta.tolist() == [3.0] * 4


def test_hand_pair_bracket_holds_three():
    r, beta = reference.profiles(inputs.HAND, 6)
    assert r[0] == 3.0
    assert np.all(np.diff(r) >= 0) and np.all(np.diff(beta) <= 0)
    assert r[-1] <= 3.0 <= beta[-1]


def test_block_bracket_is_max_over_blocks():
    blocks = (np.array([[[0.5]], [[-2.0]]]), np.array([[[1.5]], [[0.25]]]))
    assert reference.block_bracket(blocks, 3) == (2.0, 2.0)


def test_tree_size_by_hand():
    assert reference.tree_size(2, 3) == 2 + 4 + 8
    assert reference.tree_size(3, 2) == 3 + 9
    assert reference.tree_size(1, 5) == 5


def test_word_root_of_golden_witness():
    assert abs(reference.word_root(inputs.GOLDEN + 0j, (0, 1)) - inputs.PHI) <= 1e-15


def test_lift_acts_as_two_sided_multiplication():
    rng = np.random.default_rng(0)
    gens = rng.standard_normal((2, 3, 3)) + 0j
    x = rng.standard_normal((3, 3))
    L = reference.lift(gens)
    for i in range(2):
        for j in range(2):
            got = (L[2 * i + j] @ x.reshape(-1, order="F")).reshape(3, 3, order="F")
            assert np.allclose(got, gens[i] @ x @ gens[j])
    assert np.array_equal(L, inputs.lift_gens(gens))


def test_algebra_dims_by_hand():
    # generic upper-triangular 2x2 pair: all upper-triangular matrices, radical e12
    assert reference.algebra_dims(inputs.HAND + 0j) == (3, 1)
    assert reference.algebra_dims(DIAG_PAIR) == (2, 0)


def test_closed_forms_carried_by_refine_small():
    ops = {op["id"]: op for op in inputs.operations("refine-small", 5)}
    assert abs(reference.word_root(ops["golden"]["gens"], (0, 1)) - inputs.PHI) <= 1e-15
    for name in ("triu-3x3x2", "triu-2x2x2c", "triu-2x2x3"):
        gens = ops[name]["gens"]
        assert np.array_equal(gens, np.triu(gens))
        assert ops[name]["rho"] == np.abs(np.diagonal(gens, axis1=1, axis2=2)).max()
    for d in (2, 3, 4):
        # A = S J_d S^-1: A - I is nilpotent of index d, so rho(A) = 1
        # (computed eigenvalues scatter like u^(1/d) around it instead)
        n = ops[f"jordan-d{d}"]["gens"][0] - np.eye(d)
        norm = np.linalg.norm(n)
        assert np.linalg.norm(np.linalg.matrix_power(n, d)) <= 1e-12 * norm ** d
        assert np.linalg.norm(np.linalg.matrix_power(n, d - 1)) > 1e-6 * norm ** (d - 1)
        assert ops[f"jordan-d{d}"]["rho"] == 1.0


def test_frames_keep_norms_and_spectra():
    g = inputs.bench_sets()["refine-2x5x5"]
    f = inputs.frame(np.random.default_rng(9), g)
    assert np.allclose(np.linalg.norm(f, 2, axis=(1, 2)), np.linalg.norm(g, 2, axis=(1, 2)))
    t = inputs.upper_triangular(317, 3, 2, False)
    s = inputs.sign_frame(np.random.default_rng(9), t)
    assert np.array_equal(np.diagonal(s, axis1=1, axis2=2), np.diagonal(t, axis1=1, axis2=2))
    assert np.array_equal(np.abs(s), np.abs(t))


def test_same_seed_same_inputs():
    for w in inputs.WORKLOADS:
        a, b = inputs.operations(w, 4), inputs.operations(w, 4)
        assert [op["id"] for op in a] == [op["id"] for op in b]
        assert all(np.array_equal(x["gens"], y["gens"]) for x, y in zip(a, b))


def test_checks_reject_wrong_outputs():
    op = {"id": "g", "kind": "refine", "gens": inputs.GOLDEN + 0j, "width": 0.02,
          "rho": inputs.PHI}
    good = {"lower": inputs.PHI * (1 - 1e-12), "upper": inputs.PHI + 0.01,
            "witness": [0, 1], "converged": True}
    assert reference.check(op, good) == []
    assert reference.check(op, dict(good, upper=1.6))
    assert reference.check(op, dict(good, witness=[0]))
    prof = {"id": "p", "kind": "profiles", "gens": DIAG_PAIR, "depth": 2}
    assert reference.check(prof, {"r": [3.0, 3.0], "beta": [3.0, 3.0]}) == []
    assert reference.check(prof, {"r": [3.0, 2.9], "beta": [3.0, 3.0]})


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_toy_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0",
                "--toy")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], proc.stdout + proc.stderr
    assert set(res["metrics"]) == {"setup_s", "solve_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    n_ops = len(inputs.operations(workload, 3, toy=True))
    assert res["attempted"] % n_ops == 0
    known = sum(1 for op in inputs.operations(workload, 3, toy=True) if op.get("known_fault"))
    assert res["failed"] == known * res["attempted"] // n_ops


def test_toy_traced_run_reports_every_module_metric():
    proc = _run("--workload", "cli-cold", "--seed", "3", "--seconds", "0.2", "--trace", "1",
                "--toy")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"], proc.stdout + proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(res["metrics"]) == names
    counts = ("bounds.refine_nodes", "bounds.sweep_words", "kernels.refine_pass_nodes")
    assert all(res["metrics"][k]["value"] > 0 for k in counts)
    assert math.isfinite(res["metrics"]["trace.overhead_s"]["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "refine-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

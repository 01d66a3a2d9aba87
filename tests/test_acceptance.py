"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Every test prints its verdict line through capsys.disabled() so the lines
show up in a plain `pytest tests/test_acceptance.py` run, then asserts.
Expected values come from tests/oracles.py, a brute-force enumerator kept
independent of the library internals.
"""

import json
import subprocess
import sys
import time

import numpy as np

from jsrkit import (
    MatrixSet,
    continuity_probe,
    interval_distance,
    lower_bound_r,
    perturbation_directions,
    refine,
    upper_bound,
)
from jsrkit.algebra import (
    check_inessential,
    check_nilpotent_span,
    generated_subalgebra,
    jacobson_radical,
    quotient,
    rcq_membership,
)
from jsrkit.lift import check_lift_identities, check_w_product_identity

import oracles as o


def _report(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def a2_sets():
    out = []
    for i in range(50):
        rng = np.random.default_rng(20_000 + i)
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        out.append(MatrixSet(o.random_set(rng, d, m), name=f"a2-{i}"))
    return out


def test_a1_golden_pair_certified_interval(capsys):
    # oracle first: depth-12 enumeration pins the value before refine runs
    r12, b12 = o.brute_interval(o.GOLDEN, 12)
    oracle_ok = abs(r12 - o.PHI) <= 1e-12 and abs(b12 - o.PHI) <= 1e-12

    M = MatrixSet.from_matrices(o.GOLDEN, name="golden")
    t0 = time.perf_counter()
    rep = refine(M, 0.02, 10**6)
    elapsed = time.perf_counter() - t0

    ok = (
        oracle_ok
        and rep.converged
        and rep.lower <= o.PHI <= rep.upper
        and rep.lower >= 1.6180339887 - 1e-9
        and rep.upper - rep.lower <= 0.02 * (1.0 + 1e-9)
        and rep.lower <= b12 + 1e-12
        and r12 <= rep.upper + 1e-12
        and elapsed < 60.0
    )
    _report(capsys, "A1",
            ok,
            f"interval [{rep.lower:.15f}, {rep.upper:.15f}] contains "
            f"{o.PHI:.15f}, width {rep.upper - rep.lower:.1e} <= 0.02, "
            f"{elapsed:.2f}s (depth-12 oracle {r12:.15f})")


def test_a2_two_sided_lift_identities(capsys):
    worst_r = 0.0
    worst_dist = 0.0
    fails = 0
    for M in a2_sets():
        rep = check_lift_identities(M, 4, tol=1e-7, width=0.05, budget=100_000)
        worst_r = max(worst_r, rep.r_exact_gap)
        worst_dist = max(worst_dist, rep.rho_sq_gap)
        if not rep.passed:
            fails += 1
    ok = fails == 0 and worst_r <= 1e-7 and worst_dist == 0.0
    _report(capsys, "A2",
            ok,
            f"50 random sets: worst per-depth gap {worst_r:.2e} <= 1e-7, "
            f"squared/lifted intervals always intersect "
            f"(worst distance {worst_dist:.1e}), {fails} failures")


def test_a3_sandwiched_product_operator(capsys):
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(30_000 + i)
        d = int(rng.integers(1, 5))
        a = rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))
        b = rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))
        resid = check_w_product_identity(a, b)
        scale = (o.svd_norm(a) * o.svd_norm(b)) ** 2
        worst = max(worst, resid / max(scale, 1e-300))
    ok = worst <= 1e-10
    _report(capsys, "A3",
            ok,
            f"100 random pairs (dim <= 4): worst relative residual "
            f"{worst:.2e} <= 1e-10")


def test_a4_radical_does_not_move_rho(capsys):
    fails = 0
    worst_gap = 0.0
    for i in range(50):
        rng = np.random.default_rng(40_000 + i)
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        M = MatrixSet(o.random_block_upper(rng, d, m), name=f"a4-{i}")
        rep = check_inessential(M, width=0.05, budget=100_000)
        worst_gap = max(worst_gap, rep.gap)
        if not rep.passed:
            fails += 1

    # hand example: both intervals must contain the known value 3.0,
    # pinned by exhausting depth-6 products of the diagonal parts
    dr, db = o.brute_interval(o.DIAG_PAIR, 6)
    hand = MatrixSet.from_matrices(o.HAND_PAIR, name="hand")
    hrep = check_inessential(hand, width=0.05, budget=100_000)
    hand_ok = (
        dr == 3.0 and db == 3.0
        and hrep.passed
        and hrep.rho_full[0] <= 3.0 <= hrep.rho_full[1]
        and hrep.rho_quotient[0] <= 3.0 <= hrep.rho_quotient[1]
    )

    ok = fails == 0 and hand_ok
    _report(capsys, "A4",
            ok,
            f"50 block-upper sets pass (worst interval gap {worst_gap:.1e}); "
            f"hand pair full {list(hrep.rho_full)} / quotient "
            f"{list(hrep.rho_quotient)} both contain 3.0 "
            f"(diagonal-part oracle ({dr}, {db}))")


def test_a5_radical_membership_certificates(capsys):
    fails = []
    nonzero = 0
    for i in range(30):
        rng = np.random.default_rng(50_000 + i)
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        block = bool(rng.integers(0, 2))
        g = o.random_block_upper(rng, d, m) if block else o.random_set(rng, d, m)
        A = generated_subalgebra(MatrixSet(g))
        rad = jacobson_radical(A)
        if rad.dim > 0:
            nonzero += 1
        for j in range(rad.dim):
            if not rcq_membership(A, rad.coeffs[:, j]).member:
                fails.append((i, "radical-element", j))
        for j in range(10):
            tries = 0
            c = None
            while tries <= 200:
                c = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
                if not rad.contains(c):
                    break
                tries += 1
                c = None
            if c is None:
                continue
            if rcq_membership(A, c).member:
                fails.append((i, "non-radical-element", j))
        B = quotient(A, rad).as_algebra()
        if jacobson_radical(B).dim != 0:
            fails.append((i, "quotient-radical"))
    ok = not fails and nonzero > 0
    _report(capsys, "A5",
            ok,
            f"30 generated subalgebras ({nonzero} with nonzero radical): "
            f"radical elements certify member, 10 outside draws each "
            f"certify non-member, quotients semisimple; failures {fails}")


def test_a6_strictly_upper_sets_certify_zero(capsys):
    worst_upper = 0.0
    worst_degree_slack = 0
    fails = 0
    for i in range(20):
        rng = np.random.default_rng(60_000 + i)
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        g = np.triu(rng.uniform(-1.0, 1.0, (m, d, d)).astype(complex), 1)
        M = MatrixSet(np.ascontiguousarray(g), name=f"a6-{i}")
        box = refine(M, 1e-13, 100_000)
        rep = check_nilpotent_span(M)
        worst_upper = max(worst_upper, box.upper)
        if not (box.upper < 1e-12 and rep.passed and rep.nil_degree <= d):
            fails += 1
        else:
            worst_degree_slack = max(worst_degree_slack, rep.nil_degree - 1)
    ok = fails == 0
    _report(capsys, "A6",
            ok,
            f"20 strictly-upper sets: certified upper <= {worst_upper:.1e} "
            f"< 1e-12, span nilpotent with degree <= dim "
            f"(max degree {worst_degree_slack + 1}), {fails} failures")


def test_a7_depth_profiles_monotone(capsys):
    bad = 0
    for M in a2_sets():
        lows = [lower_bound_r(M, n).value for n in range(1, 7)]
        ups = [upper_bound(M, n) for n in range(1, 7)]
        for k in range(6):
            if lows[k] > ups[k] + 1e-9:
                bad += 1
        if any(lows[k + 1] < lows[k] for k in range(5)):
            bad += 1
        if any(ups[k + 1] > ups[k] for k in range(5)):
            bad += 1
    ok = bad == 0
    _report(capsys, "A7",
            ok,
            f"50 sets, depths 1..6: lower profile nondecreasing, upper "
            f"profile nonincreasing, lower <= upper + 1e-9 everywhere "
            f"({bad} violations)")


def test_a8_perturbation_deviation_shrinks(capsys):
    M = MatrixSet.from_matrices(o.DIAG_PAIR, name="diag")
    schedule = (0.1, 0.03, 0.01)
    trials = 20
    rows = continuity_probe(M, schedule, trials, 0)
    devs = [r.max_dev for r in rows]

    # oracle: depth-8 enumeration bounds rho for the base set and for the
    # same perturbed copies the probe builds; the probe's deviation can
    # never exceed gap + both interval widths
    dirs = perturbation_directions(M, trials, 0)
    br, bb = o.brute_interval(o.DIAG_PAIR, 8)
    oracle_ok = True
    for idx, e in enumerate(schedule):
        cap = 0.0
        for t in range(trials):
            gens = [g + e * dirs[t][k] for k, g in enumerate(M.gens)]
            pr, pb = o.brute_interval(gens, 8)
            gap = max(0.0, pr - bb, br - pb)
            cap = max(cap, gap + (bb - br) + (pb - pr))
        if devs[idx] > cap + 1e-12:
            oracle_ok = False

    ok = (
        oracle_ok
        and all(rows[k].complete for k in range(3))
        and devs[0] >= devs[1] >= devs[2]
        and devs[0] <= 0.15
        and devs[2] <= 0.02
    )
    _report(capsys, "A8",
            ok,
            f"max_dev {devs[0]:.4f}/{devs[1]:.4f}/{devs[2]:.4f} for eps "
            f"0.1/0.03/0.01: nonincreasing, <= 0.15 and <= 0.02 at the "
            f"ends, all within the depth-8 enumeration caps")


def _write_set(path, mats, name):
    mats = [np.asarray(m) for m in mats]
    payload = {
        "name": name,
        "dim": mats[0].shape[0],
        "matrices": [
            {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}
            for m in mats
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def test_a9_reports_are_deterministic(capsys, tmp_path):
    golden = _write_set(tmp_path / "golden.json", o.GOLDEN, "golden")
    hand = _write_set(tmp_path / "hand.json", o.HAND_PAIR, "hand")
    cases = {
        "refine": ["refine", str(golden), "--width", "0.02",
                   "--budget", "1000000", "--format", "json"],
        "inessential": ["inessential", str(hand), "--format", "json"],
    }
    ok = True
    notes = []
    for label, argv in cases.items():
        outs = []
        runs = [argv] * 3
        for cmd in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "jsrkit.cli", *cmd],
                capture_output=True, check=False, env=o.cli_env())
            if proc.returncode != 0:
                ok = False
            outs.append(proc.stdout)
        if len(set(outs)) != 1:
            ok = False
        notes.append(f"{label}: {len(runs)} runs, "
                     f"{len(set(outs))} distinct stdout(s)")
    _report(capsys, "A9",
            ok,
            "; ".join(notes) + " (3 repeats, byte-compared)")

"""Workload inputs and operation lists, made from the seed with numpy alone.

Every workload starts from fixed base sets. The seed draws a change of
basis Q for each base set, and the workload runs on Q A Q^H: exact sign
changes (`sign_frame`) for sets checked against a closed form, a
Haar-random orthogonal or unitary Q (`frame`) for the others. Spectral
radii and operator 2-norms of every product are unchanged by Q, so the
certified value, the product tree and the node counts are the same for
every seed in exact arithmetic: runs on different seeds differ in their
input bits and rounding, not in the amount of work. That keeps
run-to-run spread a measure of the machine. The lift-check workload also
draws part of its A2 subset from the seed, within pools of one shape and
similar cost.

This module never imports jsrkit; the worker converts the arrays to
MatrixSet, and the reference checks regenerate them from the same seed.
"""

import itertools
import math

import numpy as np

WORKLOADS = ("refine-small", "lift-check", "berger-wang", "cli-cold")

PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN = np.array([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], dtype=float)
HAND = np.array([[[2, 5], [0, 1]], [[1, 7], [0, 3]]], dtype=float)

# A2 acceptance family: seed 20000 + i.  The lifted refines of these
# members converge at the A2 parameters (width 0.05, budget 100000).
# LIFT_CORE always runs: index 2 lifts to d = 4 with 9 generators and a
# lifted refine of about 14,400 nodes, index 25 lifts to d = 9 with 4
# generators and a lifted refine of about 1,000 nodes.  One member of each pool is drawn per seed; members of a
# pool share d and m and cost within a few milliseconds of each other.
LIFT_CORE = (2, 25)
LIFT_POOLS = ((0, 33), (3, 16, 22, 27))
A2_PARAMS = {"n": 4, "tol": 1e-7, "width": 0.05, "budget": 100_000}

JORDAN_WIDTH = 1e-3
JORDAN_BUDGET = 20_000


def a2_member(i):
    """Member i of the A2 family (tests/test_acceptance.py: a2_sets)."""
    rng = np.random.default_rng(20_000 + i)
    d = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    return np.ascontiguousarray(rng.uniform(-1.0, 1.0, (m, d, d)), dtype=complex)


def a4_member(i):
    """Member i of the A4 block-upper family, and its block split."""
    rng = np.random.default_rng(40_000 + i)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    split = int(rng.integers(1, d))
    g = rng.uniform(-1.0, 1.0, (m, d, d))
    g[:, split:, :split] = 0.0
    return np.ascontiguousarray(g, dtype=complex), split


def upper_triangular(seed, d, m, complex_entries):
    rng = np.random.default_rng(seed)
    g = np.triu(rng.uniform(-1.0, 1.0, (m, d, d)))
    if complex_entries:
        g = g + 1j * np.triu(rng.uniform(-1.0, 1.0, (m, d, d)))
    return np.ascontiguousarray(g, dtype=complex)


def jordan_sets():
    """ROADMAP item 2 repro: rng(3), A = S J_d S^-1 for d = 2, 3, 4."""
    rng = np.random.default_rng(3)
    out = []
    for d in (2, 3, 4):
        s = rng.standard_normal((d, d))
        j = np.eye(d) + np.diag(np.ones(d - 1), 1)
        out.append(np.ascontiguousarray((s @ j @ np.linalg.inv(s))[None], dtype=complex))
    return out


def bench_sets():
    """The sets of benchmarks/bench_kernels.py: sweep-2x2, sweep-3x4x4, refine-2x5x5."""
    rng = np.random.default_rng(11)
    s2 = rng.uniform(-1.0, 1.0, (2, 2, 2)) + 0j
    rng = np.random.default_rng(7)
    s4 = rng.uniform(-1.0, 1.0, (3, 4, 4)) + 1j * rng.uniform(-1.0, 1.0, (3, 4, 4))
    s5 = rng.uniform(-1.0, 1.0, (2, 5, 5)) + 1j * rng.uniform(-1.0, 1.0, (2, 5, 5))
    return {"sweep-2x2": np.ascontiguousarray(s2), "sweep-3x4x4": np.ascontiguousarray(s4),
            "refine-2x5x5": np.ascontiguousarray(s5)}


def lift_gens(gens):
    """{x -> a_i x a_j} on column-major vec(x): kron(a_j^T, a_i), row-major (i, j)."""
    return np.ascontiguousarray(
        np.stack([np.kron(b.T, a) for a, b in itertools.product(gens, gens)]))


def frame(rng, gens):
    """Q gens Q^H for a Haar-random Q, real when gens is real."""
    d = gens.shape[1]
    real = not np.any(gens.imag)
    z = rng.standard_normal((d, d))
    if not real:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    out = q @ gens @ q.conj().T
    if real:
        out = out.real
    return np.ascontiguousarray(out, dtype=complex)


def sign_frame(rng, gens):
    """D gens D^H for a random diagonal D of signs (real) or of 1, -1, i, -i.

    Multiplying by these units is exact, so triangular sets stay triangular,
    integer sets stay integer, and the diagonal of every product, with it
    the closed-form rho, is exact.
    """
    units = (1, -1, 1j, -1j) if np.any(gens.imag) else (1, -1)
    z = rng.choice(units, gens.shape[1])
    return np.ascontiguousarray(z[:, None] * gens * z.conj()[None, :], dtype=complex)


def _op(op_id, kind, gens, **kw):
    return {"id": op_id, "kind": kind, "gens": gens, **kw}


def refine_small(rng, toy):
    b = bench_sets()
    ops = [
        _op("golden", "refine", sign_frame(rng, GOLDEN + 0j), width=0.02,
            budget=10**6, rho=PHI),
        _op("refine-2x5x5", "refine", frame(rng, b["refine-2x5x5"]),
            width=0.05 if toy else 0.005, budget=500_000, bracket=8),
    ]
    triu = (("triu-3x3x2", 317, 3, 2, False, 0.05),
            ("triu-2x2x2c", 201, 2, 2, True, 0.002),
            ("triu-2x2x3", 203, 2, 3, False, 0.002))
    for name, seed, d, m, cplx, width in triu:
        g = upper_triangular(seed, d, m, cplx)
        rho = float(np.abs(np.diagonal(g, axis1=1, axis2=2)).max())
        ops.append(_op(name, "refine", sign_frame(rng, g), width=0.05 if toy else width,
                       budget=200_000, rho=rho))
    for d, g in zip((2, 3, 4), jordan_sets()):
        ops.append(_op(f"jordan-d{d}", "refine", g, width=JORDAN_WIDTH,
                       budget=JORDAN_BUDGET, rho=1.0, known_fault=True))
    return ops


def lift_check(rng, toy):
    picks = [int(rng.choice(pool)) for pool in LIFT_POOLS]
    members = picks if toy else list(LIFT_CORE) + picks
    return [_op(f"a2-{i}", "lift", frame(rng, a2_member(i)), **A2_PARAMS)
            for i in members]


def berger_wang(rng, toy):
    b = bench_sets()
    lift9 = lift_gens(frame(rng, a2_member(10)))
    # verify budgets stop the doubling sweeps at depths 8, 4 and 2
    sets = (("sweep-2x2", frame(rng, b["sweep-2x2"]), 6 if toy else 13, 20_000),
            ("sweep-3x4x4", frame(rng, b["sweep-3x4x4"]), 3 if toy else 8, 2_000),
            ("lift-3x3x3", lift9, 2 if toy else 3, 1_000))
    ops = []
    for name, g, depth, budget in sets:
        ops.append(_op(f"{name}-d{depth}", "profiles", g, depth=depth))
        ops.append(_op(f"{name}-bw", "verify", g, tol=1e-12,
                       budget=200 if toy else budget))
    return ops


# cli-cold: (op id, subcommand, set file, extra argv)
CLI_RUNS = (
    ("refine", "refine", "golden", ["--width", "0.02"]),
    ("bounds", "bounds", "hand", ["--depth", "6"]),
    ("verify-bw", "verify-bw", "hand", ["--tol", "0.05", "--budget", "20000"]),
    ("lift-check", "lift-check", "golden", ["--depth", "3"]),
    ("radical", "radical", "block-a", []),
    ("inessential", "inessential", "hand", []),
    ("chain", "chain", "block-b", []),
)
# A4 members used as the block-upper cli inputs: (file name, A4 index)
CLI_BLOCK_SETS = (("block-a", 5), ("block-b", 16))


def cli_sets(rng):
    """name -> (gens, closed-form data) for the cli-cold set files."""
    out = {"golden": (sign_frame(rng, GOLDEN + 0j), {"rho": PHI}),
           "hand": (sign_frame(rng, HAND + 0j), {"rho": 3.0})}
    for name, idx in CLI_BLOCK_SETS:
        g, split = a4_member(idx)
        out[name] = (frame(rng, g), {"blocks": (g[:, :split, :split], g[:, split:, split:])})
    return out


def cli_cold(rng, toy):
    sets = cli_sets(rng)
    runs = CLI_RUNS[:2] if toy else CLI_RUNS
    return [_op(op_id, "cli", sets[f][0], sub=sub, set_name=f, argv=argv, ref=sets[f][1])
            for op_id, sub, f, argv in runs]


_BUILDERS = {"refine-small": refine_small, "lift-check": lift_check,
             "berger-wang": berger_wang, "cli-cold": cli_cold}


def operations(workload, seed, toy=False):
    """The operations of one round of a workload, in the order they run."""
    return _BUILDERS[workload](np.random.default_rng(seed), toy)


def set_file_payload(name, gens):
    """The jsr CLI's JSON matrix-set format."""
    return {"name": name, "dim": int(gens.shape[1]),
            "matrices": [{"re": g.real.tolist(), "im": g.imag.tolist()} for g in gens]}

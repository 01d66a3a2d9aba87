"""Independent reference for the benchmark's output checks.

Shares no code with jsrkit: words are enumerated level by level with
batched numpy matmul, norms come from numpy `svd` and spectral radii from
numpy `eigvals`. Closed-form values (phi for the golden pair, max
|diagonal entry| for upper-triangular sets, 1 for the Jordan blocks) are
carried by the operations themselves; block-upper sets are checked
against the bracket of their diagonal blocks.

Each check returns a list of problems; an empty list means the output
holds every property the method guarantees.
"""

import json
import math

import numpy as np

# relative agreement asked of two computations of the same float quantity
# (same products, different LAPACK drivers)
REL = 1e-8


def tree_size(size, n):
    return sum(size ** k for k in range(1, n + 1))


def profiles(gens, n):
    """Cumulative (r_k, beta_k) for k = 1..n by full enumeration.

    r_k = max over words of length <= k of rho(P_w)^(1/|w|);
    beta_k = min over j <= k of (max over |w| = j of ||P_w||_2)^(1/j).
    """
    mats = np.asarray(gens, dtype=complex)
    d = mats.shape[1]
    prods = mats.copy()
    lo, hi = 0.0, math.inf
    r, beta = [], []
    for k in range(1, n + 1):
        if k > 1:
            prods = (prods[:, None] @ mats[None]).reshape(-1, d, d)
        rho = float(np.abs(np.linalg.eigvals(prods)).max())
        nrm = float(np.linalg.svd(prods, compute_uv=False)[:, 0].max())
        lo = max(lo, rho ** (1.0 / k) if rho > 0 else 0.0)
        hi = min(hi, nrm ** (1.0 / k) if nrm > 0 else 0.0)
        r.append(lo)
        beta.append(hi)
    return np.array(r), np.array(beta)


def bracket(gens, n):
    """[r_n, beta_n]: an interval that contains rho(gens)."""
    r, beta = profiles(gens, n)
    return float(r[-1]), float(beta[-1])


def block_bracket(blocks, n):
    """Bracket for a block-upper set: rho is the max over its diagonal blocks."""
    brs = [bracket(b, n) for b in blocks]
    return max(b[0] for b in brs), max(b[1] for b in brs)


def word_root(gens, word):
    """rho(P_w)^(1/|w|) for the left-to-right product of the word."""
    p = np.eye(gens.shape[1], dtype=complex)
    for i in word:
        p = p @ gens[i]
    rho = float(np.abs(np.linalg.eigvals(p)).max())
    return rho ** (1.0 / len(word)) if rho > 0 else 0.0


def lift(gens):
    """{x -> a x b} on column-major vec(x): kron(b^T, a), row-major (a, b)."""
    return np.stack([np.kron(b.T, a) for a in gens for b in gens])


def algebra_dims(gens):
    """(dim A, dim Rad A) for the algebra spanned by all words (no unit adjoined).

    Span closure by products with the generators; the radical of a matrix
    algebra over C is the kernel of its trace form tr(x y).
    """
    d = gens.shape[1]
    basis = np.zeros((0, d * d), dtype=complex)
    frontier = [g for g in gens]
    while frontier:
        new = []
        for x in frontier:
            v = x.reshape(1, -1)
            cand = np.vstack([basis, v])
            if np.linalg.matrix_rank(cand, tol=1e-9 * max(1.0, np.abs(cand).max())) > basis.shape[0]:
                basis = cand
                new.extend(x @ g for g in gens)
        frontier = new
    mats = basis.reshape(-1, d, d)
    gram = np.einsum("iab,jba->ij", mats, mats)
    rank = np.linalg.matrix_rank(gram, tol=1e-8 * max(1.0, np.abs(gram).max()))
    return mats.shape[0], mats.shape[0] - rank


def _meets(lo, hi, blo, bhi):
    """[lo, hi] and the bracket [blo, bhi] both contain rho, so they meet."""
    return lo <= bhi * (1 + REL) and blo <= hi * (1 + REL)


def _close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def check_interval(op, lo, hi, gens, what="interval"):
    if not lo <= hi:
        return [f"{what} [{lo}, {hi}] is empty"]
    if "rho" in op:
        if not lo <= op["rho"] <= hi:
            return [f"{what} [{lo!r}, {hi!r}] excludes the closed-form rho {op['rho']!r}"]
        return []
    blo, bhi = bracket(gens, op.get("bracket", 6))
    if not _meets(lo, hi, blo, bhi):
        return [f"{what} [{lo!r}, {hi!r}] misses the brute-force bracket [{blo!r}, {bhi!r}]"]
    return []


def check_witness(gens, lower, word):
    if lower <= 0.0:
        return []
    root = word_root(gens, word)
    if not (lower <= root * (1 + REL) and root <= lower * (1 + REL)):
        return [f"witness {word} has root {root!r}, reported lower end {lower!r}"]
    return []


def check_refine(op, res):
    gens = op["gens"]
    probs = check_interval(op, res["lower"], res["upper"], gens)
    probs += check_witness(gens, res["lower"], res["witness"])
    if res["converged"] and res["upper"] - res["lower"] > op["width"] * (1 + 1e-9):
        probs.append("converged, but the interval is wider than asked")
    return probs


def check_lift(op, res):
    gens = op["gens"]
    lo, hi = res["interval"]
    llo, lhi = res["lifted_interval"]
    probs = check_interval(op, lo, hi, gens)
    blo, bhi = bracket(lift(gens), 3)
    if not _meets(llo, lhi, blo, bhi):
        probs.append(f"lifted interval misses the lifted bracket [{blo!r}, {bhi!r}]")
    if not (llo <= hi * hi * (1 + 1e-12) and lo * lo <= lhi * (1 + 1e-12)):
        probs.append("squared interval and lifted interval do not intersect")
    if not (res["r_exact_gap"] <= op["tol"] and res["pass"]):
        probs.append(f"r_k(lift) vs r_k(M)^2 gap {res['r_exact_gap']!r} above {op['tol']}")
    return probs


def check_profiles(op, res):
    r, beta = np.array(res["r"]), np.array(res["beta"])
    probs = []
    if np.any(np.diff(r) < 0) or np.any(np.diff(beta) > 0):
        probs.append("profiles are not monotone")
    if np.any(r > beta * (1 + 1e-12)):
        probs.append("a lower profile value exceeds the upper one")
    rr, bb = profiles(op["gens"], op["depth"])
    if not all(_close(a, b) for a, b in zip(np.r_[r, beta], np.r_[rr, bb])):
        probs.append("profiles differ from the brute-force enumeration")
    return probs


def check_verify(op, res):
    size = op["gens"].shape[0]
    used, depth, n = 0, 0, 1
    while used + tree_size(size, n) <= op["budget"]:
        used += tree_size(size, n)
        depth = n
        n *= 2
    probs = []
    if (res["words_evaluated"], res["depth_reached"]) != (used, depth):
        probs.append(f"evaluated {res['words_evaluated']} words to depth "
                     f"{res['depth_reached']}; the summed tree sizes give {used} to {depth}")
        return probs
    r, beta = profiles(op["gens"], depth)
    if not (_close(res["r_lower"], r[-1]) and _close(res["rho_upper"], beta[-1])):
        probs.append("sandwich ends differ from the brute-force enumeration")
    if res["pass"] != (res["gap"] <= op["tol"]) or res["r_lower"] > res["rho_upper"] * (1 + 1e-12):
        probs.append("pass flag or gap inconsistent")
    return probs


def _cli_closed_form(op, sub, result):
    gens, ref = op["gens"], op["ref"]
    if "rho" not in ref:
        blo, bhi = block_bracket(ref["blocks"], 8)

    def inside(lo, hi, what):
        if "rho" in ref:
            ok, want = lo <= ref["rho"] <= hi, f"the closed-form rho {ref['rho']!r}"
        else:
            ok, want = _meets(lo, hi, blo, bhi), f"the block bracket [{blo!r}, {bhi!r}]"
        return [] if ok else [f"{sub}: {what} [{lo!r}, {hi!r}] misses {want}"]

    if sub == "refine":
        return (inside(result["lower"], result["upper"], "interval")
                + check_witness(gens, result["lower"], result["lower_witness"]))
    if sub == "bounds":
        return (inside(result["lower"], result["upper"], "bounds")
                + check_witness(gens, result["lower"], result["lower_witness"]))
    if sub == "verify-bw":
        return inside(result["r_lower"], result["rho_upper"], "sandwich")
    if sub == "lift-check":
        lo, hi = result["lifted_interval"]
        return (inside(*result["interval"], "interval")
                + ([] if lo <= ref["rho"] ** 2 <= hi else ["lift-check: lifted interval excludes rho^2"]))
    if sub == "radical":
        want = algebra_dims(gens)
        got = (result["algebra_dim"], result["radical_dim"])
        return [] if got == want else [f"radical: (dim A, dim Rad) {got}, reference {want}"]
    if sub == "inessential":
        return inside(*result["rho_full"], "full") + inside(*result["rho_quotient"], "quotient")
    if sub == "chain":
        rows = result["rows"] + [result["final_direct"]]
        return [p for row in rows for p in inside(row["lower"], row["upper"], "chain row")]
    return [f"no check for subcommand {sub}"]


# exit status the CLI must give for a report: 0 when the check passed or
# the refine converged, 2 when it ran but did not
_EXPECTED_CODE = {
    "refine": lambda r: 0 if r["converged"] else 2,
    "bounds": lambda r: 0,
    "verify-bw": lambda r: 0 if r["pass"] else 2,
    "lift-check": lambda r: 0 if r["pass"] and r["w_pass"] else 2,
    "radical": lambda r: 0,
    "inessential": lambda r: 0 if r["pass"] else 2,
    "chain": lambda r: 0,
}


def check_cli(op, res):
    if not res["stable"]:
        return [f"{op['sub']}: stdout differs between invocations"]
    try:
        report = json.loads(res["stdout"])
    except json.JSONDecodeError:
        return [f"{op['sub']}: exit {res['code']}, stdout is not a JSON report"]
    result = report["result"]
    want = _EXPECTED_CODE[op["sub"]](result)
    if res["code"] != want or report["exit_status"] != want:
        return [f"{op['sub']}: exit {res['code']}, the report asks for {want}"]
    return _cli_closed_form(op, op["sub"], result)


CHECKS = {"refine": check_refine, "lift": check_lift, "profiles": check_profiles,
          "verify": check_verify, "cli": check_cli}


def check(op, res):
    return CHECKS[op["kind"]](op, res)

"""Command line front end.

Input format (JSON): {"name"?: str, "dim": int, "matrices": [{"re": [[..]],
"im"?: [[..]]}, ...]} with dim x dim numeric rows.  Reports go to stdout
(--format text|json); wall time and diagnostics go to stderr so that
identical (input, parameters, version) invocations produce byte-identical
report streams.  The wall_time_s line measures from after argument
parsing to the end of the report: interpreter start and imports are not
in it.  --norm picks the norm of every bound: --norm frobenius calls
them with frobenius=True.

Exit status: 0 on pass/converged, 2 when a check computed fine but did
not pass (or did not converge), 64 (EX_USAGE) on a usage error, 1 on any
other error.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config
from .algebra import (check_inessential, generated_subalgebra,
                      ideal_chain_monotonicity, jacobson_radical, quotient,
                      radical_power_chain)
from .bounds import (_as_dict, _eps_schedule, continuity_probe,
                     lower_bound_r, refine, upper_bound, verify_berger_wang)
from .errors import CapExceeded, JsrError, ParseError, ShapeError
from .lift import check_lift_identities, check_w_product_identity
from .matrices import frobenius_norm
from .sets import MatrixSet


def load_matrix_set(path: str) -> tuple[MatrixSet, str]:
    """Parse a set file; returns (set, sha256 hex digest of the bytes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise JsrError(f"cannot read {path}: {e}") from e
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from e
    except (ValueError, RecursionError) as e:
        # integers past Python's digit limit, or nesting past the stack
        raise ParseError(f"input exceeds the JSON parser's limits: {e}") from e

    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError('"name" must be a string')
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError('"dim" must be an integer >= 1')
    mats = data.get("matrices")
    if not isinstance(mats, list) or not mats:
        raise ParseError('"matrices" must be a nonempty array')

    def grid(entry, key, index, required):
        rows = entry.get(key)
        if rows is None:
            if required:
                raise ShapeError(f'missing "{key}"', index)
            return np.zeros((dim, dim))
        if not isinstance(rows, list) or len(rows) != dim:
            raise ShapeError(f'"{key}" must have {dim} rows', index)
        out = np.empty((dim, dim))
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ShapeError(f'"{key}" row {r} must have {dim} entries', index)
            for c, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ShapeError(f'"{key}"[{r}][{c}] is not a number', index)
                try:
                    out[r, c] = v
                except OverflowError:  # an integer beyond the float range
                    out[r, c] = math.inf
                if not math.isfinite(out[r, c]):
                    raise ShapeError(f'"{key}"[{r}][{c}] is not finite', index)
        return out

    arrays = []
    for i, entry in enumerate(mats):
        if not isinstance(entry, dict):
            raise ShapeError("matrix entry must be an object", i)
        re = grid(entry, "re", i, required=True)
        im = grid(entry, "im", i, required=False)
        arrays.append(re + 1j * im)
    return MatrixSet(np.stack(arrays), name), digest


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _nonnegative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


def _positive_float(text: str) -> float:
    v = float(text)
    if not (v > 0) or not math.isfinite(v):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return v


def _eps_list(text: str) -> list[float]:
    try:
        return _eps_schedule(float(x) for x in text.split(",") if x.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


# sysexits.h EX_USAGE: argparse's own code, 2, means a check did not pass
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EX_USAGE; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="jsr",
        description="Certified joint-spectral-radius bounds and algebra checks")
    p.add_argument("--version", action="version", version=f"jsrkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, budget_default):
        sp.add_argument("input", help="JSON matrix-set file")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--norm", choices=(config.NORM_SPECTRAL, config.NORM_FROBENIUS),
                        default=config.NORM_SPECTRAL)
        sp.add_argument("--max-dim", type=_positive_int, default=config.MAX_DIM)
        sp.add_argument("--max-generators", type=_positive_int,
                        default=config.MAX_GENERATORS)
        sp.add_argument("--budget", type=_positive_int, default=budget_default,
                        help="word evaluation budget")

    sp = sub.add_parser("bounds", help="depth-limited sandwich bounds")
    common(sp, 10**6)
    sp.add_argument("--depth", type=_positive_int, default=6)

    sp = sub.add_parser("refine", help="branch-and-bound interval for rho")
    common(sp, 10**6)
    sp.add_argument("--width", type=_positive_float, default=0.01)

    sp = sub.add_parser("verify-bw", help="drive the sandwich to a target gap")
    common(sp, 10**6)
    sp.add_argument("--tol", type=_positive_float, default=1e-6)

    sp = sub.add_parser("lift-check", help="two-sided multiplication lift identities")
    common(sp, 200_000)
    sp.add_argument("--depth", type=_positive_int, default=4)
    sp.add_argument("--tol", type=_positive_float, default=1e-7)
    sp.add_argument("--width", type=_positive_float, default=0.05)

    sp = sub.add_parser("radical", help="generated subalgebra and its radical")
    common(sp, 10**5)
    sp.add_argument("--max-algebra-dim", type=_positive_int, default=64)

    sp = sub.add_parser("inessential", help="does killing the radical change rho?")
    common(sp, 200_000)
    sp.add_argument("--width", type=_positive_float, default=0.05)
    sp.add_argument("--max-algebra-dim", type=_positive_int, default=64)

    sp = sub.add_parser("chain", help="rho along quotients by radical powers")
    common(sp, 10**5)
    sp.add_argument("--width", type=_positive_float, default=0.02)
    sp.add_argument("--max-algebra-dim", type=_positive_int, default=64)

    sp = sub.add_parser("continuity", help="interval deviation under perturbations")
    common(sp, 50_000)
    sp.add_argument("--eps", type=_eps_list, default=[0.1, 0.03, 0.01],
                    help="comma-separated nonincreasing schedule")
    sp.add_argument("--trials", type=_positive_int, default=20)
    sp.add_argument("--seed", type=_nonnegative_int, default=0)

    return p


def _enforce_caps(args, M: MatrixSet) -> None:
    if args.max_dim > config.MAX_DIM:
        raise CapExceeded(f"--max-dim may only lower the cap {config.MAX_DIM}")
    if args.max_generators > config.MAX_GENERATORS:
        raise CapExceeded(
            f"--max-generators may only lower the cap {config.MAX_GENERATORS}")
    if args.budget > config.MAX_WORDS:
        raise CapExceeded(f"--budget may only lower the cap {config.MAX_WORDS}")
    if M.dim > args.max_dim:
        raise CapExceeded(f"input dimension {M.dim} exceeds cap {args.max_dim}")
    if M.size > args.max_generators:
        raise CapExceeded(f"{M.size} generators exceed cap {args.max_generators}")


def _run_command(args, M: MatrixSet, frobenius: bool):
    """Returns (params dict, result dict, exit code)."""
    cmd = args.command
    if cmd == "bounds":
        lo = lower_bound_r(M, args.depth, budget=args.budget)
        up = upper_bound(M, args.depth, budget=args.budget, frobenius=frobenius)
        params = {"depth": args.depth, "budget": args.budget}
        result = {"lower": lo.value, "lower_witness": list(lo.witness), "upper": up}
        return params, result, 0

    if cmd == "refine":
        rep = refine(M, args.width, args.budget, frobenius=frobenius)
        params = {"width": args.width, "budget": args.budget}
        return params, rep.to_dict(), 0 if rep.converged else 2

    if cmd == "verify-bw":
        rep = verify_berger_wang(M, args.tol, args.budget, frobenius=frobenius)
        params = {"tol": args.tol, "budget": args.budget}
        return params, rep.to_dict(), 0 if rep.passed else 2

    if cmd == "lift-check":
        rep = check_lift_identities(M, args.depth, tol=args.tol, width=args.width,
                                    budget=args.budget, frobenius=frobenius)
        w_resid = 0.0
        w_slack = 0.0
        for a in M.generators:
            for b in M.generators:
                w_resid = max(w_resid, check_w_product_identity(a, b))
                w_slack = max(w_slack, 1e-10 * (frobenius_norm(a) * frobenius_norm(b)) ** 2)
        w_pass = w_resid <= max(w_slack, 1e-300)
        params = {"depth": args.depth, "tol": args.tol, "width": args.width,
                  "budget": args.budget}
        result = rep.to_dict()
        result["w_residual_max"] = w_resid
        result["w_pass"] = w_pass
        ok = rep.passed and w_pass
        return params, result, 0 if ok else 2

    if cmd == "radical":
        A = generated_subalgebra(M, args.max_algebra_dim)
        rad = jacobson_radical(A)
        Q = quotient(A, rad)
        params = {"max_algebra_dim": args.max_algebra_dim}
        result = {"algebra_dim": A.dim, "unital": A.unital,
                  "radical_dim": rad.dim, "quotient_rep_dim": Q.rep_dim}
        return params, result, 0

    if cmd == "inessential":
        rep = check_inessential(M, width=args.width, budget=args.budget,
                                max_dim=args.max_algebra_dim, frobenius=frobenius)
        params = {"width": args.width, "budget": args.budget,
                  "max_algebra_dim": args.max_algebra_dim}
        return params, rep.to_dict(), 0 if rep.passed else 2

    if cmd == "chain":
        A = generated_subalgebra(M, args.max_algebra_dim)
        chain = radical_power_chain(A)
        rep = ideal_chain_monotonicity(M, chain, width=args.width,
                                       budget=args.budget, frobenius=frobenius)
        params = {"width": args.width, "budget": args.budget,
                  "max_algebra_dim": args.max_algebra_dim}
        return params, rep.to_dict(), 0

    if cmd == "continuity":
        rows = continuity_probe(M, args.eps, args.trials, args.seed,
                                budget=args.budget, frobenius=frobenius)
        params = {"eps": args.eps, "trials": args.trials, "seed": args.seed,
                  "budget": args.budget}
        result = {"rows": [_as_dict(r) for r in rows]}
        code = 0 if all(r.complete for r in rows) else 2
        return params, result, code

    raise JsrError(f"unknown command {cmd}")


def _emit_text(report: dict, out) -> None:
    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            out.write(f"{prefix} = {value}\n")

    walk("", report)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    frobenius = args.norm == config.NORM_FROBENIUS
    try:
        M, digest = load_matrix_set(args.input)
        _enforce_caps(args, M)
        params, result, code = _run_command(args, M, frobenius)
    except JsrError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {
        "tool": "jsrkit",
        "version": __version__,
        "command": args.command,
        "input": args.input,
        "input_digest": f"sha256:{digest}",
        "name": M.name,
        "dim": M.dim,
        "generators": M.size,
        "norm": args.norm,
        "params": params,
        "result": result,
        "exit_status": code,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        _emit_text(report, sys.stdout)
    print(f"wall_time_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

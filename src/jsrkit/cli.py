"""Command line front end.

Input format (JSON): {"name"?: str, "dim": int, "matrices": [{"re": [[..]],
"im"?: [[..]]}, ...]} with dim x dim numeric rows.  Reports go to stdout
(--format text|json); wall time and diagnostics go to stderr so that
identical (input, parameters, version) invocations produce byte-identical
report streams.  The wall_time_s line measures from after argument
parsing to the end of the report: interpreter start and imports are not
in it.  --norm picks the norm of every bound: --norm frobenius calls
them with frobenius=True.  radical bounds nothing, so it takes neither
--norm nor --budget and reports "norm" as null.  "params" echoes a
subcommand's own flags in declaration order, the order --help lists.

Exit status: 0 on pass/converged, 2 when a check computed fine but did
not pass (or did not converge), 64 (EX_USAGE) on a usage error, 1 on any
other error.  lift-check passes when its report's pass and w_pass both
hold.
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
from .bounds import (_as_dict, _eps_schedule, _positive_finite, continuity_probe,
                     lower_bound_r, refine, upper_bound, verify_berger_wang)
from .errors import CapExceeded, JsrError, ParseError, ShapeError
from .lift import check_lift_identities
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
    if dim > config.MAX_DIM:  # before any dim x dim grid is allocated
        raise CapExceeded(f"input dimension {dim} exceeds cap {config.MAX_DIM}")
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
    try:
        return _positive_finite(float(text), "value")
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


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

    def command(name, help, *flags):
        """Flags are (name, type, default[, help]); params echo them in this order."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("input", help="JSON matrix-set file")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--max-dim", type=_positive_int, default=config.MAX_DIM)
        sp.add_argument("--max-generators", type=_positive_int, default=config.MAX_GENERATORS)
        # radical has neither --norm nor --budget; a flag's own default wins
        sp.set_defaults(params=[f[0].replace("-", "_") for f in flags], norm=None, budget=None)
        for flag, parse, default, *text in flags:
            if flag == "budget":  # a bound on rho: its norm is picked too
                sp.add_argument("--norm", choices=(config.NORM_SPECTRAL, config.NORM_FROBENIUS),
                                default=config.NORM_SPECTRAL)
            sp.add_argument(f"--{flag}", type=parse, default=default, help=text[0] if text else None)

    def budget(default):
        return ("budget", _positive_int, default, "word evaluation budget")

    algebra_dim = ("max-algebra-dim", _positive_int, 64)
    command("bounds", "depth-limited sandwich bounds",
            ("depth", _positive_int, 6), budget(10**6))
    command("refine", "branch-and-bound interval for rho",
            ("width", _positive_float, 0.01), budget(10**6))
    command("verify-bw", "drive the sandwich to a target gap",
            ("tol", _positive_float, 1e-6), budget(10**6))
    command("lift-check", "two-sided multiplication lift identities",
            ("depth", _positive_int, 4), ("tol", _positive_float, 1e-7),
            ("width", _positive_float, 0.05), budget(200_000))
    command("radical", "generated subalgebra and its radical", algebra_dim)
    command("inessential", "does killing the radical change rho?",
            ("width", _positive_float, 0.05), budget(200_000), algebra_dim)
    command("chain", "rho along quotients by radical powers",
            ("width", _positive_float, 0.02), budget(10**5), algebra_dim)
    command("continuity", "interval deviation under perturbations",
            ("eps", _eps_list, [0.1, 0.03, 0.01], "comma-separated nonincreasing schedule"),
            ("trials", _positive_int, 20), ("seed", _nonnegative_int, 0), budget(50_000))
    return p


def _enforce_caps(args, M: MatrixSet) -> None:
    for flag, value, cap in (("--max-dim", args.max_dim, config.MAX_DIM),
                             ("--max-generators", args.max_generators, config.MAX_GENERATORS),
                             ("--budget", args.budget, config.MAX_WORDS)):
        if value is not None and value > cap:  # radical has no budget
            raise CapExceeded(f"{flag} may only lower the cap {cap}")
    if M.dim > args.max_dim:
        raise CapExceeded(f"input dimension {M.dim} exceeds cap {args.max_dim}")
    if M.size > args.max_generators:
        raise CapExceeded(f"{M.size} generators exceed cap {args.max_generators}")


def _run_command(args, M: MatrixSet, frobenius: bool):
    """Returns (result dict, exit code)."""
    cmd = args.command
    if cmd == "bounds":
        lo = lower_bound_r(M, args.depth, budget=args.budget)
        up = upper_bound(M, args.depth, budget=args.budget, frobenius=frobenius)
        return {"lower": lo.value, "lower_witness": list(lo.witness), "upper": up}, 0

    if cmd == "refine":
        rep = refine(M, args.width, args.budget, frobenius=frobenius)
        return rep.to_dict(), 0 if rep.converged else 2

    if cmd == "verify-bw":
        rep = verify_berger_wang(M, args.tol, args.budget, frobenius=frobenius)
        return rep.to_dict(), 0 if rep.passed else 2

    if cmd == "lift-check":
        rep = check_lift_identities(M, args.depth, tol=args.tol, width=args.width,
                                    budget=args.budget, frobenius=frobenius)
        return rep.to_dict(), 0 if rep.passed and rep.w_pass else 2

    if cmd == "radical":
        A = generated_subalgebra(M, args.max_algebra_dim)
        rad = jacobson_radical(A)
        Q = quotient(A, rad)
        return {"algebra_dim": A.dim, "unital": A.unital,
                "radical_dim": rad.dim, "quotient_rep_dim": Q.rep_dim}, 0

    if cmd == "inessential":
        rep = check_inessential(M, width=args.width, budget=args.budget,
                                max_dim=args.max_algebra_dim, frobenius=frobenius)
        return rep.to_dict(), 0 if rep.passed else 2

    if cmd == "chain":
        A = generated_subalgebra(M, args.max_algebra_dim)
        chain = radical_power_chain(A)
        rep = ideal_chain_monotonicity(M, chain, width=args.width,
                                       budget=args.budget, frobenius=frobenius)
        return rep.to_dict(), 0

    # continuity: argparse admits no other command
    rows = continuity_probe(M, args.eps, args.trials, args.seed,
                            budget=args.budget, frobenius=frobenius)
    return {"rows": [_as_dict(r) for r in rows]}, 0 if all(r.complete for r in rows) else 2


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
        result, code = _run_command(args, M, frobenius)
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
        "params": {dest: getattr(args, dest) for dest in args.params},
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

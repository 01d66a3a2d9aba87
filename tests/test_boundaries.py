"""Module boundaries, checked on the source with ast.

The engine's sweep maxima leave _kernels as (mantissa, power-of-two
exponent, rank) triples, and refine's witness rule shaves by
_kernels._EIG_SAFETY.  sets._sweep is the one decoder of the triples and
_kernels.witness_root the one re-measure of a witness, so no other module
names the helpers that read that format.  _kernels.scale, x * 2**e or inf
past the double range, decodes no format, and any module may call it.

_kernels also makes every eigensolve and turns LAPACK's failure into
NonConvergence, so no other module calls np.linalg.eigvals or eigvalsh or
numpy's LAPACK gufuncs (numpy.linalg._umath_linalg) behind them.

The lift identities and their pass rules live in lift's report, so the
CLI takes check_lift_identities from lift and nothing from matrices.

A k-th root is taken by _kernels.root alone: no other function raises to
a power whose exponent is a quotient, such as x ** (1.0 / k).

refine's search forms a step's children with one matmul and fits the
ones it opens with one _fit_rows, as a sweep forms and fits a level; a
single generator's path is formed, product by product, only in _path.

The search decides in one space: its cut, like its other tests, compares
k-th roots, so refine_pass and _measure take no logarithm.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jsrkit"
FORMAT = {"root", "word_product", "_EIG_SAFETY"}
OWNERS = {"_kernels.py", "sets.py"}


def format_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import or attribute read of FORMAT from _kernels."""
    tree = ast.parse(source)
    names = {"_kernels"} | _aliases(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_kernels"):
            uses += [(node.lineno, a.name) for a in node.names if a.name in FORMAT | {"*"}]
        elif isinstance(node, ast.Attribute) and node.attr in FORMAT:
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if name in names:
                uses.append((node.lineno, node.attr))
    return sorted(uses)


def _aliases(tree) -> set[str]:
    """Local names bound to the _kernels module by an `as` import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {a.asname for a in node.names
                    if a.asname and a.name.rsplit(".", 1)[-1] == "_kernels"}
    return out


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name not in OWNERS)


@pytest.mark.parametrize("module", MODULES)
def test_only_kernels_and_sets_read_the_engine_format(module):
    assert format_uses((SRC / module).read_text()) == []


def test_every_module_is_checked():
    assert {"algebra.py", "bounds.py", "cli.py", "lift.py", "matrices.py"} <= set(MODULES)


def test_detector_sees_each_form():
    source = "\n".join([
        "from ._kernels import Memo, root",
        "from jsrkit._kernels import *",
        "from . import _kernels",
        "import jsrkit._kernels as k",
        "_kernels._EIG_SAFETY",
        "k.root(1.0, 0, 2)",
        "jsrkit._kernels.word_product(g, w)",
        "_kernels.radii(s)",
        "other.root",
        "_kernels.scale(1.0, 2)",
    ])
    assert format_uses(source) == [(1, "root"), (2, "*"), (5, "_EIG_SAFETY"),
                                   (6, "root"), (7, "word_product")]


SOLVES = {"eigvals", "eigvalsh", "_umath_linalg"}
SOLVER_MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "_kernels.py")


def solver_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import or attribute read of eigvals, eigvalsh
    or numpy's _umath_linalg."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, a.name) for a in node.names if a.name in SOLVES]
        elif isinstance(node, ast.Attribute) and node.attr in SOLVES:
            uses.append((node.lineno, node.attr))
    return sorted(uses)


@pytest.mark.parametrize("module", SOLVER_MODULES)
def test_only_kernels_calls_the_eigensolvers(module):
    assert solver_uses((SRC / module).read_text()) == []


def test_solver_detector_sees_each_form():
    source = "\n".join([
        "np.linalg.eigvals(a)",
        "from numpy.linalg import eigvalsh as h",
        "linalg.eigvalsh(g)",
        "np.linalg.svd(a)",
        "eigvals = 1",
        "from numpy.linalg import _umath_linalg",
        "np.linalg._umath_linalg.eigvalsh_lo(g)",
    ])
    assert solver_uses(source) == [(1, "eigvals"), (2, "eigvalsh"), (3, "eigvalsh"),
                                   (6, "_umath_linalg"), (7, "_umath_linalg")]
    assert "sets.py" in SOLVER_MODULES and solver_uses((SRC / "_kernels.py").read_text())


def package_imports(source: str) -> dict[str, set[str]]:
    """module -> names imported from it, for every jsrkit module; a module
    imported whole takes "*"."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not (node.level or module.startswith("jsrkit")):
                continue
            if module in ("", "jsrkit"):  # from . import lift
                for a in node.names:
                    out.setdefault(a.name, set()).add("*")
            else:
                out.setdefault(module.rsplit(".", 1)[-1], set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("jsrkit."):
                    out.setdefault(a.name.rsplit(".", 1)[-1], set()).add("*")
    return out


def test_cli_takes_only_the_lift_report():
    uses = package_imports((SRC / "cli.py").read_text())
    assert "matrices" not in uses
    assert uses["lift"] == {"check_lift_identities"}


def test_import_detector_sees_each_form():
    source = "\n".join([
        "from .matrices import frobenius_norm",
        "from .lift import check_lift_identities, check_w_product_identity",
        "from . import lift",
        "import jsrkit.matrices as m",
        "from jsrkit.sets import MatrixSet",
        "from numpy import linalg",
    ])
    assert package_imports(source) == {
        "matrices": {"frobenius_norm", "*"},
        "lift": {"check_lift_identities", "check_w_product_identity", "*"},
        "sets": {"MatrixSet"}}


POWERS = {"pow", "power", "float_power"}


def root_powers(source: str) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function or None) of every power whose
    exponent is a division: x ** (a / b), x **= a / b, pow(x, a / b) or
    np.power(x, a / b)."""
    uses = []

    def is_div(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Pow):
                exponent = child.right if isinstance(child, ast.BinOp) else child.value
                if is_div(exponent):
                    uses.append((child.lineno, fn))
            elif isinstance(child, ast.Call) and len(child.args) == 2:
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in POWERS and is_div(child.args[1]):
                    uses.append((child.lineno, fn))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else fn)

    visit(ast.parse(source), None)
    return sorted(uses, key=lambda u: u[0])


def test_only_kernels_root_takes_a_kth_root():
    found = {(path.name, fn) for path in SRC.glob("*.py")
             for _, fn in root_powers(path.read_text())}
    assert found == {("_kernels.py", "root")}


def test_power_detector_sees_each_form():
    source = "\n".join([
        "def f(x, k):",
        "    return x ** (1.0 / k)",
        "def g(e, k):",
        "    h = 2.0 ** (e / (2 * k))",
        "    def inner(y):",
        "        y **= 1 / k",
        "        return pow(y, 1 / 3) + np.power(y, k / 2)",
        "    return h ** 2, h ** k, 1.0 / k, pow(h, 2), math.sqrt(h / 2)",
        "z = w ** (1 / 2)",
    ])
    assert root_powers(source) == [(2, "f"), (4, "g"), (6, "inner"), (7, "inner"),
                                   (7, "inner"), (9, None)]


PRODUCT_CALLS = {"matmul", "dot", "_fit", "_fit_rows"}


def _function(source: str, function: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == function)


def product_forms(source: str, function: str) -> list[tuple[int, str]]:
    """(line, form) of every matrix product (@ or @=) and every matmul,
    dot, _fit or _fit_rows call in the named function."""
    uses = []
    for node in ast.walk(_function(source, function)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in PRODUCT_CALLS:
                uses.append((node.lineno, name))
    return sorted(uses)


def test_product_detector_sees_each_form():
    source = "\n".join([
        "def refine_pass(a, b):",
        "    c = a @ b",
        "    c @= b",
        "    np.matmul(a, b, out=c)",
        "    p, e = _fit(c)",
        "    q, s = _kernels._fit_rows(c)",
        "    c = np.dot(a, b, c)",
        "    return matmul(a, b), a * b, fit(a)",
        "def other(a, b):",
        "    return a @ b",
    ])
    assert product_forms(source, "refine_pass") == [
        (2, "@"), (3, "@"), (4, "matmul"), (5, "_fit"), (6, "_fit_rows"), (7, "dot"),
        (8, "matmul")]
    assert product_forms(source, "other") == [(10, "@")]
    assert product_forms((SRC / "_kernels.py").read_text(), "refine_pass")


def test_products_are_formed_in_three_places():
    # sweep_tree forms a level and refine_pass a step with one matmul and
    # fits it with one _fit_rows; a single generator's path, fitted product
    # by product, is formed only in _path
    source = (SRC / "_kernels.py").read_text()
    for function in ("sweep_tree", "refine_pass"):
        assert [form for _, form in product_forms(source, function)] == ["matmul", "_fit_rows"]
    assert sorted(form for _, form in product_forms(source, "_path")) == ["_fit", "dot"]


LOGS = {"log", "log2", "log10", "log1p"}


def log_uses(source: str, function: str) -> list[tuple[int, str]]:
    """(line, name) of every logarithm the named function names, as a
    name (log(x)) or an attribute (np.log(x), math.log2)."""
    uses = []
    for node in ast.walk(_function(source, function)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in LOGS:
            uses.append((node.lineno, name))
    return sorted(uses)


@pytest.mark.parametrize("function", ["refine_pass", "_measure"])
def test_a_pass_takes_no_logarithm(function):
    assert log_uses((SRC / "_kernels.py").read_text(), function) == []


def test_log_detector_sees_each_form():
    source = "\n".join([
        "def refine_pass(x, e, k):",
        "    t = np.log(x) + e * math.log2(2.0)",
        "    u = log10(x) if k else np.log1p(x)",
        "    f = np.log",
        "    return memo.log_norm, logit(x), x.logs, log_thr",
        "def other(x):",
        "    return log(x)",
    ])
    assert log_uses(source, "refine_pass") == [
        (2, "log"), (2, "log2"), (3, "log10"), (3, "log1p"), (4, "log")]
    assert log_uses(source, "other") == [(7, "log")]
    assert log_uses((SRC / "_kernels.py").read_text(), "_path")

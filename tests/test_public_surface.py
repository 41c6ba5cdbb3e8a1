"""Every public name of rittcalc has a caller outside the tests.

A name in a module's ``__all__`` is reached when code in ``src/`` or
``bench/`` refers to it outside its own definition (a name, an
attribute of its module or an import; strings and docstrings do not
count), or when the benchmark tracer wraps it.  The few paper
identities that no report reaches yet wait on the roadmap item that
will wire them in; the one other exception is a constructor kept for
library callers.
"""

import ast
import importlib.util
from pathlib import Path

import rittcalc
import rittcalc.cli  # noqa: F401  (the package does not import it)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rittcalc"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

#: module.name -> why it may stay unreached: the roadmap item that will
#: put it in a report, or its use to library callers
ALLOWED_UNREACHED = {
    "stolz.contour_moment": "item 7",
    "funcalc.nevanlinna_diag": "item 7",
    "lab.decomp_convergence": "item 7",
    "lab.pairing_bound_check": "item 7",
    "sqfun.rad_rad_norm": "item 7",
    "sqfun.quadratic_calc_ratio": "item 7",
    "sqfun.matrix_calc_ratio": "item 7",
    "sqfun.sfe_family": "item 7",
    "sqfun.nc_khintchine_report": "item 11",
    "funcalc.rational": "user-facing constructor, the rational counterpart of poly",
}


def _traced() -> set:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {f"{module}.{attr.split('.')[0]}" for module, attr in mod.TRACED}


def _owner(node):
    """The module name an attribute is taken from: ``x`` in ``x.f`` and
    in ``a.x.f``; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _References(ast.NodeVisitor):
    """module.name for every reference in one file, except those inside
    the top-level definition of that very name."""

    def __init__(self, module: str):
        self.module, self.inside, self.found = module, None, set()

    def _definition(self, node):
        outer = self.inside
        if outer is None:
            self.inside = node.name
        self.generic_visit(node)
        self.inside = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if node.id != self.inside:
            self.found.add(f"{self.module}.{node.id}")

    def visit_Attribute(self, node):
        owner = _owner(node.value)
        if owner in MODULES and not (owner == self.module and node.attr == self.inside):
            self.found.add(f"{owner}.{node.attr}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        owner = (node.module or "").split(".")[-1]
        self.found.update(f"{owner}.{alias.name}" for alias in node.names)


def _reached() -> set:
    found = _traced()
    files = [(p.stem, p) for p in SRC.glob("*.py")] + \
        [("bench", p) for p in (ROOT / "bench").glob("*.py")]
    for module, path in files:
        refs = _References(module)
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= refs.found
    return found


def _public() -> set:
    return {f"{m}.{name}" for m in MODULES
            for name in getattr(getattr(rittcalc, m), "__all__", ())}


def test_every_public_name_exists():
    missing = [n for n in sorted(_public())
               if not hasattr(getattr(rittcalc, n.split(".")[0]), n.split(".")[1])]
    assert not missing, missing


def test_every_public_name_is_reached_outside_the_tests():
    unreached = sorted(_public() - _reached() - set(ALLOWED_UNREACHED))
    assert not unreached, unreached


def test_the_allowlist_holds_only_unreached_public_names():
    allowed = set(ALLOWED_UNREACHED)
    assert allowed <= _public(), sorted(allowed - _public())
    assert not allowed & _reached(), sorted(allowed & _reached())

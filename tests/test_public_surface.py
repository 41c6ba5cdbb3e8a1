"""Every public name and every public option of rittcalc has a caller
outside the tests.

Every module declares its public names in an ``__all__``.  A name there
is reached when code in ``src/`` or ``bench/`` refers to it outside its
own definition (a name read, an attribute of its module or an import;
strings, docstrings, assignment targets and dataclass fields do not
count), or when the benchmark tracer wraps it.  The few paper
identities that no report reaches yet wait on the roadmap item that
will wire them in; the one other exception is a constructor kept for
library callers.

An option is a parameter with a default of a public function or of the
constructor of a public class (a dataclass's fields).  It is set when a
call in ``src/`` or ``bench/`` to a callable of that name passes it, by
keyword or by position; a value that no caller sets is a module constant
instead, unless the option allowlist gives the reason to keep it.
"""

import ast
import importlib.util
import inspect
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

#: the test family's sizes, which bench/workloads.py passes as one dict
_FAMILY_DICT = 'bench/workloads.py sets it through **p["family"], which the scan cannot attribute'

#: module.callable.option -> why it stays settable with no caller outside the tests
ALLOWED_UNSET = {
    "funcalc.frac_power.beta": "a calculus angle, whose independence the tests check",
    "funcalc.transfer_check.nu": "a calculus angle, whose independence the tests check",
    "sqfun.SFConfig.side": "item 11",
    "sqfun.rad_norm.mode": "the Monte Carlo route past EXACT_ENUM_MAX, item 1",
    "sqfun.rad_norm.samples": "the Monte Carlo route past EXACT_ENUM_MAX, item 1",
    "sqfun.rad_norm.seed": "the Monte Carlo route past EXACT_ENUM_MAX, item 1",
    "funcalc.nevanlinna_diag.gamma": "item 7",
    "lab.pairing_bound_check.N": "item 7",
    "lab.pairing_bound_check.tail_tol": "item 7",
    "sqfun.sfe_family.exponent": "item 7",
    "stolz.contour_moment.mesh": "item 7",
    "funcalc.rational.label": "user-facing constructor, labelled as poly is",
    "funcalc.default_test_family.max_k": _FAMILY_DICT,
    "funcalc.default_test_family.max_j": _FAMILY_DICT,
    "funcalc.default_test_family.n_random": _FAMILY_DICT,
    "funcalc.default_test_family.random_deg": _FAMILY_DICT,
    "funcalc.default_test_family.n_fejer": _FAMILY_DICT,
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
    the top-level definition of that very name.  A bare name counts only
    where it is read, so a field or a variable of the same name does not."""

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
        if isinstance(node.ctx, ast.Load) and node.id != self.inside:
            self.found.add(f"{self.module}.{node.id}")

    def visit_Attribute(self, node):
        owner = _owner(node.value)
        if owner in MODULES and not (owner == self.module and node.attr == self.inside):
            self.found.add(f"{owner}.{node.attr}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        owner = (node.module or "").split(".")[-1]
        self.found.update(f"{owner}.{alias.name}" for alias in node.names)


def _scanned() -> list:
    """(module, syntax tree) of every file in src/ and bench/."""
    files = [(p.stem, p) for p in SRC.glob("*.py")] + \
        [("bench", p) for p in (ROOT / "bench").glob("*.py")]
    return [(module, ast.parse(path.read_text(encoding="utf-8"))) for module, path in files]


def _reached() -> set:
    found = _traced()
    for module, tree in _scanned():
        refs = _References(module)
        refs.visit(tree)
        found |= refs.found
    return found


def _public() -> set:
    return {f"{m}.{name}" for m in MODULES for name in getattr(rittcalc, m).__all__}


def test_a_reference_reads_the_name():
    # a field or an assignment target that shares a public function's name
    # does not reach that function; a call does
    tree = ast.parse(
        "@dataclass\n"
        "class Report:\n"
        "    power_bound: float\n"
        "def verdict(T):\n"
        "    increment_bound = 0.0\n"
        "    return Report(power_bound=decay_suprema(T))\n")
    refs = _References("ritt")
    refs.visit(tree)
    assert "ritt.decay_suprema" in refs.found
    assert not {"ritt.power_bound", "ritt.increment_bound"} & refs.found


def test_every_module_declares_its_public_names():
    assert [m for m in MODULES if not hasattr(getattr(rittcalc, m), "__all__")] == []


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


def _options() -> dict:
    """module.callable.option -> (callable name, position or None) for every
    public option; parameters led by an underscore are private."""
    out = {}
    for name in sorted(_public()):
        module, attr = name.split(".")
        try:
            params = inspect.signature(getattr(getattr(rittcalc, module), attr)).parameters
        except (TypeError, ValueError):  # a constant, or a builtin exception's constructor
            continue
        for pos, p in enumerate(params.values()):
            if p.default is not p.empty and not p.name.startswith("_"):
                positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                out[f"{name}.{p.name}"] = (attr, pos if positional else None)
    return out


def _unset() -> set:
    """The public options that no call in src/ or bench/ passes."""
    passed = {}  # callable name -> the keywords and positions some call passes
    for _, tree in _scanned():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _owner(node.func) is not None:
                got = passed.setdefault(_owner(node.func), set())
                got.update(kw.arg for kw in node.keywords if kw.arg is not None)
                got.update(range(len(node.args)))
    return {option for option, (name, pos) in _options().items()
            if not {option.rsplit(".", 1)[1], pos} & passed.get(name, set())}


def test_every_option_is_set_outside_the_tests():
    unset = sorted(_unset() - set(ALLOWED_UNSET))
    assert not unset, unset


def test_the_option_allowlist_holds_only_unset_options():
    allowed = set(ALLOWED_UNSET)
    assert allowed <= set(_options()), sorted(allowed - set(_options()))
    assert allowed <= _unset(), sorted(allowed - _unset())

"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import mfcat

SRC = Path(mfcat.__file__).parent


def test_the_package_relies_on_no_assert_statement():
    # python -O strips assert statements, so no check may rest on one
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


# Where a float may appear in the package: the display value of a central
# charge, the float mass column of `mfcat stability` and the coin of a
# random orientation.  Every other path is exact; mass positivity is
# certified by rational bounds.
FLOAT_SCOPES = {
    ("stability.py", "central_charge"),
    ("stability.py", "CentralCharge.mass_float"),
}
FLOAT_SITES = {
    ("stability.py", "", "import cmath"),
    ("quiver.py", "random_orientation", "0.5"),
}
# the integer-valued math functions; every other math name is a float
EXACT_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial"}


def _float_uses(node, scope=""):
    """(scope, what) for each float, complex, float or complex literal,
    float-valued math name and cmath or mpmath import below node; scope is
    the dotted name of the enclosing functions and classes, "" at module
    level."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = "%s.%s" % (scope, child.name) if scope else child.name
        if isinstance(child, ast.Name) and child.id in ("float", "complex"):
            yield scope, child.id
        elif (isinstance(child, ast.Constant)
              and isinstance(child.value, (float, complex))):
            yield scope, repr(child.value)
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.value, ast.Name)
              and child.value.id == "math" and child.attr not in EXACT_MATH):
            yield scope, "math." + child.attr
        elif isinstance(child, ast.ImportFrom) and child.module == "math":
            for a in child.names:
                if a.name not in EXACT_MATH:
                    yield scope, "import math." + a.name
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in child.names]
                     if isinstance(child, ast.Import) else [child.module or ""])
            for name in names:
                if name.split(".")[0] in ("cmath", "mpmath"):
                    yield scope, "import " + name
        yield from _float_uses(child, inner)


def _float_sites(path):
    tree = ast.parse(path.read_text(), str(path))
    return {(path.name, scope, what) for scope, what in _float_uses(tree)}


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_float_enters_a_certified_path(name):
    found = _float_sites(SRC / name)
    assert sorted(site for site in found - FLOAT_SITES
                  if site[:2] not in FLOAT_SCOPES) == []


def test_the_float_scan_sees_the_allowed_sites():
    # a scan that finds nothing proves nothing
    found = set().union(*(_float_sites(p) for p in SRC.glob("*.py")))
    assert FLOAT_SITES <= found
    assert {site[:2] for site in found} >= FLOAT_SCOPES


def test_the_float_scan_reports_float_math_names_only():
    tree = ast.parse("import math\n"
                     "from math import gcd, pi\n"
                     "def f(a, b):\n"
                     "    return math.lcm(a, b) + math.gcd(a, b) * math.cos(a)\n")
    assert sorted(_float_uses(tree)) == [("", "import math.pi"),
                                         ("f", "math.cos")]


# Definitions that nothing in the package calls, and why each stays: public
# API whose caller lives outside src/mfcat.
PUBLIC_API = {
    "mf_from_json": "the README's JSON load, which re-verifies the contracts",
    "check_jacobi_annihilation": "acceptance criterion 10",
    "HomSpace.coordinates": "the README's Hom-space coordinates; the Serre "
                            "pairing section will call it",
    "projectivity_check": "the README's stability API; the Gabriel section "
                          "of verify will call it",
}
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    """The names that perfbench/tracing.py wraps or counts: each function,
    each method as "Class.name", and each class that holds a method."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tables[getattr(node.targets[0], "id", None)] = node.value
    spans = ast.literal_eval(tables["SPANS"])
    counters = ast.literal_eval(tables["COUNTERS"])
    return ({attr for _, _, attr in spans}
            | {attr.split(".")[0] for _, _, attr in spans}
            | {attr for _, attr, _ in counters})


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _names(nodes):
    """Every Name, Attribute and imported name below the given nodes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(a.name for a in sub.names)
    return names


def _uncalled(sources, kept):
    """Sorted (module, name) of each module-level function or class, and
    of each method or property ("Class.name"; dunders aside), in
    ``sources`` ({module: source text}) that no Name, Attribute or import
    outside its own body references, unless it is a click command or named
    in ``kept``.  A class's body holds its methods; a method's body is its
    own.  A reference is matched by name alone, the last part of a
    method's, and being listed in ``__all__`` is not one."""
    defined, refs = set(), {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs.setdefault((module, ""), set()).update(_names([node]))
                continue
            if not _is_click_command(node):
                defined.add((module, node.name))
            own = [node]
            if isinstance(node, ast.ClassDef):
                own = node.decorator_list + node.bases + node.keywords
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef):
                        own.append(sub)
                        continue
                    name = "%s.%s" % (node.name, sub.name)
                    if not (sub.name.startswith("__")
                            and sub.name.endswith("__")):
                        defined.add((module, name))
                    refs.setdefault((module, name), set()).update(
                        _names([sub]))
            refs.setdefault((module, node.name), set()).update(_names(own))
    return sorted(
        d for d in defined if d[1] not in kept
        and not any(d[1].split(".")[-1] in names
                    for (module, where), names in refs.items()
                    if (module, where) != d
                    and not (module == d[0] and where.startswith(d[1] + "."))))


def _src_sources():
    return {p.stem: p.read_text() for p in SRC.glob("*.py")}


def test_every_src_definition_has_a_caller():
    assert _uncalled(_src_sources(), set(PUBLIC_API) | _traced_names()) == []


def test_the_caller_census_flags_uncalled_code_only():
    # a scan that finds nothing proves nothing: a planted orphan function
    # and a planted orphan method, each calling only itself, are named, and
    # so is a planted function listed only in __all__ and each public entry
    # once its reason is dropped, while monomial_basis, which only the
    # tracer names, is not
    sources = _src_sources()
    sources["gring"] += "\n\ndef _orphan():\n    return _orphan()\n"
    slots = '    __slots__ = ("src", "dst", "phi0", "phi1")\n'
    assert slots in sources["mf"]
    sources["mf"] = sources["mf"].replace(
        slots, slots + "\n    def _stray(self):\n"
                       "        return self._stray()\n", 1)
    assert "__all__ = [\n" in sources["quiver"]
    sources["quiver"] = sources["quiver"].replace(
        "__all__ = [\n", '__all__ = [\n    "exported_only",\n', 1)
    sources["quiver"] += "\n\ndef exported_only():\n    return None\n"
    found = _uncalled(sources, _traced_names())
    assert found == sorted([("gring", "_orphan"), ("mf", "Morphism._stray"),
                            ("quiver", "exported_only"),
                            ("mf", "mf_from_json"),
                            ("homcat", "check_jacobi_annihilation"),
                            ("homcat", "HomSpace.coordinates"),
                            ("stability", "projectivity_check")])

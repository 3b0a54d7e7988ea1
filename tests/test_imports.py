"""Every top-level import of a package module is referenced in it, and
every local a function binds is read in it. No linter is installed, so
this test is the check for stale imports and dead locals. It also keeps
the event window rule, the event sort and the integer test of the value
rule in one module each."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tapfuse"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def unused_locals(source: str) -> list[str]:
    """function.name for each name a function binds and never reads,
    nested functions included; names starting with _ are exempt."""
    unused = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
        bound = {n.id for n in names if isinstance(n.ctx, ast.Store)}
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        unused += [f"{fn.name}.{name}" for name in sorted(bound - read)
                   if not name.startswith("_")]
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_locals(module):
    assert unused_locals((PACKAGE / module).read_text()) == []


def attribute_users(attr: str) -> set[str]:
    """The package modules that read an attribute of that name."""
    return {module for module in MODULES
            for node in ast.walk(ast.parse((PACKAGE / module).read_text()))
            if isinstance(node, ast.Attribute) and node.attr == attr}


def test_only_events_searches_event_times():
    """Every event window is one (a, b] cut made in events.py; a
    searchsorted elsewhere would be a second copy of that rule."""
    assert attribute_users("searchsorted") == {"events.py"}


def test_only_events_sorts_events():
    """The canonical (t, y, x, p) order is made in events.py alone; a
    lexsort elsewhere would be a second copy of that rule."""
    assert attribute_users("lexsort") == {"events.py"}


# operator.index and numbers.Integral, by attribute or by name
INTEGER_READS = {("operator", "index"), ("numbers", "Integral")}


def integer_reads(source: str) -> list[int]:
    """The lines outside a Domain class that read operator.index or
    numbers.Integral, or import either by name."""
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "Domain"
              for node in ast.walk(cls)}
    return [node.lineno for node in ast.walk(tree) if id(node) not in inside
            and ((isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and (node.value.id, node.attr) in INTEGER_READS)
                 or (isinstance(node, ast.ImportFrom)
                     and any((node.module, a.name) in INTEGER_READS
                             for a in node.names)))]


def test_only_the_domain_primitive_tests_for_integers():
    """An integer check is errors.Domain's alone; an operator.index or
    numbers.Integral elsewhere would be a hand-written copy of it."""
    found = {module: lines for module in MODULES + ["__init__.py"]
             if (lines := integer_reads((PACKAGE / module).read_text()))}
    assert found == {}
    errors = (PACKAGE / "errors.py").read_text()
    assert "operator.index(" in errors


def test_checker_flags_an_integer_read_outside_the_domain():
    source = ("import numbers, operator\n"
              "from operator import index\n"
              "class Domain:\n"
              "    def f(self, v):\n"
              "        return operator.index(v)\n"
              "def g(v):\n"
              "    return isinstance(v, numbers.Integral)\n")
    assert integer_reads(source) == [2, 7]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nb()\n") == ["os", "c"]


def test_checker_flags_an_unused_local():
    source = ("def f(x):\n"
              "    h, w, _ = x.shape\n"
              "    n = h * w\n"
              "    for i, v in enumerate(x):\n"
              "        total = v\n"
              "    def g():\n"
              "        return w\n"
              "    return g\n")
    assert unused_locals(source) == ["f.i", "f.n", "f.total"]

"""Every top-level import of a package module is referenced in it, and
every local a function binds is read in it. No linter is installed, so
this test is the check for stale imports and dead locals. It also keeps
the event window rule, the event sort and the integer test of the value
rule in one module each, and holds the caller rule: every public name of
the package has a caller, and every default a caller passes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tapfuse"
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


# The caller rule. A caller is code that uses the package: the other
# package modules, the demos, perfbench (which patches functions by
# attribute name, so deleting one breaks the benchmark), the acceptance
# suite and the test helpers. The unit tests are not callers: a name that
# only its own tests reach is a name nobody needs.
CALLERS = [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py",
           *(ROOT / "tests").glob("_*.py")]


def package_sources() -> dict[str, str]:
    return {module: (PACKAGE / module).read_text() for module in MODULES}


def caller_sources() -> list[str]:
    return [path.read_text() for path in sorted(CALLERS)]


def _nodes_outside(tree: ast.AST, skip: ast.AST | None = None):
    inside = {id(node) for node in ast.walk(skip)} if skip else set()
    return (node for node in ast.walk(tree) if id(node) not in inside)


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module):
    """(name, node) for each public module-level function, class and
    assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and _public(name.id):
                    yield name.id, node


def references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names tree reads outside skip: by name, as an attribute, or as
    a string (a getattr or a patch by attribute name)."""
    refs = set()
    for node in _nodes_outside(tree, skip):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.add(node.value)
    return refs


def uncalled_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """module:name for each public module-level name of modules that no
    module and no caller references outside the name's own definition."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = {module: references(tree) for module, tree in trees.items()}
    by_callers = set().union(*(references(ast.parse(s)) for s in callers))
    uncalled = []
    for module, tree in trees.items():
        elsewhere = by_callers.union(*(names for other, names in read.items()
                                       if other != module))
        uncalled += [f"{module}:{name}"
                     for name, node in public_definitions(tree)
                     if name not in elsewhere | references(tree, node)]
    return uncalled


def public_functions(trees: dict[str, ast.Module]):
    """(module:label, the name a call uses, definition, count of parameters
    a call does not pass) for each public function and each public method
    or __init__ of a public class. A call names a class's __init__ by the
    class's name, and binds a method's first parameter, unless static."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                yield f"{module}:{node.name}", node.name, node, 0
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                        _public(fn.name) or fn.name == "__init__"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    called = node.name if fn.name == "__init__" else fn.name
                    yield (f"{module}:{node.name}.{fn.name}", called, fn,
                           0 if static else 1)


def defaulted(fn: ast.FunctionDef, bound: int) -> list[tuple[str, int | None]]:
    """(parameter, its position in a call or None) for each defaulted
    parameter of fn."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, default
               in zip(args.kwonlyargs, args.kw_defaults) if default is not None])


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether call passes param: by position, through *args, by keyword
    or through **kwargs."""
    if position is not None and (
            len(call.args) > position
            or any(isinstance(arg, ast.Starred) for arg in call.args)):
        return True
    return any(kw.arg in (param, None) for kw in call.keywords)


def called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def unpassed_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """module:function.parameter for each defaulted parameter of a public
    function or method that no call in modules or callers passes; a call
    inside the function itself does not count."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    everywhere = [*trees.values(), *map(ast.parse, callers)]
    unpassed = []
    for label, name, fn, bound in public_functions(trees):
        calls = [node for tree in everywhere
                 for node in _nodes_outside(tree, fn)
                 if isinstance(node, ast.Call) and called_name(node) == name]
        unpassed += [f"{label}.{param}"
                     for param, position in defaulted(fn, bound)
                     if not any(passes(c, param, position) for c in calls)]
    return unpassed


def test_every_public_name_has_a_caller():
    """No package module holds a public function, class or constant that
    nothing but its own unit tests reaches; every name the package exports
    is one of them."""
    sources = package_sources()
    assert uncalled_names(sources, caller_sources()) == []
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = {name for source in sources.values()
               for name, _ in public_definitions(ast.parse(source))}
    assert exported - defined == set()


def test_every_default_is_passed_by_a_caller():
    """A default that no caller overrides is a knob without a use."""
    assert unpassed_defaults(package_sources(), caller_sources()) == []


def test_checker_flags_a_name_without_a_caller():
    module = ("import os\n"
              "LIMIT, USED = 1, 2\n"
              "TABLE = {'key': USED}\n"
              "_private = 3\n"
              "def f():\n"
              "    return f()\n"
              "class C:\n"
              "    def g(self):\n"
              "        return C()\n"
              "def h():\n"
              "    return os\n")
    callers = ["from m import h\nh()\n", "patch(m, 'TABLE')\n"]
    assert uncalled_names({"m.py": module}, callers) == [
        "m.py:LIMIT", "m.py:f", "m.py:C"]


def test_checker_flags_a_default_no_caller_passes():
    module = ("def f(a, b=1, c=2, *, d=3):\n"
              "    return f(a, b, c, d=d)\n"
              "class C:\n"
              "    def __init__(self, x=0):\n"
              "        self.x = x\n"
              "    def m(self, y=1, z=2):\n"
              "        return y\n"
              "    @staticmethod\n"
              "    def s(w=0, v=1):\n"
              "        return w\n"
              "def _private(q=1):\n"
              "    return q\n")
    callers = ["f(1, 2)\nC(5)\nobj.m(*args)\nC.s(v=2)\n"]
    assert unpassed_defaults({"m.py": module}, callers) == [
        "m.py:f.c", "m.py:f.d", "m.py:C.s.w"]

"""Every public function, class and method in the package has a caller in
the package.

A public top-level name, or a public method of a public class, that no
module of ``src/ewverify`` refers to (the re-exports in ``__init__.py`` do
not count) is either dead code or a helper kept only for tests.  The second
kind is listed here with its reason; helpers that only tests use live in
``tests/helpers.py``.  A method counts as called when any module refers to
an attribute of its name, so the check is by name, not by type.

The names the benchmark tracer (``perfbench/tracer.py``) looks up must also
stay: it is installed here in a fresh interpreter.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ewverify"

KEPT_FOR_TESTS = {
    "equals": "no check calls it; it decides by the canonical difference alone "
    "and stays because the benchmark tracer hooks numeric.equals and its test "
    "looks up model.equals, so it goes with the next benchmark change",
    "ContractionScalar": "a retired stub whose two methods raise; it stays "
    "because the benchmark tracer hooks its __mul__ and reduce by name, so it "
    "goes with the next benchmark change, like equals",
    "divide_by_j": "the paper's partial division by j: acceptance criterion 03 "
    "decides the division rules with it, and the sphere-coordinates check "
    "(ROADMAP item 7) will divide the off-diagonal entries by j",
}

# Public methods that no module of the package calls, as "Class.method".
# A class in KEPT_FOR_TESTS keeps its methods for the class's reason.
METHODS_KEPT_FOR_TESTS: dict[str, str] = {}


def _public_definitions(modules):
    defs = {}
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs[node.name] = path.name
    return defs


def _references(modules, kind, name):
    """The ``name`` of every ``kind`` node in the modules but ``__init__.py``."""
    return {
        getattr(node, name)
        for path, tree in modules.items() if path.name != "__init__.py"
        for node in ast.walk(tree) if isinstance(node, kind)
    }


def _referenced_names(modules):
    return _references(modules, ast.Name, "id") | _references(modules, ast.Attribute, "attr")


def _modules():
    return {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    referenced = _referenced_names(modules)
    unused = sorted(
        f"{module}:{name}"
        for name, module in _public_definitions(modules).items()
        if name not in referenced and name not in KEPT_FOR_TESTS
    )
    assert not unused, f"public names nothing in src/ uses: {unused}"


def test_kept_for_tests_names_are_still_unused_public_definitions():
    """Each exemption is still a public definition that no module of the
    package refers to; one that was deleted, or gained a caller, leaves
    the list."""
    modules = _modules()
    defined = _public_definitions(modules)
    referenced = _referenced_names(modules)
    stale = sorted(
        name for name in KEPT_FOR_TESTS if name not in defined or name in referenced
    )
    assert not stale, f"KEPT_FOR_TESTS entries that no longer apply: {stale}"


def _public_methods(modules):
    """``Class.method`` for every public, non-dunder method (properties
    included) of a public top-level class."""
    return {
        f"{node.name}.{item.name}"
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def test_every_public_method_has_a_caller_in_the_package():
    """The methods no module of the package calls are exactly the entries
    of METHODS_KEPT_FOR_TESTS: one that gained a caller, or was deleted,
    leaves the list.  Only an attribute (``x.name``) calls a method, so a
    local variable of the same name does not hide an uncalled one."""
    modules = _modules()
    referenced = _references(modules, ast.Attribute, "attr")
    unused = {
        name for name in _public_methods(modules)
        if name.split(".")[1] not in referenced and name.split(".")[0] not in KEPT_FOR_TESTS
    }
    assert unused == set(METHODS_KEPT_FOR_TESTS)


def test_only_the_contraction_layer_refers_to_contraction_scalar():
    """Every layer works over Expression entries: ContractionScalar is a
    retired stub that only the benchmark tracer still names, and no other
    module, ``__init__.py`` included, refers to it."""
    users = sorted(
        p.name for p in PACKAGE.glob("*.py")
        if p.name != "contraction.py" and "ContractionScalar" in p.read_text()
    )
    assert not users, f"modules that use ContractionScalar: {users}"


def test_contraction_scalar_is_only_the_stub_the_tracer_hooks():
    """The retired class defines its docstring, ``__mul__`` and ``reduce``
    and nothing else, and the package does not export it, so that a second
    j-graded scalar type does not grow back beside Expression."""
    import ewverify

    tree = ast.parse((PACKAGE / "contraction.py").read_text())
    (stub,) = [n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "ContractionScalar"]
    docstring, *methods = stub.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert all(isinstance(m, ast.FunctionDef) for m in methods)
    assert sorted(m.name for m in methods) == ["__mul__", "reduce"]
    assert not hasattr(ewverify, "ContractionScalar")


def _jpow_callers(path):
    """The top-level definitions of a module (``<module>`` for the other
    statements) that call ``jpow``."""
    return {
        getattr(node, "name", "<module>")
        for node in ast.parse(path.read_text()).body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "jpow"
    }


def test_only_expression_blocks_attribute_assignment_by_hand():
    """The value types and records of the package are tuples, which are
    immutable without help; only Expression, a class because it keeps its
    hash once computed, defines ``__setattr__``.  A hand-made immutable type
    that grows back fails here."""
    defining = sorted(
        f"{path.name}:{node.name}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if (isinstance(item, ast.FunctionDef) and item.name == "__setattr__")
        or (isinstance(item, ast.Assign)
            and any(getattr(t, "id", None) == "__setattr__" for t in item.targets))
    )
    assert defining == ["fields.py:Expression"]


def _callers(path, names):
    """The innermost function (``<module>`` outside any) around each call of
    a module to a name, or an attribute, in ``names``."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and {
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)} & names:
                found.add(where)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _expression_constructors(path):
    """The functions of a module that construct an ``Expression`` directly
    rather than build one."""
    return _callers(path, {"Expression"})


def test_only_the_field_layer_constructs_expressions_directly():
    """A built expression's terms are canonical: the operators return
    pending expressions, which build on their first read, and the
    operations that keep each built term's factors merge them without a
    canonical form.  So only the merge and the constructors whose terms are
    canonical by construction call ``Expression(...)``, and every other
    module builds."""
    outside = sorted(p.name for p in PACKAGE.glob("*.py")
                     if p.name != "fields.py" and _expression_constructors(p))
    assert not outside, f"modules that construct an Expression directly: {outside}"
    assert _expression_constructors(PACKAGE / "fields.py") == {
        "<module>", "_merge", "const", "inv_sqrt2", "__neg__", "divide_by_j"}


def test_only_the_references_write_powers_of_j():
    """The builders and matrices are written at j = 1 and contracted by the
    fields' grades; only the references the checks compare against write
    their powers of j out, so that a wrong grade turns a check red."""
    assert _jpow_callers(PACKAGE / "model.py") == {
        "_build_L27", "matter_radial_display", "su2_variation_rules"}
    assert _jpow_callers(PACKAGE / "matrices.py") == set()


# The one range-checked conversion and its root, and the float work of the
# sweep and of numeric evaluation (ROADMAP item 4).
FLOAT_CALLERS = {"_float_in_range", "_float_sqrt", "scaling_sweep", "eval_expression"}


def test_only_the_float_boundary_calls_float():
    """Every check decides on exact values; a float comes from
    ``_float_in_range`` (or ``_float_sqrt``), which refuses a value beyond
    float range, or from the sweep's and the evaluation's own float work.
    A stray ``float(...)`` elsewhere in ``src/`` fails here, and so does an
    exemption that no longer calls it."""
    callers = set().union(*(_callers(p, {"float"}) for p in PACKAGE.glob("*.py")))
    assert callers == FLOAT_CALLERS


def _lru_cached(path):
    """``ewverify.<module>.<function>`` for every function of a module, at any
    depth, decorated with ``functools.lru_cache``, called or bare."""
    def is_lru_cache(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return "lru_cache" in (getattr(target, "attr", None), getattr(target, "id", None))

    return {
        f"ewverify.{path.stem}.{node.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and any(map(is_lru_cache, node.decorator_list))
    }


def test_every_memo_is_cleared_between_tests():
    """The autouse fixture clears ``conftest.MEMOS``, the memos it finds in
    the package's modules at run time.  They are exactly the functions that
    ``src/`` decorates with ``functools.lru_cache``: a memo the walk misses,
    such as one on a method or a nested function, fails here."""
    from conftest import MEMOS

    decorated = set().union(*map(_lru_cached, PACKAGE.glob("*.py")))
    assert "ewverify.fields._renamed_replacement" in decorated
    assert sorted(f"{memo.__module__}.{memo.__name__}" for memo in MEMOS) == sorted(decorated)


TRACER_SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import importlib
from tracer import CHECKS, HOOKS, Tracer

tracer = Tracer().install()
wrappers = set(tracer.wrapped.values())
# model.build_L27 backs the model.build_L27.calls and .s metrics, and
# parser.to_text the parser.to_text.calls metric
for name in list(HOOKS) + list(CHECKS) + ["model.build_L27", "limits.build_L27",
                                          "parser.to_text"]:
    module, *attrs = name.split(".")
    obj = importlib.import_module("ewverify." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    assert getattr(obj, "__func__", obj) in wrappers, name + " is not wrapped"
tracer.uninstall()
"""


def test_benchmark_tracer_installs_and_uninstalls():
    """The tracer wraps Mat2, numeric.equals, build_L27, to_text, each
    check, and the two methods of the retired ContractionScalar stub by
    name; removing one from src/, or hiding it from the tracer (which wraps
    plain functions only, not an ``lru_cache``), must fail here."""
    result = subprocess.run(
        [sys.executable, "-c", TRACER_SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_loads_no_dataclasses_inspect_or_traceback():
    """Every CLI process pays for what ``ewverify.cli`` imports: the records
    are named tuples, not dataclasses (which bring ``inspect``), and only the
    engine-fault path imports ``traceback``.  ``-S`` keeps the environment's
    own start-up hooks out of the count."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ewverify.cli; "
        "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

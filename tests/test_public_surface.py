"""Every public function and class in the package has a caller in the package.

A public top-level name that no module of ``src/ewverify`` refers to (the
re-exports in ``__init__.py`` do not count) is either dead code or a helper
kept only for tests.  The second kind is listed here with its reason.

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
    "su2_element": "the concrete-entry reference for the form-invariance and "
    "nilpotent-closure tests",
    "random_pythagorean_config": "acceptance criterion 11 draws exact points with it",
    "assignment_from_components": "tests plug explicit field values into eval_expression",
    "parse": "the text grammar the README documents",
    "load_config": "tests read a config file alone with it; the CLI merges "
    "the file's values with the flags before building one ModelConfig",
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


def _public_definitions(modules):
    defs = {}
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs[node.name] = path.name
    return defs


def _referenced_names(modules):
    names = set()
    for path, tree in modules.items():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


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


def test_only_the_references_write_powers_of_j():
    """The builders and matrices are written at j = 1 and contracted by the
    fields' grades; only the references the checks compare against write
    their powers of j out, so that a wrong grade turns a check red."""
    assert _jpow_callers(PACKAGE / "model.py") == {
        "_build_L27", "matter_radial_display", "su2_variation_rules"}
    assert _jpow_callers(PACKAGE / "matrices.py") == set()


def test_every_memo_is_cleared_between_tests():
    """``conftest.MEMOS`` lists every memo in the package, so the autouse
    fixture leaves no result cached across tests."""
    import importlib
    import pkgutil

    import ewverify
    from conftest import MEMOS

    modules = [
        importlib.import_module(f"ewverify.{info.name}")
        for info in pkgutil.iter_modules(ewverify.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    found = {obj for m in modules for obj in vars(m).values() if hasattr(obj, "cache_clear")}

    def names(memos):
        return sorted(f"{memo.__module__}.{memo.__name__}" for memo in memos)

    assert names(found) == names(MEMOS)


TRACER_SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import importlib
from tracer import CHECKS, HOOKS, Tracer

tracer = Tracer().install()
wrappers = set(tracer.wrapped.values())
# model.build_L27 backs the model.build_L27.calls and .s metrics
for name in list(HOOKS) + list(CHECKS) + ["model.build_L27", "limits.build_L27"]:
    module, *attrs = name.split(".")
    obj = importlib.import_module("ewverify." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    assert getattr(obj, "__func__", obj) in wrappers, name + " is not wrapped"
tracer.uninstall()
"""


def test_benchmark_tracer_installs_and_uninstalls():
    """The tracer wraps Mat2, numeric.equals, build_L27, each check, and the
    two methods of the retired ContractionScalar stub by name; removing one
    from src/, or hiding it from the tracer (which wraps plain functions
    only, not an ``lru_cache``), must fail here."""
    result = subprocess.run(
        [sys.executable, "-c", TRACER_SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr

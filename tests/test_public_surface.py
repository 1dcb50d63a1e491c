"""Every public function and class in the package has a caller in the package.

A public top-level name that no module of ``src/ewverify`` refers to (the
re-exports in ``__init__.py`` do not count) is either dead code or a helper
kept only for tests.  The second kind is listed here with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ewverify"

KEPT_FOR_TESTS = {
    "commutator": "acceptance criterion 01 checks the commutator table with it",
    "generator": "acceptance criterion 01 builds the generators with it",
    "float_config": "tests build float parameter points for the numeric oracle",
    "random_pythagorean_config": "acceptance criterion 11 draws exact points with it",
    "assignment_from_components": "tests plug explicit field values into eval_expression",
    "contraction_rules_phi": "the paper's contraction map for the doublet, "
    "checked by test_grading_enters_via_substitution",
    "parse": "the text grammar the README documents",
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


def test_every_public_name_has_a_caller_in_the_package():
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = _referenced_names(modules)
    unused = sorted(
        f"{module}:{name}"
        for name, module in _public_definitions(modules).items()
        if name not in referenced and name not in KEPT_FOR_TESTS
    )
    assert not unused, f"public names nothing in src/ uses: {unused}"


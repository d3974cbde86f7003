"""Every public function and class of the library has a user besides the tests.

A name counts as used if code in `src/` refers to it outside its own
definition (as a name or an attribute, so docstrings do not count), or if
the benchmark in `perfbench/` mentions it.  A name that only tests use is
dead weight in the library and belongs in the tests.  The library also
raises real errors: `python -O` strips every `assert`, so it has none.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "helpercache").glob("*.py"))


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name read or attribute taken in the module."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def test_every_public_name_has_a_user_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    references = {path: _references(tree) for path, tree in trees.items()}
    benchmark = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path, tree in trees.items():
        for definition in _public_definitions(tree):
            own = range(definition.lineno, definition.end_lineno + 1)
            used = any(
                name == definition.name and not (other == path and line in own)
                for other, refs in references.items()
                for name, line in refs
            )
            if not used and not re.search(rf"\b{definition.name}\b", benchmark):
                unused.append(f"{path.stem}.{definition.name}")
    assert unused == []


def test_library_code_never_asserts():
    asserts = [
        f"{path.stem}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []

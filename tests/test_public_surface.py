"""Every public function, class, method and property of the library has a user besides the tests.

A module-level name counts as used if code in `src/` refers to it outside
its own definition (as a name or an attribute, so docstrings do not count),
or if the benchmark in `perfbench/` mentions it.  A public method or
property of a library class counts as used if code in `src/` reads it as
an attribute outside its own definition, or if the benchmark mentions it.
A name that only tests use is dead weight in the library and belongs in
the tests.  A private module-level function, class or constant must be
read by code in `src/` outside its own definition, and every name a module
imports must be read in that module: neither the benchmark nor a test
keeps one alive.  The library also raises real errors: `python -O` strips
every `assert`, so it has none.  And the sweep harness writes no random
law of its own: it reaches each through `topology` or `cache_placement`.
"""

import ast
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "helpercache").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
BENCHMARK = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))


def _public(nodes: list[ast.AST], kinds: tuple[type, ...]) -> list[ast.AST]:
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name read or attribute taken in the module."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def _attribute_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(attribute, line) of every attribute read in the module."""
    return [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def _unused(definitions, references) -> list[str]:
    """The (qualified name, path, node) definitions that no reference outside them names."""
    unused = []
    for qualified, path, definition in definitions:
        own = range(definition.lineno, definition.end_lineno + 1)
        used = any(
            name == definition.name and not (other == path and line in own)
            for other, refs in references.items()
            for name, line in refs
        )
        if not used and not re.search(rf"\b{definition.name}\b", BENCHMARK):
            unused.append(qualified)
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    definitions = [
        (f"{path.stem}.{node.name}", path, node)
        for path, tree in TREES.items()
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef))
    ]
    references = {path: _references(tree) for path, tree in TREES.items()}
    assert _unused(definitions, references) == []


def test_every_public_method_and_property_has_a_user_outside_the_tests():
    definitions = [
        (f"{path.stem}.{cls.name}.{node.name}", path, node)
        for path, tree in TREES.items()
        for cls in _public(tree.body, (ast.ClassDef,))
        for node in _public(cls.body, (ast.FunctionDef,))
    ]
    references = {path: _attribute_reads(tree) for path, tree in TREES.items()}
    assert _unused(definitions, references) == []


def _reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name loaded or attribute read in the module."""
    loads = [
        (node.id, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]
    return loads + _attribute_reads(tree)


def _private_definitions(tree: ast.Module) -> list[tuple[str, range]]:
    """(name, lines of its statement) of each private module-level function, class and constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)]
        else:
            continue
        lines = range(node.lineno, node.end_lineno + 1)
        found += [(name, lines) for name in names if name[0] == "_" and not name.endswith("__")]
    return found


def test_every_private_name_is_read_in_the_library():
    references = {path: _reads(tree) for path, tree in TREES.items()}
    unread = [
        f"{path.stem}.{defined}"
        for path, tree in TREES.items()
        for defined, own in _private_definitions(tree)
        if not any(
            name == defined and not (other == path and line in own)
            for other, refs in references.items()
            for name, line in refs
        )
    ]
    assert unread == []


def test_every_import_is_read_in_its_module():
    unread = []
    for path, tree in TREES.items():
        read = {name for name, _ in _reads(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).partition(".")[0] for a in node.names]
                unread += [f"{path.stem}:{node.lineno} {name}" for name in bound if name not in read]
    assert unread == []


def test_library_code_never_asserts():
    asserts = [
        f"{path.stem}:{node.lineno}"
        for path, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _owner(func: ast.Attribute) -> str | None:
    """The name a method is called on: `bit_generator` in `rng.bit_generator.advance(n)`."""
    return getattr(func.value, "attr", getattr(func.value, "id", None))


def test_sim_harness_draws_every_law_through_the_library():
    # Of its trials' generators the harness only reads raw words and steps
    # back over them; every draw (`poisson`, `random`, `standard_normal`,
    # `integers`, ...) is a call of `topology` or `cache_placement`.
    methods = {
        name
        for kind in (np.random.Generator, np.random.PCG64)
        for name in dir(kind)
        if not name.startswith("_")
    }
    allowed = {("bit_generator", "random_raw"), ("bit_generator", "advance")}
    tree = TREES[ROOT / "src" / "helpercache" / "sim_harness.py"]
    drawn = [
        f"sim_harness:{node.lineno} {node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
        and _owner(node.func) != "np"  # numpy's functions, such as `np.power`, draw nothing
        and (_owner(node.func), node.func.attr) not in allowed
    ]
    assert drawn == []

"""The library keeps only what is used.

Every public module-level function, class and constant and every public
method of the spinkick modules must be read by the library itself outside
its own definition, be exercised by the acceptance suite, or be kept for a
named reason.  Code that only unit tests call belongs in
``tests/reference.py``, next to the tests that compare the library against
it.  The package's exports do not count as a use.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinkick"
MODULES = ("analysis", "channels", "cli", "environment", "errors", "kicks", "oracle", "pauli")

KEEP = {
    "trace_distance": "distance between output states, for the per-kick rows of the classical twin (ROADMAP item 5)",
    "commutator_C": "the commutator of the coupling, what the classical twin drops (ROADMAP item 5)",
    "load_channel": "validating reader of the _channel.txt format the CLI emits",
}


# the nodes that define a name: a reference inside its own definition is no use
DEFINING = (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def _definitions(tree):
    """(qualified name, defining node) of every public module-level
    function, class and constant (a name assigned at module level), and
    every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, node


def _references(tree) -> dict:
    """For each name read (Load context) by name or by attribute in
    ``tree``, the ids of the defining nodes enclosing each read."""
    found = defaultdict(list)

    def visit(node, inside):
        if isinstance(node, DEFINING):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id].append(inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr].append(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def unused_definitions() -> list:
    trees = {name: ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")) for name in MODULES}
    library = [_references(tree) for tree in trees.values()]
    acceptance = _references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in KEEP or name in acceptance:
                continue
            if any(id(node) not in inside for refs in library for inside in refs.get(name, ())):
                continue
            unused.append(f"{module}.{qualname}")
    return sorted(unused)


def test_every_public_function_is_used():
    """A public function, class, constant or method that neither the
    library, the acceptance suite nor a named keep reads is named here."""
    assert unused_definitions() == []


def test_keeps_are_defined():
    """Each named keep still exists, so the list cannot go stale."""
    defined = {
        qualname.rsplit(".", 1)[-1]
        for name in MODULES
        for qualname, _ in _definitions(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")))
    }
    assert set(KEEP) <= defined

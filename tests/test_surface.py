"""The library keeps only what is used.

Every public module-level function, class and constant and every public
method of the spinkick modules must be read by the library itself outside
its own definition, be exercised by the acceptance suite, or be kept for a
named reason.  A method or property whose name another class holds as data
is used only where its own class or the acceptance suite reads it as an
attribute, since any other ``.x`` may read that data.  Code that only unit tests call belongs in
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


def _data_attributes(trees) -> dict:
    """For each name some module-level class holds as data, the names of
    those classes: a name annotated in the class body (a dataclass field),
    or one set by ``self.x = ...`` or ``object.__setattr__(self, "x", ...)``."""
    holders = defaultdict(set)
    for tree in trees:
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    holders[item.target.id].add(cls.name)
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and _is_self(node.value):
                    holders[node.attr].add(cls.name)
                elif (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "object.__setattr__"
                    and len(node.args) > 1
                    and _is_self(node.args[0])
                    and isinstance(node.args[1], ast.Constant)
                ):
                    holders[node.args[1].value].add(cls.name)
    return holders


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _attributes_read(node, of_self: bool = False) -> set:
    """The attribute names read in ``node``; with ``of_self``, only those
    read as ``self.x`` or ``cls.x``."""
    return {
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
        and isinstance(child.ctx, ast.Load)
        and (not of_self or _is_self(child.value))
    }


def unused_definitions() -> list:
    """Every public definition no use counts for.  A method or property
    whose name another class holds as data counts as used only where its
    own class reads it (``self.x``, ``cls.x``), the acceptance suite reads
    it as an attribute or ``KEEP`` names it: a read of ``.x`` elsewhere may
    be that data."""
    trees = {name: ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")) for name in MODULES}
    library = [_references(tree) for tree in trees.values()]
    acceptance_tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    acceptance, acceptance_attributes = _references(acceptance_tree), _attributes_read(acceptance_tree)
    holders = _data_attributes(trees.values())
    unused = []
    for module, tree in trees.items():
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            if name in KEEP:
                continue
            if owner and holders.get(name, set()) - {owner}:
                siblings = (item for item in classes[owner].body if item is not node)
                if name in acceptance_attributes or any(name in _attributes_read(item, True) for item in siblings):
                    continue
            elif name in acceptance or any(id(node) not in inside for refs in library for inside in refs.get(name, ())):
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

"""The library's source layout: no private helper that only tests reach, and
one builder of the agreement relations.

A module-level function or class whose name starts with ``_`` is not API,
so it lives only as long as library code uses it.  One that only tests
call belongs in the tests (as a helper or an oracle) or nowhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cylkit"


def _referenced(node: ast.AST) -> set[str]:
    """Names read in ``node``: by Name, by Attribute, or imported by name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_private_helper_has_a_library_caller():
    defined = []  # (module, name) of each private module-level def or class
    used = set()  # names referenced outside their own definition
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = stmt.name
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((path.name, name))
                # a recursive call is not a caller
                names.discard(name)
            used |= names
    assert defined, "no private helpers found; is SRC right?"
    orphans = [f"{module}:{name}" for module, name in defined if name not in used]
    assert orphans == [], f"private helpers no library code reaches: {orphans}"


def test_agreement_relations_have_one_builder():
    """Agreement off a node set is grouped in one place, `_classes_off`:
    `_agreement` reads each T_i from it and the hyperbasis rules read T_z
    and the two-node agreement from it, rather than grouping their own."""
    callers = []  # (module, enclosing module-level def) of each call
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and "class_columns" in _referenced(sub.func):
                    callers.append((path.name, getattr(stmt, "name", None)))
    assert callers == [("constructions.py", "_classes_off")]


def test_column_tables_are_grouped_in_one_place():
    """A column table's distinct columns and their holders are read through
    `bao._holders` alone: no `dict.fromkeys` dedupe, and object ids read
    only there and by the namespace binder of `terms._Emitter`."""
    fromkeys, ids = [], set()  # (module, enclosing module-level def or class)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.name, getattr(stmt, "name", None))
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Attribute) and sub.attr == "fromkeys":
                    fromkeys.append(where)
                elif isinstance(sub, ast.Name) and sub.id == "id":
                    ids.add(where)
    assert fromkeys == []
    assert ids == {("bao.py", "_holders"), ("terms.py", "_Emitter")}


def test_forbidden_triples_are_read_at_construction_only():
    """After construction a relation-algebra structure is read through its
    composition table.  The forbidden-triple set is read by the structure
    itself (its checks and its table), by JSON output, by atom splitting,
    which builds a new set from it, and by the two independent routes that
    re-check triangles against it: `validate_matrix` and criterion 3's
    closure check."""
    readers = set()  # (module, enclosing module-level def or class)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Attribute) and sub.attr == "forbidden":
                    readers.add((path.name, getattr(stmt, "name", None)))
    assert readers == {
        ("ra.py", "RaAtomStructure"),
        ("ra.py", "ra_to_dict"),
        ("constructions.py", "_split_ra"),
        ("constructions.py", "validate_matrix"),
        ("acceptance.py", "criterion_03"),
    }

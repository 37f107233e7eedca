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


# a structure's E_ij and P_ij, as stored and as read
_DIAG_TRANSP = {"diag", "diag_mask", "transp", "transp_op"}


def _assignments(defn: ast.AST) -> dict[str, list[ast.AST]]:
    """Per local name, the expressions a def binds to it: by assignment
    (every name of a tuple target gets the whole value), as a loop target,
    or by `name.append(x)` and `name.extend(x)`."""
    out: dict[str, list[ast.AST]] = {}
    for sub in ast.walk(defn):
        pairs = []
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and sub.value is not None:
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            pairs = [(t, sub.value) for t in targets]
        elif isinstance(sub, (ast.For, ast.comprehension)):
            pairs = [(sub.target, sub.iter)]
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in ("append", "extend")
            and isinstance(sub.func.value, ast.Name)
        ):
            pairs = [(sub.func.value, arg) for arg in sub.args]
        for target, value in pairs:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    out.setdefault(name.id, []).append(value)
    return out


def _origins(expr: ast.AST, bound: dict[str, list[ast.AST]], seen: set[str]) -> set[str]:
    """"read" where an expression reads a structure's E_ij or P_ij, and
    "_carried" where it takes a value of `bao._carried`, following the
    local names it reads to what they are bound to."""
    if isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "_carried":
        return {"_carried"}
    if isinstance(expr, ast.Attribute) and expr.attr in _DIAG_TRANSP:
        return {"read"}
    out = set()
    if isinstance(expr, ast.Name) and expr.id not in seen:
        seen.add(expr.id)
        for value in bound.get(expr.id, ()):
            out |= _origins(value, bound, seen)
    for child in ast.iter_child_nodes(expr):
        out |= _origins(child, bound, seen)
    return out


def test_derived_diagonals_and_transpositions_are_carried_in_one_place():
    """A structure built from another takes its E_ij and P_ij from
    `bao._carried`, which carries them along an atom map.  Only the index
    renaming `rd_rho`, which maps no atoms, and atom splitting's copy rule
    for P_ij (copies stay individually fixed) read the source's own."""
    origins = {}  # (module, def, keyword) -> origins of the keyword's value
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            bound = _assignments(stmt)
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in (
                    "CaAtomStructure",
                    "replace",
                ):
                    for kw in sub.keywords:
                        found = _origins(kw.value, bound, set())
                        if kw.arg in ("diag", "transp") and found:
                            origins[path.name, stmt.name, kw.arg] = found
    assert origins == {
        ("constructions.py", "_split_ca", "diag"): {"_carried"},
        ("constructions.py", "_split_ca", "transp"): {"read"},
        ("neat.py", "nr", "diag"): {"_carried"},
        ("neat.py", "nr", "transp"): {"_carried"},
        ("neat.py", "rd_rho", "diag"): {"read"},
        ("neat.py", "rd_rho", "transp"): {"read"},
        ("neat.py", "rl_x", "diag"): {"_carried"},
        ("neat.py", "rl_x", "transp"): {"_carried"},
    }

"""The library's source layout: no private helper that only tests reach.

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

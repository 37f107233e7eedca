"""The hand-written image loops that additive operators replaced, kept as
an oracle.

Each function is the earlier code, unchanged apart from taking its object
as ``self`` where it was a method:

- `lift` and `closure` were `QuotientFrame` methods; `frame_view` gives
  them the ``class_of`` table that `neat.nr` built per atom.
- `embed` was `SplitResult.embed`.
- `embed_mask` was the closure of `neat.rl_x_witness` over its fibre lists.
- `comp_row` was `RaAtomStructure.comp_row`, here without its per-pair
  cache; `converse_el` and `compose` were the `cylkit.ra` functions,
  here without their checks that the elements belong to the structure.
- `structure_to_dict` listed each relation's pairs by sorting them.

The operator code in `cylkit` must give the same masks.
"""
from __future__ import annotations

from types import SimpleNamespace

from cylkit.bao import Element, _bits, column_pairs
from cylkit.ra import RaAtomStructure


def frame_view(source, classes) -> SimpleNamespace:
    """What `lift` and `closure` read of a quotient frame."""
    class_of = [0] * source.natoms
    for ci, cls in enumerate(classes):
        for a in cls:
            class_of[a] = ci
    return SimpleNamespace(source=source, classes=classes, class_of=tuple(class_of))


def lift(self, x: Element) -> frozenset[int]:
    """Class indices met by a source element."""
    return frozenset(self.class_of[a] for a in x)


def closure(self, x: Element) -> Element:
    mask = 0
    for ci in lift(self, x):
        for a in self.classes[ci]:
            mask |= 1 << a
    return Element(self.source, mask)


def embed(self, x: Element) -> Element:
    """Additive extension of the atom embedding to an old element."""
    mask = 0
    for a in x:
        for b in self.copy_map[a]:
            mask |= 1 << b
    return Element(self.structure, mask)


def embed_mask(fibres: list[list[int]], small_mask: int) -> int:
    out = 0
    for gi in _bits(small_mask):
        for p in fibres[gi]:
            out |= 1 << p
    return out


def comp_row(self: RaAtomStructure, b: int, c: int) -> int:
    """Mask of {a : (a,b,c) consistent}."""
    got = 0
    for a in range(self.natoms):
        if (a, b, c) not in self.forbidden:
            got |= 1 << a
    return got


def converse_el(structure: RaAtomStructure, x: Element) -> Element:
    out = 0
    for a in _bits(x.mask):
        out |= 1 << structure.converse[a]
    return Element(structure, out)


def compose(structure: RaAtomStructure, x: Element, y: Element) -> Element:
    """{a : exists b in x, c in y with (a,b,c) consistent}."""
    out = 0
    for b in _bits(x.mask):
        for c in _bits(y.mask):
            out |= comp_row(structure, b, c)
    return Element(structure, out)


def structure_to_dict(structure) -> dict:
    dim = structure.dim

    def pairs(cols: tuple[int, ...]) -> list[list[int]]:
        return [[a, b] for a, b in sorted(column_pairs(cols))]

    out: dict = {
        "dim": dim,
        "atoms": list(structure.atoms),
        "cyl": [pairs(cols) for cols in structure.cyl],
        "diag": [[sorted(structure.diag[i][j]) for j in range(dim)] for i in range(dim)],
    }
    if structure.transp is not None:
        out["transp"] = [
            [i, j, pairs(structure.transp_image_masks(i, j))]
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
    return out

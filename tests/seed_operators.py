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
- `ColumnOperator` was `AdditiveOperator` while every operator, the
  transpositions included, read a column table of masks; `perm_columns`
  and `transp_columns` give a permutation's column table, the form the
  transpositions were stored in.
- `map_apply` was `AdditiveOperator.apply` on the map form above 32
  atoms, which walked the set bits from the lowest up, as `ColumnOperator`
  does on the column form.
- `after` was `AdditiveOperator.after`, which grouped the inner columns
  in a dict keyed by object id and then in one keyed by value; `_holders`
  was `bao._holders`, one hash and one OR of a whole mask per column, and
  `transpose` and `cyl_fixed_masks` (`dict.fromkeys`) the functions that
  read it.

The operator code in `cylkit` must give the same masks.
"""
from __future__ import annotations

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from cylkit.bao import Element, _bits, column_pairs
from cylkit.ra import RaAtomStructure

_TABLE_ATOMS = 32
_CHUNK_BITS = 16


class ColumnOperator:
    """The image map x -> OR of cols[b] over the atoms b of x, read from
    lookup tables on at most 32 atoms in and out, else bit by bit."""

    def __init__(self, cols: tuple[int, ...]) -> None:
        self.cols = cols
        self._tabled = len(cols) <= _TABLE_ATOMS and not max(cols, default=0) >> _TABLE_ATOMS
        self._chunks = -(-len(cols) // _CHUNK_BITS) or 1
        self._width = -(-len(cols) // self._chunks)

    @cached_property
    def _tables(self) -> np.ndarray:
        if not self._tabled:
            raise ValueError(f"lookup tables need at most {_TABLE_ATOMS} atoms in and out")
        w = self._width
        tables = np.zeros((self._chunks, 1 << w), dtype=np.uint32)
        for b, col in enumerate(self.cols):
            row, half = tables[b // w], 1 << (b % w)
            row[half : 2 * half] = row[:half] | np.uint32(col)
        return tables

    @cached_property
    def _chunk_tables(self) -> tuple[np.ndarray, ...]:
        tables = self._tables
        last = len(self.cols) - (len(tables) - 1) * self._width
        return (*tables[:-1], tables[-1][: 1 << last])

    @cached_property
    def _rows(self) -> tuple[memoryview, ...]:
        return tuple(memoryview(row) for row in self._chunk_tables)

    def apply(self, mask: int) -> int:
        if self._tabled:
            rows = self._rows
            if len(rows) == 1:
                return rows[0][mask]
            w = self._width
            return rows[0][mask & (1 << w) - 1] | rows[1][mask >> w]
        out = 0
        cols = self.cols
        while mask:
            low = mask & -mask
            out |= cols[low.bit_length() - 1]
            mask ^= low
        return out

    def apply_vec(self, masks: np.ndarray) -> np.ndarray:
        tables = self._chunk_tables
        if len(tables) == 1:
            return tables[0].take(masks)
        w = self._width
        return tables[0].take(masks & np.uint32((1 << w) - 1)) | tables[1].take(masks >> w)

    def after(self, inner: "ColumnOperator") -> tuple[int, ...]:
        image = {col: self.apply(col) for col in set(inner.cols)}
        return tuple(map(image.__getitem__, inner.cols))


def map_apply(images: tuple[int, ...], mask: int) -> int:
    out = 0
    for b in _bits(mask):
        out |= 1 << images[b]
    return out


def perm_columns(perm) -> tuple[int, ...]:
    """The column table of an atom map: column b is the mask of perm[b]."""
    return tuple(1 << a for a in perm)


def transp_columns(structure, i: int, j: int) -> tuple[int, ...]:
    """The column table of the transposition P_ij."""
    return perm_columns(structure.transp_op(i, j).images)


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
            [i, j, pairs(transp_columns(structure, i, j))]
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
    return out


def after(self, inner) -> tuple[int, ...]:
    if inner.images is not None:
        if self.images is None:
            return tuple(map(self.cols.__getitem__, inner.images))
        return tuple(1 << self.images[c] for c in inner.images)
    keys = tuple(map(id, inner.cols))
    image, values = {}, {}
    for key, col in dict(zip(keys, inner.cols)).items():
        value = values.get(col)
        if value is None:
            value = values[col] = self.apply(col)
        image[key] = value
    return tuple(map(image.__getitem__, keys))


def _holders(cols) -> dict[int, int]:
    """Per distinct column, the mask of the atoms whose column it is."""
    holders: dict[int, int] = {}
    for b, col in enumerate(cols):
        holders[col] = holders.get(col, 0) | 1 << b
    return holders


def transpose(cols) -> tuple[int, ...]:
    """Column table of the converse relation: column a is {b : (a, b) in R}."""
    rows = [0] * len(cols)
    for col, held in _holders(cols).items():
        for a in _bits(col):
            rows[a] |= held
    return tuple(rows)


def cyl_fixed_masks(structure, i: int) -> list[int]:
    masks = [0]
    for c in dict.fromkeys(structure.cyl_image_masks(i)):
        masks += [m | c for m in masks]
    return masks

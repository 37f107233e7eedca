"""Finite cylindric/polyadic atom structures and their complex algebras.

A structure of dimension n carries, for each index i < n, a cylindrifier
accessibility relation T_i on atoms, for each ordered pair (i, j) a diagonal
atom set E_ij, and optionally, for each unordered pair, a transposition
P_ij, an involution of the atoms.  The complex algebra lives on subsets of
the atom set: cylindrification is the T_i-preimage operator, diagonals are
constants, and transpositions act through P_ij.

Elements are dense bitmasks over atom indices.  Each relation is stored
once: T_i as its column table (column b is the mask of {a : (a, b) in
T_i}), P_ij as its permutation (entry b is the one atom it relates to b).
Both act as the image map x -> {a : exists b in x with (a, b) in R}, an
`AdditiveOperator` (`cyl_op`, `transp_op`).  The other modules use the
same primitive for every atom-wise image map: the quotient maps of `neat`,
the copy map of atom splitting in `constructions`, and converse and
composition in `ra`.  An operator applies to one mask (`apply`) or to a
uint32 array of masks (`apply_vec`), through lookup tables on at most 32
atoms.  (a, b) pairs appear only as input to `CaAtomStructure.build` and
in JSON output.  Everything else is immutable after construction;
operations are pure and freely shareable across tasks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

MAX_DIM = 8
MAX_ATOMS = 1 << 16

Pair = tuple[int, int]


class StructureMismatchError(ValueError):
    """Raised when an operation mixes Elements of different structures."""


class SignatureError(ValueError):
    """Raised when a transposition operation hits a structure without P_ij."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive procedure would exceed its stated budget."""


def _pair_rank(i: int, j: int, dim: int) -> int:
    """Rank of the unordered pair {i, j}, i < j, in lexicographic order."""
    if not 0 <= i < j < dim:
        raise ValueError(f"need 0 <= i < j < dim, got ({i},{j}) at dim {dim}")
    return i * (2 * dim - i - 1) // 2 + (j - i - 1)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _label_search(
    lab: list[int],
    free: Sequence[int],
    mirror: Sequence[int],
    conv: Sequence[int],
    candidates: Callable[[int], int],
    tick: Callable[[], None],
) -> Iterator[None]:
    """Backtracking over the slots ``free`` in order, lowest atom first.

    ``lab`` is the flat labelling, -1 where unlabelled; ``candidates(at)``
    is the atom mask of ``free[at]`` given the slots before it.  Placing
    atom a at ``free[at]`` also writes ``conv[a]`` at ``mirror[at]``.  One
    ``tick()`` per slot visited and one per atom placed; yields whenever
    ``lab`` is total.
    """
    n = len(free)
    if not n:
        yield
        return
    masks = [0] * n
    at = 0
    tick()
    masks[0] = candidates(0)
    while at >= 0:
        mask = masks[at]
        if not mask:
            lab[free[at]] = lab[mirror[at]] = -1
            at -= 1
            continue
        low = mask & -mask
        masks[at] = mask ^ low
        a = low.bit_length() - 1
        tick()
        lab[free[at]] = a
        lab[mirror[at]] = conv[a]
        if at + 1 == n:
            yield
        else:
            at += 1
            tick()
            masks[at] = candidates(at)


# Above this many atoms an operator keeps to the bit loop: its tables would
# hold 2 * 2^16 masks of n bits at 32 atoms (512 KiB) and grow with n above
# that, and apply_vec needs masks that fit a uint32.
_TABLE_ATOMS = 32
# The widest chunk of a mask one table covers: 2^16 uint32 entries, 256 KiB.
_CHUNK_BITS = 16


class AdditiveOperator:
    """The image map x -> OR of cols[b] over the atoms b of x.

    `cols[b]` is the mask of {a : (a, b) in R} for one relation R, so this
    is the complete additive operator of R.  `of_map` stores a function R
    as its map instead: `images[b]` is the one atom R relates to b, and
    `cols` is None (`images` is None on the column form).  On at most 32
    atoms in and out `apply` and `apply_vec` read lookup tables, built on
    first use, the same bytes from either form: the n input bits are cut
    into the fewest chunks of at most 16 bits, all of equal width (one
    n-bit chunk up to 16 atoms, two of ceil(n/2) bits up to 32), and one
    table per chunk holds the image of every value of that chunk (the
    "Four Russians" scheme of Arlazarov et al., 1970).  So an application
    is one table read up to 16 atoms and two above, and the tables of one
    operator take at most 256 KiB up to 16 atoms and 512 KiB at 32.
    Otherwise `apply_vec` raises and `apply` walks the set bits top down: the
    mask shortens at each step, with no full-width `mask & -mask` pass.
    """

    def __init__(self, cols: tuple[int, ...]) -> None:
        self.cols, self.images = cols, None
        self._shape(len(cols), max(cols, default=0).bit_length())

    @classmethod
    def of_map(cls, images: tuple[int, ...]) -> "AdditiveOperator":
        """The image map of the atom map b -> images[b], kept as the map."""
        op = cls.__new__(cls)
        op.cols, op.images = None, images
        op._shape(len(images), max(images, default=-1) + 1)
        return op

    def _shape(self, n: int, span: int) -> None:
        # n atoms in, every image below bit span
        self._atoms = n
        self._tabled = n <= _TABLE_ATOMS and span <= _TABLE_ATOMS
        self._chunks = -(-n // _CHUNK_BITS) or 1
        self._width = -(-n // self._chunks)

    @cached_property
    def _chunk_tables(self) -> tuple[np.ndarray, ...]:
        """Per chunk k, entry m: the image of the mask m << (k * _width).
        The rows are cut from one array, the last to the values of its
        real bits.  At odd atom counts from 17 to 31 the two chunks cover
        one bit more than the atoms; a mask with that bit then reads past
        the end of the cut row and raises IndexError, as every bit above
        the atoms does."""
        if not self._tabled:
            raise ValueError(f"lookup tables need at most {_TABLE_ATOMS} atoms in and out")
        w = self._width
        tables = np.zeros((self._chunks, 1 << w), dtype=np.uint32)
        cols = self.cols if self.images is None else (1 << a for a in self.images)
        for b, col in enumerate(cols):
            row, half = tables[b // w], 1 << (b % w)
            # the chunk values whose top bit is b: the values below it, joined with col
            row[half : 2 * half] = row[:half] | np.uint32(col)
        last = self._atoms - (self._chunks - 1) * w
        return (*tables[:-1], tables[-1][: 1 << last])

    @cached_property
    def _rows(self) -> tuple[memoryview, ...]:
        # the rows as memoryviews, whose items read back as Python ints
        return tuple(memoryview(row) for row in self._chunk_tables)

    def apply(self, mask: int) -> int:
        """Image of one mask."""
        if self._tabled:
            rows = self._rows
            if len(rows) == 1:
                return rows[0][mask]
            w = self._width
            return rows[0][mask & (1 << w) - 1] | rows[1][mask >> w]
        out = 0
        cols, images = self.cols, self.images
        if images is not None:
            while mask:
                b = mask.bit_length() - 1
                out |= 1 << images[b]
                mask ^= 1 << b
            return out
        while mask:
            b = mask.bit_length() - 1
            out |= cols[b]
            mask ^= 1 << b
        return out

    def apply_vec(self, masks: np.ndarray) -> np.ndarray:
        """Images of a uint32 array of masks, one gather per chunk."""
        tables = self._chunk_tables
        if len(tables) == 1:
            return tables[0].take(masks)
        w = self._width
        return tables[0].take(masks & np.uint32((1 << w) - 1)) | tables[1].take(masks >> w)

    def after(self, inner: "AdditiveOperator") -> tuple[int, ...]:
        """Column masks of the relational composite self after inner.

        Column b of the composite is the image of inner's column b, so it
        depends on that column alone.  Over a map, that column is one atom
        and the composite is self's columns reindexed by the map.
        Otherwise `self` is applied once per distinct column of `inner`
        (`_holders`) and the image shared by the columns that hold it.  This
        is exact on any relation; on an equivalence it costs one apply per
        class.
        """
        if inner.images is not None:
            if self.images is None:
                return tuple(map(self.cols.__getitem__, inner.images))
            return tuple(1 << self.images[c] for c in inner.images)
        image = [0] * len(inner.cols)
        for col, held in _holders(inner.cols).items():
            value = self.apply(col)
            for b in held:
                image[b] = value
        return tuple(image)


def column_pairs(cols: Sequence[int]) -> Iterator[Pair]:
    """The (a, b) pairs of a column table in column order: b ascending,
    then a."""
    for b, col in enumerate(cols):
        for a in _bits(col):
            yield a, b


def _holders(cols: Sequence[int]) -> dict[int, list[int]]:
    """The one grouping of a column table: per distinct column, in order of
    first occurrence, the atoms whose column it is, ascending.  Columns are
    grouped by object, so a mask object shared by many columns, as the class
    masks of `class_columns` and the columns `CaAtomStructure.build` interns
    are, is hashed once rather than once per column."""
    holders: dict[int, list[int]] = {}
    by_object: dict[int, list[int]] = {}
    for b, col in enumerate(cols):
        held = by_object.get(id(col))
        if held is None:
            held = by_object[id(col)] = holders.setdefault(col, [])
        held.append(b)
    return holders


def transpose(cols: Sequence[int]) -> tuple[int, ...]:
    """Column table of the converse relation: column a is {b : (a, b) in R}.

    One OR per bit of each distinct column, so an equivalence costs one
    per atom.
    """
    rows = [0] * len(cols)
    for col, held in _holders(cols).items():
        mask = sum(1 << b for b in held)
        for a in _bits(col):
            rows[a] |= mask
    return tuple(rows)


def class_columns(n: int, classes: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Column table of the equivalence on n atoms with these classes: each
    class mask is built once and is the column of every member."""
    cols = [0] * n
    for cls in classes:
        members = tuple(cls)
        mask = 0
        for a in members:
            mask |= 1 << a
        for a in members:
            cols[a] = mask
    return tuple(cols)


@dataclass(frozen=True)
class CaAtomStructure:
    """Dimension-n atom frame: atoms, T_i relations, E_ij sets, optional P_ij.

    `cyl[i]` is the column table of T_i: n masks, column b the mask of
    {a : (a, b) in T_i}.  `transp` is None for a pure cylindric signature,
    otherwise one permutation per unordered index pair in lexicographic
    order: entry b of P_ij's is the one atom a with (a, b) in P_ij.  Each
    is the form its operator reads.  `diag[i][j]` is the frozenset E_ij.
    `build` is the one constructor from (a, b) pairs, and checks that each
    P_ij is a bijection.  Construction enforces only the type invariants
    (index ranges, E_ii full, each P_ij an involution); the genuine frame
    conditions live in check_ca_frame.
    """

    dim: int
    atoms: tuple[str, ...]
    cyl: tuple[tuple[int, ...], ...]
    diag: tuple[tuple[frozenset[int], ...], ...]
    transp: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not 2 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 2..{MAX_DIM}, got {self.dim}")
        n = len(self.atoms)
        if not 0 < n <= MAX_ATOMS:
            raise ValueError(f"atom count must be in 1..{MAX_ATOMS}, got {n}")
        if len(set(self.atoms)) != n:
            raise ValueError("atom labels must be unique")
        if len(self.cyl) != self.dim:
            raise ValueError("need one cylindrifier relation per index")
        for cols in self.cyl:
            if len(cols) != n:
                raise ValueError(f"cylindrifier relation needs one column per atom, got {len(cols)}")
            for b, col in enumerate(cols):
                if col >> n:
                    a = col.bit_length() - 1
                    raise ValueError(f"cylindrifier pair ({a},{b}) out of range")
        if len(self.diag) != self.dim or any(len(row) != self.dim for row in self.diag):
            raise ValueError("diagonal sets must form a dim x dim grid")
        full = frozenset(range(n))
        for i in range(self.dim):
            for j in range(self.dim):
                if not self.diag[i][j] <= full:
                    raise ValueError(f"diagonal set E_{i}{j} out of range")
            if self.diag[i][i] != full:
                raise ValueError(f"E_{i}{i} must be the full atom set")
        if self.transp is not None:
            npairs = self.dim * (self.dim - 1) // 2
            if len(self.transp) != npairs:
                raise ValueError("need one transposition relation per unordered pair")
            for perm in self.transp:
                if len(perm) != n:
                    raise ValueError(
                        f"transposition relation needs one image per atom, got {len(perm)}"
                    )
                for b, a in enumerate(perm):
                    if not 0 <= a < n:
                        raise ValueError(f"transposition pair ({a},{b}) out of range")
                    if perm[a] != b:
                        raise ValueError("transposition relation is not an involution")
        object.__setattr__(self, "_full_mask", (1 << n) - 1)
        object.__setattr__(self, "_cyl_ops", tuple(map(AdditiveOperator, self.cyl)))
        diag_mask = tuple(
            tuple(sum(1 << a for a in self.diag[i][j]) for j in range(self.dim))
            for i in range(self.dim)
        )
        object.__setattr__(self, "_diag_mask", diag_mask)
        ops = None if self.transp is None else tuple(map(AdditiveOperator.of_map, self.transp))
        object.__setattr__(self, "_transp_ops", ops)

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return self._full_mask  # type: ignore[attr-defined]

    def cyl_op(self, i: int) -> AdditiveOperator:
        """The cylindrifier c_i: the additive operator of T_i."""
        self._check_index(i)
        return self._cyl_ops[i]  # type: ignore[attr-defined]

    def cyl_image_masks(self, i: int) -> tuple[int, ...]:
        """Per atom b, the mask of {a : (a,b) in T_i}."""
        return self.cyl_op(i).cols

    def diag_mask(self, i: int, j: int) -> int:
        self._check_index(i)
        self._check_index(j)
        return self._diag_mask[i][j]  # type: ignore[attr-defined]

    def transp_op(self, i: int, j: int) -> AdditiveOperator:
        """The transposition s_ij for i != j: the additive operator of P_ij,
        whose `images` is the stored permutation."""
        if self.transp is None:
            raise SignatureError("structure carries no transposition relations")
        return self._transp_ops[_pair_rank(min(i, j), max(i, j), self.dim)]  # type: ignore[attr-defined]

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.dim:
            raise ValueError(f"index {i} out of range for dimension {self.dim}")

    @classmethod
    def build(
        cls,
        dim: int,
        atoms: Sequence[str],
        cyl: Sequence[Iterable[Pair]],
        diag: Sequence[Sequence[Iterable[int]]],
        transp: Sequence[Iterable[Pair]] | None = None,
    ) -> "CaAtomStructure":
        """The structure from (a, b) pairs and atom index sets: each pair is
        range-checked, a cylindrifier pair ORed into column b of its
        relation's table, and a transposition's pairs read off as the
        image of each b once they form a bijection.  Equal columns are one
        int object, which `_holders` hashes once."""
        atoms = tuple(atoms)
        n = len(atoms)
        interned: dict[int, int] = {}

        def indices(xs: Iterable, name: str) -> tuple:
            xs = tuple(xs)
            bad = next((x for x in xs if type(x) is not int), None)
            if bad is not None:
                raise ValueError(f"{name} has a non-integer atom index {bad!r}")
            return xs

        def checked(rel: Iterable[Pair], kind: str, name: str) -> Iterator[Pair]:
            for pair in rel:
                a, b = indices(pair, f"{kind} relation {name}")
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"{kind} pair ({a},{b}) out of range")
                yield a, b

        def columns(rel: Iterable[Pair], name: str) -> tuple[int, ...]:
            cols = [0] * n
            for a, b in checked(rel, "cylindrifier", name):
                cols[b] |= 1 << a
            return tuple(map(interned.setdefault, cols, cols))

        def permutation(rel: Iterable[Pair], name: str) -> tuple[int, ...]:
            related: list[set[int]] = [set() for _ in range(n)]
            for a, b in checked(rel, "transposition", name):
                related[b].add(a)
            if sum(map(len, related)) != len(set().union(*related)):
                raise ValueError("transposition relation is not functional")
            # n disjoint sets of atoms, each non-empty, hold one atom each
            if not all(related):
                raise ValueError("transposition relation is not a bijection on atoms")
            return tuple(min(col) for col in related)

        names = [f"P{i}{j}" for i in range(dim) for j in range(i + 1, dim)]
        return cls(
            dim=dim,
            atoms=atoms,
            cyl=tuple(columns(rel, f"T{i}") for i, rel in enumerate(cyl)),
            diag=tuple(
                tuple(
                    frozenset(indices(row_j, f"diagonal set E{i}{j}"))
                    for j, row_j in enumerate(row)
                )
                for i, row in enumerate(diag)
            ),
            transp=None if transp is None else tuple(
                permutation(rel, names[r] if r < len(names) else str(r))
                for r, rel in enumerate(transp)
            ),
        )


def _carried(
    structure: CaAtomStructure, indices: Iterable[int], f: AdditiveOperator, g: AdditiveOperator
) -> tuple[tuple, tuple, tuple, tuple | None, list[Pair]]:
    """T, E and P of a structure carried along an atom map, on the given
    source indices in order: new atom c stands for the source atoms g(c),
    which must not be empty, and f, in column form, sends a source atom to
    the new atoms it meets, the c whose g(c) holds it (g's converse).

    Per index i, `images` (T_i(g(c)) for each c) and the carried columns
    f(T_i(g(c))).  Per pair of indices, E'_ij: the c whose least atom of
    g(c) is in E_ij.  Per pair i < j, P'_ij sends c to the one atom of
    f(P_ij(g(c))), with the pairs where some such image is not one atom
    listed; when there are any, or the source has no P_ij, no
    transpositions are returned.  `neat.nr`'s quotient, `neat.rl_x`'s
    relativization and atom splitting read their T, E and P off this.
    """
    indices = tuple(indices)
    images = tuple(structure.cyl_op(i).after(g) for i in indices)
    least = g.images if g.cols is None else [(c & -c).bit_length() - 1 for c in g.cols]
    if min(least, default=0) < 0:
        raise ValueError("every new atom must stand for some source atom")
    rows = [[structure.diag[i][j] for j in indices] for i in indices]
    diag = tuple(tuple(frozenset(c for c, a in enumerate(least) if a in e) for e in r) for r in rows)
    transp, undefined = [], []
    for i, j in combinations(indices, 2) if structure.transp is not None else ():
        moved = f.after(structure.transp_op(i, j))  # f(P_ij(b)) per source atom b
        if g.images is not None:  # each g(c) is one atom
            hits = list(map(moved.__getitem__, g.images))
        else:
            # the union of f(P_ij(b)) over the b that meet c: walk each f(b),
            # a few bits, rather than each g(c)
            hits = [0] * len(least)
            for col, image in zip(f.cols, moved):
                while col:
                    c = col.bit_length() - 1
                    hits[c] |= image
                    col ^= 1 << c
        if any(hit.bit_count() != 1 for hit in hits):
            undefined.append((i, j))
        transp.append(tuple(hit.bit_length() - 1 for hit in hits))
    transp = None if undefined or structure.transp is None else tuple(transp)
    return images, tuple(tuple(map(f.apply, image)) for image in images), diag, transp, undefined


@dataclass(frozen=True, init=False)
class Element:
    """A set of atom indices over a fixed structure, stored as a bitmask.

    A frozen dataclass over (structure, mask), with its own `__init__`:
    construction, unpickling and copying check that the mask is an int from
    0 to the full mask, by comparisons that build no int.  The slots are
    declared here, not by `slots=True`, which rebuilds the class: on Python
    3.11 the rebuilt class's frozen `__setattr__` raises `TypeError`, not
    `FrozenInstanceError`, for a name that is not a field.
    """

    __slots__ = ("structure", "mask")
    structure: object
    mask: int

    def __init__(self, structure: object, mask: int) -> None:
        if not isinstance(mask, int):
            raise TypeError(f"element mask must be an int, got {type(mask).__name__}")
        if not 0 <= mask <= structure._full_mask:  # type: ignore[attr-defined]
            raise ValueError("element mask contains out-of-range atom indices")
        _set_structure(self, structure)
        _set_mask(self, mask)

    def __reduce__(self) -> tuple[type, tuple[object, int]]:
        return Element, (self.structure, self.mask)

    def _join(self, other: "Element") -> object:
        if self.structure is other.structure or self.structure == other.structure:
            return self.structure
        raise StructureMismatchError("elements belong to different structures")

    def __and__(self, other: "Element") -> "Element":
        return Element(self._join(other), self.mask & other.mask)

    def __or__(self, other: "Element") -> "Element":
        return Element(self._join(other), self.mask | other.mask)

    def __sub__(self, other: "Element") -> "Element":
        return Element(self._join(other), self.mask & ~other.mask)

    def __invert__(self) -> "Element":
        return Element(self.structure, self.mask ^ self.structure.full_mask)  # type: ignore[union-attr]

    def __le__(self, other: "Element") -> bool:
        self._join(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, atom_index: int) -> bool:
        return bool(self.mask >> atom_index & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def atom_indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.structure.atoms[a] for a in self)  # type: ignore[union-attr]


# the slots' own setters, which the frozen __setattr__ leaves to __init__
_set_structure = Element.structure.__set__  # type: ignore[attr-defined]
_set_mask = Element.mask.__set__  # type: ignore[attr-defined]


def element(structure: object, indices: Iterable[int]) -> Element:
    mask = 0
    for a in indices:
        mask |= 1 << a
    return Element(structure, mask)


def singleton(structure: object, atom_index: int) -> Element:
    return Element(structure, 1 << atom_index)


def empty(structure: object) -> Element:
    return Element(structure, 0)


def top(structure: object) -> Element:
    return Element(structure, structure.full_mask)  # type: ignore[union-attr]


def _owned(structure: object, x: Element) -> None:
    if x.structure is structure or x.structure == structure:
        return
    raise StructureMismatchError("element does not belong to this structure")


def cyl(structure: CaAtomStructure, i: int, x: Element) -> Element:
    """T_i-preimage: {a : exists b in x with (a,b) in T_i}."""
    _owned(structure, x)
    return Element(structure, structure.cyl_op(i).apply(x.mask))


def diag(structure: CaAtomStructure, i: int, j: int) -> Element:
    """The diagonal set E_ij as an element."""
    return Element(structure, structure.diag_mask(i, j))


def subst_repl(structure: CaAtomStructure, i: int, j: int, x: Element) -> Element:
    """Replacement substitution: x when i = j, else cyl(i, x meet E_ij)."""
    _owned(structure, x)
    structure._check_index(i)
    structure._check_index(j)
    if i == j:
        return x
    return cyl(structure, i, Element(structure, x.mask & structure.diag_mask(i, j)))


def subst_transp(structure: CaAtomStructure, i: int, j: int, x: Element) -> Element:
    """Transposition substitution: {a : exists b in x with (a,b) in P_ij}."""
    _owned(structure, x)
    structure._check_index(i)
    structure._check_index(j)
    if i == j:
        return x
    return Element(structure, structure.transp_op(i, j).apply(x.mask))


def dual_cyl(structure: CaAtomStructure, i: int, x: Element) -> Element:
    """The dual cylindrifier: complement of cyl of complement."""
    return ~cyl(structure, i, ~x)


def delta(structure: CaAtomStructure, x: Element) -> frozenset[int]:
    """Support: the set of indices whose cylindrifier moves x."""
    _owned(structure, x)
    return frozenset(
        i for i in range(structure.dim) if cyl(structure, i, x).mask != x.mask
    )


# ---------------------------------------------------------------------------
# frame conditions


@dataclass(frozen=True)
class FrameCondition:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FrameReport:
    passed: bool
    conditions: tuple[FrameCondition, ...]

    def failing(self) -> tuple[FrameCondition, ...]:
        return tuple(c for c in self.conditions if not c.passed)

    def condition(self, name: str) -> FrameCondition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def equivalence_defects(
    structure: CaAtomStructure, i: int
) -> Iterator[tuple[str, str | None]]:
    """For reflexivity, symmetry and transitivity of T_i in turn, the
    property name and the first violation found, or None if it holds.

    The class test runs first: T_i is an equivalence iff every distinct
    column c is exactly the set of atoms whose column is c (`_holders`),
    one test per distinct column.  Only when it fails do the pair scans
    run, and they run only to name each property's first violation.
    """
    cols = structure.cyl_image_masks(i)
    if all(col == sum(1 << b for b in held) for col, held in _holders(cols).items()):
        for prop in ("reflexive", "symmetric", "transitive"):
            yield prop, None
        return
    yield "reflexive", next(
        (f"T{i} not reflexive at {a}" for a, col in enumerate(cols) if not col >> a & 1),
        None,
    )
    yield "symmetric", next(
        (
            f"T{i} not symmetric at ({a},{b})"
            for a, b in column_pairs(cols)
            if not cols[a] >> b & 1
        ),
        None,
    )
    # transitivity: everything reaching a must reach b
    yield "transitive", next(
        (
            f"T{i} not transitive through ({a},{b})"
            for a, b in column_pairs(cols)
            if cols[a] & ~cols[b]
        ),
        None,
    )


def check_ca_frame(structure: CaAtomStructure) -> FrameReport:
    """Evaluate the fixed frame-condition list for the cylindric signature.

    Conditions: each T_i an equivalence; pairwise commuting composition;
    E_ii full; the diagonal chain rule E_ij = T_k-image of (E_ik meet E_kj)
    for every k outside {i,j}; T_i-uniqueness inside E_ij for i != j; and,
    when transpositions are present, P_ij compatibility with T and E under
    the index swap.  Exhaustive equational checking is the ground truth this
    list is validated against.

    The work grows with the atoms and the distinct columns, not with the
    pairs of the relations: the equivalence test is the class test of
    `equivalence_defects`, the compositions apply once per distinct column
    (`AdditiveOperator.after`), and uniqueness looks at one column per atom
    of E_ij.  A transposition is read as its permutation: the involution
    by index, and each T_k after it by `after`'s reindex.

    `P{i}{j}_involution` cannot fail on a structure that constructs, since
    `CaAtomStructure` refuses a transposition that is not an involution.
    It stays in the list because its name is part of the JSON that
    `cylkit check ca-frame` prints, and tests pin that list.
    """
    dim = structure.dim
    conds: list[FrameCondition] = []

    for i in range(dim):
        for prop, defect in equivalence_defects(structure, i):
            conds.append(FrameCondition(f"T{i}_{prop}", defect is None))

    for i in range(dim):
        for j in range(i + 1, dim):
            ci, cj = structure.cyl_op(i), structure.cyl_op(j)
            conds.append(FrameCondition(f"commute_T{i}_T{j}", ci.after(cj) == cj.after(ci)))

    for i in range(dim):
        conds.append(
            FrameCondition(f"E{i}{i}_full", structure.diag_mask(i, i) == structure.full_mask)
        )

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if k in (i, j):
                    continue
                meet = structure.diag_mask(i, k) & structure.diag_mask(k, j)
                ok = structure.cyl_op(k).apply(meet) == structure.diag_mask(i, j)
                conds.append(FrameCondition(f"diag_chain_E{i}{j}_via_{k}", ok))

    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            dm = structure.diag_mask(i, j)
            cols = structure.cyl_image_masks(i)
            # no atom of E_ij is T_i-related to another atom of E_ij
            ok = not any(cols[b] & dm & ~(1 << b) for b in _bits(dm))
            conds.append(FrameCondition(f"diag_unique_E{i}{j}_in_T{i}", ok))

    if structure.transp is not None:
        for i in range(dim):
            for j in range(i + 1, dim):
                pij = structure.transp_op(i, j)
                inv = all(pij.images[a] == b for b, a in enumerate(pij.images))
                conds.append(FrameCondition(f"P{i}{j}_involution", inv))
                swap = {i: j, j: i}
                ok = all(
                    pij.after(structure.cyl_op(k))
                    == structure.cyl_op(swap.get(k, k)).after(pij)
                    for k in range(dim)
                )
                conds.append(FrameCondition(f"P{i}{j}_cyl_compat", ok))
                ok = all(
                    pij.apply(structure.diag_mask(k, l))
                    == structure.diag_mask(swap.get(k, k), swap.get(l, l))
                    for k in range(dim)
                    for l in range(dim)
                )
                conds.append(FrameCondition(f"P{i}{j}_diag_compat", ok))

    return FrameReport(all(c.passed for c in conds), tuple(conds))


# ---------------------------------------------------------------------------
# JSON serialization


def structure_to_dict(structure: CaAtomStructure) -> dict:
    dim = structure.dim

    def pairs(cols: tuple[int, ...]) -> list[list[int]]:
        # the converse's columns are the rows, so its pairs come in (a, b) order
        return [[a, b] for b, a in column_pairs(transpose(cols))]

    out: dict = {
        "dim": dim,
        "atoms": list(structure.atoms),
        "cyl": [pairs(cols) for cols in structure.cyl],
        "diag": [[sorted(structure.diag[i][j]) for j in range(dim)] for i in range(dim)],
    }
    if structure.transp is not None:
        # an involution relates a to perm[a]: its pairs in (a, b) order
        out["transp"] = [
            [i, j, [[a, b] for a, b in enumerate(structure.transp_op(i, j).images)]]
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
    return out


def structure_to_json(structure: CaAtomStructure) -> str:
    return json.dumps(structure_to_dict(structure), sort_keys=True, indent=2) + "\n"


def structure_from_dict(data: Mapping) -> CaAtomStructure:
    transp = None
    if "transp" in data:
        dim = data["dim"]
        npairs = dim * (dim - 1) // 2
        transp = [[]] * npairs
        for i, j, pairs in data["transp"]:
            transp[_pair_rank(i, j, dim)] = pairs
    return CaAtomStructure.build(
        dim=data["dim"],
        atoms=[str(s) for s in data["atoms"]],
        cyl=data["cyl"],
        diag=data["diag"],
        transp=transp,
    )


def structure_from_json(text: str) -> CaAtomStructure:
    return structure_from_dict(json.loads(text))

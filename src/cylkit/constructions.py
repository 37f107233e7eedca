"""Generators for the finite atom structures of the workbench.

Covers: the pair-partition structures G(m,n) and their polyadic extension,
the exact tower function psi and its capped stand-in, the two closely
related forbidden-triple relation algebras (one per inequality direction),
basic-matrix cylindric structures, full set algebras, the 27-atom cube of
triples, atom splitting, and (in `hyper`) hypernetwork machinery.

Where atoms label node tuples (partitions, matrices, tuples, hypernetworks),
T_i, E_ij and P_ij come from one builder, `_agreement` and `_swaps`; each
structure gives only its atoms, slots, labels and diagonal rule.  Their two
parts, `_classes_off` (agreement off a node set) and `_reads` (renaming by a
node map), also serve the hyperbasis rules of `hyper`.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from itertools import combinations, product, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence, Union

from .bao import AdditiveOperator, CaAtomStructure, Element, Pair, _carried, class_columns
from .ra import RaAtomStructure, Triple, _network_labellings

Tuples = Sequence[tuple[int, ...]]

# ---------------------------------------------------------------------------
# the atom structure of a set of labellings


def _classes_off(slots: Tuples, values: Sequence, nodes: set[int]) -> tuple[int, ...]:
    """Column table of "equal labels on every slot that avoids `nodes`":
    `values[a][k]` is atom a's label on `slots[k]`, a tuple of nodes."""
    keep = [k for k, slot in enumerate(slots) if nodes.isdisjoint(slot)]
    # a bare itemgetter returns a scalar for one slot and refuses none
    key = itemgetter(*keep) if len(keep) > 1 else lambda v: tuple(v[k] for k in keep)
    groups: dict[Hashable, list[int]] = {}
    for a, v in enumerate(values):
        groups.setdefault(key(v), []).append(a)
    return class_columns(len(values), groups.values())


def _reads(slots: Tuples, sigmas: Iterable[Sequence[int]]) -> Iterator[Callable]:
    """Per node map sigma, the read renaming a labelling by sigma: its label
    on each slot is its label on the slot's image under sigma, or on the
    image sorted when that is the slot, so slots may be unordered pairs."""
    where = {slot: k for k, slot in enumerate(slots)}
    for sigma in sigmas:
        moved = [tuple(sigma[x] for x in slot) for slot in slots]
        yield itemgetter(*[where[t] if t in where else where[tuple(sorted(t))] for t in moved])


def _agreement(
    dim: int, slots: Tuples, values: Sequence, diagonal: Callable[..., bool]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[frozenset[int], ...], ...]]:
    """T and E of the atoms that label node tuples: `values[a][k]` is atom
    a's label on `slots[k]`, a tuple of nodes below `dim`.

    T_i relates the atoms with equal labels on every slot that avoids node
    i.  For i != j, E_ij holds the atoms a with `diagonal(values[a], i, j)`;
    E_ii holds every atom.
    """
    cyl = tuple(_classes_off(slots, values, {i}) for i in range(dim))
    full = frozenset(range(len(values)))
    diag = tuple(
        tuple(
            full if i == j else frozenset(a for a, v in enumerate(values) if diagonal(v, i, j))
            for j in range(dim)
        )
        for i in range(dim)
    )
    return cyl, diag


def _swaps(dim: int, slots: Tuples, values: Sequence[tuple[Hashable, ...]]) -> Tuples:
    """P_ij for each pair i < j of the atoms of `_agreement`, as a
    permutation: atom a goes to the atom whose labels are a's read by
    `_reads` with nodes i and j swapped.  Raises KeyError when some image
    is not an atom.
    """
    index = {v: a for a, v in enumerate(values)}
    swaps = [
        [j if x == i else i if x == j else x for x in range(dim)]
        for i, j in combinations(range(dim), 2)
    ]
    return tuple(tuple(index[read(v)] for v in values) for read in _reads(slots, swaps))


def _slot_pairs(m: int) -> list[Pair]:
    return list(combinations(range(m), 2))


def _slot_index(m: int) -> list[list[int]]:
    """Entry (x, y), x != y, is the position of the slot {x, y} in the
    upper-triangle order of `_slot_pairs`; the diagonal holds -1."""
    index = [[-1] * m for _ in range(m)]
    for k, (x, y) in enumerate(_slot_pairs(m)):
        index[x][y] = index[y][x] = k
    return index


# ---------------------------------------------------------------------------
# pair-partition structures


@dataclass(frozen=True)
class MonkAtom:
    """A partition of {0..m-1} plus a colouring of its cross-block pairs.

    blocks: sorted tuple of sorted tuples, a partition of range(m).
    f: sorted tuple of ((a,b), colour) with a < b ranging over pairs of
    elements in distinct blocks.  Colour constancy across blocks and the
    no-monochromatic-triangle condition are construction invariants.
    """

    blocks: tuple[tuple[int, ...], ...]
    f: tuple[tuple[tuple[int, int], int], ...]

    def class_of(self, e: int) -> int:
        for bi, blk in enumerate(self.blocks):
            if e in blk:
                return bi
        raise ValueError(f"element {e} not covered")

    def related(self, a: int, b: int) -> bool:
        return self.class_of(a) == self.class_of(b)

    def colour(self, a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        for pair, c in self.f:
            if pair == key:
                return c
        raise KeyError(f"pair {key} is inside a block")


def _partitions(elems: list[int]) -> Iterator[list[list[int]]]:
    if not elems:
        yield []
        return
    head, rest = elems[0], elems[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def _canon_blocks(blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _monk_data(m: int, ncolours: int) -> tuple[MonkAtom, ...]:
    """All valid (partition, colouring) pairs.

    Colour constancy makes f a function of block pairs, so we colour the
    block-pair graph and forbid monochromatic triangles of distinct blocks.
    """
    out: list[MonkAtom] = []
    for raw in _partitions(list(range(m))):
        blocks = _canon_blocks(raw)
        nb = len(blocks)
        cls = {e: bi for bi, blk in enumerate(blocks) for e in blk}
        bpairs = list(combinations(range(nb), 2))
        for assign in product(range(ncolours), repeat=len(bpairs)):
            col = {bp: c for bp, c in zip(bpairs, assign)}
            ok = True
            for t in combinations(range(nb), 3):
                c01 = col[(t[0], t[1])]
                c02 = col[(t[0], t[2])]
                c12 = col[(t[1], t[2])]
                if c01 == c02 == c12:
                    ok = False
                    break
            if not ok:
                continue
            fitems = []
            for a, b in combinations(range(m), 2):
                ca, cb = cls[a], cls[b]
                if ca != cb:
                    fitems.append(((a, b), col[(min(ca, cb), max(ca, cb))]))
            out.append(MonkAtom(blocks, tuple(sorted(fitems))))
    out.sort(key=lambda at: (at.blocks, at.f))
    return tuple(out)


def _monk_shapes(m: int, data: Sequence[MonkAtom]) -> list[tuple[int, ...]]:
    """Each atom as one label per slot of `_slot_pairs(m)`: 0 when the two
    nodes share a block, else 1 + their colour."""
    pairs = _slot_pairs(m)
    shapes = []
    for at in data:
        block = [0] * m
        for bi, blk in enumerate(at.blocks):
            for e in blk:
                block[e] = bi
        colours = dict(at.f)
        shapes.append(tuple(0 if block[a] == block[b] else 1 + colours[a, b] for a, b in pairs))
    return shapes


def monk_label(atom: MonkAtom) -> str:
    return repr((atom.blocks, atom.f))


def parse_monk_label(label: str) -> MonkAtom:
    """The atom a `monk_label` names.  Raises ValueError for any label that
    is not a partition of 0..m-1 with a colour on each cross-block pair."""
    try:
        blocks, fitems = ast.literal_eval(label)
        atom = MonkAtom(tuple(map(tuple, blocks)), tuple((tuple(p), c) for p, c in fitems))
        elems = sorted(e for b in atom.blocks for e in b)
        cross = [p for p in combinations(elems, 2) if not atom.related(*p)]
        colours = sorted(p for p, c in atom.f if isinstance(c, int))
        if elems != list(range(len(elems))) or colours != cross:
            raise ValueError("not a partition with a colour on each cross-block pair")
    except (SyntaxError, TypeError, ValueError) as exc:
        raise ValueError(f"not a pair-partition label: {label!r}") from exc
    return atom


def monk_atoms(m: int, n: int) -> CaAtomStructure:
    """The dimension-m structure of coloured pair partitions with n colours.

    Atoms are all (R, f) pairs satisfying the five defining conditions;
    T_kappa relates atoms agreeing away from kappa, and E_kappa,lambda
    collects the atoms whose partition relates kappa and lambda.
    """
    if not 3 <= m <= 5:
        raise ValueError(f"m must be in 3..5, got {m}")
    if not m <= n <= 6:
        raise ValueError(f"n must be in {m}..6, got {n}")
    data = _monk_data(m, n)
    where = _slot_index(m)
    cyl, diag = _agreement(
        m, _slot_pairs(m), _monk_shapes(m, data), lambda shape, x, y: shape[where[x][y]] == 0
    )
    return CaAtomStructure(dim=m, atoms=tuple(monk_label(at) for at in data), cyl=cyl, diag=diag)


def monk_atom_listing(structure: CaAtomStructure) -> list[dict]:
    """Human-readable (partition, colouring) listing for export."""
    out = []
    for label in structure.atoms:
        at = parse_monk_label(label)
        out.append(
            {
                "R": [list(b) for b in at.blocks],
                "f": {f"{a},{b}": c for (a, b), c in at.f},
            }
        )
    return out


def johnson_extend(structure: CaAtomStructure) -> CaAtomStructure:
    """Add transposition relations to a pair-partition structure.

    The transposition for (i,j) sends an atom to its conjugate under the
    index swap: the partition has i and j exchanged and the colouring is
    pulled back along the swap.  Atoms whose partition relates i and j are
    fixed, since colour constancy makes the pulled-back colouring equal.
    T and E stay the input's.  Labels that are not pair partitions, or atoms
    not closed under the swaps, are refused.
    """
    m = structure.dim
    try:
        shapes = _monk_shapes(m, [parse_monk_label(label) for label in structure.atoms])
        transp = _swaps(m, _slot_pairs(m), shapes)
    except (ValueError, LookupError) as exc:
        raise ValueError("structure was not produced by monk_atoms") from exc
    return replace(structure, transp=transp)


# ---------------------------------------------------------------------------
# the tower function and the two forbidden-triple families


def kappa(x: int, y: int) -> int:
    """kappa(x,0) = 0 and kappa(x,y+1) = 1 + x * kappa(x,y), exactly."""
    if x < 0 or y < 0:
        raise ValueError("arguments must be nonnegative")
    v = 0
    for _ in range(y):
        v = 1 + x * v
    return v


def psi(n: int, r: int) -> int:
    """psi(n,r) = kappa((n-1)r, (n-1)r) + 1, exactly."""
    if n < 1 or r < 0:
        raise ValueError("arguments out of range")
    return kappa((n - 1) * r, (n - 1) * r) + 1


def _graded_atoms(n: int, r: int, cap: int) -> list[str]:
    out = ["Id"]
    for i in range(n - 1):
        for j in range(r):
            for k in range(cap):
                out.append(f"a^{k}({i},{j})")
    return out


def _colour_triples(
    n: int, r: int, cap: int, keep: Callable[[int, int], bool]
) -> list[Triple]:
    """Triples of two like-coloured atoms and a third in the same row.

    `keep(j_pair, j_third)` selects which column pairs are forbidden; the
    two graded families differ only in the direction of that inequality.
    """

    def idx(k: int, i: int, j: int) -> int:
        return 1 + (i * r + j) * cap + k

    out: list[Triple] = []
    for i in range(n - 1):
        for j in range(r):
            for j2 in range(r):
                if not keep(j, j2):
                    continue
                for k in range(cap):
                    for k2 in range(cap):
                        for k3 in range(cap):
                            out.append((idx(k, i, j), idx(k2, i, j), idx(k3, i, j2)))
    return out


def hh_ra(n: int, r: int, psi_cap: int, *, strict: bool = True) -> RaAtomStructure:
    """Self-converse graded relation algebra: pair column below third column.

    Atoms: Id plus a^k(i,j) for i < n-1, j < r, k < psi_cap.  Forbidden, up
    to Peircean closure: permutations of (Id, s, t) for s != t, and of two
    (i,j)-atoms with an (i,j')-atom whenever j < j'.

    The strict inequality is what makes composition associative; with
    strict=False the same-column triangles are forbidden too, and the
    resulting structure fails associativity (take a same-column pair
    composed against a different row).  The default keeps the structure a
    genuine relation algebra.
    """
    if n < 3 or r < 1:
        raise ValueError("need n >= 3 and r >= 1")
    if psi_cap < max(n, r):
        raise ValueError("psi_cap must be at least max(n, r)")
    atoms = _graded_atoms(n, r, psi_cap)
    na = len(atoms)
    forb: list[Triple] = [(0, b, c) for b in range(na) for c in range(na) if b != c]
    if strict:
        forb += _colour_triples(n, r, psi_cap, keep=lambda j, j2: j < j2)
    else:
        forb += _colour_triples(n, r, psi_cap, keep=lambda j, j2: j <= j2)
    return RaAtomStructure.build(
        atoms=atoms, identity=[0], converse=range(na), forbidden=forb
    )


def bin_forb(n: int, r: int, psi_cap: int | None = None) -> RaAtomStructure:
    """Graded atom family with third-column <= pair-column forbids.

    Same atom universe as hh_ra, but the colour family forbids two
    (i,j)-atoms with an (i,j')-atom whenever j' <= j, and the identity
    family is the raw {(Id, b, c) : b != c} before closure.  When psi_cap
    is omitted, the exact tower value is used if it is small enough.
    """
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    if psi_cap is None:
        exact = psi(n, r)
        if exact > 1 << 20:
            raise ValueError(f"exact psi({n},{r}) = {exact} is infeasible; pass psi_cap")
        psi_cap = exact
    if psi_cap < 1:
        raise ValueError("psi_cap must be positive")
    atoms = _graded_atoms(n, r, psi_cap)
    na = len(atoms)
    forb: list[Triple] = [(0, b, c) for b in range(na) for c in range(na) if b != c]
    forb += _colour_triples(n, r, psi_cap, keep=lambda j, j2: j2 <= j)
    return RaAtomStructure.build(
        atoms=atoms, identity=[0], converse=range(na), forbidden=forb
    )


# ---------------------------------------------------------------------------
# basic matrices


def validate_matrix(bin_ra: RaAtomStructure, values: Sequence[int]) -> bool:
    """Triangle condition for a symmetric matrix given by upper-triangle values.

    The m x m entry table, the identity atom on its diagonal, is built once;
    then each (x, y) tests the triples (xy, yz, xz) over every z against the
    forbidden set in one pass.  It reads the triple set on purpose, not the
    composition table that the network search reads: it is the independent
    route that re-checks the matrices that search yields.
    """
    m = _matrix_side(len(values))
    (id_atom,) = bin_ra.identity
    rows = [[id_atom] * m for _ in range(m)]
    for (x, y), v in zip(_slot_pairs(m), values):
        rows[x][y] = rows[y][x] = v
    forbidden = bin_ra.forbidden
    for row_x in rows:
        for xy, row_y in zip(row_x, rows):
            if not forbidden.isdisjoint(zip(repeat(xy), row_y, row_x)):
                return False
    return True


def _matrix_side(nslots: int) -> int:
    m = 2
    while m * (m - 1) // 2 < nslots:
        m += 1
    if m * (m - 1) // 2 != nslots:
        raise ValueError(f"{nslots} is not a triangular number")
    return m


def enumerate_matrices(m: int, bin_ra: RaAtomStructure) -> tuple[tuple[int, ...], ...]:
    """All symmetric Id-diagonal matrices avoiding forbidden triangles.

    These are the atom networks on m nodes, and the structure must have a
    single identity atom and every atom its own converse: then the
    networks are exactly the symmetric matrices, each read off once from
    its upper triangle.  Matrices are returned as upper-triangle value
    tuples over the slot order (0,1),(0,2),...,(m-2,m-1), in
    lexicographic order; they come from the network search
    `ra._network_labellings`.
    """
    if len(bin_ra.identity) != 1:
        raise ValueError("matrix enumeration needs a single identity atom")
    if any(b != a for a, b in enumerate(bin_ra.converse)):
        raise ValueError("matrix enumeration needs every atom to be its own converse")
    upper = [x * m + y for x, y in _slot_pairs(m)]
    return tuple(
        tuple(labels[k] for k in upper)
        for labels in _network_labellings(bin_ra, m, {}, lambda: None)
    )


def matrix_label(bin_ra: RaAtomStructure, values: Sequence[int]) -> str:
    return repr(tuple(bin_ra.atoms[v] for v in values))


def basic_matrices(m: int, bin_ra: RaAtomStructure) -> CaAtomStructure:
    """Dimension-m structure of basic matrices over a graded atom family.

    T_x relates matrices agreeing away from row/column x, E_xy collects the
    matrices with an identity entry at (x,y), and P_xy conjugates a matrix
    by the index swap.
    """
    return _basic_matrices(m, bin_ra)[0]


def _basic_matrices(
    m: int, bin_ra: RaAtomStructure
) -> tuple[CaAtomStructure, tuple[tuple[int, ...], ...]]:
    """`basic_matrices` and the matrices of its atoms, in atom order, as
    `enumerate_matrices` lists them."""
    if not 3 <= m <= 4:
        raise ValueError(f"m must be in 3..4, got {m}")
    mats = enumerate_matrices(m, bin_ra)
    if not mats:
        raise ValueError("matrix set is empty; parameters are over-constrained")
    for values in mats:
        if not validate_matrix(bin_ra, values):
            raise AssertionError("enumerated matrix fails the triangle condition")
    labels = tuple(matrix_label(bin_ra, v) for v in mats)
    slots = _slot_pairs(m)
    where = _slot_index(m)
    (id_atom,) = bin_ra.identity
    cyl, diag = _agreement(m, slots, mats, lambda v, x, y: v[where[x][y]] == id_atom)
    transp = _swaps(m, slots, mats)
    return CaAtomStructure(dim=m, atoms=labels, cyl=cyl, diag=diag, transp=transp), mats


# ---------------------------------------------------------------------------
# set algebras


def full_set_algebra(n: int, base_size: int) -> CaAtomStructure:
    """The full complex algebra of n-tuples over a finite base.

    Atoms are the tuples; T_i relates tuples agreeing away from i, E_ij is
    the equal-coordinate set, and P_ij swaps coordinates.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"n must be in 2..4, got {n}")
    if not 2 <= base_size <= 4:
        raise ValueError(f"base_size must be in 2..4, got {base_size}")
    tuples = list(product(range(base_size), repeat=n))
    # coordinate i is the label on the one-node slot (i,)
    slots = [(i,) for i in range(n)]
    cyl, diag = _agreement(n, slots, tuples, lambda t, i, j: t[i] == t[j])
    labels = tuple(repr(t) for t in tuples)
    transp = _swaps(n, slots, tuples)
    return CaAtomStructure(dim=n, atoms=labels, cyl=cyl, diag=diag, transp=transp)


def three_cube() -> CaAtomStructure:
    """The 27-atom structure of triples over a 3-element base."""
    return full_set_algebra(3, 3)


# ---------------------------------------------------------------------------
# atom splitting


@dataclass(frozen=True)
class SplitPolicy:
    """How to split: number of copies and the rule for copy-copy relations.

    intra = "inherit" relates copies exactly when the original atom was
    related to itself.  A callable intra(p, q) -> bool refines the
    copy-copy entries of the cylindrifier relations (CA case) or defines
    the converse pairing between copies (RA case, where it must be an
    involutive perfect matching).
    """

    copies: int
    intra: Union[str, Callable[[int, int], bool]] = "inherit"

    def __post_init__(self) -> None:
        if self.copies < 2:
            raise ValueError("copy count must be at least 2")
        if isinstance(self.intra, str) and self.intra != "inherit":
            raise ValueError(f"unknown intra-copy rule {self.intra!r}")


@dataclass(frozen=True)
class SplitResult:
    """The split structure, the copies of each old atom (`copy_map`, and as
    an operator, `lift`), and the split atom."""

    structure: object
    copy_map: tuple[tuple[int, ...], ...]
    split_atom: int
    lift: AdditiveOperator = field(compare=False, repr=False)

    def embed(self, x: Element) -> Element:
        """Additive extension of the atom embedding to an old element."""
        return Element(self.structure, self.lift.apply(x.mask))

    def embed_atom(self, a: int) -> Element:
        return Element(self.structure, self.lift.cols[a])


def split_atom(structure, a: int, policy: SplitPolicy) -> SplitResult:
    """Replace atom a by `policy.copies` fresh copies standing in its relations.

    Frame conditions survive exactly when the split atom lies outside every
    off-diagonal E_ij: an atom below some E_ij cannot be split without both
    copies staying inside E_ij while remaining T_i-related, which breaks
    diagonal uniqueness.  Callers splitting sub-diagonal atoms get the
    resulting (non-frame) structure with no error; check_ca_frame reports
    the damage.
    """
    if isinstance(structure, CaAtomStructure):
        return _split_ca(structure, a, policy)
    if isinstance(structure, RaAtomStructure):
        return _split_ra(structure, a, policy)
    raise TypeError(f"cannot split atoms of {type(structure).__name__}")


def _split_indexing(n: int, a: int, k: int):
    """The copies of each old atom, the old atom of each new one, and the
    copy map as an operator."""
    if not 0 <= a < n:
        raise ValueError(f"atom index {a} out of range")
    copy_map = tuple(
        tuple(range(a, a + k)) if old == a else (old if old < a else old + k - 1,)
        for old in range(n)
    )
    # the copies are numbered in the order of their old atoms
    proj = tuple(old for old, news in enumerate(copy_map) for _ in news)
    lift = AdditiveOperator(tuple(sum(1 << new for new in news) for news in copy_map))
    return copy_map, proj, lift


def _split_labels(labels: Sequence[str], a: int, k: int) -> list[str]:
    return [*labels[:a], *(f"{labels[a]}#{p}" for p in range(k)), *labels[a + 1 :]]


def _split_ca(structure: CaAtomStructure, a: int, policy: SplitPolicy) -> SplitResult:
    k = policy.copies
    copy_map, proj, lift = _split_indexing(structure.natoms, a, k)
    labels = _split_labels(structure.atoms, a, k)
    transp = None
    if structure.transp is not None:
        if any(perm[a] != a for perm in structure.transp):
            raise ValueError("cannot split an atom moved by a transposition")
        # a's copies stay individually fixed; every other atom has one copy
        transp = tuple(
            tuple(new if old == a else copy_map[perm[old]][0] for new, old in enumerate(proj))
            for perm in structure.transp
        )
    # a new atom's column is its source atom's, each atom replaced by its copies
    _, cyl, diag, _, _ = _carried(
        structure, range(structure.dim), lift, AdditiveOperator.of_map(proj)
    )
    if callable(policy.intra):
        # where T_i relates a to itself, the policy picks the copy-copy pairs
        news, copies = copy_map[a], lift.cols[a]
        kept = [sum(1 << x for x in news if policy.intra(x - a, y - a)) for y in news]
        cyl = tuple(
            col[:a] + tuple(c & ~copies | m for c, m in zip(col[a : a + k], kept)) + col[a + k :]
            if source[a] >> a & 1
            else col
            for col, source in zip(cyl, structure.cyl)
        )
    new_structure = CaAtomStructure(
        dim=structure.dim, atoms=tuple(labels), cyl=cyl, diag=diag, transp=transp
    )
    return SplitResult(new_structure, copy_map, a, lift)


def _split_ra(structure: RaAtomStructure, a: int, policy: SplitPolicy) -> SplitResult:
    k = policy.copies
    copy_map, proj, lift = _split_indexing(structure.natoms, a, k)
    labels = _split_labels(structure.atoms, a, k)
    nn = len(labels)

    if callable(policy.intra):
        matching = {}
        for p in range(k):
            partners = [q for q in range(k) if policy.intra(p, q)]
            if len(partners) != 1:
                raise ValueError("custom predicate inconsistent with converse involution")
            matching[p] = partners[0]
        if any(matching[matching[p]] != p for p in matching):
            raise ValueError("custom predicate inconsistent with converse involution")
    else:
        matching = {p: p for p in range(k)}
    if structure.converse[a] != a:
        raise ValueError("cannot split an atom with a distinct converse partner")

    converse = [
        a + matching[new - a] if old == a else copy_map[structure.converse[old]][0]
        for new, old in enumerate(proj)
    ]
    forbidden = [
        t for x, y, z in structure.forbidden for t in product(copy_map[x], copy_map[y], copy_map[z])
    ]
    identity = [new for new in range(nn) if proj[new] in structure.identity]
    new_structure = RaAtomStructure(
        atoms=tuple(labels),
        identity=frozenset(identity),
        converse=tuple(converse),
        forbidden=frozenset(forbidden),
    )
    return SplitResult(new_structure, copy_map, a, lift)

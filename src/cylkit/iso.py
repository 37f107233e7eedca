"""Isomorphism search between finite atom structures.

Backtracking over atom bijections, pruned by cheap per-atom invariants.
Works for both cylindric-style structures (column tables of the relations,
diagonal sets, optional transposition permutations) and relation-algebra
atom structures.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterator, Sequence

from .bao import AdditiveOperator, CaAtomStructure, transpose
from .ra import RaAtomStructure


def _search(
    prof_a: Sequence[tuple],
    prof_b: Sequence[tuple],
    consistent: Callable[[int, int, dict[int, int]], bool],
) -> tuple[int, ...] | None:
    """A bijection x -> y between atoms of equal profile that passes
    `consistent(x, y, partial map)` at every step, or None.  Atoms with
    the fewest candidates are placed first."""
    if sorted(prof_a) != sorted(prof_b):
        return None
    n = len(prof_a)
    cands = [[y for y in range(n) if prof_b[y] == prof_a[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: len(cands[x]))
    mapping: dict[int, int] = {}
    used = set()

    def rec(pos: int) -> bool:
        if pos == n:
            return True
        x = order[pos]
        for y in cands[x]:
            if y in used or not consistent(x, y, mapping):
                continue
            mapping[x] = y
            used.add(y)
            if rec(pos + 1):
                return True
            del mapping[x]
            used.remove(y)
        return False

    if not rec(0):
        return None
    return tuple(mapping[x] for x in range(n))


def ca_is_isomorphism(a: CaAtomStructure, b: CaAtomStructure, mapping) -> bool:
    """Does the atom map preserve every relation in both directions?"""
    mapping = tuple(mapping)
    if a.dim != b.dim or a.natoms != b.natoms:
        return False
    if sorted(mapping) != list(range(a.natoms)):
        return False
    if (a.transp is None) != (b.transp is None):
        return False
    # each relation, transposition and diagonal of a, renamed, must be b's
    return next(_carried_defects(a, b, AdditiveOperator.of_map(mapping)), None) is None


def _carried_defects(
    a: CaAtomStructure, b: CaAtomStructure, embed: AdditiveOperator
) -> Iterator[str]:
    """Report lines for each place where the atom map `embed`, from a's
    atoms to b's, fails to carry a relation of a onto b's: every atom x at
    which column x of embed after an operator of a differs from column x of
    b's operator after embed, and every E_ij whose image under embed is not
    b's.  The T_i lines come ordered by atom, then index; the P_ij lines,
    checked when both structures carry transpositions, come last."""

    def differ(a_op: AdditiveOperator, b_op: AdditiveOperator) -> list[int]:
        pairs = zip(embed.after(a_op), b_op.after(embed))
        return [x for x, (lhs, rhs) in enumerate(pairs) if lhs != rhs]

    bad = sorted((x, i) for i in range(a.dim) for x in differ(a.cyl_op(i), b.cyl_op(i)))
    for x, i in bad:
        yield f"c_{i} disagrees through the embedding at atom {x}"
    for i, j in product(range(a.dim), repeat=2):
        if embed.apply(a.diag_mask(i, j)) != b.diag_mask(i, j):
            yield f"diagonal ({i},{j}) disagrees through the embedding"
    if a.transp is not None and b.transp is not None:
        for i, j in combinations(range(a.dim), 2):
            for x in differ(a.transp_op(i, j), b.transp_op(i, j)):
                yield f"transposition ({i},{j}) disagrees at atom {x}"


def _ca_profiles(s: CaAtomStructure) -> list[tuple]:
    """Per atom: its out- and in-degree in each T_i, its membership in each
    E_ij, and whether each P_ij fixes it."""
    degrees = [(transpose(cols), cols) for cols in s.cyl]
    return [
        tuple((rows[x].bit_count(), cols[x].bit_count()) for rows, cols in degrees)
        + tuple(x in s.diag[i][j] for i in range(s.dim) for j in range(s.dim))
        + tuple(perm[x] == x for perm in s.transp or ())
        for x in range(s.natoms)
    ]


def ca_find_isomorphism(a: CaAtomStructure, b: CaAtomStructure):
    """An atom bijection preserving all relations, or None."""
    if a.dim != b.dim or a.natoms != b.natoms:
        return None
    if (a.transp is None) != (b.transp is None):
        return None

    def consistent(x: int, y: int, mapping: dict[int, int]) -> bool:
        # (x, x2) is in a relation iff bit x of its column x2 is set
        for cols_a, cols_b in zip(a.cyl, b.cyl):
            for x2, y2 in mapping.items():
                if cols_a[x2] >> x & 1 != cols_b[y2] >> y & 1:
                    return False
                if cols_a[x] >> x2 & 1 != cols_b[y] >> y2 & 1:
                    return False
        for perm_a, perm_b in zip(a.transp or (), b.transp or ()):
            ia = perm_a[x]
            if ia in mapping and perm_b[y] != mapping[ia]:
                return False
        return True

    out = _search(_ca_profiles(a), _ca_profiles(b), consistent)
    assert out is None or ca_is_isomorphism(a, b, out)
    return out


def ra_is_isomorphism(a: RaAtomStructure, b: RaAtomStructure, mapping) -> bool:
    """Does the atom map carry identity, converse and every composition
    table entry of a onto b's?"""
    mapping = tuple(mapping)
    n = a.natoms
    if b.natoms != n or sorted(mapping) != list(range(n)):
        return False
    if {mapping[x] for x in a.identity} != set(b.identity):
        return False
    for x in range(n):
        if mapping[a.converse[x]] != b.converse[mapping[x]]:
            return False
    embed = AdditiveOperator.of_map(mapping)
    comp_a, comp_b = a._comp_table, b._comp_table
    return all(
        embed.apply(comp_a[y * n + z]) == comp_b[mapping[y] * n + mapping[z]]
        for y in range(n)
        for z in range(n)
    )


def _ra_profiles(s: RaAtomStructure) -> list[tuple]:
    """Per atom: identity membership, whether it is its own converse, and
    the number of forbidden triples holding it in each place, counted off
    the composition table as the unset bits of its entries."""
    n, comp = s.natoms, s._comp_table
    square = n * n
    return [
        (
            x in s.identity,
            s.converse[x] == x,
            (
                square - sum(entry >> x & 1 for entry in comp),
                square - sum(entry.bit_count() for entry in comp[x * n : x * n + n]),
                square - sum(entry.bit_count() for entry in comp[x::n]),
            ),
        )
        for x in range(n)
    ]


def ra_find_isomorphism(a: RaAtomStructure, b: RaAtomStructure):
    """An atom bijection preserving identity, converse and composition, or
    None."""
    n = a.natoms
    if b.natoms != n or len(a.identity) != len(b.identity):
        return None
    comp_a, comp_b = a._comp_table, b._comp_table

    def consistent(x: int, y: int, mapping: dict[int, int]) -> bool:
        ca = a.converse[x]
        if ca in mapping and mapping[ca] != b.converse[y]:
            return False
        # only triples that involve the new pair need checking; (p, q, r) is
        # consistent iff bit p of entry (q, r) is set
        keys = (*mapping.items(), (x, y))
        for x1, y1 in keys:
            for x2, y2 in keys:
                if (comp_a[x1 * n + x2] >> x ^ comp_b[y1 * n + y2] >> y) & 1:
                    return False
                if (comp_a[x * n + x2] >> x1 ^ comp_b[y * n + y2] >> y1) & 1:
                    return False
                if (comp_a[x2 * n + x] >> x1 ^ comp_b[y2 * n + y] >> y1) & 1:
                    return False
        return True

    out = _search(_ra_profiles(a), _ra_profiles(b), consistent)
    assert out is None or ra_is_isomorphism(a, b, out)
    return out

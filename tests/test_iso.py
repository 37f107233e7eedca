"""Isomorphism search on column tables, against the pair-set search it
replaced.

`seed_ca_is_isomorphism`, `seed_ca_profile` and `seed_ca_find_isomorphism`
are the earlier versions, which read every relation as a set of (a, b)
pairs; they are kept here as oracles, with the pair sets recovered by
`column_pairs` (a transposition's from its column table, `perm_columns`).
The carried-operator check shared with the neat correspondences is compared
with the pairwise loop of the earlier `restriction_iso`,
`seed_neat.restriction_defects`.  The relation-algebra checks, which read
composition tables, are compared with the ones that read forbidden-triple
sets, `seed_ra`.
"""

import dataclasses
import random
import re

import pytest

from cylkit import (
    ca_find_isomorphism,
    ca_is_isomorphism,
    full_set_algebra,
    johnson_extend,
    monk_atoms,
    ra_find_isomorphism,
    ra_is_isomorphism,
    three_cube,
)
from cylkit.bao import AdditiveOperator, CaAtomStructure, column_pairs
from cylkit.constructions import bin_forb, hh_ra
from cylkit.games import drop_cyl_pair
from cylkit.iso import _ca_profiles, _carried_defects, _ra_profiles
from cylkit.neat import rd_rho
from cylkit.ra import RaAtomStructure

import seed_neat
import seed_ra
from seed_operators import perm_columns
from test_ra import RA_FIXTURES, _random_ra, _unchecked


def _pairs(s):
    return [set(column_pairs(cols)) for cols in s.cyl]


def _transp_pairs(s):
    if s.transp is None:
        return None
    return [set(column_pairs(perm_columns(perm))) for perm in s.transp]


def seed_ca_is_isomorphism(a, b, mapping):
    mapping = tuple(mapping)
    if a.dim != b.dim or a.natoms != b.natoms:
        return False
    if sorted(mapping) != list(range(a.natoms)):
        return False
    if (a.transp is None) != (b.transp is None):
        return False
    for i in range(a.dim):
        if {(mapping[x], mapping[y]) for x, y in _pairs(a)[i]} != _pairs(b)[i]:
            return False
        for j in range(a.dim):
            if {mapping[x] for x in a.diag[i][j]} != set(b.diag[i][j]):
                return False
    if a.transp is not None:
        for rel_a, rel_b in zip(_transp_pairs(a), _transp_pairs(b)):
            if {(mapping[x], mapping[y]) for x, y in rel_a} != rel_b:
                return False
    return True


def seed_ca_profile(s, atom):
    prof = []
    for rel in _pairs(s):
        outs = sum(1 for x, y in rel if x == atom)
        ins = sum(1 for x, y in rel if y == atom)
        prof.append((outs, ins))
    for i in range(s.dim):
        for j in range(s.dim):
            prof.append(atom in s.diag[i][j])
    if s.transp is not None:
        for rel in _transp_pairs(s):
            img = dict(rel)
            prof.append(img.get(atom) == atom)
    return tuple(prof)


def seed_ca_find_isomorphism(a, b):
    if a.dim != b.dim or a.natoms != b.natoms:
        return None
    if (a.transp is None) != (b.transp is None):
        return None
    n = a.natoms
    prof_a = [seed_ca_profile(a, x) for x in range(n)]
    prof_b = [seed_ca_profile(b, x) for x in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None
    cands = [[y for y in range(n) if prof_b[y] == prof_a[x]] for x in range(n)]
    cyl_a, cyl_b = _pairs(a), _pairs(b)
    transp_a = [dict(rel) for rel in _transp_pairs(a)] if a.transp is not None else []
    transp_b = [dict(rel) for rel in _transp_pairs(b)] if b.transp is not None else []
    order = sorted(range(n), key=lambda x: len(cands[x]))
    mapping = {}
    used = set()

    def consistent(x, y):
        for i in range(a.dim):
            for x2, y2 in mapping.items():
                if ((x, x2) in cyl_a[i]) != ((y, y2) in cyl_b[i]):
                    return False
                if ((x2, x) in cyl_a[i]) != ((y2, y) in cyl_b[i]):
                    return False
        for rel_a, rel_b in zip(transp_a, transp_b):
            ia = rel_a.get(x)
            if ia is not None and ia in mapping and rel_b.get(y) != mapping[ia]:
                return False
        return True

    def rec(pos):
        if pos == n:
            return True
        x = order[pos]
        for y in cands[x]:
            if y in used or not consistent(x, y):
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


def _relabel(s, perm):
    """s with atom x renamed perm[x]."""
    atoms = [None] * s.natoms
    for x, y in enumerate(perm):
        atoms[y] = s.atoms[x]

    def moved(cols):
        return [(perm[x], perm[y]) for x, y in column_pairs(cols)]

    return CaAtomStructure.build(
        dim=s.dim,
        atoms=atoms,
        cyl=[moved(cols) for cols in s.cyl],
        diag=[[[perm[x] for x in row] for row in rows] for rows in s.diag],
        transp=None if s.transp is None else [moved(perm_columns(p)) for p in s.transp],
    )


def _shuffled(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def _cycles(*lengths):
    """T_0 a disjoint union of directed cycles, T_1 the identity: every
    atom has in- and out-degree 1 in both, so profiles cannot tell cycle
    lengths apart."""
    n = sum(lengths)
    edges, start = [], 0
    for length in lengths:
        edges += [(start + k, start + (k + 1) % length) for k in range(length)]
        start += length
    return CaAtomStructure.build(
        dim=2,
        atoms=[f"a{k}" for k in range(n)],
        cyl=[edges, [(a, a) for a in range(n)]],
        diag=[[range(n)] * 2] * 2,
    )


def _digraph(n, seed):
    """T_0 a seeded random digraph without loops, T_1 the identity."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
    return CaAtomStructure.build(
        dim=2,
        atoms=[f"a{k}" for k in range(n)],
        cyl=[edges, [(a, a) for a in range(n)]],
        diag=[[range(n)] * 2] * 2,
    )


def _moved_transposition(cs3):
    """cs3 with P_01 pairing (0,1,0) with (1,0,1) and (0,1,1) with (1,0,0):
    the same fixed atoms, relations and diagonals, another transposition."""
    perm = list(cs3.transp[0])
    a, b, c, d = (cs3.atoms.index(repr(t)) for t in ((0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0)))
    perm[a], perm[b], perm[c], perm[d] = b, a, d, c
    return dataclasses.replace(cs3, transp=(tuple(perm), *cs3.transp[1:]))


def _pairs_of_structures():
    cs3 = full_set_algebra(3, 2)
    johnson = johnson_extend(monk_atoms(3, 3))
    cube = three_cube()
    damaged = drop_cyl_pair(cs3, 0, 0, 4)
    return {
        "cs3-self": (cs3, cs3),
        "cs3-index-swap": (cs3, rd_rho(cs3, (1, 0, 2))),
        "cs3-shuffled": (cs3, _relabel(cs3, _shuffled(8, 1))),
        "cs3-damaged": (cs3, damaged),
        # column 0 is the only difference, seen by the identity mapping
        "cs3-damaged-column-0": (cs3, drop_cyl_pair(cs3, 0, 4, 0)),
        # only a transposition differs, seen by the identity mapping
        "cs3-transposition-moved": (cs3, _moved_transposition(cs3)),
        "six-cycle-vs-two-triangles": (_cycles(6), _cycles(3, 3)),
        "two-triangles-shuffled": (_cycles(3, 3), _relabel(_cycles(3, 3), _shuffled(6, 7))),
        # a search that checks only the edges from each new atom back to the
        # atoms already placed finds a wrong map here
        "digraph-shuffled": (_digraph(7, 11), _relabel(_digraph(7, 11), _shuffled(7, 11))),
        "damaged-both": (damaged, _relabel(damaged, _shuffled(8, 2))),
        "cube-shuffled": (cube, _relabel(cube, _shuffled(27, 3))),
        "johnson-shuffled": (johnson, _relabel(johnson, _shuffled(34, 4))),
        "monk-vs-johnson": (monk_atoms(3, 3), johnson),
        "monk33-vs-monk34": (monk_atoms(3, 3), monk_atoms(3, 4)),
    }


@pytest.mark.parametrize("name", sorted(_pairs_of_structures()))
def test_find_isomorphism_matches_the_pair_set_search(name):
    a, b = _pairs_of_structures()[name]
    got = ca_find_isomorphism(a, b)
    assert got == seed_ca_find_isomorphism(a, b)
    if name.endswith(("shuffled", "self", "both")):
        assert got is not None
    if got is not None:
        assert seed_ca_is_isomorphism(a, b, got)


@pytest.mark.parametrize("name", sorted(_pairs_of_structures()))
def test_is_isomorphism_matches_the_pair_set_test(name):
    a, b = _pairs_of_structures()[name]
    rng = random.Random(name)
    found = seed_ca_find_isomorphism(a, b)
    mappings = [list(range(a.natoms)), _shuffled(a.natoms, 5), [0] * a.natoms]
    if found is not None:
        broken = list(found)
        broken[0], broken[-1] = broken[-1], broken[0]
        mappings += [found, broken]
    for _ in range(5):
        mappings.append(rng.sample(range(a.natoms), a.natoms))
    for mapping in mappings:
        assert ca_is_isomorphism(a, b, mapping) == seed_ca_is_isomorphism(a, b, mapping)


@pytest.mark.parametrize("name", sorted(_pairs_of_structures()))
def test_profiles_match_the_pair_set_counts(name):
    for s in _pairs_of_structures()[name]:
        assert _ca_profiles(s) == [seed_ca_profile(s, x) for x in range(s.natoms)]


def _ra_relabel(s, perm):
    converse = [0] * s.natoms
    for x in range(s.natoms):
        converse[perm[x]] = perm[s.converse[x]]
    atoms = [None] * s.natoms
    for x, y in enumerate(perm):
        atoms[y] = s.atoms[x]
    return RaAtomStructure(
        atoms=tuple(atoms),
        identity=frozenset(perm[x] for x in s.identity),
        converse=tuple(converse),
        forbidden=frozenset(tuple(perm[x] for x in t) for t in s.forbidden),
    )


@pytest.mark.parametrize("make", [lambda: bin_forb(3, 1, 2), lambda: hh_ra(3, 1, 3)])
def test_ra_search_finds_a_relabelling(make):
    s = make()
    t = _ra_relabel(s, _shuffled(s.natoms, 6))
    found = ra_find_isomorphism(s, t)
    assert found is not None and ra_is_isomorphism(s, t, found)
    # the same atoms, the colour family forbidden the other way round
    assert ra_find_isomorphism(bin_forb(3, 1, 3), hh_ra(3, 1, 3)) is None


def _flip_diagonal(s, i, j, x):
    """s with atom x moved into or out of E_ij alone."""
    rows = [list(row) for row in s.diag]
    rows[i][j] = rows[i][j] ^ {x}
    return dataclasses.replace(s, diag=tuple(map(tuple, rows)))


def _seed_defect(line):
    """Operator and atom of a line of the pairwise loop; a diagonal's atom
    is left out, as the shared check does not name one."""
    if m := re.fullmatch(r"relation (\d+) differs at atom pair \(\d+,(\d+)\)", line):
        return ("c", int(m[1]), int(m[2]))
    m = re.fullmatch(r"diagonal \((\d+),(\d+)\) differs at atom \d+", line)
    return ("diagonal", int(m[1]), int(m[2]))


def _carried_defect(line):
    if m := re.fullmatch(r"c_(\d+) disagrees through the embedding at atom (\d+)", line):
        return ("c", int(m[1]), int(m[2]))
    m = re.fullmatch(r"diagonal \((\d+),(\d+)\) disagrees through the embedding", line)
    return ("diagonal", int(m[1]), int(m[2]))


_DAMAGE_BASES = {
    "cs3": lambda: full_set_algebra(3, 2),
    "fs42": lambda: full_set_algebra(4, 2),
    "cube": three_cube,
    "johnson33": lambda: johnson_extend(monk_atoms(3, 3)),
}


@pytest.mark.parametrize("name", sorted(_DAMAGE_BASES))
def test_carried_defects_find_the_first_defect_of_the_pairwise_loop(name):
    """Through a random bijection onto a relabelled copy, with one pair cut
    from one relation or one atom moved across one diagonal, on either
    side, the shared check and the earlier pairwise loop name the same
    operator and, for a relation, the same column."""
    a = _DAMAGE_BASES[name]()
    n = a.natoms
    rng = random.Random(name)
    for _ in range(40):
        perm = rng.sample(range(n), n)
        b = _relabel(a, perm)
        embed = AdditiveOperator.of_map(tuple(perm))
        assert list(_carried_defects(a, b, embed)) == []
        assert seed_neat.restriction_defects(a, b, perm) == []
        a_side = rng.random() < 0.5
        if rng.random() < 0.5:
            i, col = rng.randrange(a.dim), rng.randrange(n)
            row = rng.choice([x for x in range(n) if a.cyl[i][col] >> x & 1])
            where = ("c", i, col)
            if a_side:
                a_cut, b_cut = drop_cyl_pair(a, i, row, col), b
            else:
                a_cut, b_cut = a, drop_cyl_pair(b, i, perm[row], perm[col])
        else:
            i, j = rng.sample(range(a.dim), 2)
            x = rng.randrange(n)
            where = ("diagonal", i, j)
            if a_side:
                a_cut, b_cut = _flip_diagonal(a, i, j, x), b
            else:
                a_cut, b_cut = a, _flip_diagonal(b, i, j, perm[x])
        (seed,) = seed_neat.restriction_defects(a_cut, b_cut, perm)
        (got,) = _carried_defects(a_cut, b_cut, embed)
        assert _seed_defect(seed) == _carried_defect(got) == where
        assert not ca_is_isomorphism(a_cut, b_cut, perm)


def _ra_renamed(s, perm):
    """s with atom x renamed perm[x], past the constructor's checks, so
    that structures which fail them can be renamed too."""
    old = sorted(range(s.natoms), key=perm.__getitem__)  # atom y was atom old[y]
    return _unchecked(
        [s.atoms[x] for x in old],
        [perm[x] for x in s.identity],
        [perm[s.converse[x]] for x in old],
        [tuple(perm[x] for x in t) for t in s.forbidden],
    )


def _ra_checks_match_the_triple_set_checks(a, b, rng):
    """Search, profiles and verdicts on a and b against `seed_ra`; the
    verdicts on the found map, the map with one transposition, a
    non-bijection and random bijections.  Returns the found map."""
    n = a.natoms
    found = ra_find_isomorphism(a, b)
    assert found == seed_ra.ra_find_isomorphism(a, b)
    for s in (a, b):
        assert _ra_profiles(s) == [seed_ra._ra_profile(s, x) for x in range(s.natoms)]
    mappings = [list(range(n)), [0] * n] + [rng.sample(range(n), n) for _ in range(3)]
    if found is not None:
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        swapped = list(found)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        mappings += [found, swapped]
    for mapping in mappings:
        assert ra_is_isomorphism(a, b, mapping) == seed_ra.ra_is_isomorphism(a, b, mapping)
    return found


@pytest.mark.parametrize("name", sorted(RA_FIXTURES))
def test_ra_checks_match_the_triple_set_checks_on_permuted_fixtures(name):
    a = RA_FIXTURES[name]()
    rng = random.Random(name)
    # above 30 atoms one search backtracks for about a second
    for _ in range(20 if a.natoms <= 30 else 2):
        b = _ra_renamed(a, rng.sample(range(a.natoms), a.natoms))
        assert _ra_checks_match_the_triple_set_checks(a, b, rng) is not None


def _third_places_swapped(s, rng):
    """s with two forbidden triples trading their third atoms, which keeps
    every atom's profile: a search that skipped the triples whose last
    placed atom is third alone would pass maps it must refuse."""
    forbidden = set(s.forbidden)
    if len(forbidden) < 2:
        return s
    (p, q, r), (p2, q2, r2) = rng.sample(sorted(forbidden), 2)
    forbidden -= {(p, q, r), (p2, q2, r2)}
    forbidden |= {(p, q, r2), (p2, q2, r)}
    return _unchecked(s.atoms, s.identity, s.converse, forbidden)


@pytest.mark.parametrize("seed", range(3))
def test_ra_checks_match_the_triple_set_checks_on_random(seed):
    """Seeded random structures against a renamed copy of themselves, a
    renamed copy with two third places swapped, and the next structure
    drawn, on the same atom count or not."""
    rng = random.Random(seed)
    a = _random_ra(rng)
    for _ in range(200):
        b = _random_ra(rng)
        perm = rng.sample(range(a.natoms), a.natoms)
        assert _ra_checks_match_the_triple_set_checks(a, _ra_renamed(a, perm), rng) is not None
        swapped = _ra_renamed(_third_places_swapped(a, rng), perm)
        _ra_checks_match_the_triple_set_checks(a, swapped, rng)
        _ra_checks_match_the_triple_set_checks(a, b, rng)
        a = b

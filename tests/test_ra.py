"""Relation-algebra atom structures: laws, composition, serialization.

The law battery, which reads the composition table as masks, is compared
with the one that computed on atom Elements, `seed_ra.check_ra_axioms`.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylkit import (
    BudgetExceededError,
    Element,
    RaAtomStructure,
    SplitPolicy,
    bin_forb,
    check_ra_axioms,
    full_set_algebra,
    hh_ra,
    monk_atoms,
    ra_from_dict,
    ra_from_json,
    ra_reduct,
    ra_to_dict,
    ra_to_json,
    split_atom,
)
from cylkit.ra import compose, converse_el, identity_el, peircean_orbit

import seed_operators
import seed_ra


def pair_algebra(forbid_diversity_triangle: bool) -> RaAtomStructure:
    """Two atoms: identity and a symmetric diversity atom.

    (d, Id, Id) is always forbidden — composing with the identity must not
    move atoms; forbidding (d, d, d) as well makes d;d = Id, the inequality
    relation on a two-point base.
    """
    forbidden = [(1, 0, 0)]
    if forbid_diversity_triangle:
        forbidden.append((1, 1, 1))
    return RaAtomStructure.build(("Id", "d"), [0], (0, 1), forbidden)


def group_z4() -> RaAtomStructure:
    """Complex algebra of the cyclic group of order 4: a in b;c iff a=b+c."""
    forbidden = [
        (a, b, c)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        if a != (b + c) % 4
    ]
    return RaAtomStructure.build(
        ("e", "g1", "g2", "g3"), [0], (0, 3, 2, 1), forbidden
    )


# ---------------------------------------------------------------------------
# Peircean orbit


def test_orbit_contains_the_triple():
    cv = (0, 2, 1, 3)
    t = (1, 2, 3)
    assert t in peircean_orbit(t, cv)


def test_orbit_is_closed():
    cv = (0, 2, 1, 3)
    orbit = peircean_orbit((1, 2, 3), cv)
    for member in orbit:
        assert peircean_orbit(member, cv) == orbit


def test_orbit_size_divides_six():
    for cv in [(0, 1), (1, 0)]:
        for t in [(0, 0, 0), (0, 1, 0), (1, 0, 1)]:
            assert 6 % len(peircean_orbit(t, cv)) == 0


# ---------------------------------------------------------------------------
# construction invariants


def test_converse_must_be_involution():
    with pytest.raises(ValueError):
        RaAtomStructure(("a", "b", "c"), frozenset({0}), (1, 2, 0), frozenset())
    with pytest.raises(ValueError):
        RaAtomStructure(("a", "b"), frozenset({0}), (0, 0), frozenset())


def test_identity_set_checked():
    with pytest.raises(ValueError):
        RaAtomStructure(("a",), frozenset(), (0,), frozenset())
    with pytest.raises(ValueError):
        RaAtomStructure(("a",), frozenset({4}), (0,), frozenset())


def test_forbidden_must_be_closed():
    # triple (1,0,1) alone is not orbit-closed under identity converse
    with pytest.raises(ValueError):
        RaAtomStructure(
            ("Id", "d"), frozenset({0}), (0, 1), frozenset({(1, 0, 1)})
        )


def test_build_closes_forbidden():
    s = RaAtomStructure.build(("Id", "d"), [0], (0, 1), [(1, 0, 1)])
    assert peircean_orbit((1, 0, 1), (0, 1)) <= s.forbidden


def test_consistent_and_comp_row_agree():
    s = group_z4()
    for b in range(4):
        for c in range(4):
            row = s.comp_row(b, c)
            for a in range(4):
                assert bool(row >> a & 1) == s.consistent(a, b, c)
            assert row == 1 << (b + c) % 4  # group composition row


# ---------------------------------------------------------------------------
# element operations


def test_identity_and_converse_elements():
    s = group_z4()
    assert identity_el(s).atom_indices() == (0,)
    x = Element(s, 0b0110)  # {g1, g2}
    assert converse_el(s, x).atom_indices() == (2, 3)  # {g2, g3}
    assert converse_el(s, converse_el(s, x)) == x


def test_compose_matches_group_table():
    s = group_z4()
    for b in range(4):
        for c in range(4):
            got = compose(s, Element(s, 1 << b), Element(s, 1 << c))
            assert got.atom_indices() == ((b + c) % 4,)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
)
def test_compose_is_additive(m1, m2, m3):
    s = group_z4()
    x1, x2, y = Element(s, m1), Element(s, m2), Element(s, m3)
    assert compose(s, x1 | x2, y) == compose(s, x1, y) | compose(s, x2, y)
    assert compose(s, y, x1 | x2) == compose(s, y, x1) | compose(s, y, x2)
    assert compose(s, Element(s, 0), y).is_empty


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_converse_antidistributes(m1, m2):
    s = group_z4()
    x, y = Element(s, m1), Element(s, m2)
    assert converse_el(s, compose(s, x, y)) == compose(
        s, converse_el(s, y), converse_el(s, x)
    )


# ---------------------------------------------------------------------------
# the law battery


@pytest.mark.parametrize(
    "builder",
    [
        group_z4,
        lambda: pair_algebra(True),
        lambda: pair_algebra(False),
        lambda: hh_ra(3, 1, 3),
    ],
)
def test_law_battery_passes_on_sound_structures(builder):
    rep = check_ra_axioms(builder())
    assert rep.passed
    assert {law.name for law in rep.laws} >= {
        "identity",
        "converse_involution",
        "converse_distribution",
        "peircean",
        "associativity",
    }


def test_identity_law_failure_detected():
    # forbidding (1,0,1) kills d;Id = d while keeping the set orbit-closed
    s = RaAtomStructure.build(("Id", "d"), [0], (0, 1), [(1, 0, 1)])
    rep = check_ra_axioms(s)
    assert not rep.passed
    assert not rep.law("identity").passed


def test_two_graded_structure_fails_associativity_only():
    rep = check_ra_axioms(bin_forb(3, 1, 2))
    assert not rep.passed
    assert not rep.law("associativity").passed
    for name in ("identity", "converse_involution", "converse_distribution", "peircean"):
        assert rep.law(name).passed, name


def test_law_lookup_unknown_name():
    rep = check_ra_axioms(group_z4())
    with pytest.raises(KeyError):
        rep.law("no-such-law")


def test_budget_gate():
    with pytest.raises(BudgetExceededError):
        check_ra_axioms(group_z4(), bound=10)


# ---------------------------------------------------------------------------
# serialization


def test_round_trip():
    for s in (group_z4(), hh_ra(3, 2, 3), bin_forb(3, 1, 2)):
        assert ra_from_dict(ra_to_dict(s)) == s
        assert ra_from_json(ra_to_json(s)) == s


def test_ra_json_canonical():
    import json

    text = ra_to_json(group_z4())
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@st.composite
def random_ras(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    # random involution: pair up some indices
    perm = list(range(n))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if perm[i] == i and perm[j] == j and i != j:
            perm[i], perm[j] = j, i
    ident = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
    )
    triples = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=6,
        )
    )
    return RaAtomStructure.build(
        tuple(f"r{i}" for i in range(n)), ident, tuple(perm), triples
    )


@settings(max_examples=60, deadline=None)
@given(random_ras())
def test_round_trip_random(s):
    assert ra_from_dict(ra_to_dict(s)) == s
    assert ra_from_json(ra_to_json(s)) == s


@settings(max_examples=40, deadline=None)
@given(random_ras(), st.data())
def test_comp_row_cache_consistent_on_random(s, data):
    b = data.draw(st.integers(min_value=0, max_value=s.natoms - 1))
    c = data.draw(st.integers(min_value=0, max_value=s.natoms - 1))
    row = s.comp_row(b, c)
    assert row == sum(
        1 << a for a in range(s.natoms) if s.consistent(a, b, c)
    )


@settings(max_examples=40, deadline=None)
@given(random_ras())
def test_consistent_pairs_on_random(s):
    n = s.natoms
    assert s._consistent_pairs == tuple(
        tuple((a, b) for a in range(n) for b in range(n) if s.consistent(c, a, b))
        for c in range(n)
    )


def _unchecked(atoms, identity, converse, forbidden):
    """An RaAtomStructure past the constructor's checks, which already
    guarantee the converse and Peircean laws."""
    s = object.__new__(RaAtomStructure)
    fields = {
        "atoms": tuple(atoms),
        "identity": frozenset(identity),
        "converse": tuple(converse),
        "forbidden": frozenset(forbidden),
        "_full_mask": (1 << len(atoms)) - 1,
    }
    for name, value in fields.items():
        object.__setattr__(s, name, value)
    return s


# law reports recorded before the laws were written as generators
RECORDED_LAWS = {
    # a 3-cycle as converse
    "cycle": (
        _unchecked(("Id", "a", "b", "c"), [0], (0, 2, 3, 1), []),
        {"identity": "atom Id", "converse_involution": "atom a"},
    ),
    # one forbidden triple without its Peircean images
    "open": (
        _unchecked(("Id", "a", "b"), [0], (0, 2, 1), [(1, 1, 1)]),
        {
            "identity": "atom Id",
            "converse_distribution": "pair (a, a)",
            "peircean": "triple (1,1,1) vs (1, 2, 1)",
        },
    ),
    "identity": (
        RaAtomStructure.build(("Id", "d"), [0], (0, 1), [(1, 0, 1)]),
        {"identity": "atom Id"},
    ),
    "bin_forb(3,1,2)": (
        bin_forb(3, 1, 2),
        {"associativity": "triple (a^0(0,0), a^0(0,0), a^0(1,0))"},
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_LAWS))
def test_law_reports_match_the_recorded_ones(name):
    structure, failed = RECORDED_LAWS[name]
    rep = check_ra_axioms(structure)
    assert [law.name for law in rep.laws] == [
        "identity",
        "converse_involution",
        "converse_distribution",
        "peircean",
        "associativity",
    ]
    assert not rep.passed
    for law in rep.laws:
        assert (law.passed, law.detail) == (law.name not in failed, failed.get(law.name, ""))


def _matches_the_seed_loops(s):
    """comp_row, converse_el and compose against the loops they replaced,
    on every atom pair and every pair of elements."""
    n = s.natoms
    for b in range(n):
        for c in range(n):
            assert s.comp_row(b, c) == seed_operators.comp_row(s, b, c)
    els = [Element(s, mask) for mask in range(1 << n)]
    for x in els:
        assert converse_el(s, x) == seed_operators.converse_el(s, x)
        for y in els:
            assert compose(s, x, y) == seed_operators.compose(s, x, y)


@settings(max_examples=60, deadline=None)
@given(random_ras())
def test_operators_match_the_seed_loops_on_random(s):
    _matches_the_seed_loops(s)


@pytest.mark.parametrize("name", ["cycle", "open"])
def test_operators_match_the_seed_loops_past_the_checks(name):
    # a converse that is not an involution, and a forbidden set that is not
    # Peircean-closed
    _matches_the_seed_loops(RECORDED_LAWS[name][0])


# ---------------------------------------------------------------------------
# the table-based law battery against the Element one


def _law_tuples(report):
    return [(law.name, law.passed, law.detail) for law in report.laws]


def _group(n: int) -> RaAtomStructure:
    """Complex algebra of the cyclic group of order n."""
    return RaAtomStructure.build(
        tuple(f"g{i}" for i in range(n)),
        [0],
        tuple(-i % n for i in range(n)),
        [(a, b, c) for a, b, c in product(range(n), repeat=3) if a != (b + c) % n],
    )


RA_FIXTURES = {
    "z4": group_z4,
    "pair(True)": lambda: pair_algebra(True),
    "pair(False)": lambda: pair_algebra(False),
    "hh_ra(3,1,3)": lambda: hh_ra(3, 1, 3),
    "hh_ra(3,2,3)": lambda: hh_ra(3, 2, 3),
    "hh_ra(3,2,3,lax)": lambda: hh_ra(3, 2, 3, strict=False),
    "hh_ra(4,2,4)": lambda: hh_ra(4, 2, 4),
    "hh_ra(4,2,5)": lambda: hh_ra(4, 2, 5),
    "hh_ra(3,3,6)": lambda: hh_ra(3, 3, 6),
    "bin_forb(3,1,2)": lambda: bin_forb(3, 1, 2),
    "bin_forb(3,1,3)": lambda: bin_forb(3, 1, 3),
    "split(hh_ra(3,1,3))": lambda: split_atom(hh_ra(3, 1, 3), 1, SplitPolicy(2)).structure,
    "reduct(cs3)": lambda: ra_reduct(full_set_algebra(3, 2)).ra,
    "reduct(monk33)": lambda: ra_reduct(monk_atoms(3, 3)).ra,
    **{f"recorded:{name}": (lambda s=s: s) for name, (s, _) in RECORDED_LAWS.items()},
}


@pytest.mark.parametrize("name", sorted(RA_FIXTURES))
def test_law_battery_matches_the_element_battery_on_fixtures(name):
    s = RA_FIXTURES[name]()
    assert _law_tuples(check_ra_axioms(s)) == _law_tuples(seed_ra.check_ra_axioms(s))


def _involution(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    free = rng.sample(range(n), n)
    for i, j in zip(free[::3], free[1::3]):
        perm[i], perm[j] = j, i
    return perm


def _random_ra(rng: random.Random) -> RaAtomStructure:
    """One of four kinds, drawn at random: a built structure with random
    triples; a relabelled cyclic group algebra with up to two more orbits
    forbidden (whose laws fail late, if at all); and, past the constructor's
    checks, a converse that is any permutation, or random triples left
    unclosed."""
    n = rng.randint(1, 6)
    kind = rng.randrange(4)
    if kind == 1:
        base = _group(n)
        allowed = [t for t in product(range(n), repeat=3) if t not in base.forbidden]
        forbidden = [*base.forbidden, *rng.sample(allowed, min(len(allowed), rng.randrange(3)))]
        perm = rng.sample(range(n), n)
        old = sorted(range(n), key=perm.__getitem__)  # atom y was atom old[y]
        return RaAtomStructure.build(
            tuple(base.atoms[x] for x in old),
            [perm[0]],
            [perm[base.converse[x]] for x in old],
            [tuple(perm[x] for x in t) for t in forbidden],
        )
    atoms = tuple(f"r{i}" for i in range(n))
    identity = rng.sample(range(n), rng.choice([1, 1, rng.randint(1, n)]))
    triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randrange(n**3 // 2 + 2))]
    if kind == 0:
        return RaAtomStructure.build(atoms, identity, _involution(rng, n), triples)
    if kind == 2:
        return _unchecked(atoms, identity, rng.sample(range(n), n), triples)
    return _unchecked(atoms, identity, _involution(rng, n), triples)


@pytest.mark.parametrize("seed", range(6))
def test_law_battery_matches_the_element_battery_on_random(seed):
    rng = random.Random(seed)
    for _ in range(100):
        s = _random_ra(rng)
        assert _law_tuples(check_ra_axioms(s)) == _law_tuples(seed_ra.check_ra_axioms(s)), s


def test_random_structures_reach_every_law_both_ways():
    """The random set passes and fails each law, so the comparison above
    sees each law's detail text and its empty one."""
    rng = random.Random(0)
    seen = set()
    for _ in range(600):
        seen.update((law.name, law.passed) for law in check_ra_axioms(_random_ra(rng)).laws)
    names = [law.name for law in check_ra_axioms(group_z4()).laws]
    assert seen == {(name, passed) for name in names for passed in (True, False)}


def _consistent_is_triple_membership(s):
    n = s.natoms
    for t in product(range(n), repeat=3):
        assert s.consistent(*t) is (t not in s.forbidden)


@settings(max_examples=60, deadline=None)
@given(random_ras())
def test_consistent_reads_the_forbidden_triples(s):
    _consistent_is_triple_membership(s)


@pytest.mark.parametrize("name", ["cycle", "open"])
def test_consistent_reads_the_forbidden_triples_past_the_checks(name):
    _consistent_is_triple_membership(RECORDED_LAWS[name][0])

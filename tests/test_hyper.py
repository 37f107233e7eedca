"""Hypernetworks, hyperbasis checking, and the induced structure."""

import functools
import hashlib
import random
from itertools import product

import pytest

from cylkit import (
    BudgetExceededError,
    RaAtomStructure,
    bin_forb,
    check_ca_frame,
    check_ra_axioms,
    enumerate_hypernetworks,
    full_set_algebra,
    hh_ra,
    is_hyperbasis,
    ra_reduct,
    validate_hypernetwork,
)
from cylkit import hyper
from cylkit.constructions import _classes_off, _reads
from cylkit.hyper import HyperNetwork, ca_over_hyperbasis
from cylkit.ra import _network_labellings

import seed_hyper


def group_z4() -> RaAtomStructure:
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


def pair_algebra() -> RaAtomStructure:
    return RaAtomStructure.build(
        ("Id", "d"), [0], (0, 1), [(1, 0, 0), (1, 1, 1)]
    )


@pytest.fixture(scope="module")
def z4():
    return group_z4()


@pytest.fixture(scope="module")
def z4_nets(z4):
    return enumerate_hypernetworks(z4, 3, 3, 1)


# ---------------------------------------------------------------------------
# network accessors


def test_accessors(z4_nets):
    h = z4_nets[0]
    assert h.m == 3 and h.n_wide == 3
    assert h.label((0, 1)) == ("atom", h.pair(0, 1))
    assert h.label((0,))[0] == "sym"
    with pytest.raises(KeyError):
        h.hyper_label((9, 9, 9))


def test_rename_identity_is_noop(z4_nets):
    for h in z4_nets[:4]:
        assert seed_hyper.rename(h, (0, 1, 2)) == h


def test_rename_composes(z4_nets):
    h = z4_nets[-1]
    s1 = (1, 2, 0)
    s2 = (2, 0, 1)
    composed = tuple(s1[s2[k]] for k in range(3))
    rename = seed_hyper.rename
    assert rename(h, composed) == rename(rename(h, s1), s2)


def test_rename_swaps_pair_labels(z4_nets):
    for h in z4_nets[:6]:
        g = seed_hyper.rename(h, (1, 0, 2))
        assert g.pair(0, 1) == h.pair(1, 0)
        assert g.pair(0, 2) == h.pair(1, 2)


# ---------------------------------------------------------------------------
# validation


def test_valid_members(z4, z4_nets):
    for h in z4_nets:
        ok, why = validate_hypernetwork(z4, h)
        assert ok, why


def test_non_identity_diagonal_rejected(z4, z4_nets):
    h = z4_nets[0]
    pairs = list(h.pairs)
    pairs[0] = 1  # label (0,0) with a non-identity atom
    bad = HyperNetwork(3, 3, tuple(pairs), h.hyper)
    ok, why = validate_hypernetwork(z4, bad)
    assert not ok
    assert "identity" in why


def test_inconsistent_triangle_rejected(z4, z4_nets):
    # pick a labelled network and break one edge so some triangle fails
    h = next(g for g in z4_nets if g.pair(0, 1) == 1)
    pairs = list(h.pairs)
    pairs[0 * 3 + 1] = 2  # now (0,1)+(1,0) no longer compose through (0,0)
    bad = HyperNetwork(3, 3, tuple(pairs), h.hyper)
    ok, why = validate_hypernetwork(z4, bad)
    assert not ok
    assert "triangle" in why


def test_substitution_coherence_rejected():
    pa = pair_algebra()
    # all-identity pair labelling links the two nodes, so the length-one
    # tuples (0,) and (1,) must carry the same symbol
    nets = enumerate_hypernetworks(pa, 2, 3, 2)
    linked = next(h for h in nets if h.pair(0, 1) == 0)
    entries = dict(linked.hyper)
    entries[(0,)] = 0
    entries[(1,)] = 1
    bad = HyperNetwork(2, 3, linked.pairs, tuple(sorted(entries.items())))
    ok, why = validate_hypernetwork(pa, bad)
    assert not ok
    assert "substitution" in why


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts(z4, z4_nets):
    assert len(z4_nets) == 16
    assert len(enumerate_hypernetworks(z4, 2, 2, 1)) == 4


@pytest.mark.parametrize(
    "build",
    [
        group_z4,
        lambda: hh_ra(3, 1, 3),
        lambda: bin_forb(3, 1, 2),
        lambda: bin_forb(2, 1, 3),
        lambda: ra_reduct(full_set_algebra(3, 2)).ra,
    ],
    ids=["z4", "hh_ra(3,1,3)", "bin_forb(3,1,2)", "bin_forb(2,1,3)", "ra_reduct"],
)
def test_pair_labellings_are_the_network_search(build):
    # the hypernetwork enumeration takes its pair labellings from the
    # network search of cylkit.ra, in the order the search yields them,
    # and lists every one of them
    ra = build()
    for m in (1, 2, 3):
        pairs = dict.fromkeys(h.pairs for h in enumerate_hypernetworks(ra, m, 2, 1))
        assert list(pairs) == list(_network_labellings(ra, m, {}, lambda: None))


def test_enumeration_is_duplicate_free_and_complete(z4, z4_nets):
    assert len(set(z4_nets)) == len(z4_nets)
    # independent completeness route on the two-node case: try every pair
    # labelling directly
    nets2 = set(enumerate_hypernetworks(z4, 2, 2, 1))
    hyper_keys = nets2 and sorted(next(iter(nets2)).hyper)
    found = set()
    for p01 in range(4):
        for p10 in range(4):
            for d in (0,):
                cand = HyperNetwork(
                    2,
                    2,
                    (d, p01, p10, d),
                    tuple((t, 0) for t, _ in hyper_keys),
                )
                if validate_hypernetwork(z4, cand)[0]:
                    found.add(cand)
    assert found == nets2


def test_symbol_classes_scale_the_count():
    # with two symbols the count splits by substitution classes: the
    # identity-linked two-node network has three label classes (empty,
    # length-1, length-3 tuples all merged), the diversity-linked one
    # eleven singleton classes
    pa = pair_algebra()
    nets = enumerate_hypernetworks(pa, 2, 3, 2)
    by_pairs = {}
    for h in nets:
        by_pairs.setdefault(h.pairs, []).append(h)
    assert sorted(len(v) for v in by_pairs.values()) == [8, 2048]
    assert len(nets) == 2056


def test_enumeration_parameter_checks(z4):
    with pytest.raises(ValueError):
        enumerate_hypernetworks(z4, 5, 3, 1)
    with pytest.raises(ValueError):
        enumerate_hypernetworks(z4, 3, 5, 1)
    with pytest.raises(ValueError):
        enumerate_hypernetworks(z4, 3, 3, 9)


def test_enumeration_budget(z4):
    with pytest.raises(BudgetExceededError):
        enumerate_hypernetworks(z4, 3, 3, 1, budget=3)


def test_enumeration_output_is_pinned():
    nets = enumerate_hypernetworks(hh_ra(3, 1, 3), 4, 2, 1)
    assert len(nets) == 47_995
    digest = hashlib.sha256(repr(nets).encode()).hexdigest()
    assert digest == "041bfba4d84db7e4933bf3f84bb3d9e3b9a4518b10659ababd189b6a41c0d45e"


def test_structures_that_break_the_identity_law_are_refused():
    # two identity atoms that converse swaps: 1';r0 holds r1 as well
    swapped = RaAtomStructure.build(("r0", "r1"), [0, 1], (1, 0), [])
    assert not check_ra_axioms(swapped).law("identity").passed
    with pytest.raises(ValueError, match="identity law .* at atom r0"):
        enumerate_hypernetworks(swapped, 2, 2, 1)
    # refused before any search, whatever the budget
    with pytest.raises(ValueError, match="identity law"):
        enumerate_hypernetworks(swapped, 4, 5, 3, budget=0)


def _random_structure(rng):
    """A structure drawn as `random_ras` in tests/test_ra.py draws one."""
    n = rng.randint(1, 5)
    perm = list(range(n))
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if perm[i] == i and perm[j] == j and i != j:
            perm[i], perm[j] = j, i
    ident = {rng.randrange(n) for _ in range(rng.randint(1, n))}
    triples = {tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 6))}
    return RaAtomStructure.build(tuple(f"r{i}" for i in range(n)), ident, tuple(perm), triples)


def _listed(enumerate_, *args):
    try:
        return enumerate_(*args, budget=5_000)
    except BudgetExceededError:
        return "over budget"


def test_enumeration_matches_the_earlier_enumeration_on_random_structures():
    # the structures that satisfy the identity law get the earlier
    # enumeration's networks, in its order, or are over budget in both;
    # the others are refused
    rng = random.Random(2013)
    kept = compared = 0
    for _ in range(2_000):
        ra = _random_structure(rng)
        if not check_ra_axioms(ra).law("identity").passed:
            with pytest.raises(ValueError, match="identity law"):
                enumerate_hypernetworks(ra, 2, 2, 1)
            continue
        kept += 1
        for m in (1, 2, 3):
            if ra.natoms ** (m * m) > 30_000:
                continue
            for n_wide in range(2, min(3, m + 1) + 1):
                for symbols in (1, 2):
                    args = (ra, m, n_wide, symbols)
                    want = _listed(seed_hyper.enumerate_hypernetworks, *args)
                    assert _listed(enumerate_hypernetworks, *args) == want, args
                    compared += want != "over budget"
    assert kept >= 100 and compared >= 900


# ---------------------------------------------------------------------------
# hyperbasis checking


def test_full_set_is_a_hyperbasis(z4, z4_nets):
    rep = is_hyperbasis(z4, z4_nets)
    assert rep.passed
    assert rep.violations == ()


def test_single_deletions_break(z4, z4_nets):
    for drop in (0, 7, 15):
        rest = [h for i, h in enumerate(z4_nets) if i != drop]
        rep = is_hyperbasis(z4, rest)
        assert not rep.passed
        rules = {r for r, _ in rep.violations}
        assert rules & {"witness", "cylindrifier", "amalgamation", "symmetry"}


def test_missing_atom_breaks_witness(z4, z4_nets):
    rest = [h for h in z4_nets if h.pair(0, 1) != 2]
    rep = is_hyperbasis(z4, rest)
    assert not rep.passed
    assert rep.violation("witness") is not None
    assert "atom 2" in rep.violation("witness")


def test_empty_and_mixed_sets_rejected(z4, z4_nets):
    assert not is_hyperbasis(z4, []).passed
    other = enumerate_hypernetworks(z4, 2, 2, 1)
    rep = is_hyperbasis(z4, list(z4_nets) + list(other))
    assert not rep.passed
    assert rep.violation("member") == "mixed shapes"


def test_violation_lookup(z4, z4_nets):
    rep = is_hyperbasis(z4, z4_nets)
    assert rep.violation("witness") is None


# ---------------------------------------------------------------------------
# the induced structure


def test_induced_structure(z4, z4_nets):
    ca = ca_over_hyperbasis(z4, z4_nets)
    assert ca.dim == 3
    assert ca.natoms == 16
    assert ca.transp is not None
    assert check_ca_frame(ca).passed


def test_induced_structure_diagonals_match_identity_labels(z4, z4_nets):
    ca = ca_over_hyperbasis(z4, z4_nets)
    nets = sorted(z4_nets, key=lambda h: (h.pairs, h.hyper))
    for i in range(3):
        for j in range(3):
            expected = frozenset(
                a for a, h in enumerate(nets) if h.pair(i, j) in z4.identity
            )
            assert ca.diag[i][j] == expected


def test_induced_structure_refuses_non_basis(z4, z4_nets):
    with pytest.raises(ValueError):
        ca_over_hyperbasis(z4, list(z4_nets)[:-1])


def test_induced_structure_checks_and_names_networks_in_sorted_order():
    """`ca_over_hyperbasis` sorts first and runs the rules on what it
    builds: a set in any order refuses with `is_hyperbasis`'s first
    violation on the sorted set, and passes with the same structure."""
    rng = random.Random(30)
    for name, (ra, nets) in sorted(_differential_sets().items()):
        ordered = sorted(nets, key=lambda h: (h.pairs, h.hyper))
        shuffled = list(nets)
        rng.shuffle(shuffled)
        report = is_hyperbasis(ra, ordered)
        if report.passed:
            assert ca_over_hyperbasis(ra, shuffled) == ca_over_hyperbasis(ra, ordered), name
        else:
            rule, detail = report.violations[0]
            with pytest.raises(ValueError) as refusal:
                ca_over_hyperbasis(ra, shuffled)
            assert str(refusal.value) == f"not a hyperbasis ({rule}: {detail})", name


def _with_bad_member(nets):
    first = nets[0]
    bad = HyperNetwork(first.m, first.n_wide, (1,) + first.pairs[1:], first.hyper)
    return list(nets) + [bad]


# violation reports recorded before the rules were written as generators
RECORDED_REPORTS = {
    "drop-0": (
        ("cylindrifier", "no witness for (0,0) via 2 with atoms (0,0)"),
        ("amalgamation", "networks 0,3 agree off (2,1) but have no amalgam"),
        ("symmetry", "renaming by (0, 0, 0) leaves the set"),
    ),
    "drop-7": (
        ("cylindrifier", "no witness for (1,1) via 0 with atoms (3,1)"),
        ("amalgamation", "networks 2,3 agree off (0,1) but have no amalgam"),
        ("symmetry", "renaming by (1, 2, 0) leaves the set"),
    ),
    "two-nodes-drop-2": (
        ("witness", "no network labels (0,1) with atom 2"),
        ("cylindrifier", "no witness for (0,0) via 1 with atoms (2,2)"),
    ),
    "bad-member": (
        ("member", "network 16: pair (0,0) is not an identity atom"),
        ("cylindrifier", "no witness for (0,0) via 1 with atoms (0,1)"),
        ("amalgamation", "networks 1,16 agree off (0,1) but have no amalgam"),
        ("symmetry", "renaming by (0, 0, 0) leaves the set"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_REPORTS))
def test_violation_reports_match_the_recorded_ones(z4, z4_nets, name):
    if name.startswith("drop-"):
        drop = int(name.split("-")[1])
        nets = [h for i, h in enumerate(z4_nets) if i != drop]
    elif name == "two-nodes-drop-2":
        nets = [h for i, h in enumerate(enumerate_hypernetworks(z4, 2, 2, 1)) if i != 2]
    else:
        nets = _with_bad_member(z4_nets)
    rep = is_hyperbasis(z4, nets)
    assert not rep.passed
    assert rep.violations == RECORDED_REPORTS[name]


# ---------------------------------------------------------------------------
# the checker against the earlier checkers


def _substitution_breaker(nets):
    """A copy of the first network that links nodes 0 and 1, with the symbol
    of (0,) changed so that (0,) and (1,) disagree."""
    h = next(g for g in nets if g.pair(0, 1) == 0)
    entries = dict(h.hyper)
    entries[(0,)] = entries[(1,)] + 1
    return HyperNetwork(h.m, h.n_wide, h.pairs, tuple(sorted(entries.items())))


def _corrupted(nets, k, pairs):
    h = nets[k]
    return HyperNetwork(h.m, h.n_wide, pairs(h.pairs), h.hyper)


@functools.cache
def _differential_sets():
    z4, pa = group_z4(), pair_algebra()
    nets3 = enumerate_hypernetworks(z4, 3, 3, 1)
    nets2 = enumerate_hypernetworks(z4, 2, 2, 1)
    free = RaAtomStructure.build(("Id", "a"), [0], (0, 1), [])
    # `free` breaks the identity law, which the enumeration refuses; the
    # earlier enumeration lists its networks
    free_nets = seed_hyper.enumerate_hypernetworks(free, 2, 2, 1)
    rng = random.Random(2013)
    return {
        "z4-3": (z4, nets3),
        "z4-2": (z4, nets2),
        "pair-algebra-2-3": (pa, enumerate_hypernetworks(pa, 2, 3, 1)),
        "pair-algebra-2-3-two-symbols": (pa, enumerate_hypernetworks(pa, 2, 3, 2)[:40]),
        # (0,0) labelled with a non-identity atom
        "z4-3-bad-diagonal": (
            z4,
            list(nets3) + [_corrupted(nets3, 5, lambda p: (1,) + p[1:])],
        ),
        # (0,1) relabelled, so the triangles through it no longer compose
        "z4-3-bad-triangle": (
            z4,
            list(nets3[:9]) + [_corrupted(nets3, 9, lambda p: p[:1] + ((p[1] + 1) % 4,) + p[2:])]
            + list(nets3[10:]),
        ),
        "z4-3-bad-substitution": (z4, list(nets3) + [_substitution_breaker(nets3)]),
        "z4-2-bad-substitution": (z4, list(nets2[1:]) + [_substitution_breaker(nets2)]),
        # nodes 0 and 1 linked one way only: (0,0) and (1,0) are linked but
        # labelled apart, which no triangle rules out when nothing is forbidden
        "free-2-bad-pair-substitution": (
            free,
            list(free_nets) + [_corrupted(free_nets, 0, lambda p: (0, 0, 1, 0))],
        ),
        **{
            f"z4-3-random-{seed}": (
                z4,
                [h for h in nets3 if rng.random() < 0.5 + seed / 60] or [nets3[seed % 16]],
            )
            for seed in range(30)
        },
    }


@pytest.mark.parametrize("name", sorted(_differential_sets()))
def test_report_matches_the_pairwise_checker(name):
    ra, nets = _differential_sets()[name]
    assert is_hyperbasis(ra, nets).violations == seed_hyper.is_hyperbasis(ra, nets).violations
    for h in nets:
        assert validate_hypernetwork(ra, h) == seed_hyper.validate_hypernetwork(ra, h)


def _rules(ra, nets):
    """The cylindrifier, amalgamation and symmetry rules of `cylkit.hyper`,
    over the slots, labels and T_z columns `is_hyperbasis` builds."""
    m = nets[0].m
    slots = hyper._slots(nets[0])
    flat = [hyper._flat_labels(h) for h in nets]
    cyl = [_classes_off(slots, flat, {z}) for z in range(m)]
    return (
        hyper._cylindrifier_defects(ra, m, flat, cyl),
        hyper._amalgamation_defects(m, slots, flat, cyl),
        hyper._symmetry_defects(m, slots, flat),
    )


def _keyed_rules(ra, nets):
    """The same three rules of the keyed checker in `tests/seed_hyper.py`."""
    ix = seed_hyper._Index(nets)
    return (
        seed_hyper._indexed_cylindrifier_defects(ra, ix),
        seed_hyper._indexed_amalgamation_defects(ix),
        seed_hyper._symmetry_defects(nets),
    )


@pytest.mark.parametrize("name", sorted(_differential_sets()))
def test_rules_list_the_defects_of_the_pairwise_checker(name):
    # every defect of each rule, not only the first one the report keeps
    ra, nets = _differential_sets()[name]
    want = (
        seed_hyper._cylindrifier_defects(ra, nets),
        seed_hyper._amalgamation_defects(nets),
        seed_hyper._symmetry_defects(nets),
    )
    for got, scanned, keyed in zip(_rules(ra, nets), want, _keyed_rules(ra, nets)):
        got = list(got)
        assert got == list(scanned)
        assert got == list(keyed)


def _column_rules(ra, nets):
    """The cylindrifier and amalgamation rules of the column-table checker
    in `tests/seed_hyper.py`, over the same T_z columns as `_rules`."""
    m = nets[0].m
    slots = hyper._slots(nets[0])
    flat = [hyper._flat_labels(h) for h in nets]
    cyl = [_classes_off(slots, flat, {z}) for z in range(m)]
    return (
        seed_hyper._column_cylindrifier_defects(ra, m, flat, cyl),
        seed_hyper._column_amalgamation_defects(m, slots, flat, cyl),
    )


@pytest.mark.parametrize("name", sorted(_differential_sets()))
def test_rules_list_the_defects_of_the_column_checker(name):
    ra, nets = _differential_sets()[name]
    for got, want in zip(_rules(ra, nets), _column_rules(ra, nets)):
        assert list(got) == list(want)


@functools.cache
def _hh313_subsets():
    """Seeded subsets of the 235 three-node networks of `hh_ra(3,1,3)`,
    each missing from one to half of them."""
    ra = hh_ra(3, 1, 3)
    nets = enumerate_hypernetworks(ra, 3, 2, 1)
    rng = random.Random(1313)
    subsets = []
    for drop in (1, 2, 3, 4, 6, 10, 20, 40, 80, 118):
        dropped = set(rng.sample(range(len(nets)), drop))
        subsets.append([h for k, h in enumerate(nets) if k not in dropped])
    return ra, subsets


@pytest.mark.parametrize("seed", range(10))
def test_rules_list_the_defects_of_the_keyed_checker(seed):
    ra, subsets = _hh313_subsets()
    nets = subsets[seed]
    for got, want in zip(_rules(ra, nets), _keyed_rules(ra, nets)):
        assert list(got) == list(want)


@pytest.mark.parametrize("seed", range(10))
def test_rules_list_the_defects_of_the_column_checker_on_hh313_subsets(seed):
    ra, subsets = _hh313_subsets()
    nets = subsets[seed]
    for got, want in zip(_rules(ra, nets), _column_rules(ra, nets)):
        assert list(got) == list(want)


def test_hh313_subsets_reach_the_amalgamation_rule():
    ra, subsets = _hh313_subsets()
    reports = [is_hyperbasis(ra, nets) for nets in subsets]
    assert sum(rep.violation("amalgamation") is not None for rep in reports) >= 2
    assert is_hyperbasis(ra, enumerate_hypernetworks(ra, 3, 2, 1)).passed


def test_corrupted_sets_fail_the_member_rule_as_built():
    sets = _differential_sets()
    expected = {
        "z4-3-bad-diagonal": "network 16: pair (0,0) is not an identity atom",
        "z4-3-bad-triangle": "network 9: triangle (0,0) via 1 is inconsistent",
        "z4-3-bad-substitution": "network 16: substitution fails between (0,) and (1,)",
        "z4-2-bad-substitution": "network 3: substitution fails between (0,) and (1,)",
        "free-2-bad-pair-substitution": "network 2: substitution fails between (0, 0) and (1, 0)",
    }
    for name, detail in expected.items():
        assert is_hyperbasis(*sets[name]).violation("member") == detail


def test_random_subsets_reach_every_rule():
    reports = [
        is_hyperbasis(*_differential_sets()[f"z4-3-random-{seed}"]) for seed in range(30)
    ]
    failed = {rule for rep in reports for rule, _ in rep.violations}
    assert failed >= {"witness", "cylindrifier", "amalgamation", "symmetry"}


@pytest.mark.parametrize("symbols", [1, 2])
def test_off_keys_are_equal_iff_the_networks_agree(z4, symbols):
    # with two symbols, networks that agree on atoms can differ off a node
    nets = enumerate_hypernetworks(z4, 2, 3, symbols)[:64]
    slots = hyper._slots(nets[0])
    flat = [hyper._flat_labels(h) for h in nets]
    for excluded in {frozenset((x, y)) for x in range(2) for y in range(2)}:
        cols = _classes_off(slots, flat, set(excluded))
        for ai, a in enumerate(nets):
            for bi, b in enumerate(nets):
                agree = bool(cols[ai] >> bi & 1)
                assert agree == seed_hyper._agrees_off(a, b, excluded)


def test_rename_matches_the_scanning_rename(z4, z4_nets):
    # the reads the symmetry rule makes give the renamed network's labels
    two_symbols = enumerate_hypernetworks(pair_algebra(), 2, 3, 2)[::97]
    for h in list(z4_nets) + list(two_symbols):
        labels = hyper._flat_labels(h)
        sigmas = list(product(range(h.m), repeat=h.m))
        for sigma, read in zip(sigmas, _reads(hyper._slots(h), sigmas)):
            renamed = hyper._flat_labels(seed_hyper.rename(h, sigma))
            assert read(labels) == renamed


def test_networks_must_list_the_tuples_of_their_shape(z4, z4_nets):
    h = z4_nets[3]
    for hyper_entries in (h.hyper[1:], h.hyper[::-1], h.hyper + (((0, 0, 0, 0), 0),)):
        odd = HyperNetwork(h.m, h.n_wide, h.pairs, hyper_entries)
        rep = is_hyperbasis(z4, list(z4_nets) + [odd])
        assert rep.violations == (
            ("member", "network 16 does not list the tuples of its shape"),
        )

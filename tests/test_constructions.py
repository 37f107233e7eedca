"""Structure generators: coloured partitions, graded relation algebras,
matrix structures, full tuple algebras, atom splitting."""

import ast
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylkit import (
    CaAtomStructure,
    RaAtomStructure,
    SplitPolicy,
    basic_matrices,
    bin_forb,
    check_ca_frame,
    check_ra_axioms,
    enumerate_matrices,
    full_set_algebra,
    hh_ra,
    johnson_extend,
    kappa,
    monk_atoms,
    psi,
    singleton,
    split_atom,
    three_cube,
    validate_matrix,
)
from cylkit.constructions import (
    _classes_off,
    _matrix_side,
    _slot_pairs,
    monk_atom_listing,
    monk_label,
    parse_monk_label,
)
from cylkit.neat import ra_reduct, rl_x
from cylkit.ra import RaAtomStructure, compose
from cylkit.bao import Element, column_pairs, cyl, diag, element

import seed_operators


# ---------------------------------------------------------------------------
# coloured pair partitions: independent oracle and counts


def _oracle_monk_labels(m: int, n: int) -> set[tuple]:
    """Independent enumeration: label each index pair either "same block"
    or with one of n colours, then keep exactly the labelings where the
    same-block pairs form an equivalence, colours are constant on block
    pairs, and no triangle of pairwise distinct blocks is monochromatic.
    Returns the canonical (blocks, colouring) labels."""
    pairs = list(combinations(range(m), 2))
    out = set()
    for assignment in product(range(n + 1), repeat=len(pairs)):
        lab = dict(zip(pairs, assignment))

        def val(i, j):
            return lab[(i, j) if i < j else (j, i)]

        # same-block pairs (value n) must be transitive
        ok = True
        for i, j, k in combinations(range(m), 3):
            same = [val(i, j) == n, val(i, k) == n, val(j, k) == n]
            if sum(same) == 2:
                ok = False
                break
        if not ok:
            continue
        # blocks from the equivalence
        parent = list(range(m))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for i, j in pairs:
            if val(i, j) == n:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        block_of = [find(i) for i in range(m)]
        # colours constant on block pairs
        colour = {}
        for i, j in pairs:
            if val(i, j) == n:
                continue
            key = tuple(sorted((block_of[i], block_of[j])))
            if colour.setdefault(key, val(i, j)) != val(i, j):
                ok = False
                break
        if not ok:
            continue
        # no monochromatic triangle of three distinct blocks
        reps = sorted(set(block_of))
        for a, b, c in combinations(reps, 3):
            cols = {
                colour[tuple(sorted(p))] for p in ((a, b), (a, c), (b, c))
            }
            if len(cols) == 1:
                ok = False
                break
        if not ok:
            continue
        blocks = tuple(
            sorted(
                (tuple(i for i in range(m) if block_of[i] == r) for r in reps),
                key=lambda b: b[0],
            )
        )
        # one colour entry per index pair across distinct blocks
        f = tuple(
            sorted(
                ((i, j), colour[tuple(sorted((block_of[i], block_of[j])))])
                for i, j in pairs
                if block_of[i] != block_of[j]
            )
        )
        out.add((blocks, f))
    return out


@pytest.mark.parametrize("m,n,count", [(3, 3, 34), (3, 4, 73)])
def test_monk_counts_match_independent_oracle(m, n, count):
    s = monk_atoms(m, n)
    assert s.natoms == count
    oracle = _oracle_monk_labels(m, n)
    assert len(oracle) == count
    got = set()
    for label in s.atoms:
        at = parse_monk_label(label)
        blocks = tuple(sorted((tuple(b) for b in at.blocks), key=lambda b: b[0]))
        f = tuple(sorted((tuple(p), c) for p, c in at.f))
        got.add((blocks, f))
    assert got == oracle


def test_monk_frames_pass():
    for m, n in [(3, 3), (3, 4)]:
        assert check_ca_frame(monk_atoms(m, n)).passed


def test_monk_large_dimension_count():
    assert monk_atoms(4, 4).natoms == 3545


def test_monk_parameter_bounds():
    for m, n in [(2, 3), (6, 6), (3, 2), (3, 7)]:
        with pytest.raises(ValueError):
            monk_atoms(m, n)


def test_monk_label_round_trip():
    s = monk_atoms(3, 3)
    for label in s.atoms:
        assert monk_label(parse_monk_label(label)) == label


@pytest.mark.parametrize(
    "label",
    [
        "(0, 1)",  # a pair of integers
        "((0, 1, 0), ())",
        "(((0,), (0,)), ())",  # not a partition
        "(((0,), (2,)), (((0, 2), 1),))",  # not of 0..m-1
        "(((0,), (1,)), ())",  # a cross-block pair left uncoloured
        "(((0, 1),), (((0, 1), 1),))",  # a pair inside a block coloured
        "(((0,), (1,)), (((0, 1), 'x'),))",
        "((0, 1), ((0, 0), ((0,), 0)))",  # the label of a hypernetwork
        "not a label",
    ],
)
def test_parse_monk_label_refuses_what_is_not_a_pair_partition(label):
    with pytest.raises(ValueError, match="not a pair-partition label"):
        parse_monk_label(label)


def test_monk_listing_shape():
    s = monk_atoms(3, 3)
    listing = monk_atom_listing(s)
    assert len(listing) == 34
    for entry in listing:
        assert set(entry) == {"R", "f"}
        covered = sorted(i for b in entry["R"] for i in b)
        assert covered == [0, 1, 2]


def test_monk_diagonal_matches_partitions():
    s = monk_atoms(3, 3)
    for idx, label in enumerate(s.atoms):
        at = parse_monk_label(label)
        for i in range(3):
            for j in range(3):
                assert (idx in s.diag[i][j]) == at.related(i, j)


def test_johnson_extension_preserves_base_and_passes():
    base = monk_atoms(3, 3)
    ext = johnson_extend(base)
    assert ext.atoms == base.atoms
    assert ext.cyl == base.cyl
    assert ext.diag == base.diag
    assert ext.transp is not None
    rep = check_ca_frame(ext)
    assert rep.passed
    assert any(c.name.startswith("P") for c in rep.conditions)


def test_johnson_swap_conjugates_colourings():
    # the (0,1) swap sends an atom to the atom with indices 0 and 1
    # exchanged in both the partition and the colouring
    ext = johnson_extend(monk_atoms(3, 3))
    # P_01 is an involution: entry a is the one atom a is swapped with
    img = ext.transp_op(0, 1).images
    for a, label in enumerate(ext.atoms):
        at = parse_monk_label(label)
        perm = {0: 1, 1: 0, 2: 2}
        blocks = sorted(tuple(sorted(perm[i] for i in b)) for b in at.blocks)
        target = parse_monk_label(ext.atoms[img[a]])
        assert sorted(tuple(b) for b in target.blocks) == blocks


@pytest.mark.parametrize(
    "nodes, classes",
    [
        (set(), [[0], [1], [2], [3]]),
        ({0}, [[0, 2], [1, 3]]),  # one kept slot: grouped by coordinate 1
        ({1}, [[0, 1], [2, 3]]),
        ({0, 1}, [[0, 1, 2, 3]]),  # no kept slot: one class
    ],
)
def test_classes_off_groups_by_the_slots_that_avoid_the_nodes(nodes, classes):
    # the pairs over {0, 1}, one slot per coordinate
    values = list(product(range(2), repeat=2))
    cols = _classes_off([(0,), (1,)], values, nodes)
    assert cols == tuple(
        sum(1 << b for b in cls) for a in range(4) for cls in classes if a in cls
    )


# a 2-tuple label parses as the pair (blocks, colouring) of two integers
@pytest.mark.parametrize("dim", [3, 2])
def test_johnson_extend_refuses_labels_that_are_not_pair_partitions(dim):
    with pytest.raises(ValueError, match="structure was not produced by monk_atoms"):
        johnson_extend(full_set_algebra(dim, 2))


def test_johnson_extend_refuses_atoms_not_closed_under_the_swaps():
    base = monk_atoms(3, 3)
    swap01 = johnson_extend(base).transp_op(0, 1).images
    moved = next(a for a in range(base.natoms) if swap01[a] != a)
    kept = [a for a in range(base.natoms) if a != swap01[moved]]
    relativized = rl_x(base, element(base, kept)).structure
    assert parse_monk_label(relativized.atoms[0])  # still pair-partition labels
    with pytest.raises(ValueError, match="structure was not produced by monk_atoms"):
        johnson_extend(relativized)


# ---------------------------------------------------------------------------
# the tower recursion


def test_kappa_closed_form():
    # kappa(x, y) telescopes to a geometric sum: 1 + x + ... + x^(y-1)
    for x in range(6):
        for y in range(8):
            assert kappa(x, y) == sum(x**i for i in range(y))


def test_kappa_recursion_and_base():
    assert kappa(5, 0) == 0
    for x in range(5):
        for y in range(6):
            assert kappa(x, y + 1) == 1 + x * kappa(x, y)


def test_psi_values():
    assert psi(2, 1) == 2
    assert psi(3, 1) == 4
    assert psi(3, 2) == 86


def test_psi_argument_checks():
    with pytest.raises(ValueError):
        kappa(-1, 2)
    with pytest.raises(ValueError):
        psi(0, 1)


# ---------------------------------------------------------------------------
# graded relation algebras


def test_hh_ra_atom_counts_and_labels():
    s = hh_ra(3, 1, 3)
    assert s.natoms == 7
    assert s.atoms[0] == "Id"
    assert all(a.startswith("a^") for a in s.atoms[1:])
    assert hh_ra(3, 2, 3).natoms == 13
    assert s.converse == tuple(range(7))  # all atoms self-converse


def test_hh_ra_is_a_relation_algebra():
    for args in [(3, 1, 3), (3, 2, 3), (4, 1, 4)]:
        rep = check_ra_axioms(hh_ra(*args))
        assert rep.passed, args


def test_non_strict_variant_breaks_associativity():
    rep = check_ra_axioms(hh_ra(3, 1, 3, strict=False))
    assert not rep.passed
    assert not rep.law("associativity").passed
    assert rep.law("identity").passed


def test_hh_ra_parameter_bounds():
    with pytest.raises(ValueError):
        hh_ra(2, 1, 3)
    with pytest.raises(ValueError):
        hh_ra(3, 0, 3)
    with pytest.raises(ValueError):
        hh_ra(3, 1, 2)  # cap below max(n, r)


def test_bin_forb_counts_and_default_cap():
    assert bin_forb(3, 1, 2).natoms == 5
    # default cap is the exact tower value: psi(2,1) = 2 gives 3 atoms
    assert bin_forb(2, 1).natoms == 1 + 1 * 1 * 2


def test_bin_forb_identity_rows():
    s = bin_forb(3, 1, 2)
    for a in range(1, s.natoms):
        got = compose(s, singleton(s, a), singleton(s, 0))
        assert got.atom_indices() == (a,)


def test_bin_same_column_triangles_forbidden():
    # two like-coloured atoms of a row never compose into that row's column
    s = bin_forb(3, 1, 2)
    a = 1  # a^0(0,0)
    got = compose(s, singleton(s, a), singleton(s, a))
    assert a not in got


# ---------------------------------------------------------------------------
# basic matrices


def test_enumerate_matches_validate_filter():
    # the brute-force filter runs in lexicographic order, as the
    # enumeration must
    for b, ms in (
        (bin_forb(3, 1, 2), (3, 4)),
        (hh_ra(3, 1, 3), (3,)),
        (bin_forb(2, 1, 3), (3, 4)),
    ):
        for m in ms:
            filtered = tuple(
                v
                for v in product(range(b.natoms), repeat=m * (m - 1) // 2)
                if validate_matrix(b, v)
            )
            assert enumerate_matrices(m, b) == filtered
    b = bin_forb(3, 1, 2)
    assert len(enumerate_matrices(3, b)) == 61
    mats = enumerate_matrices(4, b)
    assert len(mats) == 1469
    assert mats[0] == (0, 0, 0, 0, 0, 0)
    assert mats[-1] == (4, 4, 4, 2, 2, 0)


def seed_validate_matrix(bin_ra, values):
    """The earlier `validate_matrix`, kept as an oracle: one `entry` call
    per matrix entry of every triple."""
    m = _matrix_side(len(values))
    slots = {p: v for p, v in zip(_slot_pairs(m), values)}
    (id_atom,) = bin_ra.identity

    def entry(x, y):
        if x == y:
            return id_atom
        return slots[(min(x, y), max(x, y))]

    for x in range(m):
        for y in range(m):
            for z in range(m):
                if not bin_ra.consistent(entry(x, y), entry(y, z), entry(x, z)):
                    return False
    return True


@pytest.mark.parametrize("m", [3, 4])
def test_validate_matrix_matches_the_seed_loop(m):
    # every valid matrix, and each of its single-slot corruptions
    b = bin_forb(3, 1, 2)
    verdicts = {True: 0, False: 0}
    for values in enumerate_matrices(m, b):
        assert validate_matrix(b, values) and seed_validate_matrix(b, values)
        for k, v in enumerate(values):
            for atom in range(b.natoms):
                if atom != v:
                    bad = values[:k] + (atom,) + values[k + 1 :]
                    got = validate_matrix(b, bad)
                    assert got == seed_validate_matrix(b, bad), bad
                    verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def test_enumerate_matrices_needs_one_self_converse_identity():
    # the cyclic group Z4: g1 and g3 are each other's converse
    z4 = RaAtomStructure.build(
        ("e", "g1", "g2", "g3"),
        [0],
        (0, 3, 2, 1),
        [(a, b, c) for a, b, c in product(range(4), repeat=3) if a != (b + c) % 4],
    )
    with pytest.raises(ValueError, match="its own converse"):
        enumerate_matrices(3, z4)
    # the full relation algebra on two points has two identity atoms
    two_points = ra_reduct(full_set_algebra(3, 2)).ra
    assert len(two_points.identity) == 2
    with pytest.raises(ValueError, match="single identity atom"):
        enumerate_matrices(3, two_points)


def test_basic_matrices_atoms_and_frame():
    b = bin_forb(3, 1, 2)
    s = basic_matrices(3, b)
    assert s.natoms == 61
    rep = check_ca_frame(s)
    assert rep.passed
    assert all(
        c.passed for c in rep.conditions if c.name.startswith("commute_")
    )


def test_basic_matrices_diag_entries():
    b = bin_forb(3, 1, 2)
    s = basic_matrices(3, b)
    mats = enumerate_matrices(3, b)
    (id_atom,) = b.identity
    slots = {p: k for k, p in enumerate(combinations(range(3), 2))}
    for idx, values in enumerate(mats):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                key = (i, j) if i < j else (j, i)
                expected = values[slots[key]] == id_atom
                assert (idx in s.diag[i][j]) == expected


def test_basic_matrices_m_bounds():
    b = bin_forb(3, 1, 2)
    with pytest.raises(ValueError):
        basic_matrices(2, b)
    with pytest.raises(ValueError):
        basic_matrices(5, b)


# ---------------------------------------------------------------------------
# full tuple algebras


def test_full_set_algebra_semantics():
    s = full_set_algebra(3, 2)
    labels = [ast.literal_eval(a) for a in s.atoms]
    assert s.natoms == 8
    for i in range(3):
        for a, b in product(range(8), repeat=2):
            agree = all(
                labels[a][k] == labels[b][k] for k in range(3) if k != i
            )
            assert bool(s.cyl[i][b] >> a & 1) == agree
    for i in range(3):
        for j in range(3):
            assert s.diag[i][j] == frozenset(
                k for k, t in enumerate(labels) if t[i] == t[j]
            )


def test_three_cube_is_the_27_tuple_algebra():
    assert three_cube() == full_set_algebra(3, 3)
    assert three_cube().natoms == 27


def test_full_set_bounds():
    for n, b in [(1, 2), (5, 2), (2, 1), (2, 5)]:
        with pytest.raises(ValueError):
            full_set_algebra(n, b)


# ---------------------------------------------------------------------------
# atom splitting


def test_split_ca_shape_and_embedding():
    base = monk_atoms(3, 3)
    res = split_atom(base, 0, SplitPolicy(3, "inherit"))
    s = res.structure
    assert isinstance(s, CaAtomStructure)
    assert s.natoms == base.natoms + 2
    # copy_map partitions the new atoms
    seen = sorted(i for grp in res.copy_map for i in grp)
    assert seen == list(range(s.natoms))
    assert len(res.copy_map[res.split_atom]) == 3
    # Boolean embedding: injective, join/meet preserving by construction
    xs = [singleton(base, a) for a in range(base.natoms)]
    images = [res.embed(x) for x in xs]
    assert len({img.mask for img in images}) == len(images)
    # operator preservation atom by atom
    for a in range(base.natoms):
        for i in range(base.dim):
            lhs = res.embed(cyl(base, i, xs[a]))
            rhs = cyl(s, i, res.embed(xs[a]))
            assert lhs == rhs
    for i in range(base.dim):
        for j in range(base.dim):
            assert res.embed(diag(base, i, j)) == diag(s, i, j)
    assert check_ca_frame(s).passed


def test_split_embed_is_additive():
    base = monk_atoms(3, 3)
    res = split_atom(base, 5, SplitPolicy(2, "inherit"))
    x = Element(base, 0b1011)
    y = Element(base, 0b0110)
    assert res.embed(x | y) == res.embed(x) | res.embed(y)
    assert res.embed_atom(5).mask == res.embed(singleton(base, 5)).mask


@pytest.mark.parametrize("a", [0, 5])
@pytest.mark.parametrize("k", [2, 3])
def test_split_embed_matches_the_seed_loop(a, k):
    base = monk_atoms(3, 3)
    res = split_atom(base, a, SplitPolicy(k))
    rng = random.Random(a * 10 + k)
    xs = [singleton(base, b) for b in range(base.natoms)]
    xs += [cyl(base, i, x) for i in range(base.dim) for x in xs]
    xs += [Element(base, rng.getrandbits(base.natoms)) for _ in range(50)]
    for x in xs:
        assert res.embed(x) == seed_operators.embed(res, x)
    for b in range(base.natoms):
        assert res.embed_atom(b) == seed_operators.embed(res, singleton(base, b))


def test_split_ra_self_converse_atom():
    s = bin_forb(3, 1, 2)
    res = split_atom(s, 1, SplitPolicy(2, "inherit"))
    out = res.structure
    assert isinstance(out, RaAtomStructure)
    assert out.natoms == s.natoms + 1
    # relation-algebra laws survive except possibly associativity detail;
    # for this structure associativity already failed before the split
    copies = res.copy_map[1]
    assert len(copies) == 2
    # each copy keeps the original's composition behaviour against
    # untouched atoms
    for c in copies:
        for b in range(s.natoms):
            if b == 1:
                continue
            tb = res.copy_map[b][0]
            before = s.consistent(2, 1, b)
            assert out.consistent(res.copy_map[2][0], c, tb) == before


def test_split_policy_validation():
    with pytest.raises(ValueError):
        SplitPolicy(1, "inherit")
    with pytest.raises(ValueError):
        SplitPolicy(2, "mirror")
    base = monk_atoms(3, 3)
    with pytest.raises(ValueError):
        split_atom(base, 99, SplitPolicy(2, "inherit"))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=33),
    st.integers(min_value=2, max_value=3),
)
def test_split_frame_preservation_dichotomy(atom_idx, copies):
    """Splitting preserves the frame exactly when the atom avoids every
    off-diagonal E_ij: otherwise both copies stay inside E_ij and remain
    T_i-related, which is irreconcilable with diagonal uniqueness."""
    base = monk_atoms(3, 3)
    sub_diagonal = any(
        atom_idx in base.diag[i][j]
        for i in range(3)
        for j in range(3)
        if i != j
    )
    res = split_atom(base, atom_idx, SplitPolicy(copies, "inherit"))
    assert res.structure.natoms == 34 + copies - 1
    rep = check_ca_frame(res.structure)
    if sub_diagonal:
        assert not rep.passed
        failed = {c.name for c in rep.conditions if not c.passed}
        assert any(name.startswith("diag_unique_") for name in failed)
    else:
        assert rep.passed


def test_split_atoms_moved_by_transpositions_refused():
    base = full_set_algebra(3, 2)  # carries coordinate swaps
    with pytest.raises(ValueError):
        split_atom(base, 1, SplitPolicy(2, "inherit"))  # (0,0,1) is moved


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=33),
    st.integers(min_value=2, max_value=3),
)
def test_split_then_merge_restores_the_original(atom_idx, copies):
    """Collapsing the copies back to a single atom reproduces the source
    structure exactly (the inherit policy adds no new information)."""
    base = monk_atoms(3, 3)
    res = split_atom(base, atom_idx, SplitPolicy(copies, "inherit"))
    s = res.structure
    back = [0] * s.natoms
    for orig, grp in enumerate(res.copy_map):
        for c in grp:
            back[c] = orig
    merged_cyl = tuple(
        frozenset((back[a], back[b]) for a, b in column_pairs(cols)) for cols in s.cyl
    )
    merged_diag = tuple(
        tuple(frozenset(back[a] for a in s.diag[i][j]) for j in range(s.dim))
        for i in range(s.dim)
    )
    assert merged_cyl == tuple(frozenset(column_pairs(cols)) for cols in base.cyl)
    assert merged_diag == base.diag

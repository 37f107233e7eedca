"""Atom structures, element algebra, frame checking, serialization."""

import ast
import copy
import dataclasses
import json
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylkit import (
    CaAtomStructure,
    Element,
    SplitPolicy,
    check_ca_frame,
    cyl,
    delta,
    diag,
    dual_cyl,
    element,
    empty,
    full_set_algebra,
    johnson_extend,
    monk_atoms,
    singleton,
    split_atom,
    structure_from_dict,
    structure_from_json,
    structure_to_dict,
    structure_to_json,
    subst_repl,
    subst_transp,
    three_cube,
    top,
)
from cylkit.bao import StructureMismatchError, class_columns, column_pairs, transpose

import seed_operators


def diagonal_free(dim: int, n: int, cyl_rels) -> CaAtomStructure:
    """Structure with the given T_i and trivial (full) diagonal sets."""
    full = frozenset(range(n))
    return CaAtomStructure.build(
        dim=dim,
        atoms=tuple(f"a{i}" for i in range(n)),
        cyl=cyl_rels,
        diag=tuple(tuple(full for _ in range(dim)) for _ in range(dim)),
    )


@pytest.fixture(scope="module")
def cube():
    return three_cube()


@pytest.fixture(scope="module")
def fs32():
    return full_set_algebra(3, 2)


# ---------------------------------------------------------------------------
# construction-time type invariants


def test_dimension_bounds():
    ident = frozenset({(0, 0)})
    full = frozenset({0})
    with pytest.raises(ValueError):
        CaAtomStructure.build(1, ("a",), (ident,), ((full,),))
    with pytest.raises(ValueError):
        CaAtomStructure.build(
            9,
            ("a",),
            tuple(ident for _ in range(9)),
            tuple(tuple(full for _ in range(9)) for _ in range(9)),
        )


def test_atom_labels_must_be_unique():
    with pytest.raises(ValueError):
        CaAtomStructure.build(
            2,
            ("x", "x"),
            (frozenset(), frozenset()),
            tuple(
                tuple(frozenset({0, 1}) for _ in range(2)) for _ in range(2)
            ),
        )


def test_cyl_pairs_range_checked():
    with pytest.raises(ValueError):
        diagonal_free(2, 2, [{(0, 5)}, set()])


def test_diag_ii_must_be_full():
    full = frozenset({0, 1})
    part = frozenset({0})
    with pytest.raises(ValueError):
        CaAtomStructure.build(
            2,
            ("a", "b"),
            (frozenset(), frozenset()),
            ((part, full), (full, full)),
        )


def test_transp_must_be_involution():
    full = frozenset({0, 1, 2})
    ident = frozenset((a, a) for a in range(3))
    diag = tuple(tuple(full for _ in range(2)) for _ in range(2))
    # 3-cycle is a bijection but not an involution
    with pytest.raises(ValueError):
        CaAtomStructure.build(
            2,
            ("a", "b", "c"),
            (ident, ident),
            diag,
            (frozenset({(0, 1), (1, 2), (2, 0)}),),
        )
    # non-functional relation
    with pytest.raises(ValueError):
        CaAtomStructure.build(
            2,
            ("a", "b", "c"),
            (ident, ident),
            diag,
            (frozenset({(0, 1), (0, 2), (1, 0), (2, 0)}),),
        )


def test_cached_masks_match_declared_relations(cube):
    for i in range(cube.dim):
        cols = cube.cyl_image_masks(i)
        for b in range(cube.natoms):
            expected = {a for a, bb in structure_to_dict(cube)["cyl"][i] if bb == b}
            assert {a for a in range(cube.natoms) if cols[b] >> a & 1} == expected
    for i in range(cube.dim):
        for j in range(cube.dim):
            mask = cube.diag_mask(i, j)
            assert {a for a in range(cube.natoms) if mask >> a & 1} == set(
                cube.diag[i][j]
            )


def test_relations_are_stored_as_column_tables(fs32):
    # column 0 of T_0: the tuples agreeing with (0, 0, 0) off coordinate 0
    assert fs32.cyl[0][0] == 1 << 0 | 1 << fs32.atoms.index("(1, 0, 0)")
    assert fs32.cyl_op(0).cols is fs32.cyl[0]
    # a transposition is stored as its permutation, and its operator keeps
    # the same tuple with no column table
    assert fs32.transp[0][fs32.atoms.index("(0, 1, 0)")] == fs32.atoms.index("(1, 0, 0)")
    assert fs32.transp_op(0, 1).images is fs32.transp[0]
    assert fs32.transp_op(0, 1).cols is None


@pytest.mark.parametrize(
    "cyl0, transp, text",
    [
        ((1, 2), None, "cylindrifier relation needs one column per atom, got 2"),
        ((1, 2, 1 << 3), None, "cylindrifier pair (3,2) out of range"),
        ((1, 2, 4), (0, 1), "transposition relation needs one image per atom, got 2"),
        ((1, 2, 4), (0, 1, 5), "transposition pair (5,2) out of range"),
        ((1, 2, 4), (1, 2, 0), "transposition relation is not an involution"),
        ((1, 2, 4), (0, 1, -1), "transposition pair (-1,2) out of range"),
    ],
)
def test_column_tables_are_checked(cyl0, transp, text):
    full = frozenset(range(3))
    with pytest.raises(ValueError, match=re.escape(text)):
        CaAtomStructure(
            2,
            ("a", "b", "c"),
            (cyl0, (1, 2, 4)),
            ((full, full), (full, full)),
            None if transp is None else (transp,),
        )


# A stored permutation is a function and a bijection by its type, so these
# are checked where (a, b) pairs come in: in `build`.
@pytest.mark.parametrize(
    "pairs, text",
    [
        ([(1, 0), (1, 1), (0, 2)], "transposition relation is not functional"),
        ([(1, 0), (0, 1)], "transposition relation is not a bijection on atoms"),
        ([(0, 0), (1, 1), (2, 1)], "transposition relation is not a bijection on atoms"),
    ],
)
def test_transposition_pairs_are_checked(pairs, text):
    full = range(3)
    ident = [(a, a) for a in full]
    with pytest.raises(ValueError, match=re.escape(text)):
        CaAtomStructure.build(2, ("a", "b", "c"), (ident, ident), [[full] * 2] * 2, (pairs,))


def test_a_missing_transposition_pair_is_refused(fs32):
    data = structure_to_dict(fs32)
    assert [p[:2] for p in data["transp"]] == [[0, 1], [0, 2], [1, 2]]
    del data["transp"][1]
    with pytest.raises(ValueError, match="transposition relation is not a bijection on atoms"):
        structure_from_dict(data)


def test_column_helpers():
    assert class_columns(5, [[0, 3], [1], [2, 4]]) == (9, 2, 20, 9, 20)
    rel = {(0, 1), (2, 1), (1, 0), (3, 3), (3, 0)}
    cols = diagonal_free(2, 4, [rel, ()]).cyl[0]
    # column order: b ascending, then a
    assert list(column_pairs(cols)) == [(1, 0), (3, 0), (0, 1), (2, 1), (3, 3)]
    assert set(column_pairs(transpose(cols))) == {(b, a) for a, b in rel}


def _two_atoms(**fields):
    data = {
        "dim": 2,
        "atoms": ["a", "b"],
        "cyl": [[[0, 0], [1, 1]], [[0, 0], [1, 1]]],
        "diag": [[[0, 1], [0]], [[0], [0, 1]]],
        "transp": [[0, 1, [[0, 0], [1, 1]]]],
    }
    return {**data, **fields}


@pytest.mark.parametrize(
    "fields, text",
    [
        ({"cyl": [[[True, 0]], []]}, "cylindrifier relation T0 has a non-integer atom index True"),
        ({"cyl": [[], [[0, 1.0]]]}, "cylindrifier relation T1 has a non-integer atom index 1.0"),
        (
            {"diag": [[[0, 1], [False]], [[0], [0, 1]]]},
            "diagonal set E01 has a non-integer atom index False",
        ),
        (
            {"diag": [[[0, 1], [0]], [["1"], [0, 1]]]},
            "diagonal set E10 has a non-integer atom index '1'",
        ),
        (
            {"transp": [[0, 1, [[0, 0], [1.0, 1]]]]},
            "transposition relation P01 has a non-integer atom index 1.0",
        ),
    ],
)
def test_non_integer_atom_indices_are_refused(fields, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        structure_from_dict(_two_atoms(**fields))


def test_two_atom_fixture_loads():
    s = structure_from_dict(_two_atoms())
    assert s.cyl == ((1, 2), (1, 2)) and s.transp == ((0, 1),)


# ---------------------------------------------------------------------------
# element algebra


def test_element_mask_range_checked(cube):
    with pytest.raises(ValueError):
        Element(cube, 1 << cube.natoms)


@dataclasses.dataclass(frozen=True)
class _FrozenElement:
    """The frozen dataclass that Element was: its eq, hash and repr."""

    structure: object
    mask: int


class _Forged:
    """Pickles as an Element of the structure with any mask."""

    def __init__(self, structure, mask):
        self.args = structure, mask

    def __reduce__(self):
        return Element, self.args


def test_element_keeps_the_frozen_dataclass_contract(cube, fs32):
    x = Element(cube, 0b1011)
    twin = _FrozenElement(cube, 0b1011)
    assert repr(x) == repr(twin).replace("_FrozenElement", "Element")
    assert hash(x) == hash(twin) == hash(Element(cube, 0b1011))
    assert x == Element(cube, 0b1011) and not x != Element(cube, 0b1011)
    assert x != Element(cube, 0b1010) and x != Element(fs32, 0b1011)
    assert x != twin and x != (cube, 0b1011) and x != 0b1011
    assert len({x, Element(cube, 0b1011), Element(cube, 0b1010)}) == 2
    for field in ("mask", "structure", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
    assert x.mask == 0b1011 and x.structure is cube
    assert not hasattr(x, "__dict__")
    for other in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(other) is Element and other == x


def test_element_rebuilt_from_a_pickle_or_copy_is_range_checked(cube, fs32):
    # pickling and copying rebuild an Element through its constructor, so a
    # pickle whose mask lies past its structure's atoms is refused on loading
    x = Element(cube, 1 << 20)
    assert x.__reduce__() == (Element, (cube, 1 << 20))
    with pytest.raises(ValueError, match="out-of-range atom indices"):
        pickle.loads(pickle.dumps(_Forged(fs32, 1 << 20)))
    for bad in (1 << fs32.natoms, -1):
        with pytest.raises(ValueError, match="out-of-range atom indices"):
            Element(fs32, bad)


@pytest.mark.parametrize(
    "build", [lambda: full_set_algebra(4, 2), lambda: monk_atoms(4, 4)], ids=["16", "3545"]
)
def test_element_accepts_exactly_the_int_masks_of_its_atoms(build):
    # the range test compares the mask with 0 and the full mask, so what it
    # accepts does not depend on the atom count; pickling and copying
    # rebuild through the same test
    s = build()
    n, full = s.natoms, s.full_mask
    makers = (
        lambda mask: Element(s, mask),
        lambda mask: pickle.loads(pickle.dumps(_Forged(s, mask))),
        lambda mask: copy.copy(_Forged(s, mask)),
    )
    for mask in (0, full, 1, 1 << n - 1):
        for make in makers:
            x = make(mask)
            assert type(x) is Element and x.mask == mask and x.structure == s
    for mask in (full + 1, 1 << n, 1 << n | 1, -1):
        for make in makers:
            with pytest.raises(ValueError, match="^element mask contains out-of-range atom indices$"):
                make(mask)
    for mask in (1.5, 2.0, np.uint8(1), np.uint32(1), np.uint64(1), np.int64(1)):
        for make in makers:
            with pytest.raises(TypeError, match="^element mask must be an int, got "):
                make(mask)


def test_element_structure_mismatch(cube, fs32):
    with pytest.raises(StructureMismatchError):
        top(cube) & top(fs32)


masks = st.integers(min_value=0, max_value=(1 << 27) - 1)


@given(masks, masks)
def test_boolean_laws(m1, m2):
    s = three_cube()
    x, y = Element(s, m1), Element(s, m2)
    assert ~(x | y) == (~x) & (~y)
    assert ~(x & y) == (~x) | (~y)
    assert ~~x == x
    assert (x - y) == (x & ~y)
    assert (x & y) <= x <= (x | y)
    assert len(x) == m1.bit_count()
    assert set(x.atom_indices()) == {a for a in range(27) if m1 >> a & 1}


@given(masks, masks, st.integers(min_value=0, max_value=2))
def test_cylindrifier_is_additive_and_normal(m1, m2, i):
    s = three_cube()
    x, y = Element(s, m1), Element(s, m2)
    assert cyl(s, i, x | y) == cyl(s, i, x) | cyl(s, i, y)
    assert cyl(s, i, empty(s)).is_empty
    assert x <= cyl(s, i, x)  # T_i is reflexive on this structure


@given(masks, st.integers(min_value=0, max_value=2))
def test_dual_cyl_is_de_morgan_dual(m, i):
    s = three_cube()
    x = Element(s, m)
    assert dual_cyl(s, i, x) == ~cyl(s, i, ~x)


def test_substitution_identity_cases(fs32):
    x = element(fs32, [0, 3, 5])
    assert subst_repl(fs32, 1, 1, x) == x
    assert subst_transp(fs32, 0, 1, subst_transp(fs32, 0, 1, x)) == x


def test_substitution_semantics_on_full_set(fs32):
    labels = [ast.literal_eval(a) for a in fs32.atoms]
    idx = {t: i for i, t in enumerate(labels)}
    for target in [(1, 1, 0), (0, 0, 0), (1, 0, 1)]:
        got = subst_repl(fs32, 0, 1, singleton(fs32, idx[target]))
        expected = {
            t for t in labels if (t[1], t[1], t[2]) == target
        }
        assert {labels[a] for a in got} == expected
    for target in [(0, 1, 0), (1, 1, 1)]:
        got = subst_transp(fs32, 0, 1, singleton(fs32, idx[target]))
        swapped = (target[1], target[0], target[2])
        assert {labels[a] for a in got} == {swapped}


def test_delta_support(fs32):
    assert delta(fs32, top(fs32)) == frozenset()
    assert delta(fs32, empty(fs32)) == frozenset()
    assert delta(fs32, diag(fs32, 0, 1)) == frozenset({0, 1})


# ---------------------------------------------------------------------------
# frame checking


def test_full_set_frames_pass(cube, fs32):
    assert check_ca_frame(cube).passed
    rep = check_ca_frame(fs32)
    assert rep.passed
    names = {c.name for c in rep.conditions}
    assert "T0_transitive" in names
    assert "commute_T0_T1" in names
    assert "P01_involution" in names  # full-set algebra carries transpositions


def test_nontransitive_relation_flagged():
    # T_0 = {00,11,22,01,10,12,21} misses (0,2): reflexive+symmetric, not transitive
    t0 = {(a, a) for a in range(3)} | {(0, 1), (1, 0), (1, 2), (2, 1)}
    ident = {(a, a) for a in range(3)}
    s = diagonal_free(3, 3, [t0, ident, ident])
    rep = check_ca_frame(s)
    assert not rep.passed
    failed = {c.name for c in rep.conditions if not c.passed}
    assert "T0_transitive" in failed
    assert "T0_reflexive" not in failed


def test_noncommuting_pair_flagged():
    # T_0 joins {0,1}, T_1 joins {1,2}: compositions differ at atom 0 vs 2
    t0 = {(a, a) for a in range(3)} | {(0, 1), (1, 0)}
    t1 = {(a, a) for a in range(3)} | {(1, 2), (2, 1)}
    s = diagonal_free(3, 3, [t0, t1, {(a, a) for a in range(3)}])
    rep = check_ca_frame(s)
    assert not rep.passed
    assert "commute_T0_T1" in {c.name for c in rep.conditions if not c.passed}


def test_diag_chain_violation_flagged():
    ident = frozenset((a, a) for a in range(2))
    full = frozenset({0, 1})
    sub = frozenset({0})
    s = CaAtomStructure.build(
        3,
        ("a", "b"),
        (ident, ident, ident),
        (
            (full, sub, full),
            (sub, full, full),
            (full, full, full),
        ),
    )
    rep = check_ca_frame(s)
    assert not rep.passed
    failed = {c.name for c in rep.conditions if not c.passed}
    assert any(name.startswith("diag_chain_") for name in failed)


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_dict_and_json(cube, fs32):
    for s in (cube, fs32):
        assert structure_from_dict(structure_to_dict(s)) == s
        assert structure_from_json(structure_to_json(s)) == s


def test_loaded_structure_shares_each_distinct_column():
    """`build` makes equal columns one object, so `AdditiveOperator.after`
    reads each distinct column once on a loaded structure too."""
    s = monk_atoms(4, 4)
    loaded = structure_from_dict(structure_to_dict(s))
    assert loaded == s
    for cols in loaded.cyl:
        assert len(set(map(id, cols))) == len(set(cols))


def test_json_is_canonical(cube):
    text = structure_to_json(cube)
    assert text.endswith("\n")
    import json

    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "build",
    [
        lambda: monk_atoms(3, 3),
        lambda: johnson_extend(monk_atoms(3, 3)),
        lambda: full_set_algebra(3, 2),
        lambda: split_atom(monk_atoms(3, 3), 5, SplitPolicy(3)).structure,
    ],
    ids=["monk", "johnson", "full_set", "split"],
)
def test_json_pairs_match_the_sorted_listing(build):
    # pairs listed row by row from the transposed table, against the seed's
    # sort of the column-order listing
    s = build()
    seed = json.dumps(seed_operators.structure_to_dict(s), sort_keys=True, indent=2) + "\n"
    assert structure_to_json(s) == seed


@st.composite
def random_structures(draw):
    dim = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    cyl_rels = tuple(
        frozenset(draw(st.sets(pairs, max_size=8))) for _ in range(dim)
    )
    full = frozenset(range(n))
    diag_rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i == j:
                row.append(full)
            else:
                row.append(
                    frozenset(
                        draw(
                            st.sets(
                                st.integers(min_value=0, max_value=n - 1),
                                max_size=n,
                            )
                        )
                    )
                )
        diag_rows.append(tuple(row))
    s = CaAtomStructure.build(
        dim, tuple(f"a{i}" for i in range(n)), cyl_rels, tuple(diag_rows)
    )
    return s, cyl_rels


@settings(max_examples=60, deadline=None)
@given(random_structures())
def test_round_trip_on_random_structures(drawn):
    s, _ = drawn
    assert structure_from_dict(structure_to_dict(s)) == s
    assert structure_from_json(structure_to_json(s)) == s


@settings(max_examples=30, deadline=None)
@given(random_structures(), st.data())
def test_cyl_image_mask_consistency(drawn, data):
    s, cyl_rels = drawn
    i = data.draw(st.integers(min_value=0, max_value=s.dim - 1))
    b = data.draw(st.integers(min_value=0, max_value=s.natoms - 1))
    mask = s.cyl_image_masks(i)[b]
    assert {a for a in range(s.natoms) if mask >> a & 1} == {
        a for a, bb in cyl_rels[i] if bb == b
    }


def test_a_transposition_costs_memory_by_atoms_not_atoms_squared():
    # 8,192 atoms: T_0 = T_1 is the full relation, one column shared by
    # every atom; P_01 a seeded random involution that fixes an atom d
    # (and one more), and E_01 = E_10 = {d}, so the frame passes.  As a column table of
    # one-bit masks P_01 alone would take n^2/16 bytes, 4 MiB, and
    # checking it about three times that.
    n = 8192
    full = (1 << n) - 1
    cols = (full,) * n
    rest = list(range(n))
    random.Random(0).shuffle(rest)
    d = rest.pop()
    perm = list(range(n))
    for a, b in zip(rest[::2], rest[1::2]):
        perm[a], perm[b] = b, a
    every, fixed = frozenset(range(n)), frozenset({d})
    args = (
        2,
        tuple(f"a{k}" for k in range(n)),
        (cols, cols),
        ((every, fixed), (fixed, every)),
        (tuple(perm),),
    )
    tracemalloc.start()
    try:
        report = check_ca_frame(CaAtomStructure(*args))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * 2**20

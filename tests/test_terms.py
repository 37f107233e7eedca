"""Term evaluation, equation checking modes, witness terms, sc-word terms."""

import ast
import random
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylkit import (
    AtomsMode,
    Element,
    Exhaustive,
    Sample,
    ca_axioms,
    check_equation,
    cyl,
    element,
    eval_term,
    full_set_algebra,
    monk_atoms,
    pea_axioms,
    singleton,
    three_cube,
)
from cylkit.bao import check_ca_frame
from cylkit.games import drop_cyl_pair
from cylkit.neat import cyl_fixed_masks
from cylkit.terms import (
    Complement,
    Cyl,
    Diag,
    DualCyl,
    Join,
    Meet,
    One,
    SubstRepl,
    SubstTransp,
    SwapMacro,
    Var,
    Zero,
    expand_swap,
    relcomp01_lowdim,
    relcomp01_spare,
    swap01_lowdim,
    swap01_spare,
    variables,
    _Emitter,
)

import cylkit.terms as terms_module
import seed_terms
from test_operator import _criterion_1_fixtures, _random_structure


@pytest.fixture(scope="module")
def cube():
    return three_cube()


@pytest.fixture(scope="module")
def fs32():
    return full_set_algebra(3, 2)


@pytest.fixture(scope="module")
def fs42():
    return full_set_algebra(4, 2)


# ---------------------------------------------------------------------------
# evaluation basics


def test_eval_constants_and_vars(cube):
    x = element(cube, [0, 5])
    env = {0: x}
    assert eval_term(cube, Zero(), {}).is_empty
    assert eval_term(cube, One(), {}).mask == cube.full_mask
    assert eval_term(cube, Var(0), env) == x
    assert eval_term(cube, Complement(Var(0)), env) == ~x
    assert eval_term(cube, Meet(Var(0), Complement(Var(0))), env).is_empty


def test_eval_missing_variable_raises(cube):
    with pytest.raises(ValueError):
        eval_term(cube, Var(7), {})


def test_variables_collects_all():
    t = Meet(Cyl(0, Var(2)), SubstRepl(0, 1, Var(5)))
    assert variables(t) == frozenset({2, 5})
    assert variables(Diag(0, 1)) == frozenset()


# ---------------------------------------------------------------------------
# axiom batteries hold on genuine set structures


def test_ca_axioms_hold_exhaustively(fs32):
    for eq in ca_axioms(fs32.dim):
        rep = check_equation(fs32, eq.lhs, eq.rhs, Exhaustive(), eq.relation)
        assert rep.holds, eq.name


def test_ca_axioms_hold_on_cube_atoms(cube):
    # 27 atoms exceed the exhaustive element bound; the atom sweep still
    # covers every singleton assignment
    for eq in ca_axioms(cube.dim):
        rep = check_equation(cube, eq.lhs, eq.rhs, AtomsMode(), eq.relation)
        assert rep.holds, eq.name


def test_pea_axioms_hold_exhaustively(fs32):
    for eq in pea_axioms(fs32.dim):
        rep = check_equation(fs32, eq.lhs, eq.rhs, Exhaustive(), eq.relation)
        assert rep.holds, eq.name


# ---------------------------------------------------------------------------
# mode semantics


def _meet_distribution_pair():
    x, y = Var(0), Var(1)
    return Cyl(0, Meet(x, y)), Meet(Cyl(0, x), Cyl(0, y))


def test_exhaustive_finds_counterexample(fs32):
    lhs, rhs = _meet_distribution_pair()
    rep = check_equation(fs32, lhs, rhs, Exhaustive())
    assert not rep.holds
    env = rep.counterexample_env()
    assert env is not None
    lv = eval_term(fs32, lhs, env)
    rv = eval_term(fs32, rhs, env)
    assert lv != rv  # the reported assignment really is a counterexample


def test_atoms_mode_finds_the_same_failure(fs32):
    lhs, rhs = _meet_distribution_pair()
    rep = check_equation(fs32, lhs, rhs, AtomsMode())
    assert not rep.holds
    env = rep.counterexample_env()
    assert all(len(v) == 1 for v in env.values())


def test_sample_mode_is_seed_deterministic(fs32):
    lhs, rhs = _meet_distribution_pair()
    r1 = check_equation(fs32, lhs, rhs, Sample(seed=7, count=64))
    r2 = check_equation(fs32, lhs, rhs, Sample(seed=7, count=64))
    assert r1 == r2
    assert not r1.holds


def test_leq_relation(fs32):
    x = Var(0)
    rep = check_equation(fs32, x, Cyl(0, x), Exhaustive(), relation="leq")
    assert rep.holds
    rep = check_equation(fs32, Cyl(0, x), x, Exhaustive(), relation="leq")
    assert not rep.holds


def test_mode_guards():
    s = three_cube()
    three_var = Meet(Var(0), Meet(Var(1), Var(2)))
    with pytest.raises(ValueError):
        check_equation(s, three_var, three_var, Exhaustive())
    with pytest.raises(ValueError):
        check_equation(s, Var(0), Var(0), Exhaustive(), relation="subset")
    big = monk_atoms(3, 3)  # 34 atoms: beyond the exhaustive element bound
    with pytest.raises(ValueError):
        check_equation(big, Var(0), Var(0), Exhaustive())


@pytest.mark.parametrize("mode", [Exhaustive(), AtomsMode(), Sample(seed=0, count=4)])
@pytest.mark.parametrize("node", [SubstRepl, SubstTransp])
def test_out_of_range_substitution_index_raises_in_every_mode(fs32, mode, node):
    # s_ii and p_ii are the identity, but only for an index of the dimension
    with pytest.raises(ValueError, match="index 5 out of range for dimension 3"):
        check_equation(fs32, node(5, 5, Var(0)), Var(0), mode)
    with pytest.raises(ValueError, match="index 5 out of range for dimension 3"):
        eval_term(fs32, node(5, 5, Var(0)), {0: singleton(fs32, 0)})


def test_exhaustive_agrees_with_naive_on_small_structure(fs32):
    # one-variable law, checked against a direct loop over all 256 elements
    lhs = Cyl(0, Cyl(0, Var(0)))
    rhs = Cyl(0, Var(0))
    rep = check_equation(fs32, lhs, rhs, Exhaustive())
    naive = all(
        eval_term(fs32, lhs, {0: Element(fs32, m)})
        == eval_term(fs32, rhs, {0: Element(fs32, m)})
        for m in range(1 << fs32.natoms)
    )
    assert rep.holds == naive is True


# ---------------------------------------------------------------------------
# swap and composition witness terms


def test_swap_macro_expansion_is_the_documented_chain():
    t = SwapMacro(3, 0, 1, Var(0))
    assert expand_swap(t) == SubstRepl(
        3, 0, SubstRepl(0, 1, SubstRepl(1, 3, Var(0)))
    )


def test_spare_swap_is_exact_on_spare_free_elements(fs42):
    # the routed swap is exact on elements not depending on the spare
    # index; the smallest such elements pair each tuple with its spare-flip
    labels = [ast.literal_eval(a) for a in fs42.atoms]
    idx = {t: i for i, t in enumerate(labels)}
    term = swap01_spare()
    for t in labels:
        pair = {t, (*t[:3], 1 - t[3])}
        x = element(fs42, [idx[u] for u in pair])
        got = eval_term(fs42, term, {0: x})
        expected = {idx[(u[1], u[0], u[2], u[3])] for u in pair}
        assert set(got.atom_indices()) == expected


def test_lowdim_swap_bounds_singletons_on_cube(cube):
    labels = [ast.literal_eval(a) for a in cube.atoms]
    idx = {t: i for i, t in enumerate(labels)}
    term = swap01_lowdim()
    for t in labels:
        got = eval_term(cube, term, {0: singleton(cube, idx[t])})
        swapped = (t[1], t[0], t[2])
        assert idx[swapped] in got


def _spare_closed_masks(structure):
    """Masks of elements fixed by the last cylindrifier."""
    spare = structure.dim - 1
    out = []
    for m in range(1 << structure.natoms):
        x = Element(structure, m)
        if cyl(structure, spare, x) == x:
            out.append(m)
    return out


@pytest.fixture(scope="module")
def closed42(fs42):
    masks = _spare_closed_masks(fs42)
    assert len(masks) == 256  # 2^16 elements, 256 fixed by the spare index
    return masks


def test_cyl_fixed_masks_are_the_spare_closed_elements(fs42, closed42):
    masks = cyl_fixed_masks(fs42, 3)
    assert sorted(masks) == closed42
    # bit k of a position stands for the k-th class c_3{a} in atom order
    classes = []
    for a in range(fs42.natoms):
        image = cyl(fs42, 3, element(fs42, [a])).mask
        if image not in classes:
            classes.append(image)
    for pos, mask in enumerate(masks):
        union = 0
        for k, image in enumerate(classes):
            if pos >> k & 1:
                union |= image
        assert mask == union


def test_spare_swap_below_lowdim_bound_on_closed_elements(fs42, closed42):
    spare_term, low_term = swap01_spare(), swap01_lowdim()
    for m in closed42:
        env = {0: Element(fs42, m)}
        lv = eval_term(fs42, spare_term, env)
        rv = eval_term(fs42, low_term, env)
        assert lv <= rv


def test_spare_composition_below_lowdim_bound_on_closed_elements(fs42, closed42):
    spare_term, low_term = relcomp01_spare(), relcomp01_lowdim()
    for m1 in closed42:
        for m2 in closed42:
            env = {0: Element(fs42, m1), 1: Element(fs42, m2)}
            lv = eval_term(fs42, spare_term, env)
            rv = eval_term(fs42, low_term, env)
            assert lv <= rv, (m1, m2)


def test_bounds_fail_on_unconstrained_elements(fs42):
    # the same inequalities are refuted by elements depending on the spare
    # index; the smallest counterexample is a single origin tuple
    labels = [ast.literal_eval(a) for a in fs42.atoms]
    idx = {t: i for i, t in enumerate(labels)}
    origin = singleton(fs42, idx[(0, 0, 0, 0)])
    lv = eval_term(fs42, swap01_spare(), {0: origin})
    rv = eval_term(fs42, swap01_lowdim(), {0: origin})
    assert not lv <= rv
    env = {0: origin, 1: origin}
    lv = eval_term(fs42, relcomp01_spare(), env)
    rv = eval_term(fs42, relcomp01_lowdim(), env)
    assert not lv <= rv


def test_spare_composition_matches_relational_composition(fs42):
    labels = [ast.literal_eval(a) for a in fs42.atoms]
    idx = {t: i for i, t in enumerate(labels)}
    # X = pairs (first two coords) of one relation, Y of another
    rel_x = {(0, 1), (1, 1)}
    rel_y = {(1, 0)}
    ex = element(fs42, [i for i, t in enumerate(labels) if (t[0], t[1]) in rel_x])
    ey = element(fs42, [i for i, t in enumerate(labels) if (t[0], t[1]) in rel_y])
    got = eval_term(fs42, relcomp01_spare(), {0: ex, 1: ey})
    comp = {(a, c) for a, b in rel_x for bb, c in rel_y if b == bb}
    expected = {i for i, t in enumerate(labels) if (t[0], t[1]) in comp}
    assert set(got.atom_indices()) == expected


# ---------------------------------------------------------------------------
# sc-words: strings of replacement-substitution and cylindrifier tokens,
# read as composite terms


@dataclass(frozen=True)
class TokenSubst:
    i: int
    j: int


@dataclass(frozen=True)
class TokenCyl:
    i: int


def sc_word_term(word, body):
    """The composite term of a word applied to body, leftmost token outermost."""
    out = body
    for tok in reversed(word):
        if isinstance(tok, TokenSubst):
            out = SubstRepl(tok.i, tok.j, out)
        else:
            out = Cyl(tok.i, out)
    return out


_tokens = st.one_of(
    st.builds(
        TokenSubst,
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    st.builds(TokenCyl, st.integers(min_value=0, max_value=2)),
)


def _symbolic_images(word, n):
    """Independent semantic route: fold the word over symbolic coordinate
    expressions, introducing one fresh shared symbol per cylindrifier
    token.  Returns the image expressions and the bound-symbol count.
    Bound symbols copied into several coordinates by later substitutions
    stay shared."""
    images: list[tuple[str, int]] = [("coord", k) for k in range(n)]
    fresh = 0
    for tok in word:
        if isinstance(tok, TokenSubst):
            images[tok.i] = images[tok.j]
        else:
            images[tok.i] = ("bound", fresh)
            fresh += 1
    return images, fresh


@settings(max_examples=80, deadline=None)
@given(st.lists(_tokens, max_size=4), st.integers(min_value=0, max_value=255))
def test_sc_word_term_matches_symbolic_semantics(word, mask):
    """Dual route: the composite term on a full tuple algebra equals the
    preimage computed from symbolic coordinate expressions, existentially
    quantifying the bound symbols (which may be shared)."""
    s = full_set_algebra(3, 2)
    labels = [ast.literal_eval(a) for a in s.atoms]
    x = Element(s, mask)
    members = {labels[a] for a in x}
    images, fresh = _symbolic_images(word, 3)

    def hits(t):
        for bits in range(1 << fresh):
            img = tuple(
                t[k] if kind == "coord" else (bits >> k) & 1
                for kind, k in images
            )
            if img in members:
                return True
        return False

    got = eval_term(s, sc_word_term(word, Var(0)), {0: x})
    expected = {i for i, t in enumerate(labels) if hits(t)}
    assert set(got.atom_indices()) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_swap_macro_agrees_with_expansion(mask):
    s = full_set_algebra(4, 2)
    macro = SwapMacro(3, 0, 1, Var(0))
    env = {0: Element(s, mask)}
    assert eval_term(s, macro, env) == eval_term(s, expand_swap(macro), env)


def test_transposition_operator_matches_swap_macro_on_closed(fs42, closed42):
    # where the spare-routed swap applies (spare-closed elements), it equals
    # the primitive transposition operator of the polyadic signature
    macro = swap01_spare()
    for m in closed42:
        env = {0: Element(fs42, m)}
        got = eval_term(fs42, macro, env)
        prim = eval_term(fs42, SubstTransp(0, 1, Var(0)), env)
        assert got == prim


# ---------------------------------------------------------------------------
# the exhaustive two-variable sweep against the per-mask sweep


def _random_term(rng, dim, depth, transp):
    """A seeded term over Var(0) and Var(1), valid in the dimension."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.85:
            return Var(rng.randrange(2))
        if pick < 0.93:
            return Diag(rng.randrange(dim), rng.randrange(dim))
        return rng.choice([Zero(), One()])
    kind = rng.choice(
        [Complement, Meet, Join, Meet, Cyl, Cyl, DualCyl, SubstRepl]
        + [SubstTransp] * transp
    )
    if kind in (Meet, Join):
        return kind(*(_random_term(rng, dim, depth - 1, transp) for _ in range(2)))
    arg = _random_term(rng, dim, depth - 1, transp)
    if kind is Complement:
        return kind(arg)
    if kind in (Cyl, DualCyl):
        return kind(rng.randrange(dim), arg)
    return kind(rng.randrange(dim), rng.randrange(dim), arg)


def _frontier_holds_y(structure, lhs, rhs):
    """Whether a step reading Var(0), or a side, reads Var(1) itself."""
    emitter = _Emitter(structure, (1,), 0)
    emitter.source((lhs, rhs))
    return "x1" in emitter._frontier


@pytest.mark.parametrize("block", [1 << 14, 64])
def test_sweep_matches_the_per_mask_sweep_on_random_terms(block, monkeypatch):
    monkeypatch.setattr(terms_module, "_BLOCK", block)
    distinct = []  # the distinct frontier tuples of each two-variable sweep
    reduce = terms_module._distinct

    def recorded(*columns):
        out = reduce(*columns)
        distinct.append(len(out[2]))
        return out

    monkeypatch.setattr(terms_module, "_distinct", recorded)
    rng = random.Random(25)
    shapes = [(4, 2), (5, 3), (6, 2), (7, 3), (8, 2), (9, 3), (10, 2), (10, 3)]
    structures = [_random_structure(n, seed, dim) for seed, (n, dim) in enumerate(shapes)]
    structures += [full_set_algebra(3, 2), full_set_algebra(2, 3)]
    seen = dict.fromkeys(
        ["holds", "fails", "frontier is y", "fails past the first block", "fails inside a block"], 0
    )
    for s in structures:
        transp = s.transp is not None
        for _ in range(8):
            lhs, rhs = (_random_term(rng, s.dim, 3, transp) for _ in range(2))
            # the third case always holds, so it sweeps every assignment
            cases = ((lhs, rhs, "eq"), (lhs, rhs, "leq"), (lhs, Join(lhs, rhs), "leq"))
            for l, r, relation in cases:
                got = check_equation(s, l, r, Exhaustive(), relation)
                assert got == seed_terms.check_exhaustive(s, l, r, relation), (l, r, relation)
                if variables(l) | variables(r) != {0, 1}:
                    continue
                seen["holds" if got.holds else "fails"] += 1
                seen["frontier is y"] += _frontier_holds_y(s, l, r)
                if not got.holds:
                    rows, x = max(1, block // distinct[-1]), got.counterexample[0][1].mask
                    seen["fails past the first block"] += x >= rows
                    seen["fails inside a block"] += x % rows != 0
    # at the default block, failures on at most 10 atoms lie in the first block
    past = seen.pop("fails past the first block")
    assert min(seen.values()) >= 5 and (past >= 5 or block == 1 << 14), (seen, past)


@pytest.mark.parametrize("name", sorted(_criterion_1_fixtures()))
def test_sweep_matches_the_per_mask_sweep_on_criterion_1_batteries(name):
    s = _criterion_1_fixtures()[name]
    eqs = list(ca_axioms(s.dim))
    if s.transp is not None:
        eqs += pea_axioms(s.dim)
    cases = [(e.lhs, e.rhs, e.relation) for e in eqs]
    cases += [(e.rhs, e.lhs, "leq") for e in eqs] + [(e.lhs, e.rhs, "leq") for e in eqs]
    for lhs, rhs, relation in cases:
        got = check_equation(s, lhs, rhs, Exhaustive(), relation)
        assert got == seed_terms.check_exhaustive(s, lhs, rhs, relation), (lhs, rhs, relation)


def _frame_and_battery(s):
    eqs = list(ca_axioms(s.dim))
    if s.transp is not None:
        eqs += pea_axioms(s.dim)
    reports = {e.name: check_equation(s, e.lhs, e.rhs, Exhaustive(), e.relation) for e in eqs}
    return check_ca_frame(s).passed, reports


def test_frame_and_equations_agree_at_16_atoms():
    # the frame check and the exhaustive C1-C7+PEA battery, every equation
    # of it, on 16 atoms, where criterion 1 stops at 12: about 0.6 s for both
    # structures on a 2-vCPU host, where the sweep over every pair of masks
    # took 34 s for the first alone
    fs42 = full_set_algebra(4, 2)
    start = time.perf_counter()
    frame, reports = _frame_and_battery(fs42)
    assert frame and all(r.holds for r in reports.values())
    assert reports["C3_c2_meet"].assignments == 1 << 32
    # T_0 loses the pair ((1,0,0,0), (0,0,0,0)) and keeps its converse, so
    # it is no longer symmetric: both routes fail
    a, b = fs42.atoms.index("(1, 0, 0, 0)"), fs42.atoms.index("(0, 0, 0, 0)")
    cut = drop_cyl_pair(fs42, 0, a, b)
    frame, reports = _frame_and_battery(cut)
    assert not frame
    failing = sorted(name for name, r in reports.items() if not r.holds)
    assert "C3_c0_meet" in failing
    assert time.perf_counter() - start < 20

"""The additive operator and the one term evaluator, against the loops and
evaluators they replaced.

The oracles below are the earlier implementations, kept verbatim apart
from their names: the "OR the columns of the set bits" loop, the
vectorised `_apply_tables` (one `np.where` pass per atom), the array
evaluator `_eval_vec`, the Element-level `eval_term` and `check_equation`,
`check_ca_frame` with its `_compose_cols` and its pair scan for
`diag_unique`, `neat._is_equivalence`, and the three pair scans of
`equivalence_defects`.
"""

import builtins
import copy
import dataclasses
import functools
import io
import pickle
import random
import re
import tokenize

import numpy as np
import pytest

from cylkit import (
    AtomsMode,
    CaAtomStructure,
    Element,
    EquationReport,
    Exhaustive,
    Sample,
    ca_axioms,
    diag,
    element,
    eval_term,
    full_set_algebra,
    monk_atoms,
    pea_axioms,
    rl_x,
    three_cube,
)
from cylkit.acceptance import _violator_diagonal, _violator_nontransitive
from cylkit.bao import (
    AdditiveOperator,
    FrameCondition,
    FrameReport,
    _bits,
    check_ca_frame,
    column_pairs,
    equivalence_defects,
)
from cylkit.constructions import SplitPolicy, johnson_extend, split_atom
from cylkit.games import drop_cyl_pair
from cylkit import terms as terms_module
from cylkit.neat import nr
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
    Term,
    Var,
    Zero,
    _Emitter,
    _eval_masks,
    _product_indices,
    _violates,
    check_equation,
    expand_swap,
    relcomp01_lowdim,
    relcomp01_spare,
    swap01_lowdim,
    swap01_spare,
    variables,
)

# ---------------------------------------------------------------------------
# oracles: the earlier implementations


def seed_bit_loop(tables, mask):
    out = 0
    for b in _bits(mask):
        out |= tables[b]
    return out


def seed_apply_tables(tables, arr, natoms):
    out = np.zeros_like(arr)
    for a in range(natoms):
        out |= np.where((arr >> np.uint32(a)) & 1, np.uint32(tables[a]), np.uint32(0))
    return out


def seed_cyl(structure, i, x):
    """T_i-preimage: {a : exists b in x with (a,b) in T_i}."""
    tables = structure.cyl_image_masks(i)
    out = 0
    for b in _bits(x.mask):
        out |= tables[b]
    return Element(structure, out)


def seed_subst_repl(structure, i, j, x):
    structure._check_index(i)
    structure._check_index(j)
    if i == j:
        return x
    return seed_cyl(structure, i, Element(structure, x.mask & structure.diag_mask(i, j)))


def seed_subst_transp(structure, i, j, x):
    structure._check_index(i)
    structure._check_index(j)
    if i == j:
        return x
    tables = structure.transp_image_masks(i, j)
    out = 0
    for b in _bits(x.mask):
        out |= tables[b]
    return Element(structure, out)


def seed_eval_term(structure, t, env):
    """Denotation of t under env in the complex algebra of the structure."""
    if isinstance(t, Zero):
        return Element(structure, 0)
    if isinstance(t, One):
        return Element(structure, structure.full_mask)
    if isinstance(t, Var):
        if t.k not in env:
            raise ValueError(f"unbound variable {t.k}")
        x = env[t.k]
        if not (x.structure is structure or x.structure == structure):
            raise ValueError("environment element belongs to a different structure")
        return x
    if isinstance(t, Complement):
        return ~seed_eval_term(structure, t.arg, env)
    if isinstance(t, Meet):
        return seed_eval_term(structure, t.left, env) & seed_eval_term(structure, t.right, env)
    if isinstance(t, Join):
        return seed_eval_term(structure, t.left, env) | seed_eval_term(structure, t.right, env)
    if isinstance(t, Cyl):
        return seed_cyl(structure, t.i, seed_eval_term(structure, t.arg, env))
    if isinstance(t, Diag):
        return diag(structure, t.i, t.j)
    if isinstance(t, SubstRepl):
        return seed_subst_repl(structure, t.i, t.j, seed_eval_term(structure, t.arg, env))
    if isinstance(t, SubstTransp):
        return seed_subst_transp(structure, t.i, t.j, seed_eval_term(structure, t.arg, env))
    if isinstance(t, SwapMacro):
        return seed_eval_term(structure, expand_swap(t), env)
    if isinstance(t, DualCyl):
        return ~seed_cyl(structure, t.i, ~seed_eval_term(structure, t.arg, env))
    raise TypeError(f"unknown term node {t!r}")


def seed_eval_vec(structure, t, env):
    """Evaluate t where variables map to scalar masks or arrays of masks."""
    n = structure.natoms
    full = structure.full_mask
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return full
    if isinstance(t, Var):
        if t.k not in env:
            raise ValueError(f"unbound variable {t.k}")
        return env[t.k]
    if isinstance(t, Complement):
        return seed_eval_vec(structure, t.arg, env) ^ np.uint32(full)
    if isinstance(t, Meet):
        return seed_eval_vec(structure, t.left, env) & seed_eval_vec(structure, t.right, env)
    if isinstance(t, Join):
        return seed_eval_vec(structure, t.left, env) | seed_eval_vec(structure, t.right, env)
    if isinstance(t, Diag):
        return structure.diag_mask(t.i, t.j)
    if isinstance(t, SwapMacro):
        return seed_eval_vec(structure, expand_swap(t), env)
    if isinstance(t, (Cyl, DualCyl, SubstRepl, SubstTransp)):
        inner = seed_eval_vec(structure, t.arg, env)
        if isinstance(t, DualCyl):
            inner = inner ^ np.uint32(full)
        elif isinstance(t, SubstRepl):
            if t.i == t.j:
                return inner
            inner = inner & np.uint32(structure.diag_mask(t.i, t.j))
        if isinstance(inner, (int, np.integer)):
            inner = np.array([inner], dtype=np.uint32)
            scalar = True
        else:
            scalar = False
        if isinstance(t, SubstTransp):
            if t.i == t.j:
                out = inner
            else:
                out = seed_apply_tables(structure.transp_image_masks(t.i, t.j), inner, n)
        else:
            out = seed_apply_tables(structure.cyl_image_masks(t.i), inner, n)
        if isinstance(t, DualCyl):
            out = out ^ np.uint32(full)
        return int(out[0]) if scalar else out
    raise TypeError(f"unknown term node {t!r}")


def seed_check_equation(structure, lhs, rhs, mode=Exhaustive(), relation="eq"):
    """Check lhs = rhs (or lhs <= rhs) under the given assignment mode."""
    if relation not in ("eq", "leq"):
        raise ValueError(f"unknown relation {relation!r}")
    vs = sorted(variables(lhs) | variables(rhs))
    n = structure.natoms

    if isinstance(mode, Exhaustive):
        if len(vs) > 2:
            raise ValueError("exhaustive mode supports at most 2 variables")
        if n > 16:
            raise ValueError("exhaustive mode requires at most 2^16 elements per variable")
        return seed_check_exhaustive(structure, lhs, rhs, relation, vs)

    if isinstance(mode, AtomsMode):
        if n ** max(len(vs), 1) > 1 << 20:
            raise ValueError("atoms mode bound exceeded")
        count = 0
        for combo in _product_indices(n, len(vs)):
            env = {v: Element(structure, 1 << a) for v, a in zip(vs, combo)}
            count += 1
            lv = seed_eval_term(structure, lhs, env).mask
            rv = seed_eval_term(structure, rhs, env).mask
            if _violates(relation, lv, rv):
                return EquationReport(False, tuple(sorted(env.items())), count, "atoms", relation)
        return EquationReport(True, None, count, "atoms", relation)

    if isinstance(mode, Sample):
        rng = random.Random(mode.seed)
        for trial in range(mode.count):
            env = {v: Element(structure, rng.getrandbits(n)) for v in vs}
            lv = seed_eval_term(structure, lhs, env).mask
            rv = seed_eval_term(structure, rhs, env).mask
            if _violates(relation, lv, rv):
                return EquationReport(
                    False, tuple(sorted(env.items())), trial + 1, "sample", relation
                )
        return EquationReport(True, None, mode.count, "sample", relation)

    raise TypeError(f"unknown mode {mode!r}")


def seed_check_exhaustive(structure, lhs, rhs, relation, vs):
    n = structure.natoms
    total = 1 << n
    if not vs:
        lv = seed_eval_term(structure, lhs, {}).mask
        rv = seed_eval_term(structure, rhs, {}).mask
        bad = _violates(relation, lv, rv)
        return EquationReport(not bad, () if bad else None, 1, "exhaustive", relation)

    all_masks = np.arange(total, dtype=np.uint32)
    if len(vs) == 1:
        lv = seed_eval_vec(structure, lhs, {vs[0]: all_masks})
        rv = seed_eval_vec(structure, rhs, {vs[0]: all_masks})
        lv = np.broadcast_to(np.asarray(lv, dtype=np.uint32), (total,))
        rv = np.broadcast_to(np.asarray(rv, dtype=np.uint32), (total,))
        viol = (lv != rv) if relation == "eq" else (lv & ~rv & np.uint32(structure.full_mask)) != 0
        idx = np.nonzero(viol)[0]
        if idx.size:
            env = ((vs[0], Element(structure, int(idx[0]))),)
            return EquationReport(False, env, total, "exhaustive", relation)
        return EquationReport(True, None, total, "exhaustive", relation)

    # two variables: outer scalar loop, inner vectorized sweep
    full = np.uint32(structure.full_mask)
    for xmask in range(total):
        env = {vs[0]: xmask, vs[1]: all_masks}
        lv = seed_eval_vec(structure, lhs, env)
        rv = seed_eval_vec(structure, rhs, env)
        lv = np.broadcast_to(np.asarray(lv, dtype=np.uint32), (total,))
        rv = np.broadcast_to(np.asarray(rv, dtype=np.uint32), (total,))
        viol = (lv != rv) if relation == "eq" else (lv & ~rv & full) != 0
        idx = np.nonzero(viol)[0]
        if idx.size:
            env_out = (
                (vs[0], Element(structure, xmask)),
                (vs[1], Element(structure, int(idx[0]))),
            )
            return EquationReport(
                False, env_out, (xmask + 1) * total, "exhaustive", relation
            )
    return EquationReport(True, None, total * total, "exhaustive", relation)


def seed_compose_cols(outer, inner):
    """Column masks of the relational composite outer after inner.

    col[b] of the result is {a : exists c with a in outer-col[c], c in inner-col[b]}.
    """
    out = []
    for col_b in inner:
        acc = 0
        for c in _bits(col_b):
            acc |= outer[c]
        out.append(acc)
    return out


def seed_check_ca_frame(structure):
    n = structure.natoms
    dim = structure.dim
    conds = []

    for i in range(dim):
        rel = frozenset(column_pairs(structure.cyl[i]))
        refl = all((a, a) in rel for a in range(n))
        conds.append(FrameCondition(f"T{i}_reflexive", refl))
        sym = all((b, a) in rel for a, b in rel)
        conds.append(FrameCondition(f"T{i}_symmetric", sym))
        cols = structure.cyl_image_masks(i)
        trans = all(cols[a] & ~cols[b] == 0 for a, b in rel)
        conds.append(FrameCondition(f"T{i}_transitive", trans))

    for i in range(dim):
        for j in range(i + 1, dim):
            ij = seed_compose_cols(structure.cyl_image_masks(i), structure.cyl_image_masks(j))
            ji = seed_compose_cols(structure.cyl_image_masks(j), structure.cyl_image_masks(i))
            conds.append(FrameCondition(f"commute_T{i}_T{j}", ij == ji))

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
                image = 0
                cols = structure.cyl_image_masks(k)
                for b in _bits(meet):
                    image |= cols[b]
                ok = image == structure.diag_mask(i, j)
                conds.append(FrameCondition(f"diag_chain_E{i}{j}_via_{k}", ok))

    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            dm = structure.diag_mask(i, j)
            ok = True
            for a, b in column_pairs(structure.cyl[i]):
                if a != b and dm >> a & 1 and dm >> b & 1:
                    ok = False
                    break
            conds.append(FrameCondition(f"diag_unique_E{i}{j}_in_T{i}", ok))

    if structure.transp is not None:
        for i in range(dim):
            for j in range(i + 1, dim):
                rel = column_pairs(structure.transp_image_masks(i, j))
                img = dict(rel)
                inv = len(img) == n and all(img.get(img[a]) == a for a in img)
                conds.append(FrameCondition(f"P{i}{j}_involution", inv))
                swap = {i: j, j: i}
                pcols = structure.transp_image_masks(i, j)
                ok = True
                for k in range(dim):
                    lhs = seed_compose_cols(pcols, structure.cyl_image_masks(k))
                    rhs = seed_compose_cols(structure.cyl_image_masks(swap.get(k, k)), pcols)
                    if lhs != rhs:
                        ok = False
                        break
                conds.append(FrameCondition(f"P{i}{j}_cyl_compat", ok))
                ok = True
                for k in range(dim):
                    for l in range(dim):
                        image = 0
                        for b in _bits(structure.diag_mask(k, l)):
                            image |= pcols[b]
                        if image != structure.diag_mask(swap.get(k, k), swap.get(l, l)):
                            ok = False
                conds.append(FrameCondition(f"P{i}{j}_diag_compat", ok))

    return FrameReport(all(c.passed for c in conds), tuple(conds))


def seed_equivalence_defects(structure, i):
    """`bao.equivalence_defects` before the class test: the three scans,
    reading the pairs in column order (b ascending, then a)."""
    pairs = list(column_pairs(structure.cyl[i]))
    rel = frozenset(pairs)
    yield "reflexive", next(
        (f"T{i} not reflexive at {a}" for a in range(structure.natoms) if (a, a) not in rel),
        None,
    )
    yield "symmetric", next(
        (f"T{i} not symmetric at ({a},{b})" for a, b in pairs if (b, a) not in rel), None
    )
    cols = structure.cyl_image_masks(i)
    # transitivity: everything reaching a must reach b
    yield "transitive", next(
        (f"T{i} not transitive through ({a},{b})" for a, b in pairs if cols[a] & ~cols[b]),
        None,
    )


def seed_is_equivalence(structure, i):
    """`neat._is_equivalence` of the seed, reading the pairs in column order."""
    pairs = list(column_pairs(structure.cyl[i]))
    rel = frozenset(pairs)
    n = structure.natoms
    for a in range(n):
        if (a, a) not in rel:
            return f"T{i} not reflexive at {a}"
    for a, b in pairs:
        if (b, a) not in rel:
            return f"T{i} not symmetric at ({a},{b})"
    cols = structure.cyl_image_masks(i)
    for a, b in pairs:
        # transitivity: everything reaching a must reach b
        if cols[a] & ~cols[b] & structure.full_mask:
            return f"T{i} not transitive through ({a},{b})"
    return None


# ---------------------------------------------------------------------------
# fixtures


def _split12():
    """The 12-atom fixture of the benchmark's `equations` workload."""
    fs23 = full_set_algebra(2, 3)
    plain = dataclasses.replace(fs23, transp=None)
    return split_atom(plain, fs23.atoms.index("(0, 1)"), SplitPolicy(4)).structure


STRUCTURES = {
    "cs3": lambda: full_set_algebra(3, 2),
    "split12": _split12,
    "fs42": lambda: full_set_algebra(4, 2),
}


@pytest.fixture(scope="module", params=sorted(STRUCTURES))
def structure(request):
    return STRUCTURES[request.param]()


def _operators(structure):
    """(operator, its column table) for every cyl and transp operator."""
    out = [(structure.cyl_op(i), structure.cyl_image_masks(i)) for i in range(structure.dim)]
    if structure.transp is not None:
        for i in range(structure.dim):
            for j in range(i + 1, structure.dim):
                out.append((structure.transp_op(i, j), structure.transp_image_masks(i, j)))
    return out


# ---------------------------------------------------------------------------
# the operator


def test_operator_matches_the_bit_loop_on_every_mask(structure):
    n = structure.natoms
    every = np.arange(1 << n, dtype=np.uint32)
    for op, cols in _operators(structure):
        assert [op.apply(m) for m in range(1 << n)] == [
            seed_bit_loop(cols, m) for m in range(1 << n)
        ]
        got = op.apply_vec(every)
        assert got.dtype == np.uint32
        assert np.array_equal(got, seed_apply_tables(cols, every, n))


def _random_structure(n: int, seed: int, dim: int = 2) -> CaAtomStructure:
    """Arbitrary relations, off-diagonal sets and involutions on n atoms;
    at odd seeds the relations are made reflexive and symmetric."""
    rng = random.Random(seed)
    rels = [
        {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.2}
        for _ in range(dim)
    ]
    if seed % 2:
        rels = [rel | {(b, a) for a, b in rel} | {(a, a) for a in range(n)} for rel in rels]
    diag_sets = [
        [range(n) if i == j else rng.sample(range(n), n // 2) for j in range(dim)]
        for i in range(dim)
    ]
    transp = []
    for _ in range(dim * (dim - 1) // 2):
        atoms = list(range(n))
        rng.shuffle(atoms)
        pairs = list(zip(atoms[::2], atoms[1::2]))
        fixed = [(a, a) for a in atoms[len(pairs) * 2 :]]
        transp.append(pairs + [(b, a) for a, b in pairs] + fixed)
    return CaAtomStructure.build(
        dim=dim, atoms=[f"a{k}" for k in range(n)], cyl=rels, diag=diag_sets, transp=transp
    )


@pytest.mark.parametrize("n", [1, 7, 8, 9, 12, 15, 16, 17, 24, 27, 31, 32, 33, 40])
def test_operator_on_every_chunk_boundary(n):
    # one table of 2^n entries up to 16 atoms, on every mask; two of
    # ceil(n/2) bits up to 32, the high one partly filled at odd n, and the
    # bit loop above, on seeded masks
    s = _random_structure(n, n)
    rng = random.Random(n)
    if n <= 16:
        masks = list(range(1 << n))
    else:
        masks = [0, s.full_mask] + [rng.getrandbits(n) for _ in range(2000)]
    for op, cols in _operators(s):
        assert [op.apply(m) for m in masks] == [seed_bit_loop(cols, m) for m in masks]
        if n <= 32:
            arr = np.array(masks, dtype=np.uint32)
            assert op.apply_vec(arr).tolist() == [seed_bit_loop(cols, m) for m in masks]
            assert np.array_equal(op.apply_vec(arr), seed_apply_tables(cols, arr, n))
        else:
            with pytest.raises(ValueError):
                op.apply_vec(np.array(masks[:1], dtype=np.uint32))


def test_no_tables_above_32_atoms():
    s = monk_atoms(3, 3)  # 34 atoms
    rng = random.Random(0)
    for i in range(s.dim):
        op = s.cyl_op(i)
        for _ in range(50):
            m = rng.getrandbits(s.natoms)
            assert op.apply(m) == seed_bit_loop(s.cyl_image_masks(i), m)
        assert "_tables" not in vars(op)


def test_no_tables_for_columns_past_32_bits():
    # few columns onto more atoms, as when an atom is split: the bit loop
    rng = random.Random(1)
    cols = tuple(rng.getrandbits(40) | 1 << 39 for _ in range(27))
    op = AdditiveOperator(cols)
    for _ in range(50):
        m = rng.getrandbits(27)
        assert op.apply(m) == seed_bit_loop(cols, m)
    assert "_tables" not in vars(op)
    with pytest.raises(ValueError, match="at most 32 atoms in and out"):
        op.apply_vec(np.zeros(1, dtype=np.uint32))


def test_tables_are_built_on_first_use():
    s = full_set_algebra(3, 2)
    op = s.cyl_op(0)
    assert "_tables" not in vars(op)
    op.apply(5)
    assert vars(op)["_tables"].shape == (1, 256)  # 8 atoms: one table of 2^8 images
    assert s.cyl_op(0) is op


@pytest.mark.parametrize("n", [1, 2, 8, 9, 15, 16, 17, 18, 24, 27, 31, 32])
def test_table_shapes(n):
    # one table of 2^n entries up to 16 atoms, two of 2^ceil(n/2) up to 32
    op = _random_structure(n, n).cyl_op(0)
    want = (1, 1 << n) if n <= 16 else (2, 1 << -(-n // 2))
    assert op._tables.shape == want
    assert op._tables.dtype == np.uint32
    assert op._tables.nbytes <= (256 if n <= 16 else 512) * 1024


# ---------------------------------------------------------------------------
# the one evaluator


def _battery(structure):
    eqs = list(ca_axioms(structure.dim))
    if structure.transp is not None:
        eqs += pea_axioms(structure.dim)
    return [side for e in eqs for side in (e.lhs, e.rhs)]


def _sides(name, structure):
    """C1-C7 and PEA sides, or on fs42 the swap and composition witnesses."""
    if name == "fs42":
        return [swap01_spare(), swap01_lowdim(), relcomp01_spare(), relcomp01_lowdim()]
    return _battery(structure)


def _as_array(v, total):
    return np.broadcast_to(np.asarray(v, dtype=np.uint32), (total,))


@pytest.mark.parametrize("name", ["cs3", "split12", "fs42"])
def test_evaluator_matches_the_seed_evaluators(name):
    structure = STRUCTURES[name]()
    n = structure.natoms
    total = 1 << n
    every = np.arange(total, dtype=np.uint32)
    rng = random.Random(1)
    outer = [0, structure.full_mask, rng.getrandbits(n), rng.getrandbits(n)]
    pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(20)]
    for t in _sides(name, structure):
        vs = sorted(variables(t))
        inner = vs[-1] if vs else 1
        # the full inner array at several outer masks
        for x in outer:
            env = {inner: every} if len(vs) < 2 else {vs[0]: x, inner: every}
            got = _eval_masks(structure, t, env)
            want = seed_eval_vec(structure, t, env)
            assert np.array_equal(_as_array(got, total), _as_array(want, total)), t
        # scalar pairs, as masks and as Elements
        for x, y in pairs:
            masks = {0: x, 1: y}
            got = _eval_masks(structure, t, masks)
            assert isinstance(got, int)
            assert got == int(seed_eval_vec(structure, t, masks)), t
            env = {k: Element(structure, m) for k, m in masks.items()}
            assert eval_term(structure, t, env) == seed_eval_term(structure, t, env), t


def test_evaluator_covers_every_node_kind():
    s = full_set_algebra(3, 2)
    x, y = Var(0), Var(1)
    terms = [
        Join(DualCyl(1, x), Complement(y)),
        SubstRepl(2, 2, Cyl(0, x)),
        SubstTransp(1, 1, Meet(x, One())),
        SubstTransp(2, 0, Join(x, Diag(0, 2))),
        SwapMacro(2, 0, 1, Meet(x, Cyl(2, y))),
        Meet(Zero(), x),
    ]
    every = np.arange(1 << s.natoms, dtype=np.uint32)
    for t in terms:
        for x_mask in (0, 0b10110101, s.full_mask):
            env = {0: x_mask, 1: every}
            got = _as_array(_eval_masks(s, t, env), every.size)
            assert np.array_equal(got, _as_array(seed_eval_vec(s, t, env), every.size)), t
            scalar = {0: x_mask, 1: 0b01100011}
            assert _eval_masks(s, t, scalar) == int(seed_eval_vec(s, t, scalar)), t


def _every_kind():
    """One term holding every node kind, valid in dimension 3."""
    x, y = Var(0), Var(1)
    return Join(
        Meet(DualCyl(1, x), Complement(SubstTransp(2, 0, Join(y, Diag(0, 2))))),
        Meet(
            SubstRepl(2, 1, Cyl(0, x)),
            SwapMacro(2, 0, 1, Join(Meet(x, One()), Meet(Zero(), Cyl(2, y)))),
        ),
    )


def test_kept_lowering_follows_the_structure():
    # one term object, evaluated alternately in two structures of dimension 3
    t = _every_kind()
    rng = random.Random(3)
    structures = [full_set_algebra(3, 2), three_cube()]
    for _ in range(3):
        for s in structures:
            for _ in range(4):
                masks = {0: rng.getrandbits(s.natoms), 1: rng.getrandbits(s.natoms)}
                env = {k: Element(s, m) for k, m in masks.items()}
                got = eval_term(s, t, env)
                assert got == seed_eval_term(s, t, env)
                assert got.mask == int(seed_eval_vec(s, t, masks))


def test_kept_lowering_is_outside_equality_hash_repr_and_fields():
    t, twin = _every_kind(), _every_kind()
    before = (hash(t), repr(t), dataclasses.fields(t))
    s = full_set_algebra(3, 2)
    eval_term(s, t, {0: Element(s, 5), 1: Element(s, 9)})
    assert "_lowered" in vars(t) and "_lowered" not in vars(twin)
    assert t == twin and twin == t
    assert (hash(t), repr(t), dataclasses.fields(t)) == before
    assert hash(t) == hash(twin) and repr(t) == repr(twin)
    assert len({t, twin}) == 1
    # a pickled or copied term leaves the lowering behind
    for other in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert other == t and "_lowered" not in vars(other)


@pytest.mark.parametrize(
    "t",
    [
        Cyl(3, Var(0)),
        DualCyl(3, Var(0)),
        Meet(Var(0), Diag(0, 3)),
        SubstRepl(3, 0, Var(0)),
        SubstTransp(0, 3, Var(0)),
        SwapMacro(3, 0, 1, Var(0)),
    ],
)
def test_out_of_range_index_raises_the_same_text_on_every_call(t):
    s = full_set_algebra(3, 2)
    env = {0: Element(s, 3)}
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            eval_term(s, t, env)
        assert str(exc.value) == "index 3 out of range for dimension 3"
    # a lowering kept for a structure where the index is in range is not reused
    big = full_set_algebra(4, 2)
    eval_term(big, t, {0: Element(big, 3)})
    with pytest.raises(ValueError, match="^index 3 out of range for dimension 3$"):
        eval_term(s, t, env)


def test_unbound_variable_raises_value_error_after_a_bound_call():
    s = full_set_algebra(3, 2)
    t = Meet(Cyl(0, Var(0)), Var(1))
    with pytest.raises(ValueError, match="^unbound variable 1$"):
        eval_term(s, t, {0: Element(s, 1)})
    env = {0: Element(s, 6), 1: Element(s, 7)}
    assert eval_term(s, t, env) == seed_eval_term(s, t, env)
    for bound in ({0: Element(s, 1)}, {}):
        with pytest.raises(ValueError, match="^unbound variable") as exc:
            eval_term(s, t, bound)
        assert not isinstance(exc.value, KeyError)
    with pytest.raises(ValueError, match="^unbound variable 1$"):
        _eval_masks(s, t, {0: 1})


def test_eval_term_checks_every_element_read_or_not():
    s, other = full_set_algebra(3, 2), three_cube()
    t = Cyl(0, Var(0))
    env = {0: Element(s, 5)}
    assert eval_term(s, t, env) == seed_eval_term(s, t, env)
    # variable 1 is not read by t, and its element is still checked
    with pytest.raises(ValueError, match="^environment element belongs to a different structure$"):
        eval_term(s, t, {0: Element(s, 5), 1: Element(other, 1)})
    with pytest.raises(ValueError, match="^environment element belongs to a different structure$"):
        eval_term(s, t, {0: Element(other, 5)})


def test_eval_term_raises_on_a_missing_variable():
    s = full_set_algebra(3, 2)
    t = Meet(Var(0), Cyl(1, Var(2)))
    for env in ({}, {0: Element(s, 3)}, {2: Element(s, 3)}, {1: Element(s, 3)}):
        with pytest.raises(ValueError, match="^unbound variable [02]$") as exc:
            eval_term(s, t, env)
        assert not isinstance(exc.value, KeyError)
    env = {0: Element(s, 3), 2: Element(s, 6)}
    assert eval_term(s, t, env) == seed_eval_term(s, t, env)


# ---------------------------------------------------------------------------
# check_equation


def _criterion_1_fixtures():
    tc = three_cube()
    return {
        "full-set-3-over-2": full_set_algebra(3, 2),
        "cube-below-diag01": rl_x(tc, diag(tc, 0, 1)).structure,
        "cube-constant-triples": rl_x(tc, element(tc, [0, 13, 26])).structure,
        "violator-nontransitive": _violator_nontransitive(),
        "violator-diagonal": _violator_diagonal(),
    }


@pytest.mark.parametrize("name", sorted(_criterion_1_fixtures()))
def test_check_equation_matches_the_seed_on_criterion_1_fixtures(name):
    s = _criterion_1_fixtures()[name]
    eqs = list(ca_axioms(s.dim))
    if s.transp is not None:
        eqs += pea_axioms(s.dim)
    # both directions of every equation as inequalities too, so that the
    # leq path and sides that hold one way only are compared
    cases = [(e.lhs, e.rhs, e.relation) for e in eqs]
    cases += [(e.rhs, e.lhs, "leq") for e in eqs] + [(e.lhs, e.rhs, "leq") for e in eqs]
    failures = 0
    for mode in (Exhaustive(), AtomsMode(), Sample(seed=5, count=40)):
        for lhs, rhs, relation in cases:
            got = check_equation(s, lhs, rhs, mode, relation)
            assert got == seed_check_equation(s, lhs, rhs, mode, relation), (lhs, rhs, mode)
            failures += not got.holds
    if name.startswith("violator"):
        assert failures


# ---------------------------------------------------------------------------
# term programs: every operator form, the source text, compile counts


# name: (structure, table rows per operator; 0 for the bit loop above 32 atoms)
FORMS = {
    "cs3": (lambda: full_set_algebra(3, 2), 1),
    "fs42": (lambda: full_set_algebra(4, 2), 1),
    "cube": (three_cube, 2),
    "monk_atoms(3,3)": (lambda: monk_atoms(3, 3), 0),
}


def _source(structure, sides, arrays=(), outer=None, elements=False):
    return _Emitter(structure, arrays, outer, elements).source(sides)


@functools.cache
def _form(name):
    make, rows = FORMS[name]
    return make(), rows


def _form_sides(s):
    """C1-C7 (+PEA) sides, plus every node kind in dimension 3 with
    transpositions, or the spare witnesses in dimension 4."""
    sides = _battery(s)
    if s.dim == 4:
        sides += _sides("fs42", s)
    elif s.transp is not None:
        sides.append(_every_kind())
    return sides


@pytest.mark.parametrize("name", sorted(FORMS))
def test_programs_pick_the_operator_form_when_emitted(name):
    s, rows = _form(name)
    scalar = _source(s, (Cyl(0, Var(0)),))
    want = {
        0: r"a\d+\(x0\)",
        1: r"r\d+\[x0\]",
        2: r"r\d+\[x0 & 16383\] \| r\d+\[x0 >> 14\]",  # 27 atoms: two 14-bit chunks
    }[rows]
    assert re.search(rf"\n    t0 = {want}\n", scalar), scalar
    vector = _source(s, (Cyl(0, Var(0)),), arrays=(0,))
    assert re.search(r"\n    t0 = v\d+\(x0\)\n", vector), vector


@pytest.mark.parametrize("name", sorted(FORMS))
def test_programs_match_the_seed_evaluators_in_every_operator_form(name):
    s, rows = _form(name)
    n = s.natoms
    rng = random.Random(n)
    pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(12)]
    masks = [[rng.getrandbits(n) for _ in range(64)] for _ in range(2)]
    for t in _form_sides(s):
        for x, y in pairs:
            env = {0: Element(s, x), 1: Element(s, y)}
            want = seed_eval_term(s, t, env)
            assert eval_term(s, t, env) == want, t
            assert _eval_masks(s, t, {0: x, 1: y}) == want.mask, t
        if rows:  # arrays need tables
            xs, ys = (np.array(m, dtype=np.uint32) for m in masks)
            for env in ({0: pairs[0][0], 1: ys}, {0: xs, 1: ys}):
                got = _as_array(_eval_masks(s, t, env), 64)
                assert np.array_equal(got, _as_array(seed_eval_vec(s, t, env), 64)), t


@pytest.mark.parametrize("name", ["cube", "monk_atoms(3,3)"])
def test_check_equation_matches_the_seed_in_every_operator_form(name):
    s, _ = _form(name)
    eqs = list(ca_axioms(s.dim))
    if s.transp is not None:
        eqs += pea_axioms(s.dim)
    cases = [(e.lhs, e.rhs, e.relation) for e in eqs] + [(e.rhs, e.lhs, "leq") for e in eqs]
    failures = 0
    for mode in (AtomsMode(), Sample(seed=3, count=25)):
        for lhs, rhs, relation in cases:
            got = check_equation(s, lhs, rhs, mode, relation)
            assert got == seed_check_equation(s, lhs, rhs, mode, relation), (lhs, rhs, mode)
            failures += not got.holds
    assert failures  # the reversed inequalities fail, so counterexamples are compared


# Pasted into the source as `env[{k}]`, this key would run its call.
_PAYLOAD = "0] if __import__('builtins').__setattr__('cylkit_injected', 1) else env[0"


class _Loud(int):
    """An int whose text is the payload, wherever it is printed."""

    def __repr__(self):
        return _PAYLOAD

    __str__ = __repr__

    def __format__(self, spec):
        return _PAYLOAD


def _loud(t):
    """t with every index and variable key a `_Loud` of the same value."""
    if isinstance(t, (Zero, One)):
        return t
    fields = {
        f.name: _loud(v) if isinstance(v, Term) else _Loud(v)
        for f in dataclasses.fields(t)
        for v in [getattr(t, f.name)]
    }
    return type(t)(**fields)


_ALLOWED_NAMES = {
    "def", "try", "except", "raise", "from", "None", "for", "in", "yield", "return",
    "ValueError", "KeyError", "_program", "env", "outer_masks", "mask",
}  # fmt: skip
# the literals a program may hold: 0, and a chunk width w of a two-table
# operator (9 to 16 bits) with its low mask 2^w - 1
_ALLOWED_NUMBERS = {0} | {w for w in range(9, 17)} | {(1 << w) - 1 for w in range(9, 17)}


def _assert_generated_only(source):
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in _ALLOWED_NAMES or re.fullmatch(r"[a-z]\d+", tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert int(tok.string) in _ALLOWED_NUMBERS, tok
        else:
            assert tok.type not in (tokenize.STRING, tokenize.COMMENT), tok


def test_term_fields_never_reach_the_source():
    s = full_set_algebra(3, 2)
    x, y = Var(_PAYLOAD), Var(1)
    # cs3 has one table per operator, the cube two
    for structure in (s, _form("cube")[0]):
        loud = [_loud(t) for t in _form_sides(structure)]
        for t in _form_sides(structure) + loud + [Meet(x, Cyl(2, y)), Var("0]; import os")]:
            for arrays, outer in (((), None), ((1,), None), ((1,), 0)):
                _assert_generated_only(_source(structure, (t, Complement(t)), arrays, outer))
            _assert_generated_only(_source(structure, (t,), elements=True))
    loud = [_loud(t) for t in _form_sides(s)]
    # the loud terms evaluate as their plain twins do
    rng = random.Random(0)
    for plain, t in zip(_form_sides(s), loud):
        env = {0: Element(s, rng.getrandbits(8)), 1: Element(s, rng.getrandbits(8))}
        assert eval_term(s, t, env) == seed_eval_term(s, plain, env), plain
    for k in ("0]; import os", _PAYLOAD):
        with pytest.raises(ValueError) as exc:
            eval_term(s, Meet(Var(k), One()), {0: Element(s, 1)})
        assert str(exc.value) == f"unbound variable {k}"
        assert check_equation(s, Var(k), Cyl(0, Var(k)), AtomsMode(), "leq").holds
    eq = ca_axioms(3)[2]
    assert check_equation(s, _loud(eq.lhs), _loud(eq.rhs)) == check_equation(s, eq.lhs, eq.rhs)
    assert not hasattr(builtins, "cylkit_injected")


@pytest.mark.parametrize(
    "t, text",
    [
        (Cyl("0", Var(0)), "'<=' not supported between instances of 'int' and 'str'"),
        (Cyl(1.0, Var(0)), "tuple indices must be integers or slices, not float"),
        (Diag("a", 0), "'<=' not supported between instances of 'int' and 'str'"),
    ],
)
def test_ill_typed_fields_raise_the_same_type_error(t, text):
    s = full_set_algebra(3, 2)
    calls = [
        lambda: eval_term(s, t, {0: Element(s, 3)}),
        lambda: _eval_masks(s, t, {0: np.arange(4, dtype=np.uint32)}),
    ]
    calls += [lambda m=m: check_equation(s, t, Var(0), m) for m in (Exhaustive(), AtomsMode())]
    for call in calls:
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == text


@pytest.fixture
def compiles(monkeypatch):
    """The (structure, sides) of every term program compiled."""
    calls = []
    compile_program = terms_module._compile

    def counted(structure, sides, *args, **kwargs):
        calls.append((structure, tuple(sides)))
        return compile_program(structure, sides, *args, **kwargs)

    monkeypatch.setattr(terms_module, "_compile", counted)
    return calls


def test_eval_term_compiles_once_per_term_and_structure(compiles):
    a, b = full_set_algebra(3, 2), three_cube()
    t, twin = _every_kind(), _every_kind()
    rng = random.Random(2)
    for s in (a, b):
        for term in (t, twin):
            for _ in range(3):
                env = {0: Element(s, rng.getrandbits(s.natoms)), 1: Element(s, 0)}
                assert eval_term(s, term, env) == seed_eval_term(s, term, env)
    # one compile per (node, structure): equal nodes keep their own programs
    assert [(s, sides[0] is t) for s, sides in compiles] == [(a, True), (a, False), (b, True), (b, False)]


@pytest.mark.parametrize(
    "mode", [Exhaustive(), AtomsMode(), Sample(seed=1, count=0), Sample(seed=1, count=300)]
)
def test_check_equation_compiles_once_per_call(compiles, mode):
    s = full_set_algebra(3, 2)
    x, y = Var(0), Var(1)
    cases = [
        (Cyl(0, Zero()), Zero(), "eq"),  # no variable
        (x, Cyl(0, x), "leq"),  # one
        (Cyl(0, Meet(x, Cyl(0, y))), Meet(Cyl(0, x), Cyl(0, y)), "eq"),  # two, holds
        (Cyl(0, Meet(x, y)), Meet(Cyl(0, x), Cyl(0, y)), "eq"),  # two, fails
    ]
    for k, (lhs, rhs, relation) in enumerate(cases, 1):
        check_equation(s, lhs, rhs, mode, relation)
        assert len(compiles) == k
        assert compiles[-1] == (s, (lhs, rhs))


# ---------------------------------------------------------------------------
# frame conditions and the equivalence check of nr


def _with_cyl(base, i, rel):
    """base with T_i replaced by the relation of the pairs in rel."""
    cols = [0] * base.natoms
    for a, b in rel:
        cols[b] |= 1 << a
    cyl = list(base.cyl)
    cyl[i] = tuple(cols)
    return dataclasses.replace(base, cyl=tuple(cyl))


def _irreflexive_atom():
    """T_0 of full_set_algebra(2,3) without atom 0: symmetric and
    transitive, not reflexive."""
    base = full_set_algebra(2, 3)
    return _with_cyl(base, 0, {(a, b) for a, b in column_pairs(base.cyl[0]) if 0 not in (a, b)})


def _preorder():
    """T_0 of full_set_algebra(2,3) the identity and the one pair
    ((1, 1), (0, 0)): reflexive and transitive, not symmetric.  Its only
    pair inside E_01 shows in the column of (0, 0), E_01's first atom."""
    base = full_set_algebra(2, 3)
    arrow = (base.atoms.index("(1, 1)"), base.atoms.index("(0, 0)"))
    return _with_cyl(base, 0, {(a, a) for a in range(base.natoms)} | {arrow})


def _path():
    """T_0 of monk_atoms(3,3) the path a - a+1 with loops on its 34 atoms:
    reflexive and symmetric, not transitive."""
    base = monk_atoms(3, 3)
    n = base.natoms
    return _with_cyl(base, 0, {(a, b) for a in range(n) for b in range(n) if abs(a - b) <= 1})


def _shifted_classes():
    """Column b of T_0 is the next T_0-class after b's: the columns are
    pairwise equal or disjoint, but T_0 is not reflexive."""
    base = full_set_algebra(2, 3)
    cols = base.cyl_image_masks(0)
    classes = list(dict.fromkeys(cols))
    shifted = [classes[(classes.index(col) + 1) % len(classes)] for col in cols]
    return _with_cyl(base, 0, {(a, b) for b, col in enumerate(shifted) for a in _bits(col)})


def _diag_shared_in_class():
    """E_01 of full_set_algebra(2,3) with a second atom of the T_0-class
    {(0, 0), (1, 0), (2, 0)} of its atom (0, 0)."""
    base = full_set_algebra(2, 3)
    extra = base.atoms.index("(1, 0)")
    diag_sets = [list(row) for row in base.diag]
    diag_sets[0][1] = base.diag[0][1] | {extra}
    return dataclasses.replace(base, diag=tuple(tuple(row) for row in diag_sets))


@functools.cache
def _frame_fixtures():
    cs3 = full_set_algebra(3, 2)
    cube = three_cube()
    return {
        "cs3": cs3,
        "cube": cube,
        "fs42": full_set_algebra(4, 2),
        "split12": _split12(),
        "johnson_extend(monk_atoms(3,3))": johnson_extend(monk_atoms(3, 3)),
        "monk_atoms(3,4)": monk_atoms(3, 4),
        "monk_atoms(3,5)": monk_atoms(3, 5),
        "drop_cyl_pair(cs3,0,0,4)": drop_cyl_pair(cs3, 0, 0, 4),
        "drop_cyl_pair(cube,2,0,1)": drop_cyl_pair(cube, 2, 0, 1),
        "violator-nontransitive": _violator_nontransitive(),
        "violator-diagonal": _violator_diagonal(),
        "T0-not-reflexive": _irreflexive_atom(),
        "T0-preorder": _preorder(),
        "T0-path-34": _path(),
        "T0-shifted-classes": _shifted_classes(),
        "E01-shared-in-class": _diag_shared_in_class(),
        **{f"random-{n}-{seed}": _random_structure(n, seed, 3) for n in (3, 9, 34) for seed in (0, 1)},
    }


@pytest.mark.parametrize("name", sorted(_frame_fixtures()))
def test_frame_check_and_equivalence_match_the_seed(name):
    s = _frame_fixtures()[name]
    assert check_ca_frame(s) == seed_check_ca_frame(s)
    for i in range(s.dim):
        assert list(equivalence_defects(s, i)) == list(seed_equivalence_defects(s, i))
        why = seed_is_equivalence(s, i)
        gamma = [k for k in range(s.dim) if k != i]
        if why is None:
            nr(s, gamma)  # accepted
        else:
            with pytest.raises(ValueError) as err:
                nr(s, gamma)
            assert str(err.value) == f"dropped relation is not an equivalence: {why}"


@pytest.mark.parametrize(
    "name, broken",
    [
        ("T0-not-reflexive", {"reflexive"}),
        ("T0-preorder", {"symmetric"}),
        ("T0-path-34", {"transitive"}),
        ("T0-shifted-classes", {"reflexive", "symmetric", "transitive"}),
    ],
)
def test_equivalence_fixtures_fail_the_class_test_as_built(name, broken):
    s = _frame_fixtures()[name]
    assert {prop for prop, why in seed_equivalence_defects(s, 0) if why} == broken


def test_diag_unique_fixture_fails_inside_a_class_of_three():
    s = _frame_fixtures()["E01-shared-in-class"]
    assert not any(why for _, why in seed_equivalence_defects(s, 0))
    assert len(list(_bits(s.cyl_image_masks(0)[s.atoms.index("(0, 0)")]))) == 3
    assert not seed_check_ca_frame(s).condition("diag_unique_E01_in_T0").passed


@pytest.mark.parametrize("name", sorted(_frame_fixtures()))
def test_after_applies_the_outer_operator_to_every_column(name):
    # the random fixtures carry arbitrary relations and involutions
    ops = [op for op, _ in _operators(_frame_fixtures()[name])]
    for outer in ops:
        for inner in ops:
            assert outer.after(inner) == tuple(map(outer.apply, inner.cols))


def test_frame_check_applies_once_per_distinct_column(monkeypatch):
    s = monk_atoms(3, 4)
    calls = 0
    apply = AdditiveOperator.apply

    def counted(self, mask):
        nonlocal calls
        calls += 1
        return apply(self, mask)

    monkeypatch.setattr(AdditiveOperator, "apply", counted)
    assert check_ca_frame(s).passed
    distinct = sum(len(set(s.cyl_image_masks(i))) for i in range(s.dim))
    # two compositions per pair of indices, one diagonal chain per (i, j, k)
    bound = (s.dim - 1) * distinct + s.dim**3
    assert bound == 57
    assert calls <= bound


@pytest.mark.parametrize(
    "name, prop, text",
    [
        # the one pair outside the diagonal, ((1, 1), (0, 0)) = (4, 0)
        ("T0-preorder", "symmetric", "T0 not symmetric at (4,0)"),
        # column 0 is {0, 1}; column 1 is {0, 1, 2}, so (1, 0) comes first
        ("T0-path-34", "transitive", "T0 not transitive through (1,0)"),
    ],
)
def test_first_violation_is_named_in_column_order(name, prop, text):
    s = _frame_fixtures()[name]
    assert dict(equivalence_defects(s, 0))[prop] == text
    with pytest.raises(ValueError) as err:
        nr(s, [1])
    assert str(err.value) == f"dropped relation is not an equivalence: {text}"

"""The twelve-point verification battery over frozen fixtures.

Each criterion builds its fixtures from scratch, runs its checks at the
stated tolerance (exact unless noted), and reports one pass/fail line
with a deterministic detail string; `format_table` output is
byte-identical across runs on the same build.  The battery is shared by
the CLI `suite` verb and the acceptance test module, which asserts each
criterion individually.
"""

from __future__ import annotations

import ast
import itertools
import json
import random
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bao import (
    CaAtomStructure,
    Element,
    check_ca_frame,
    cyl,
    diag,
    element,
)
from .constructions import (
    SplitPolicy,
    basic_matrices,
    bin_forb,
    full_set_algebra,
    hh_ra,
    johnson_extend,
    kappa,
    monk_atoms,
    psi,
    split_atom,
    three_cube,
)
from .games import (
    VARIANT_FRESH,
    VARIANT_REUSE,
    EXISTS,
    FORALL,
    GameSpec,
    drop_cyl_pair,
    solve,
)
from .hyper import enumerate_hypernetworks, is_hyperbasis
from .neat import cyl_fixed_masks, ra_reduct, restriction_iso, rl_x
from .ra import RaAtomStructure, check_ra_axioms
from .terms import (
    Exhaustive,
    _eval_masks,
    ca_axioms,
    check_equation,
    eval_term,
    pea_axioms,
    relcomp01_lowdim,
    relcomp01_spare,
    swap01_lowdim,
    swap01_spare,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


def _bool(v: bool) -> str:
    return "yes" if v else "no"


# ---------------------------------------------------------------------------
# criterion 1: frame conditions agree with equational checking


def _violator_nontransitive() -> CaAtomStructure:
    """T_0 misses one composite pair, so repeated application grows."""
    full = [(a, b) for a in range(3) for b in range(3)]
    return CaAtomStructure.build(
        dim=3,
        atoms=["a", "b", "c"],
        cyl=[
            [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)],
            full,
            full,
        ],
        diag=[[[0, 1, 2]] * 3] * 3,
    )


def _violator_diagonal() -> CaAtomStructure:
    """E_01 too small for the composition of E_02 and E_12."""
    full = [(a, b) for a in range(2) for b in range(2)]
    return CaAtomStructure.build(
        dim=3,
        atoms=["a", "b"],
        cyl=[full] * 3,
        diag=[
            [[0, 1], [0], [0, 1]],
            [[0], [0, 1], [0, 1]],
            [[0, 1], [0, 1], [0, 1]],
        ],
    )


def criterion_01() -> CriterionResult:
    tc = three_cube()
    fixtures = {
        "full-set-3-over-2": full_set_algebra(3, 2),
        "cube-below-diag01": rl_x(tc, diag(tc, 0, 1)).structure,
        "cube-constant-triples": rl_x(tc, element(tc, [0, 13, 26])).structure,
        "violator-nontransitive": _violator_nontransitive(),
        "violator-diagonal": _violator_diagonal(),
    }
    lines = []
    all_agree = True
    for name, s in sorted(fixtures.items()):
        if s.natoms > 12:
            raise AssertionError(f"fixture {name} exceeds the 12-atom bound")
        frame = check_ca_frame(s).passed
        eqs = list(ca_axioms(s.dim))
        if s.transp is not None:
            eqs += list(pea_axioms(s.dim))
        eq_ok = all(
            check_equation(s, e.lhs, e.rhs, Exhaustive(), e.relation).holds
            for e in eqs
        )
        agree = frame == eq_ok
        all_agree = all_agree and agree
        lines.append(f"{name}: frame={_bool(frame)} equations={_bool(eq_ok)}")
    return CriterionResult(
        1,
        "frame conditions equivalent to exhaustive equational checking",
        all_agree,
        "; ".join(lines),
    )


# ---------------------------------------------------------------------------
# criterion 2: the 34-atom coloured-partition structure


def _monk_oracle_33() -> set:
    """Independent enumeration: label each element pair of {0,1,2} either
    'same block' or one of three colours, then filter by transitivity,
    colour constancy, and the no-monochromatic-triangle rule."""
    ncolours = 3
    pairs = [(0, 1), (0, 2), (1, 2)]
    valid = set()
    for combo in itertools.product(range(ncolours + 1), repeat=len(pairs)):
        same = {p for p, v in zip(pairs, combo) if v == ncolours}
        rel = {(a, a) for a in range(3)}
        rel |= same | {(b, a) for a, b in same}
        if not all(
            (a, c) in rel for a, b in rel for b2, c in rel if b == b2
        ):
            continue
        seen: set[int] = set()
        blocks = []
        for a in range(3):
            if a in seen:
                continue
            blk = tuple(sorted(b for b in range(3) if (a, b) in rel))
            seen.update(blk)
            blocks.append(blk)
        blocks_t = tuple(sorted(blocks))
        cls = {e: i for i, blk in enumerate(blocks_t) for e in blk}
        colour = {p: v for p, v in zip(pairs, combo) if v < ncolours}
        bp_colour: dict = {}
        constant = True
        for (a, b), c in colour.items():
            key = (min(cls[a], cls[b]), max(cls[a], cls[b]))
            if bp_colour.setdefault(key, c) != c:
                constant = False
        if not constant:
            continue
        if len(blocks_t) == 3 and len(set(bp_colour.values())) == 1:
            continue
        fitems = tuple(
            sorted(
                ((a, b), bp_colour[(min(cls[a], cls[b]), max(cls[a], cls[b]))])
                for a, b in pairs
                if cls[a] != cls[b]
            )
        )
        valid.add((blocks_t, fitems))
    return valid


def criterion_02() -> CriterionResult:
    start = time.perf_counter()
    mk = monk_atoms(3, 3)
    oracle = _monk_oracle_33()
    built = {ast.literal_eval(label) for label in mk.atoms}
    count_ok = mk.natoms == 34 and len(oracle) == 34
    labels_ok = oracle == built
    frame_ok = check_ca_frame(mk).passed
    jj = johnson_extend(mk)
    involution_ok = all(perm[b] == a for perm in jj.transp for a, b in enumerate(perm))
    elapsed = time.perf_counter() - start
    within = elapsed < 1.0
    passed = count_ok and labels_ok and frame_ok and involution_ok and within
    return CriterionResult(
        2,
        "coloured-partition structure: 34 atoms, frame laws, index-swap involution",
        passed,
        f"count=34 vs oracle: {_bool(count_ok)}; labels match oracle: "
        f"{_bool(labels_ok)}; frame: {_bool(frame_ok)}; involution: "
        f"{_bool(involution_ok)}; within 1s: {_bool(within)}",
    )


# ---------------------------------------------------------------------------
# criterion 3: graded relation-algebra soundness


def criterion_03() -> CriterionResult:
    start = time.perf_counter()
    ra = hh_ra(3, 2, 3)
    atoms_ok = ra.natoms == 13
    report = check_ra_axioms(ra)
    assoc = next(
        (law.passed for law in report.laws if law.name == "associativity"), False
    )
    # independent Peircean closure check: spell out the six transforms
    cv = ra.converse
    closed = True
    for (a, b, c) in ra.forbidden:
        orbit = {
            (a, b, c),
            (cv[a], cv[c], cv[b]),
            (b, a, cv[c]),
            (cv[b], c, cv[a]),
            (c, cv[b], a),
            (cv[c], cv[a], b),
        }
        if not orbit <= ra.forbidden:
            closed = False
            break
    elapsed = time.perf_counter() - start
    within = elapsed < 5.0
    passed = atoms_ok and report.passed and assoc and closed and within
    return CriterionResult(
        3,
        "graded relation algebra: 13 atoms, all laws incl. associativity, closure",
        passed,
        f"atoms=13: {_bool(atoms_ok)}; laws: {_bool(report.passed)}; "
        f"associativity: {_bool(assoc)}; independent closure: {_bool(closed)}; "
        f"within 5s: {_bool(within)}",
    )


# ---------------------------------------------------------------------------
# criterion 4: tower recursion values


def criterion_04() -> CriterionResult:
    base_ok = all(kappa(x, 0) == 0 for x in range(101))
    vals_ok = psi(2, 1) == 2 and psi(3, 1) == 4 and psi(3, 2) == 86
    unrolled = 1 + 2 * (1 + 2 * 0)  # kappa(2, 2) by hand
    hand_ok = kappa(2, 2) == unrolled and isinstance(psi(3, 2), int)
    passed = base_ok and vals_ok and hand_ok
    return CriterionResult(
        4,
        "tower recursion matches hand-unrolled values, exact integers",
        passed,
        f"kappa(x,0)=0 for x<=100: {_bool(base_ok)}; psi(2,1)=2, psi(3,1)=4, "
        f"psi(3,2)=86: {_bool(vals_ok)}; hand unroll: {_bool(hand_ok)}",
    )


# ---------------------------------------------------------------------------
# criterion 5: basic-matrix structure satisfies every frame condition


def criterion_05() -> CriterionResult:
    fm = basic_matrices(3, bin_forb(3, 1, 2))
    report = check_ca_frame(fm)
    commute = [c for c in report.conditions if "commute" in c.name]
    commute_ok = bool(commute) and all(c.passed for c in commute)
    passed = fm.natoms == 61 and report.passed and commute_ok
    return CriterionResult(
        5,
        "61 basic matrices form a frame, cylindrifier commutativity included",
        passed,
        f"atoms=61: {_bool(fm.natoms == 61)}; frame: {_bool(report.passed)}; "
        f"commutativity conditions ({len(commute)}): {_bool(commute_ok)}",
    )


# ---------------------------------------------------------------------------
# criterion 6: restriction map onto the retained-index quotient


def criterion_06() -> CriterionResult:
    report = restriction_iso(3, 4, bin_forb(3, 1, 2))
    return CriterionResult(
        6,
        "matrix restriction is a bijective operator-preserving map onto the quotient",
        report.passed,
        f"passed: {_bool(report.passed)}; certificate: {report.certificate_level}; "
        f"mapping total: {_bool(report.mapping is not None)}",
    )


# ---------------------------------------------------------------------------
# criterion 7: spare-routed terms below their low-dimensional bounds on the
# neat 3-reduct, and refuted off it


def criterion_07() -> CriterionResult:
    # The spare index 3 routes the swap and the composition exactly only on
    # Nr_3 = {x : c_3 x = x}; off it the unrestricted sweep must find a
    # counterexample, and that counterexample must depend on index 3.
    start = time.perf_counter()
    cs4 = full_set_algebra(4, 2)
    fixed = np.array(cyl_fixed_masks(cs4, 3), dtype=np.uint32)
    pairs = {0: np.repeat(fixed, fixed.size), 1: np.tile(fixed, fixed.size)}

    def show(env):
        return ", ".join(
            f"var{v}={{{', '.join(cs4.atoms[a] for a in el.atom_indices())}}}"
            for v, el in sorted(env.items())
        )

    def check(name, lhs, rhs, domain, noun):
        lv = _eval_masks(cs4, lhs, domain)
        rv = _eval_masks(cs4, rhs, domain)
        bad = np.flatnonzero(lv & ~rv)
        if bad.size:
            at = {v: Element(cs4, int(arr[bad[0]])) for v, arr in domain.items()}
            restricted = f"fails at c_3-fixed {show(at)}"
        else:
            restricted = f"holds on all {lv.size} c_3-fixed {noun}"
        report = check_equation(cs4, lhs, rhs, Exhaustive(), "leq")
        cx = report.counterexample_env()
        if cx is None:
            refuted = False
            off = f"unrestricted holds over {report.assignments} assignments"
        else:
            refuted = not all(cyl(cs4, 3, x) == x for x in cx.values())
            off = f"refuted at {show(cx)}, {'not ' if refuted else ''}c_3-fixed"
        return not bad.size and refuted, f"{name}: {restricted}, {off}"

    unary_ok, unary = check(
        "unary", swap01_spare(), swap01_lowdim(), {0: fixed}, "elements"
    )
    binary_ok, binary = check(
        "binary", relcomp01_spare(), relcomp01_lowdim(), pairs, "pairs"
    )
    elapsed = time.perf_counter() - start
    within = elapsed < 60.0

    passed = fixed.size == 1 << 8 and unary_ok and binary_ok and within
    return CriterionResult(
        7,
        "spare-routed swap and composition lie below their 3-dim bounds on the "
        "2^8 c_3-fixed elements, not on all 2^16",
        passed,
        f"c_3-fixed elements: {fixed.size}; {unary}; {binary}; "
        f"within 60s: {_bool(within)}",
    )


# ---------------------------------------------------------------------------
# criterion 8: the swap bound is a singleton image on every cube point


def criterion_08() -> CriterionResult:
    tc = three_cube()
    tau = swap01_lowdim()
    singles = 0
    exact = 0
    for a, label in enumerate(tc.atoms):
        u = ast.literal_eval(label)
        out = eval_term(tc, tau, {0: Element(tc, 1 << a)})
        if out.mask.bit_count() == 1:
            singles += 1
        swapped = repr((u[1], u[0], u[2]))
        if out.mask == 1 << tc.atoms.index(swapped):
            exact += 1
    passed = singles == 27 and exact == 27
    return CriterionResult(
        8,
        "swap bound maps every cube singleton to the swapped singleton",
        passed,
        f"singleton images: {singles}/27; exact swaps: {exact}/27",
    )


# ---------------------------------------------------------------------------
# criterion 9: relation-algebra reduct composition against raw relations


def criterion_09() -> CriterionResult:
    cs4 = full_set_algebra(4, 2)
    red = ra_reduct(cs4)

    def rel_of(el: Element) -> frozenset:
        return frozenset(
            (t[2], t[3])
            for t in (ast.literal_eval(cs4.atoms[a]) for a in el.atom_indices())
        )

    rng = random.Random(20260823)
    n = red.ra.natoms
    agree = 0
    for _ in range(100):
        i, j = rng.randrange(n), rng.randrange(n)
        composed = red.compose_elements(red.class_element(i), red.class_element(j))
        ri, rj = rel_of(red.class_element(i)), rel_of(red.class_element(j))
        direct = frozenset((a, c) for a, b in ri for b2, c in rj if b == b2)
        if rel_of(composed) == direct:
            agree += 1
    passed = red.passed and red.axioms.passed and agree == 100
    return CriterionResult(
        9,
        "reduct laws hold and composition matches raw relational composition",
        passed,
        f"reduct: {_bool(red.passed)}; laws: {_bool(red.axioms.passed)}; "
        f"sampled agreement: {agree}/100 (seed 20260823)",
    )


# ---------------------------------------------------------------------------
# criterion 10: splitting an atom embeds the original algebra


def criterion_10() -> CriterionResult:
    mk = monk_atoms(3, 3)
    res = split_atom(mk, 0, SplitPolicy(3, "inherit"))
    new = res.structure
    flat = sorted(b for grp in res.copy_map for b in grp)
    partition_ok = flat == list(range(new.natoms))
    cyl_ok = all(
        res.embed(cyl(mk, i, element(mk, [a]))).mask
        == cyl(new, i, res.embed_atom(a)).mask
        for a in range(mk.natoms)
        for i in range(3)
    )
    diag_ok = all(
        res.embed(diag(mk, i, j)).mask == diag(new, i, j).mask
        for i in range(3)
        for j in range(3)
    )
    frames_ok = check_ca_frame(mk).passed and check_ca_frame(new).passed
    passed = partition_ok and cyl_ok and diag_ok and frames_ok
    return CriterionResult(
        10,
        "atom splitting: join-of-copies is a frame-preserving Boolean embedding",
        passed,
        f"copies partition the new atoms: {_bool(partition_ok)}; cylindrifiers "
        f"preserved: {_bool(cyl_ok)}; diagonals preserved: {_bool(diag_ok)}; "
        f"frame conditions preserved: {_bool(frames_ok)}",
    )


# ---------------------------------------------------------------------------
# criterion 11: game solver sanity


def criterion_11() -> CriterionResult:
    cs3 = full_set_algebra(3, 2)
    fresh_ok = True
    fresh_winners = []
    for r in range(4):
        res = solve(GameSpec(VARIANT_FRESH, cs3, r), 0)
        fresh_winners.append(res.winner)
        fresh_ok = fresh_ok and res.winner == EXISTS
    reuse_ok = True
    reuse_winners = []
    for r in range(4):
        res = solve(GameSpec(VARIANT_REUSE, cs3, r, pebbles=4), 0)
        reuse_winners.append(res.winner)
        reuse_ok = reuse_ok and res.winner == EXISTS

    corrupted = drop_cyl_pair(cs3, 0, 0, 4)
    bad1 = solve(GameSpec(VARIANT_FRESH, corrupted, 1), 0)
    bad2 = solve(GameSpec(VARIANT_FRESH, corrupted, 2), 0)
    corrupt_ok = (
        bad1.winner == FORALL
        and bad2.winner == FORALL
        and bad2.rounds_used <= 2
    )

    def monotone(winners: list[str]) -> bool:
        # once the challenger wins, longer games never flip back
        seen_forall = False
        for w in winners:
            if w == FORALL:
                seen_forall = True
            elif seen_forall:
                return False
        return True

    slow = drop_cyl_pair(cs3, 0, 1, 1)
    slow_winners = [
        solve(GameSpec(VARIANT_FRESH, slow, r), 0).winner for r in range(3)
    ]
    mono_ok = (
        monotone(fresh_winners)
        and monotone(reuse_winners)
        and monotone([bad1.winner, bad2.winner])
        and monotone(slow_winners)
    )

    def twice_alike(spec: GameSpec) -> bool:
        runs = [json.dumps(solve(spec, 0).to_dict(), sort_keys=True) for _ in range(2)]
        return runs[0] == runs[1]

    det_ok = twice_alike(GameSpec(VARIANT_FRESH, cs3, 2)) and twice_alike(
        GameSpec(VARIANT_REUSE, cs3, 2, pebbles=4)
    )

    passed = fresh_ok and reuse_ok and corrupt_ok and mono_ok and det_ok
    return CriterionResult(
        11,
        "games: responder wins sound fixtures, challenger beats the corrupted one",
        passed,
        f"fresh rounds 0-3 responder wins: {_bool(fresh_ok)}; reuse (4 pebbles) "
        f"rounds 0-3 responder wins: {_bool(reuse_ok)}; corrupted challenger win "
        f"within 2 rounds: {_bool(corrupt_ok)}; round monotonicity: "
        f"{_bool(mono_ok)}; determinism: {_bool(det_ok)}",
    )


# ---------------------------------------------------------------------------
# criterion 12: hyperbasis recognition on the 4-element group algebra


def _group_ra_z4() -> RaAtomStructure:
    return RaAtomStructure.build(
        atoms=["e", "g1", "g2", "g3"],
        identity=[0],
        converse=[0, 3, 2, 1],
        forbidden=[
            (a, b, c)
            for a in range(4)
            for b in range(4)
            for c in range(4)
            if a != (b + c) % 4
        ],
    )


def criterion_12() -> CriterionResult:
    z4 = _group_ra_z4()
    nets = enumerate_hypernetworks(z4, 3, 3, 1)
    full_report = is_hyperbasis(z4, nets)
    breaks = 0
    for k in range(len(nets)):
        rest = list(nets[:k]) + list(nets[k + 1 :])
        if not is_hyperbasis(z4, rest).passed:
            breaks += 1
    passed = full_report.passed and breaks == len(nets)
    return CriterionResult(
        12,
        "full hypernetwork set is a hyperbasis; every single deletion breaks it",
        passed,
        f"networks: {len(nets)}; full set passes: {_bool(full_report.passed)}; "
        f"deletions breaking a bullet: {breaks}/{len(nets)}",
    )


# ---------------------------------------------------------------------------
# battery driver


CRITERIA: tuple[tuple[int, Callable[[], CriterionResult]], ...] = (
    (1, criterion_01),
    (2, criterion_02),
    (3, criterion_03),
    (4, criterion_04),
    (5, criterion_05),
    (6, criterion_06),
    (7, criterion_07),
    (8, criterion_08),
    (9, criterion_09),
    (10, criterion_10),
    (11, criterion_11),
    (12, criterion_12),
)


def run_all() -> tuple[CriterionResult, ...]:
    return tuple(fn() for _, fn in CRITERIA)


def format_table(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.number:2d} {r.title}")
        lines.append(f"         {r.detail}")
    total = sum(1 for r in results if r.passed)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"

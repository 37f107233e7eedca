"""The benchmark's workloads: seeded inputs, jobs and known answers.

``WORKLOADS[name](seed)`` makes the inputs the workload does not time
(this is set-up) and returns its jobs in the order they run.  A job
asks the library for one verdict through public functions only, each call
made through a ``Tracer`` and charged to a per-layer metric, and returns
the verdict with the work counts the library reported.  Every job carries
the verdicts that count as correct and the source of that known answer.

The seed varies only inputs whose known answer, and whose work counts,
are the same for every value it can take.  Seed 0 is the default: it
pins every seeded choice to the input of ``tests/test_games.py`` and of
acceptance criterion 10.
"""

from __future__ import annotations

import ast
import dataclasses
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from cylkit import bao, constructions, games, hyper, neat, ra, terms

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Outcome:
    verdict: str
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    name: str
    expected: tuple[str, ...]  # every verdict that counts as correct
    source: str  # where the known answer comes from
    run: Callable  # run(tracer, ctx) -> Outcome; ctx is shared by one pass


def _pick(rng: random.Random, seed: int, options: tuple):
    return options[0] if seed == DEFAULT_SEED else rng.choice(options)


# ---------------------------------------------------------------------------
# games: games.solve on cylindric and triangle networks


def _solve(tr, ctx, *, metric, spec, atom, budget=None):
    kwargs = {} if budget is None else {"budget": budget}
    try:
        res = tr.call(metric, games.solve, spec, atom, **kwargs)
    except bao.BudgetExceededError:
        return Outcome("refused", {"games.refusals": 1})
    stats = res.stats
    return Outcome(
        f"{res.winner} in {res.rounds_used}",
        {
            "games.states_explored": stats.states_explored,
            "games.memo_hits": stats.memo_hits,
            "games.openings": stats.openings,
        },
    )


GOLDEN = "tests/test_games.py golden winner and rounds_used"


def games_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    cs3 = constructions.full_set_algebra(3, 2)
    drop04 = games.drop_cyl_pair(cs3, 0, 0, 4)
    drop11 = games.drop_cyl_pair(cs3, 0, 1, 1)
    exists, forall = games.EXISTS, games.FORALL
    jobs = []

    def add(name, expected, source, metric, spec, atom, budget=None):
        run = partial(_solve, metric=metric, spec=spec, atom=atom, budget=budget)
        jobs.append(Job(f"{name} atom {atom}", expected, source, run))

    # The base flip of cs3 swaps atoms (0,0,0) and (1,1,1).  Both openings
    # give the same winner, rounds and search counts, except reuse at 3
    # rounds (526,493 states from atom 0, 552,067 from atom 7), which
    # therefore stays on atom 0.
    for variant, pebbles in ((games.VARIANT_FRESH, None), (games.VARIANT_REUSE, 4)):
        for rounds in range(4):
            symmetric = variant == games.VARIANT_FRESH or rounds < 3
            add(
                f"{variant}/cs3/{rounds} rounds",
                (f"{exists} in {rounds}",),
                f"{GOLDEN}; acceptance criterion 11 (rounds 0-3)",
                "games.ca_solve_s",
                games.GameSpec(variant, cs3, rounds, pebbles=pebbles),
                _pick(rng, seed, (0, 7) if symmetric else (0,)),
            )
    for rounds in (1, 2):
        add(
            f"fresh/drop_cyl_pair(cs3,0,0,4)/{rounds} rounds",
            (f"{forall} in 1",),
            GOLDEN,
            "games.ca_solve_s",
            games.GameSpec(games.VARIANT_FRESH, drop04, rounds),
            0,
        )
    add(
        "fresh/drop_cyl_pair(cs3,0,1,1)/2 rounds",
        (f"{forall} in 2",),
        GOLDEN,
        "games.ca_solve_s",
        games.GameSpec(games.VARIANT_FRESH, drop11, 2),
        0,
    )
    for name, structure, pebbles, source in (
        ("hh_ra(3,1,3)", constructions.hh_ra(3, 1, 3), 3, GOLDEN),
        ("bin_forb(3,1,2)", constructions.bin_forb(3, 1, 2), 3, GOLDEN),
        (
            "hh_ra(3,2,3)",
            constructions.hh_ra(3, 2, 3),
            2,
            "the responder wins the triangle games on the relation algebras "
            "in tests/test_games.py; hh_ra(3,2,3) is one by acceptance criterion 3",
        ),
    ):
        add(
            f"triangle/{name}/{pebbles} pebbles/2 rounds",
            (f"{exists} in 2",),
            source,
            "games.ra_solve_s",
            games.GameSpec(games.VARIANT_TRIANGLE, structure, 2, pebbles=pebbles),
            0,
        )
    # refused after the whole 105,719-state search while the budget is only
    # checked at the end; a solver that decides it within budget is right too
    add(
        "over-budget fresh/cs3/2 rounds, budget 50000",
        ("refused", f"{exists} in 2"),
        "README: over-budget searches are refused, never truncated; "
        f"{GOLDEN} if decided",
        "games.refusal_s",
        games.GameSpec(games.VARIANT_FRESH, cs3, 2),
        0,
        budget=50_000,
    )
    return jobs


# ---------------------------------------------------------------------------
# equations: exhaustive equation sweeps against the frame check, and a
# scalar term scan


def _frame_and_equations(tr, ctx, *, metric, structure):
    frame = tr.call("bao.check_ca_frame_s", bao.check_ca_frame, structure)
    battery = list(terms.ca_axioms(structure.dim))
    if structure.transp is not None:
        battery += terms.pea_axioms(structure.dim)
    assignments = 0
    holds = True
    for eq in battery:  # like criterion 1, stop at the first failing axiom
        report = tr.call(
            metric,
            terms.check_equation,
            structure,
            eq.lhs,
            eq.rhs,
            terms.Exhaustive(),
            eq.relation,
        )
        assignments += report.assignments
        if not report.holds:
            holds = False
            break
    verdict = (
        f"frame {'passes' if frame.passed else 'fails'}, "
        f"equations {'hold' if holds else 'fail'}"
    )
    return Outcome(
        verdict, {"terms.assignments": assignments, "bao.frame_atoms": structure.natoms}
    )


def _scan(tr, ctx, *, structure, elements):
    lhs, rhs = terms.relcomp01_spare(), terms.relcomp01_lowdim()
    calls = 0
    below = True
    for x in elements:
        for y in elements:
            env = {0: x, 1: y}
            lv = tr.call("terms.eval_term_s", terms.eval_term, structure, lhs, env)
            rv = tr.call("terms.eval_term_s", terms.eval_term, structure, rhs, env)
            calls += 2
            below = below and lv <= rv
    verdict = f"spare-routed composition {'below' if below else 'not below'} its bound"
    return Outcome(verdict, {"terms.eval_term_calls": calls})


def _commute_on(points, i: int, j: int) -> bool:
    """Whether T_i and T_j, restricted to the points, commute as relations."""

    def rel(k):
        return {
            (p, q)
            for p in points
            for q in points
            if all(p[c] == q[c] for c in range(len(p)) if c != k)
        }

    ti, tj = rel(i), rel(j)
    ij = {(p, r) for p, q in ti for q2, r in tj if q == q2}
    ji = {(p, r) for p, q in tj for q2, r in ti if q == q2}
    return ij == ji


def _failing_relativization(rng: random.Random, cube, size: int = 10) -> list[int]:
    """A seeded atom set of the cube on which T_0 and T_1 do not commute.

    C1-C3 hold on every relativization (each T_i stays an equivalence), so
    C4 for (0, 1) is the first axiom to fail on every such set: the sweep
    and its assignment count are the same for every seed.  The set is also
    not closed under the 0-1 coordinate swap, so the transpositions are
    dropped and the battery is C1-C7 alone.
    """
    points = [ast.literal_eval(label) for label in cube.atoms]
    while True:
        kept = sorted(rng.sample(range(len(points)), size))
        chosen = [points[a] for a in kept]
        swap_closed = all((p[1], p[0], p[2]) in chosen for p in chosen)
        if not swap_closed and not _commute_on(chosen, 0, 1):
            return kept


def _spare_closed(structure) -> list[bao.Element]:
    """Every element fixed by the spare (last) cylindrifier: the unions of
    its classes."""
    classes = sorted(set(structure.cyl_image_masks(structure.dim - 1)))
    out = []
    for pick in range(1 << len(classes)):
        mask = 0
        for bit, cls in enumerate(classes):
            if pick >> bit & 1:
                mask |= cls
        out.append(bao.Element(structure, mask))
    return out


def equations_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    fs23 = constructions.full_set_algebra(2, 3)
    plain = dataclasses.replace(fs23, transp=None)
    split = constructions.split_atom(
        plain, fs23.atoms.index("(0, 1)"), constructions.SplitPolicy(4)
    ).structure
    cube = constructions.three_cube()
    kept = _failing_relativization(rng, cube)
    rel = neat.rl_x(cube, bao.element(cube, kept)).structure
    cs3 = constructions.full_set_algebra(3, 2)
    cs4 = constructions.full_set_algebra(4, 2)
    agree = "two routes agree: check_ca_frame against exhaustive C1-C7 (+PEA)"
    return [
        Job(
            f"split (0, 1) of full_set_algebra(2,3) into 4 copies ({split.natoms} atoms)",
            ("frame passes, equations hold",),
            f"{agree}; split_atom keeps the frame for an atom outside every "
            "off-diagonal E_ij",
            partial(_frame_and_equations, metric="terms.sweep_full_s", structure=split),
        ),
        Job(
            "full_set_algebra(3,2)",
            ("frame passes, equations hold",),
            f"{agree}; acceptance criterion 1 fixture full-set-3-over-2",
            partial(_frame_and_equations, metric="terms.sweep_full_s", structure=cs3),
        ),
        Job(
            f"three_cube relativized to atoms {kept}",
            ("frame fails, equations fail",),
            f"{agree}; T_0 and T_1 do not commute on these points",
            partial(_frame_and_equations, metric="terms.sweep_exit_s", structure=rel),
        ),
        Job(
            "eval_term scan: relcomp01_spare <= relcomp01_lowdim, "
            "spare-closed pairs of full_set_algebra(4,2)",
            ("spare-routed composition below its bound",),
            "tests/test_terms.py::test_spare_composition_below_lowdim_bound_on_closed_elements",
            partial(_scan, structure=cs4, elements=_spare_closed(cs4)),
        ),
    ]


# ---------------------------------------------------------------------------
# structures: large builds, each followed by single-pass checks


def _build(tr, fn, *args):
    """Call a constructor; return its result and the atoms it built."""
    result = tr.call("constructions.build_s", fn, *args)
    built = result.structure if isinstance(result, constructions.SplitResult) else result
    return result, built.natoms


def _monk44(tr):
    return _build(tr, constructions.monk_atoms, 4, 4)


def _johnson(tr):
    base, n = _build(tr, constructions.monk_atoms, 3, 3)
    extended, m = _build(tr, constructions.johnson_extend, base)
    return extended, n + m


def _matrices(tr):
    forb, n = _build(tr, constructions.bin_forb, 3, 1, 2)
    matrices, m = _build(tr, constructions.basic_matrices, 3, forb)
    return matrices, n + m


def _split(tr, atom):
    base, n = _build(tr, constructions.monk_atoms, 3, 3)
    res, m = _build(tr, constructions.split_atom, base, atom, constructions.SplitPolicy(3))
    return res.structure, n + m


def _built_and_framed(tr, ctx, *, build, key=None):
    """Build a structure and check its frame; keep it in ctx under key for
    the jobs after this one in the pass."""
    structure, atoms_built = build(tr)
    if key is not None:
        ctx[key] = structure
    frame = tr.call("bao.check_ca_frame_s", bao.check_ca_frame, structure)
    return Outcome(
        f"{structure.natoms} atoms, frame {'passes' if frame.passed else 'fails'}",
        {"constructions.atoms_built": atoms_built, "bao.frame_atoms": structure.natoms},
    )


def _cyl_additive(tr, ctx, *, key, atom_sets):
    structure = ctx[key]
    calls = 0
    additive = True
    for atoms in atom_sets:
        x = bao.element(structure, atoms)
        for i in range(structure.dim):
            whole = tr.call("bao.cyl_s", bao.cyl, structure, i, x)
            joined = 0
            for a in atoms:
                joined |= tr.call("bao.cyl_s", bao.cyl, structure, i, bao.singleton(structure, a)).mask
            calls += 1 + len(atoms)
            additive = additive and whole.mask == joined
    verdict = f"cyl {'is' if additive else 'is not'} additive on {len(atom_sets)} elements"
    return Outcome(verdict, {"bao.cyl_calls": calls})


def _ra_laws(tr, ctx):
    structure, natoms = _build(tr, constructions.hh_ra, 3, 2, 3)
    report = tr.call("ra.check_ra_axioms_s", ra.check_ra_axioms, structure)
    return Outcome(
        f"{structure.natoms} atoms, laws {'pass' if report.passed else 'fail'}",
        {"constructions.atoms_built": natoms},
    )


def _restriction(tr, ctx):
    structure, natoms = _build(tr, constructions.bin_forb, 3, 1, 2)
    report = tr.call("neat.restriction_iso_s", neat.restriction_iso, 3, 4, structure)
    return Outcome(
        f"restriction {'is' if report.passed else 'is not'} an isomorphism",
        {"constructions.atoms_built": natoms},
    )


def _reduct(tr, ctx):
    structure, natoms = _build(tr, constructions.full_set_algebra, 4, 2)
    red = tr.call("neat.ra_reduct_s", neat.ra_reduct, structure)
    return Outcome(
        f"reduct {'passes' if red.passed else 'fails'}, "
        f"laws {'pass' if red.axioms.passed else 'fail'}",
        {"constructions.atoms_built": natoms},
    )


def _hyperbasis(tr, ctx, *, group):
    nets = tr.call("hyper.enumerate_s", hyper.enumerate_hypernetworks, group, 3, 3, 1)
    full = tr.call("hyper.is_hyperbasis_s", hyper.is_hyperbasis, group, nets)
    breaks = 0
    for k in range(len(nets)):
        rest = list(nets[:k]) + list(nets[k + 1 :])
        if not tr.call("hyper.is_hyperbasis_s", hyper.is_hyperbasis, group, rest).passed:
            breaks += 1
    verdict = (
        f"{len(nets)} networks, full set {'is' if full.passed else 'is not'} a "
        f"hyperbasis, {breaks}/{len(nets)} deletions break it"
    )
    return Outcome(verdict)


def _group_z4() -> ra.RaAtomStructure:
    return ra.RaAtomStructure.build(
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


MONK44_ATOMS = 3545
CYL_ELEMENTS = 500
CYL_ELEMENT_SIZE = 16


def structures_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    atom_sets = [
        sorted(rng.sample(range(MONK44_ATOMS), CYL_ELEMENT_SIZE)) for _ in range(CYL_ELEMENTS)
    ]
    monk33 = constructions.monk_atoms(3, 3)
    # atoms outside every off-diagonal E_ij: splitting one keeps the frame
    splittable = tuple(
        a
        for a in range(monk33.natoms)
        if not any(
            a in monk33.diag[i][j]
            for i in range(monk33.dim)
            for j in range(monk33.dim)
            if i != j
        )
    )
    split_at = _pick(rng, seed, splittable)
    return [
        Job(
            "monk_atoms(4,4) and its frame",
            (f"{MONK44_ATOMS} atoms, frame passes",),
            "tests/test_constructions.py::test_monk_large_dimension_count (3,545); "
            "Monk-family frames pass (test_monk_frames_pass)",
            partial(_built_and_framed, key="monk44", build=_monk44),
        ),
        Job(
            f"cyl on {CYL_ELEMENTS} seeded {CYL_ELEMENT_SIZE}-atom elements of monk_atoms(4,4)",
            (f"cyl is additive on {CYL_ELEMENTS} elements",),
            "two routes agree: cyl of the element against the join of cyl over its atoms",
            partial(_cyl_additive, key="monk44", atom_sets=atom_sets),
        ),
        Job(
            "johnson_extend(monk_atoms(3,3)) and its frame",
            ("34 atoms, frame passes",),
            "tests/test_cli.py (34 atoms); acceptance criterion 2 (frame)",
            partial(_built_and_framed, build=_johnson),
        ),
        Job(
            "basic_matrices(3, bin_forb(3,1,2)) and its frame",
            ("61 atoms, frame passes",),
            "acceptance criterion 5; tests/test_constructions.py (61 atoms)",
            partial(_built_and_framed, build=_matrices),
        ),
        Job(
            f"split_atom(monk_atoms(3,3), {split_at}, 3 copies) and its frame",
            ("36 atoms, frame passes",),
            "acceptance criterion 10 (atom 0); split_atom keeps the frame for an "
            "atom outside every off-diagonal E_ij",
            partial(_built_and_framed, build=partial(_split, atom=split_at)),
        ),
        Job(
            "check_ra_axioms(hh_ra(3,2,3))",
            ("13 atoms, laws pass",),
            "acceptance criterion 3; tests/test_constructions.py (13 atoms)",
            _ra_laws,
        ),
        Job(
            "restriction_iso(3, 4, bin_forb(3,1,2))",
            ("restriction is an isomorphism",),
            "acceptance criterion 6; tests/test_neat.py::test_restriction_iso_exhaustive_pass",
            _restriction,
        ),
        Job(
            "ra_reduct(full_set_algebra(4,2))",
            ("reduct passes, laws pass",),
            "acceptance criterion 9; tests/test_neat.py::test_ra_reduct_of_four_dim_full_set",
            _reduct,
        ),
        Job(
            "Z4 hyperbasis and its single deletions",
            ("16 networks, full set is a hyperbasis, 16/16 deletions break it",),
            "acceptance criterion 12; tests/test_hyper.py (16 networks, deletions break)",
            partial(_hyperbasis, group=_group_z4()),
        ),
    ]


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "games": games_jobs,
    "equations": equations_jobs,
    "structures": structures_jobs,
}

"""Tests for the truncated atomic-game layer: specs, networks, the exact
solver on known-good and deliberately damaged structures, interactive play,
transcripts, and replay."""

from __future__ import annotations

import ast
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import random
import re
from collections.abc import Iterator, Mapping

import pytest
import seed_games
from seed_operators import transp_columns

from cylkit import games
from cylkit.bao import BudgetExceededError, CaAtomStructure, _pair_rank, column_pairs
from cylkit.constructions import bin_forb, full_set_algebra, hh_ra, monk_atoms
from cylkit.games import (
    DEFAULT_BUDGET,
    EXISTS,
    FORALL,
    MAX_PEBBLES,
    MAX_ROUNDS,
    VARIANT_FRESH,
    VARIANT_REUSE,
    VARIANT_TRIANGLE,
    VARIANTS,
    CaMove,
    CaNetwork,
    GameSpec,
    RaMove,
    RaNetwork,
    drop_cyl_pair,
    network_to_dot,
    play_interactive,
    replay_transcript,
    search_budget,
    solve,
    state_space_bound,
    transcript_from_json,
    transcript_to_json,
    validate_network,
)
from cylkit.games import (
    _Counter,
    _k_choices,
    _legal_mask,
    _position_tuples,
    _tuple_index,
)
from cylkit.neat import ra_reduct
from cylkit.ra import RaAtomStructure

CS3 = full_set_algebra(3, 2)
BIN312 = bin_forb(3, 1, 2)
HH313 = hh_ra(3, 1, 3)


def semantic_network(
    structure: CaAtomStructure, assignment: Mapping[int, int]
) -> CaNetwork:
    """Network induced by mapping nodes to points of a concrete base.

    The structure must label its atoms with reprs of point tuples (as the
    full set algebras do); the tuple of assigned points under each node
    tuple is looked up as an atom label.
    """
    try:
        atom_of = {ast.literal_eval(lbl): i for i, lbl in enumerate(structure.atoms)}
    except (ValueError, SyntaxError) as exc:
        raise ValueError(
            "structure atoms do not encode point tuples; build it with "
            "full_set_algebra"
        ) from exc
    nodes = tuple(sorted(assignment))
    if not nodes:
        raise ValueError("assignment must cover at least one node")
    mapping = {}
    for t in itertools.product(nodes, repeat=structure.dim):
        point = tuple(assignment[v] for v in t)
        if point not in atom_of:
            raise ValueError(f"no atom labels the point tuple {point}")
        mapping[t] = atom_of[point]
    return CaNetwork.from_map(structure, mapping)


# ---------------------------------------------------------------------------
# game specifications


def test_variants_are_the_three_documented_games():
    assert VARIANTS == (VARIANT_FRESH, VARIANT_REUSE, VARIANT_TRIANGLE)


def test_game_spec_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant must be one of"):
        GameSpec("marathon", CS3, 1)


@pytest.mark.parametrize("rounds", [-1, MAX_ROUNDS + 1])
def test_game_spec_round_bounds(rounds):
    with pytest.raises(ValueError, match="rounds must be in 0.."):
        GameSpec(VARIANT_FRESH, CS3, rounds)


def test_triangle_variant_needs_a_relation_algebra():
    with pytest.raises(TypeError, match="relation-algebra"):
        GameSpec(VARIANT_TRIANGLE, CS3, 1, pebbles=3)


def test_triangle_variant_pebble_rules():
    with pytest.raises(ValueError, match="explicit pebble budget"):
        GameSpec(VARIANT_TRIANGLE, BIN312, 1)
    for bad in (1, MAX_PEBBLES + 1):
        with pytest.raises(ValueError, match="pebbles must be in 2.."):
            GameSpec(VARIANT_TRIANGLE, BIN312, 1, pebbles=bad)


def test_reuse_variant_pebble_rules():
    with pytest.raises(ValueError, match="explicit pebble budget"):
        GameSpec(VARIANT_REUSE, CS3, 1)
    with pytest.raises(ValueError, match="more pebbles than the dimension"):
        GameSpec(VARIANT_REUSE, CS3, 1, pebbles=CS3.dim)
    with pytest.raises(ValueError, match="at most"):
        GameSpec(VARIANT_REUSE, CS3, 1, pebbles=MAX_PEBBLES + 1)


def test_fresh_variant_refuses_pebbles_and_ra_structures():
    with pytest.raises(ValueError, match="leave pebbles unset"):
        GameSpec(VARIANT_FRESH, CS3, 1, pebbles=4)
    with pytest.raises(TypeError, match="CaAtomStructure"):
        GameSpec(VARIANT_FRESH, BIN312, 1)


def test_arity_and_node_budget():
    fresh = GameSpec(VARIANT_FRESH, CS3, 2)
    assert fresh.arity == CS3.dim == 3
    assert fresh.node_budget == CS3.dim + 2
    reuse = GameSpec(VARIANT_REUSE, CS3, 1, pebbles=4)
    assert reuse.arity == 3
    assert reuse.node_budget == 4
    tri = GameSpec(VARIANT_TRIANGLE, BIN312, 1, pebbles=3)
    assert tri.arity == 2
    assert tri.node_budget == 3


def test_state_space_bound_formula():
    fresh = GameSpec(VARIANT_FRESH, CS3, 1)
    assert state_space_bound(fresh) == CS3.natoms ** ((CS3.dim + 1) ** CS3.dim)
    tri = GameSpec(VARIANT_TRIANGLE, BIN312, 2, pebbles=2)
    assert state_space_bound(tri) == BIN312.natoms ** 4


def test_search_budget_reads_the_environment(monkeypatch):
    monkeypatch.delenv("CYLKIT_BUDGET", raising=False)
    assert search_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("CYLKIT_BUDGET", "123")
    assert search_budget() == 123
    monkeypatch.setenv("CYLKIT_BUDGET", "lots")
    with pytest.raises(ValueError, match="must be an integer"):
        search_budget()
    monkeypatch.setenv("CYLKIT_BUDGET", "0")
    with pytest.raises(ValueError, match="must be positive"):
        search_budget()


# ---------------------------------------------------------------------------
# networks


def test_ca_network_construction_rules():
    good = semantic_network(CS3, {0: 0, 1: 1})
    with pytest.raises(ValueError, match="at least one node"):
        CaNetwork(CS3, (), ())
    for nodes in ((1, 0), (1, 1)):
        with pytest.raises(ValueError, match="strictly increasing"):
            CaNetwork(CS3, nodes, good.labels)
    with pytest.raises(ValueError, match="strictly increasing"):
        CaNetwork(CS3, (0, 2, 1), good.labels)
    with pytest.raises(ValueError, match="naturals"):
        CaNetwork(CS3, (-1, 0), good.labels)
    with pytest.raises(ValueError, match="cover every node tuple"):
        CaNetwork(CS3, (0, 1), good.labels[:-1])
    for bad in (CS3.natoms, -1):
        with pytest.raises(ValueError, match="label out of range"):
            CaNetwork(CS3, (0, 1), (bad,) + good.labels[1:])
    # a copy made by dataclasses.replace is checked like any network
    with pytest.raises(ValueError, match="strictly increasing"):
        dataclasses.replace(good, nodes=(1, 0))


def test_label_reads_the_node_positions_of_its_own_network():
    net = semantic_network(CS3, {0: 0, 1: 1})
    assert net.label((0, 1, 1)) != net.label((1, 0, 0))
    moved = dataclasses.replace(net, nodes=(3, 5))
    for t in net.tuples():
        assert moved.label(tuple((3, 5)[v] for v in t)) == net.label(t)
    with pytest.raises(KeyError):
        moved.label((0, 1, 1))


def test_ca_network_accessors_and_from_map():
    net = semantic_network(CS3, {0: 0, 1: 1})
    tuples = list(net.tuples())
    assert len(tuples) == 2 ** CS3.dim
    assert tuples[0] == (0, 0, 0)
    mapping = net.mapping()
    assert set(mapping) == set(tuples)
    for t in tuples:
        assert net.label(t) == mapping[t]
    assert CaNetwork.from_map(CS3, mapping) == net
    partial = dict(mapping)
    partial.pop(tuples[0])
    with pytest.raises(ValueError, match="does not label every node tuple"):
        CaNetwork.from_map(CS3, partial)


def test_ra_network_rules_and_from_map():
    idx = BIN312.atoms.index
    ident = idx("Id")
    div = idx("a^0(0,0)")
    net = RaNetwork(BIN312, (0, 2), (ident, div, div, ident))
    assert net.label((0, 2)) == div
    assert net.mapping() == {
        (0, 0): ident,
        (0, 2): div,
        (2, 0): div,
        (2, 2): ident,
    }
    assert RaNetwork.from_map(BIN312, net.mapping()) == net
    with pytest.raises(ValueError, match="cover every ordered node pair"):
        RaNetwork(BIN312, (0, 2), (ident, div, div))
    with pytest.raises(ValueError, match="does not label every ordered pair"):
        RaNetwork.from_map(
            BIN312, {(0, 0): ident, (0, 2): div, (2, 2): ident}
        )


def test_validate_network_accepts_point_induced_networks():
    for assignment in ({0: 0}, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 0}):
        report = validate_network(semantic_network(CS3, assignment))
        assert report.passed and report.violations == ()


def test_validate_network_flags_diagonal_damage():
    net = semantic_network(CS3, {0: 0, 1: 1})
    off_diag = CS3.atoms.index(repr((0, 1, 0)))
    labels = list(net.labels)
    labels[0] = off_diag  # the all-repeats tuple must stay sub-diagonal
    report = validate_network(CaNetwork(CS3, net.nodes, tuple(labels)))
    assert not report.passed
    assert any(v.startswith("diagonal:") for v in report.violations)


def test_validate_network_flags_cylindrifier_damage():
    net = semantic_network(CS3, {0: 0, 1: 1})
    labels = list(net.labels)
    # relabel the tuple (1,0,0) with the point (1,1,1): still sub-diagonal
    # where required, but no longer reachable from its neighbours along T_0
    target = list(net.tuples()).index((1, 0, 0))
    labels[target] = CS3.atoms.index(repr((1, 1, 1)))
    report = validate_network(CaNetwork(CS3, net.nodes, tuple(labels)))
    assert not report.passed
    assert any(v.startswith("cylindrifier:") for v in report.violations)


def test_validate_network_flags_ra_damage():
    idx = BIN312.atoms.index
    ident, div, other = idx("Id"), idx("a^0(0,0)"), idx("a^1(0,0)")
    bad_identity = RaNetwork(BIN312, (0, 1), (div, div, div, ident))
    report = validate_network(bad_identity)
    assert any(v.startswith("identity:") for v in report.violations)
    bad_converse = RaNetwork(BIN312, (0, 1), (ident, div, other, ident))
    report = validate_network(bad_converse)
    assert any(v.startswith("converse:") for v in report.violations)
    # three nodes, every diversity edge carrying the same column atom:
    # the same-column triangle rule forbids it
    labels = [ident if p == q else div for p in range(3) for q in range(3)]
    report = validate_network(RaNetwork(BIN312, (0, 1, 2), tuple(labels)))
    assert not report.passed
    assert any(v.startswith("triangle:") for v in report.violations)


def test_validate_network_rejects_non_networks():
    with pytest.raises(TypeError, match="not a network"):
        validate_network(CS3)


def test_drop_cyl_pair_removes_one_directed_pair():
    damaged = drop_cyl_pair(CS3, 0, 0, 4)
    expected = list(CS3.cyl[0])
    expected[4] &= ~(1 << 0)
    assert damaged.cyl[0] == tuple(expected)
    assert damaged.cyl[0][0] >> 4 & 1
    for i in range(1, CS3.dim):
        assert damaged.cyl[i] == CS3.cyl[i]
    assert damaged.atoms == CS3.atoms and damaged.diag == CS3.diag
    with pytest.raises(ValueError, match="is not in cylindrifier relation"):
        drop_cyl_pair(damaged, 0, 0, 4)


# ---------------------------------------------------------------------------
# move encodings


def test_ca_move_encoding_round_trip():
    move = CaMove(face=(0, 2), l=1, k=3, b=5)
    assert move.demanded() == (0, 3, 2)
    assert move.encode() == "f(0,2);l1;k3;b5"
    assert CaMove.decode(move.encode()) == move
    with pytest.raises(ValueError, match="bad move encoding"):
        CaMove.decode("nonsense")


def test_ra_move_encoding_round_trip():
    move = RaMove(x=0, y=1, z=2, a=3, b=4)
    assert move.encode() == "x0;y1;z2;a3;b4"
    assert RaMove.decode(move.encode()) == move
    with pytest.raises(ValueError, match="bad move encoding"):
        RaMove.decode("x0;y1")


# ---------------------------------------------------------------------------
# the exact solver


def test_fresh_game_on_full_set_algebra_is_existential():
    expected_states = {0: 465, 1: 1383, 2: 3132}
    for rounds, states in expected_states.items():
        res = solve(GameSpec(VARIANT_FRESH, CS3, rounds), 0)
        assert res.winner == EXISTS
        assert res.rounds_used == rounds
        assert res.stats.states_explored == states
        assert res.stats.openings >= 1


def test_reuse_game_on_full_set_algebra_is_existential():
    expected_states = {0: 465, 1: 1924, 2: 4954}
    for rounds, states in expected_states.items():
        res = solve(GameSpec(VARIANT_REUSE, CS3, rounds, pebbles=4), 0)
        assert res.winner == EXISTS
        assert res.rounds_used == rounds
        assert res.stats.states_explored == states


def test_dropped_cylindrifier_pair_hands_the_game_to_the_challenger():
    damaged = drop_cyl_pair(CS3, 0, 0, 4)
    for rounds in (1, 2):
        res = solve(GameSpec(VARIANT_FRESH, damaged, rounds), 0)
        assert res.winner == FORALL
        assert res.rounds_used == 1  # one round suffices regardless of horizon
    reuse = solve(GameSpec(VARIANT_REUSE, damaged, 2, pebbles=4), 0)
    assert reuse.winner == FORALL and reuse.rounds_used == 1


def test_subtler_damage_needs_a_longer_horizon():
    damaged = drop_cyl_pair(CS3, 0, 1, 1)
    winners = [
        solve(GameSpec(VARIANT_FRESH, damaged, r), 0).winner for r in range(3)
    ]
    assert winners == [EXISTS, EXISTS, FORALL]
    res = solve(GameSpec(VARIANT_FRESH, damaged, 2), 0)
    assert res.rounds_used == 2


def test_triangle_games_are_existential_on_genuine_algebras():
    expected = {
        (id(BIN312), 2): 110,
        (id(BIN312), 3): 1777,
        (id(HH313), 2): 178,
        (id(HH313), 3): 7331,
    }
    for structure in (BIN312, HH313):
        for pebbles in (2, 3):
            res = solve(GameSpec(VARIANT_TRIANGLE, structure, 2, pebbles=pebbles), 0)
            assert res.winner == EXISTS and res.rounds_used == 2
            assert res.stats.states_explored == expected[(id(structure), pebbles)]


def test_two_solves_give_identical_json():
    for spec in (
        GameSpec(VARIANT_FRESH, CS3, 2),
        GameSpec(VARIANT_REUSE, CS3, 1, pebbles=4),
    ):
        first, second = (
            json.dumps(solve(spec, 0).to_dict(), sort_keys=True) for _ in range(2)
        )
        assert first == second


def test_each_representative_disagreement_is_counted_once():
    # one (position, face, index) whose legality mask depends on the
    # representative counts once, however often extraction revisits it
    res = solve(GameSpec(VARIANT_FRESH, drop_cyl_pair(CS3, 0, 1, 1), 2), 0)
    assert res.stats.representative_disagreements == 3


def _plain_value(solver, memo, net, r):
    """Rounds the responder can survive, by the recursion over the one
    successor generator, memoised by the raw labelling."""
    if r == 0:
        return 0
    key = (net.nodes, net.labels, r)
    if key not in memo:
        memo[key] = min(
            [r]
            + [
                1 + max((_plain_value(solver, memo, m, r - 1) for m in responses), default=-1)
                for _, responses in solver.successors(net)
            ]
        )
    return memo[key]


def test_plain_memo_agrees_with_the_canonical_memo():
    # the plain memo keys positions by their raw labelling; it is the
    # oracle for the solver's memo keyed up to node renaming
    for spec in (
        GameSpec(VARIANT_FRESH, CS3, 2),
        GameSpec(VARIANT_REUSE, CS3, 2, pebbles=4),
        GameSpec(VARIANT_TRIANGLE, HH313, 2, pebbles=3),
    ):
        solver = games._Solver(spec, _Counter(10**12, ""))
        openings = solver.openings(0)
        memo = {}
        for r in range(1, spec.rounds + 1):
            assert [solver.value(net, r) for net in openings] == [
                _plain_value(solver, memo, net, r) for net in openings
            ]


def test_solver_refuses_to_blow_the_budget():
    with pytest.raises(BudgetExceededError, match="budget"):
        solve(GameSpec(VARIANT_FRESH, CS3, 2), 0, budget=100)


def test_default_budget_is_a_hard_cap():
    # the whole search explores 3,132 states; it stops at the first tick
    # past the budget
    with pytest.raises(BudgetExceededError) as info:
        solve(GameSpec(VARIANT_FRESH, CS3, 2), 0, budget=2_500)
    reached = int(re.search(r"after (\d+) states", str(info.value)).group(1))
    assert 2_500 < reached <= 2_500 + CS3.natoms


@pytest.mark.parametrize("rounds", [1, 2])
def test_refused_exactly_when_the_total_exceeds_the_budget(rounds):
    spec = GameSpec(VARIANT_FRESH, CS3, rounds)
    total = {1: 1383, 2: 3132}[rounds]
    res = solve(spec, 0, budget=total)
    assert res.stats.states_explored == total
    with pytest.raises(BudgetExceededError):
        solve(spec, 0, budget=total - 1)


@pytest.mark.parametrize(
    "spec, total",
    [
        (GameSpec(VARIANT_REUSE, CS3, 2, pebbles=4), 4954),
        (GameSpec(VARIANT_TRIANGLE, HH313, 2, pebbles=3), 7331),
    ],
    ids=["reuse-cs3", "hh_ra(3,1,3)"],
)
def test_refused_exactly_when_the_total_exceeds_the_budget_with_shared_problems(
    spec, total
):
    # positions share completion problems here, and a shared enumeration
    # counts once: the budget still caps the same running total
    res = solve(spec, 0, budget=total)
    assert res.stats.states_explored == total
    with pytest.raises(BudgetExceededError):
        solve(spec, 0, budget=total - 1)


def test_refusal_prints_the_state_space_bound_as_a_power():
    with pytest.raises(
        BudgetExceededError,
        match=re.escape("(budget 100, state-space bound 8^(5^3))"),
    ):
        solve(GameSpec(VARIANT_FRESH, CS3, 2), 0, budget=100)
    n = games.MAX_GAME_ATOMS + 1
    every = frozenset(range(n))
    huge = CaAtomStructure.build(
        dim=2,
        atoms=tuple(str(a) for a in range(n)),
        cyl=((), ()),
        diag=((every, frozenset()), (frozenset(), every)),
    )
    with pytest.raises(
        BudgetExceededError,
        match=re.escape(f"limit of {n - 1}; state-space bound {n}^(3^2)"),
    ):
        solve(GameSpec(VARIANT_FRESH, huge, 1), 0)


def test_solver_argument_validation():
    spec = GameSpec(VARIANT_FRESH, CS3, 1)
    with pytest.raises(ValueError, match="out of range"):
        solve(spec, CS3.natoms)
    with pytest.raises(ValueError, match="out of range"):
        solve(spec, -1)


def test_solve_result_serializes_to_json():
    res = solve(GameSpec(VARIANT_FRESH, CS3, 1), 0)
    payload = res.to_dict()
    text = json.dumps(payload)
    assert set(payload) == {"winner", "rounds_used", "strategy", "stats"}
    assert json.loads(text)["winner"] == EXISTS
    assert payload["stats"]["state_space_bound"] == str(
        state_space_bound(GameSpec(VARIANT_FRESH, CS3, 1))
    )


def test_winning_responder_strategy_has_an_opening_entry():
    res = solve(GameSpec(VARIANT_FRESH, CS3, 1), 0)
    assert res.winner == EXISTS
    assert "open" in res.strategy
    # every other key is a position/demand pair answered by a position
    assert all("|" in key for key in res.strategy if key != "open")


@pytest.mark.parametrize(
    "spec, atom",
    [
        (GameSpec(VARIANT_FRESH, CS3, 2), 0),
        (GameSpec(VARIANT_FRESH, drop_cyl_pair(CS3, 0, 1, 1), 2), 0),
        (GameSpec(VARIANT_TRIANGLE, BIN312, 2, pebbles=3), 0),
    ],
    ids=["exists-fresh-cs3", "forall-fresh-drop011", "exists-bin_forb(3,1,2)"],
)
def test_strategy_keys_name_the_position_rounds_and_canonical_demand(spec, atom):
    # a key is "<canonical encoding>|r<rounds left>", followed for the
    # responder by the demand in the position's canonical node names, where
    # a node outside the position is named by the position's node count
    res = solve(spec, atom)
    keys = [key for key in res.strategy if key != "open"]
    assert keys
    move_type = RaMove if spec.variant == VARIANT_TRIANGLE else CaMove
    for key in keys:
        enc, rounds, *demand = key.split("|")
        s = int(enc.split(":")[0])
        assert re.fullmatch(r"r\d+", rounds)
        assert 1 <= int(rounds[1:]) <= spec.rounds
        move_text = demand[0] if res.winner == EXISTS else res.strategy[key]
        assert len(demand) == (res.winner == EXISTS)
        move = move_type.decode(move_text)
        assert move.node <= s
        if spec.variant == VARIANT_FRESH:
            assert move.node == s


def test_check_move_legal_enforces_the_node_budget():
    reuse = GameSpec(VARIANT_REUSE, CS3, 1, pebbles=4)
    net = semantic_network(CS3, {0: 0, 1: 1, 2: 0, 3: 1})
    mask, _ = _legal_mask(net, (0, 1), 0)
    b = (mask & -mask).bit_length() - 1
    games._check_move_legal(reuse, net, CaMove((0, 1), 0, 2, b))
    with pytest.raises(RuntimeError, match="exceeds the pebble budget"):
        games._check_move_legal(reuse, net, CaMove((0, 1), 0, 4, b))
    fresh = GameSpec(VARIANT_FRESH, CS3, 1)
    games._check_move_legal(fresh, net, CaMove((0, 1), 0, 4, b))
    with pytest.raises(RuntimeError, match="must demand the least fresh node"):
        games._check_move_legal(fresh, net, CaMove((0, 1), 0, 5, b))
    tri = GameSpec(VARIANT_TRIANGLE, BIN312, 1, pebbles=3)
    solver = games._Solver(tri, _Counter(10**12, ""))
    three = next(
        m
        for opening in solver.openings(0)
        for _, bucket in solver.successors(opening)
        for m in bucket
        if len(m.nodes) == 3
    )
    legal = next(m for m, bucket in solver.successors(three) if m.z == 2)
    games._check_move_legal(tri, three, legal)
    with pytest.raises(RuntimeError, match="exceeds the pebble budget"):
        games._check_move_legal(tri, three, dataclasses.replace(legal, z=3))


# ---------------------------------------------------------------------------
# the completion enumerators against the original dict-based ones
#
# The four functions below are the original implementations, kept verbatim
# as oracles for the table-driven enumerators of cylkit.games;
# _row_masks is a helper of the cylindric ones.  _check_fixed_slot and the
# move and response functions further down are the original successor
# path, kept verbatim as the oracle for the solver's one successor
# generator (_Solver.successors); among them, _ca_response_task,
# _ra_response_task and _check_response_matches are also the oracles for
# the completion problem of games._retained_task and games._demanded_slots
# and for the response checks games._check_retained and
# games._check_demanded, which serve both kinds of network.


def _ca_completions(
    structure: CaAtomStructure,
    nodes: tuple[int, ...],
    fixed: Mapping[int, int],
    counter: _Counter,
) -> Iterator[CaNetwork]:
    """All valid total labellings over ``nodes`` extending ``fixed``
    (slot index -> atom), in lexicographic label order.

    Candidate atoms per free slot are narrowed by mask intersection
    against all already-labelled neighbours.  Fixed slots are assumed
    mutually valid (they come from a valid network); slots listed in
    ``fixed`` that conflict with each other are caught because every free
    slot still checks against all of them, and a demanded fixed slot is
    re-checked by the caller via _check_fixed_slot when needed.
    """
    dim = structure.dim
    s = len(nodes)
    tuples = _position_tuples(s, dim)
    total = len(tuples)
    full = structure.full_mask
    diag_masks = [[structure.diag_mask(i, j) for j in range(dim)] for i in range(dim)]
    cyl_cols = [structure.cyl_image_masks(i) for i in range(dim)]
    cyl_rows = [_row_masks(structure, i) for i in range(dim)]
    if structure.transp is not None:
        transp_cols = [
            ((i, j), transp_columns(structure, i, j))
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
    else:
        transp_cols = []
    assign: dict[int, int] = dict(fixed)
    free = [idx for idx in range(total) if idx not in fixed]
    tick = counter.tick

    def candidates(idx: int) -> int:
        t = tuples[idx]
        cand = full
        for i in range(dim):
            ti = t[i]
            for j in range(i + 1, dim):
                if ti == t[j]:
                    cand &= diag_masks[i][j]
                    if not cand:
                        return 0
        for i in range(dim):
            cols = cyl_cols[i]
            rows = cyl_rows[i]
            ti = t[i]
            for d in range(s):
                if d == ti:
                    continue
                other = assign.get(_tuple_index(t[:i] + (d,) + t[i + 1 :], s))
                if other is None:
                    continue
                cand &= cols[other] & rows[other]
                if not cand:
                    return 0
        for (i, j), timg in transp_cols:
            u = list(t)
            u[i], u[j] = u[j], u[i]
            other = assign.get(_tuple_index(u, s))
            if other is not None:
                cand &= timg[other]
                if not cand:
                    return 0
        return cand

    def backtrack(at: int) -> Iterator[CaNetwork]:
        if at == len(free):
            yield CaNetwork(structure, nodes, tuple(assign[i] for i in range(total)))
            return
        idx = free[at]
        tick()
        mask = candidates(idx)
        while mask:
            a = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            tick()
            assign[idx] = a
            yield from backtrack(at + 1)
            del assign[idx]

    yield from backtrack(0)


def _row_masks(structure: CaAtomStructure, i: int) -> tuple[int, ...]:
    """Per atom b, the mask of {a : (b,a) in T_i} (the transpose of the
    column images); cached on the structure."""
    cache = getattr(structure, "_game_row_masks", None)
    if cache is None:
        cache = {}
        object.__setattr__(structure, "_game_row_masks", cache)
    got = cache.get(i)
    if got is None:
        n = structure.natoms
        rows = [0] * n
        for a, b in column_pairs(structure.cyl[i]):
            rows[a] |= 1 << b
        got = tuple(rows)
        cache[i] = got
    return got


def _check_fixed_slot(
    structure: CaAtomStructure,
    nodes: tuple[int, ...],
    fixed: Mapping[int, int],
    idx: int,
) -> bool:
    """Whether the fixed label at slot ``idx`` is compatible with the rest
    of ``fixed`` (used to pre-validate a demanded slot)."""
    dim = structure.dim
    s = len(nodes)
    t = _position_tuples(s, dim)[idx]
    a = fixed[idx]
    for i in range(dim):
        for j in range(i + 1, dim):
            if t[i] == t[j] and not (structure.diag_mask(i, j) >> a) & 1:
                return False
    for i in range(dim):
        cols = structure.cyl_image_masks(i)
        rows = _row_masks(structure, i)
        for d in range(s):
            if d == t[i]:
                continue
            other = fixed.get(_tuple_index(t[:i] + (d,) + t[i + 1 :], s))
            if other is None:
                continue
            if not (cols[other] >> a) & 1 or not (rows[other] >> a) & 1:
                return False
    if structure.transp is not None:
        for i in range(dim):
            for j in range(i + 1, dim):
                u = list(t)
                u[i], u[j] = u[j], u[i]
                other = fixed.get(_tuple_index(u, s))
                if other is not None:
                    timg = transp_columns(structure, i, j)
                    if not (timg[other] >> a) & 1:
                        return False
    return True


# This oracle never checks a triangle with a repeated node: (p,q) over
# (p,p),(p,q) or over (p,q),(q,q), and (p,p) over itself.  With a single
# identity atom those triangles never forbid a label on the fixtures here,
# so its differential test stays on single-identity structures; the
# several-identity case is checked against validate_network instead.
def _ra_completions(
    structure: RaAtomStructure,
    nodes: tuple[int, ...],
    fixed: Mapping[int, int],
    counter: _Counter,
) -> Iterator[RaNetwork]:
    """All valid edge labellings over ``nodes`` extending ``fixed``;
    assigning (p,q) forces (q,p) to the converse label, and candidates
    are narrowed through the composition rows of every labelled triangle."""
    s = len(nodes)
    full = structure.full_mask
    identity_mask = 0
    for a in structure.identity:
        identity_mask |= 1 << a
    conv = structure.converse
    slots = [(p, q) for p in range(s) for q in range(p, s)]
    assign: dict[int, int] = {}
    for idx, a in fixed.items():
        p, q = divmod(idx, s)
        ridx = q * s + p
        mirror = fixed.get(ridx)
        if mirror is not None and mirror != conv[a]:
            return
        assign[idx] = a
        assign[ridx] = conv[a]
    decide = [
        (p, q) for (p, q) in slots if p * s + q not in assign
    ]
    tick = counter.tick

    def candidates(p: int, q: int) -> int:
        cand = identity_mask if p == q else full
        for w in range(s):
            e2 = assign.get(p * s + w)
            e3 = assign.get(w * s + q)
            if e2 is not None and e3 is not None:
                cand &= structure.comp_row(e2, e3)
                if not cand:
                    return 0
            e1 = assign.get(p * s + w)
            e3b = assign.get(q * s + w)
            if e1 is not None and e3b is not None:
                # (p,w) over (p,q),(q,w): the middle side must keep
                # (e1, x, e3b) consistent
                cand &= structure.comp_row(e1, conv[e3b])
                if not cand:
                    return 0
            e1b = assign.get(w * s + q)
            e2b = assign.get(w * s + p)
            if e1b is not None and e2b is not None:
                # (w,q) over (w,p),(p,q): the right side must keep
                # (e1b, e2b, x) consistent
                cand &= structure.comp_row(conv[e2b], e1b)
                if not cand:
                    return 0
        return cand

    def backtrack(at: int) -> Iterator[RaNetwork]:
        if at == len(decide):
            yield RaNetwork(structure, nodes, tuple(assign[i] for i in range(s * s)))
            return
        p, q = decide[at]
        tick()
        mask = candidates(p, q)
        while mask:
            a = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            tick()
            idx = p * s + q
            ridx = q * s + p
            assign[idx] = a
            assign[ridx] = conv[a]
            yield from backtrack(at + 1)
            del assign[idx]
            if ridx != idx:
                del assign[ridx]

    yield from backtrack(0)


def _ca_moves(spec: GameSpec, net: CaNetwork, counter: _Counter) -> tuple[list[CaMove], int]:
    """Challenger demands in canonical order, plus the number of
    (face, index) pairs whose legality mask depended on the choice of
    representative (a corruption symptom; the union of the masks is used)."""
    st = net.structure
    dim = st.dim
    nodes = net.nodes
    moves: list[CaMove] = []
    disagreements = 0
    for face in itertools.product(nodes, repeat=dim - 1):
        k_choices = _k_choices(spec, net, set(face))
        for l in range(dim):
            counter.tick(len(nodes))
            union, differed = _legal_mask(net, face, l)
            if differed:
                disagreements += 1
            if not union:
                continue
            for k in k_choices:
                mask = union
                while mask:
                    b = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    moves.append(CaMove(face, l, k, b))
    return moves, disagreements


def _ra_moves(spec: GameSpec, net: RaNetwork, counter: _Counter) -> tuple[list[RaMove], int]:
    st = net.structure
    nodes = net.nodes
    moves: list[RaMove] = []
    for x in nodes:
        for y in nodes:
            lab = net.label((x, y))
            z_choices = _k_choices(spec, net, {x, y})
            for z in z_choices:
                counter.tick(st.natoms)
                for a in range(st.natoms):
                    for b in range(st.natoms):
                        if st.consistent(lab, a, b):
                            moves.append(RaMove(x, y, z, a, b))
    return moves, 0


def _check_fixed_ra(
    structure: RaAtomStructure,
    s: int,
    fixed: Mapping[int, int],
) -> bool:
    """Whether the fixed edges of a responder task are mutually valid
    (identity diagonal, converse mirrors, labelled triangles)."""
    conv = structure.converse
    for idx, a in fixed.items():
        p, q = divmod(idx, s)
        if p == q and a not in structure.identity:
            return False
        mirror = fixed.get(q * s + p)
        if mirror is not None and mirror != conv[a]:
            return False
    for idx, a in fixed.items():
        p, q = divmod(idx, s)
        for w in range(s):
            e2 = fixed.get(p * s + w)
            e3 = fixed.get(w * s + q)
            if e2 is not None and e3 is not None:
                if not structure.consistent(a, e2, e3):
                    return False
    return True


def _ca_response_task(
    net: CaNetwork, move: CaMove
) -> tuple[tuple[int, ...], dict[int, int]]:
    """Node set and fixed slots of the responder's completion problem.

    The demanded tuple always contains k, and every tuple containing k is
    either brand new (fresh k) or cleared (reused k), so the demand can
    only conflict with retained labels through the validity checks, which
    the enumerator applies.
    """
    reused = move.k in net.nodes
    new_nodes = net.nodes if reused else tuple(sorted(net.nodes + (move.k,)))
    s_new = len(new_nodes)
    pos = {v: p for p, v in enumerate(new_nodes)}
    fixed: dict[int, int] = {}
    for t, a in net.mapping().items():
        if reused and move.k in t:
            continue
        fixed[_tuple_index([pos[v] for v in t], s_new)] = a
    fixed[_tuple_index([pos[v] for v in move.demanded()], s_new)] = move.b
    return new_nodes, fixed


def _ra_response_task(
    net: RaNetwork, move: RaMove
) -> tuple[tuple[int, ...], dict[int, int]]:
    reused = move.z in net.nodes
    new_nodes = net.nodes if reused else tuple(sorted(net.nodes + (move.z,)))
    s_new = len(new_nodes)
    pos = {v: p for p, v in enumerate(new_nodes)}
    fixed: dict[int, int] = {}
    for (u, v), a in net.mapping().items():
        if reused and move.z in (u, v):
            continue
        fixed[pos[u] * s_new + pos[v]] = a
    fixed[pos[move.x] * s_new + pos[move.z]] = move.a
    fixed[pos[move.z] * s_new + pos[move.y]] = move.b
    return new_nodes, fixed


def _check_response_matches(net, move, response) -> None:
    if isinstance(move, CaMove):
        reused = move.k in net.nodes
        expect_nodes = net.nodes if reused else tuple(sorted(net.nodes + (move.k,)))
        if response.nodes != expect_nodes:
            raise RuntimeError("response changes the node set beyond the demand")
        for t, a in net.mapping().items():
            if reused and move.k in t:
                continue
            if response.label(t) != a:
                raise RuntimeError("response rewrites a retained label")
        if response.label(move.demanded()) != move.b:
            raise RuntimeError("response does not deliver the demanded label")
    else:
        reused = move.z in net.nodes
        expect_nodes = net.nodes if reused else tuple(sorted(net.nodes + (move.z,)))
        if response.nodes != expect_nodes:
            raise RuntimeError("response changes the node set beyond the demand")
        for (u, v), a in net.mapping().items():
            if reused and move.z in (u, v):
                continue
            if response.label((u, v)) != a:
                raise RuntimeError("response rewrites a retained label")
        if response.label((move.x, move.z)) != move.a or response.label(
            (move.z, move.y)
        ) != move.b:
            raise RuntimeError("response does not deliver the demanded labels")


def _ca_responses(
    net: CaNetwork, move: CaMove, counter: _Counter
) -> Iterator[CaNetwork]:
    new_nodes, fixed = _ca_response_task(net, move)
    didx = _tuple_index(
        [new_nodes.index(v) for v in move.demanded()], len(new_nodes)
    )
    if not _check_fixed_slot(net.structure, new_nodes, fixed, didx):
        return
    yield from _ca_completions(net.structure, new_nodes, fixed, counter)


def _ra_responses(
    net: RaNetwork, move: RaMove, counter: _Counter
) -> Iterator[RaNetwork]:
    new_nodes, fixed = _ra_response_task(net, move)
    if not _check_fixed_ra(net.structure, len(new_nodes), fixed):
        return
    yield from _ra_completions(net.structure, new_nodes, fixed, counter)


def _enumeration(enumerate_, structure, nodes, fixed):
    """Every completion's labels with the state count at its yield, and
    the final state count."""
    counter = _Counter(10**12, "")
    out = [
        (net.labels, counter.states)
        for net in enumerate_(structure, nodes, fixed, counter)
    ]
    return out, counter.states


def _assert_same_enumeration(kind, structure, nodes, fixed):
    new = games._ca_completions if kind == "ca" else games._ra_completions
    old = _ca_completions if kind == "ca" else _ra_completions
    assert _enumeration(new, structure, nodes, fixed) == _enumeration(
        old, structure, nodes, fixed
    )


def _task_moves(spec):
    """(position, move) of every responder task one round from every
    opening, each move demanding atom 0."""
    st = spec.structure
    solver = games._Solver(spec, _Counter(10**12, ""))
    for net in solver.openings(0):
        if spec.variant == VARIANT_TRIANGLE:
            for x, y in itertools.product(net.nodes, repeat=2):
                for z in games._k_choices(spec, net, {x, y}):
                    yield net, RaMove(x, y, z, 0, 0)
        else:
            for face in itertools.product(net.nodes, repeat=st.dim - 1):
                for l in range(st.dim):
                    for k in games._k_choices(spec, net, set(face)):
                        yield net, CaMove(face, l, k, 0)


def _response_tasks(spec):
    """(nodes, fixed, demanded slots) of every responder task one round
    from every opening, with the demanded slots left free."""
    for net, move in _task_moves(spec):
        nodes, fixed, demanded = seed_games._response_task(net, move)
        for idx in demanded:
            del fixed[idx]
        yield nodes, fixed, demanded


@pytest.mark.parametrize(
    "spec",
    [
        GameSpec(VARIANT_FRESH, CS3, 1),
        GameSpec(VARIANT_REUSE, CS3, 1, pebbles=4),
        GameSpec(VARIANT_FRESH, drop_cyl_pair(CS3, 0, 1, 1), 1),
        GameSpec(VARIANT_FRESH, dataclasses.replace(CS3, transp=None), 1),
    ],
    ids=["fresh-cs3", "reuse-cs3", "fresh-drop011", "fresh-cs3-no-transp"],
)
def test_ca_completions_match_the_original(spec):
    st = spec.structure
    tasks = 0
    for nodes, fixed, (didx,) in _response_tasks(spec):
        tasks += 1
        _assert_same_enumeration("ca", st, nodes, fixed)
        # the demanded slot fixed to each atom, as a responder faces it
        for b in range(st.natoms):
            demand = {**fixed, didx: b}
            if _check_fixed_slot(st, nodes, demand, didx):
                _assert_same_enumeration("ca", st, nodes, demand)
    assert tasks > 0


# the complex algebra of the cyclic group of order 4: a in b;c iff a = b+c;
# unlike the graded algebras, two of its atoms are not self-converse
Z4 = RaAtomStructure.build(
    ("e", "g1", "g2", "g3"),
    [0],
    (0, 3, 2, 1),
    [
        (a, b, c)
        for a, b, c in itertools.product(range(4), repeat=3)
        if a != (b + c) % 4
    ],
)


@pytest.mark.parametrize(
    "structure",
    [HH313, BIN312, Z4],
    ids=["hh_ra(3,1,3)", "bin_forb(3,1,2)", "z4"],
)
def test_ra_completions_match_the_original(structure):
    spec = GameSpec(VARIANT_TRIANGLE, structure, 1, pebbles=3)
    tasks = 0
    for nodes, fixed, (i1, i2) in _response_tasks(spec):
        tasks += 1
        _assert_same_enumeration("ra", structure, nodes, fixed)
        for a, b in itertools.product(range(structure.natoms), repeat=2):
            _assert_same_enumeration(
                "ra", structure, nodes, {**fixed, i1: a, i2: b}
            )
    assert tasks > 0


# two identity atoms: the full relation algebra on two points, as the
# relation-algebra reduct of cs3, and the complex algebra of the groupoid
# with two objects, one with isotropy group Z2 and one alone (atoms e0, g0
# at the first object, e1 at the second; a in b;c iff a = b c)
TWO_POINTS = ra_reduct(CS3).ra
_GROUPOID_PRODUCT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0, (2, 2): 2}
GROUPOID = RaAtomStructure.build(
    ("e0", "g0", "e1"),
    [0, 2],
    (0, 1, 2),
    [
        (a, b, c)
        for a, b, c in itertools.product(range(3), repeat=3)
        if _GROUPOID_PRODUCT.get((b, c)) != a
    ],
)
# no relation algebra: a node labelled e1 breaks the triangle rule alone
E1_NOT_IDEMPOTENT = RaAtomStructure.build(("e0", "e1", "a"), [0, 1], (0, 1, 2), [(1, 1, 1)])


@pytest.mark.parametrize(
    "structure",
    [TWO_POINTS, GROUPOID, E1_NOT_IDEMPOTENT],
    ids=["two-points", "groupoid", "e1-not-idempotent"],
)
def test_ra_completions_with_several_identities_are_the_valid_networks(structure):
    assert len(structure.identity) == 2
    n, conv = structure.natoms, structure.converse
    for s in (1, 2, 3):
        nodes = tuple(range(s))
        got = [
            m.labels
            for m in games._ra_completions(structure, nodes, {}, _Counter(10**12, ""))
        ]
        # every labelling, in lexicographic order; the converse test only
        # skips labellings the validator rejects, to keep the scan short
        brute = [
            labels
            for labels in itertools.product(range(n), repeat=s * s)
            if all(
                labels[q * s + p] == conv[labels[p * s + q]]
                for p in range(s)
                for q in range(p, s)
            )
            and validate_network(RaNetwork(structure, nodes, labels)).passed
        ]
        assert got == brute and got


@pytest.mark.parametrize("structure", [TWO_POINTS, GROUPOID], ids=["two-points", "groupoid"])
def test_triangle_games_with_several_identities_are_solved(structure):
    # both algebras are representable, and solve replays the strategy it
    # returns as a structural check
    for a in range(structure.natoms):
        res = solve(GameSpec(VARIANT_TRIANGLE, structure, 2, pebbles=3), a)
        assert (res.winner, res.rounds_used) == (EXISTS, 2)


def test_completions_match_the_original_on_conflicting_fixed_slots():
    # a valid two-node network with one label swapped for an atom that
    # breaks the diagonal and cylindrifier rules, extended by a free node
    net = semantic_network(CS3, {0: 0, 1: 1})
    nodes = (0, 1, 2)
    fixed = {
        _tuple_index(t, 3): net.labels[_tuple_index(t, 2)]
        for t in _position_tuples(2, CS3.dim)
    }
    corner = _tuple_index((0, 0, 0), 3)
    bad = fixed[corner] = CS3.atoms.index(repr((1, 0, 1)))
    assert not _check_fixed_slot(CS3, nodes, fixed, corner)
    _assert_same_enumeration("ca", CS3, nodes, fixed)
    # left free, as the solver leaves a demanded slot, the corner never
    # takes the conflicting atom, so no response bucket holds it
    rest = {idx: a for idx, a in fixed.items() if idx != corner}
    counter = _Counter(10**12, "")
    completions = games._ca_completions(CS3, nodes, rest, counter)
    labels = {m.labels[corner] for m in completions}
    assert labels and bad not in labels
    # relation algebra: a mirror that is not the converse, and a triangle
    # whose fixed sides forbid every label of the free third side
    idx = BIN312.atoms.index
    ident, div, other = idx("Id"), idx("a^0(0,0)"), idx("a^1(0,0)")
    _assert_same_enumeration("ra", BIN312, (0, 1), {1: div, 2: other})
    triangle = {0: ident, 4: ident, 8: ident, 1: div, 5: div}
    _assert_same_enumeration("ra", BIN312, (0, 1, 2), triangle)


SUCCESSOR_SPECS = pytest.mark.parametrize(
    "spec",
    [
        GameSpec(VARIANT_FRESH, CS3, 1),
        GameSpec(VARIANT_REUSE, CS3, 1, pebbles=4),
        GameSpec(VARIANT_FRESH, drop_cyl_pair(CS3, 0, 1, 1), 1),
        GameSpec(VARIANT_FRESH, drop_cyl_pair(CS3, 0, 0, 4), 1),
        GameSpec(VARIANT_TRIANGLE, HH313, 1, pebbles=3),
        GameSpec(VARIANT_TRIANGLE, BIN312, 1, pebbles=3),
        GameSpec(VARIANT_TRIANGLE, Z4, 1, pebbles=3),
    ],
    ids=[
        "fresh-cs3",
        "reuse-cs3",
        "fresh-drop011",
        "fresh-drop004",
        "hh_ra(3,1,3)",
        "bin_forb(3,1,2)",
        "z4",
    ],
)


def _opening_and_next_positions(solver):
    """Every opening, and one position of each isomorphism class one round
    from the openings."""
    openings = solver.openings(0)
    after = {}
    for opening in openings:
        for _, bucket in solver.successors(opening):
            for m in bucket:
                after.setdefault(solver.canon(m)[0], m)
    assert openings and after
    return [*openings, *after.values()]


@SUCCESSOR_SPECS
def test_successors_match_the_original_moves_and_responses(spec):
    # at every opening and at one position of each isomorphism class one
    # round from the openings: the same demands in the same order, and
    # each bucket is the original response list, in order
    counter = _Counter(10**12, "")
    solver = games._Solver(spec, counter)
    if spec.variant == VARIANT_TRIANGLE:
        moves, responses = _ra_moves, _ra_responses
    else:
        moves, responses = _ca_moves, _ca_responses
    for net in _opening_and_next_positions(solver):
        got = list(solver.successors(net))
        assert [move for move, _ in got] == moves(spec, net, counter)[0]
        for move, bucket in got:
            want = responses(net, move, counter)
            assert [m.labels for m in bucket] == [m.labels for m in want]


@pytest.mark.parametrize(
    "spec, shared",
    [
        (GameSpec(VARIANT_FRESH, CS3, 2), False),
        (GameSpec(VARIANT_REUSE, CS3, 2, pebbles=4), True),
        (GameSpec(VARIANT_TRIANGLE, HH313, 2, pebbles=3), True),
    ],
    ids=["fresh-cs3", "reuse-cs3", "hh_ra(3,1,3)"],
)
def test_move_classes_enumerate_once_per_distinct_problem(spec, shared):
    # every position the search expands, expanded again by a fresh solver
    # whose completion enumerator records its problems
    searched = games._Solver(spec, _Counter(10**12, ""))
    for net in searched.openings(0):
        searched.value(net, spec.rounds)
    positions = [
        searched.network_type(spec.structure, nodes, labels)
        for nodes, labels in searched.succ
    ]
    solver = games._Solver(spec, _Counter(10**12, ""))
    enumerate_ = solver.complete
    calls = []

    def counting(structure, nodes, fixed, counter):
        calls.append((nodes, tuple(sorted(fixed.items()))))
        return enumerate_(structure, nodes, fixed, counter)

    solver.complete = counting
    problems = set()
    pairs = 0
    buckets = {}
    for net in positions:
        classes = solver.move_classes(net)
        pairs += len({cls.head.node for cls in classes})
        for cls in classes:
            nodes, pos, retained = games._retained_task(net, cls.head.node)
            problem = (nodes, tuple(sorted(retained.items())))
            problems.add(problem)
            slots = games._demanded_slots(pos, cls.head)
            # one bucket dict per problem and demanded slots, at every position
            assert buckets.setdefault((problem, slots), cls.buckets) is cls.buckets
    assert len(calls) == len(set(calls)) and set(calls) == problems
    assert len(positions) > 1
    if shared:
        assert len(calls) < pairs
    else:
        assert len(calls) == pairs


def _seed_response_task(net, move):
    if isinstance(move, CaMove):
        return _ca_response_task(net, move)
    return _ra_response_task(net, move)


def _solver_response_task(net, move):
    """Node set, fixed slots (the retained ones in slot order, then the
    demanded ones) and demanded slots of one demand, from the solver's
    own pair: games._retained_task and games._demanded_slots."""
    nodes, pos, retained = games._retained_task(net, move.node)
    assert pos == {v: p for p, v in enumerate(nodes)}
    demanded = games._demanded_slots(pos, move)
    assert not retained.keys() & set(demanded)
    fixed = dict(retained)
    fixed.update(zip(demanded, (a for _, a in move.slots())))
    return nodes, fixed, demanded


@SUCCESSOR_SPECS
def test_response_task_matches_the_seed(spec):
    tasks = 0
    for net, move in _task_moves(spec):
        tasks += 1
        nodes, fixed, demanded = _solver_response_task(net, move)
        want_nodes, want_fixed = _seed_response_task(net, move)
        assert nodes == want_nodes
        assert list(fixed.items()) == list(want_fixed.items())
        # the demanded slots, in the order of move.slots()
        assert demanded == tuple(
            _tuple_index([nodes.index(v) for v in t], len(nodes))
            for t, _ in move.slots()
        )
    assert tasks > 0


def _walk_checks(net, move, response) -> None:
    """The verification walk's checks of one response against one demand,
    in its order: node set and retained labels, then demanded labels."""
    nodes, pos, retained = games._retained_task(net, move.node)
    games._check_retained(response, nodes, retained)
    games._check_demanded(response, games._demanded_slots(pos, move), move)


def _match_outcome(check, net, move, response):
    """None when ``check`` accepts the response, else its error text."""
    try:
        check(net, move, response)
    except RuntimeError as exc:
        return str(exc)
    return None


def _corrupted_responses(net, move, response):
    """The response with a retained label rewritten, with a wrong label at
    each demanded slot in turn, and on a changed node set."""
    n = response.structure.natoms
    labels = list(response.labels)
    k = move.node
    retained = next(t for t in net.tuples() if k not in t)
    idx = list(response.tuples()).index(retained)
    labels[idx] = (labels[idx] + 1) % n
    yield "retained", dataclasses.replace(response, labels=tuple(labels))
    for slot, atom in move.slots():
        labels = list(response.labels)
        labels[list(response.tuples()).index(slot)] = (atom + 1) % n
        yield "demanded", dataclasses.replace(response, labels=tuple(labels))
    shifted = tuple(v + 1 for v in response.nodes)
    yield "nodes", dataclasses.replace(response, nodes=shifted)


CORRUPTION_ERRORS = {
    "retained": "response rewrites a retained label",
    "demanded": "response does not deliver the demanded label",
    "nodes": "response changes the node set beyond the demand",
}


@SUCCESSOR_SPECS
def test_check_response_matches_agrees_with_the_seed(spec):
    solver = games._Solver(spec, _Counter(10**12, ""))
    corrupted = {"retained": 0, "demanded": 0, "nodes": 0}
    for net in _opening_and_next_positions(solver):
        for move, bucket in solver.successors(net):
            assert _solver_response_task(net, move)[:2] == _seed_response_task(net, move)
            for m in bucket:
                assert _match_outcome(_walk_checks, net, move, m) is None
                assert _match_outcome(_check_response_matches, net, move, m) is None
            if not bucket:
                continue
            for what, bad in _corrupted_responses(net, move, bucket[0]):
                got = _match_outcome(_walk_checks, net, move, bad)
                assert got.startswith(CORRUPTION_ERRORS[what])
                assert got == _match_outcome(_check_response_matches, net, move, bad)
                corrupted[what] += 1
    assert all(corrupted.values())


def _strategy_entries(solver, strategy, rounds):
    """(position, renaming, demand, key) of every responder entry, in the
    order strategy verification checks them."""
    s0, labels0 = games._decode_labels(strategy["open"])
    opening = solver.network_type(solver.spec.structure, tuple(range(s0)), labels0)
    visited = set()
    entries = []

    def walk(net, r):
        if r == 0:
            return
        enc, pi = solver.canon(net)
        if (enc, r) in visited:
            return
        visited.add((enc, r))
        for move, _ in solver.successors(net):
            key = games._strategy_key(enc, pi, r, move)
            entries.append((net, pi, move, key))
            walk(games._decode_response(net, strategy[key], pi), r - 1)

    walk(opening, rounds)
    return entries


def _corrupted_strategies(solver, strategy, entries):
    """(strategy with one entry corrupted, the error type and text
    verification must raise): an encoding with one label too many or too
    few, an invalid network, a valid one that rewrites a retained label,
    and another demand's valid answer, which misses the demanded label."""
    # a label too many, and one too few where the dropped label is atom 0,
    # which a decoder padding with atom 0 would restore
    misfit = (ValueError, "response encoding does not fit the position")
    key = entries[0][3]
    yield {**strategy, key: strategy[key] + ",0"}, *misfit
    key = next(key for *_, key in entries if strategy[key].endswith(",0"))
    yield {**strategy, key: strategy[key][: -len(",0")]}, *misfit

    # the last entry's answer with the first label change that breaks it
    net, pi, _, key = entries[-1]
    response = games._decode_response(net, strategy[key], pi)
    for idx, a in itertools.product(
        range(len(response.labels)), range(response.structure.natoms)
    ):
        labels = response.labels[:idx] + (a,) + response.labels[idx + 1 :]
        bad = dataclasses.replace(response, labels=labels)
        report = validate_network(bad)
        if not report.passed:
            break
    text = f"strategy response is invalid: {report.violations[0]}"
    yield {**strategy, key: games._encode_response(net, bad, pi)}, RuntimeError, text

    counter = _Counter(10**12, "")
    for net, pi, move, key in entries:
        nodes, fixed, demanded = seed_games._response_task(net, move)
        asked = {idx: fixed[idx] for idx in demanded}
        # valid answers on the demand's node set that deliver the demanded
        # labels but differ from the position on a retained slot
        rewritten = [
            m
            for m in solver.complete(solver.spec.structure, nodes, asked, counter)
            if validate_network(m).passed
            and any(m.labels[idx] != a for idx, a in fixed.items())
        ]
        if rewritten:
            enc = games._encode_response(net, rewritten[0], pi)
            yield {**strategy, key: enc}, RuntimeError, "response rewrites a retained label"
            break
    else:
        raise AssertionError("no entry has a valid answer rewriting a retained label")

    # the last pair of consecutive demands of one head: the first one's
    # answer was validated earlier in the walk, and delivers another label
    slots = [[t for t, _ in move.slots()] for _, _, move, _ in entries]
    i = max(
        i
        for i in range(1, len(entries))
        if entries[i][0] is entries[i - 1][0] and slots[i] == slots[i - 1]
    )
    key1, key2 = entries[i - 1][3], entries[i][3]
    plural = "s" if len(slots[i]) > 1 else ""
    text = f"response does not deliver the demanded label{plural}"
    yield {**strategy, key2: strategy[key1]}, RuntimeError, text


@pytest.mark.parametrize(
    "spec",
    [
        GameSpec(VARIANT_FRESH, CS3, 2),
        GameSpec(VARIANT_TRIANGLE, BIN312, 2, pebbles=3),
    ],
    ids=["fresh-cs3", "bin_forb(3,1,2)"],
)
def test_verification_validates_each_network_once_and_checks_every_entry(
    spec, monkeypatch
):
    res = solve(spec, 0)
    assert res.winner == EXISTS
    solver = games._Solver(spec, _Counter(10**12, ""))
    entries = _strategy_entries(solver, res.strategy, spec.rounds)
    decoded = {
        (m.nodes, m.labels)
        for net, pi, _, key in entries
        for m in [games._decode_response(net, res.strategy[key], pi)]
    }
    assert len(decoded) < len(entries)
    validated = []
    monkeypatch.setattr(
        games,
        "validate_network",
        lambda net: validated.append(net) or validate_network(net),
    )
    games._verify_exists(solver, res.strategy, 0, spec.rounds)
    # the opening, then each distinct decoded network once
    assert len(validated) == 1 + len(decoded)
    for broken, error, text in _corrupted_strategies(solver, res.strategy, entries):
        with pytest.raises(error) as info:
            games._verify_exists(solver, broken, 0, spec.rounds)
        assert str(info.value) == text


def _differential_solves():
    """Fresh and reuse cs3 at 0-3 rounds from atoms 0 and 7, both
    drop_cyl_pair structures fresh and reuse at 1-3 rounds, and triangle
    games at 2-4 pebbles and 1-3 rounds on bin_forb(3,1,2), hh_ra(3,1,3)
    and hh_ra(3,2,3), but for the five largest of these."""
    for variant, pebbles in ((VARIANT_FRESH, None), (VARIANT_REUSE, 4)):
        for rounds, atom in itertools.product(range(4), (0, 7)):
            yield GameSpec(variant, CS3, rounds, pebbles=pebbles), atom
    for damaged in (drop_cyl_pair(CS3, 0, 0, 4), drop_cyl_pair(CS3, 0, 1, 1)):
        for variant, pebbles in ((VARIANT_FRESH, None), (VARIANT_REUSE, 4)):
            for rounds in (1, 2, 3):
                yield GameSpec(variant, damaged, rounds, pebbles=pebbles), 0
    hh323 = hh_ra(3, 2, 3)
    for structure in (BIN312, HH313, hh323):
        for pebbles, rounds in itertools.product((2, 3, 4), (1, 2, 3)):
            big = (structure is hh323 and pebbles > 2 and rounds > 1) or (
                structure is HH313 and (pebbles, rounds) == (4, 3)
            )
            if not big:
                yield GameSpec(VARIANT_TRIANGLE, structure, rounds, pebbles=pebbles), 0


def _solve_digest(res):
    """sha256 of the result's JSON without the state count."""
    d = res.to_dict()
    del d["stats"]["states_explored"]
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def test_shared_problems_give_the_per_position_results(monkeypatch):
    solves = list(_differential_solves())
    new = [solve(spec, atom) for spec, atom in solves]
    # the per-position enumeration and the per-entry walk in place of the
    # solver's own
    with monkeypatch.context() as patched:
        patched.setattr(games._Solver, "move_classes", seed_games.move_classes)
        patched.setattr(games, "_verify_exists_walk", seed_games._verify_exists_walk)
        old = [solve(spec, atom) for spec, atom in solves]
    assert len(solves) == 50
    fewer = 0
    for (spec, _), a, b in zip(solves, new, old):
        assert _solve_digest(a) == _solve_digest(b)
        assert a.stats.memo_hits == b.stats.memo_hits
        # a fresh game poses every problem once; the others share some
        if spec.variant == VARIANT_FRESH:
            assert a.stats.states_explored == b.stats.states_explored
        else:
            assert a.stats.states_explored <= b.stats.states_explored
        fewer += a.stats.states_explored < b.stats.states_explored
    assert fewer > 0


def _answer_for_another_node(solver, strategy, entries):
    """(strategy, error, text) in which two demands on two nodes of one
    position, one round from the end, get one answer: a valid answer to
    the first that also delivers the second's labels, but rewrites a label
    the second retains.  Nothing when no such pair exists (the fresh game
    demands one node per position)."""
    counter = _Counter(10**12, "")
    last = [entry for entry in entries if "|r1|" in entry[3]]
    for (net, pi, first, key1), (net2, _, later, key2) in itertools.combinations(last, 2):
        reused = first.node in net.nodes and later.node in net.nodes
        if net2 is not net or first.node == later.node or not reused:
            continue
        nodes, fixed, _ = seed_games._response_task(net, first)
        _, fixed2, demanded2 = seed_games._response_task(net, later)
        for m in solver.complete(solver.spec.structure, nodes, fixed, counter):
            labels = m.labels
            if (
                validate_network(m).passed
                and all(labels[idx] == fixed2[idx] for idx in demanded2)
                and any(labels[idx] != a for idx, a in fixed2.items())
            ):
                enc = games._encode_response(net, m, pi)
                text = "response rewrites a retained label"
                yield {**strategy, key1: enc, key2: enc}, RuntimeError, text
                return


@pytest.mark.parametrize(
    "spec, corruptions",
    [
        (GameSpec(VARIANT_FRESH, CS3, 2), 5),
        (GameSpec(VARIANT_REUSE, CS3, 3, pebbles=4), 6),
        (GameSpec(VARIANT_TRIANGLE, BIN312, 3, pebbles=3), 6),
        (GameSpec(VARIANT_TRIANGLE, HH313, 2, pebbles=3), 5),
    ],
    ids=["fresh-cs3", "reuse-cs3", "bin_forb(3,1,2)", "hh_ra(3,1,3)"],
)
def test_corrupted_strategies_raise_as_under_the_per_entry_walk(
    spec, corruptions, monkeypatch
):
    # the last corruption, where the spec has one, checks that an answer's
    # retained labels are matched per demanded node, not once per answer
    res = solve(spec, 0)
    assert res.winner == EXISTS
    solver = games._Solver(spec, _Counter(10**12, ""))
    entries = _strategy_entries(solver, res.strategy, spec.rounds)
    seen = 0
    for broken, error, text in itertools.chain(
        _corrupted_strategies(solver, res.strategy, entries),
        _answer_for_another_node(solver, res.strategy, entries),
    ):
        outcomes = []
        for walk in (games._verify_exists_walk, seed_games._verify_exists_walk):
            with monkeypatch.context() as patched:
                patched.setattr(games, "_verify_exists_walk", walk)
                with pytest.raises(error) as info:
                    games._verify_exists(solver, broken, 0, spec.rounds)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1] == (error, text)
        seen += 1
    assert seen == corruptions


def test_a_slot_that_is_its_own_transposition_partner_keeps_its_atom_fixed():
    # s_12 swaps (0,0,0) and (1,0,0), both in E_12: a tuple repeating a
    # node at positions 1 and 2 is its own partner and can carry neither
    x, y = CS3.atoms.index(repr((0, 0, 0))), CS3.atoms.index(repr((1, 0, 0)))
    transp = list(CS3.transp)
    rank = _pair_rank(1, 2, 3)
    perm = list(transp[rank])
    perm[x], perm[y] = y, x
    transp[rank] = tuple(perm)
    swapped = dataclasses.replace(CS3, transp=tuple(transp))
    spec = GameSpec(VARIANT_FRESH, swapped, 1)
    counter = _Counter(10**12, "")
    solver = games._Solver(spec, counter)
    openings = solver.openings(CS3.atoms.index(repr((1, 1, 1))))
    assert openings
    for net in openings:
        assert validate_network(net).passed
        # the original path checked only the demanded slot; its valid
        # responses are exactly the bucket
        for move, bucket in solver.successors(net):
            want = _ca_responses(net, move, counter)
            valid = [m.labels for m in want if validate_network(m).passed]
            assert [m.labels for m in bucket] == valid


def test_responses_to_a_move_that_is_no_demand_raise():
    spec = GameSpec(VARIANT_FRESH, CS3, 1)
    solver = games._Solver(spec, _Counter(10**12, ""))
    net = semantic_network(CS3, {0: 0, 1: 1, 2: 0})
    move, bucket = next(solver.successors(net))
    assert solver.responses(net, move) is bucket
    legal = {
        m.b
        for m, _ in solver.successors(net)
        if (m.face, m.l, m.k) == (move.face, move.l, move.k)
    }
    illegal = min(set(range(CS3.natoms)) - legal)
    for miss in (
        dataclasses.replace(move, b=illegal),
        dataclasses.replace(move, k=move.k + 1),
    ):
        with pytest.raises(RuntimeError, match="not a legal demand"):
            solver.responses(net, miss)


def test_slot_table_matches_tuple_index():
    s, dim = 2, 3
    table = games._ca_slot_table(s, dim)
    tuples = _position_tuples(s, dim)
    assert len(table) == len(tuples)
    for idx, t in enumerate(tuples):
        assert idx == _tuple_index(t, s)
        diag, cyl, transp = table[idx]
        assert diag == tuple(
            (i, j) for i in range(dim) for j in range(i + 1, dim) if t[i] == t[j]
        )
        assert cyl == tuple(
            (i, _tuple_index(t[:i] + (d,) + t[i + 1 :], s))
            for i in range(dim)
            for d in range(s)
            if d != t[i]
        )
        expected = []
        for i, j in itertools.combinations(range(dim), 2):
            u = list(t)
            u[i], u[j] = u[j], u[i]
            expected.append((_pair_rank(i, j, dim), _tuple_index(u, s)))
        assert transp == tuple(expected)
    # slot 2 is the tuple (0, 1, 0)
    assert table[2] == (
        ((0, 2),),
        ((0, 6), (1, 0), (2, 3)),
        ((0, 4), (1, 2), (2, 1)),
    )


# ---------------------------------------------------------------------------
# canonical form and strategy coding against the earlier code (seed_games)

_SEEDED = ("_canon_encoding", "_retained_task", "_encode_response", "_decode_response")


@pytest.mark.parametrize(
    "spec",
    [GameSpec(VARIANT_FRESH, CS3, r) for r in range(3)]
    + [GameSpec(VARIANT_REUSE, CS3, r, pebbles=4) for r in range(3)]
    + [GameSpec(VARIANT_TRIANGLE, BIN312, 2, pebbles=3)],
    ids=[f"fresh-cs3-r{r}" for r in range(3)]
    + [f"reuse-cs3-r{r}" for r in range(3)]
    + ["bin_forb(3,1,2)"],
)
def test_cached_renamings_match_the_earlier_code_on_every_solver_call(
    spec, monkeypatch
):
    # every call a pinned solve makes (search, extraction, verification)
    # is answered by both implementations, which must agree exactly
    calls = dict.fromkeys(_SEEDED, 0)
    for name in _SEEDED:

        def both(
            *args, name=name, new=getattr(games, name), old=getattr(seed_games, name)
        ):
            got = new(*args)
            assert got == old(*args)
            calls[name] += 1
            return got

        monkeypatch.setattr(games, name, both)
    res = solve(spec, 0)
    assert res.winner == EXISTS
    assert calls["_canon_encoding"] > 0
    assert all(calls.values()) == (spec.rounds > 0)


@pytest.mark.parametrize("arity", [2, 3])
def test_cached_renamings_match_the_earlier_code_on_random_labellings(arity):
    structure, network_type = (BIN312, RaNetwork) if arity == 2 else (CS3, CaNetwork)
    rng = random.Random(arity)
    for s in range(1, 6):
        for _ in range(12):
            nodes = tuple(sorted(rng.sample(range(8), s)))
            natoms = rng.randint(1, 3)  # few atoms: large tie groups
            labels = tuple(rng.randrange(natoms) for _ in range(s**arity))
            got = games._canon_encoding(nodes, labels, arity)
            assert got == seed_games._canon_encoding(nodes, labels, arity)
            net = network_type(structure, nodes, labels)
            pi = got[1]
            for k in nodes + (games._least_fresh(nodes),):
                task = games._retained_task(net, k)
                assert task == seed_games._retained_task(net, k)
                new_nodes = task[0]
                response = network_type(
                    structure,
                    new_nodes,
                    tuple(rng.randrange(natoms) for _ in range(len(new_nodes) ** arity)),
                )
                enc = games._encode_response(net, response, pi)
                assert enc == seed_games._encode_response(net, response, pi)
                decoded = games._decode_response(net, enc, pi)
                assert decoded == seed_games._decode_response(net, enc, pi) == response


@pytest.mark.parametrize("s", [5, 7])
def test_cached_renamings_match_the_earlier_code_on_a_cycle(s):
    # the distance labelling of an s-cycle: refinement leaves all s nodes
    # in one colour class.  The 5! renamings of a 5-cycle are searched and
    # the least encoding is not the stable order; the 7! of a 7-cycle
    # exceed the cap, so those nodes keep their stable order
    labels = tuple(min((q - p) % s, (p - q) % s) for p in range(s) for q in range(s))
    nodes = (0, 2, 3, 5, 8, 9, 11)[:s]
    got = games._canon_encoding(nodes, labels, 2)
    assert got == seed_games._canon_encoding(nodes, labels, 2)
    stable = (f"{s}:{','.join(map(str, labels))}", {v: p for p, v in enumerate(nodes)})
    assert (got == stable) == (math.factorial(s) > games._CANON_TIE_CAP)


# ---------------------------------------------------------------------------
# interactive play, transcripts, replay


def play_forall_with_scripted_indices() -> tuple:
    spec = GameSpec(VARIANT_FRESH, CS3, 1)
    inp = io.StringIO("zz\n99\n0\n" + "0\n" * 10)
    out = io.StringIO()
    transcript = play_interactive(
        spec, FORALL, 0, input_stream=inp, output_stream=out
    )
    return spec, transcript, out.getvalue()


def test_interactive_play_reprompts_and_lets_the_engine_win():
    _, transcript, printed = play_forall_with_scripted_indices()
    assert "not a number; try again" in printed
    assert "index out of range; try again" in printed
    assert transcript.winner == EXISTS
    assert not transcript.resigned
    kinds = [(e["kind"], e["actor"]) for e in transcript.events]
    assert kinds == [
        ("open", EXISTS),
        ("demand", FORALL),
        ("respond", EXISTS),
    ]
    assert f"winner: {EXISTS}" in printed


def test_option_listings_show_at_most_50_and_count_the_rest():
    # the second demand of this play has 104 options
    spec = GameSpec(VARIANT_TRIANGLE, HH313, 2, pebbles=3)
    out = io.StringIO()
    play_interactive(
        spec, FORALL, 0, input_stream=io.StringIO("1\n1\n"), output_stream=out
    )
    listings = re.findall(
        r"pick a demand:\n(.*?)your choice \(0\.\.(\d+), or resign\):",
        out.getvalue(),
        re.S,
    )
    assert [int(last) + 1 for _, last in listings] == [7, 104]
    for body, last in listings:
        n = int(last) + 1
        lines = body.splitlines()
        assert [line.split("]")[0] for line in lines[:50]] == [
            f"[{i}" for i in range(min(n, 50))
        ]
        if n > 50:
            assert lines[50:] == [
                f"... {n - 50} more (any index up to {n - 1} accepted)"
            ]
        else:
            assert len(lines) == n


def test_interactive_play_resignation_concedes():
    spec = GameSpec(VARIANT_FRESH, CS3, 1)
    transcript = play_interactive(
        spec,
        EXISTS,
        0,
        input_stream=io.StringIO("resign\n"),
        output_stream=io.StringIO(),
    )
    assert transcript.winner == FORALL
    assert transcript.resigned
    assert transcript.events[-1]["kind"] == "resign"


def test_interactive_play_validates_the_side():
    with pytest.raises(ValueError, match="side must be"):
        play_interactive(
            GameSpec(VARIANT_FRESH, CS3, 1),
            "Referee",
            0,
            input_stream=io.StringIO(""),
            output_stream=io.StringIO(),
        )


def test_transcript_json_round_trip():
    _, transcript, _ = play_forall_with_scripted_indices()
    text = transcript_to_json(transcript)
    assert transcript_from_json(text) == transcript
    assert json.loads(text)["winner"] == EXISTS


def test_replay_reproduces_the_recorded_play():
    spec, transcript, _ = play_forall_with_scripted_indices()
    net = replay_transcript(spec, transcript)
    assert net is not None
    assert net.nodes == transcript.final_nodes
    assert net.labels == transcript.final_labels
    assert validate_network(net).passed


def test_replay_rejects_a_mismatched_spec():
    spec, transcript, _ = play_forall_with_scripted_indices()
    other = GameSpec(VARIANT_FRESH, CS3, 2)
    with pytest.raises(ValueError, match="does not match the game specification"):
        replay_transcript(other, transcript)


def test_replay_detects_a_tampered_record():
    spec, transcript, _ = play_forall_with_scripted_indices()
    wrong_atom = (CS3.natoms - 1,) * len(transcript.final_labels)
    forged = dataclasses.replace(transcript, final_labels=wrong_atom)
    with pytest.raises(RuntimeError, match="replay"):
        replay_transcript(spec, forged)
    truncated = dataclasses.replace(
        transcript,
        events=tuple(e for e in transcript.events if e["actor"] != FORALL),
    )
    with pytest.raises(ValueError, match="transcript ended before the play did"):
        replay_transcript(spec, truncated)


def test_network_to_dot_renders_nodes_and_edges():
    net = semantic_network(CS3, {0: 0, 1: 1})
    dot = network_to_dot(net)
    assert dot.startswith("graph network {")
    assert dot.rstrip().endswith("}")
    assert 'n0 [label="0"];' in dot
    assert "n0 -- n1" in dot
    assert "// full labelling:" in dot  # arity three lists every tuple
    idx = BIN312.atoms.index
    ra_net = RaNetwork(
        BIN312, (0, 1), (idx("Id"), idx("a^0(0,0)"), idx("a^0(0,0)"), idx("Id"))
    )
    ra_dot = network_to_dot(ra_net)
    assert "a^0(0,0)" in ra_dot and "// full labelling:" not in ra_dot


@pytest.mark.parametrize(
    "spec",
    [
        GameSpec(VARIANT_FRESH, CS3, 2),
        GameSpec(VARIANT_FRESH, games.drop_cyl_pair(CS3, 0, 0, 4), 2),
        GameSpec(VARIANT_TRIANGLE, BIN312, 2, pebbles=3),
    ],
    ids=["fresh-cs3", "fresh-drop04", "triangle-bin312"],
)
def test_solve_leaves_no_garbage_for_the_cyclic_collector(spec):
    # responder wins on cs3 and the triangle game, challenger on the damaged
    # cs3: no reference cycle keeps the solver alive past its return
    want = solve(spec, 0)  # fills the module caches
    gc.collect()
    gc.disable()
    try:
        got = solve(spec, 0)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0
    assert got.to_dict() == want.to_dict()

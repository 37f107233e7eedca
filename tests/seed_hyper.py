"""The earlier hyperbasis checkers, kept as oracles.

`validate_hypernetwork`, `_agrees_off` and the five rule generators are the
first code, unchanged: every agreement test scans two networks' labels and
every symbol lookup scans a network's `hyper` entries.  `rename` is the
earlier `HyperNetwork.rename`, a method `cylkit.hyper` no longer has; the
symmetry rule here and the tests call it.  `is_hyperbasis` runs the rules
as `cylkit.hyper.is_hyperbasis` does.

`_Index`, `_indexed_cylindrifier_defects` and `_indexed_amalgamation_defects`
are the keyed checker that came next, unchanged but for the two names: one
key per network and excluded node set, networks grouped by their key off
{z} by hand, and the amalgamation rule comparing the keys of every pair of
networks.  Fast enough for a few hundred networks, it is the oracle where
the scanning rules are too slow.  `cylkit.hyper` must list the same defects
in the same order as both.

`_column_cylindrifier_defects` and `_column_amalgamation_defects` are the
rules that read the structure builder's column tables next, unchanged but
for the two names and for reading `after` from `seed_operators`: the
cylindrifier rule finds each class of T_z by a per-network `None` test and
the bits of its column, and the amalgamation rule takes one mask
difference per network and node pair.

`enumerate_hypernetworks` is the earlier enumeration, unchanged: its own
backtracker over ordered pair slots, a pair-substitution filter, and a
union-find over the tuples for the symbol classes.  It accepts any
structure; on those that satisfy the identity law `cylkit.hyper` must
return the same networks in the same order.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations, product
from operator import or_
from typing import Iterator, Sequence

import seed_operators
from cylkit.bao import AdditiveOperator, BudgetExceededError, _bits
from cylkit.constructions import Tuples, _classes_off
from cylkit.hyper import (
    DEFAULT_ENUM_BUDGET,
    HyperbasisReport,
    HyperNetwork,
    _flat_labels,
    _hyper_tuples,
)
from cylkit.ra import RaAtomStructure


def rename(self: HyperNetwork, sigma: Sequence[int]) -> HyperNetwork:
    """The hypernetwork t -> self(sigma composed with t)."""
    m = self.m
    pairs = tuple(
        self.pair(sigma[x], sigma[y]) for x in range(m) for y in range(m)
    )
    hyper = tuple(
        sorted((t, self.hyper_label(tuple(sigma[v] for v in t))) for t, _ in self.hyper)
    )
    return HyperNetwork(m, self.n_wide, pairs, hyper)


def validate_hypernetwork(
    ra: RaAtomStructure, net: HyperNetwork
) -> tuple[bool, str | None]:
    """Identity diagonal, triangle consistency, and substitution coherence."""
    m = net.m
    for x in range(m):
        if net.pair(x, x) not in ra.identity:
            return False, f"pair ({x},{x}) is not an identity atom"
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if not ra.consistent(net.pair(x, y), net.pair(x, z), net.pair(z, y)):
                    return False, f"triangle ({x},{y}) via {z} is inconsistent"
    tuples = _hyper_tuples(m, net.n_wide) + [
        (x, y) for x in range(m) for y in range(m)
    ]
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for t in tuples:
        by_len.setdefault(len(t), []).append(t)
    for length, ts in by_len.items():
        for s in ts:
            for t in ts:
                if all(net.pair(a, b) in ra.identity for a, b in zip(s, t)):
                    if net.label(s) != net.label(t):
                        return False, f"substitution fails between {s} and {t}"
    return True, None


def _agrees_off(a: HyperNetwork, b: HyperNetwork, excluded: frozenset[int]) -> bool:
    m = a.m
    for x in range(m):
        for y in range(m):
            if x in excluded or y in excluded:
                continue
            if a.pair(x, y) != b.pair(x, y):
                return False
    for t, v in a.hyper:
        if any(node in excluded for node in t):
            continue
        if b.hyper_label(t) != v:
            return False
    return True


def _member_defects(ra: RaAtomStructure, nets: Sequence[HyperNetwork]) -> Iterator[str]:
    for idx, h in enumerate(nets):
        ok, why = validate_hypernetwork(ra, h)
        if not ok:
            yield f"network {idx}: {why}"


def _witness_defects(ra: RaAtomStructure, nets: Sequence[HyperNetwork]) -> Iterator[str]:
    if nets[0].m >= 2:
        for a in range(ra.natoms):
            if not any(h.pair(0, 1) == a for h in nets):
                yield f"no network labels (0,1) with atom {a}"


def _cylindrifier_defects(
    ra: RaAtomStructure, nets: Sequence[HyperNetwork]
) -> Iterator[str]:
    m = nets[0].m
    for h in nets:
        for x in range(m):
            for y in range(m):
                for z in range(m):
                    if z in (x, y):
                        continue
                    for a in range(ra.natoms):
                        for b in range(ra.natoms):
                            if ra.consistent(h.pair(x, y), a, b) and not any(
                                g.pair(x, z) == a
                                and g.pair(z, y) == b
                                and _agrees_off(g, h, frozenset((z,)))
                                for g in nets
                            ):
                                yield (
                                    f"no witness for ({x},{y}) via {z} "
                                    f"with atoms ({a},{b})"
                                )


def _amalgamation_defects(nets: Sequence[HyperNetwork]) -> Iterator[str]:
    m = nets[0].m
    for hi, h in enumerate(nets):
        for gi, g in enumerate(nets):
            for x in range(m):
                for y in range(m):
                    if _agrees_off(h, g, frozenset((x, y))) and not any(
                        _agrees_off(h, mid, frozenset((x,)))
                        and _agrees_off(mid, g, frozenset((y,)))
                        for mid in nets
                    ):
                        yield f"networks {hi},{gi} agree off ({x},{y}) but have no amalgam"


def _symmetry_defects(nets: Sequence[HyperNetwork]) -> Iterator[str]:
    m = nets[0].m
    net_set = set(nets)
    for h in nets:
        for sigma in product(range(m), repeat=m):
            if rename(h, sigma) not in net_set:
                yield f"renaming by {sigma} leaves the set"


class _Index:
    """One call's view of a set of networks of one shape.

    `flat[i]` is network i's labels as one tuple (`_flat_labels`), and
    `off[S][i]` its key off the node set S, for every S of one or two nodes:
    its labels on the pairs and tuples that avoid S.  The networks list
    their tuples in one order, so two of them agree off S iff their keys
    are equal.
    """

    def __init__(self, nets: Sequence[HyperNetwork]) -> None:
        m = nets[0].m
        self.m = m
        self.tuples = [t for t, _ in nets[0].hyper]
        self.flat = [_flat_labels(h) for h in nets]
        self.off: dict[frozenset[int], list[tuple[int, ...]]] = {}
        for excluded in {frozenset((x, y)) for x in range(m) for y in range(m)}:
            keep = [x * m + y for x in range(m) for y in range(m) if excluded.isdisjoint((x, y))]
            keep += [m * m + k for k, t in enumerate(self.tuples) if excluded.isdisjoint(t)]
            self.off[excluded] = [tuple(map(f.__getitem__, keep)) for f in self.flat]


def _indexed_cylindrifier_defects(ra: RaAtomStructure, ix: _Index) -> Iterator[str]:
    m = ix.m
    # peers[z][i]: the networks that agree with network i off node z
    peers = []
    for z in range(m):
        keys = ix.off[frozenset((z,))]
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for key, g in zip(keys, ix.flat):
            groups.setdefault(key, []).append(g)
        peers.append([groups[key] for key in keys])
    for hi, h in enumerate(ix.flat):
        for x in range(m):
            for y in range(m):
                pairs = ra._consistent_pairs[h[x * m + y]]
                for z in range(m):
                    if z in (x, y):
                        continue
                    witnessed = {(g[x * m + z], g[z * m + y]) for g in peers[z][hi]}
                    for a, b in pairs:
                        if (a, b) not in witnessed:
                            yield f"no witness for ({x},{y}) via {z} with atoms ({a},{b})"


def _indexed_amalgamation_defects(ix: _Index) -> Iterator[str]:
    m = ix.m
    off = ix.off
    # for x == y, h itself is an amalgam of h and g
    rows = [
        (
            x,
            y,
            off[frozenset((x, y))],
            off[frozenset((x,))],
            off[frozenset((y,))],
            set(zip(off[frozenset((x,))], off[frozenset((y,))])),
        )
        for x in range(m)
        for y in range(m)
        if x != y
    ]
    count = len(ix.flat)
    for hi in range(count):
        for gi in range(count):
            for x, y, off_xy, off_x, off_y, amalgams in rows:
                if off_xy[hi] == off_xy[gi] and (off_x[hi], off_y[gi]) not in amalgams:
                    yield f"networks {hi},{gi} agree off ({x},{y}) but have no amalgam"


def is_hyperbasis(
    ra: RaAtomStructure, networks: Sequence[HyperNetwork]
) -> HyperbasisReport:
    nets = list(networks)
    if not nets:
        return HyperbasisReport(False, (("member", "empty set"),))
    if any(h.m != nets[0].m or h.n_wide != nets[0].n_wide for h in nets):
        return HyperbasisReport(False, (("member", "mixed shapes"),))
    rules = (
        ("member", _member_defects(ra, nets)),
        ("witness", _witness_defects(ra, nets)),
        ("cylindrifier", _cylindrifier_defects(ra, nets)),
        ("amalgamation", _amalgamation_defects(nets)),
        ("symmetry", _symmetry_defects(nets)),
    )
    violations = tuple(
        (rule, detail)
        for rule, defects in rules
        if (detail := next(defects, None)) is not None
    )
    return HyperbasisReport(not violations, violations)


def _column_cylindrifier_defects(
    ra: RaAtomStructure, m: int, flat: Tuples, cyl: Tuples
) -> Iterator[str]:
    # for z not in (x, y), h's (x,y) label and its peers off z are those of
    # its whole class of T_z, so gaps[z][h][x * m + y], the pairs consistent
    # with that label that no peer carries at ((x,z), (z,y)), is built once
    # per class
    gaps: list[list] = [[None] * len(flat) for _ in range(m)]
    for z, hi in product(range(m), range(len(flat))):
        if gaps[z][hi] is None:
            members = list(_bits(cyl[z][hi]))
            row = []
            for x, y in product(range(m), repeat=2):
                if z in (x, y):
                    row.append(())
                    continue
                witnessed = {(flat[g][x * m + z], flat[g][z * m + y]) for g in members}
                pairs = ra._consistent_pairs[flat[hi][x * m + y]]
                row.append(tuple(p for p in pairs if p not in witnessed))
            for g in members:
                gaps[z][g] = row
    for hi in range(len(flat)):
        for x, y, z in product(range(m), repeat=3):
            for a, b in gaps[z][hi][x * m + y]:
                yield f"no witness for ({x},{y}) via {z} with atoms ({a},{b})"


def _column_amalgamation_defects(m: int, slots: Tuples, flat: Tuples, cyl: Tuples) -> Iterator[str]:
    # an amalgam of h and g is a k with k T_x h and k T_y g, so one exists
    # iff g is in (T_y after T_x)(h); for x == y, h itself is one
    ops = [AdditiveOperator(cols) for cols in cyl]
    agree = {frozenset(p): _classes_off(slots, flat, set(p)) for p in combinations(range(m), 2)}
    rows = [
        (x, y, agree[frozenset((x, y))], seed_operators.after(ops[y], ops[x]))
        for x, y in permutations(range(m), 2)
    ]
    for hi in range(len(flat)):
        gaps = [(x, y, off[hi] & ~reach[hi]) for x, y, off, reach in rows]
        for gi in _bits(reduce(or_, (gap for _, _, gap in gaps), 0)):
            for x, y, gap in gaps:
                if gap >> gi & 1:
                    yield f"networks {hi},{gi} agree off ({x},{y}) but have no amalgam"


def enumerate_hypernetworks(
    ra: RaAtomStructure,
    m: int,
    n_wide: int,
    symbols: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[HyperNetwork, ...]:
    """All hypernetworks on m nodes, width n_wide, over `symbols` symbols.

    Pair labellings are found by backtracking over ordered pair slots with
    incremental triangle pruning; symbol labels then range freely over the
    substitution classes of the remaining tuples.  Refuses when the output
    would exceed the budget.
    """
    if not 1 <= m <= 4:
        raise ValueError("m must be in 1..4")
    if not 2 <= n_wide <= m + 1:
        raise ValueError("n_wide must be in 2..m+1")
    if not 1 <= symbols <= 3:
        raise ValueError("symbol alphabet size must be in 1..3")
    slots = [(x, y) for x in range(m) for y in range(m)]
    id_mask = sum(1 << a for a in ra.identity)
    values: list[int] = []

    def entry(x: int, y: int) -> int | None:
        s = x * m + y
        return values[s] if s < len(values) else None

    def ok_after(last: int) -> bool:
        x0, y0 = slots[last]
        for z in range(m):
            for (px, py), (qx, qy), (rx, ry) in (
                ((x0, y0), (x0, z), (z, y0)),
                ((x0, z), (x0, y0), (y0, z)),
                ((z, y0), (z, x0), (x0, y0)),
            ):
                a, b, c = entry(px, py), entry(qx, qy), entry(rx, ry)
                if a is None or b is None or c is None:
                    continue
                if not ra.consistent(a, b, c):
                    return False
        return True

    pair_sets: list[tuple[int, ...]] = []

    def rec(slot: int) -> None:
        if slot == len(slots):
            pair_sets.append(tuple(values))
            return
        x, y = slots[slot]
        for v in range(ra.natoms):
            if x == y and not (id_mask >> v) & 1:
                continue
            values.append(v)
            if ok_after(slot):
                rec(slot + 1)
            values.pop()

    rec(0)

    hyper_tuples = _hyper_tuples(m, n_wide)
    out: list[HyperNetwork] = []
    total = 0
    for pv in pair_sets:
        net_pairs = pv

        def pair(x: int, y: int) -> int:
            return net_pairs[x * m + y]

        # substitution coherence among pairs
        ok = True
        for x0 in range(m):
            for y0 in range(m):
                for x1 in range(m):
                    for y1 in range(m):
                        if (
                            (id_mask >> pair(x0, x1)) & 1
                            and (id_mask >> pair(y0, y1)) & 1
                            and pair(x0, y0) != pair(x1, y1)
                        ):
                            ok = False
        if not ok:
            continue

        # classes of tuples forced equal by pointwise identity links
        parent = {t: t for t in hyper_tuples}

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        for s in hyper_tuples:
            for t in hyper_tuples:
                if len(s) == len(t) and all(
                    (id_mask >> pair(a, b)) & 1 for a, b in zip(s, t)
                ):
                    rs, rt = find(s), find(t)
                    if rs != rt:
                        parent[max(rs, rt)] = min(rs, rt)
        roots = sorted({find(t) for t in hyper_tuples})
        count = symbols ** len(roots)
        total += count
        if total > budget:
            raise BudgetExceededError(
                f"hypernetwork enumeration needs more than {budget} networks"
            )
        for assign in product(range(symbols), repeat=len(roots)):
            sym = {root: v for root, v in zip(roots, assign)}
            hyper = tuple(sorted((t, sym[find(t)]) for t in hyper_tuples))
            out.append(HyperNetwork(m, n_wide, pv, hyper))
    out.sort(key=lambda h: (h.pairs, h.hyper))
    return tuple(out)

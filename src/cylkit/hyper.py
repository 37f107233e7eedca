"""Hypernetworks over a relation-algebra atom structure.

A hypernetwork labels pairs of nodes with atoms and all other short tuples
with symbols from a fixed auxiliary alphabet, subject to identity, triangle,
and substitution coherence.  A set of them closed under witnessing,
cylindrifier responses, amalgamation, and node maps induces a
cylindric-style structure whose atoms are the hypernetworks themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .bao import BudgetExceededError, CaAtomStructure, class_columns
from .ra import RaAtomStructure

DEFAULT_ENUM_BUDGET = 200_000


@dataclass(frozen=True)
class HyperNetwork:
    """Labelling of tuples over m nodes up to width n_wide.

    pairs holds atom indices for ordered node pairs in row-major order;
    hyper holds (tuple, symbol index) entries, sorted, for every tuple of
    length other than 2 up to the width.
    """

    m: int
    n_wide: int
    pairs: tuple[int, ...]
    hyper: tuple[tuple[tuple[int, ...], int], ...]

    def pair(self, x: int, y: int) -> int:
        return self.pairs[x * self.m + y]

    def hyper_label(self, t: tuple[int, ...]) -> int:
        for key, v in self.hyper:
            if key == t:
                return v
        raise KeyError(f"tuple {t} not labelled")

    def label(self, t: tuple[int, ...]):
        if len(t) == 2:
            return ("atom", self.pair(t[0], t[1]))
        return ("sym", self.hyper_label(t))

    def rename(self, sigma: Sequence[int]) -> "HyperNetwork":
        """The hypernetwork t -> self(sigma composed with t)."""
        m = self.m
        pairs = tuple(
            self.pair(sigma[x], sigma[y]) for x in range(m) for y in range(m)
        )
        hyper = tuple(
            sorted((t, self.hyper_label(tuple(sigma[v] for v in t))) for t, _ in self.hyper)
        )
        return HyperNetwork(m, self.n_wide, pairs, hyper)


def _hyper_tuples(m: int, n_wide: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for length in range(n_wide + 1):
        if length == 2:
            continue
        out.extend(product(range(m), repeat=length))
    return out


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


@dataclass(frozen=True)
class HyperbasisReport:
    passed: bool
    violations: tuple[tuple[str, str], ...]

    def violation(self, rule: str) -> str | None:
        for r, detail in self.violations:
            if r == rule:
                return detail
        return None


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
            if h.rename(sigma) not in net_set:
                yield f"renaming by {sigma} leaves the set"


def is_hyperbasis(
    ra: RaAtomStructure, networks: Sequence[HyperNetwork]
) -> HyperbasisReport:
    """Witness, cylindrifier, amalgamation, and node-map closure checks,
    each reporting its first violation."""
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


def ca_over_hyperbasis(
    ra: RaAtomStructure, networks: Sequence[HyperNetwork]
) -> CaAtomStructure:
    """Cylindric-style structure whose atoms are the hyperbasis networks.

    Relation i joins networks agreeing away from node i, the (i,j) diagonal
    collects networks with an identity label at (i,j), and transpositions
    act by swapping the two nodes.
    """
    report = is_hyperbasis(ra, networks)
    if not report.passed:
        rule, detail = report.violations[0]
        raise ValueError(f"not a hyperbasis ({rule}: {detail})")
    nets = sorted(networks, key=lambda h: (h.pairs, h.hyper))
    m = nets[0].m
    if m < 2:
        raise ValueError("need at least two nodes to form a structure")
    index = {h: i for i, h in enumerate(nets)}
    labels = tuple(repr((h.pairs, h.hyper)) for h in nets)
    cyl = []
    for i in range(m):
        # networks agree away from node i iff their labels off node i match
        groups: dict[tuple, list[int]] = {}
        for a, h in enumerate(nets):
            off = (
                tuple(h.pair(x, y) for x in range(m) for y in range(m) if i not in (x, y)),
                tuple((t, v) for t, v in h.hyper if i not in t),
            )
            groups.setdefault(off, []).append(a)
        cyl.append(class_columns(len(nets), groups.values()))
    diag = tuple(
        tuple(
            frozenset(a for a, h in enumerate(nets) if h.pair(i, j) in ra.identity)
            for j in range(m)
        )
        for i in range(m)
    )
    transp = []
    for i in range(m):
        for j in range(i + 1, m):
            sigma = list(range(m))
            sigma[i], sigma[j] = j, i
            transp.append(tuple(1 << index[h.rename(sigma)] for h in nets))
    return CaAtomStructure(
        dim=m, atoms=labels, cyl=tuple(cyl), diag=diag, transp=tuple(transp)
    )

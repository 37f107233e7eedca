"""Hypernetworks over a relation-algebra atom structure.

A hypernetwork labels pairs of nodes with atoms and all other short tuples
with symbols from a fixed auxiliary alphabet, subject to identity, triangle,
and substitution coherence.  A set of them closed under witnessing,
cylindrifier responses, amalgamation, and node maps induces a
cylindric-style structure whose atoms are the hypernetworks themselves:
`ca_over_hyperbasis` reads its T, E and P off the networks' flat labels
with the one builder of `constructions`, `_agreement` and `_swaps`.

`enumerate_hypernetworks` works over structures that satisfy the identity
law and refuses the others.  Its pair labellings are the networks of
`ra._network_labellings`, the one relation-algebra network search; its
symbol classes are read off the classes of identity-linked nodes.
`validate_hypernetwork` stays an independent check of all three
coherence conditions.

`is_hyperbasis` reads the networks through an index it builds once per
call and drops on return.  Networks of one shape list their tuples in one
order, so every label has a fixed position.  For each excluded node set S
({z} and {x,y}) each network gets one key, its labels on the pairs and
tuples that avoid S, and "g agrees with h off S" is a key comparison.  The
cylindrifier rule groups the networks by their key off {z}; the
amalgamation rule keeps, for each x != y, the set of (key off {x}, key off
{y}) pairs of all networks; the symmetry rule renames a network by reading
its labels at precomputed positions.  For N networks on m nodes a call
builds about N*m^2 keys and makes at most N^2*m^2 key comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .bao import BudgetExceededError, CaAtomStructure
from .constructions import _agreement, _swaps
from .ra import RaAtomStructure, _network_labellings

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


def _hyper_tuples(m: int, n_wide: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for length in range(n_wide + 1):
        if length == 2:
            continue
        out.extend(product(range(m), repeat=length))
    return out


def _flat_labels(h: HyperNetwork) -> tuple[int, ...]:
    """The pair labels in row-major order, then the symbols in `hyper` order."""
    return h.pairs + tuple(v for _, v in h.hyper)


def _renaming(m: int, tuples: Sequence[tuple[int, ...]], sigma: Sequence[int]) -> list[int]:
    """For each position of the flat labels renamed by sigma, the position
    it reads in the flat labels of a network listing `tuples`."""
    where = {t: m * m + k for k, t in enumerate(tuples)}
    return [sigma[x] * m + sigma[y] for x in range(m) for y in range(m)] + [
        where[tuple(sigma[v] for v in t)] for t in tuples
    ]


def validate_hypernetwork(
    ra: RaAtomStructure, net: HyperNetwork
) -> tuple[bool, str | None]:
    """Identity diagonal, triangle consistency, and substitution coherence.

    Substitution is checked between each tuple s and the tuples t of its
    length with every net(s_k, t_k) an identity atom, enumerated from the
    nodes each node is identity-linked to.
    """
    m = net.m
    for x in range(m):
        if net.pair(x, x) not in ra.identity:
            return False, f"pair ({x},{x}) is not an identity atom"
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if not ra.consistent(net.pair(x, y), net.pair(x, z), net.pair(z, y)):
                    return False, f"triangle ({x},{y}) via {z} is inconsistent"
    linked = [[b for b in range(m) if net.pair(a, b) in ra.identity] for a in range(m)]
    symbols = dict(net.hyper)
    atoms = {(x, y): net.pair(x, y) for x in range(m) for y in range(m)}
    for length in [k for k in range(net.n_wide + 1) if k != 2] + [2]:
        label = atoms if length == 2 else symbols
        for s in product(range(m), repeat=length):
            for t in product(*(linked[v] for v in s)):
                if label[s] != label[t]:
                    return False, f"substitution fails between {s} and {t}"
    return True, None


def enumerate_hypernetworks(
    ra: RaAtomStructure,
    m: int,
    n_wide: int,
    symbols: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[HyperNetwork, ...]:
    """All hypernetworks on m nodes, width n_wide, over `symbols` symbols,
    sorted by (pairs, hyper).

    The structure must satisfy the identity law, 1';a = a;1' = a for every
    atom a; one that breaks it is refused with a ValueError before any
    search.  (`RaAtomStructure` enforces the converse and Peircean laws;
    associativity is not needed.)  The pair labellings are those of
    `ra._network_labellings`, which yields them sorted: it fills the slots
    (p, q), p <= q, in row-major order, and each (q, p) is the converse of
    (p, q), which comes before it.  Under the identity law, "the pair (x, y) is
    labelled with an identity atom" is an equivalence on the nodes of each
    of them, and linked nodes carry equal pair labels.  So pair
    substitution holds, and two tuples must share a symbol iff they have
    linked nodes at each place: a tuple's symbol class is the tuple of the
    least nodes linked to its nodes.  The symbols range freely over the
    classes.  Refuses when the output would exceed the budget.
    """
    if not 1 <= m <= 4:
        raise ValueError("m must be in 1..4")
    if not 2 <= n_wide <= m + 1:
        raise ValueError("n_wide must be in 2..m+1")
    if not 1 <= symbols <= 3:
        raise ValueError("symbol alphabet size must be in 1..3")
    # 1';a = a for every atom a; by Peircean closure a;1' = a follows
    for a in range(ra.natoms):
        left = 0
        for e in ra.identity:
            left |= ra.comp_row(e, a)
        if left != 1 << a:
            raise ValueError(
                f"structure breaks the identity law 1';a = a;1' = a at atom {ra.atoms[a]}"
            )
    tuples = sorted(_hyper_tuples(m, n_wide))
    # per node partition, given by the least node linked to each node: the
    # number of symbol classes and the class of each tuple, classes in the
    # order of their least tuples, so that `product` lists each labelling's
    # networks in sorted order
    classes: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    out: list[HyperNetwork] = []
    total = 0
    for pairs in _network_labellings(ra, m, {}, lambda: None):
        rep = tuple(
            next(u for u in range(m) if pairs[v * m + u] in ra.identity) for v in range(m)
        )
        if rep not in classes:
            keys = [tuple(rep[v] for v in t) for t in tuples]
            where = {key: k for k, key in enumerate(sorted(set(keys)))}
            classes[rep] = (len(where), [where[key] for key in keys])
        count, of = classes[rep]
        total += symbols**count
        if total > budget:
            raise BudgetExceededError(
                f"hypernetwork enumeration needs more than {budget} networks"
            )
        for assign in product(range(symbols), repeat=count):
            hyper = tuple(zip(tuples, map(assign.__getitem__, of)))
            out.append(HyperNetwork(m, n_wide, pairs, hyper))
    return tuple(out)


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


def _cylindrifier_defects(ra: RaAtomStructure, ix: _Index) -> Iterator[str]:
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


def _amalgamation_defects(ix: _Index) -> Iterator[str]:
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


def _symmetry_defects(ix: _Index) -> Iterator[str]:
    present = set(ix.flat)
    renamings = [
        (sigma, _renaming(ix.m, ix.tuples, sigma))
        for sigma in product(range(ix.m), repeat=ix.m)
    ]
    for h in ix.flat:
        for sigma, reads in renamings:
            if tuple(map(h.__getitem__, reads)) not in present:
                yield f"renaming by {sigma} leaves the set"


def is_hyperbasis(
    ra: RaAtomStructure, networks: Sequence[HyperNetwork]
) -> HyperbasisReport:
    """Witness, cylindrifier, amalgamation, and node-map closure checks,
    each reporting its first violation.

    The networks must be of one shape (m and n_wide), each labelling every
    tuple of that shape once, in sorted order, as `enumerate_hypernetworks`
    builds them.  The rules read the `_Index` built here.  For N networks
    on m nodes: amalgamation makes N^2*m^2 key comparisons, the cylindrifier
    rule reads the networks that agree with h off z once per (h, x, y, z),
    and symmetry makes m^m renamings per network, each one pass over the
    network's labels.
    """
    nets = list(networks)
    if not nets:
        return HyperbasisReport(False, (("member", "empty set"),))
    if any(h.m != nets[0].m or h.n_wide != nets[0].n_wide for h in nets):
        return HyperbasisReport(False, (("member", "mixed shapes"),))
    tuples = sorted(_hyper_tuples(nets[0].m, nets[0].n_wide))
    for idx, h in enumerate(nets):
        if [t for t, _ in h.hyper] != tuples:
            return HyperbasisReport(
                False, (("member", f"network {idx} does not list the tuples of its shape"),)
            )
    ix = _Index(nets)
    rules = (
        ("member", _member_defects(ra, nets)),
        ("witness", _witness_defects(ra, nets)),
        ("cylindrifier", _cylindrifier_defects(ra, ix)),
        ("amalgamation", _amalgamation_defects(ix)),
        ("symmetry", _symmetry_defects(ix)),
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
    act by swapping the two nodes.  The slots of `_agreement` and `_swaps`
    are the ordered pairs and the tuples of the networks' flat labels.
    """
    report = is_hyperbasis(ra, networks)
    if not report.passed:
        rule, detail = report.violations[0]
        raise ValueError(f"not a hyperbasis ({rule}: {detail})")
    nets = sorted(networks, key=lambda h: (h.pairs, h.hyper))
    m = nets[0].m
    if m < 2:
        raise ValueError("need at least two nodes to form a structure")
    # the flat labels: the ordered pairs in row-major order, then the tuples
    slots = [*product(range(m), repeat=2), *(t for t, _ in nets[0].hyper)]
    flat = [_flat_labels(h) for h in nets]
    cyl, diag = _agreement(m, slots, flat, lambda f, i, j: f[i * m + j] in ra.identity)
    labels = tuple(repr((h.pairs, h.hyper)) for h in nets)
    return CaAtomStructure(dim=m, atoms=labels, cyl=cyl, diag=diag, transp=_swaps(m, slots, flat))

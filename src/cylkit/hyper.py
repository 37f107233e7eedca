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

`is_hyperbasis` reads the relations of the structure it certifies off the
same builder's parts: `_classes_off` gives "agrees off S" as a column
table, `_reads` the renaming by a node map.  Amalgamation makes one mask
difference per node pair and class of T_x (`bao._holders`), where a keyed
checker on N networks of m nodes makes N^2*m^2 key comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_
from typing import Iterator, Sequence

from .bao import AdditiveOperator, BudgetExceededError, CaAtomStructure, _bits, _holders
from .constructions import Tuples, _agreement, _classes_off, _reads, _swaps
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


def _slots(h: HyperNetwork) -> list[tuple[int, ...]]:
    """The node tuple of each place of `_flat_labels(h)`."""
    return [*product(range(h.m), repeat=2), *(t for t, _ in h.hyper)]


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


def _cylindrifier_defects(ra: RaAtomStructure, m: int, flat: Tuples, cyl: Tuples) -> Iterator[str]:
    # for z not in (x, y), h's (x,y) label and its peers off z are those of
    # its whole class of T_z, so gaps[z][h][x * m + y], the pairs consistent
    # with that label that no peer carries at ((x,z), (z,y)), is built once
    # per class
    gaps: list[list] = [[()] * len(flat) for _ in range(m)]
    for z in range(m):
        for members in _holders(cyl[z]).values():
            row = []
            for x, y in product(range(m), repeat=2):
                if z in (x, y):
                    row.append(())
                    continue
                witnessed = {(flat[g][x * m + z], flat[g][z * m + y]) for g in members}
                pairs = ra._consistent_pairs[flat[members[0]][x * m + y]]
                row.append(tuple(p for p in pairs if p not in witnessed))
            for g in members:
                gaps[z][g] = row
    for hi in range(len(flat)):
        for x, y, z in product(range(m), repeat=3):
            for a, b in gaps[z][hi][x * m + y]:
                yield f"no witness for ({x},{y}) via {z} with atoms ({a},{b})"


def _amalgamation_defects(m: int, slots: Tuples, flat: Tuples, cyl: Tuples) -> Iterator[str]:
    # an amalgam is a k with k T_x h and k T_y g (h itself when x == y); the
    # gap of h's T_x class: the class off {x, y} outside T_y's image of it
    ops = [AdditiveOperator(cols) for cols in cyl]
    agree = {frozenset(p): _classes_off(slots, flat, set(p)) for p in combinations(range(m), 2)}
    rows = []
    for x, y in permutations(range(m), 2):
        off, gap = agree[frozenset((x, y))], [0] * len(flat)
        for col, members in _holders(cyl[x]).items():
            diff = off[members[0]] & ~ops[y].apply(col)
            for h in members:
                gap[h] = diff
        rows.append((x, y, gap))
    for hi in range(len(flat)):
        gaps = [(x, y, gap[hi]) for x, y, gap in rows]
        for gi in _bits(reduce(or_, (gap for _, _, gap in gaps), 0)):
            for x, y, gap in gaps:
                if gap >> gi & 1:
                    yield f"networks {hi},{gi} agree off ({x},{y}) but have no amalgam"


def _symmetry_defects(m: int, slots: Tuples, flat: Tuples) -> Iterator[str]:
    present = set(flat)
    sigmas = list(product(range(m), repeat=m))
    renamings = list(zip(sigmas, _reads(slots, sigmas)))
    for h in flat:
        for sigma, read in renamings:
            if read(h) not in present:
                yield f"renaming by {sigma} leaves the set"


def _shape_defect(nets: Sequence[HyperNetwork]) -> str | None:
    """Why the networks are not of one shape, each listing its tuples in
    sorted order, or None."""
    if not nets:
        return "empty set"
    if any(h.m != nets[0].m or h.n_wide != nets[0].n_wide for h in nets):
        return "mixed shapes"
    tuples = sorted(_hyper_tuples(nets[0].m, nets[0].n_wide))
    for idx, h in enumerate(nets):
        if [t for t, _ in h.hyper] != tuples:
            return f"network {idx} does not list the tuples of its shape"
    return None


def _hyperbasis_report(
    ra: RaAtomStructure, nets: Sequence[HyperNetwork], slots: Tuples, flat: Tuples, cyl: Tuples
) -> HyperbasisReport:
    m = nets[0].m
    rules = (
        ("member", _member_defects(ra, nets)),
        ("witness", _witness_defects(ra, nets)),
        ("cylindrifier", _cylindrifier_defects(ra, m, flat, cyl)),
        ("amalgamation", _amalgamation_defects(m, slots, flat, cyl)),
        ("symmetry", _symmetry_defects(m, slots, flat)),
    )
    violations = tuple(
        (rule, detail)
        for rule, defects in rules
        if (detail := next(defects, None)) is not None
    )
    return HyperbasisReport(not violations, violations)


def is_hyperbasis(
    ra: RaAtomStructure, networks: Sequence[HyperNetwork]
) -> HyperbasisReport:
    """Witness, cylindrifier, amalgamation, and node-map closure checks,
    each reporting its first violation.

    The networks must be of one shape (m and n_wide), each labelling every
    tuple of that shape once, in sorted order, as `enumerate_hypernetworks`
    builds them.  The rules read the slots, flat labels and T_z columns
    built here.  Amalgamation makes one mask difference per (x, y, class
    of T_x): g lacks an amalgam with h at (x, y) iff g agrees with h off
    {x, y} but is not in (T_y after T_x)(h), both the same across h's class.
    The cylindrifier rule builds one witness set per (z, class of T_z, x,
    y), and symmetry reads each network m^m times.
    """
    nets = list(networks)
    shape = _shape_defect(nets)
    if shape is not None:
        return HyperbasisReport(False, (("member", shape),))
    slots = _slots(nets[0])
    flat = [_flat_labels(h) for h in nets]
    cyl = [_classes_off(slots, flat, {z}) for z in range(nets[0].m)]
    return _hyperbasis_report(ra, nets, slots, flat, cyl)


def ca_over_hyperbasis(
    ra: RaAtomStructure, networks: Sequence[HyperNetwork]
) -> CaAtomStructure:
    """Cylindric-style structure whose atoms are the hyperbasis networks.

    Relation i joins networks agreeing away from node i, the (i,j) diagonal
    collects networks with an identity label at (i,j), and transpositions
    act by swapping the two nodes.  The slots of `_agreement` and `_swaps`
    are the ordered pairs and the tuples of the networks' flat labels.
    It sorts the networks once and runs `is_hyperbasis`'s rules itself on
    the slots, flat labels and T columns it builds from, refusing a set
    that fails them with the first violation, which names networks by their
    position in the sorted order; so a caller needs no check of its own.
    """
    nets = sorted(networks, key=lambda h: (h.pairs, h.hyper))
    shape = _shape_defect(nets)
    if shape is not None:
        raise ValueError(f"not a hyperbasis (member: {shape})")
    m = nets[0].m
    slots = _slots(nets[0])
    flat = [_flat_labels(h) for h in nets]
    cyl, diag = _agreement(m, slots, flat, lambda f, i, j: f[i * m + j] in ra.identity)
    report = _hyperbasis_report(ra, nets, slots, flat, cyl)
    if not report.passed:
        rule, detail = report.violations[0]
        raise ValueError(f"not a hyperbasis ({rule}: {detail})")
    if m < 2:
        raise ValueError("need at least two nodes to form a structure")
    labels = tuple(repr((h.pairs, h.hyper)) for h in nets)
    return CaAtomStructure(dim=m, atoms=labels, cyl=cyl, diag=diag, transp=_swaps(m, slots, flat))

"""The hyperbasis checker that scanned pairs of networks, kept as an oracle.

`validate_hypernetwork`, `_agrees_off` and the five rule generators are the
earlier code, unchanged: every agreement test scans two networks' labels and
every symbol lookup scans a network's `hyper` entries.  `rename` is the
earlier `HyperNetwork.rename`, which the symmetry rule calls in place of the
method.  `is_hyperbasis` runs the rules as `cylkit.hyper.is_hyperbasis` does.
The indexed checker in `cylkit.hyper` must give the same reports.
"""
from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from cylkit.hyper import HyperbasisReport, HyperNetwork, _hyper_tuples
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

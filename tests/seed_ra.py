"""The relation-algebra law battery and isomorphism checks that read atom
Elements and the forbidden-triple set, kept as oracles.

`check_ra_axioms` is the earlier `cylkit.ra.check_ra_axioms`, unchanged: it
computes each law on atom `Element`s with `compose` and `converse_el`, n^4
compositions for associativity.  `cylkit.ra.check_ra_axioms`, which reads
the composition table as masks, must give the same law names, flags and
detail texts, on structures past the constructor's checks too.

`ra_is_isomorphism`, `_ra_profile` and `ra_find_isomorphism` are the earlier
`cylkit.iso` functions, unchanged: they rename the forbidden-triple set and
test triple membership.  The table-based versions must give the same
verdicts, the same per-atom profiles and the same mappings.
"""
from __future__ import annotations

from typing import Iterator

from cylkit.bao import BudgetExceededError, Element
from cylkit.iso import _search
from cylkit.ra import (
    RaAtomStructure,
    RaAxiomReport,
    RaLawResult,
    compose,
    converse_el,
    identity_el,
    peircean_orbit,
)


def check_ra_axioms(structure: RaAtomStructure, bound: int = 50_000_000) -> RaAxiomReport:
    """Atom-level relation-algebra laws, lifted additively.

    Checks the identity law, converse involution and distribution over
    composition, constancy of the consistency predicate on Peircean orbits,
    and associativity over all atom triples.  Cost is dominated by the
    |atoms|^4 associativity sweep, gated by `bound`.
    """
    n = structure.natoms
    if n**4 > bound:
        raise BudgetExceededError(
            f"associativity sweep needs {n**4} evaluations, bound is {bound}"
        )
    name = structure.atoms
    cv = structure.converse
    ident = identity_el(structure)

    def atom(a: int) -> Element:
        return Element(structure, 1 << a)

    def identity() -> Iterator[str]:
        for a in range(n):
            el = atom(a)
            left = compose(structure, ident, el)
            right = compose(structure, el, ident)
            if left.mask != el.mask or right.mask != el.mask:
                yield f"atom {name[a]}"

    def converse_involution() -> Iterator[str]:
        for a in range(n):
            if cv[cv[a]] != a:
                yield f"atom {name[a]}"

    def converse_distribution() -> Iterator[str]:
        for a in range(n):
            for b in range(n):
                lhs = converse_el(structure, compose(structure, atom(a), atom(b)))
                rhs = compose(structure, atom(cv[b]), atom(cv[a]))
                if lhs.mask != rhs.mask:
                    yield f"pair ({name[a]}, {name[b]})"

    def peircean() -> Iterator[str]:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    val = structure.consistent(a, b, c)
                    for t in peircean_orbit((a, b, c), cv):
                        if structure.consistent(*t) != val:
                            yield f"triple ({a},{b},{c}) vs {t}"

    def associativity() -> Iterator[str]:
        for a in range(n):
            ea = atom(a)
            for b in range(n):
                ab = compose(structure, ea, atom(b))
                for c in range(n):
                    ec = atom(c)
                    lhs = compose(structure, ab, ec)
                    rhs = compose(structure, ea, compose(structure, atom(b), ec))
                    if lhs.mask != rhs.mask:
                        yield f"triple ({name[a]}, {name[b]}, {name[c]})"

    laws = [
        RaLawResult(law.__name__, detail is None, detail or "")
        for law in (identity, converse_involution, converse_distribution, peircean, associativity)
        for detail in (next(law(), None),)
    ]
    return RaAxiomReport(all(entry.passed for entry in laws), tuple(laws))


def ra_is_isomorphism(a: RaAtomStructure, b: RaAtomStructure, mapping) -> bool:
    mapping = tuple(mapping)
    if a.natoms != b.natoms or sorted(mapping) != list(range(a.natoms)):
        return False
    if {mapping[x] for x in a.identity} != set(b.identity):
        return False
    for x in range(a.natoms):
        if mapping[a.converse[x]] != b.converse[mapping[x]]:
            return False
    mapped = {(mapping[x], mapping[y], mapping[z]) for x, y, z in a.forbidden}
    return mapped == set(b.forbidden)


def _ra_profile(s: RaAtomStructure, atom: int) -> tuple:
    in_each = [sum(1 for t in s.forbidden if t[i] == atom) for i in range(3)]
    return (atom in s.identity, s.converse[atom] == atom, tuple(in_each))


def ra_find_isomorphism(a: RaAtomStructure, b: RaAtomStructure):
    if a.natoms != b.natoms or len(a.identity) != len(b.identity):
        return None
    forb_a, forb_b = set(a.forbidden), set(b.forbidden)

    def consistent(x: int, y: int, mapping: dict[int, int]) -> bool:
        ca = a.converse[x]
        if ca in mapping and mapping[ca] != b.converse[y]:
            return False
        keys = list(mapping.items()) + [(x, y)]
        # only triples that involve the new pair need checking
        for x1, y1 in keys:
            for x2, y2 in keys:
                for ta, tb in (
                    ((x, x1, x2), (y, y1, y2)),
                    ((x1, x, x2), (y1, y, y2)),
                    ((x1, x2, x), (y1, y2, y)),
                ):
                    if (ta in forb_a) != (tb in forb_b):
                        return False
        return True

    out = _search(
        [_ra_profile(a, x) for x in range(a.natoms)],
        [_ra_profile(b, x) for x in range(b.natoms)],
        consistent,
    )
    assert out is None or ra_is_isomorphism(a, b, out)
    return out

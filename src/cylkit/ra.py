"""Finite relation-algebra atom structures and their complex algebras.

An atom structure carries an ordered atom list, an identity atom set, a
converse involution, and a consistency predicate on atom triples stored as
the complement of a forbidden-triple set.  The forbidden set is closed
under the six Peircean images at construction time so that consistency
queries are O(1) membership tests.

Composition, converse and identity act on Elements (bitmasks) by additive
lifting from atoms.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .bao import MAX_ATOMS, BudgetExceededError, Element, _bits

Triple = tuple[int, int, int]


def peircean_orbit(triple: Triple, converse: Sequence[int]) -> frozenset[Triple]:
    """The six images of a triple under triangle symmetry composed with converse."""
    a, b, c = triple
    cv = converse
    return frozenset(
        {
            (a, b, c),
            (cv[a], cv[c], cv[b]),
            (c, cv[b], a),
            (b, a, cv[c]),
            (cv[b], c, cv[a]),
            (cv[c], cv[a], b),
        }
    )


@dataclass(frozen=True)
class RaAtomStructure:
    """Atoms, identity set, converse involution, forbidden triples (closed)."""

    atoms: tuple[str, ...]
    identity: frozenset[int]
    converse: tuple[int, ...]
    forbidden: frozenset[Triple]

    def __post_init__(self) -> None:
        n = len(self.atoms)
        if not 0 < n <= MAX_ATOMS:
            raise ValueError(f"atom count must be in 1..{MAX_ATOMS}, got {n}")
        if len(set(self.atoms)) != n:
            raise ValueError("atom labels must be unique")
        if not self.identity:
            raise ValueError("identity set must be nonempty")
        if not self.identity <= frozenset(range(n)):
            raise ValueError("identity set out of range")
        if len(self.converse) != n or sorted(self.converse) != list(range(n)):
            raise ValueError("converse must be a permutation of the atoms")
        if any(self.converse[self.converse[a]] != a for a in range(n)):
            raise ValueError("converse must be an involution")
        for t in self.forbidden:
            if len(t) != 3 or any(not 0 <= a < n for a in t):
                raise ValueError(f"forbidden triple {t} out of range")
            if not peircean_orbit(t, self.converse) <= self.forbidden:
                raise ValueError(f"forbidden set not Peircean-closed at {t}")
        object.__setattr__(self, "_full_mask", (1 << n) - 1)
        object.__setattr__(self, "_comp_rows", {})

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return self._full_mask  # type: ignore[attr-defined]

    def consistent(self, a: int, b: int, c: int) -> bool:
        return (a, b, c) not in self.forbidden

    def comp_row(self, b: int, c: int) -> int:
        """Mask of {a : (a,b,c) consistent}; cached per pair."""
        rows: dict[tuple[int, int], int] = self._comp_rows  # type: ignore[attr-defined]
        key = (b, c)
        got = rows.get(key)
        if got is None:
            got = 0
            for a in range(self.natoms):
                if (a, b, c) not in self.forbidden:
                    got |= 1 << a
            rows[key] = got
        return got

    @classmethod
    def build(
        cls,
        atoms: Sequence[str],
        identity: Iterable[int],
        converse: Sequence[int],
        forbidden: Iterable[Triple],
    ) -> "RaAtomStructure":
        """Normalize inputs and close the forbidden set under Peircean images."""
        conv = tuple(converse)
        closed: set[Triple] = set()
        for t in forbidden:
            closed |= peircean_orbit(tuple(t), conv)  # type: ignore[arg-type]
        return cls(
            atoms=tuple(atoms),
            identity=frozenset(identity),
            converse=conv,
            forbidden=frozenset(closed),
        )


def _owned(structure: RaAtomStructure, x: Element) -> None:
    if x.structure is structure or x.structure == structure:
        return
    from .bao import StructureMismatchError

    raise StructureMismatchError("element does not belong to this structure")


def identity_el(structure: RaAtomStructure) -> Element:
    mask = 0
    for a in structure.identity:
        mask |= 1 << a
    return Element(structure, mask)


def converse_el(structure: RaAtomStructure, x: Element) -> Element:
    _owned(structure, x)
    out = 0
    for a in _bits(x.mask):
        out |= 1 << structure.converse[a]
    return Element(structure, out)


def compose(structure: RaAtomStructure, x: Element, y: Element) -> Element:
    """{a : exists b in x, c in y with (a,b,c) consistent}."""
    _owned(structure, x)
    _owned(structure, y)
    out = 0
    for b in _bits(x.mask):
        for c in _bits(y.mask):
            out |= structure.comp_row(b, c)
    return Element(structure, out)


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class RaLawResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RaAxiomReport:
    passed: bool
    laws: tuple[RaLawResult, ...]

    def law(self, name: str) -> RaLawResult:
        for entry in self.laws:
            if entry.name == name:
                return entry
        raise KeyError(name)


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


# ---------------------------------------------------------------------------
# JSON serialization


def ra_to_dict(structure: RaAtomStructure) -> dict:
    return {
        "atoms": list(structure.atoms),
        "identity": sorted(structure.identity),
        "converse": list(structure.converse),
        "forbidden": sorted(list(t) for t in structure.forbidden),
    }


def ra_to_json(structure: RaAtomStructure) -> str:
    return json.dumps(ra_to_dict(structure), sort_keys=True, indent=2) + "\n"


def ra_from_dict(data: Mapping) -> RaAtomStructure:
    return RaAtomStructure.build(
        atoms=[str(s) for s in data["atoms"]],
        identity=data["identity"],
        converse=data["converse"],
        forbidden=[tuple(t) for t in data["forbidden"]],
    )


def ra_from_json(text: str) -> RaAtomStructure:
    return ra_from_dict(json.loads(text))

"""Finite relation-algebra atom structures and their complex algebras.

An atom structure carries an ordered atom list, an identity atom set, a
converse involution, and a consistency predicate on atom triples, given as
the complement of a forbidden-triple set that construction checks (or
`build` makes) closed under the six Peircean images.  After construction
the structure is read through one composition table, built on first use:
entry b * n + c is the mask of b;c = {a : (a,b,c) consistent}.
`consistent` reads one bit of it, composition ORs, per atom b of x, the
operator of table row b applied to y, and converse is the
`AdditiveOperator` of the converse permutation.  The law battery is mask
arithmetic on the table, and `iso` compares tables.  Only construction,
JSON output and the independent re-checks elsewhere read the triple set.

The one search for atom networks lives here too: `_network_labellings`,
which reads the same table.  Its candidate masks cover every triangle the
network validator checks, including those with repeated nodes, so it yields
exactly the valid networks, with several identity atoms too.  The triangle
game's completions and the basic matrices of `constructions` are read off it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bao import MAX_ATOMS, AdditiveOperator, BudgetExceededError, Element
from .bao import _bits, _label_search, _owned

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

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return self._full_mask  # type: ignore[attr-defined]

    def consistent(self, a: int, b: int, c: int) -> bool:
        """Is (a, b, c) consistent: bit a of composition table entry (b, c)."""
        return self._comp_table[b * self.natoms + c] >> a & 1 == 1

    @cached_property
    def _comp_table(self) -> list[int]:
        """The composition table, flat: entry b * n + c is the mask of
        {a : (a,b,c) consistent}."""
        n = self.natoms
        table = [self.full_mask] * (n * n)
        for a, b, c in self.forbidden:
            table[b * n + c] &= ~(1 << a)
        return table

    @cached_property
    def _comp_ops(self) -> tuple[AdditiveOperator, ...]:
        """Per atom b, the operator y -> x;y for x = {b}: row b of the table."""
        n, table = self.natoms, self._comp_table
        return tuple(AdditiveOperator(tuple(table[b * n : b * n + n])) for b in range(n))

    @cached_property
    def _converse_op(self) -> AdditiveOperator:
        return AdditiveOperator.of_map(self.converse)

    @cached_property
    def _consistent_pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per atom c, the pairs (a, b) with (c, a, b) consistent, a then b
        ascending: the witnesses a demand on an edge labelled c asks for."""
        n, comp = self.natoms, self._comp_table
        return tuple(
            tuple((a, b) for a in range(n) for b in range(n) if comp[a * n + b] >> c & 1)
            for c in range(n)
        )

    @cached_property
    def _network_tables(self) -> tuple[list[int], list[int], int]:
        """The identity masks of `_network_labellings`: per identity atom e,
        {a : (a,e,a) consistent} and {a : (a,a,e) consistent} (the full
        mask at other atoms), and the e with (e,e,e) consistent."""
        n, comp, full = self.natoms, self._comp_table, self.full_mask
        over_left = [full] * n
        over_right = [full] * n
        diag = 0
        for e in self.identity:
            over_left[e] = sum(1 << a for a in range(n) if comp[e * n + a] >> a & 1)
            over_right[e] = sum(1 << a for a in range(n) if comp[a * n + e] >> a & 1)
            diag |= (comp[e * n + e] >> e & 1) << e
        return over_left, over_right, diag

    def comp_row(self, b: int, c: int) -> int:
        """Mask of {a : (a,b,c) consistent}, read off the composition table."""
        return self._comp_table[b * self.natoms + c]

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


def identity_el(structure: RaAtomStructure) -> Element:
    return Element(structure, sum(1 << a for a in structure.identity))


def converse_el(structure: RaAtomStructure, x: Element) -> Element:
    _owned(structure, x)
    return Element(structure, structure._converse_op.apply(x.mask))


def compose(structure: RaAtomStructure, x: Element, y: Element) -> Element:
    """{a : exists b in x, c in y with (a,b,c) consistent}."""
    _owned(structure, x)
    _owned(structure, y)
    ops = structure._comp_ops
    out = 0
    for b in _bits(x.mask):
        out |= ops[b].apply(y.mask)
    return Element(structure, out)


# ---------------------------------------------------------------------------
# atom networks


def _network_labellings(
    structure: RaAtomStructure,
    s: int,
    fixed: Mapping[int, int],
    tick: Callable[[], None],
) -> Iterator[tuple[int, ...]]:
    """Every valid labelling of the pairs over ``s`` nodes that extends
    ``fixed`` (flat row-major slot index -> atom), as a flat row-major
    tuple, in lexicographic order of the slots (p, q), p <= q.

    Assigning (p,q) forces (q,p) to the converse label, and a fixed slot
    whose mirror is fixed to another atom than its converse leaves nothing
    to yield; fixed slots are otherwise assumed mutually valid.  Every
    labelled edge carries the converse of its mirror, so by Peircean
    closure the orientations of a triangle p, w, q narrow (p,q) by one
    mask, ``comp_row(M(p,w), M(w,q))``, taken once per apex w whose two
    sides are labelled.  A triangle with a repeated node has the free slot
    on two sides, so it gets a mask of its own: (p,q) over (p,p),(p,q) and
    over (p,q),(q,q), and (p,p) over itself.  The tables are the
    structure's composition table and `_network_tables`; ``tick`` is called
    as `_label_search` describes.
    """
    n = structure.natoms
    comp = structure._comp_table
    over_left, over_right, diag = structure._network_tables
    conv = structure.converse
    lab = [-1] * (s * s)
    for idx, a in fixed.items():
        p, q = divmod(idx, s)
        ridx = q * s + p
        other = fixed.get(ridx)
        if other is not None and other != conv[a]:
            return
        lab[idx] = a
        lab[ridx] = conv[a]
    decide = [(p, q) for p in range(s) for q in range(p, s) if lab[p * s + q] < 0]

    def candidates(at: int) -> int:
        p, q = decide[at]
        if p == q:
            cand = diag
        else:
            # (p,p) precedes (p,q), so it is labelled; (q,q) may not be yet,
            # and then its own candidates check this triangle
            cand = over_left[lab[p * s + p]]
            e = lab[q * s + q]
            if e >= 0:
                cand &= over_right[e]
        ps = p * s
        for w in range(s):
            e2 = lab[ps + w]
            e3 = lab[w * s + q]
            if e2 >= 0 and e3 >= 0:
                cand &= comp[e2 * n + e3]
                if not cand:
                    return 0
        return cand

    free = [p * s + q for p, q in decide]
    mirror = [q * s + p for p, q in decide]
    for _ in _label_search(lab, free, mirror, conv, candidates, tick):
        yield tuple(lab)


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
    and associativity over all atom triples, each on the masks of the
    composition table: entry b * n + c is the mask of b;c.  Associativity
    compares (a;b);c, the operator of right composition with c applied to
    entry (a, b), with a;(b;c), row a's operator applied to entry (b, c), so
    the sweep is n^3 pairs of operator applications; `bound` gates it at
    |atoms|^4 all the same.
    """
    n = structure.natoms
    if n**4 > bound:
        raise BudgetExceededError(
            f"associativity sweep needs {n**4} evaluations, bound is {bound}"
        )
    name = structure.atoms
    cv = structure.converse
    comp = structure._comp_table

    def identity() -> Iterator[str]:
        for a in range(n):
            left = right = 0
            for e in structure.identity:
                left |= comp[e * n + a]
                right |= comp[a * n + e]
            if left != 1 << a or right != 1 << a:
                yield f"atom {name[a]}"

    def converse_involution() -> Iterator[str]:
        for a in range(n):
            if cv[cv[a]] != a:
                yield f"atom {name[a]}"

    def converse_distribution() -> Iterator[str]:
        conv = structure._converse_op
        for a in range(n):
            for b in range(n):
                if conv.apply(comp[a * n + b]) != comp[cv[b] * n + cv[a]]:
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
        left = structure._comp_ops
        # per atom c, the operator x -> x;c: column b is entry (b, c)
        right = [AdditiveOperator(tuple(comp[c::n])) for c in range(n)]
        for a in range(n):
            for b in range(n):
                ab = comp[a * n + b]
                for c in range(n):
                    if right[c].apply(ab) != left[a].apply(comp[b * n + c]):
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

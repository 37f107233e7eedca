"""Reducts: index quotients, index renamings, relativization, the
relation-algebra reduct, and the restriction correspondence for basic
matrices.

Every transform returns both the derived object and a verification report;
agreement between quotient operators and the source algebra is checked, not
assumed.

The atom-wise maps are `AdditiveOperator`s (a quotient frame's `to_class`
and `members`, the relativization's squeeze, the witness's embedding), and
the checks compare their images, or the column tables of their composites
(`AdditiveOperator.after`), as masks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .bao import (
    AdditiveOperator,
    CaAtomStructure,
    Element,
    _bits,
    cyl,
    diag,
    element,
    equivalence_defects,
    subst_repl,
    transpose,
)
from .constructions import _basic_matrices, _slot_index, _slot_pairs
from .ra import RaAtomStructure, RaAxiomReport, check_ra_axioms

EXHAUSTIVE_CLASS_LIMIT = 12
SAMPLE_COUNT = 512


def _join_classes(structure: CaAtomStructure, indices: Iterable[int]) -> list[int]:
    """Masks of the classes of the equivalence generated by the relations
    of these indices, ordered by least atom: each grows from its least atom
    by applying the operator of "equal, or related either way" to a
    fixpoint."""
    near = [1 << a for a in range(structure.natoms)]
    for i in indices:
        cols = structure.cyl_image_masks(i)
        near = [x | col | row for x, col, row in zip(near, cols, transpose(cols))]
    step = AdditiveOperator(tuple(near))
    masks = []
    unseen = structure.full_mask
    while unseen:
        cls = unseen & -unseen
        while (grown := step.apply(cls)) != cls:
            cls = grown
        masks.append(cls)
        unseen &= ~cls
    return masks


@dataclass(frozen=True)
class QuotientFrame:
    """Atoms of a source structure collapsed along the dropped indices:
    `to_class` sends an atom to its class bit, `members` a class to its atoms."""

    source: CaAtomStructure
    gamma: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    to_class: AdditiveOperator = field(compare=False)
    members: AdditiveOperator = field(compare=False)
    structure: CaAtomStructure | None

    def class_element(self, idx: int) -> Element:
        return Element(self.source, self.members.cols[idx])

    def lift(self, x: Element) -> frozenset[int]:
        """Class indices met by a source element."""
        return frozenset(_bits(self.to_class.apply(x.mask)))

    def closure(self, x: Element) -> Element:
        """The union of the classes met by x."""
        return Element(self.source, self.members.apply(self.to_class.apply(x.mask)))


@dataclass(frozen=True)
class NrCertificate:
    passed: bool
    certificate_level: str
    details: tuple[str, ...]
    counterexample: str | None


def nr(
    structure: CaAtomStructure,
    gamma: Iterable[int],
    force: bool = False,
) -> tuple[QuotientFrame, NrCertificate]:
    """Quotient by the relations of the dropped indices, with certificate.

    Every dropped relation must be an equivalence (override with force).
    The certificate compares quotient operators against the source algebra
    on closed sets: exhaustively when there are at most
    EXHAUSTIVE_CLASS_LIMIT classes, on a fixed random sample otherwise.

    The transpositions are checked by their well-definedness on classes
    alone: P_ij passes to the quotient when every class has exactly one
    image class, and the quotient permutation is read off those images, so
    it agrees with the source on atoms by construction.  When one is not
    well-defined, the quotient carries no transpositions and the details
    say so; the certificate does not fail for it.
    """
    gamma = tuple(sorted(set(gamma)))
    if any(i < 0 or i >= structure.dim for i in gamma):
        raise ValueError(f"gamma {gamma} out of range for dimension {structure.dim}")
    dropped = tuple(i for i in range(structure.dim) if i not in gamma)
    details: list[str] = []
    for i in dropped:
        why = next((d for _, d in equivalence_defects(structure, i) if d), None)
        if why is not None:
            if not force:
                raise ValueError(f"dropped relation is not an equivalence: {why}")
            details.append(f"forced past non-equivalence: {why}")

    members = AdditiveOperator(tuple(_join_classes(structure, dropped)))
    classes = tuple(tuple(_bits(mask)) for mask in members.cols)
    class_of = [0] * structure.natoms
    for ci, cls in enumerate(classes):
        for a in cls:
            class_of[a] = ci
    to_class = AdditiveOperator(tuple(1 << ci for ci in class_of))
    nclasses = len(classes)
    passed = True
    counterexample: str | None = None

    def note_fail(msg: str) -> None:
        nonlocal passed, counterexample
        passed = False
        if counterexample is None:
            counterexample = msg
        details.append(msg)

    # well-definedness of diagonal sets on classes
    for i in gamma:
        for j in gamma:
            dmask = structure.diag_mask(i, j)
            for ci, cls in enumerate(classes):
                hits = (dmask & members.cols[ci]).bit_count()
                if hits not in (0, len(cls)):
                    note_fail(
                        f"diagonal ({i},{j}) splits class {ci}: "
                        f"{hits} of {len(cls)} atoms inside"
                    )

    quotient: CaAtomStructure | None = None
    q_transp_ok = structure.transp is not None and len(gamma) >= 2
    if len(gamma) >= 2:
        labels = tuple(f"c{ci}|{structure.atoms[cls[0]]}" for ci, cls in enumerate(classes))
        # column c of a quotient relation: the classes met by the source
        # operator's image of class c
        q_cyl = tuple(
            tuple(to_class.apply(structure.cyl_op(i).apply(mask)) for mask in members.cols)
            for i in gamma
        )
        q_diag = []
        for i in gamma:
            row = []
            for j in gamma:
                dmask = structure.diag_mask(i, j)
                row.append(
                    frozenset(ci for ci, cls in enumerate(classes) if (dmask >> cls[0]) & 1)
                )
            q_diag.append(tuple(row))
        q_transp = None
        if q_transp_ok:
            q_transp = []
            for p, i in enumerate(gamma):
                for j in gamma[p + 1 :]:
                    perm = structure.transp_op(i, j).images
                    # well-defined iff each class has one image class
                    hit = [{class_of[perm[a]] for a in cls} for cls in classes]
                    if any(len(cs) != 1 for cs in hit):
                        q_transp_ok = False
                        details.append(
                            f"transposition ({i},{j}) not well-defined on classes; dropped"
                        )
                        break
                    q_transp.append(tuple(min(cs) for cs in hit))
            q_transp = tuple(q_transp) if q_transp_ok else None
        quotient = CaAtomStructure(
            dim=len(gamma), atoms=labels, cyl=q_cyl, diag=tuple(q_diag), transp=q_transp
        )
    else:
        details.append("fewer than two retained indices; no quotient structure built")

    frame = QuotientFrame(structure, gamma, classes, to_class, members, quotient)

    # operator agreement on closed sets
    if nclasses <= EXHAUSTIVE_CLASS_LIMIT:
        level = "exhaustive"
        subsets: Iterable[int] = range(1 << nclasses)
    else:
        level = "sampled"
        rng = random.Random(0)
        subsets = [rng.getrandbits(nclasses) for _ in range(SAMPLE_COUNT)]

    for sub in subsets:
        src_mask = members.apply(sub)
        for p, i in enumerate(gamma):
            image = structure.cyl_op(i).apply(src_mask)
            lifted = to_class.apply(image)
            if members.apply(lifted) != image:
                note_fail(f"c_{i} image of a closed set is not closed (subset {sub})")
                continue
            if quotient is not None:
                if quotient.cyl_op(p).apply(sub) != lifted:
                    note_fail(
                        f"quotient c at position {p} disagrees with source c_{i} "
                        f"on subset {sub}"
                    )
        if not passed and counterexample is not None and level == "sampled":
            break

    # diagonal agreement
    for p, i in enumerate(gamma):
        for q, j in enumerate(gamma):
            dmask = structure.diag_mask(i, j)
            lifted = to_class.apply(dmask)
            if members.apply(lifted) != dmask:
                note_fail(f"diagonal ({i},{j}) is not a union of classes")
            elif quotient is not None:
                if lifted != quotient.diag_mask(p, q):
                    note_fail(f"quotient diagonal ({p},{q}) disagrees with source")

    cert = NrCertificate(passed, level, tuple(details), counterexample)
    return frame, cert


def cyl_fixed_masks(structure: CaAtomStructure, i: int) -> list[int]:
    """Masks of every union of c_i's atom classes: the elements with
    c_i x = x when T_i is an equivalence.

    The classes are the distinct images c_i{a} in atom order; bit k of a
    mask's position in the list stands for the k-th class.
    """
    masks = [0]
    for c in dict.fromkeys(structure.cyl_image_masks(i)):
        masks += [m | c for m in masks]
    return masks


def rd_rho(structure: CaAtomStructure, rho: Sequence[int]) -> CaAtomStructure:
    """Reduct along an injective index renaming: relation p of the result
    is relation rho[p] of the source."""
    rho = tuple(rho)
    if len(set(rho)) != len(rho):
        raise ValueError("renaming must be injective")
    if any(i < 0 or i >= structure.dim for i in rho):
        raise ValueError(f"renaming {rho} out of range for dimension {structure.dim}")
    if len(rho) < 2:
        raise ValueError("renaming must retain at least two indices")
    transp = None
    if structure.transp is not None:
        transp = tuple(structure.transp_op(i, j).images for i, j in combinations(rho, 2))
    return CaAtomStructure(
        dim=len(rho),
        atoms=structure.atoms,
        cyl=tuple(structure.cyl[i] for i in rho),
        diag=tuple(tuple(structure.diag[i][j] for j in rho) for i in rho),
        transp=transp,
    )


@dataclass(frozen=True)
class RlResult:
    structure: CaAtomStructure
    kept: tuple[int, ...]
    probe: tuple[tuple[int, int, bool], ...]
    commutes: bool
    details: tuple[str, ...]


def rl_x(structure: CaAtomStructure, x: Element) -> RlResult:
    """Relativize to the atoms of x: induced subframe plus a commutativity
    probe, since relativization can break relation composition laws."""
    if x.structure is not structure and x.structure != structure:
        raise ValueError("element belongs to a different structure")
    if x.is_empty:
        raise ValueError("cannot relativize to the empty element")
    kept = x.atom_indices()
    pos = {a: p for p, a in enumerate(kept)}
    details: list[str] = []
    # a kept atom to its position, any other atom to nothing
    squeeze = AdditiveOperator(
        tuple(1 << pos[a] if a in pos else 0 for a in range(structure.natoms))
    )

    def restrict(cols: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(squeeze.apply(cols[b]) for b in kept)

    diag_rel = tuple(
        tuple(
            frozenset(pos[a] for a in structure.diag[i][j] if a in pos)
            for j in range(structure.dim)
        )
        for i in range(structure.dim)
    )
    transp = None
    if structure.transp is not None:
        transp = tuple(tuple(pos.get(perm[b]) for b in kept) for perm in structure.transp)
        if any(None in perm for perm in transp):
            transp = None
            details.append("transpositions do not restrict to the kept atoms; dropped")
    sub = CaAtomStructure(
        dim=structure.dim,
        atoms=tuple(structure.atoms[a] for a in kept),
        cyl=tuple(map(restrict, structure.cyl)),
        diag=diag_rel,
        transp=transp,
    )
    probe = []
    commutes = True
    for i in range(sub.dim):
        ci = sub.cyl_op(i)
        for j in range(i + 1, sub.dim):
            cj = sub.cyl_op(j)
            same = ci.after(cj) == cj.after(ci)
            probe.append((i, j, same))
            commutes = commutes and same
    return RlResult(sub, kept, tuple(probe), commutes, tuple(details))


# ---------------------------------------------------------------------------
# relation-algebra reduct


@dataclass(frozen=True)
class RaReduct:
    """Relation-algebra view of the 2-closed elements of a source structure.

    Atoms are the classes joined by the relations of all indices below
    dim-2; identity, converse, and composition act on the last two index
    positions. At source dimension 3 the associativity outcome is recorded
    but not required.
    """

    source: CaAtomStructure
    frame: QuotientFrame
    ra: RaAtomStructure
    axioms: RaAxiomReport
    associativity_required: bool
    passed: bool

    def identity_element(self) -> Element:
        n = self.source.dim
        return diag(self.source, n - 2, n - 1)

    def converse_element(self, x: Element) -> Element:
        return _converse_term(self.source, x)

    def compose_elements(self, x: Element, y: Element) -> Element:
        return _compose_term(self.source, x, y)

    def class_element(self, idx: int) -> Element:
        return self.frame.class_element(idx)


def _converse_term(s: CaAtomStructure, x: Element) -> Element:
    """Converse on the last two indices, through index 0 as the spare."""
    n = s.dim
    return subst_repl(s, 0, n - 1, subst_repl(s, n - 1, n - 2, subst_repl(s, n - 2, 0, x)))


def _compose_term(s: CaAtomStructure, x: Element, y: Element) -> Element:
    """Composition on the last two indices, through index 0 as the spare."""
    n = s.dim
    return cyl(s, 0, subst_repl(s, n - 1, 0, x) & subst_repl(s, n - 2, 0, y))


def ra_reduct(structure: CaAtomStructure, bound: int = 50_000_000) -> RaReduct:
    """Extract the relation-algebra atom structure of the 2-closed elements."""
    n = structure.dim
    if n < 3:
        raise ValueError("relation-algebra reduct needs dimension at least 3")
    frame, cert = nr(structure, (n - 2, n - 1))
    classes = frame.classes
    nclasses = len(classes)
    to_class, members = frame.to_class, frame.members

    ident = structure.diag_mask(n - 2, n - 1)
    identity = to_class.apply(ident)
    if members.apply(identity) != ident:
        raise ValueError("identity element is not a union of reduct atoms")

    converse = []
    for ci in range(nclasses):
        img = _converse_term(structure, frame.class_element(ci)).mask
        hit = to_class.apply(img)
        if hit.bit_count() != 1 or members.apply(hit) != img:
            raise ValueError(
                f"converse of reduct atom {ci} is not a single reduct atom"
            )
        converse.append(hit.bit_length() - 1)

    forbidden = []
    all_classes = (1 << nclasses) - 1
    for cb in range(nclasses):
        for cc in range(nclasses):
            comp = _compose_term(
                structure, frame.class_element(cb), frame.class_element(cc)
            ).mask
            covered = to_class.apply(comp)
            if members.apply(covered) != comp:
                raise ValueError(
                    f"composition of reduct atoms {cb},{cc} is not a union of atoms"
                )
            forbidden.extend((ca, cb, cc) for ca in _bits(all_classes & ~covered))

    try:
        ra = RaAtomStructure(
            atoms=tuple(f"r{ci}|{structure.atoms[cls[0]]}" for ci, cls in enumerate(classes)),
            identity=frozenset(_bits(identity)),
            converse=tuple(converse),
            forbidden=frozenset(forbidden),
        )
    except ValueError as exc:
        raise ValueError(f"reduct consistency data is not a relation-algebra atom structure: {exc}")

    axioms = check_ra_axioms(ra, bound=bound)
    assoc_required = n >= 4
    passed = cert.passed and all(
        law.passed for law in axioms.laws if assoc_required or law.name != "associativity"
    )
    return RaReduct(structure, frame, ra, axioms, assoc_required, passed)


# ---------------------------------------------------------------------------
# basic-matrix correspondences


@dataclass(frozen=True)
class IsoReport:
    passed: bool
    certificate_level: str
    mapping: tuple[int, ...] | None
    details: tuple[str, ...]
    counterexample: str | None


def restriction_iso(msmall: int, mbig: int, bin_ra: RaAtomStructure) -> IsoReport:
    """Restriction from big to small basic matrices, fibre by fibre.

    Maps each small matrix to its set of extensions inside the big
    structure, checks that these fibres are exactly the classes of the
    quotient by the high indices, and that the induced bijection preserves
    every retained relation.
    """
    if not 3 <= msmall < mbig <= 4:
        raise ValueError("need 3 <= msmall < mbig <= 4")
    small, small_vals = _basic_matrices(msmall, bin_ra)
    big, big_vals = _basic_matrices(mbig, bin_ra)
    big_slot = _slot_index(mbig)
    keep = [big_slot[row][col] for row, col in _slot_pairs(msmall)]

    details: list[str] = []
    counterexample: str | None = None
    passed = True

    def fail(msg: str) -> None:
        nonlocal passed, counterexample
        passed = False
        if counterexample is None:
            counterexample = msg
        details.append(msg)

    fibres: dict[tuple[int, ...], list[int]] = {v: [] for v in small_vals}
    for fi, fv in enumerate(big_vals):
        restricted = tuple(fv[s] for s in keep)
        if restricted not in fibres:
            fail(f"big matrix {fi} restricts outside the small matrix set")
            return IsoReport(False, "exhaustive", None, tuple(details), counterexample)
        fibres[restricted].append(fi)

    frame, cert = nr(big, range(msmall))
    # the closed-set certificate is informational here: the criterion is the
    # atom-level correspondence, which holds even when the big frame does
    # not commute and its closed sets fail to form a subalgebra
    details.append(
        f"quotient certificate ({cert.certificate_level}): "
        + ("passed" if cert.passed else f"failed: {cert.counterexample}")
    )

    class_sets = {frozenset(cls): ci for ci, cls in enumerate(frame.classes)}
    mapping: list[int] = []
    for gi, gv in enumerate(small_vals):
        fib = frozenset(fibres[gv])
        if not fib:
            fail(f"small matrix {gi} has no extension")
            mapping.append(-1)
            continue
        ci = class_sets.get(fib)
        if ci is None:
            fail(f"fibre of small matrix {gi} is not a quotient class")
            mapping.append(-1)
            continue
        mapping.append(ci)

    if passed:
        if sorted(mapping) != list(range(len(frame.classes))):
            fail("fibre map is not a bijection onto the quotient classes")

    quotient = frame.structure
    if passed and quotient is not None:
        for p in range(msmall):
            scols, qcols = small.cyl[p], quotient.cyl[p]
            for a in range(small.natoms):
                for b in range(small.natoms):
                    if scols[b] >> a & 1 != qcols[mapping[b]] >> mapping[a] & 1:
                        fail(f"relation {p} differs at atom pair ({a},{b})")
                        break
                if not passed:
                    break
            for q in range(msmall):
                sd, qd = small.diag[p][q], quotient.diag[p][q]
                for a in range(small.natoms):
                    if (a in sd) != (mapping[a] in qd):
                        fail(f"diagonal ({p},{q}) differs at atom {a}")
                        break
        if quotient.transp is None:
            fail("quotient lost its transpositions")
        else:
            for p in range(msmall):
                for q in range(p + 1, msmall):
                    sperm = small.transp_op(p, q).images
                    qperm = quotient.transp_op(p, q).images
                    for b, a in enumerate(sperm):
                        if qperm[mapping[b]] != mapping[a]:
                            fail(f"transposition ({p},{q}) differs at ({a},{b})")
                            break

    return IsoReport(
        passed,
        "exhaustive",
        tuple(mapping) if passed else None,
        tuple(details),
        counterexample,
    )


@dataclass(frozen=True)
class RlWitnessReport:
    x: Element
    big: CaAtomStructure
    small: CaAtomStructure
    relativized: CaAtomStructure
    fibre_sizes: tuple[int, ...]
    meet_ok: bool
    embedding_ok: bool
    passed: bool
    details: tuple[str, ...]


def rl_x_witness(
    mbig: int, msmall: int, k: int, bin_ra: RaAtomStructure
) -> RlWitnessReport:
    """Relativization witness over a single seed algebra.

    x collects the big matrices in which every extra column carries an
    identity entry in some low row.  The report records, honestly, whether
    c_i x * c_j x = x holds for all low index pairs (``meet_ok``) and
    whether restricting matrices to their first ``msmall`` rows and columns
    embeds the small-matrix structure operator-by-operator into the
    relativized structure (``embedding_ok``).  Fibre sizes of the
    restriction map are reported either way.  Both checks can fail: the
    relativized structure has one atom per big matrix inside x, which in
    general outnumbers the small matrices, so the restriction map is a
    surjection with non-trivial fibres rather than a bijection.
    """
    if k < 1 or mbig != msmall + k:
        raise ValueError("need mbig = msmall + k with k >= 1")
    if not 3 <= msmall < mbig <= 4:
        raise ValueError("need 3 <= msmall < mbig <= 4")
    big, big_vals = _basic_matrices(mbig, bin_ra)
    small, small_vals = _basic_matrices(msmall, bin_ra)
    big_slot = _slot_index(mbig)
    (id_atom,) = bin_ra.identity
    details: list[str] = []

    def in_x(values: tuple[int, ...]) -> bool:
        for col in range(msmall, mbig):
            if not any(values[big_slot[row][col]] == id_atom for row in range(msmall)):
                return False
        return True

    rd = rd_rho(big, range(msmall))
    x = element(rd, [i for i, v in enumerate(big_vals) if in_x(v)])
    if x.is_empty:
        raise ValueError("relativization unit is empty")

    meet_ok = True
    for i in range(msmall):
        for j in range(i + 1, msmall):
            if (cyl(rd, i, x) & cyl(rd, j, x)).mask != x.mask:
                meet_ok = False
                details.append(f"c_{i} x * c_{j} x differs from x")

    rl = rl_x(rd, x)
    sub = rl.structure
    pos_in_sub = {a: p for p, a in enumerate(rl.kept)}
    keep = [big_slot[row][col] for row, col in _slot_pairs(msmall)]

    fibres: list[list[int]] = [[] for _ in small_vals]
    index_small = {v: i for i, v in enumerate(small_vals)}
    for a in rl.kept:
        gi = index_small.get(tuple(big_vals[a][s] for s in keep))
        if gi is None:
            details.append(f"kept matrix {a} restricts outside the small set")
            continue
        fibres[gi].append(pos_in_sub[a])

    embedding_ok = all(fibres)
    if not embedding_ok:
        details.append("some small matrix has no extension inside x")

    # the restriction's inverse image, and through it each operator of small
    # against the same operator of sub: column gi of either composite is the
    # image of atom gi
    embed = AdditiveOperator(tuple(sum(1 << p for p in fib) for fib in fibres))

    def through(small_op: AdditiveOperator, sub_op: AdditiveOperator) -> list[int]:
        """The atoms of small at which the two composites differ."""
        lhs, rhs = embed.after(small_op), sub_op.after(embed)
        return [gi for gi in range(small.natoms) if lhs[gi] != rhs[gi]]

    if embedding_ok:
        bad = [(gi, i) for i in range(msmall) for gi in through(small.cyl_op(i), sub.cyl_op(i))]
        for gi, i in sorted(bad):
            embedding_ok = False
            details.append(f"c_{i} disagrees through the embedding at atom {gi}")
        for i in range(msmall):
            for j in range(msmall):
                if embed.apply(small.diag_mask(i, j)) != sub.diag_mask(i, j):
                    embedding_ok = False
                    details.append(f"diagonal ({i},{j}) disagrees through the embedding")
        if sub.transp is not None:
            for i in range(msmall):
                for j in range(i + 1, msmall):
                    for gi in through(small.transp_op(i, j), sub.transp_op(i, j)):
                        embedding_ok = False
                        details.append(f"transposition ({i},{j}) disagrees at atom {gi}")
        else:
            details.append("relativized structure lost its transpositions")

    passed = meet_ok and embedding_ok
    return RlWitnessReport(
        x,
        big,
        small,
        sub,
        tuple(len(f) for f in fibres),
        meet_ok,
        embedding_ok,
        passed,
        tuple(details),
    )

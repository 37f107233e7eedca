"""Reducts: index quotients, index renamings, relativization, the
relation-algebra reduct, and the restriction correspondence for basic
matrices.

Every transform returns both the derived object and a verification report;
agreement between quotient operators and the source algebra is checked, not
assumed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .bao import (
    CaAtomStructure,
    Element,
    _bits,
    cyl,
    diag,
    element,
    empty,
    equivalence_defects,
    subst_repl,
    subst_transp,
)
from .constructions import (
    _slot_pairs,
    basic_matrices,
    enumerate_matrices,
)
from .ra import RaAtomStructure, RaAxiomReport, check_ra_axioms

EXHAUSTIVE_CLASS_LIMIT = 12
SAMPLE_COUNT = 512


def _union_find_classes(n: int, pairs: Iterable[tuple[int, int]]):
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    class_of = [0] * n
    for ci, cls in enumerate(classes):
        for a in cls:
            class_of[a] = ci
    return classes, tuple(class_of)


@dataclass(frozen=True)
class QuotientFrame:
    """Atoms of a source structure collapsed along the dropped indices."""

    source: CaAtomStructure
    gamma: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    structure: CaAtomStructure | None

    def class_element(self, idx: int) -> Element:
        return element(self.source, self.classes[idx])

    def lift(self, x: Element) -> frozenset[int]:
        """Class indices met by a source element."""
        return frozenset(self.class_of[a] for a in x)

    def closure(self, x: Element) -> Element:
        mask = 0
        for ci in self.lift(x):
            for a in self.classes[ci]:
                mask |= 1 << a
        return Element(self.source, mask)


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

    join_pairs = [p for i in dropped for p in structure.cyl[i]]
    classes, class_of = _union_find_classes(structure.natoms, join_pairs)
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
                hits = sum(1 for a in cls if (dmask >> a) & 1)
                if hits not in (0, len(cls)):
                    note_fail(
                        f"diagonal ({i},{j}) splits class {ci}: "
                        f"{hits} of {len(cls)} atoms inside"
                    )

    quotient: CaAtomStructure | None = None
    q_transp_ok = structure.transp is not None and len(gamma) >= 2
    if len(gamma) >= 2:
        labels = [f"c{ci}|{structure.atoms[cls[0]]}" for ci, cls in enumerate(classes)]
        q_cyl = []
        for i in gamma:
            rel = {(class_of[a], class_of[b]) for a, b in structure.cyl[i]}
            q_cyl.append(sorted(rel))
        q_diag = []
        for i in gamma:
            row = []
            for j in gamma:
                dmask = structure.diag_mask(i, j)
                row.append(
                    [ci for ci, cls in enumerate(classes) if (dmask >> cls[0]) & 1]
                )
            q_diag.append(row)
        q_transp = None
        if q_transp_ok:
            q_transp = []
            for p, i in enumerate(gamma):
                for j in gamma[p + 1 :]:
                    img: dict[int, int] = {}
                    ok = True
                    for a, b in structure.transp_rel(i, j):
                        ca, cb = class_of[a], class_of[b]
                        if img.setdefault(cb, ca) != ca:
                            ok = False
                            break
                    if not ok or len(img) != nclasses:
                        q_transp_ok = False
                        details.append(
                            f"transposition ({i},{j}) not well-defined on classes; dropped"
                        )
                        break
                    q_transp.append(sorted((img[cb], cb) for cb in img))
            if not q_transp_ok:
                q_transp = None
        quotient = CaAtomStructure.build(
            dim=len(gamma), atoms=labels, cyl=q_cyl, diag=q_diag, transp=q_transp
        )
    else:
        details.append("fewer than two retained indices; no quotient structure built")

    frame = QuotientFrame(structure, gamma, classes, class_of, quotient)

    # operator agreement on closed sets
    if nclasses <= EXHAUSTIVE_CLASS_LIMIT:
        level = "exhaustive"
        subsets: Iterable[int] = range(1 << nclasses)
    else:
        level = "sampled"
        rng = random.Random(0)
        subsets = [rng.getrandbits(nclasses) for _ in range(SAMPLE_COUNT)]

    cls_masks = [sum(1 << a for a in cls) for cls in classes]
    for sub in subsets:
        src_mask = 0
        for ci in range(nclasses):
            if (sub >> ci) & 1:
                src_mask |= cls_masks[ci]
        x = Element(structure, src_mask)
        for p, i in enumerate(gamma):
            image = cyl(structure, i, x)
            lifted = frame.lift(image)
            if frame.closure(image).mask != image.mask:
                note_fail(f"c_{i} image of a closed set is not closed (subset {sub})")
                continue
            if quotient is not None:
                q_img = quotient.cyl_op(p).apply(sub)
                if frozenset(_bits(q_img)) != lifted:
                    note_fail(
                        f"quotient c at position {p} disagrees with source c_{i} "
                        f"on subset {sub}"
                    )
        if not passed and counterexample is not None and level == "sampled":
            break

    # diagonal agreement
    for p, i in enumerate(gamma):
        for q, j in enumerate(gamma):
            dsrc = Element(structure, structure.diag_mask(i, j))
            if frame.closure(dsrc).mask != dsrc.mask:
                note_fail(f"diagonal ({i},{j}) is not a union of classes")
            elif quotient is not None:
                if frame.lift(dsrc) != frozenset(_bits(quotient.diag_mask(p, q))):
                    note_fail(f"quotient diagonal ({p},{q}) disagrees with source")

    # transposition agreement on atoms
    if quotient is not None and q_transp_ok and structure.transp is not None:
        for p, i in enumerate(gamma):
            for q, j in enumerate(gamma):
                if p >= q:
                    continue
                for a in range(structure.natoms):
                    src = subst_transp(structure, i, j, Element(structure, 1 << a))
                    got = frame.lift(src)
                    want = frozenset(
                        _bits(
                            subst_transp(
                                quotient, p, q, Element(quotient, 1 << class_of[a])
                            ).mask
                        )
                    )
                    if got != want:
                        note_fail(
                            f"quotient transposition ({p},{q}) disagrees at atom {a}"
                        )

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
    m = len(rho)
    cyl_rel = [sorted(structure.cyl[rho[p]]) for p in range(m)]
    diag_rel = [
        [sorted(structure.diag[rho[p]][rho[q]]) for q in range(m)] for p in range(m)
    ]
    transp = None
    if structure.transp is not None:
        transp = []
        for p in range(m):
            for q in range(p + 1, m):
                transp.append(sorted(structure.transp_rel(rho[p], rho[q])))
    return CaAtomStructure.build(
        dim=m, atoms=structure.atoms, cyl=cyl_rel, diag=diag_rel, transp=transp
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
    labels = [structure.atoms[a] for a in kept]
    cyl_rel = [
        sorted((pos[a], pos[b]) for a, b in structure.cyl[i] if a in pos and b in pos)
        for i in range(structure.dim)
    ]
    diag_rel = [
        [
            sorted(pos[a] for a in structure.diag[i][j] if a in pos)
            for j in range(structure.dim)
        ]
        for i in range(structure.dim)
    ]
    transp = None
    if structure.transp is not None:
        transp = []
        total = True
        for i in range(structure.dim):
            for j in range(i + 1, structure.dim):
                rel = [
                    (pos[a], pos[b])
                    for a, b in structure.transp_rel(i, j)
                    if a in pos and b in pos
                ]
                if len({b for _, b in rel}) != len(kept):
                    total = False
                transp.append(sorted(rel))
        if not total:
            transp = None
            details.append(
                "transpositions do not restrict to the kept atoms; dropped"
            )
    sub = CaAtomStructure.build(
        dim=structure.dim, atoms=labels, cyl=cyl_rel, diag=diag_rel, transp=transp
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
        s, n = self.source, self.source.dim
        return subst_repl(
            s, 0, n - 1, subst_repl(s, n - 1, n - 2, subst_repl(s, n - 2, 0, x))
        )

    def compose_elements(self, x: Element, y: Element) -> Element:
        s, n = self.source, self.source.dim
        return cyl(
            s, 0, subst_repl(s, n - 1, 0, x) & subst_repl(s, n - 2, 0, y)
        )

    def class_element(self, idx: int) -> Element:
        return self.frame.class_element(idx)


def ra_reduct(structure: CaAtomStructure, bound: int = 50_000_000) -> RaReduct:
    """Extract the relation-algebra atom structure of the 2-closed elements."""
    n = structure.dim
    if n < 3:
        raise ValueError("relation-algebra reduct needs dimension at least 3")
    frame, cert = nr(structure, (n - 2, n - 1))
    classes = frame.classes
    nclasses = len(classes)

    ident = diag(structure, n - 2, n - 1)
    if frame.closure(ident).mask != ident.mask:
        raise ValueError("identity element is not a union of reduct atoms")
    identity = sorted(frame.lift(ident))

    helper = RaReduct.__new__(RaReduct)  # ops only need source; fill later
    object.__setattr__(helper, "source", structure)

    converse = []
    for ci in range(nclasses):
        img = RaReduct.converse_element(helper, frame.class_element(ci))
        hit = frame.lift(img)
        if len(hit) != 1 or frame.closure(img).mask != img.mask:
            raise ValueError(
                f"converse of reduct atom {ci} is not a single reduct atom"
            )
        converse.append(next(iter(hit)))

    forbidden = []
    for cb in range(nclasses):
        for cc in range(nclasses):
            comp = RaReduct.compose_elements(
                helper, frame.class_element(cb), frame.class_element(cc)
            )
            if frame.closure(comp).mask != comp.mask:
                raise ValueError(
                    f"composition of reduct atoms {cb},{cc} is not a union of atoms"
                )
            covered = frame.lift(comp)
            for ca in range(nclasses):
                if ca not in covered:
                    forbidden.append((ca, cb, cc))

    try:
        ra = RaAtomStructure(
            atoms=tuple(f"r{ci}|{structure.atoms[cls[0]]}" for ci, cls in enumerate(classes)),
            identity=frozenset(identity),
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
    small = basic_matrices(msmall, bin_ra)
    big = basic_matrices(mbig, bin_ra)
    small_vals = enumerate_matrices(msmall, bin_ra)
    big_vals = enumerate_matrices(mbig, bin_ra)
    slots_big = _slot_pairs(mbig)
    keep = [slots_big.index(p) for p in _slot_pairs(msmall)]

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
            srel = set(small.cyl[p])
            qrel = set(quotient.cyl[p])
            for a in range(small.natoms):
                for b in range(small.natoms):
                    if ((a, b) in srel) != ((mapping[a], mapping[b]) in qrel):
                        fail(f"relation {p} differs at atom pair ({a},{b})")
                        break
                if not passed:
                    break
            for q in range(msmall):
                sd = set(small.diag[p][q])
                qd = set(quotient.diag[p][q])
                for a in range(small.natoms):
                    if (a in sd) != (mapping[a] in qd):
                        fail(f"diagonal ({p},{q}) differs at atom {a}")
                        break
        if quotient.transp is None:
            fail("quotient lost its transpositions")
        else:
            for p in range(msmall):
                for q in range(p + 1, msmall):
                    srel2 = set(small.transp_rel(p, q))
                    qrel2 = set(quotient.transp_rel(p, q))
                    for a, b in srel2:
                        if (mapping[a], mapping[b]) not in qrel2:
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
    big = basic_matrices(mbig, bin_ra)
    small = basic_matrices(msmall, bin_ra)
    big_vals = enumerate_matrices(mbig, bin_ra)
    small_vals = enumerate_matrices(msmall, bin_ra)
    slots_big = _slot_pairs(mbig)
    (id_atom,) = bin_ra.identity
    details: list[str] = []

    def in_x(values: tuple[int, ...]) -> bool:
        for col in range(msmall, mbig):
            if not any(
                values[slots_big.index((row, col))] == id_atom
                for row in range(msmall)
            ):
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
    keep = [slots_big.index(p) for p in _slot_pairs(msmall)]

    fibres: list[list[int]] = [[] for _ in small_vals]
    index_small = {v: i for i, v in enumerate(small_vals)}
    for a in rl.kept:
        gi = index_small.get(tuple(big_vals[a][s] for s in keep))
        if gi is None:
            details.append(f"kept matrix {a} restricts outside the small set")
            continue
        fibres[gi].append(pos_in_sub[a])

    embedding_ok = all(fibres[gi] for gi in range(len(small_vals)))
    if not embedding_ok:
        details.append("some small matrix has no extension inside x")

    def embed_mask(small_mask: int) -> int:
        out = 0
        for gi in _bits(small_mask):
            for p in fibres[gi]:
                out |= 1 << p
        return out

    if embedding_ok:
        for gi in range(small.natoms):
            g_el = Element(small, 1 << gi)
            im = Element(sub, embed_mask(1 << gi))
            for i in range(msmall):
                lhs = embed_mask(cyl(small, i, g_el).mask)
                rhs = cyl(sub, i, im).mask
                if lhs != rhs:
                    embedding_ok = False
                    details.append(f"c_{i} disagrees through the embedding at atom {gi}")
        for i in range(msmall):
            for j in range(msmall):
                if embed_mask(diag(small, i, j).mask) != sub.diag_mask(i, j):
                    embedding_ok = False
                    details.append(f"diagonal ({i},{j}) disagrees through the embedding")
        if sub.transp is not None:
            for i in range(msmall):
                for j in range(i + 1, msmall):
                    for gi in range(small.natoms):
                        lhs = embed_mask(
                            subst_transp(small, i, j, Element(small, 1 << gi)).mask
                        )
                        rhs = subst_transp(sub, i, j, Element(sub, embed_mask(1 << gi))).mask
                        if lhs != rhs:
                            embedding_ok = False
                            details.append(
                                f"transposition ({i},{j}) disagrees at atom {gi}"
                            )
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

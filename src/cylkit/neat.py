"""Reducts: index quotients, index renamings, relativization, the
relation-algebra reduct, and the restriction correspondence for basic
matrices.

Every transform returns both the derived object and a verification report.
A quotient's classes are found by one union-find over the distinct columns
of the dropped relations, exact for any relation, forced or not.  Its
report checks that each retained diagonal and each retained c_i's image of
each class is a union of classes; since c_i is complete additive, that
decides closedness for every closed set.  The quotient's operators are
read off those same class images (column c of its c_p is the set of
classes met by the image of class c), so they agree with the source on
atoms by construction, and by additivity on every closed set.  The
correspondences check that their atom map carries each operator of one
structure onto the other's (`iso._carried_defects`).

The atom-wise maps are `AdditiveOperator`s (a quotient frame's `to_class`
and `members`, the relativization's squeeze, the witness's embedding), and
the checks compare their images, or the column tables of their composites
(`AdditiveOperator.after`), as masks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .bao import (
    AdditiveOperator,
    CaAtomStructure,
    Element,
    _bits,
    _carried,
    _holders,
    cyl,
    diag,
    element,
    equivalence_defects,
    subst_repl,
)
from .constructions import _basic_matrices, _slot_index, _slot_pairs
from .iso import _carried_defects
from .ra import RaAtomStructure, RaAxiomReport, check_ra_axioms


def _join_classes(
    structure: CaAtomStructure, indices: Iterable[int]
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Per atom its class index, and per class its atoms in ascending
    order, for the equivalence generated by the relations of these
    indices, with classes numbered by least atom.

    A union-find (Tarjan, 1975) over each relation's distinct columns
    (`bao._holders`): the atoms of a non-empty column and every atom that
    holds it are joined.  Those are the relation's pairs, so this is exact
    for any relation, an equivalence or not.
    """
    parent = list(range(structure.natoms))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        return a

    for i in indices:
        for col, held in _holders(structure.cyl_image_masks(i)).items():
            if col:
                roots = {find(a) for a in (*_bits(col), *held)}
                root = min(roots)
                for r in roots:
                    parent[r] = root
    # roots first met in atom order: the classes in order of least atom
    roots = list(map(find, range(structure.natoms)))
    groups = _holders(roots)
    index = {root: ci for ci, root in enumerate(groups)}
    return [index[root] for root in roots], tuple(map(tuple, groups.values()))


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
    The certificate fails where a retained diagonal splits a class, or where
    a retained c_i's image of a class is not a union of classes (reported
    as the singleton subset of that class).  Each c_i is complete additive,
    so this per-class check decides closedness for every closed set, and
    the certificate level is always "exhaustive".  The quotient's T, E and
    P are the source's carried along the class map (`bao._carried`, with f
    = `to_class` and g = `members`): its c_i from the same class images the
    certificate reads, so they need no check of their own, and its E_ij
    from each class's least atom, which settles a class that a diagonal
    splits when forced.

    The transpositions are checked by their well-definedness on classes
    alone: P_ij passes to the quotient when every class has exactly one
    image class, and the quotient permutation is read off those images, so
    it agrees with the source on atoms by construction.  When one is not
    well-defined, the quotient carries no transpositions and the details
    name the first such pair (i, j) of each retained row i, rows in order;
    the certificate does not fail for it.
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

    class_of, classes = _join_classes(structure, dropped)
    members = AdditiveOperator(tuple(sum(1 << a for a in cls) for cls in classes))
    to_class = AdditiveOperator(tuple(1 << ci for ci in class_of))
    fails: list[str] = []

    def note_fail(msg: str) -> None:
        fails.append(msg)
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

    # per retained index, the source c_i's image of each class and the
    # classes it meets, with the quotient's diagonals and transpositions
    images, lifted, q_diag, q_transp, undefined = _carried(structure, gamma, to_class, members)
    quotient: CaAtomStructure | None = None
    if len(gamma) >= 2:
        rows: dict[int, str] = {}  # the first undefined pair of each row
        for i, j in undefined:
            rows.setdefault(i, f"transposition ({i},{j}) not well-defined on classes; dropped")
        details += rows.values()
        labels = tuple(f"c{ci}|{structure.atoms[cls[0]]}" for ci, cls in enumerate(classes))
        quotient = CaAtomStructure(
            dim=len(gamma), atoms=labels, cyl=lifted, diag=q_diag, transp=q_transp
        )
    else:
        details.append("fewer than two retained indices; no quotient structure built")

    frame = QuotientFrame(structure, gamma, classes, to_class, members, quotient)

    # closedness, class by class: a closed set is a union of classes and
    # c_i is complete additive, so its image is closed for every closed set
    # when it is for every class
    for ci in range(len(classes)):
        for i, image, met in zip(gamma, images, lifted):
            if members.apply(met[ci]) != image[ci]:
                note_fail(f"c_{i} image of a closed set is not closed (subset {1 << ci})")

    cert = NrCertificate(not fails, "exhaustive", tuple(details), fails[0] if fails else None)
    return frame, cert


def cyl_fixed_masks(structure: CaAtomStructure, i: int) -> list[int]:
    """Masks of every union of c_i's atom classes: the elements with
    c_i x = x when T_i is an equivalence.

    The classes are the distinct images c_i{a} in atom order; bit k of a
    mask's position in the list stands for the k-th class.
    """
    masks = [0]
    for c in _holders(structure.cyl_image_masks(i)):
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
    probe, since relativization can break relation composition laws.  T, E
    and P are carried to the kept atoms (`bao._carried`); when some P_ij
    moves a kept atom out of x, the subframe has none and the details say so."""
    if x.structure is not structure and x.structure != structure:
        raise ValueError("element belongs to a different structure")
    if x.is_empty:
        raise ValueError("cannot relativize to the empty element")
    kept = x.atom_indices()
    pos = {a: p for p, a in enumerate(kept)}
    # a kept atom to its position, any other atom to nothing
    squeeze = AdditiveOperator(
        tuple(1 << pos[a] if a in pos else 0 for a in range(structure.natoms))
    )
    _, cyl_rel, diag_rel, transp, undefined = _carried(
        structure, range(structure.dim), squeeze, AdditiveOperator.of_map(kept)
    )
    details = ["transpositions do not restrict to the kept atoms; dropped"] if undefined else []
    sub = CaAtomStructure(
        dim=structure.dim,
        atoms=tuple(structure.atoms[a] for a in kept),
        cyl=cyl_rel,
        diag=diag_rel,
        transp=transp,
    )
    ops = [sub.cyl_op(i) for i in range(sub.dim)]
    probe = tuple(
        (i, j, ops[i].after(ops[j]) == ops[j].after(ops[i]))
        for i, j in combinations(range(sub.dim), 2)
    )
    return RlResult(sub, kept, probe, all(same for _, _, same in probe), tuple(details))


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
    fails: list[str] = []

    def fail(msg: str) -> None:
        fails.append(msg)
        details.append(msg)

    fibres: dict[tuple[int, ...], list[int]] = {v: [] for v in small_vals}
    for fi, fv in enumerate(big_vals):
        restricted = tuple(fv[s] for s in keep)
        if restricted not in fibres:
            fail(f"big matrix {fi} restricts outside the small matrix set")
            return IsoReport(False, "exhaustive", None, tuple(details), fails[0])
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
        mapping.append(class_sets.get(fib, -1))
        if not fib:
            fail(f"small matrix {gi} has no extension")
        elif mapping[-1] < 0:
            fail(f"fibre of small matrix {gi} is not a quotient class")

    if not fails and sorted(mapping) != list(range(len(frame.classes))):
        fail("fibre map is not a bijection onto the quotient classes")

    quotient = frame.structure
    if not fails and quotient is not None:
        embed = AdditiveOperator.of_map(tuple(mapping))
        for line in _carried_defects(small, quotient, embed):
            fail(line)
        if quotient.transp is None:
            fail("quotient lost its transpositions")

    mapped = None if fails else tuple(mapping)
    return IsoReport(not fails, "exhaustive", mapped, tuple(details), fails[0] if fails else None)


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

    # the restriction's inverse image, which must carry each operator of
    # small onto the same operator of sub
    embed = AdditiveOperator(tuple(sum(1 << p for p in fib) for fib in fibres))
    if embedding_ok:
        defects = list(_carried_defects(small, sub, embed))
        embedding_ok = not defects
        details += defects
        if sub.transp is None:
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

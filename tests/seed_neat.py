"""The quotient certificate that swept subsets of classes, kept as an oracle.

`nr` is the earlier `cylkit.neat.nr`, unchanged: it checks the closedness
of c_i's image of every union of classes when there are at most
EXHAUSTIVE_CLASS_LIMIT classes, and of SAMPLE_COUNT seeded random unions
otherwise; it compares the quotient's operators and diagonals against the
source on those unions; and it checks every retained diagonal twice, once
class by class and once as a union of classes.  On at most
EXHAUSTIVE_CLASS_LIMIT classes `cylkit.neat.nr` must give the same
verdict, the same counterexample, and the same details less the lines for
unions of more than one class and the second diagonal check's lines.

`restriction_defects` is the pairwise bit loop with which the earlier
`cylkit.neat.restriction_iso` compared the small structure with the
quotient through its atom bijection `mapping`, unchanged apart from taking
the two structures as arguments and returning its failure lines.  It
reports the first defect of each relation, diagonal and transposition in
its own words; once one has failed, later relations are read at their
first row only.

`_join_classes` is the earlier `cylkit.neat._join_classes`, unchanged: it
grows each class from its least atom by applying the operator of "equal,
or related either way" to a fixpoint, over an n-column table built with a
`transpose` of every relation.  The union-find that replaced it must give
the same class masks in the same order.
"""
from __future__ import annotations

import random
from typing import Iterable

from cylkit.bao import (
    AdditiveOperator,
    CaAtomStructure,
    _bits,
    equivalence_defects,
    transpose,
)
from cylkit.neat import NrCertificate, QuotientFrame

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


def restriction_defects(small: CaAtomStructure, quotient: CaAtomStructure, mapping) -> list[str]:
    msmall = small.dim
    details: list[str] = []
    passed = True

    def fail(msg: str) -> None:
        nonlocal passed
        passed = False
        details.append(msg)

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
    return details

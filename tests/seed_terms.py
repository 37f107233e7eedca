"""The exhaustive equation check that swept one outer mask at a time, kept
as an oracle.

`check_exhaustive` is the earlier `cylkit.terms._check_exhaustive`: the
last variable sweeps all its masks as one array, and with two variables
the first runs over every mask, one program run per mask, with no
reduction to the distinct values of the last variable's subterms and no
blocking.  The earlier program ran the steps that do not read the first
variable once, before its loop; here the one-shot program runs whole per
mask, which gives the same values.  The report (verdict, assignment count,
counterexample) is built as the earlier one was: the first violating mask
of the first variable and, for it, the least mask of the last.

`_product_indices` is the earlier `cylkit.terms._product_indices`,
unchanged: the recursive generator of atom-index tuples that atoms mode
swept before `itertools.product`, which yields them in the same order.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from cylkit.bao import CaAtomStructure, Element
from cylkit.terms import EquationReport, Term, _compile, _violates, variables


def check_exhaustive(
    structure: CaAtomStructure, lhs: Term, rhs: Term, relation: str = "eq"
) -> EquationReport:
    vs = sorted(variables(lhs) | variables(rhs))
    if len(vs) > 2:
        raise ValueError("exhaustive mode supports at most 2 variables")
    total = 1 << structure.natoms
    if not vs:
        lv, rv = _compile(structure, (lhs, rhs))({})
        bad = _violates(relation, lv, rv)
        return EquationReport(not bad, () if bad else None, 1, "exhaustive", relation)

    every = np.arange(total, dtype=np.uint32)
    program = _compile(structure, (lhs, rhs), arrays=(vs[-1],))
    outer = range(total) if len(vs) == 2 else [None]
    for xmask in outer:
        env = {vs[-1]: every} if xmask is None else {vs[0]: xmask, vs[-1]: every}
        lv, rv = program(env)
        viol = lv != rv if relation == "eq" else lv | rv != rv
        if viol.any():
            found = {vs[-1]: int(viol.argmax())}
            if xmask is not None:
                found[vs[0]] = xmask
            counterexample = tuple((v, Element(structure, m)) for v, m in sorted(found.items()))
            count = total if xmask is None else (xmask + 1) * total
            return EquationReport(False, counterexample, count, "exhaustive", relation)
    return EquationReport(True, None, total ** len(vs), "exhaustive", relation)


def _product_indices(n: int, arity: int) -> Iterator[tuple[int, ...]]:
    if arity == 0:
        yield ()
        return
    for head in range(n):
        for tail in _product_indices(n, arity - 1):
            yield (head, *tail)

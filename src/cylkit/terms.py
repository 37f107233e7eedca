"""Term AST over the cylindric/polyadic signature, evaluation, and checking.

Terms are frozen dataclass trees with integer-indexed variables.  A term
is evaluated in the complex algebra of a structure over raw masks by one
generated function.  `_compile` emits straight-line Python source in which
each compound subterm, identical ones once, is one assignment, and compiles
it; the code object is kept per source text (`_code`).  Index ranges are checked, constant masks and the structure's
`AdditiveOperator`s looked up, and each operator application given its form
while the source is emitted: on an int mask, the operator's lookup tables
indexed inline (one table read up to 16 atoms, two up to 32), `apply`
above 32 atoms; `apply_vec` on a uint32 array of masks.  Term fields,
masks and operators are bound in the function's namespace, so the source
holds only generated names, and terms of one shape share one code object.  `eval_term` is the Element-level entry point:
its program reads the Elements' masks itself, and it keeps the program for
the last structure on the term node.

The equation checker compiles both sides into one program per check and
decides equations and inequalities in three modes: exhaustive (all element
assignments, a decision procedure for the finite complex algebra), atoms
(singleton assignments), and seeded sampling.  In an exhaustive check the
last variable y sweeps all masks as one array.  With two variables, x and
y, the steps that read y and not x run once over all masks; a side reads y
only through the frontier, the maximal such steps that a step reading x or
a side reads, so the program reduces y to the distinct tuples of frontier
values and sweeps x, a column block of masks at a time, against those
tuples only.  The counterexample's y is read back through the inverse map.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from types import CodeType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .bao import AdditiveOperator, CaAtomStructure, Element


class Term:
    """Base class for AST nodes.

    `eval_term` keeps a node's compiled program, with the structure it was
    compiled for, in the node's `__dict__` under `_lowered`, outside its
    dataclass fields, so equality, hashing and repr never see it; a pickled
    or copied node leaves it behind.
    """

    __slots__ = ()

    def __getstate__(self) -> dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if k != "_lowered"}


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    k: int


@dataclass(frozen=True)
class Complement(Term):
    arg: Term


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Cyl(Term):
    i: int
    arg: Term


@dataclass(frozen=True)
class Diag(Term):
    i: int
    j: int


@dataclass(frozen=True)
class SubstRepl(Term):
    i: int
    j: int
    arg: Term


@dataclass(frozen=True)
class SubstTransp(Term):
    i: int
    j: int
    arg: Term


@dataclass(frozen=True)
class SwapMacro(Term):
    """Coordinate swap of i and j routed through a spare index k."""

    k: int
    i: int
    j: int
    arg: Term


@dataclass(frozen=True)
class DualCyl(Term):
    i: int
    arg: Term


def expand_swap(t: SwapMacro) -> Term:
    """Expansion of the swap macro as a chain of replacement substitutions.

    The chain parks coordinate j's value at the spare index k, overwrites j
    from i, then overwrites i from k; on elements not depending on index k
    the net effect is the (i,j) coordinate swap.
    """
    return SubstRepl(t.k, t.i, SubstRepl(t.i, t.j, SubstRepl(t.j, t.k, t.arg)))


def variables(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset({t.k})
    if isinstance(t, (Zero, One, Diag)):
        return frozenset()
    if isinstance(t, (Meet, Join)):
        return variables(t.left) | variables(t.right)
    return variables(t.arg)  # type: ignore[union-attr]


Mask = Union[int, np.ndarray]


class _Ref(NamedTuple):
    """A value in a term program: its expression (a generated name or the
    literal 0), whether it is a uint32 array of masks, and whether it reads
    the loop variable."""

    expr: str
    array: bool
    varying: bool


class _Emitter:
    """The source of one straight-line function evaluating terms over a
    structure.

    Every compound subterm, identical ones once, becomes one assignment.  A
    variable is read from the environment where evaluation first needs it,
    as a mask or, with `elements`, as the mask of an Element; `arrays` names
    the variables bound to uint32 arrays of masks and `outer` is the loop
    variable's key, if there is one: it is bound to a column of masks, and
    the array values that its steps or the sides read without reading it
    form the frontier.  The form of each operator application
    is chosen here: `apply_vec` on an array; on an int, the operator's
    table rows indexed inline, one row up to 16 atoms and two of w bits
    each up to 32 (`r0[x & 2^w - 1] | r1[x >> w]`); `apply` above that.
    Everything the terms and the structure hold (variable keys, masks, table
    rows, operators, error texts) is bound in `namespace` under a generated
    name, so the source holds only generated names, the literals 0, w and
    2^w - 1, and Python operators.
    """

    def __init__(
        self,
        structure: CaAtomStructure,
        arrays: tuple[object, ...],
        outer: object | None,
        elements: bool = False,
    ) -> None:
        self.structure = structure
        self.arrays = arrays
        self.outer = outer
        self._read = ".mask" if elements else ""
        self.namespace: dict[str, object] = {}
        self._bound: dict[int, str] = {}
        self._seen: dict[Term, _Ref] = {}
        # tuples and a list, not sets: a variable key is only compared here;
        # the program's env lookup is the first to hash it
        self._vars = [] if outer is None else [(outer, _Ref("x0", True, True))]
        self._steps = 0
        self.fixed: list[str] = []
        self.varying: list[str] = []
        self._frontier: dict[str, None] = {}
        self._full = self._bind(structure.full_mask, "f")

    def _bind(self, value: object, prefix: str) -> str:
        """A generated name for value in the namespace, one per object."""
        name = self._bound.get(id(value))
        if name is None:
            name = self._bound[id(value)] = f"{prefix}{len(self._bound)}"
            self.namespace[name] = value
        return name

    def _assign(self, expr: str, array: bool, varying: bool) -> _Ref:
        name = f"t{self._steps}"
        self._steps += 1
        (self.varying if varying else self.fixed).append(f"{name} = {expr}")
        return _Ref(name, array, varying)

    def _to_frontier(self, *refs: _Ref) -> None:
        """Record that a step or side reading the loop variable reads refs."""
        for ref in refs:
            if ref.array and not ref.varying:
                self._frontier[ref.expr] = None

    def _var(self, k: object) -> _Ref:
        for key, ref in self._vars:
            if key == k:
                return ref
        ref = _Ref(f"x{len(self._vars)}", k in self.arrays, False)
        self._vars.append((k, ref))
        key, text = self._bind(k, "k"), self._bind(f"unbound variable {k}", "u")
        self.fixed += [
            "try:",
            f"    {ref.expr} = env[{key}]{self._read}",
            "except KeyError:",
            f"    raise ValueError({text}) from None",
        ]
        return ref

    def _apply(self, op: AdditiveOperator, arg: str, of: _Ref, after: str = "") -> _Ref:
        """One assignment: op applied to the expression arg, whose value is
        an array or reads the loop variable as `of` does."""
        if of.array:
            expr = f"{self._bind(op.apply_vec, 'v')}({arg})"
        elif not op._tabled:
            expr = f"{self._bind(op.apply, 'a')}({arg})"
        else:
            rows = [self._bind(row, "r") for row in op._rows]
            if len(rows) == 1:
                expr = f"{rows[0]}[{arg}]"
            else:
                if not arg.isidentifier():
                    arg = self._assign(arg, False, of.varying).expr
                w = op._width
                # every mask lies below 1 << natoms, so the high chunk needs no mask
                expr = f"{rows[0]}[{arg} & {(1 << w) - 1}] | {rows[1]}[{arg} >> {w}]"
        if after:
            expr = f"({expr}){after}"
        return self._assign(expr, of.array, of.varying)

    def visit(self, t: Term) -> _Ref:
        """The value of t, emitting its steps once.

        Index ranges are checked, and constants and operators looked up,
        here: an ill-formed term raises while it is emitted.
        """
        if isinstance(t, SwapMacro):
            t = expand_swap(t)
        if isinstance(t, Var):
            return self._var(t.k)
        if isinstance(t, Zero):
            return _Ref("0", False, False)
        if isinstance(t, One):
            return _Ref(self._full, False, False)
        if isinstance(t, Diag):
            return _Ref(self._bind(self.structure.diag_mask(t.i, t.j), "d"), False, False)
        ref = self._seen.get(t)
        if ref is None:
            ref = self._seen[t] = self._compound(t)
        return ref

    def _compound(self, t: Term) -> _Ref:
        structure, full = self.structure, self._full
        if isinstance(t, (Meet, Join)):
            left, right = self.visit(t.left), self.visit(t.right)
            op = "&" if isinstance(t, Meet) else "|"
            varying = left.varying or right.varying
            if varying:
                self._to_frontier(left, right)
            return self._assign(
                f"{left.expr} {op} {right.expr}", left.array or right.array, varying
            )
        if not isinstance(t, (Complement, Cyl, DualCyl, SubstRepl, SubstTransp)):
            raise TypeError(f"unknown term node {t!r}")
        arg = self.visit(t.arg)
        if isinstance(t, Complement):
            return self._assign(f"{arg.expr} ^ {full}", arg.array, arg.varying)
        if isinstance(t, Cyl):
            return self._apply(structure.cyl_op(t.i), arg.expr, arg)
        if isinstance(t, DualCyl):
            return self._apply(structure.cyl_op(t.i), f"{arg.expr} ^ {full}", arg, f" ^ {full}")
        if isinstance(t, SubstRepl):
            dmask = self._bind(structure.diag_mask(t.i, t.j), "d")
            if t.i == t.j:
                return arg
            return self._apply(structure.cyl_op(t.i), f"{arg.expr} & {dmask}", arg)
        structure._check_index(t.i)
        structure._check_index(t.j)
        return arg if t.i == t.j else self._apply(structure.transp_op(t.i, t.j), arg.expr, arg)

    def source(self, sides: Sequence[Term]) -> str:
        """`_program(env)` returning the sides' values (one value for one
        side).  With a loop variable it is a generator: it runs the steps
        that do not read the loop variable once, reduces the frontier to its
        distinct tuples (`_distinct`) and yields the inverse map; then, per
        column block of loop masks, the block and the sides' values, one
        column per distinct tuple."""
        refs = [self.visit(t) for t in sides]
        values = ", ".join(ref.expr for ref in refs)
        lines = ["def _program(env):", *("    " + line for line in self.fixed)]
        if self.outer is None:
            lines.append(f"    return {values}")
        else:
            self._to_frontier(*refs)
            names = ", ".join(self._frontier)
            lines += [
                f"    inverse, blocks, {names} = {self._bind(_distinct, 's')}({names})",
                "    yield inverse",
                "    for x0 in blocks:",
                *("        " + line for line in self.varying),
                f"        yield x0, {values}",
            ]
        return "\n".join(lines) + "\n"


# The loop masks of one block of a two-variable sweep are chosen so that a
# block holds about this many assignments.
_BLOCK = 1 << 14


def _distinct(*columns: np.ndarray) -> tuple[object, ...]:
    """Reduce the frontier columns, each one value per mask of the last
    variable, to their distinct tuples.  Returns the inverse map from each
    mask to its tuple, the loop variable's masks (as many) in column blocks,
    and each column at the first mask of each tuple."""
    inverse = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        # a tuple code is below 2^16 and a mask below 2^32
        _, first, inverse = np.unique(
            inverse << 32 | column, return_index=True, return_inverse=True
        )
    rows = max(1, _BLOCK // len(first))
    masks = np.arange(len(inverse), dtype=np.uint32)[:, None]
    blocks = (masks[start : start + rows] for start in range(0, len(masks), rows))
    return (inverse, blocks, *(column[first] for column in columns))


def _compile(
    structure: CaAtomStructure,
    sides: Sequence[Term],
    arrays: tuple[object, ...] = (),
    outer: object | None = None,
    elements: bool = False,
) -> Callable[..., object]:
    """Compile the terms, once, into one program over the structure (see
    `_Emitter.source`); identical subterms are evaluated once.  With
    `elements`, the environment maps variables to Elements, whose masks
    the program reads."""
    emitter = _Emitter(structure, arrays, outer, elements)
    exec(_code(emitter.source(sides)), emitter.namespace)
    return emitter.namespace["_program"]  # type: ignore[return-value]


@lru_cache(maxsize=1024)
def _code(source: str) -> CodeType:
    """The compiled source.  A source holds only generated names, so terms of
    one shape, such as C3 at each index, share one code object."""
    return compile(source, "<cylkit term program>", "exec")


def _eval_masks(structure: CaAtomStructure, t: Term, env: Mapping[object, Mask]) -> Mask:
    """Denotation of t where each variable maps to a mask: an int, or a
    uint32 array of masks, one per assignment."""
    arrays = tuple(k for k, v in env.items() if isinstance(v, np.ndarray))
    return _compile(structure, (t,), arrays)(env)  # type: ignore[no-any-return]


def eval_term(structure: CaAtomStructure, t: Term, env: Mapping[int, Element]) -> Element:
    """Denotation of t under env in the complex algebra of the structure.

    t is compiled once, and the program kept on the term node, outside its
    dataclass fields, for the structure it was compiled for; evaluating t
    in another structure compiles it again.  The program reads the masks
    of the Elements in env itself; every Element in env, read or not, must
    belong to the structure.
    """
    for x in env.values():
        if not (x.structure is structure or x.structure == structure):
            raise ValueError("environment element belongs to a different structure")
    memo = t.__dict__.get("_lowered")
    if memo is None or memo[0] is not structure:
        memo = structure, _compile(structure, (t,), elements=True)
        object.__setattr__(t, "_lowered", memo)
    return Element(structure, memo[1](env))


# ---------------------------------------------------------------------------
# equation checking


@dataclass(frozen=True)
class Exhaustive:
    """Try every element assignment; decision procedure for the structure."""


@dataclass(frozen=True)
class AtomsMode:
    """Try every singleton (atom) assignment."""


@dataclass(frozen=True)
class Sample:
    """Try `count` assignments drawn from a seeded pseudo-random generator."""

    seed: int
    count: int


CheckMode = Union[Exhaustive, AtomsMode, Sample]


@dataclass(frozen=True)
class EquationReport:
    holds: bool
    counterexample: tuple[tuple[int, Element], ...] | None
    assignments: int
    mode: str
    relation: str

    def counterexample_env(self) -> dict[int, Element] | None:
        return None if self.counterexample is None else dict(self.counterexample)


def _violates(relation: str, lv: int, rv: int) -> bool:
    if relation == "eq":
        return lv != rv
    if relation == "leq":
        return lv & ~rv != 0
    raise ValueError(f"unknown relation {relation!r}")


def _counterexample(
    structure: CaAtomStructure, masks: Mapping[int, int]
) -> tuple[tuple[int, Element], ...]:
    return tuple((v, Element(structure, m)) for v, m in sorted(masks.items()))


def check_equation(
    structure: CaAtomStructure,
    lhs: Term,
    rhs: Term,
    mode: CheckMode = Exhaustive(),
    relation: str = "eq",
) -> EquationReport:
    """Check lhs = rhs (or lhs <= rhs) under the given assignment mode.

    Both sides are compiled once into one program (`_compile`), so a
    subterm they share is evaluated once per assignment.
    """
    if relation not in ("eq", "leq"):
        raise ValueError(f"unknown relation {relation!r}")
    vs = sorted(variables(lhs) | variables(rhs))
    n = structure.natoms

    if isinstance(mode, Exhaustive):
        if len(vs) > 2:
            raise ValueError("exhaustive mode supports at most 2 variables")
        if n > 16:
            raise ValueError("exhaustive mode requires at most 2^16 elements per variable")
        return _check_exhaustive(structure, lhs, rhs, relation, vs)

    if isinstance(mode, AtomsMode):
        if n ** max(len(vs), 1) > 1 << 20:
            raise ValueError("atoms mode bound exceeded")
        assignments: Iterator[dict[int, int]] = (
            {v: 1 << a for v, a in zip(vs, combo)}
            for combo in itertools.product(range(n), repeat=len(vs))
        )
        label = "atoms"
    elif isinstance(mode, Sample):
        rng = random.Random(mode.seed)
        assignments = ({v: rng.getrandbits(n) for v in vs} for _ in range(mode.count))
        label = "sample"
    else:
        raise TypeError(f"unknown mode {mode!r}")

    program = _compile(structure, (lhs, rhs))
    count = 0
    for masks in assignments:
        count += 1
        lv, rv = program(masks)
        if _violates(relation, lv, rv):
            return EquationReport(
                False, _counterexample(structure, masks), count, label, relation
            )
    return EquationReport(True, None, count, label, relation)


def _check_exhaustive(
    structure: CaAtomStructure,
    lhs: Term,
    rhs: Term,
    relation: str,
    vs: list[int],
) -> EquationReport:
    total = 1 << structure.natoms
    if not vs:
        lv, rv = _compile(structure, (lhs, rhs))({})
        bad = _violates(relation, lv, rv)
        return EquationReport(not bad, () if bad else None, 1, "exhaustive", relation)

    # The last variable sweeps all its masks at once, as one array.  With two
    # variables the first is the program's loop variable, swept a column block
    # at a time against the distinct tuples of the last variable's frontier.
    # At least one side reads each variable, and numpy broadcasts the other;
    # every mask lies in the full mask, so lv <= rv iff lv | rv == rv.
    env = {vs[-1]: np.arange(total, dtype=np.uint32)}
    found: dict[int, int] = {}
    if len(vs) == 1:
        lv, rv = _compile(structure, (lhs, rhs), arrays=(vs[0],))(env)
        viol = lv != rv if relation == "eq" else lv | rv != rv
        if viol.any():
            found = {vs[0]: int(viol.argmax())}
        count = total
    else:
        sweep = _compile(structure, (lhs, rhs), arrays=(vs[1],), outer=vs[0])(env)
        inverse = next(sweep)
        for xmasks, lv, rv in sweep:
            viol = lv != rv if relation == "eq" else lv | rv != rv
            if viol.any():
                row = int(viol.any(axis=1).argmax())
                xmask = int(xmasks[row, 0])
                found = {vs[0]: xmask, vs[1]: int(viol[row][inverse].argmax())}
                count = (xmask + 1) * total
                break
        else:
            count = total * total
    if not found:
        return EquationReport(True, None, count, "exhaustive", relation)
    return EquationReport(False, _counterexample(structure, found), count, "exhaustive", relation)


# ---------------------------------------------------------------------------
# axiom library


@dataclass(frozen=True)
class NamedEquation:
    name: str
    lhs: Term
    rhs: Term
    relation: str = "eq"


def ca_axioms(dim: int) -> tuple[NamedEquation, ...]:
    """All instances of the cylindric axioms C1-C7 at the given dimension."""
    x, y = Var(0), Var(1)
    out: list[NamedEquation] = []
    for i in range(dim):
        out.append(NamedEquation(f"C1_c{i}_zero", Cyl(i, Zero()), Zero()))
        out.append(NamedEquation(f"C2_x_leq_c{i}x", x, Cyl(i, x), "leq"))
        out.append(
            NamedEquation(
                f"C3_c{i}_meet",
                Cyl(i, Meet(x, Cyl(i, y))),
                Meet(Cyl(i, x), Cyl(i, y)),
            )
        )
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append(
                NamedEquation(f"C4_c{i}c{j}_commute", Cyl(i, Cyl(j, x)), Cyl(j, Cyl(i, x)))
            )
    for i in range(dim):
        out.append(NamedEquation(f"C5_d{i}{i}_one", Diag(i, i), One()))
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if k in (i, j):
                    continue
                out.append(
                    NamedEquation(
                        f"C6_d{i}{j}_via_{k}",
                        Diag(i, j),
                        Cyl(k, Meet(Diag(i, k), Diag(k, j))),
                    )
                )
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            out.append(
                NamedEquation(
                    f"C7_d{i}{j}_discrete",
                    Meet(
                        Cyl(i, Meet(Diag(i, j), x)),
                        Cyl(i, Meet(Diag(i, j), Complement(x))),
                    ),
                    Zero(),
                )
            )
    return tuple(out)


def pea_axioms(dim: int) -> tuple[NamedEquation, ...]:
    """Transposition-substitution laws for polyadic-equality signatures."""
    x = Var(0)
    out: list[NamedEquation] = []
    for i in range(dim):
        for j in range(i + 1, dim):
            swap = {i: j, j: i}
            out.append(
                NamedEquation(
                    f"P{i}{j}_involution", SubstTransp(i, j, SubstTransp(i, j, x)), x
                )
            )
            out.append(
                NamedEquation(
                    f"P{i}{j}_complement",
                    SubstTransp(i, j, Complement(x)),
                    Complement(SubstTransp(i, j, x)),
                )
            )
            for k in range(dim):
                out.append(
                    NamedEquation(
                        f"P{i}{j}_cyl{k}",
                        SubstTransp(i, j, Cyl(k, x)),
                        Cyl(swap.get(k, k), SubstTransp(i, j, x)),
                    )
                )
            for k in range(dim):
                for l in range(dim):
                    out.append(
                        NamedEquation(
                            f"P{i}{j}_diag{k}{l}",
                            SubstTransp(i, j, Diag(k, l)),
                            Diag(swap.get(k, k), swap.get(l, l)),
                        )
                    )
    return tuple(out)


# ---------------------------------------------------------------------------
# witness terms: coordinate swap and relational composition, with and
# without a spare dimension


def swap01_lowdim() -> Term:
    """Three-dimensional upper bound for the (0,1) coordinate swap of Var(0)."""
    x = Var(0)
    return Meet(SubstRepl(0, 1, Cyl(1, x)), SubstRepl(1, 0, Cyl(0, x)))


def swap01_spare() -> Term:
    """(0,1) coordinate swap of Var(0) routed through spare index 3.

    Exact on elements fixed by c_3 (see `expand_swap`); on an element that
    depends on index 3 it is not the swap and can escape `swap01_lowdim`.
    """
    return SwapMacro(3, 0, 1, Var(0))


def relcomp01_lowdim() -> Term:
    """Three-dimensional upper bound for relational composition of Var(0), Var(1)."""
    x, y = Var(0), Var(1)
    return Meet(
        Cyl(1, Meet(Cyl(0, x), SubstRepl(0, 1, Cyl(1, y)))),
        Meet(Cyl(1, x), Cyl(0, y)),
    )


def relcomp01_spare() -> Term:
    """Relational composition on coordinates (0,1) routed through spare index 3.

    Exact when Var(0) and Var(1) are fixed by c_3.  Both arguments are
    cylindrified on index 3 first, so on elements that depend on index 3 it
    composes c_3 x and c_3 y, which can escape `relcomp01_lowdim`.
    """
    x, y = Var(0), Var(1)
    return Cyl(3, Meet(SubstRepl(1, 3, Cyl(3, x)), SubstRepl(0, 3, Cyl(3, y))))


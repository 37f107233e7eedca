"""Term AST over the cylindric/polyadic signature, evaluation, and checking.

Terms are frozen dataclass trees with integer-indexed variables.  A term
is evaluated in the complex algebra of a structure over raw masks through
one lowering into closures, `_lower`: index ranges, constant masks and the
structure's `AdditiveOperator`s are resolved once, and the closures map an
environment (a variable to an int mask, or to a uint32 array of masks) to
the term's mask, applying each operator through `apply` or `apply_vec` by
the type of its argument.  `eval_term` is its Element-level entry point and
keeps the lowering per term for its last structure.

The equation checker compiles both sides into one post-order program in
which shared subterms are evaluated once, lowers each step once per check,
and decides equations and inequalities in three modes: exhaustive (all
element assignments, a decision procedure for the finite complex algebra;
the last variable sweeps all masks as one array, and steps that do not
read the first of two variables run once per check), atoms (singleton
assignments), and seeded sampling.

The sc-word calculus turns a string of replacement-substitution and
cylindrifier tokens into the partial self-map of indices it induces.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from .bao import AdditiveOperator, CaAtomStructure, Element


class Term:
    """Base class for AST nodes.

    `eval_term` keeps a node's lowered form in the node's `__dict__`, outside
    its dataclass fields, so equality, hashing and repr never see it; a
    pickled or copied node leaves it behind.
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
# A lowered term: env -> mask, env mapping each variable to its mask.
Lowered = Callable[[Mapping[int, Mask]], Mask]


def _applied(op: AdditiveOperator, arg: Lowered) -> Lowered:
    """op applied to arg's value: `apply` to an int, `apply_vec` to an array."""
    apply, apply_vec = op.apply, op.apply_vec

    def fn(env: Mapping[int, Mask]) -> Mask:
        x = arg(env)
        return apply_vec(x) if isinstance(x, np.ndarray) else apply(x)

    return fn


def _lower(structure: CaAtomStructure, t: Term) -> Lowered:
    """Lower t, once, into nested closures env -> mask over the structure.

    A variable maps to a mask: an int, or a uint32 array of masks, one per
    assignment; the value is an array as soon as an array variable reaches
    it.  Index ranges are checked, and each node's operator or constant
    mask is looked up, here rather than per evaluation.
    """
    if isinstance(t, Var):
        k = t.k

        def var(env: Mapping[int, Mask]) -> Mask:
            try:
                return env[k]
            except KeyError:
                raise ValueError(f"unbound variable {k}") from None

        return var
    if isinstance(t, (Zero, One, Diag)):
        if isinstance(t, Zero):
            value = 0
        elif isinstance(t, One):
            value = structure.full_mask
        else:
            value = structure.diag_mask(t.i, t.j)
        return lambda env: value
    if isinstance(t, (Meet, Join)):
        left, right = _lower(structure, t.left), _lower(structure, t.right)
        if isinstance(t, Meet):
            return lambda env: left(env) & right(env)
        return lambda env: left(env) | right(env)
    if isinstance(t, SwapMacro):
        return _lower(structure, expand_swap(t))
    if not isinstance(t, (Complement, Cyl, DualCyl, SubstRepl, SubstTransp)):
        raise TypeError(f"unknown term node {t!r}")
    arg = _lower(structure, t.arg)
    full = structure.full_mask
    if isinstance(t, Complement):
        return lambda env: arg(env) ^ full
    if isinstance(t, Cyl):
        return _applied(structure.cyl_op(t.i), arg)
    if isinstance(t, DualCyl):
        cyl = _applied(structure.cyl_op(t.i), lambda env: arg(env) ^ full)
        return lambda env: cyl(env) ^ full
    if isinstance(t, SubstRepl):
        dmask = structure.diag_mask(t.i, t.j)
        if t.i == t.j:
            return arg
        return _applied(structure.cyl_op(t.i), lambda env: arg(env) & dmask)
    structure._check_index(t.i)
    structure._check_index(t.j)
    return arg if t.i == t.j else _applied(structure.transp_op(t.i, t.j), arg)


def _eval_masks(structure: CaAtomStructure, t: Term, env: Mapping[int, Mask]) -> Mask:
    """Denotation of t where each variable maps to a mask (see `_lower`)."""
    return _lower(structure, t)(env)


def eval_term(structure: CaAtomStructure, t: Term, env: Mapping[int, Element]) -> Element:
    """Denotation of t under env in the complex algebra of the structure.

    The lowered term is kept on the term node for the last structure it
    was evaluated in, outside its dataclass fields.
    """
    masks = {}
    for k, x in env.items():
        if not (x.structure is structure or x.structure == structure):
            raise ValueError("environment element belongs to a different structure")
        masks[k] = x.mask
    memo = t.__dict__.get("_lowered")
    if memo is None or memo[0] is not structure:
        memo = structure, _lower(structure, t)
        object.__setattr__(t, "_lowered", memo)
    return Element(structure, memo[1](masks))


# One step of a compiled program: (slot, lowered node, variables).  The node
# is one operation whose compound children are read from Var(slot) of
# earlier steps.
_Step = tuple[int, Lowered, frozenset[int]]


def _compile(
    structure: CaAtomStructure, sides: Sequence[Term], vs: Sequence[int]
) -> tuple[list[_Step], list[Lowered]]:
    """Compile terms into one lowered post-order program with shared subterms.

    Every compound subterm, identical ones once, becomes a step that stores
    its mask in a slot variable numbered above every variable in `vs`.
    Returns the steps and, per side, the lowered term that reads its value:
    a slot variable, or the side itself when it is a leaf.
    """
    base = max(vs, default=-1) + 1
    seen: dict[Term, tuple[Term, frozenset[int]]] = {}
    steps: list[_Step] = []
    refs = [_visit(structure, t, base, seen, steps)[0] for t in sides]
    return steps, [_lower(structure, ref) for ref in refs]


def _visit(
    structure: CaAtomStructure,
    t: Term,
    base: int,
    seen: dict[Term, tuple[Term, frozenset[int]]],
    steps: list[_Step],
) -> tuple[Term, frozenset[int]]:
    """The term that reads t's value after the steps, and t's variables."""
    if isinstance(t, SwapMacro):
        t = expand_swap(t)
    if isinstance(t, Var):
        return t, frozenset({t.k})
    if isinstance(t, (Zero, One, Diag)):
        return t, frozenset()
    if t in seen:
        return seen[t]
    if isinstance(t, (Meet, Join)):
        left, lvars = _visit(structure, t.left, base, seen, steps)
        right, rvars = _visit(structure, t.right, base, seen, steps)
        node, tvars = replace(t, left=left, right=right), lvars | rvars
    elif isinstance(t, (Complement, Cyl, DualCyl, SubstRepl, SubstTransp)):
        arg, tvars = _visit(structure, t.arg, base, seen, steps)
        node = replace(t, arg=arg)
    else:
        raise TypeError(f"unknown term node {t!r}")
    slot = base + len(steps)
    steps.append((slot, _lower(structure, node), tvars))
    seen[t] = Var(slot), tvars
    return seen[t]


def _run(steps: Sequence[_Step], env: dict[int, Mask]) -> None:
    """Evaluate the steps in order, storing each mask in env under its slot."""
    for slot, fn, _ in steps:
        env[slot] = fn(env)


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
            for combo in _product_indices(n, len(vs))
        )
        label = "atoms"
    elif isinstance(mode, Sample):
        rng = random.Random(mode.seed)
        assignments = ({v: rng.getrandbits(n) for v in vs} for _ in range(mode.count))
        label = "sample"
    else:
        raise TypeError(f"unknown mode {mode!r}")

    steps, (lref, rref) = _compile(structure, (lhs, rhs), vs)
    count = 0
    for masks in assignments:
        count += 1
        env = dict(masks)
        _run(steps, env)
        if _violates(relation, lref(env), rref(env)):
            return EquationReport(
                False, _counterexample(structure, masks), count, label, relation
            )
    return EquationReport(True, None, count, label, relation)


def _product_indices(n: int, arity: int) -> Iterator[tuple[int, ...]]:
    if arity == 0:
        yield ()
        return
    for head in range(n):
        for tail in _product_indices(n, arity - 1):
            yield (head, *tail)


def _check_exhaustive(
    structure: CaAtomStructure,
    lhs: Term,
    rhs: Term,
    relation: str,
    vs: list[int],
) -> EquationReport:
    n = structure.natoms
    total = 1 << n
    steps, (lref, rref) = _compile(structure, (lhs, rhs), vs)
    if not vs:
        env: dict[int, Mask] = {}
        _run(steps, env)
        bad = _violates(relation, lref(env), rref(env))
        return EquationReport(not bad, () if bad else None, 1, "exhaustive", relation)

    # The last variable sweeps all its masks at once, as one array.  With two
    # variables the first runs over its masks one at a time, and the steps
    # that do not read it are evaluated once, before that loop.
    all_masks = np.arange(total, dtype=np.uint32)
    full = np.uint32(structure.full_mask)
    outer = vs[0] if len(vs) == 2 else None
    fixed: dict[int, Mask] = {vs[-1]: all_masks}
    _run([s for s in steps if outer not in s[2]], fixed)
    varying = [s for s in steps if outer in s[2]]
    for xmask in range(total if outer is not None else 1):
        env = fixed if outer is None else {**fixed, outer: xmask}
        _run(varying, env)
        lv = np.broadcast_to(np.asarray(lref(env), dtype=np.uint32), (total,))
        rv = np.broadcast_to(np.asarray(rref(env), dtype=np.uint32), (total,))
        viol = (lv != rv) if relation == "eq" else (lv & ~rv & full) != 0
        if viol.any():
            found = {vs[-1]: int(viol.argmax())}
            if outer is not None:
                found[outer] = xmask
            return EquationReport(
                False,
                _counterexample(structure, found),
                (xmask + 1) * total,
                "exhaustive",
                relation,
            )
    return EquationReport(True, None, total ** len(vs), "exhaustive", relation)


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


# ---------------------------------------------------------------------------
# sc-words


@dataclass(frozen=True)
class TokenSubst:
    i: int
    j: int


@dataclass(frozen=True)
class TokenCyl:
    i: int


ScToken = Union[TokenSubst, TokenCyl]


@dataclass(frozen=True)
class PartialMap:
    """Partial self-map of {0..n-1}; None marks an undefined image."""

    n: int
    images: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.n:
            raise ValueError("image tuple length must equal n")
        for v in self.images:
            if v is not None and not 0 <= v < self.n:
                raise ValueError(f"image {v} out of range")

    @classmethod
    def identity(cls, n: int) -> "PartialMap":
        return cls(n, tuple(range(n)))

    def domain(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n) if self.images[k] is not None)

    def __call__(self, k: int) -> int:
        v = self.images[k]
        if v is None:
            raise KeyError(f"map undefined at {k}")
        return v


def sc_word_to_map(word: Sequence[ScToken], n: int) -> PartialMap:
    """Fold the word, left to right, into its induced partial self-map.

    The empty word is the identity.  A replacement token (i, j) updates the
    image of i to the current image of j; a cylindrifier token removes i
    from the domain.  The leftmost token of the word is the outermost
    operator of the corresponding composite.
    """
    images: list[int | None] = list(range(n))
    for tok in word:
        if isinstance(tok, TokenSubst):
            if not (0 <= tok.i < n and 0 <= tok.j < n):
                raise ValueError(f"token index out of range in {tok}")
            images[tok.i] = images[tok.j]
        elif isinstance(tok, TokenCyl):
            if not 0 <= tok.i < n:
                raise ValueError(f"token index out of range in {tok}")
            images[tok.i] = None
        else:
            raise TypeError(f"unknown token {tok!r}")
    return PartialMap(n, tuple(images))


def sc_word_term(word: Sequence[ScToken], body: Term) -> Term:
    """The composite term of a word applied to body, leftmost token outermost."""
    out = body
    for tok in reversed(word):
        if isinstance(tok, TokenSubst):
            out = SubstRepl(tok.i, tok.j, out)
        else:
            out = Cyl(tok.i, out)
    return out

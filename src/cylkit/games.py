"""Atomic networks and exact solving of truncated witness games.

A network labels every tuple of its nodes with an atom of a fixed atom
structure: one network type at two arities, dim-tuples over a cylindric
atom structure (valid when the labelling respects the diagonal sets, the
cylindrifier relations and, when present, the transpositions) and pairs
over a relation-algebra one (identity, converse and triangle rules).
Over such networks two players fight: the challenger demands a new
labelled node and the atoms of one or two slots through it, the
responder must extend the network legally.  Only validity, completion
enumeration and the legal demands depend on the arity.  Both completion
enumerators backtrack with `bao._label_search`; the relation-algebra one
is the network search of `ra._network_labellings`, whose candidates cover
every triangle `validate_network` checks, including those with repeated
nodes.  Three variants:

* ``fresh``    -- every demanded node is brand new; play is bounded by the
                  round count alone (the node set grows by one per round).
* ``reuse``    -- a fixed supply of node names; the challenger may tear an
                  existing node down and demand it back with new labels.
                  Requires strictly more names than the dimension.
* ``triangle`` -- the edge game over a relation-algebra atom structure:
                  the challenger picks an edge, two atoms composing above
                  its label and a (new or reused) node; the responder must
                  label both new edges accordingly.

The solver performs exact alternating reachability on positions
``(network, rounds left)``: demands aimed at earlier networks are
subsumed because a responder who survives r rounds from a position also
survives r' < r rounds from it, so rewinding never helps the challenger.
One solve runs one solver: one memo over positions canonicalized up to
node renaming, and one successor generator whose demands (in a fixed
canonical order) and bucketed responses serve the search, strategy
extraction, strategy verification and interactive play alike.  The
responder's completions are enumerated once per distinct completion
problem of a solve (the new node set and the labels every demand on the
demanded node retains), however many positions pose it, and bucketed
once per problem and demanded-slot tuple by the labels of those slots;
every demand with those slots, at any position, reads the same buckets.
Strategy extraction and verification walk a position's move classes:
each class renames and encodes its head once for the keys of all its
labels, and verification checks responses against the completion problem
and demanded slots the class carries, as the search found them.  Each
distinct response of a position is encoded, or decoded and checked, once,
and each demand's own labels per entry.  An explicit state budget is a
hard cap that turns runaway searches into refusals, and the returned
strategy is replayed as a structural self-check before the result is
handed back.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

from .bao import BudgetExceededError, CaAtomStructure, _label_search, transpose
from .ra import RaAtomStructure, _network_labellings

VARIANT_FRESH = "fresh"
VARIANT_REUSE = "reuse"
VARIANT_TRIANGLE = "triangle"
VARIANTS = (VARIANT_FRESH, VARIANT_REUSE, VARIANT_TRIANGLE)

EXISTS = "Exists"
FORALL = "Forall"

MAX_ROUNDS = 6
MAX_PEBBLES = 5
MAX_GAME_ATOMS = 4096
DEFAULT_BUDGET = 20_000_000
_CANON_TIE_CAP = 720


def search_budget(default: int = DEFAULT_BUDGET) -> int:
    """Default state budget; the CYLKIT_BUDGET env var overrides it.

    The numeric semantics: the maximum number of search states the solver
    may explore, counting every candidate label placement and every
    position evaluation.  The placements of one completion enumeration
    count once per solve and distinct completion problem, however many
    positions and demands share its completions.  The cap is hard: the
    search stops at the first count that takes the running total past it,
    which adds at most a node or atom count.
    """
    raw = os.environ.get("CYLKIT_BUDGET")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CYLKIT_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("CYLKIT_BUDGET must be positive")
    return value


# ---------------------------------------------------------------------------
# networks


def _tuple_index(positions: Sequence[int], s: int) -> int:
    idx = 0
    for p in positions:
        idx = idx * s + p
    return idx


@functools.lru_cache(maxsize=None)
def _position_tuples(s: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """The ``arity``-tuples over positions 0..s-1 in slot order (row-major,
    lexicographic), built once per (s, arity) and shared by every caller."""
    return tuple(itertools.product(range(s), repeat=arity))


@functools.lru_cache(maxsize=1024)
def _renaming(s: int, arity: int, inv: tuple[int, ...]) -> tuple[int, ...]:
    """Per slot of a labelling renamed by ``inv`` (new position -> old
    position, a permutation of 0..s-1), the slot of the original labelling
    it reads: renamed labels are ``map(labels.__getitem__, table)``.

    The key space is s! per (s, arity), so the cache is bounded: 1024
    tables hold every renaming of up to 6 nodes at one arity (873), and
    larger node sets (up to dim + MAX_ROUNDS in the fresh game, each table
    s**arity slots long) evict the oldest tables instead of keeping one
    per permutation met.
    """
    weights = [s**e for e in range(arity - 1, -1, -1)]
    return tuple(
        map(sum, itertools.product(*([inv[q] * w for q in range(s)] for w in weights)))
    )


@dataclass(frozen=True)
class Network:
    """Total map from the ``arity``-tuples over a finite node set to atom
    indices: one network type, played at two arities.

    ``nodes`` is strictly increasing; ``labels`` is row-major over
    ``product(nodes, repeat=arity)`` in lexicographic order.  The
    subclasses fix the arity (the dimension for CaNetwork, 2 for
    RaNetwork) and the wording of the two errors for a labelling that
    misses a tuple; the validity rules live in ``validate_network``.
    """

    structure: CaAtomStructure | RaAtomStructure
    nodes: tuple[int, ...]
    labels: tuple[int, ...]

    _arity: ClassVar[Callable[..., int]]
    _cover_error: ClassVar[str]
    _map_error: ClassVar[str]

    def __post_init__(self) -> None:
        nodes = self.nodes
        if not nodes:
            raise ValueError("a network needs at least one node")
        if not all(map(operator.lt, nodes, nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < 0:
            raise ValueError("nodes must be naturals")
        if len(self.labels) != len(nodes) ** self._arity(self.structure):
            raise ValueError(self._cover_error)
        if min(self.labels) < 0 or max(self.labels) >= self.structure.natoms:
            raise ValueError("label out of range")

    @property
    def arity(self) -> int:
        return self._arity(self.structure)

    @functools.cached_property
    def _pos(self) -> dict[int, int]:
        # built on the first lookup: most networks (enumerated completions)
        # are only canonicalized and bucketed by slot, never looked up
        return {v: p for p, v in enumerate(self.nodes)}

    def label(self, tup: Sequence[int]) -> int:
        pos = self._pos
        return self.labels[_tuple_index([pos[v] for v in tup], len(self.nodes))]

    def tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(self.nodes, repeat=self.arity)

    def mapping(self) -> dict[tuple[int, ...], int]:
        return {t: self.labels[i] for i, t in enumerate(self.tuples())}

    @classmethod
    def from_map(
        cls,
        structure: CaAtomStructure | RaAtomStructure,
        mapping: Mapping[Sequence[int], int],
    ) -> "Network":
        nodes = tuple(sorted({v for t in mapping for v in t}))
        s = len(nodes)
        pos = {v: p for p, v in enumerate(nodes)}
        labels = [-1] * (s ** cls._arity(structure))
        for t, a in mapping.items():
            labels[_tuple_index([pos[v] for v in t], s)] = a
        if any(a < 0 for a in labels):
            raise ValueError(cls._map_error)
        return cls(structure, nodes, tuple(labels))


class CaNetwork(Network):
    """Network over a cylindric atom structure: labels every dim-tuple."""

    _cover_error = "labels must cover every node tuple exactly once"
    _map_error = "mapping does not label every node tuple"

    @staticmethod
    def _arity(structure: CaAtomStructure) -> int:
        return structure.dim


class RaNetwork(Network):
    """Network over a relation-algebra atom structure: labels every
    ordered node pair."""

    _cover_error = "labels must cover every ordered node pair"
    _map_error = "mapping does not label every ordered pair"

    @staticmethod
    def _arity(structure: RaAtomStructure) -> int:
        return 2


@dataclass(frozen=True)
class NetworkReport:
    passed: bool
    violations: tuple[str, ...]


def validate_network(net: Network) -> NetworkReport:
    """Check the network bullets; every violation is reported with the
    offending tuple (pair) spelled out."""
    if isinstance(net, CaNetwork):
        violations = tuple(_validate_ca(net))
    elif isinstance(net, RaNetwork):
        violations = tuple(_validate_ra(net))
    else:
        raise TypeError(f"not a network: {type(net).__name__}")
    return NetworkReport(not violations, violations)


def _validate_ca(net: CaNetwork) -> Iterator[str]:
    st = net.structure
    dim = st.dim
    s = len(net.nodes)
    tuples = _position_tuples(s, dim)
    labels = net.labels
    nodes = net.nodes

    for idx, t in enumerate(tuples):
        a = labels[idx]
        for i in range(dim):
            for j in range(i + 1, dim):
                if t[i] == t[j] and not (st.diag_mask(i, j) >> a) & 1:
                    real = tuple(nodes[p] for p in t)
                    yield (
                        f"diagonal: tuple {real} repeats a node at positions "
                        f"({i},{j}) but its label {st.atoms[a]!r} lies outside E_{i}{j}"
                    )

    for i in range(dim):
        cols = st.cyl_image_masks(i)
        for idx, t in enumerate(tuples):
            a = labels[idx]
            for d in range(s):
                if d == t[i]:
                    continue
                u = t[:i] + (d,) + t[i + 1 :]
                b = labels[_tuple_index(u, s)]
                # the moved tuple's label must sit below c_i of the original's
                if not (cols[a] >> b) & 1:
                    real_t = tuple(nodes[p] for p in t)
                    real_u = tuple(nodes[p] for p in u)
                    yield (
                        f"cylindrifier: tuples {real_u} and {real_t} differ only "
                        f"at position {i} but label {st.atoms[b]!r} is not below "
                        f"c_{i} of {st.atoms[a]!r}"
                    )

    # the transpositions, by pair rank
    for (i, j), perm in zip(itertools.combinations(range(dim), 2), st.transp or ()):
        for idx, t in enumerate(tuples):
            a = labels[idx]
            u = list(t)
            u[i], u[j] = u[j], u[i]
            b = labels[_tuple_index(u, s)]
            if perm[a] != b:
                real = tuple(nodes[p] for p in t)
                yield (
                    f"transposition ({i},{j}): tuple {real} carries "
                    f"{st.atoms[a]!r} but its swap carries {st.atoms[b]!r}, "
                    f"not the transposition image"
                )


def _validate_ra(net: RaNetwork) -> Iterator[str]:
    st = net.structure
    s = len(net.nodes)
    labels = net.labels
    nodes = net.nodes

    def lab(p: int, q: int) -> int:
        return labels[p * s + q]

    for p in range(s):
        if lab(p, p) not in st.identity:
            yield (
                f"identity: edge ({nodes[p]},{nodes[p]}) carries "
                f"{st.atoms[lab(p, p)]!r}, which is not an identity atom"
            )
    for p in range(s):
        for q in range(s):
            if lab(q, p) != st.converse[lab(p, q)]:
                yield (
                    f"converse: edge ({nodes[q]},{nodes[p]}) carries "
                    f"{st.atoms[lab(q, p)]!r}, not the converse of "
                    f"{st.atoms[lab(p, q)]!r} on ({nodes[p]},{nodes[q]})"
                )
    for p in range(s):
        for q in range(s):
            for w in range(s):
                if not st.consistent(lab(p, q), lab(p, w), lab(w, q)):
                    yield (
                        f"triangle: ({nodes[p]},{nodes[q]}) = {st.atoms[lab(p, q)]!r} "
                        f"is forbidden over ({nodes[p]},{nodes[w]}) = "
                        f"{st.atoms[lab(p, w)]!r} and ({nodes[w]},{nodes[q]}) = "
                        f"{st.atoms[lab(w, q)]!r}"
                    )


def drop_cyl_pair(
    structure: CaAtomStructure, i: int, a: int, b: int
) -> CaAtomStructure:
    """Remove one pair from one cylindrifier relation.

    A surgical corruption for adversarial tests: the result generally
    fails check_ca_frame and shrinks the responder's options in games.
    """
    structure._check_index(i)
    cols = structure.cyl[i]
    if not (0 <= a < len(cols) and 0 <= b < len(cols) and cols[b] >> a & 1):
        raise ValueError(f"({a},{b}) is not in cylindrifier relation {i}")
    cut = cols[:b] + (cols[b] & ~(1 << a),) + cols[b + 1 :]
    return replace(structure, cyl=structure.cyl[:i] + (cut,) + structure.cyl[i + 1 :])


# ---------------------------------------------------------------------------
# game specification


@dataclass(frozen=True)
class GameSpec:
    """Which game to play, over which structure, for how long.

    ``pebbles`` is the node-name budget for the reuse and triangle
    variants (must exceed the dimension for reuse); the fresh variant
    derives its node budget from the round count and takes no pebbles.
    """

    variant: str
    structure: CaAtomStructure | RaAtomStructure
    rounds: int
    pebbles: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must be in 0..{MAX_ROUNDS}, got {self.rounds}")
        if self.variant == VARIANT_TRIANGLE:
            if not isinstance(self.structure, RaAtomStructure):
                raise TypeError(
                    "the triangle variant runs over a relation-algebra atom structure"
                )
            if self.pebbles is None:
                raise ValueError("the triangle variant needs an explicit pebble budget")
            if not 2 <= self.pebbles <= MAX_PEBBLES:
                raise ValueError(f"pebbles must be in 2..{MAX_PEBBLES}")
        else:
            if not isinstance(self.structure, CaAtomStructure):
                raise TypeError(f"the {self.variant} variant runs over a CaAtomStructure")
            if self.variant == VARIANT_REUSE:
                if self.pebbles is None:
                    raise ValueError("the reuse variant needs an explicit pebble budget")
                if self.pebbles > MAX_PEBBLES:
                    raise ValueError(f"pebbles must be at most {MAX_PEBBLES}")
                if self.pebbles <= self.structure.dim:
                    raise ValueError(
                        "the reuse variant needs more pebbles than the dimension"
                    )
            elif self.pebbles is not None:
                raise ValueError(
                    "the fresh variant derives its node budget from the round "
                    "count; leave pebbles unset"
                )

    @property
    def arity(self) -> int:
        return 2 if self.variant == VARIANT_TRIANGLE else self.structure.dim

    @property
    def node_budget(self) -> int:
        if self.variant == VARIANT_FRESH:
            return self.structure.dim + self.rounds
        assert self.pebbles is not None
        return self.pebbles


def state_space_bound(spec: GameSpec) -> int:
    """Loose exact upper bound on distinct networks: atoms ** (tuple count)."""
    return spec.structure.natoms ** (spec.node_budget ** spec.arity)


def _bound_text(spec: GameSpec) -> str:
    """The state-space bound as the power ``atoms^(nodes^arity)``."""
    return f"{spec.structure.natoms}^({spec.node_budget}^{spec.arity})"


# ---------------------------------------------------------------------------
# moves


@dataclass(frozen=True)
class CaMove:
    """Challenger demand: insert node k at position l of the face; the
    responder must label that tuple with atom b."""

    face: tuple[int, ...]
    l: int
    k: int
    b: int

    def demanded(self) -> tuple[int, ...]:
        return self.face[: self.l] + (self.k,) + self.face[self.l :]

    @property
    def node(self) -> int:
        """The demanded node."""
        return self.k

    def slots(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The demanded (node tuple, atom) slots: here the one tuple."""
        return ((self.demanded(), self.b),)

    def renamed(self, node: Callable[[int], int]) -> "CaMove":
        """The same demand with every node v replaced by ``node(v)``."""
        return CaMove(tuple(node(f) for f in self.face), self.l, node(self.k), self.b)

    def with_label(self, b: int) -> "CaMove":
        """The same demand asking for atom ``b``."""
        return CaMove(self.face, self.l, self.k, b)

    def head_text(self) -> str:
        """The encoding up to the demanded atom: the same for every label."""
        face = ",".join(map(str, self.face))
        return f"f({face});l{self.l};k{self.k};"

    @staticmethod
    def label_text(b: int) -> str:
        """The encoding of the demanded atom, which ends the move's."""
        return f"b{b}"

    def encode(self) -> str:
        return self.head_text() + self.label_text(self.b)

    @classmethod
    def decode(cls, text: str) -> "CaMove":
        try:
            fpart, lpart, kpart, bpart = text.split(";")
            face = tuple(int(v) for v in fpart[2:-1].split(",")) if fpart[2:-1] else ()
            return cls(face, int(lpart[1:]), int(kpart[1:]), int(bpart[1:]))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad move encoding {text!r}") from exc


@dataclass(frozen=True)
class RaMove:
    """Challenger demand on edge (x,y): the responder must bring node z
    with M(x,z) = a and M(z,y) = b."""

    x: int
    y: int
    z: int
    a: int
    b: int

    @property
    def node(self) -> int:
        """The demanded node."""
        return self.z

    def slots(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The demanded (node tuple, atom) slots: the edges (x,z) and (z,y)."""
        return (((self.x, self.z), self.a), ((self.z, self.y), self.b))

    def renamed(self, node: Callable[[int], int]) -> "RaMove":
        """The same demand with every node v replaced by ``node(v)``."""
        return RaMove(node(self.x), node(self.y), node(self.z), self.a, self.b)

    def with_label(self, ab: tuple[int, int]) -> "RaMove":
        """The same demand asking for the atom pair ``ab``."""
        return RaMove(self.x, self.y, self.z, *ab)

    def head_text(self) -> str:
        """The encoding up to the demanded atoms: the same for every label."""
        return f"x{self.x};y{self.y};z{self.z};"

    @staticmethod
    def label_text(ab: tuple[int, int]) -> str:
        """The encoding of the demanded atom pair, which ends the move's."""
        a, b = ab
        return f"a{a};b{b}"

    def encode(self) -> str:
        return self.head_text() + self.label_text((self.a, self.b))

    @classmethod
    def decode(cls, text: str) -> "RaMove":
        try:
            parts = text.split(";")
            return cls(*(int(p[1:]) for p in parts))
        except (ValueError, IndexError, TypeError) as exc:
            raise ValueError(f"bad move encoding {text!r}") from exc


Move = CaMove | RaMove


class _Counter:
    """Running count of search states; ``bound`` is the state-space bound
    as text, for the refusal message."""

    __slots__ = ("states", "budget", "bound")

    def __init__(self, budget: int, bound: str) -> None:
        self.states = 0
        self.budget = budget
        self.bound = bound

    def tick(self, n: int = 1) -> None:
        self.states += n
        if self.states > self.budget:
            raise BudgetExceededError(
                f"search budget exhausted after {self.states} states "
                f"(budget {self.budget}, state-space bound {self.bound})"
            )


def _least_fresh(nodes: Sequence[int]) -> int:
    used = set(nodes)
    k = 0
    while k in used:
        k += 1
    return k


def _k_choices(spec: GameSpec, net: Network, excluded: frozenset[int] | set[int]) -> list[int]:
    """Candidate nodes the challenger may demand, in canonical order."""
    nodes = net.nodes
    if spec.variant == VARIANT_FRESH:
        return [_least_fresh(nodes)]
    out = sorted(set(nodes) - set(excluded))
    if len(nodes) < spec.node_budget:
        fresh = _least_fresh(nodes)
        if fresh not in excluded:
            out.append(fresh)
    return out


@functools.lru_cache(maxsize=None)
def _lines(s: int, dim: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per face (a (dim-1)-tuple of positions of ``s``, in row-major order)
    and index l, the slots of the dim-tuples that put each position
    0..s-1 at place l of the face: the representatives whose cylindrified
    labels bound the demands on that (face, l).  Built once per (s, dim)."""
    return tuple(
        tuple(
            tuple(_tuple_index(face[:l] + (x,) + face[l:], s) for x in range(s))
            for l in range(dim)
        )
        for face in _position_tuples(s, dim - 1)
    )


def _line_mask(
    cols: Sequence[int], labels: Sequence[int], line: Sequence[int]
) -> tuple[int, bool]:
    """Union over the line's representatives of the cylindrified label
    mask (``cols`` is the index's image masks), and whether the
    representatives disagreed (they cannot on a genuine frame)."""
    masks = [cols[labels[idx]] for idx in line]
    return functools.reduce(operator.or_, masks), masks.count(masks[0]) < len(masks)


# ---------------------------------------------------------------------------
# completion enumeration (responder choices and opening networks)


_Pairs = tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=None)
def _ca_slot_table(s: int, dim: int) -> tuple[tuple[_Pairs, _Pairs, _Pairs], ...]:
    """Per slot of a labelling of ``s`` nodes in dimension ``dim``, three
    tuples: the coordinate pairs (i, j), i < j, at which its node tuple
    repeats a node; its cylindrifier neighbours (i, slot), the tuples that
    differ from it only at position i; and its transposition partners
    (pair rank, slot), the tuples with positions i and j swapped."""
    pairs = list(itertools.combinations(range(dim), 2))
    out = []
    for t in _position_tuples(s, dim):
        diag = tuple((i, j) for i, j in pairs if t[i] == t[j])
        cyl = tuple(
            (i, _tuple_index(t[:i] + (d,) + t[i + 1 :], s))
            for i in range(dim)
            for d in range(s)
            if d != t[i]
        )
        transp = []
        for rank, (i, j) in enumerate(pairs):
            u = list(t)
            u[i], u[j] = u[j], u[i]
            transp.append((rank, _tuple_index(u, s)))
        out.append((diag, cyl, tuple(transp)))
    return tuple(out)


def _cyl_masks(structure: CaAtomStructure) -> tuple[tuple[int, ...], ...]:
    """Per index i and atom b, the mask of {a : (a,b) and (b,a) in T_i}:
    the labels a slot may carry beside a T_i-neighbour labelled b.  Cached
    on the structure."""
    got = getattr(structure, "_game_cyl_masks", None)
    if got is None:
        got = tuple(
            tuple(c & r for c, r in zip(cols, transpose(cols))) for cols in structure.cyl
        )
        object.__setattr__(structure, "_game_cyl_masks", got)
    return got


def _diag_masks(structure: CaAtomStructure) -> tuple[tuple[int, ...], ...]:
    """Per i < j, the atoms a slot repeating a node at positions i and j
    may carry: those in E_ij and, with transpositions, fixed by the (i, j)
    transposition, since such a slot is its own (i, j) partner.  Cached on
    the structure."""
    got = getattr(structure, "_game_diag_masks", None)
    if got is None:
        dim = structure.dim
        rows = [[structure.diag_mask(i, j) for j in range(dim)] for i in range(dim)]
        pairs = itertools.combinations(range(dim), 2)
        for (i, j), perm in zip(pairs, structure.transp or ()):
            rows[i][j] &= sum(1 << a for a, b in enumerate(perm) if a == b)
        got = tuple(map(tuple, rows))
        object.__setattr__(structure, "_game_diag_masks", got)
    return got


def _ca_completions(
    structure: CaAtomStructure,
    nodes: tuple[int, ...],
    fixed: Mapping[int, int],
    counter: _Counter,
) -> Iterator[CaNetwork]:
    """All valid total labellings over ``nodes`` extending ``fixed``
    (slot index -> atom), in lexicographic label order.

    Candidate atoms per free slot are narrowed by mask intersection
    against all already-labelled neighbours.  Fixed slots are assumed
    mutually valid (they come from a valid network); the solver leaves a
    demanded slot free, so its label is checked like any other.
    """
    dim = structure.dim
    table = _ca_slot_table(len(nodes), dim)
    cyl = _cyl_masks(structure)
    # by pair rank, the same order as the slot table's partners
    transp = structure.transp or ()
    lab = [-1] * len(table)
    for idx, a in fixed.items():
        lab[idx] = a
    free = [idx for idx, a in enumerate(lab) if a < 0]
    full = structure.full_mask
    diag_masks = _diag_masks(structure)

    def candidates(at: int) -> int:
        diag, cyl_nbrs, transp_nbrs = table[free[at]]
        cand = full
        for i, j in diag:
            cand &= diag_masks[i][j]
        for i, n in cyl_nbrs:
            other = lab[n]
            if other >= 0:
                cand &= cyl[i][other]
                if not cand:
                    return 0
        if transp:
            for rank, n in transp_nbrs:
                other = lab[n]
                if other >= 0:
                    cand &= 1 << transp[rank][other]
                    if not cand:
                        return 0
        return cand

    # a slot has no mirror: it is its own, under the identity map
    for _ in _label_search(
        lab, free, free, range(structure.natoms), candidates, counter.tick
    ):
        yield CaNetwork(structure, nodes, tuple(lab))


def _ra_completions(
    structure: RaAtomStructure,
    nodes: tuple[int, ...],
    fixed: Mapping[int, int],
    counter: _Counter,
) -> Iterator[RaNetwork]:
    """All valid edge labellings over ``nodes`` extending ``fixed``: the
    networks of `ra._network_labellings`, in its order."""
    for labels in _network_labellings(structure, len(nodes), fixed, counter.tick):
        yield RaNetwork(structure, nodes, labels)


def _retained_task(
    net: Network, k: int
) -> tuple[tuple[int, ...], dict[int, int], dict[int, int]]:
    """Node set, node -> position map and retained slots of the
    responder's completion problem for a demand on node ``k``.

    The retained slots (slot index -> atom over the new node set) are the
    network's labels on every tuple avoiding ``k``: all of them when k is
    fresh, all but the cleared tuples through k when it is reused.  They
    depend on the position and k alone, not on the face, index or edge of
    the demand, so every demand on k shares one completion problem.
    """
    nodes = net.nodes
    new_nodes = nodes if k in nodes else tuple(sorted(nodes + (k,)))
    pos = {v: p for p, v in enumerate(new_nodes)}
    shift = tuple(pos[v] for v in nodes)
    labels = net.labels
    fixed = {
        new: labels[old]
        for old, new in _retained_slots(len(new_nodes), net.arity, shift, pos[k])
    }
    return new_nodes, pos, fixed


@functools.lru_cache(maxsize=None)
def _retained_slots(
    s_new: int, arity: int, shift: tuple[int, ...], kp: int
) -> tuple[tuple[int, int], ...]:
    """(old slot, new slot) of every tuple of a labelling whose positions,
    moved by ``shift`` (old position -> new position among ``s_new``),
    avoid position ``kp``, in old slot order."""
    out = []
    for old, t in enumerate(_position_tuples(len(shift), arity)):
        u = [shift[p] for p in t]
        if kp not in u:
            out.append((old, _tuple_index(u, s_new)))
    return tuple(out)


def _demanded_slots(pos: Mapping[int, int], move: Move) -> tuple[int, ...]:
    """Slot indices, over the node set that ``pos`` (node -> position)
    numbers, of the move's demanded slots, in the order of its slots()."""
    s = len(pos)
    return tuple(_tuple_index([pos[v] for v in t], s) for t, _ in move.slots())


# ---------------------------------------------------------------------------
# canonicalization


@functools.lru_cache(maxsize=None)
def _incidence(
    s: int, arity: int
) -> tuple[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """Colour refinement's incidence lists, built once per (s, arity): the
    number of distinct place tuples, and per position p of ``s`` the slots
    whose tuples contain p, in slot order, beside the rank of the places at
    which p occurs in each among the sorted distinct place tuples."""
    places = [
        [tuple(i for i, q in enumerate(t) if q == p) for t in _position_tuples(s, arity)]
        for p in range(s)
    ]
    ranked = sorted({pl for row in places for pl in row if pl})
    rank = {pl: r for r, pl in enumerate(ranked)}
    lists = []
    for row in places:
        slots = tuple(idx for idx, pl in enumerate(row) if pl)
        lists.append((slots, tuple(rank[row[idx]] for idx in slots)))
    return len(ranked), tuple(lists)


def _canon_encoding(
    nodes: tuple[int, ...], labels: tuple[int, ...], arity: int
) -> tuple[str, dict[int, int]]:
    """Deterministic renaming of the nodes to 0..s-1 plus the resulting
    label string.  Colour refinement orders the nodes; remaining ties are
    resolved by minimizing the encoding over the tie group's renamings
    when their count is at most ``_CANON_TIE_CAP``, else by stable order.
    Equal encodings imply isomorphic networks either way.  Every candidate
    encoding reads the labels through a cached ``_renaming`` table.

    A node's signature in a refinement round is its colour and the sorted
    triples (colours of the tuple, places of the node in it, label) of
    the tuples through it.  Each triple is one int, ordered as the
    triples are: the colour tuple in base s (colours are ranks below s),
    then the rank of the places among the place tuples of ``_incidence``,
    then the label (below the largest label plus one).  So signatures,
    colour ranks and encodings are those of the triples themselves.  The
    colour codes of all slots are computed once per round, and refinement
    stops once every node has its own colour, since a further round would
    rank the colours as they are.
    """
    s = len(nodes)
    if s == 1:
        return f"1:{','.join(map(str, labels))}", {nodes[0]: 0}

    n_places, incidence = _incidence(s, arity)
    base = max(labels) + 1
    scale = n_places * base
    # per position: its slots and the low digits (places, label) of their keys
    keyed = [
        (slots, [r * base + labels[idx] for idx, r in zip(slots, ranks)])
        for slots, ranks in incidence
    ]
    colour = [0] * s
    for _ in range(s):
        # per slot, its tuple's colours in base s, in slot order
        codes = [0]
        for _ in range(arity):
            codes = [c * s + x for c in codes for x in colour]
        high = [c * scale for c in codes]
        get = high.__getitem__
        sigs = [
            (colour[p], tuple(sorted(map(operator.add, map(get, slots), low))))
            for p, (slots, low) in enumerate(keyed)
        ]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        new_colour = [rank[sig] for sig in sigs]
        if new_colour == colour:
            break
        colour = new_colour
        if len(rank) == s:
            break

    order = sorted(range(s), key=lambda p: (colour[p], p))
    groups: list[list[int]] = []
    for p in order:
        if groups and colour[groups[-1][0]] == colour[p]:
            groups[-1].append(p)
        else:
            groups.append([p])

    def encode_for(inv: tuple[int, ...]) -> tuple[int, ...]:
        # inv[new position] = old position
        return tuple(map(labels.__getitem__, _renaming(s, arity, inv)))

    best_inv = tuple(order)
    best_enc = encode_for(best_inv)
    if 1 < math.prod(math.factorial(len(g)) for g in groups) <= _CANON_TIE_CAP:
        # every order of every tie group; the first is ``order`` itself
        for perms in itertools.product(*map(itertools.permutations, groups)):
            inv = tuple(itertools.chain.from_iterable(perms))
            enc = encode_for(inv)
            if enc < best_enc:
                best_enc, best_inv = enc, inv

    sigma = [0] * s
    for new, old in enumerate(best_inv):
        sigma[old] = new
    pi = dict(zip(nodes, sigma))
    return f"{s}:{','.join(map(str, best_enc))}", pi


def _decode_labels(enc: str) -> tuple[int, tuple[int, ...]]:
    head, _, rest = enc.partition(":")
    return int(head), tuple(int(v) for v in rest.split(","))


def _rename_move(move: Move, pi: Mapping[int, int]) -> Move:
    """The move in the canonical node names ``pi`` of its position; a node
    outside the position becomes the next name."""
    s = len(pi)
    return move.renamed(lambda v: pi[v] if v in pi else s)


def _unrename_move(move: Move, pi: Mapping[int, int]) -> Move:
    """Inverse of ``_rename_move``: back to the position's real node names,
    with the next name mapped to the least fresh node."""
    inv = {new: old for old, new in pi.items()}
    fresh = _least_fresh(pi)
    return move.renamed(lambda v: inv[v] if v in inv else fresh)


def _strategy_key(enc: str, r: int) -> str:
    """Key of the challenger's strategy entry at the position with
    canonical encoding ``enc``, ``r`` rounds left; the responder's keys
    there extend it (``_demand_keys``)."""
    return f"{enc}|r{r}"


def _demand_keys(
    enc: str, pi: Mapping[int, int], r: int, head: Move, labels: Sequence
) -> list[str]:
    """Keys of the responder's strategy entries at the position with
    canonical encoding ``enc`` and renaming ``pi``, ``r`` rounds left, for
    the demands of ``head`` (whose own labels are not read) with each of
    ``labels``, in order: the challenger's key, then the demand's
    ``encode()`` in the canonical node names.  The head is renamed and
    encoded once, as the prefix all the keys share, and each key appends
    its label's ``label_text``."""
    prefix = f"{_strategy_key(enc, r)}|{_rename_move(head, pi).head_text()}"
    label_text = head.label_text
    return [prefix + label_text(label) for label in labels]


def _encode_response(net: Network, response: Network, pi: Mapping[int, int]) -> str:
    """Labels of the response in the coordinates of the parent's canonical
    renaming, extended to any fresh node."""
    ext = dict(pi)
    for v in response.nodes:
        if v not in ext:
            ext[v] = len(ext)
    s_new = len(response.nodes)
    # canonical position -> real position of the response's nodes
    inv = sorted(range(s_new), key=lambda p: ext[response.nodes[p]])
    table = _renaming(s_new, response.arity, tuple(inv))
    return f"{s_new}:{','.join(map(str, map(response.labels.__getitem__, table)))}"


def _decode_response(
    net: Network, enc: str, pi: Mapping[int, int]
) -> Network:
    """Rebuild the responder's network in real node names from a response
    encoding taken relative to the parent's canonical renaming."""
    s_new, labels = _decode_labels(enc)
    ext = dict(pi)
    if s_new == len(ext) + 1:
        ext[_least_fresh(net.nodes)] = len(ext)
    if len(ext) != s_new or len(labels) != s_new**net.arity:
        raise ValueError("response encoding does not fit the position")
    real_nodes = tuple(sorted(ext))
    # real position -> canonical position
    table = _renaming(s_new, net.arity, tuple(ext[v] for v in real_nodes))
    return type(net)(net.structure, real_nodes, tuple(map(labels.__getitem__, table)))


# ---------------------------------------------------------------------------
# solver


@dataclass(frozen=True)
class SolveStats:
    states_explored: int
    memo_hits: int
    openings: int
    representative_disagreements: int
    state_space_bound: str


@dataclass(frozen=True)
class SolveResult:
    winner: str
    rounds_used: int
    strategy: dict[str, str]
    stats: SolveStats

    def to_dict(self) -> dict:
        return {**asdict(self), "strategy": dict(sorted(self.strategy.items()))}


@dataclass(slots=True)
class _Problem:
    """One completion problem of a solve, one record however many
    positions pose it: the new node set and retained (slot, atom) pairs in
    slot order, which key ``_Solver.problems``; the completions in
    enumeration order; and per demanded-slot tuple, that tuple and the
    completions bucketed by their labels on those slots, each bucket in
    enumeration order."""

    nodes: tuple[int, ...]
    retained: tuple[tuple[int, int], ...]
    completions: list[Network]
    bucketings: dict[tuple[int, ...], tuple] = field(default_factory=dict)


@dataclass(slots=True)
class _MoveClass:
    """The demands of one head at one position: the head, the labels it
    may demand in canonical order (an atom b for a CaMove, an atom pair
    (a, b) for an RaMove), its demanded node's completion problem, its
    demanded slots over the problem's nodes (in the order of slots()) and
    the problem's buckets for them.  The last three are the problem's own
    objects, shared by every class that demands the same slots of it."""

    head: Move  # with its demanded atoms set to -1
    legal: tuple
    problem: _Problem
    demanded: tuple[int, ...]
    buckets: dict


class _Solver:
    """Exact value search for one solve: one memo, one successor cache and
    one state counter, shared by every opening, by strategy extraction and
    verification, and by interactive play."""

    def __init__(self, spec: GameSpec, counter: _Counter) -> None:
        self.spec = spec
        self.counter = counter
        # the kind-specific halves of the game
        triangle = spec.variant == VARIANT_TRIANGLE
        self.network_type = RaNetwork if triangle else CaNetwork
        self.move_type = RaMove if triangle else CaMove
        self.complete = _ra_completions if triangle else _ca_completions
        self.memo: dict[tuple[str, int], int] = {}
        self.succ: dict[object, list[_MoveClass]] = {}
        self.problems: dict[tuple[tuple[int, ...], tuple], _Problem] = {}
        self.canon_cache: dict[
            tuple[tuple[int, ...], tuple[int, ...]], tuple[str, dict[int, int]]
        ] = {}
        self.memo_hits = 0
        self.disagreements = 0

    def canon(self, net: Network) -> tuple[str, dict[int, int]]:
        key = (net.nodes, net.labels)
        got = self.canon_cache.get(key)
        if got is None:
            got = _canon_encoding(net.nodes, net.labels, net.arity)
            self.canon_cache[key] = got
        return got

    def openings(self, initial_atom: int) -> list[Network]:
        """Legal opening networks on prefix node sets of size 1..arity, in
        canonical (size-then-lexicographic) order, containing the demanded
        atom."""
        spec = self.spec
        out: list[Network] = []
        for s in range(1, min(spec.arity, spec.node_budget) + 1):
            nodes = tuple(range(s))
            for net in self.complete(spec.structure, nodes, {}, self.counter):
                if initial_atom in net.labels:
                    out.append(net)
        return out

    def move_classes(self, net: Network) -> list[_MoveClass]:
        """The move classes of ``net`` in canonical order, cached per raw
        position (independent of rounds left).  This is where each class's
        completion problem (node set and retained slots, every slot through
        the demanded node left free) and demanded slots are found; a
        problem is enumerated once per solve, and its bucketing for a slot
        tuple built once, however many positions and heads read them."""
        key = (net.nodes, net.labels)
        got = self.succ.get(key)
        if got is not None:
            return got
        out: list[_MoveClass] = []
        # per demanded node: its node -> position map and its problem
        tasks: dict[int, tuple[dict[int, int], _Problem]] = {}
        for head, legal in self._heads(net):
            task = tasks.get(head.node)
            if task is None:
                new_nodes, pos, retained = _retained_task(net, head.node)
                problem_key = (new_nodes, tuple(sorted(retained.items())))
                problem = self.problems.get(problem_key)
                if problem is None:
                    completions = list(
                        self.complete(net.structure, new_nodes, retained, self.counter)
                    )
                    problem = self.problems[problem_key] = _Problem(*problem_key, completions)
                task = tasks[head.node] = (pos, problem)
            pos, problem = task
            slots = _demanded_slots(pos, head)
            bucketing = problem.bucketings.get(slots)
            if bucketing is None:
                # an atom for one demanded slot, an atom pair for two
                label_of = operator.itemgetter(*slots)
                buckets = {}
                for m in problem.completions:
                    buckets.setdefault(label_of(m.labels), []).append(m)
                bucketing = problem.bucketings[slots] = (slots, buckets)
            out.append(_MoveClass(head, legal, problem, *bucketing))
        self.succ[key] = out
        return out

    def _heads(self, net: Network) -> Iterator[tuple[Move, tuple]]:
        """Every demand head at ``net`` in canonical order, with the labels
        it may demand.  A (face, index) whose legality depends on the
        representative is counted once, here.  The representatives of each
        (face, index) are one line of slots of the cached ``_lines`` table,
        and an edge's label is one slot."""
        nodes, labels = net.nodes, net.labels
        s = len(nodes)
        if isinstance(net, CaNetwork):
            dim = net.structure.dim
            cols = [net.structure.cyl_image_masks(l) for l in range(dim)]
            faces = itertools.product(nodes, repeat=dim - 1)
            for face, lines in zip(faces, _lines(s, dim)):
                k_choices = _k_choices(self.spec, net, set(face))
                for l, line in enumerate(lines):
                    self.counter.tick(s)
                    mask, differed = _line_mask(cols[l], labels, line)
                    if differed:
                        self.disagreements += 1
                    if not mask:
                        continue
                    legal = tuple(b for b in range(mask.bit_length()) if mask >> b & 1)
                    for k in k_choices:
                        yield CaMove(face, l, k, -1), legal
        else:
            st = net.structure
            for p, x in enumerate(nodes):
                for q, y in enumerate(nodes):
                    pairs = st._consistent_pairs[labels[p * s + q]]
                    if not pairs:
                        continue
                    for z in _k_choices(self.spec, net, {x, y}):
                        self.counter.tick(st.natoms)
                        yield RaMove(x, y, z, -1, -1), pairs

    def successors(self, net: Network) -> Iterator[tuple[Move, list[Network]]]:
        """Every demand at ``net`` in canonical order, each with its
        responses in enumeration order (empty when none is legal)."""
        for cls in self.move_classes(net):
            for label in cls.legal:
                yield cls.head.with_label(label), cls.buckets.get(label, [])

    def responses(self, net: Network, move: Move) -> list[Network]:
        """The responses to ``move``; raises if it is no demand at ``net``."""
        for demand, responses in self.successors(net):
            if demand == move:
                return responses
        raise RuntimeError(f"{move.encode()} is not a legal demand at this position")

    def value(self, net: Network, r: int) -> int:
        """Rounds the responder can still survive from this position, in 0..r."""
        if r == 0:
            return 0
        key = (self.canon(net)[0], r)
        got = self.memo.get(key)
        if got is not None:
            self.memo_hits += 1
            return got
        self.counter.tick()
        best = r
        for cls in self.move_classes(net):
            for label in cls.legal:
                contrib = self._class_contrib(cls.buckets.get(label), r)
                if contrib < best:
                    best = contrib
                    if best == 0:
                        break
            if best == 0:
                break
        self.memo[key] = best
        return best

    def _class_contrib(self, responses: list[Network] | None, r: int) -> int:
        if not responses:
            return 0
        if r == 1:
            # every response survives the 0 rounds left
            return 1
        sub_best = -1
        for m in responses:
            v = self.value(m, r - 1)
            if v > sub_best:
                sub_best = v
            if sub_best == r - 1:
                break
        return 1 + sub_best


# The walks below are module functions that take the solver and their
# state as arguments: a nested walk that called itself would form a
# reference cycle through its closure, keeping the solver's memo and every
# completion alive after `solve` returns, until the cyclic collector ran.


def _extract_exists_walk(
    solver: _Solver,
    strategy: dict[str, str],
    visited: set[tuple[str, int]],
    net: Network,
    r: int,
) -> None:
    """Answer every demand at ``net`` and below with its first response,
    in enumeration order, that survives the rounds left.  The walk goes
    per move class: the class's keys share one renamed head
    (``_demand_keys``), and each label costs its bucket's value lookups
    and one key.  Many demands of a position choose one response, which is
    encoded and walked once."""
    if r == 0:
        return
    enc, pi = solver.canon(net)
    if (enc, r) in visited:
        return
    visited.add((enc, r))
    encoded: dict[tuple[tuple[int, ...], tuple[int, ...]], str] = {}
    value = solver.value
    for cls in solver.move_classes(net):
        buckets = cls.buckets
        for label, key in zip(cls.legal, _demand_keys(enc, pi, r, cls.head, cls.legal)):
            for chosen in buckets.get(label, ()):
                if value(chosen, r - 1) == r - 1:
                    break
            else:
                raise RuntimeError(
                    "strategy extraction found a demand with no surviving response"
                )
            seen = (chosen.nodes, chosen.labels)
            resp_enc = encoded.get(seen)
            fresh = resp_enc is None
            if fresh:
                resp_enc = encoded[seen] = _encode_response(net, chosen, pi)
            strategy[key] = resp_enc
            if fresh:
                # a later demand choosing it would find it visited
                _extract_exists_walk(solver, strategy, visited, chosen, r - 1)


def _extract_forall_walk(
    solver: _Solver,
    strategy: dict[str, str],
    visited: set[tuple[str, int]],
    net: Network,
    r: int,
) -> None:
    """Record an optimal demand at every position the challenger can
    reach from ``net``.  Keys are canonical, so openings can share
    positions; an already-recorded demand is reused rather than
    overwritten, keeping the merged strategy self-consistent."""
    enc, pi = solver.canon(net)
    if (enc, r) in visited:
        return
    visited.add((enc, r))
    val = solver.value(net, r)
    if val >= r:
        raise RuntimeError("challenger extraction reached a surviving position")
    key = _strategy_key(enc, r)
    recorded = strategy.get(key)
    if recorded is not None:
        move = _unrename_move(solver.move_type.decode(recorded), pi)
        for response in solver.responses(net, move):
            _extract_forall_walk(solver, strategy, visited, response, r - 1)
        return
    # every response is valued: `_Solver._class_contrib` stops at the first
    # survivor, and the lookups it skips would change `memo_hits` and the
    # result's bytes (triangle bin_forb(3,1,2), 4 pebbles: 63 -> 61 at 2
    # rounds from atom 1, 3,091 -> 3,061 at 3 rounds from atom 0)
    for move, responses in solver.successors(net):
        sub_best = max((solver.value(m, r - 1) for m in responses), default=-1)
        if 1 + sub_best == val:
            strategy[key] = _rename_move(move, pi).encode()
            for response in responses:
                _extract_forall_walk(solver, strategy, visited, response, r - 1)
            return
    raise RuntimeError("challenger extraction found no move achieving the value")


def _verify_exists(
    solver: _Solver,
    strategy: Mapping[str, str],
    initial_atom: int,
    rounds: int,
) -> None:
    enc0 = strategy.get("open")
    if enc0 is None:
        raise RuntimeError("responder strategy lacks an opening")
    s0, labels0 = _decode_labels(enc0)
    opening = solver.network_type(solver.spec.structure, tuple(range(s0)), labels0)
    report = validate_network(opening)
    if not report.passed:
        raise RuntimeError(f"strategy opening is invalid: {report.violations[0]}")
    if initial_atom not in opening.labels:
        raise RuntimeError("strategy opening does not witness the demanded atom")
    # many entries decode to one network: validate each distinct one once
    _verify_exists_walk(solver, strategy, set(), {}, opening, rounds)


def _verify_exists_walk(
    solver: _Solver,
    strategy: Mapping[str, str],
    visited: set[tuple[str, int]],
    reports: dict[tuple[tuple[int, ...], tuple[int, ...]], NetworkReport],
    net: Network,
    r: int,
) -> None:
    """Check every responder entry at ``net`` and below.  The walk goes
    per move class: the class's keys share one renamed head
    (``_demand_keys``), and the class carries its demanded node's
    completion problem and its demanded slots, as the search built them.
    Many entries of a position name one response: each distinct encoding
    is decoded, validated (once per distinct network) and walked once,
    and its node set and retained labels are checked once per demanded
    node; per entry, only the demanded labels are checked."""
    if r == 0:
        return
    enc, pi = solver.canon(net)
    if (enc, r) in visited:
        return
    visited.add((enc, r))
    decoded: dict[str, Network] = {}
    matched: set[tuple[str, int]] = set()
    for cls in solver.move_classes(net):
        k = cls.head.node
        for label, key in zip(cls.legal, _demand_keys(enc, pi, r, cls.head, cls.legal)):
            resp_enc = strategy.get(key)
            if resp_enc is None:
                raise RuntimeError(f"responder strategy has no answer at {key}")
            response = decoded.get(resp_enc)
            fresh = response is None
            if fresh:
                response = _decode_response(net, resp_enc, pi)
                report = reports.get((response.nodes, response.labels))
                if report is None:
                    report = validate_network(response)
                    reports[response.nodes, response.labels] = report
                if not report.passed:
                    raise RuntimeError(
                        f"strategy response is invalid: {report.violations[0]}"
                    )
                decoded[resp_enc] = response
            if (resp_enc, k) not in matched:
                _check_retained(response, cls.problem)
                matched.add((resp_enc, k))
            _check_demanded(response, cls.demanded, label)
            if fresh:
                # a later entry naming it would find it visited
                _verify_exists_walk(solver, strategy, visited, reports, response, r - 1)


def _check_retained(response: Network, problem: _Problem) -> None:
    """The response keeps the problem's node set and its retained labels."""
    if response.nodes != problem.nodes:
        raise RuntimeError("response changes the node set beyond the demand")
    labels = response.labels
    if any(labels[idx] != a for idx, a in problem.retained):
        raise RuntimeError("response rewrites a retained label")


def _check_demanded(response: Network, demanded: tuple[int, ...], label) -> None:
    """The response gives the demanded slots the demanded label: an atom
    for one slot, an atom pair (in slot order) for two."""
    if operator.itemgetter(*demanded)(response.labels) != label:
        plural = "s" if len(demanded) > 1 else ""
        raise RuntimeError(f"response does not deliver the demanded label{plural}")


def _verify_forall_walk(
    solver: _Solver,
    strategy: Mapping[str, str],
    visited: set[tuple[str, int]],
    net: Network,
    r: int,
) -> None:
    enc, pi = solver.canon(net)
    if (enc, r) in visited:
        return
    visited.add((enc, r))
    key = _strategy_key(enc, r)
    move_enc = strategy.get(key)
    if move_enc is None:
        raise RuntimeError(f"challenger strategy has no demand at {key}")
    move = _unrename_move(solver.move_type.decode(move_enc), pi)
    _check_move_legal(solver.spec, net, move)
    responses = solver.responses(net, move)
    if responses and r == 1:
        raise RuntimeError(
            "responder still alive when the round bound was reached"
        )
    for response in responses:
        _verify_forall_walk(solver, strategy, visited, response, r - 1)


def _check_move_legal(spec: GameSpec, net: Network, move: Move) -> None:
    st = net.structure
    if isinstance(move, CaMove):
        assert isinstance(net, CaNetwork)
        if any(f not in net.nodes for f in move.face):
            raise RuntimeError("demand uses a face outside the network")
        if move.k in move.face:
            raise RuntimeError("demanded node collides with the face")
        if not 0 <= move.l < st.dim:
            raise RuntimeError("demand position out of range")
        s, pos = len(net.nodes), net._pos
        line = _lines(s, st.dim)[_tuple_index([pos[f] for f in move.face], s)][move.l]
        union, _ = _line_mask(st.cyl_image_masks(move.l), net.labels, line)
        if not (union >> move.b) & 1:
            raise RuntimeError("demanded atom is not below the cylindrified label")
    else:
        assert isinstance(net, RaNetwork)
        if move.x not in net.nodes or move.y not in net.nodes:
            raise RuntimeError("demand uses an edge outside the network")
        if move.z in (move.x, move.y):
            raise RuntimeError("demanded node collides with the edge")
        if not st.consistent(net.label((move.x, move.y)), move.a, move.b):
            raise RuntimeError("demanded atoms do not compose above the edge label")
    k = move.node
    if spec.variant == VARIANT_FRESH:
        if k != _least_fresh(net.nodes):
            raise RuntimeError("fresh variant must demand the least fresh node")
    elif k not in net.nodes and (
        k != _least_fresh(net.nodes) or len(net.nodes) >= spec.node_budget
    ):
        raise RuntimeError("demanded node exceeds the pebble budget")


def solve(
    spec: GameSpec,
    initial_atom: int,
    *,
    budget: int | None = None,
) -> SolveResult:
    """Exact winner of the truncated game opened on ``initial_atom``.

    Opening candidates are deduplicated up to node renaming and searched
    one after another by one solver, whose memo and successor cache also
    serve strategy extraction and verification.  The returned strategy is
    replayed as a structural self-check before the result is handed back.

    ``budget`` (default: search_budget()) caps the states explored, and
    the cap is hard: every phase counts on one running total, and the
    search raises BudgetExceededError as soon as the total passes the
    budget.  A solve is refused exactly when its total exceeds the budget.
    """
    if not 0 <= initial_atom < spec.structure.natoms:
        raise ValueError(
            f"initial atom {initial_atom} out of range for "
            f"{spec.structure.natoms} atoms"
        )
    if budget is None:
        budget = search_budget()
    if spec.structure.natoms > MAX_GAME_ATOMS:
        raise BudgetExceededError(
            f"structure has {spec.structure.natoms} atoms, beyond the solver's "
            f"limit of {MAX_GAME_ATOMS}; state-space bound {_bound_text(spec)}"
        )

    solver = _Solver(spec, _Counter(budget, _bound_text(spec)))
    openings: list[Network] = []
    seen_classes: set[str] = set()
    for net in solver.openings(initial_atom):
        enc, _ = solver.canon(net)
        if enc not in seen_classes:
            seen_classes.add(enc)
            openings.append(net)

    strategy: dict[str, str] = {}
    if not openings:
        winner, rounds_used = FORALL, 0
    else:
        values = [solver.value(net, spec.rounds) for net in openings]
        best = max(values)
        if best == spec.rounds:
            winner, rounds_used = EXISTS, spec.rounds
            opening = openings[values.index(best)]
            strategy["open"] = solver.canon(opening)[0]
            _extract_exists_walk(solver, strategy, set(), opening, spec.rounds)
            _verify_exists(solver, strategy, initial_atom, spec.rounds)
        else:
            winner, rounds_used = FORALL, best + 1
            for opening in openings:
                _extract_forall_walk(solver, strategy, set(), opening, spec.rounds)
            for opening in openings:
                _verify_forall_walk(solver, strategy, set(), opening, spec.rounds)

    stats = SolveStats(
        states_explored=solver.counter.states,
        memo_hits=solver.memo_hits,
        openings=len(openings),
        representative_disagreements=solver.disagreements,
        state_space_bound=str(state_space_bound(spec)),
    )
    return SolveResult(winner, rounds_used, strategy, stats)


# ---------------------------------------------------------------------------
# interactive play and transcripts


@dataclass(frozen=True)
class Transcript:
    """Serializable record of one play: who played which side, every
    event in order, and the outcome."""

    variant: str
    rounds: int
    pebbles: int | None
    human_side: str
    initial_atom: int
    events: tuple[dict, ...]
    winner: str | None
    resigned: bool
    final_nodes: tuple[int, ...] | None
    final_labels: tuple[int, ...] | None


def transcript_to_json(transcript: Transcript) -> str:
    return json.dumps(asdict(transcript), indent=2, sort_keys=True) + "\n"


def transcript_from_json(text: str) -> Transcript:
    data = json.loads(text)
    return Transcript(
        variant=data["variant"],
        rounds=data["rounds"],
        pebbles=data["pebbles"],
        human_side=data["human_side"],
        initial_atom=data["initial_atom"],
        events=tuple(data["events"]),
        winner=data["winner"],
        resigned=data["resigned"],
        final_nodes=tuple(data["final_nodes"])
        if data["final_nodes"] is not None
        else None,
        final_labels=tuple(data["final_labels"])
        if data["final_labels"] is not None
        else None,
    )


class _Resigned(Exception):
    pass


class _Session:
    """Drives one play; the non-engine side's choices come from an agent
    callable so interactive and replay use the same engine path."""

    def __init__(
        self,
        spec: GameSpec,
        human_side: str,
        initial_atom: int,
        agent: Callable[[str, list], int],
        emit: Callable[[str], None],
        budget: int,
    ) -> None:
        self.spec = spec
        self.human_side = human_side
        self.initial_atom = initial_atom
        self.agent = agent
        self.emit = emit
        self.solver = _Solver(spec, _Counter(budget, _bound_text(spec)))
        self.events: list[dict] = []
        self.net: Network | None = None
        self.winner: str | None = None
        self.resigned = False

    def describe(self, net: Network) -> str:
        st = net.structure
        lines = [f"nodes: {list(net.nodes)}"]
        for t, a in net.mapping().items():
            lines.append(f"  {t} -> {st.atoms[a]}")
        return "\n".join(lines)

    def choose(
        self, kind: str, prompt: str, options: list, show: Callable[[object], str]
    ) -> int:
        """List at most 50 options under ``prompt``, then take the agent's
        pick of any of them."""
        self.emit(prompt)
        for i, option in enumerate(options[:50]):
            self.emit(f"[{i}] {show(option)}")
        if len(options) > 50:
            self.emit(
                f"... {len(options) - 50} more "
                f"(any index up to {len(options) - 1} accepted)"
            )
        idx = self.agent(kind, options)
        if not 0 <= idx < len(options):
            raise ValueError(f"choice {idx} out of range")
        return idx

    def run(self) -> Transcript:
        try:
            self._run()
        except _Resigned:
            self.resigned = True
            self.winner = FORALL if self.human_side == EXISTS else EXISTS
            self.events.append({"kind": "resign", "actor": self.human_side})
        final_nodes = self.net.nodes if self.net is not None else None
        final_labels = self.net.labels if self.net is not None else None
        return Transcript(
            variant=self.spec.variant,
            rounds=self.spec.rounds,
            pebbles=self.spec.pebbles,
            human_side=self.human_side,
            initial_atom=self.initial_atom,
            events=tuple(self.events),
            winner=self.winner,
            resigned=self.resigned,
            final_nodes=final_nodes,
            final_labels=final_labels,
        )

    def _run(self) -> None:
        spec = self.spec
        openings = self.solver.openings(self.initial_atom)
        if not openings:
            self.emit("no legal opening network exists")
            self.winner = FORALL
            self.events.append({"kind": "stuck", "actor": EXISTS, "round": 0})
            return
        if self.human_side == EXISTS:
            idx = self.choose(
                "open",
                f"pick an opening network for atom {self.initial_atom}:",
                openings,
                self.describe,
            )
        else:
            values = [self.solver.value(net, spec.rounds) for net in openings]
            best = max(values)
            idx = values.index(best)
            self.emit(f"engine opens with:\n{self.describe(openings[idx])}")
        self.net = openings[idx]
        self.events.append(
            {"kind": "open", "actor": EXISTS, "choice": idx,
             "labels": list(self.net.labels), "nodes": list(self.net.nodes)}
        )
        for r in range(spec.rounds, 0, -1):
            self.emit(f"--- {r} round(s) left ---")
            self.emit(self.describe(self.net))
            successors = list(self.solver.successors(self.net))
            moves = [m for m, _ in successors]
            if not moves:
                self.emit("no demand is available; the responder survives")
                self.winner = EXISTS
                return
            if self.human_side == FORALL:
                midx = self.choose(
                    "demand", "pick a demand:", moves, lambda m: m.encode()
                )
            else:
                scored = [
                    self.solver._class_contrib(responses, r)
                    for _m, responses in successors
                ]
                best = min(scored)
                midx = scored.index(best)
                self.emit(f"engine demands {moves[midx].encode()}")
            move, responses = successors[midx]
            self.events.append(
                {"kind": "demand", "actor": FORALL, "choice": midx,
                 "move": move.encode()}
            )
            if not responses:
                self.emit("no legal response exists; the challenger wins")
                self.winner = FORALL
                self.events.append(
                    {"kind": "stuck", "actor": EXISTS, "round": spec.rounds - r + 1}
                )
                return
            if self.human_side == EXISTS:
                ridx = self.choose(
                    "respond", "pick a response:", responses, self.describe
                )
            else:
                values = [self.solver.value(n, r - 1) for n in responses]
                best = max(values)
                ridx = values.index(best)
                self.emit(f"engine responds:\n{self.describe(responses[ridx])}")
            self.net = responses[ridx]
            self.events.append(
                {"kind": "respond", "actor": EXISTS, "choice": ridx,
                 "labels": list(self.net.labels), "nodes": list(self.net.nodes)}
            )
        self.emit("all rounds survived; the responder wins")
        self.winner = EXISTS


def play_interactive(
    spec: GameSpec,
    side: str,
    initial_atom: int,
    *,
    input_stream=None,
    output_stream=None,
    budget: int | None = None,
) -> Transcript:
    """Text-mode play against the engine; ``side`` is the human's side.

    The engine answers with an optimal move within the remaining-round
    horizon.  Moves are picked by index from printed legal lists; the
    word ``resign`` concedes; illegal input re-prompts.
    """
    import sys

    if side not in (EXISTS, FORALL):
        raise ValueError(f"side must be {EXISTS} or {FORALL}")
    inp = sys.stdin if input_stream is None else input_stream
    outp = sys.stdout if output_stream is None else output_stream
    if budget is None:
        budget = search_budget()

    def emit(text: str) -> None:
        print(text, file=outp)

    def agent(kind: str, options: list) -> int:
        while True:
            emit(f"your choice (0..{len(options) - 1}, or resign):")
            line = inp.readline()
            if not line:
                raise _Resigned()
            line = line.strip()
            if line == "resign":
                raise _Resigned()
            try:
                idx = int(line)
            except ValueError:
                emit("not a number; try again")
                continue
            if 0 <= idx < len(options):
                return idx
            emit("index out of range; try again")

    session = _Session(spec, side, initial_atom, agent, emit, budget)
    transcript = session.run()
    emit(f"winner: {transcript.winner}")
    return transcript


def replay_transcript(
    spec: GameSpec, transcript: Transcript, *, budget: int | None = None
) -> Network | None:
    """Re-run a recorded play: the human's recorded choices are replayed
    and the engine's moves are recomputed; any divergence from the record
    raises.  Returns the final network (None when no opening existed)."""
    if budget is None:
        budget = search_budget()
    if (
        transcript.variant != spec.variant
        or transcript.rounds != spec.rounds
        or transcript.pebbles != spec.pebbles
    ):
        raise ValueError("transcript does not match the game specification")
    human_events = [
        e
        for e in transcript.events
        if e["kind"] in ("open", "demand", "respond", "resign")
        and e["actor"] == transcript.human_side
    ]
    cursor = iter(human_events)

    def agent(kind: str, options: list) -> int:
        try:
            event = next(cursor)
        except StopIteration as exc:
            raise ValueError("transcript ended before the play did") from exc
        if event["kind"] == "resign":
            raise _Resigned()
        if event["kind"] != kind:
            raise ValueError(
                f"transcript event {event['kind']!r} does not match the "
                f"expected {kind!r} choice"
            )
        return event["choice"]

    session = _Session(
        spec,
        transcript.human_side,
        transcript.initial_atom,
        agent,
        lambda _t: None,
        budget,
    )
    replayed = session.run()
    if replayed.events != transcript.events:
        raise RuntimeError("replay diverged from the recorded events")
    if (
        replayed.final_nodes != transcript.final_nodes
        or replayed.final_labels != transcript.final_labels
    ):
        raise RuntimeError("replay produced a different final network")
    return session.net


# ---------------------------------------------------------------------------
# DOT export


def network_to_dot(net: Network) -> str:
    """Graphviz rendering: nodes, pair edges with their labels, and for
    wider arities a comment block listing every tuple's label."""
    st = net.structure
    lines = ["graph network {"]
    for v in net.nodes:
        lines.append(f'  n{v} [label="{v}"];')
    # pair networks draw their loops; wider ones pad each pair with its last node
    pairs = net.arity == 2
    for u in net.nodes:
        for v in net.nodes:
            if u < v or (pairs and u == v):
                t = (u, v) + (v,) * (net.arity - 2)
                lines.append(f'  n{u} -- n{v} [label="{st.atoms[net.label(t)]}"];')
    if not pairs:
        lines.append("  // full labelling:")
        for t, a in net.mapping().items():
            lines.append(f"  // {t} -> {st.atoms[a]}")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Earlier solver code, kept as oracles.

`_retained_task`, `_canon_encoding`, `_encode_response` and
`_decode_response` are the canonical form and strategy-entry coding that
rebuilt index tuples per call, unchanged: every call walks
`itertools.product` tuples and computes each slot with `_tuple_index`.
The cached renaming tables in `cylkit.games` must give the same node sets,
retained slots, encodings, renamings and decoded networks (the earlier
`_decode_response` accepts a label count that does not fit; the oracle is
only compared on encodings that fit).

`move_classes`, `_verify_exists_walk`, `_check_response_matches` and
`_response_task` are the successor generator that enumerated completions
once per position and demanded node, and the verification walk that
decoded, validated and matched every strategy entry on its own,
unchanged.  A solve with these in place of the solver's own must give the
same result, search counts aside, and a corrupted strategy the same error.
`_response_task` also gives other tests a demand's full completion
problem, demanded slots included.
"""
from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping, Sequence

from cylkit import games
from cylkit.games import (
    _CANON_TIE_CAP,
    Move,
    Network,
    NetworkReport,
    _decode_labels,
    _least_fresh,
    _MoveClass,
    _position_tuples,
    _tuple_index,
)


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
    s_new = len(new_nodes)
    pos = {v: p for p, v in enumerate(new_nodes)}
    shift = [pos[v] for v in nodes]
    kp = pos[k]
    fixed: dict[int, int] = {}
    for t, a in zip(_position_tuples(len(nodes), net.arity), net.labels):
        u = [shift[p] for p in t]
        if kp not in u:
            fixed[_tuple_index(u, s_new)] = a
    return new_nodes, pos, fixed


def _canon_encoding(
    nodes: tuple[int, ...], labels: tuple[int, ...], arity: int
) -> tuple[str, dict[int, int]]:
    """Deterministic renaming of the nodes to 0..s-1 plus the resulting
    label string.  Colour refinement orders the nodes; remaining ties are
    resolved by minimizing the encoding when the tie group is small, else
    by stable order.  Equal encodings imply isomorphic networks either way.
    """
    s = len(nodes)
    tuples = _position_tuples(s, arity)
    if s == 1:
        return f"1:{','.join(map(str, labels))}", {nodes[0]: 0}

    colour = [0] * s
    for _ in range(s):
        sigs = []
        for p in range(s):
            sig = []
            for idx, t in enumerate(tuples):
                if p in t:
                    sig.append(
                        (
                            tuple(colour[q] for q in t),
                            tuple(i for i, q in enumerate(t) if q == p),
                            labels[idx],
                        )
                    )
            sig.sort()
            sigs.append((colour[p], tuple(sig)))
        ranked = sorted(set(sigs))
        new_colour = [ranked.index(sigs[p]) for p in range(s)]
        if new_colour == colour:
            break
        colour = new_colour

    order = sorted(range(s), key=lambda p: (colour[p], p))
    groups: list[list[int]] = []
    for p in order:
        if groups and colour[groups[-1][0]] == colour[p]:
            groups[-1].append(p)
        else:
            groups.append([p])

    def encode_for(sigma_pos: Sequence[int]) -> tuple[int, ...]:
        # sigma_pos[old position] = new position
        inv = [0] * s
        for old, new in enumerate(sigma_pos):
            inv[new] = old
        enc = []
        for t in tuples:
            old_t = tuple(inv[q] for q in t)
            enc.append(labels[_tuple_index(old_t, s)])
        return tuple(enc)

    tie_size = 1
    for g in groups:
        for f in range(2, len(g) + 1):
            tie_size *= f
    base_sigma = [0] * s
    for new, old in enumerate(order):
        base_sigma[old] = new
    if tie_size == 1 or tie_size > _CANON_TIE_CAP:
        best_sigma = base_sigma
        best_enc = encode_for(base_sigma)
    else:
        best_sigma = None
        best_enc = None
        offsets = []
        at = 0
        for g in groups:
            offsets.append((at, g))
            at += len(g)
        for perms in itertools.product(
            *(itertools.permutations(g) for g in groups)
        ):
            sigma = [0] * s
            for (start, _g), perm in zip(offsets, perms):
                for off, old in enumerate(perm):
                    sigma[old] = start + off
            enc = encode_for(sigma)
            if best_enc is None or enc < best_enc:
                best_enc = enc
                best_sigma = sigma
        assert best_sigma is not None and best_enc is not None

    pi = {nodes[p]: best_sigma[p] for p in range(s)}
    return f"{s}:{','.join(map(str, best_enc))}", pi


def _encode_response(net: Network, response: Network, pi: Mapping[int, int]) -> str:
    """Labels of the response in the coordinates of the parent's canonical
    renaming, extended to any fresh node."""
    ext = dict(pi)
    for v in response.nodes:
        if v not in ext:
            ext[v] = len(ext)
    s_new = len(response.nodes)
    order = sorted(response.nodes, key=lambda v: ext[v])
    pos = {v: p for p, v in enumerate(response.nodes)}
    enc = []
    for t in itertools.product(order, repeat=response.arity):
        enc.append(response.labels[_tuple_index([pos[v] for v in t], s_new)])
    return f"{s_new}:{','.join(map(str, enc))}"


def _decode_response(
    net: Network, enc: str, pi: Mapping[int, int]
) -> Network:
    """Rebuild the responder's network in real node names from a response
    encoding taken relative to the parent's canonical renaming."""
    s_new, labels = _decode_labels(enc)
    ext = dict(pi)
    if s_new == len(ext) + 1:
        ext[_least_fresh(net.nodes)] = len(ext)
    if len(ext) != s_new:
        raise ValueError("response encoding does not fit the position")
    order = sorted(ext, key=lambda v: ext[v])
    real_nodes = tuple(sorted(order))
    pos_real = {v: p for p, v in enumerate(real_nodes)}
    new_labels = [0] * (s_new ** net.arity)
    for abstract_t, a in zip(itertools.product(order, repeat=net.arity), labels):
        new_labels[_tuple_index([pos_real[v] for v in abstract_t], s_new)] = a
    return type(net)(net.structure, real_nodes, tuple(new_labels))


def move_classes(self, net: Network) -> list[_MoveClass]:
    """Per demanded slot set: legality and bucketed responses, cached
    per raw position (independent of rounds left).

    The completions are enumerated once per demanded node, over the
    retained slots with every slot through that node left free; each
    head on the node buckets that one list by the labels of its own
    demanded slots.
    """
    key = (net.nodes, net.labels)
    got = self.succ.get(key)
    if got is not None:
        return got
    out: list[_MoveClass] = []
    # per demanded node: its node -> position map and its completions
    tasks: dict[int, tuple[dict[int, int], list[Network]]] = {}
    for head, legal in self._heads(net):
        task = tasks.get(head.node)
        if task is None:
            new_nodes, pos, retained = games._retained_task(net, head.node)
            completions = list(
                self.complete(net.structure, new_nodes, retained, self.counter)
            )
            task = tasks[head.node] = (pos, completions)
        pos, completions = task
        # an atom for one demanded slot, an atom pair for two
        label_of = operator.itemgetter(
            *(_tuple_index([pos[v] for v in t], len(pos)) for t, _ in head.slots())
        )
        buckets: dict[object, list[Network]] = {}
        for m in completions:
            buckets.setdefault(label_of(m.labels), []).append(m)
        out.append(_MoveClass(head, legal, buckets))
    self.succ[key] = out
    return out


def _verify_exists_walk(
    solver,
    strategy: Mapping[str, str],
    visited: set[tuple[str, int]],
    reports: dict[tuple[tuple[int, ...], tuple[int, ...]], NetworkReport],
    net: Network,
    r: int,
) -> None:
    if r == 0:
        return
    enc, pi = solver.canon(net)
    if (enc, r) in visited:
        return
    visited.add((enc, r))
    for move, _responses in solver.successors(net):
        key = games._strategy_key(enc, pi, r, move)
        resp_enc = strategy.get(key)
        if resp_enc is None:
            raise RuntimeError(f"responder strategy has no answer at {key}")
        response = games._decode_response(net, resp_enc, pi)
        report = reports.get((response.nodes, response.labels))
        if report is None:
            report = games.validate_network(response)
            reports[response.nodes, response.labels] = report
        if not report.passed:
            raise RuntimeError(
                f"strategy response is invalid: {report.violations[0]}"
            )
        _check_response_matches(net, move, response)
        _verify_exists_walk(solver, strategy, visited, reports, response, r - 1)


def _check_response_matches(net: Network, move: Move, response: Network) -> None:
    new_nodes, fixed, demanded = _response_task(net, move)
    if response.nodes != new_nodes:
        raise RuntimeError("response changes the node set beyond the demand")
    labels = response.labels
    if any(labels[idx] != a for idx, a in fixed.items() if idx not in demanded):
        raise RuntimeError("response rewrites a retained label")
    if any(labels[idx] != fixed[idx] for idx in demanded):
        plural = "s" if len(demanded) > 1 else ""
        raise RuntimeError(f"response does not deliver the demanded label{plural}")


def _response_task(
    net: Network, move: Move
) -> tuple[tuple[int, ...], dict[int, int], tuple[int, ...]]:
    """Node set and fixed slots of one demand's completion problem (the
    retained slots of ``_retained_task``, then the demanded ones), and
    the indices of the demanded slots among them."""
    new_nodes, pos, fixed = games._retained_task(net, move.node)
    s_new = len(new_nodes)
    demanded = []
    for t, a in move.slots():
        idx = _tuple_index([pos[v] for v in t], s_new)
        fixed[idx] = a
        demanded.append(idx)
    return new_nodes, fixed, tuple(demanded)

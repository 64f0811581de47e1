"""
Channel-bounded linearizations and weak synchronizability.

A linearization is k-bounded when no channel ever holds more than k
in-flight messages (counted per ordered process pair, following the
original definition; a global count is available behind a flag).  An MSC
is existentially k-bounded for a model when some linearization
witnessing that model is k-bounded, universally when all of them are.
Both are decided relationally, against the "receive i before send i+k"
constraints, and cross-checked by enumeration in the tests.

Weakly (k-)synchronous MSCs factor into exchanges: blocks whose sends
can all be scheduled ahead of their receives.  Factorization feasibility
is decided on the unit graph (messages and unmatched sends), where a
factorization exists iff no strongly connected component contains a
"receive happens before send" constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import graph, relations
from .classify import NotInModelError, membership
from .core import (
    Linearization,
    Msc,
    MscError,
    RelationGraph,
    extends_hb,
    require_valid,
)

BOUNDED_MODELS = ("asy", "p2p", "co", "mb", "onen", "nn")


def is_k_bounded_linearization(
    msc: Msc, lin: Linearization | Sequence[int], k: int, per_channel: bool = True
) -> bool:
    """Check the occupancy bound along a linearization: at every send,
    its channel (or, with ``per_channel=False``, the whole network) holds
    at most k messages including the one just sent."""
    require_valid(msc)
    order = lin.order if isinstance(lin, Linearization) else tuple(lin)
    if not extends_hb(msc, order):
        raise MscError("order does not linearize the MSC")
    counts: dict[tuple[str, str], int] = {}
    total = 0
    for e in order:
        a = msc.labels[e]
        if a.is_send:
            counts[a.channel] = counts.get(a.channel, 0) + 1
            total += 1
            occupancy = counts[a.channel] if per_channel else total
            if occupancy > k:
                return False
        else:
            counts[a.channel] = counts.get(a.channel, 0) - 1
            total -= 1
    return True


def _require_member(msc: Msc, model: str) -> None:
    require_valid(msc)
    if model not in BOUNDED_MODELS:
        raise ValueError(f"unknown model {model!r}")
    if not membership(msc, model)[0]:
        raise NotInModelError(f"MSC is not {model}")


def _window_failure(msc: Msc, k: int, model: str, universal: bool) -> dict | None:
    """Why the MSC is not k-bounded for `model`, or None when it is.

    The first of: a channel with more than k unmatched sends (they
    occupy it forever); with `universal`, a k-window constraint that the
    closure of the scheduling relation does not imply (every model
    linearization extends that closure); a cycle of the scheduling
    relation joined with the window constraints.  For a member, implied
    window constraints close no cycle, so the last test decides only the
    existential question.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    per_channel: dict[tuple[str, str], int] = {}
    for u in msc.unmatched_sends:
        ch = msc.labels[u].channel
        per_channel[ch] = per_channel.get(ch, 0) + 1
    for ch, n in sorted(per_channel.items()):
        if n > k:
            return {"kind": "unmatched-overflow", "channel": list(ch), "unmatched": n}
    if universal:
        if relations.SCHEDULING[model] == "hb_generators":
            implied = msc.hb_reach  # happens-before: no second closure
        else:
            implied = graph.reach_bits(relations.scheduling(msc, model).adjacency())
        for r, s in sorted(_window(msc, k, model).edges):
            if not implied[r] >> s & 1:
                return {"kind": "unforced-window", "receive": r, "send": s}
    cycle = _window_cycle(msc, k, model)
    return None if cycle is None else {"kind": "cycle", "events": list(cycle)}


def _window(msc: Msc, k: int, model: str) -> RelationGraph:
    return relations.relb_asy(msc, k) if model == "asy" else relations.relb(msc, k)


@relations.per_chart
def _window_cycle(msc: Msc, k: int, model: str) -> tuple[int, ...] | None:
    """A minimal cycle of the scheduling relation joined with the k-window
    constraints, or None.  The two are joined once per chart, k and model,
    and the existential and universal checks share the search."""
    return (relations.scheduling(msc, model) | _window(msc, k, model)).order[1]


def exists_k_bounded(msc: Msc, k: int, model: str = "asy") -> bool:
    """Some `model` linearization is k-bounded.

    Decided as acyclicity of the model's scheduling relation joined with
    the k-window constraints, plus a cap of k unmatched sends per
    channel.  The cap is necessary for every model (unmatched messages
    occupy their channel forever), and with it the acyclicity test is
    also sufficient: the window constraints then force a receive before
    every send that would overfill its channel.
    """
    _require_member(msc, model)
    return _window_failure(msc, k, model, universal=False) is None


def forall_k_bounded(msc: Msc, k: int, model: str = "asy") -> bool:
    """Every `model` linearization is k-bounded: the k-window constraints
    are already implied by the model's scheduling relation."""
    _require_member(msc, model)
    return _window_failure(msc, k, model, universal=True) is None


def bounded_failure_witness(msc: Msc, k: int, model: str, universal: bool) -> dict:
    """Concrete evidence for a negative boundedness verdict: an
    overfull channel, an unimplied window constraint, or a cycle."""
    return _window_failure(msc, k, model, universal) or {"kind": "none"}


def minimal_exists_k(msc: Msc, model: str = "asy", cap: int = 32) -> int | None:
    """Linear scan for the least k with a k-bounded model linearization."""
    for k in range(cap + 1):
        if exists_k_bounded(msc, k, model):
            return k
    return None


# -- exchanges and weak synchronizability -------------------------------------


@dataclass(frozen=True)
class ExchangeDecomposition:
    """Ordered factors (tuples of event ids) multiplying back to the MSC."""

    factors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class DecompositionFailure:
    """Witness that no factorization exists.

    ``reason`` is ``"receive-before-send"`` when one unavoidable block
    contains a receive that happens before a send (then `receive` and
    `send` name the pair), or ``"block-exceeds-cap"`` when a block needs
    more sends than the requested exchange size (then `events` lists the
    block)."""

    reason: str
    receive: int | None = None
    send: int | None = None
    events: tuple[int, ...] = ()


def is_exchange(msc: Msc) -> bool:
    """Send events form a happens-before downward-closed set."""
    require_valid(msc)
    return not any(
        msc.hb_strict(r, s) for r in msc.receive_events for s in msc.send_events
    )


def _units(msc: Msc) -> list[tuple[int, ...]]:
    """Messages as (send, receive) pairs, unmatched sends as singletons,
    in ascending send id."""
    return [(s, msc.matching[s]) if s in msc.matching else (s,) for s in msc.send_events]


def _unit_graph(msc: Msc) -> tuple[list[tuple[int, ...]], dict[int, set[int]], set[tuple[int, int]]]:
    """Unit digraph: weak edges u -> v when some event of u happens
    before some event of v (v cannot be in an earlier factor), strict
    edges when u's receive happens before v's send (v must be strictly
    later).  A unit's send happens before everything the unit's events
    do, and reaches its own last event, so both edge sets are read off
    happens-before rows: the units whose last event the send reaches,
    and the units whose send the receive reaches."""
    units = _units(msc)
    unit_of = {e: i for i, u in enumerate(units) for e in u}
    lasts = sum(1 << u[-1] for u in units)
    sends = sum(1 << u[0] for u in units)
    weak: dict[int, set[int]] = {}
    strict: set[tuple[int, int]] = set()
    for i, u in enumerate(units):
        weak[i] = {unit_of[f] for f in graph.bits_of(msc.hb_reach[u[0]] & lasts)}
        weak[i].discard(i)
        if len(u) == 2:
            strict.update((i, unit_of[f]) for f in graph.bits_of(msc.hb_reach[u[1]] & sends))
    return units, weak, strict


def decompose_exchanges(
    msc: Msc, k: int | None = None
) -> ExchangeDecomposition | DecompositionFailure:
    """Factor the MSC into exchanges, each capped at k sends when given.

    Strongly connected unit blocks are atomic: a factorization exists
    iff no block carries an internal receive-before-send constraint (and,
    with the cap, no block sends more than k messages).  Factors are the
    blocks in topological order, greedily merged into maximal exchanges
    for a deterministic result.
    """
    require_valid(msc)
    if not msc.events:
        return ExchangeDecomposition(())
    units, weak, strict = _unit_graph(msc)
    comps = graph.sccs(weak)
    comp_of = {u: ci for ci, comp in enumerate(comps) for u in comp}

    for i, j in sorted(strict):
        if comp_of[i] == comp_of[j]:
            return DecompositionFailure(
                "receive-before-send", receive=units[i][1], send=units[j][0]
            )
    if k is not None:
        for comp in comps:
            if len(comp) > k:
                block = tuple(sorted(e for u in comp for e in units[u]))
                return DecompositionFailure("block-exceeds-cap", events=block)

    # The condensation, each block named by its least unit.  Units are in
    # send order, so the ascending-id topological order is the one that
    # puts the ready block with the least send first.
    lead = {comp[0]: ci for ci, comp in enumerate(comps)}
    dag: dict[int, list[int]] = {u: [] for u in lead}
    for u, vs in weak.items():
        for v in vs:
            if comp_of[u] != comp_of[v]:
                dag[comps[comp_of[u]][0]].append(comps[comp_of[v]][0])
    topo = [lead[u] for u in graph.order(dag)[0]]

    factors: list[list[int]] = []
    group: list[int] = []

    def group_ok(candidate: list[int]) -> bool:
        members = {u for ci in candidate for u in comps[ci]}
        if any(i in members and j in members for i, j in strict):
            return False
        if k is not None:
            sends = sum(len(comps[ci]) for ci in candidate)
            if sends > k:
                return False
        return True

    for ci in topo:
        if group and not group_ok(group + [ci]):
            factors.append(group)
            group = [ci]
        else:
            group.append(ci)
    if group:
        factors.append(group)

    out = []
    for g in factors:
        events = sorted(e for ci in g for u in comps[ci] for e in units[u])
        out.append(tuple(events))
    return ExchangeDecomposition(tuple(out))


def is_weakly_synchronous(msc: Msc) -> bool:
    return isinstance(decompose_exchanges(msc), ExchangeDecomposition)


def is_weakly_k_synchronous(msc: Msc, k: int) -> bool:
    return isinstance(decompose_exchanges(msc, k), ExchangeDecomposition)

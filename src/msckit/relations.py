"""
Auxiliary orderings between events of an MSC.

Besides plain happens-before, several communication models force extra
scheduling constraints that are conveniently expressed as binary
relations over events:

* ``mb_rel``     sends to a common receiver must enter its mailbox in
  receive order (and a matched send beats an unmatched one);
* ``onen_rel``   a sender's outgoing messages must be received in send
  order (and its matched sends beat its unmatched ones);
* ``nn_bowtie``  the event dependency relation of global FIFO: the
  closed 1-n and mailbox orderings plus one round of the ⋈ rules, not
  closed again.  Its edges are the ones nn cycle witnesses and MSO's
  ``bowtie`` name;
* ``nn_saturated``  the least fixpoint of ⋈: the same rounds repeated
  until nothing changes.  It contains ``nn_bowtie``, so it is cyclic
  whenever ``nn_bowtie`` is, but it can be cyclic when ``nn_bowtie`` is
  not.  nn membership is tried on it first, and the global-FIFO
  linearizer runs on it.  Both come from one routine on bitset rows,
  :func:`_bowtie`;
* ``relb`` / ``relb_asy``  the "receive i before send i+k" constraints
  of k-bounded channels, in the FIFO and the general form.
  ``relb_asy`` is decided by counting, in O(s^2) per channel of s
  sends;
* ``crown_digraph``  matched sends ordered by "sent before the other is
  received", whose cycles are crowns.

Relations are successor maps (:class:`RelationGraph`), searched by
:mod:`msckit.graph`; closures, ⋈ and the crown digraph hand over the
rows they compute, with no edge set in between.  Every closure is
computed by :func:`graph.reach_bits` as bit rows (bit n for event n):
:func:`transitive_closure` turns them into successor lists, and
happens-before keeps them as they are (:attr:`Msc.hb_reach`), for the
crown digraph and the checks that test one pair.  The send-pair
relations read one grouping of the sends (:func:`send_groups`, by
receiver or sender) and sort each group once by rank.  Every producer
is memoised on the MSC by :func:`per_chart` (happens-before's
generators by :attr:`Msc.hb_generators`), so a chart builds each
relation once.  Acyclicity is a view on the relation itself
(:attr:`RelationGraph.order`): one pass gives the minimal cycle that
refutes a model or the topological order that witnesses it.
:data:`SCHEDULING` names the relation whose linearizations are exactly
a model's candidate schedules, :func:`scheduling_closure` its closure,
and :data:`NAMED` the relations MSO formulas can use as atoms.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from . import graph
from .core import Msc, MscError, RelationGraph, require_valid


class NotP2pError(MscError):
    """Raised when a FIFO-indexed construction is applied to a non-FIFO MSC."""


def per_chart(fn: Callable) -> Callable:
    """Memoise `fn(msc, *args)` on the MSC, per argument tuple."""

    @functools.wraps(fn)
    def memo(msc: Msc, *args):
        key = (fn.__name__, *args)
        if key not in msc._cache:
            msc._cache[key] = fn(msc, *args)
        return msc._cache[key]

    return memo


def transitive_closure(r: RelationGraph, reflexive: bool = False) -> RelationGraph:
    """Standard transitive closure; with `reflexive`, adds all loops.
    The rows of :func:`graph.reach_bits` become ascending successor
    lists."""
    rows = graph.reach_bits(r.adjacency(), reflexive)
    return RelationGraph({n: graph.bits_of(row) for n, row in rows.items()})


def hb_generators(msc: Msc) -> RelationGraph:
    """Process succession and matching, unclosed (:attr:`Msc.hb_generators`)."""
    return msc.hb_generators


# -- send groups -----------------------------------------------------------


def send_groups(msc: Msc, key: str) -> dict[str, list[int]]:
    """Send events grouped by their ``sender`` or ``receiver``, groups
    and their members in ascending id."""
    out: dict[str, list[int]] = {}
    for s in msc.send_events:
        out.setdefault(getattr(msc.labels[s], key), []).append(s)
    return out


def receive_rank(msc: Msc, s: int) -> float:
    """The index of the receive of send `s` on its line, infinity when
    `s` is unmatched.  A receiver takes its messages in ascending rank."""
    return msc.position[msc.matching[s]][1] if s in msc.matching else math.inf


def _matched_first(
    msc: Msc, sends: list[int], rank: Callable[[int], float]
) -> list[tuple[int, int]]:
    """The pairs (s1, s2) of `sends` with s1 matched and ranked before s2,
    where matched sends come in ascending `rank` and unmatched ones last."""
    ranked = sorted(sends, key=lambda s: (s not in msc.matching, rank(s)))
    return [
        (s1, s2)
        for i, s1 in enumerate(ranked)
        if s1 in msc.matching
        for s2 in ranked[i + 1 :]
    ]


# -- mailbox -------------------------------------------------------------


@per_chart
def mb_rel(msc: Msc) -> RelationGraph:
    """Edges between sends to a common receiver: matched before
    unmatched, and matched pairs ordered as their receives."""
    require_valid(msc)
    edges = []
    for sends in send_groups(msc, "receiver").values():
        edges += _matched_first(msc, sends, lambda s: receive_rank(msc, s))
    return RelationGraph.of(msc.events, edges)


@per_chart
def mb_generators(msc: Msc) -> RelationGraph:
    """Process succession, matching, and the mailbox ordering, unclosed."""
    return hb_generators(msc) | mb_rel(msc)


def mb_partial(msc: Msc) -> RelationGraph:
    """Strict transitive closure of the mailbox generators."""
    return scheduling_closure(msc, "mb")


# -- 1-n -----------------------------------------------------------------


@per_chart
def onen_rel(msc: Msc) -> RelationGraph:
    """Edges forced by per-sender FIFO: a sender's matched sends precede
    its unmatched ones, and receives of one sender's messages follow the
    order of the sends."""
    require_valid(msc)
    edges = []
    match = msc.matching
    for sends in send_groups(msc, "sender").values():
        for s1, s2 in _matched_first(msc, sends, lambda s: msc.position[s][1]):
            edges.append((match[s1], match[s2]) if s2 in match else (s1, s2))
    return RelationGraph.of(msc.events, edges)


@per_chart
def onen_generators(msc: Msc) -> RelationGraph:
    return hb_generators(msc) | onen_rel(msc)


def onen_partial(msc: Msc) -> RelationGraph:
    return scheduling_closure(msc, "onen")


# -- n-n -----------------------------------------------------------------


@per_chart
def nn_rel(msc: Msc) -> RelationGraph:
    """Transitive closure of succession, matching, mailbox and 1-n edges
    (the mb and onen scheduling relations)."""
    return transitive_closure(scheduling(msc, "mb") | scheduling(msc, "onen"))


def _bowtie(msc: Msc, saturate: bool) -> tuple[tuple[int, ...], dict[int, int]] | None:
    """The ⋈ rules on predecessor bitsets: the events in bit order and,
    for every bit, the bits of the events that precede that event.

    Bits 0..m-1 are the matched sends in ascending id, bit m+i is the
    receive of the i-th, and the unmatched sends follow, so each mirror
    rule is one shift.  A round closes the rows and then adds the rules:
    a send before the i-th matched send puts its receive before the
    i-th receive, a receive before the i-th receive puts its send before
    the i-th matched send (self pairs excluded), and every matched send
    precedes every unmatched one.

    Without `saturate`, one round is taken from the mb and 1-n
    scheduling relations, as ⋈ is defined, and its additions are not
    closed.  With it, rounds start from process succession and matching
    and repeat until no row grows; None is returned once a closure is
    cyclic.  The mailbox and 1-n edges are mirror images of process
    succession or matched-before-unmatched edges, so the fixpoint is the
    same from either start, and the sparser start closes faster.
    """
    require_valid(msc)
    matched = sorted(msc.matched_sends)
    m = len(matched)
    bits = (*matched, *(msc.matching[s] for s in matched), *sorted(msc.unmatched_sends))
    index = {e: i for i, e in enumerate(bits)}
    # relation edges reversed: before[i] lists bits that precede bit i
    before: dict[int, list[int]] = {i: [] for i in range(len(bits))}
    start = hb_generators(msc) if saturate else scheduling(msc, "mb") | scheduling(msc, "onen")
    for a, succs in start.adjacency().items():
        for b in succs:
            before[index[b]].append(index[a])
    sends = (1 << m) - 1
    while True:
        rows = graph.reach_bits(before)
        if saturate and any(row >> i & 1 for i, row in rows.items()):
            return None
        added = dict.fromkeys(range(2 * m, len(bits)), sends)
        for i in range(m):
            others = sends ^ (1 << i)
            added[m + i] = (rows[i] & others) << m
            added[i] = (rows[m + i] >> m) & others
        if not saturate:
            return bits, {i: row | added.get(i, 0) for i, row in rows.items()}
        grown = False
        for i, want in added.items():
            new = graph.bits_of(want & ~rows[i])
            before[i] += new
            grown = grown or bool(new)
        if not grown:
            return bits, rows


@per_chart
def nn_bowtie(msc: Msc) -> RelationGraph:
    """The event dependency relation for the global-FIFO model: the
    closed mb and 1-n scheduling relations plus one round of the ⋈ rules
    (:func:`_bowtie`), not closed again.  Its predecessor rows are
    inverted straight into successor lists."""
    bits, rows = _bowtie(msc, saturate=False)
    succ: dict[int, list[int]] = {e: [] for e in bits}
    for i, row in rows.items():
        for j in graph.bits_of(row):
            succ[bits[j]].append(bits[i])
    return RelationGraph(succ)


@per_chart
def nn_saturated(msc: Msc) -> tuple[tuple[int, ...], dict[int, int]] | None:
    """The least fixpoint of the ⋈ rules (:func:`_bowtie`), or None once
    it turns cyclic.  It contains :func:`nn_bowtie`, and every rule holds
    in every global-FIFO linearization, so it is acyclic exactly when
    the MSC is in nn.  It can be cyclic while :func:`nn_bowtie` is not."""
    return _bowtie(msc, saturate=True)


# -- crowns -------------------------------------------------------------------


@per_chart
def crown_digraph(msc: Msc) -> RelationGraph:
    """Digraph on matched sends with an edge s1 -> s2 whenever s1 happens
    strictly before the receive matching s2."""
    require_valid(msc)
    rm = msc.rmatching
    receives = sum(1 << r for r in rm)
    rows = {s: graph.bits_of(msc.hb_reach[s] & receives) for s in msc.matched_sends}
    return RelationGraph({s: [rm[r] for r in rs if rm[r] != s] for s, rs in rows.items()})


# -- the scheduling relation of each model -----------------------------------

# A model's linearizations are the linearizations of its scheduling
# relation: hb for the universal-clause models, and for mb, onen and nn
# the relation whose acyclicity decides membership.  Entries are names,
# resolved on this module at call time, so a rebound function is used.
SCHEDULING = {
    "asy": "hb_generators",
    "p2p": "hb_generators",
    "co": "hb_generators",
    "mb": "mb_generators",
    "onen": "onen_generators",
    "nn": "nn_bowtie",
}


def scheduling(msc: Msc, model: str) -> RelationGraph:
    """The scheduling relation of `model`."""
    return globals()[SCHEDULING[model]](msc)


@per_chart
def scheduling_closure(msc: Msc, model: str) -> RelationGraph:
    """The strict transitive closure of the scheduling relation of `model`."""
    return transitive_closure(scheduling(msc, model))


# The orderings an MSO formula can name as an atom, e.g. ``mb(x, y)``:
# atom name -> function name on this module, resolved at call time like
# SCHEDULING.  Names in K_INDEXED take a bound, written as a suffix
# (``relb2(x, y)``).
NAMED = {
    "mb": "mb_rel",
    "onen": "onen_rel",
    "bowtie": "nn_bowtie",
    "nnrel": "nn_rel",
    "mbp": "mb_partial",
    "onenp": "onen_partial",
    "prox": "crown_digraph",
    "relb": "relb",
    "relbasy": "relb_asy",
}
K_INDEXED = frozenset({"relb", "relbasy"})


def named(msc: Msc, name: str, k: int | None = None) -> RelationGraph:
    """The relation an MSO atom names; `k` defaults to 1 for the
    k-indexed ones and is ignored by the others."""
    if name not in NAMED:
        raise MscError(f"unknown named relation {name!r}")
    fn = globals()[NAMED[name]]
    if name in K_INDEXED:
        return fn(msc, 1 if k is None else k)
    return fn(msc)


# -- k-bounded channel constraints ----------------------------------------


def channel_sends(msc: Msc) -> dict[tuple[str, str], list[int]]:
    """Per-channel send events in process order."""
    out: dict[tuple[str, str], list[int]] = {}
    for p in msc.processes:
        for e in msc.proc_order[p]:
            a = msc.labels[e]
            if a.is_send:
                out.setdefault(a.channel, []).append(e)
    return out


def channel_receives(msc: Msc) -> dict[tuple[str, str], list[int]]:
    """Per-channel receive events in the receiver's process order."""
    out: dict[tuple[str, str], list[int]] = {}
    for p in msc.processes:
        for e in msc.proc_order[p]:
            a = msc.labels[e]
            if not a.is_send:
                out.setdefault(a.channel, []).append(e)
    return out


@per_chart
def relb(msc: Msc, k: int) -> RelationGraph:
    """For each channel, an edge from its i-th receive to its (i+k)-th
    send: the receive must be scheduled first in any k-bounded
    linearization.  FIFO channels make the indexing meaningful, so the
    MSC must satisfy the per-channel FIFO discipline."""
    require_valid(msc)
    if k < 0:
        raise ValueError("k must be >= 0")
    from .classify import membership

    ok, witness = membership(msc, "p2p")
    if not ok:
        raise NotP2pError(f"receive indexing needs FIFO channels; offending sends {witness}")
    edges = set()
    sends = channel_sends(msc)
    for ch, recvs in channel_receives(msc).items():
        ss = sends[ch]
        for i, r in enumerate(recvs):
            j = i + k
            if j < len(ss):
                edges.add((r, ss[j]))
    return RelationGraph.of(msc.events, edges)


@per_chart
def relb_asy(msc: Msc, k: int) -> RelationGraph:
    """Order-free variant of :func:`relb`: whenever k+1 sends are chained
    on one channel and at least one is matched, the earliest of their
    receives must precede the last send.

    Decided by counting rather than by enumerating the (k+1)-subsets:
    the edge from the receive of t to the send s_j exists iff t is a
    matched send at or before s_j on the channel, s_j is t or is
    unmatched or is received after t, and at least k-1 other sends
    before s_j are unmatched or received after t (k of them when s_j is
    t).  One running count per (t, j) makes this O(s^2) per channel.
    """
    require_valid(msc)
    if k < 0:
        raise ValueError("k must be >= 0")
    edges = []
    for ss in channel_sends(msc).values():
        rank = [receive_rank(msc, s) for s in ss]
        for i, t in enumerate(ss):
            if t not in msc.matching:
                continue
            r = msc.matching[t]
            later = [p > rank[i] for p in rank]
            count = sum(later[:i])
            if count >= k:
                edges.append((r, t))
            if k == 0:
                continue
            for j in range(i + 1, len(ss)):
                if later[j]:
                    if count >= k - 1:
                        edges.append((r, ss[j]))
                    count += 1
    return RelationGraph.of(msc.events, edges)


# -- export ----------------------------------------------------------------


def to_dot(r: RelationGraph, msc: Msc | None = None, name: str = "relation") -> str:
    """DOT rendering of a relation, labelling nodes with their actions
    when the owning MSC is supplied."""
    lines = [f"digraph {name} {{"]
    for n in sorted(r.nodes):
        label = str(msc.labels[n]) if msc is not None and n in msc.labels else str(n)
        lines.append(f'  e{n} [label="{label}"];')
    for a, b in sorted(r.edges):
        lines.append(f"  e{a} -> e{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"

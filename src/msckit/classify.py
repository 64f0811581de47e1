"""
Membership of an MSC in the seven communication models, with witnesses.

The models, from weakest to strongest: fully asynchronous (``asy``),
per-channel FIFO (``p2p``), causally ordered (``co``), mailbox (``mb``),
per-sender FIFO (``onen``), global FIFO (``nn``), and realizable with
synchronous communication (``rsc``).  Membership verdicts are downward
closed along that chain.

Two independent decision routes are kept side by side: the relational
checks used by :func:`classify`, and the brute-force
linearization-enumeration oracle :func:`oracle_membership` that the test
suite plays against them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from . import graph, relations
from .core import (
    Linearization,
    Msc,
    MscError,
    enumerate_linearizations,
    extends_hb,
    require_valid,
)

MODELS = ("asy", "p2p", "co", "mb", "onen", "nn", "rsc")


class NotInModelError(MscError):
    """A linearization was requested for a model the MSC does not belong to."""


class OracleLimitError(MscError):
    """The MSC exceeds the configured brute-force bound."""


class HierarchyViolation(MscError):
    """Internal consistency failure: the verdicts broke the model chain."""


def oracle_limit(default: int = 10) -> int:
    """Event cap for brute-force enumeration, overridable through the
    MSCKIT_ORACLE_LIMIT environment variable."""
    raw = os.environ.get("MSCKIT_ORACLE_LIMIT")
    if not raw:
        return default
    try:
        limit = int(raw)
    except ValueError:
        raise OracleLimitError(f"MSCKIT_ORACLE_LIMIT is not an integer: {raw!r}") from None
    if limit < 0:
        raise OracleLimitError(f"MSCKIT_ORACLE_LIMIT is negative: {raw!r}")
    return limit


@dataclass(frozen=True, slots=True)
class Crown:
    """A cyclic chain of matched messages, each sent before the next one
    is received; its existence rules out a synchronous schedule."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ClassReport:
    verdicts: dict[str, bool]
    witnesses: dict[str, Linearization] = field(default_factory=dict)
    negatives: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(m for m in MODELS if self.verdicts[m])

    def to_json(self) -> dict:
        out = {
            "models": {m: self.verdicts[m] for m in MODELS},
            "witnesses": {m: list(lin.order) for m, lin in sorted(self.witnesses.items())},
            "negatives": {m: list(w) for m, w in sorted(self.negatives.items())},
        }
        return out

    @staticmethod
    def from_json(data: dict) -> "ClassReport":
        return ClassReport(
            verdicts=dict(data["models"]),
            witnesses={
                m: Linearization(tuple(v)) for m, v in data.get("witnesses", {}).items()
            },
            negatives={m: tuple(v) for m, v in data.get("negatives", {}).items()},
        )

    def to_table(self, msc: Msc | None = None) -> str:
        rows = []
        for m in MODELS:
            if self.verdicts[m]:
                extra = ""
                if msc is not None and self.witnesses.get(m, Linearization(())).order:
                    extra = "  witness: " + format_linearization(msc, self.witnesses[m])
                rows.append(f"{m:<5} yes{extra}")
            else:
                extra = ""
                if m in self.negatives:
                    extra = "  witness: " + " ".join(str(e) for e in self.negatives[m])
                rows.append(f"{m:<5} no{extra}")
        return "\n".join(rows)


def format_linearization(msc: Msc, lin: Linearization | Sequence[int]) -> str:
    """Render an event order with `!name`/`?name` tokens, the same ones
    the text format uses."""
    from .io import event_tokens

    order = lin.order if isinstance(lin, Linearization) else tuple(lin)
    tokens = event_tokens(msc)
    return " ".join(tokens[e] for e in order)


# -- universal-clause models -----------------------------------------------


def is_p2p(msc: Msc) -> tuple[bool, tuple[int, int] | None]:
    """Per-channel FIFO: same-channel sends have receives in send order,
    or the later send is unmatched.  The witness is the first violating
    pair in channel order."""
    require_valid(msc)
    for sends in relations.channel_sends(msc).values():
        rank = [relations.receive_rank(msc, s) for s in sends]
        if rank != sorted(rank):
            for i, j in combinations(range(len(sends)), 2):
                if rank[j] < rank[i]:
                    return (False, (sends[i], sends[j]))
    return (True, None)


def is_co(msc: Msc) -> tuple[bool, tuple[int, int] | None]:
    """Causal delivery: sends to a common receiver ordered by
    happens-before have receives in the same order, or the later send is
    unmatched."""
    require_valid(msc)
    for sends in relations.send_groups(msc, "receiver").values():
        rank = {s: relations.receive_rank(msc, s) for s in sends}
        for s1 in sends:
            later = msc.hb_reach[s1]
            for s2 in sends:
                if rank[s2] < rank[s1] and later >> s2 & 1:
                    return (False, (s1, s2))
    return (True, None)


# -- rsc and crowns ------------------------------------------------------------


def find_crown(msc: Msc) -> Crown | None:
    cycle = relations.crown_digraph(msc).order[1]
    if cycle is None:
        return None
    sends = cycle[:-1]
    return Crown(tuple((s, msc.matching[s]) for s in sends))


def is_rsc(msc: Msc) -> tuple[bool, tuple[int, ...] | None]:
    """Synchronously realizable: no unmatched send and no crown."""
    require_valid(msc)
    unm = sorted(msc.unmatched_sends)
    if unm:
        return (False, (unm[0],))
    crown = find_crown(msc)
    if crown is not None:
        return (False, tuple(e for pair in crown.pairs for e in pair))
    return (True, None)


# -- global FIFO ---------------------------------------------------------------


def is_nn(msc: Msc) -> tuple[bool, tuple[int, ...] | None]:
    """Global FIFO, decided in three steps, each run only when the ones
    before give no answer:

    1. the MSC is in mb and in onen, and the least fixpoint of the ⋈
       rules (:func:`relations.nn_saturated`) is acyclic: a member.  ⋈
       lies inside the fixpoint, so it is acyclic too;
    2. an event lies on a cycle of the mb and 1-n scheduling relations
       joined: not a member, and ``(s, s)`` for the least such event
       ``s`` is the witness.  ⋈ holds the closure of that union and adds
       no self pair, so these are exactly its self-loops, and ``(s, s)``
       the cycle :attr:`RelationGraph.order` finds on it.  A chart
       outside mb or onen always ends here;
    3. otherwise ⋈ itself (:func:`relations.nn_bowtie`) decides, its
       minimal cycle the witness.  ⋈ can be acyclic while its fixpoint is
       not; the verdict is then member, and :func:`nn_linearize` raises
       :class:`NnAlgorithmError` on the chart.
    """
    require_valid(msc)
    if membership(msc, "mb")[0] and membership(msc, "onen")[0]:
        if relations.nn_saturated(msc) is not None:
            return (True, None)
    union = (relations.scheduling(msc, "mb") | relations.scheduling(msc, "onen")).adjacency()
    loops = [c[0] for c in graph.sccs(union) if len(c) > 1 or c[0] in union[c[0]]]
    if loops:
        s = min(loops)
        return (False, (s, s))
    cycle = relations.nn_bowtie(msc).order[1]
    return (cycle is None, cycle)


# -- linearization construction -------------------------------------------------


class NnAlgorithmError(MscError):
    """The global-FIFO linearizer found no admissible event.  It runs on
    the least fixpoint of the ⋈ rules, so it is raised on the charts
    that :func:`is_nn` calls members by their acyclic ⋈ alone (step 3)
    while that fixpoint is cyclic, and on non-members."""


def nn_linearize(msc: Msc) -> Linearization:
    """Build a global-FIFO linearization from the event dependency
    relation, saturated to its least fixpoint
    (:func:`relations.nn_saturated`).

    Loop, with ascending event id breaking every tie:

    1. emit a matched send with no pending predecessor;
    2. else, if no matched send remains, emit such an unmatched send;
    3. else emit the receive of the oldest emitted-but-unreceived
       message, provided it has no pending predecessor;
    4. anything else is an error (cyclic dependency relation);
    5. stop once every event is emitted.

    The unsaturated :func:`relations.nn_bowtie` can leave step 1 a
    matched send whose receive a later receive must precede, and then
    step 3 gets stuck on a member; its fixpoint cannot.
    """
    require_valid(msc)
    saturated = relations.nn_saturated(msc)
    if saturated is None:
        raise NnAlgorithmError("dependency relation is cyclic")
    bits, before = saturated
    m = len(msc.matching)
    sends = (1 << m) - 1
    unmatched = ((1 << len(bits)) - 1) ^ sends ^ (sends << m)
    left = (1 << len(bits)) - 1  # bits not yet emitted

    def first_ready(candidates: int) -> int | None:
        while candidates:
            low = candidates & -candidates
            i = low.bit_length() - 1
            if not before[i] & left:
                return i
            candidates ^= low
        return None

    fifo: list[int] = []  # matched sends emitted, receive still pending
    head = 0
    order: list[int] = []
    while left:
        pick = first_ready(left & sends)
        if pick is not None:
            fifo.append(pick)
        elif not left & sends:
            pick = first_ready(left & unmatched)
        if pick is None and head < len(fifo) and not before[m + fifo[head]] & left:
            pick = m + fifo[head]
            head += 1
        if pick is None:
            raise NnAlgorithmError("dependency graph has no admissible event; relation is cyclic")
        left ^= 1 << pick
        order.append(bits[pick])

    return Linearization(tuple(order), ("nn",))


def rsc_linearize(msc: Msc) -> Linearization:
    """Schedule that pairs every send with its receive back to back:
    the crown digraph's topological order, least send first.  Exists
    exactly when the MSC has no unmatched send and no crown."""
    require_valid(msc)
    sends = relations.crown_digraph(msc).order[0]
    if sends is None or msc.unmatched_sends:
        raise NotInModelError("no synchronous schedule (crown or unmatched send present)")
    return Linearization(tuple(e for s in sends for e in (s, msc.matching[s])), ("rsc",))


def linearize(msc: Msc, model: str) -> Linearization:
    """A linearization witnessing membership of the MSC in `model`.

    Topological sort of the model's scheduling relation, the dependency
    graph loop for ``nn``, and send-receive pairing for ``rsc``.  Raises
    :class:`NotInModelError` when the MSC is not in the class.  Output is
    verified against :func:`check_linearization` before being returned.
    """
    require_valid(msc)
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if not membership(msc, model)[0]:
        raise NotInModelError(f"MSC is not {model}")
    if model == "nn":
        lin = nn_linearize(msc)
    elif model == "rsc":
        lin = rsc_linearize(msc)
    else:
        # acyclic: hb is a partial order, and membership tested the others
        lin = Linearization(relations.scheduling(msc, model).order[0])
    if not check_linearization(msc, lin, model):
        raise MscError(f"internal error: produced order fails the {model} clause")
    return Linearization(lin.order, (model,))


# The sends whose receives a model's clause orders: those with equal keys
# (same channel, receiver, sender, or any two).
_CLAUSE_KEYS = {
    "p2p": lambda a: a.channel,
    "co": lambda a: a.receiver,
    "mb": lambda a: a.receiver,
    "onen": lambda a: a.sender,
    "nn": lambda a: None,
}


def check_linearization(msc: Msc, lin: Linearization | Sequence[int], model: str) -> bool:
    """Evaluate the defining clause of `model` on a total order.

    The order must linearize the MSC.  For ``asy`` any linearization
    qualifies; ``rsc`` wants each send immediately followed by its
    receive.  The others group sends by channel (``p2p``), receiver
    (``co``, ``mb``), sender (``onen``) or not at all (``nn``), and
    want, for two sends of a group ordered one before the other, the
    later unmatched or both received in that order.  ``co`` orders sends
    by happens-before: one sweep over the sends in the order of their
    receives, unmatched sends last, decides it, a send failing if it
    happens before a matched send of its group that the sweep has
    passed.  The rest order them by the linearization, so one sweep over
    each group in order decides the clause: a matched send fails if an
    unmatched send of its group came before it, or if its receive comes
    before the latest receive of the group's earlier sends.
    """
    require_valid(msc)
    order = lin.order if isinstance(lin, Linearization) else tuple(lin)
    if not extends_hb(msc, order):
        raise MscError("order does not linearize the MSC")
    pos = {e: i for i, e in enumerate(order)}

    if model == "asy":
        return True
    if model == "rsc":
        if msc.unmatched_sends:
            return False
        return all(pos[r] == pos[s] + 1 for s, r in msc.matching.items())

    if model not in _CLAUSE_KEYS:
        raise ValueError(f"unknown model {model!r}")
    key = _CLAUSE_KEYS[model]
    match = msc.matching
    if model == "co":
        passed: dict[object, int] = {}  # per group, the matched sends passed
        for s in sorted(msc.send_events, key=lambda s: pos.get(match.get(s), len(order))):
            k = key(msc.labels[s])
            if msc.hb_reach[s] & passed.get(k, 0):
                return False
            if s in match:
                passed[k] = passed.get(k, 0) | 1 << s
        return True
    # per group, the latest receive position so far; past the end once
    # an unmatched send has come
    latest: dict[object, int] = {}
    for s in sorted(msc.send_events, key=pos.__getitem__):
        k = key(msc.labels[s])
        r = msc.matching.get(s)
        if r is None:
            latest[k] = len(order)
        elif pos[r] < latest.get(k, -1):
            return False
        else:
            latest[k] = pos[r]
    return True


# -- membership dispatch and the brute-force oracle ----------------------------


_CLAUSE_DECIDERS = {
    "asy": lambda msc: (True, None),
    "p2p": is_p2p,
    "co": is_co,
    "nn": is_nn,
    "rsc": is_rsc,
}


@relations.per_chart
def membership(msc: Msc, model: str) -> tuple[bool, tuple[int, ...] | None]:
    """Relational membership verdict plus a negative witness, memoised on
    the MSC.  ``mb`` and ``onen`` hold iff the model's scheduling
    relation is acyclic, and a minimal cycle is the witness.  ``nn`` is
    decided by :func:`is_nn`: the mb and onen verdicts with the ⋈
    fixpoint, then the cycles of the joined mb and 1-n relations, then ⋈
    itself.  The other models are
    decided on their clauses."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model in _CLAUSE_DECIDERS:
        return _CLAUSE_DECIDERS[model](msc)
    cycle = relations.scheduling(msc, model).order[1]
    return (cycle is None, cycle)


def oracle_membership(msc: Msc, model: str, limit: int | None = None) -> bool:
    """Ground truth by enumeration: some linearization satisfies the
    model's clause.  The clauses of asy, p2p and co give the same
    verdict on every linearization, so those are decided on the first."""
    require_valid(msc)
    cap = oracle_limit() if limit is None else limit
    if len(msc.events) > cap:
        raise OracleLimitError(f"{len(msc.events)} events exceed the oracle cap {cap}")
    if model in ("asy", "p2p", "co"):
        return check_linearization(msc, next(enumerate_linearizations(msc)), model)
    if model == "rsc" and msc.unmatched_sends:
        # first conjunct of the definition; skips a pointless enumeration
        return False
    for lin in enumerate_linearizations(msc):
        if check_linearization(msc, lin, model):
            return True
    return False


def classify(msc: Msc, with_witnesses: bool = True) -> ClassReport:
    """Run every membership check, assert hierarchy downward closure,
    and package witnesses (a model linearization for members, a violating
    pair or cycle for non-members)."""
    require_valid(msc)
    verdicts: dict[str, bool] = {}
    negatives: dict[str, tuple[int, ...]] = {}
    witnesses: dict[str, Linearization] = {}
    for model in MODELS:
        ok, witness = membership(msc, model)
        verdicts[model] = ok
        if not ok and witness is not None:
            negatives[model] = witness
        elif ok and with_witnesses:
            witnesses[model] = linearize(msc, model)
    for smaller, larger in zip(reversed(MODELS), list(reversed(MODELS))[1:]):
        if verdicts[smaller] and not verdicts[larger]:
            raise HierarchyViolation(f"{smaller} holds but {larger} does not")
    return ClassReport(verdicts, witnesses, negatives)

"""
Queuing-network operational semantics.

A network assigns a queue slot to every ordered process pair.  The four
canonical FIFO shapes are one queue per pair (``p2p``), one per receiver
(``mb``), one per sender (``onen``), and a single shared queue (``nn``).
The bag (``asy``) has one slot per channel, from which a receive may
take any entry with its message; it serves exploration, and the queue
shapes are the ones executions are classified against.  An execution is
a sequence of actions replayed from the all-empty configuration: a send
appends to its slot, and a receive takes an entry that
:func:`receives` offers: in a queue only the head, and only when it
carries exactly the receive's channel and payload.

Entries keep (sender, receiver, payload, origin) rather than the bare
payload.  With the assignment-consistency invariant this accepts
exactly the same executions.  The origin is a tag the caller picks for
each send: `run_execution` and `execution_to_msc` use its position in
the execution, which lets a replay be folded back into an MSC, and
`cfsm.explore` its (process index, line index) coordinate.  A
configuration is the plain tuple of slot contents, in
`QueueNetwork.queue_ids` order, so a step replaces one slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .core import Action, Linearization, Msc, MscError, require_valid

KINDS = ("p2p", "mb", "onen", "nn")
# the kind whose slots are bags: a receive may take any entry with its message
BAG = "asy"

# sender, receiver, payload, origin: a tag the caller gives the send
Entry = tuple[str, str, str, Any]
# the entries of each slot, in `queue_ids` order
Config = tuple[tuple[Entry, ...], ...]


class ExecutionRejected(MscError):
    def __init__(self, position: int, action: Action):
        super().__init__(f"step {position} ({action}) is not enabled")
        self.position = position
        self.action = action


@dataclass(frozen=True, slots=True)
class QueueNetwork:
    queue_ids: tuple[str, ...]
    assign: Mapping[tuple[str, str], str]
    kind: str = "custom"
    # channel -> position of its queue in `queue_ids`
    _slot: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # `_slot` is derived from `assign`, so `assign` is frozen too
        object.__setattr__(self, "assign", MappingProxyType(dict(self.assign)))
        index = {qid: i for i, qid in enumerate(self.queue_ids)}
        object.__setattr__(self, "_slot", {ch: index[q] for ch, q in self.assign.items()})

    def __hash__(self) -> int:
        return hash((self.queue_ids, tuple(sorted(self.assign.items())), self.kind))

    def queue_of(self, p: str, q: str) -> str:
        return self.queue_ids[self.slot_of(p, q)]

    def slot_of(self, p: str, q: str) -> int:
        """The position of channel (p, q)'s queue in `queue_ids`."""
        try:
            return self._slot[(p, q)]
        except KeyError:
            raise MscError(f"no queue assigned to channel ({p},{q})") from None


def initial(net: QueueNetwork) -> Config:
    """The configuration with every slot empty."""
    return ((),) * len(net.queue_ids)


def network_for(kind: str, processes: Sequence[str]) -> QueueNetwork:
    """The canonical network of the requested shape, or the bag, over a
    process set."""
    procs = tuple(processes)
    if not procs:
        raise MscError("network needs a nonempty process set")
    pairs = [(p, q) for p in procs for q in procs if p != q]
    if kind in ("p2p", BAG):
        assign = {(p, q): f"{p}>{q}" for p, q in pairs}
    elif kind == "mb":
        assign = {(p, q): q for p, q in pairs}
    elif kind == "onen":
        assign = {(p, q): p for p, q in pairs}
    elif kind == "nn":
        assign = {(p, q): "0" for p, q in pairs}
    else:
        raise ValueError(f"unknown network kind {kind!r}")
    queue_ids = tuple(sorted(set(assign.values())))
    return QueueNetwork(queue_ids, assign, kind)


def step(
    net: QueueNetwork, config: Config, action: Action, origin: Any = -1
) -> Config | None:
    """One transition, or None when the action is not enabled: a send
    appends its entry, tagged with `origin`, and a receive takes the
    first way :func:`receives` offers."""
    if not action.is_send:
        ways = receives(net, config, action)
        return ways[0][0] if ways else None
    i = net.slot_of(action.sender, action.receiver)
    entry = (action.sender, action.receiver, action.payload, origin)
    return config[:i] + (config[i] + (entry,),) + config[i + 1 :]


def receives(net: QueueNetwork, config: Config, action: Action) -> list[tuple[Config, Any]]:
    """Every way to take the receive `action`, as (configuration after,
    origin of the consumed entry): a queue offers its head, the bag each
    entry of the channel, oldest first, that carries the message."""
    i = net.slot_of(action.sender, action.receiver)
    entries = config[i]
    message = (action.sender, action.receiver, action.payload)
    ways = []
    for j, e in enumerate(entries if net.kind == BAG else entries[:1]):
        if e[:3] == message:
            ways.append((config[:i] + (entries[:j] + entries[j + 1 :],) + config[i + 1 :], e[3]))
    return ways


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    config: Config
    failed_at: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def run_execution(net: QueueNetwork, actions: Sequence[Action]) -> ReplayResult:
    """Fold :func:`step` from the initial configuration, reporting the
    index of the first refused action if any."""
    config = initial(net)
    for i, a in enumerate(actions):
        nxt = step(net, config, a, origin=i)
        if nxt is None:
            return ReplayResult(False, config, i)
        config = nxt
    return ReplayResult(True, config)


def full_process_set(
    actions: Sequence[Action], processes: Sequence[str] | None
) -> tuple[str, ...]:
    """`processes`, then the other processes the actions name, in order
    of first appearance."""
    procs = list(processes or ())
    for a in actions:
        for p in (a.sender, a.receiver):
            if p not in procs:
                procs.append(p)
    return tuple(procs)


def classify_execution(
    actions: Sequence[Action], processes: Sequence[str] | None = None
) -> set[str]:
    """The network kinds whose canonical instance accepts the execution."""
    procs = full_process_set(actions, processes)
    if not procs:
        return set(KINDS)
    return {
        kind for kind in KINDS if run_execution(network_for(kind, procs), actions).ok
    }


def linearization_to_execution(
    msc: Msc, lin: Linearization | Sequence[int]
) -> list[Action]:
    """Read off the action sequence of a linearization."""
    require_valid(msc)
    order = lin.order if isinstance(lin, Linearization) else tuple(lin)
    return [msc.labels[e] for e in order]


def execution_to_msc(
    actions: Sequence[Action], kind: str, processes: Sequence[str] | None = None
) -> Msc:
    """Rebuild the MSC realized by an execution on a canonical network.

    The FIFO discipline of the network identifies the send that every
    receive consumes; leftover queue entries become unmatched sends.
    Raises :class:`ExecutionRejected` if the network refuses a step.
    """
    procs = full_process_set(actions, processes)
    proc_order: dict[str, list[int]] = {p: [] for p in procs}
    matching: dict[int, int] = {}
    if procs:
        net = network_for(kind, procs)
        config = initial(net)
        for i, a in enumerate(actions):
            proc_order[a.process].append(i)
            if a.is_send:
                config = step(net, config, a, origin=i)
                continue
            ways = receives(net, config, a)
            if not ways:
                raise ExecutionRejected(i, a)
            config, send_at = ways[0]
            matching[send_at] = i
    msc = Msc(procs, dict(enumerate(actions)), proc_order, matching)
    require_valid(msc)
    return msc

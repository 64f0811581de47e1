"""
Queuing-network operational semantics.

A network assigns a FIFO queue to every ordered process pair.  The four
canonical shapes are one queue per pair (``p2p``), one per receiver
(``mb``), one per sender (``onen``), and a single shared queue (``nn``).
An execution is a sequence of actions replayed from the all-empty
configuration: a send appends to its queue, a receive succeeds only when
the head entry carries exactly its channel and payload.

Queue entries keep (sender, receiver, payload, origin) rather than the
bare payload.  With the assignment-consistency invariant this accepts
exactly the same executions, and the origin index lets a completed
replay be folded back into an MSC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Action, Linearization, Msc, MscError, require_valid

KINDS = ("p2p", "mb", "onen", "nn")

Entry = tuple[str, str, str, int]  # sender, receiver, payload, origin position


class ExecutionRejected(MscError):
    def __init__(self, position: int, action: Action):
        super().__init__(f"step {position} ({action}) is not enabled")
        self.position = position
        self.action = action


@dataclass(frozen=True, slots=True)
class QueueNetwork:
    queue_ids: tuple[str, ...]
    assign: dict[tuple[str, str], str]
    kind: str = "custom"

    def queue_of(self, p: str, q: str) -> str:
        try:
            return self.assign[(p, q)]
        except KeyError:
            raise MscError(f"no queue assigned to channel ({p},{q})") from None


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    queues: tuple[tuple[str, tuple[Entry, ...]], ...]

    @staticmethod
    def initial(net: QueueNetwork) -> "NetworkConfig":
        return NetworkConfig(tuple((qid, ()) for qid in net.queue_ids))

    def content(self, qid: str) -> tuple[Entry, ...]:
        for name, entries in self.queues:
            if name == qid:
                return entries
        raise KeyError(qid)

    def _replaced(self, qid: str, entries: tuple[Entry, ...]) -> "NetworkConfig":
        return NetworkConfig(
            tuple((name, entries if name == qid else old) for name, old in self.queues)
        )


def network_for(kind: str, processes: Sequence[str]) -> QueueNetwork:
    """The canonical network of the requested shape over a process set."""
    procs = tuple(processes)
    if not procs:
        raise MscError("network needs a nonempty process set")
    pairs = [(p, q) for p in procs for q in procs if p != q]
    if kind == "p2p":
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
    net: QueueNetwork, config: NetworkConfig, action: Action, origin: int = -1
) -> NetworkConfig | None:
    """One transition, or None when the action is not enabled."""
    qid = net.queue_of(action.sender, action.receiver)
    entries = config.content(qid)
    if action.is_send:
        entry: Entry = (action.sender, action.receiver, action.payload, origin)
        return config._replaced(qid, entries + (entry,))
    if not entries:
        return None
    head = entries[0]
    if head[:3] != (action.sender, action.receiver, action.payload):
        return None
    return config._replaced(qid, entries[1:])


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    config: NetworkConfig
    failed_at: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def run_execution(net: QueueNetwork, actions: Sequence[Action]) -> ReplayResult:
    """Fold :func:`step` from the initial configuration, reporting the
    index of the first refused action if any."""
    config = NetworkConfig.initial(net)
    for i, a in enumerate(actions):
        nxt = step(net, config, a, origin=i)
        if nxt is None:
            return ReplayResult(False, config, i)
        config = nxt
    return ReplayResult(True, config)


def execution_processes(actions: Iterable[Action]) -> tuple[str, ...]:
    procs: list[str] = []
    for a in actions:
        for p in (a.sender, a.receiver):
            if p not in procs:
                procs.append(p)
    return tuple(procs)


def full_process_set(
    actions: Sequence[Action], processes: Sequence[str] | None
) -> tuple[str, ...]:
    derived = execution_processes(actions)
    if processes is None:
        return derived
    procs = list(processes)
    procs.extend(p for p in derived if p not in procs)
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
    net = network_for(kind, procs) if procs else None
    config = NetworkConfig.initial(net) if net else None
    matching: dict[int, int] = {}
    labels: dict[int, Action] = {}
    proc_order: dict[str, list[int]] = {p: [] for p in procs}
    for i, a in enumerate(actions):
        labels[i] = a
        proc_order[a.process].append(i)
        assert net is not None and config is not None
        nxt = step(net, config, a, origin=i)
        if nxt is None:
            raise ExecutionRejected(i, a)
        if not a.is_send:
            matching[config.content(net.queue_of(a.sender, a.receiver))[0][3]] = i
        config = nxt
    msc = Msc(procs, labels, proc_order, matching)
    require_valid(msc)
    return msc

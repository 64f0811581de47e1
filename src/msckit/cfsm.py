"""
Communicating finite-state machines.

One finite transition system per process, labelled with that process's
send and receive actions.  A run of a system on an MSC assigns a
transition to every event so that labels match, consecutive events on a
line chain through states starting from the initial one, and matched
events agree on the message.  There are no final states: the set of
behaviors of a system is prefix closed.

`explore` enumerates, breadth-first by event count and deduplicated up
to isomorphism, every MSC admitting a run, filtered by membership in a
communication model.  `bounded_synchronizability` searches that space
for a violation of a boundedness or synchronizability predicate and
reports an honest bound-relative verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import bounded as bounded_mod
from . import relations
from .classify import find_crown, membership
from .core import Action, Msc, MscError, RelationGraph, require_valid

EXPLORE_MODELS = ("asy", "p2p", "co", "mb", "onen", "nn", "rsc")


@dataclass(frozen=True, slots=True)
class Machine:
    process: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[tuple[str, Action, str], ...]

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise MscError(f"initial state {self.initial!r} not declared")
        for src, action, dst in self.transitions:
            if action.process != self.process:
                raise MscError(f"{action} does not belong to machine {self.process}")
            if src not in self.states or dst not in self.states:
                raise MscError(f"transition {src}->{dst} uses undeclared states")

    def steps_from(self, state: str) -> list[tuple[str, Action, str]]:
        return sorted(
            (t for t in self.transitions if t[0] == state),
            key=lambda t: (str(t[1]), t[2]),
        )


@dataclass(frozen=True)
class CfsmSystem:
    machines: dict[str, Machine]

    @property
    def processes(self) -> tuple[str, ...]:
        return tuple(self.machines)

    def machine(self, p: str) -> Machine:
        return self.machines[p]


Run = dict[int, tuple[str, Action, str]]


def find_run(sys: CfsmSystem, msc: Msc) -> Run | None:
    """One run of the system on the MSC, or None.

    Each process line must spell a path of its machine from the initial
    state; matched events already agree on channel and payload in a
    valid MSC, so per-line path search is the whole problem.  The
    returned run picks the lexicographically first path per line.
    """
    require_valid(msc)
    run: Run = {}
    for p in msc.processes:
        line = msc.proc_order[p]
        if not line:
            continue
        if p not in sys.machines:
            return None
        machine = sys.machines[p]
        path = _find_path(machine, [msc.labels[e] for e in line])
        if path is None:
            return None
        for e, t in zip(line, path):
            run[e] = t
    return run


def _find_path(
    machine: Machine, word: list[Action]
) -> list[tuple[str, Action, str]] | None:
    """Backtracking NFA membership, deterministic transition order."""
    path: list[tuple[str, Action, str]] = []

    def rec(state: str, i: int) -> bool:
        if i == len(word):
            return True
        for t in machine.steps_from(state):
            if t[1] == word[i]:
                path.append(t)
                if rec(t[2], i + 1):
                    return True
                path.pop()
        return False

    return path if rec(machine.initial, 0) else None


# -- exploration -----------------------------------------------------------------


@dataclass(frozen=True)
class _Partial:
    states: tuple[str, ...]  # machine state per process, in system order
    lines: tuple[tuple[int, ...], ...]  # event ids per process
    labels: tuple[Action, ...]  # label of event i
    matching: tuple[tuple[int, int], ...]

    def to_msc(self, processes: tuple[str, ...]) -> Msc:
        return Msc(
            processes,
            {i: a for i, a in enumerate(self.labels)},
            {p: self.lines[pi] for pi, p in enumerate(processes)},
            dict(self.matching),
        )


def explore(
    sys: CfsmSystem, model: str = "asy", max_events: int = 6, prune: bool = True
) -> Iterator[Msc]:
    """All behaviors of the system with at most `max_events` events that
    belong to the model class, breadth-first by event count, one MSC per
    isomorphism class, deterministic order within each level.

    Receives may match any in-flight send with the right channel and
    payload (bag semantics), so non-FIFO matchings are reached too.
    Partial behaviors whose extensions cannot re-enter the class are
    pruned: directly for the prefix-closed models, and through the
    persistent part of the scheduling relations for the others.
    """
    if model not in EXPLORE_MODELS:
        raise ValueError(f"unknown model {model!r}")
    processes = sys.processes
    initial = _Partial(
        tuple(sys.machines[p].initial for p in processes), tuple(() for _ in processes), (), ()
    )
    seen_mscs: set = set()
    # one representative per (machine states, MSC isomorphism class)
    level = {(initial.states, initial.to_msc(processes).canonical()): initial}
    for _ in range(max_events + 1):
        emit = []
        for partial in level.values():
            msc = partial.to_msc(processes)
            canon = msc.canonical()
            if canon not in seen_mscs:
                seen_mscs.add(canon)
                if membership(msc, model)[0]:
                    emit.append((canon, msc))
        for _, msc in sorted(emit, key=lambda pair: pair[0]):
            yield msc
        nxt: dict = {}
        for partial in level.values():
            if len(partial.labels) >= max_events:
                continue
            for succ in _successors(sys, processes, partial):
                msc = succ.to_msc(processes)
                key = (succ.states, msc.canonical())
                if key in nxt or (prune and _prunable(msc, model)):
                    continue
                nxt[key] = succ
        level = nxt
        if not level:
            return


def _successors(
    sys: CfsmSystem, processes: tuple[str, ...], partial: _Partial
) -> Iterator[_Partial]:
    # in-flight sends: emitted, not yet matched
    pending = [
        i
        for i, a in enumerate(partial.labels)
        if a.is_send and i not in {s for s, _ in partial.matching}
    ]
    nid = len(partial.labels)
    for pi, p in enumerate(processes):
        machine = sys.machines[p]
        state = partial.states[pi]
        for src, action, dst in machine.steps_from(state):
            new_states = tuple(
                dst if j == pi else s for j, s in enumerate(partial.states)
            )
            new_lines = tuple(
                line + (nid,) if j == pi else line for j, line in enumerate(partial.lines)
            )
            if action.is_send:
                yield _Partial(
                    new_states, new_lines, partial.labels + (action,), partial.matching
                )
            else:
                for s in pending:
                    sa = partial.labels[s]
                    if (sa.sender, sa.receiver, sa.payload) == (
                        action.sender,
                        action.receiver,
                        action.payload,
                    ):
                        yield _Partial(
                            new_states,
                            new_lines,
                            partial.labels + (action,),
                            partial.matching + ((s, nid),),
                        )


def _prunable(msc: Msc, model: str) -> bool:
    """True when no extension of this partial behavior can lie in the
    model class.

    The partial MSC is a happens-before prefix of all its extensions.
    For the prefix-closed classes (p2p, co, mb) a partial outside the
    class dooms every extension.  For onen/nn only the persistent edges
    may be used: matched-to-unmatched constraints can disappear when a
    pending send is matched later, but succession, matching, and the
    receive-side orderings survive, so a cycle through them is final.
    """
    if model == "asy":
        return False
    if model in ("p2p", "co", "mb"):
        return not membership(msc, model)[0]
    if model == "rsc":
        # crowns only ever grow: hb between surviving events persists
        return find_crown(msc) is not None
    edges = set(msc.succ_edges | msc.msg_edges)
    edges |= _receive_order_edges(relations.onen_rel(msc), msc)
    if model == "nn":
        edges |= _receive_order_edges(relations.mb_rel(msc), msc)
    ok, _ = relations.is_acyclic(RelationGraph.of(msc.events, frozenset(edges)))
    return not ok


def _receive_order_edges(
    rel: RelationGraph, msc: Msc
) -> set[tuple[int, int]]:
    """The clauses of the scheduling relations that persist under
    extension: those whose both endpoints involve matched messages."""
    matched = msc.matched_sends | set(msc.rmatching)
    return {(a, b) for a, b in rel.edges if a in matched and b in matched}


# -- bounded synchronizability ------------------------------------------------------


@dataclass(frozen=True)
class SynchVerdict:
    ok: bool
    bound: int
    predicate: str
    counterexample: Msc | None = None

    def __bool__(self) -> bool:
        return self.ok


PREDICATES = ("weakly-synchronous", "weakly-k-synchronous", "exists-k-bounded", "forall-k-bounded")


def bounded_synchronizability(
    sys: CfsmSystem,
    model: str,
    predicate: str,
    max_events: int,
    k: int | None = None,
) -> SynchVerdict:
    """Search the model-restricted behaviors up to `max_events` events
    for one violating the predicate.  The verdict is explicitly relative
    to the bound; nothing is claimed beyond it."""
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    if predicate != "weakly-synchronous" and k is None:
        raise ValueError(f"{predicate} needs k")
    for msc in explore(sys, model, max_events):
        if not _predicate_holds(msc, model, predicate, k):
            return SynchVerdict(False, max_events, predicate, msc)
    return SynchVerdict(True, max_events, predicate, None)


def _predicate_holds(msc: Msc, model: str, predicate: str, k: int | None) -> bool:
    if predicate == "weakly-synchronous":
        return bounded_mod.is_weakly_synchronous(msc)
    if predicate == "weakly-k-synchronous":
        assert k is not None
        return bounded_mod.is_weakly_k_synchronous(msc, k)
    bound_model = model if model in bounded_mod.BOUNDED_MODELS else "asy"
    assert k is not None
    if predicate == "exists-k-bounded":
        return bounded_mod.exists_k_bounded(msc, k, bound_model)
    return bounded_mod.forall_k_bounded(msc, k, bound_model)

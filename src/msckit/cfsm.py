"""
Communicating finite-state machines.

One finite transition system per process, labelled with that process's
send and receive actions.  A run of a system on an MSC assigns a
transition to every event so that labels match, consecutive events on a
line chain through states starting from the initial one, and matched
events agree on the message.  There are no final states: the set of
behaviors of a system is prefix closed.

`explore` enumerates, breadth-first by event count and deduplicated up
to isomorphism, every MSC admitting a run that belongs to a
communication model.  One search serves all seven models, and one
stepping path: the model only chooses the channel discipline of
:mod:`msckit.network` the search steps, and sends and receives go
through `network.step` and `network.receives` alone.

* p2p, mb, onen and nn step the model's canonical queue network, so
  every behavior reached is the chart of a network execution and lies
  in the class by construction;
* asy, co and rsc step the bag, from which a receive may take any send
  with its channel and payload, and their charts are filtered by
  membership; co, being prefix closed, also drops the partial behaviors
  outside the class, since no extension brings them back.

`bounded_synchronizability` searches the explored space for a violation
of a boundedness or synchronizability predicate and reports an honest
bound-relative verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from . import bounded as bounded_mod
from . import network
from .classify import MODELS, membership
from .core import Action, Msc, MscError, require_valid

Transition = tuple[str, Action, str]


@dataclass(frozen=True, slots=True)
class Machine:
    process: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    # transitions by source state, in `steps_from` order
    _steps: dict[str, tuple[Transition, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise MscError(f"initial state {self.initial!r} not declared")
        for src, action, dst in self.transitions:
            if action.process != self.process:
                raise MscError(f"{action} does not belong to machine {self.process}")
            if src not in self.states or dst not in self.states:
                raise MscError(f"transition {src}->{dst} uses undeclared states")
        steps: dict[str, list[Transition]] = {s: [] for s in self.states}
        for t in sorted(self.transitions, key=lambda t: (str(t[1]), t[2])):
            steps[t[0]].append(t)
        object.__setattr__(self, "_steps", {s: tuple(ts) for s, ts in steps.items()})

    def steps_from(self, state: str) -> tuple[Transition, ...]:
        """The transitions leaving `state`, ordered by action text then
        target state."""
        return self._steps.get(state, ())


@dataclass(frozen=True)
class CfsmSystem:
    machines: Mapping[str, Machine]

    def __post_init__(self) -> None:
        object.__setattr__(self, "machines", MappingProxyType(dict(self.machines)))

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.machines.items())))

    @property
    def processes(self) -> tuple[str, ...]:
        return tuple(self.machines)


Run = dict[int, Transition]


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


def _find_path(machine: Machine, word: list[Action]) -> list[Transition] | None:
    """The first path spelling `word` in `steps_from` order: depth-first
    search with an explicit stack, skipping (state, position) pairs
    already known to lead nowhere."""
    if not word:
        return []
    path: list[Transition] = []
    # one iterator per open position; stack[i] yields candidates for word[i]
    stack = [iter(machine.steps_from(machine.initial))]
    dead: set[tuple[str, int]] = set()
    while stack:
        i = len(path)
        for t in stack[-1]:
            if t[1] == word[i] and (t[2], i + 1) not in dead:
                path.append(t)
                if len(path) == len(word):
                    return path
                stack.append(iter(machine.steps_from(t[2])))
                break
        else:
            stack.pop()
            if path:
                dead.add((path.pop()[2], i))
    return None


# -- exploration -----------------------------------------------------------------


def explore(sys: CfsmSystem, model: str = "asy", max_events: int = 6) -> Iterator[Msc]:
    """All behaviors of the system with at most `max_events` events that
    belong to the model class, breadth-first by event count, one MSC per
    isomorphism class, sorted by :meth:`Msc.canonical` within each level.

    The search steps executions of the system against a channel
    discipline, and each emitted chart's event ids follow the execution
    that first reached it.  p2p, mb, onen and nn step the model's queue
    network: a receive consumes the head of its queue, so each chart
    replays on that network and lies in the class by construction.  asy,
    co and rsc step the bag, where a receive takes any in-flight send
    with the right channel and payload, so non-FIFO matchings are
    reached too, and the charts are filtered by
    :func:`msckit.classify.membership` when emitted.  co is prefix
    closed, so it also drops each execution whose chart lies outside the
    class: no extension can bring it back.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    processes = sys.processes
    if not processes:  # no machine, no step: only the empty chart
        yield Msc(processes, {}, {}, {})
        return
    # peers without a machine still get channels: their messages stay in flight
    labels = [t[1] for m in sys.machines.values() for t in m.transitions]
    net = network.network_for(
        model if model in network.KINDS else network.BAG,
        network.full_process_set(labels, processes),
    )
    # per process and state: (action, target, label text, is send)
    moves = [
        {
            state: [(a, dst, str(a), a.is_send) for _, a, dst in sys.machines[p].steps_from(state)]
            for state in sys.machines[p].states
        }
        for p in processes
    ]
    by_name = sorted(range(len(processes)), key=processes.__getitem__)

    def canonical(chart) -> tuple:
        """:meth:`Msc.canonical` of the chart: its nonempty lines by
        process name, and the matching in (process, line index) terms."""
        words, placed = chart
        lines = tuple((processes[pi], words[pi]) for pi in by_name if words[pi])
        match = sorted(
            ((processes[sp], si), (processes[rp], ri)) for (sp, si), (rp, ri) in placed
        )
        return (lines, tuple(match))

    initial = _Execution(
        tuple(sys.machines[p].initial for p in processes),
        (),
        (),
        network.initial(net),
        tuple(() for _ in processes),
        frozenset(),
    )
    level = [initial]
    for depth in range(max_events + 1):
        charts: dict = {}
        for ex in level:
            charts.setdefault((ex.words, ex.placed), ex)
        for chart in sorted(charts, key=canonical):
            ex = charts[chart]
            msc = ex.to_msc(processes) if ex.msc is None else ex.msc
            if model in network.KINDS or membership(msc, model)[0]:
                yield msc
        if depth == max_events:
            return
        nxt: dict = {}  # key -> execution, or None once pruned
        for ex in level:
            states, words, config = ex.states, ex.words, ex.config
            for pi, state in enumerate(states):
                coord = (pi, len(words[pi]))
                for action, dst, label, is_send in moves[pi][state]:
                    # (configuration after the step, coordinates of the
                    # send a receive consumes) per way to take the step
                    if is_send:
                        ways = ((network.step(net, config, action, origin=coord), None),)
                    else:
                        ways = network.receives(net, config, action)
                    for after, source in ways:
                        placed = ex.placed if source is None else ex.placed | {(source, coord)}
                        key = (
                            states[:pi] + (dst,) + states[pi + 1 :],
                            words[:pi] + (words[pi] + (label,),) + words[pi + 1 :],
                            placed,
                            after,
                        )
                        if key in nxt:
                            continue
                        actions, coords = ex.actions + (action,), ex.coords + (coord,)
                        succ = _Execution(key[0], actions, coords, after, key[1], placed)
                        if model == "co":  # prefix closed: drop what lies outside
                            msc = succ.to_msc(processes)
                            succ = succ._replace(msc=msc) if membership(msc, model)[0] else None
                        nxt[key] = succ
        level = [ex for ex in nxt.values() if ex is not None]
        if not level:
            return


class _Execution(NamedTuple):
    """An execution of the system, event ids in execution order.  `words`
    and `placed` give its chart in (process index, line index)
    coordinates, which do not depend on the event ids."""

    states: tuple[str, ...]  # machine state per process, in system order
    actions: tuple[Action, ...]  # label of event i
    coords: tuple[tuple[int, int], ...]  # coordinates of event i
    # the network configuration, every entry tagged with its send's
    # coordinates
    config: network.Config
    words: tuple[tuple[str, ...], ...]  # label text along each process line
    placed: frozenset  # the matching as (send, receive) coordinate pairs
    msc: Msc | None = None  # the chart, once built

    def to_msc(self, processes: tuple[str, ...]) -> Msc:
        lines: list[list[int]] = [[] for _ in processes]
        for e, (pi, _) in enumerate(self.coords):
            lines[pi].append(e)
        ids = {c: e for e, c in enumerate(self.coords)}
        # the matching in receive order
        matching = {s: r for r, s in sorted((ids[r], ids[s]) for s, r in self.placed)}
        return Msc(processes, dict(enumerate(self.actions)), dict(zip(processes, lines)), matching)


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

"""
Core MSC data model.

An MSC is a finite set of events, each labelled with a send or receive
action, together with a per-process total order and a partial injective
matching from send events to receive events.  The induced happens-before
relation (the reflexive-transitive closure of process succession and
matching) must be a partial order.

Everything here is immutable after construction and every operation is a
pure function of its inputs, so values can be shared freely across
threads.  Construction performs only shape normalisation; semantic
checks live in :func:`validate`, which reports violations as data rather
than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from . import graph

SEND = "send"
RECV = "recv"


class MscError(Exception):
    """Base class for errors raised by msckit operations."""


class InvalidMscError(MscError):
    """An operation with a validity precondition was given an invalid MSC."""


class LimitExceededError(MscError):
    """A brute-force enumeration hit its configured bound."""


class NotDownwardClosedError(MscError):
    """Requested prefix set is not downward closed; carries a witness pair."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"not downward closed: {pair[0]} precedes kept event {pair[1]}")
        self.pair = pair


@dataclass(frozen=True, slots=True)
class Action:
    """A send or receive of `payload` on the channel (sender, receiver)."""

    kind: str
    sender: str
    receiver: str
    payload: str

    def __post_init__(self) -> None:
        if self.kind not in (SEND, RECV):
            raise ValueError(f"bad action kind: {self.kind!r}")
        if self.sender == self.receiver:
            # Self-sends are rejected at construction; every channel has
            # two distinct endpoints.
            raise ValueError(f"self-send not allowed: {self.sender}")

    @property
    def is_send(self) -> bool:
        return self.kind == SEND

    @property
    def process(self) -> str:
        """The process that executes this action."""
        return self.sender if self.kind == SEND else self.receiver

    @property
    def channel(self) -> tuple[str, str]:
        return (self.sender, self.receiver)

    def __str__(self) -> str:
        mark = "!" if self.kind == SEND else "?"
        return f"{mark}({self.sender},{self.receiver},{self.payload})"


def send(p: str, q: str, m: str) -> Action:
    return Action(SEND, p, q, m)


def recv(p: str, q: str, m: str) -> Action:
    """Receive, executed by `q`, of message `m` sent by `p`."""
    return Action(RECV, p, q, m)


def _view(fn):
    """A property computed on first read, kept in `_cache` under its name."""
    name = fn.__name__

    def get(self):
        if name not in self._cache:
            self._cache[name] = fn(self)
        return self._cache[name]

    return property(get, doc=fn.__doc__)


class RelationGraph:
    """A finite binary relation over event identifiers, held as the
    successor map :mod:`msckit.graph` works on: every node maps to its
    successors, without repeats, and every successor is a node.  The map
    is taken over uncopied, so its builder must not change it, and it is
    handed out read-only; :meth:`of` builds one from an edge list.
    Equality and hashing go by the node set and the edge set."""

    __slots__ = ("nodes", "_succ", "_cache")

    def __init__(self, succ: Mapping[int, Collection[int]]):
        object.__setattr__(self, "nodes", frozenset(succ))
        object.__setattr__(self, "_succ", MappingProxyType(succ))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RelationGraph is immutable")

    @staticmethod
    def of(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> "RelationGraph":
        """The relation on `nodes` with `edges`, repeats dropped; an edge
        leaving the nodes raises :class:`ValueError`."""
        succ: dict[int, list[int]] = {n: [] for n in nodes}
        for a, b in set(edges):
            if a not in succ or b not in succ:
                raise ValueError(f"edge {(a, b)} has an endpoint that is not a node")
            succ[a].append(b)
        return RelationGraph(succ)

    @_view
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, bs in self._succ.items() for b in bs)

    @_view
    def predecessors(self) -> Mapping[int, list[int]]:
        """The inverse successor map, built on first use."""
        pred: dict[int, list[int]] = {n: [] for n in self._succ}
        for a, bs in self._succ.items():
            for b in bs:
                pred[b].append(a)
        return MappingProxyType(pred)

    @_view
    def order(self) -> tuple[tuple[int, ...], None] | tuple[None, tuple[int, ...]]:
        """The ascending-id topological order and None when the relation
        is acyclic, else None and a minimal cycle (:func:`graph.order`)."""
        return graph.order(self._succ)

    def has(self, a: int, b: int) -> bool:
        return (a, b) in self.edges

    def adjacency(self) -> Mapping[int, Collection[int]]:
        """The successor map, the form :mod:`msckit.graph` works on: the
        same read-only view on every call."""
        return self._succ

    def __or__(self, other: "RelationGraph") -> "RelationGraph":
        """The union of two relations on the same nodes; when one has no
        edges it is the other itself, views and all."""
        if not any(other._succ.values()):
            return self
        if not any(self._succ.values()):
            return other
        return RelationGraph({n: {*bs, *other._succ[n]} for n, bs in self._succ.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))


@dataclass(frozen=True, slots=True)
class Linearization:
    """A total order of an MSC's events, possibly tagged with the models
    whose definitional clause it has been checked to witness."""

    order: tuple[int, ...]
    models: tuple[str, ...] = ()

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


class Msc:
    """A message sequence chart.

    Parameters
    ----------
    processes:
        Declared processes, in declaration order.  Processes without
        events are allowed.
    labels:
        Mapping from event id to its action.
    proc_order:
        Per-process sequences of event ids, inducing the process
        relation.  Events must appear on the line of the process that
        executes their action (checked by :func:`validate`, not here).
    matching:
        Partial map from send-event id to receive-event id.
    """

    __slots__ = ("processes", "labels", "proc_order", "matching", "_cache")

    def __init__(
        self,
        processes: Sequence[str],
        labels: Mapping[int, Action],
        proc_order: Mapping[str, Sequence[int]],
        matching: Mapping[int, int],
    ):
        object.__setattr__(self, "processes", tuple(processes))
        object.__setattr__(self, "labels", dict(labels))
        object.__setattr__(
            self, "proc_order", {p: tuple(proc_order.get(p, ())) for p in self.processes}
        )
        object.__setattr__(self, "matching", dict(matching))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Msc is immutable")

    # -- basic views ---------------------------------------------------

    @_view
    def events(self) -> tuple[int, ...]:
        return tuple(sorted(self.labels))

    @_view
    def send_events(self) -> tuple[int, ...]:
        return tuple(e for e in self.events if self.labels[e].is_send)

    @_view
    def receive_events(self) -> tuple[int, ...]:
        return tuple(e for e in self.events if not self.labels[e].is_send)

    @_view
    def matched_sends(self) -> frozenset[int]:
        return frozenset(self.matching)

    @_view
    def unmatched_sends(self) -> frozenset[int]:
        return frozenset(e for e in self.send_events if e not in self.matching)

    @_view
    def rmatching(self) -> dict[int, int]:
        """Receive id -> matching send id."""
        return {r: s for s, r in self.matching.items()}

    @_view
    def succ_edges(self) -> frozenset[tuple[int, int]]:
        """The process relation: immediate successor pairs on each line."""
        edges = set()
        for seq in self.proc_order.values():
            edges.update(zip(seq, seq[1:]))
        return frozenset(edges)

    @_view
    def msg_edges(self) -> frozenset[tuple[int, int]]:
        """The message relation: (send, matching receive) pairs."""
        return frozenset(self.matching.items())

    @_view
    def position(self) -> dict[int, tuple[str, int]]:
        """Event id -> (process, index on that process line)."""
        pos = {}
        for p, seq in self.proc_order.items():
            for i, e in enumerate(seq):
                pos[e] = (p, i)
        return pos

    # -- happens-before ------------------------------------------------

    @_view
    def hb_generators(self) -> RelationGraph:
        """Process succession and matching, unclosed.  Edges with an
        unlabelled end are left out, for :func:`validate` to report."""
        labels = self.labels
        return RelationGraph.of(
            self.events,
            ((a, b) for a, b in self.succ_edges | self.msg_edges if a in labels and b in labels),
        )

    @_view
    def hb_reach(self) -> dict[int, int]:
        """For each event, the events reachable through -> and <|
        (reflexive), as a bitset: bit n stands for event n.  Accumulated
        in reverse topological order, which validation has already
        found; raises :class:`InvalidMscError` when there is none."""
        topo = self.hb_generators.order[0]
        if topo is None:
            raise InvalidMscError("happens-before is not a partial order")
        return graph.reach_bits(self.hb_generators.adjacency(), True, ((e,) for e in reversed(topo)))

    def hb(self, a: int, b: int) -> bool:
        """a <= b in the happens-before partial order (reflexive)."""
        return self.hb_reach[a] >> b & 1 == 1

    def hb_strict(self, a: int, b: int) -> bool:
        return a != b and self.hb_reach[a] >> b & 1 == 1

    # -- structural equality / isomorphism ------------------------------

    def canonical(self) -> tuple:
        """Canonical form: per-process label sequences plus the matching
        expressed through (process, position) coordinates.  Two MSCs are
        isomorphic iff their canonical forms are equal."""
        procs = tuple(sorted(p for p in self.processes if self.proc_order[p]))
        lines = tuple((p, tuple(str(self.labels[e]) for e in self.proc_order[p])) for p in procs)
        match = tuple(
            sorted((self.position[s], self.position[r]) for s, r in self.matching.items())
        )
        return (lines, match)

    def isomorphic(self, other: "Msc") -> bool:
        return self.canonical() == other.canonical()

    def __repr__(self) -> str:
        return f"Msc({len(self.events)} events on {len(self.processes)} processes)"


EMPTY_MSC = Msc((), {}, {}, {})


# -- validation ---------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    condition: str
    events: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(msc: Msc) -> ValidationReport:
    """Check the defining conditions of an MSC on an arbitrary candidate.

    Violations are returned as data, one entry per failed condition with
    the offending event ids:

    * ``1``   an event is missing from / duplicated on process lines, or
      sits on a line other than the one executing its action;
    * ``2a``  a matched pair whose labels do not correspond;
    * ``2b``  a receive event without exactly one matching send;
    * ``2c``  a send matched more than once (or a non-send matched);
    * ``3``   process succession plus matching has a cycle.
    """
    out: list[Violation] = []

    seen: dict[int, str] = {}
    for p, seq in msc.proc_order.items():
        for e in seq:
            if e in seen:
                out.append(Violation("1", (e,), f"event on lines {seen[e]} and {p}"))
            seen[e] = p
            if e not in msc.labels:
                out.append(Violation("1", (e,), "event on a line but unlabelled"))
            elif msc.labels[e].process != p:
                out.append(Violation("1", (e,), f"action of {msc.labels[e]} placed on line {p}"))
    for e in msc.labels:
        if e not in seen:
            out.append(Violation("1", (e,), "labelled event on no process line"))

    for s, r in msc.matching.items():
        if s not in msc.labels or r not in msc.labels:
            out.append(Violation("2a", (s, r), "matching references unknown event"))
            continue
        ls, lr = msc.labels[s], msc.labels[r]
        if not ls.is_send:
            out.append(Violation("2c", (s,), "matched event is not a send"))
        if lr.is_send:
            out.append(Violation("2a", (s, r), "matched target is not a receive"))
        elif ls.is_send and (ls.sender, ls.receiver, ls.payload) != (
            lr.sender,
            lr.receiver,
            lr.payload,
        ):
            out.append(Violation("2a", (s, r), f"labels differ: {ls} vs {lr}"))

    receive_hits: dict[int, int] = {}
    for s, r in msc.matching.items():
        receive_hits[r] = receive_hits.get(r, 0) + 1
    for e in msc.events:
        if e in msc.labels and not msc.labels[e].is_send:
            n = receive_hits.get(e, 0)
            if n != 1:
                out.append(Violation("2b", (e,), f"receive matched by {n} sends"))
    # matching is a dict, so a send cannot be matched twice; flag receives
    # hit twice (an injectivity failure) under 2b above.

    cycle = msc.hb_generators.order[1]
    if cycle is not None:
        out.append(Violation("3", cycle, "happens-before is not a partial order"))

    return ValidationReport(not out, tuple(out))


def require_valid(msc: Msc) -> None:
    """Raise :class:`InvalidMscError` unless the MSC is valid.  The
    verdict is memoised on the MSC, so it is validated once."""
    if "violations" not in msc._cache:
        report = validate(msc)
        msc._cache["violations"] = "; ".join(
            f"({v.condition}) {v.detail}" for v in report.violations
        )
    if msc._cache["violations"]:
        raise InvalidMscError(msc._cache["violations"])


# -- operations ----------------------------------------------------------


def happens_before(msc: Msc) -> RelationGraph:
    """The reflexive-transitive closure of process succession and matching."""
    require_valid(msc)
    return RelationGraph({e: graph.bits_of(row) for e, row in msc.hb_reach.items()})


def enumerate_linearizations(
    msc: Msc, limit: int | None = None
) -> Iterator[Linearization]:
    """Yield every total order extending happens-before, in the
    deterministic order given by the ascending-id tie-break.

    Raises :class:`LimitExceededError` once `limit` linearizations have
    been produced and at least one more exists.
    """
    require_valid(msc)
    events = list(msc.events)
    adj = msc.hb_generators.adjacency()
    indeg = {e: 0 for e in events}
    for succs in adj.values():
        for f in succs:
            indeg[f] += 1

    def walk() -> Iterator[Linearization]:
        produced = 0
        prefix: list[int] = []
        # one iterator per prefix length over the events ready after it
        frames = [iter(sorted(e for e, d in indeg.items() if d == 0))]
        while frames:
            if len(prefix) == len(events):
                if limit is not None and produced >= limit:
                    raise LimitExceededError(f"more than {limit} linearizations")
                produced += 1
                yield Linearization(tuple(prefix))
            e = next(frames[-1], None)
            if e is None:
                frames.pop()
                if prefix:
                    e = prefix.pop()
                    for f in adj[e]:
                        indeg[f] += 1
                    indeg[e] = 0
                continue
            del indeg[e]
            for f in adj[e]:
                indeg[f] -= 1
            prefix.append(e)
            frames.append(iter(sorted(f for f, d in indeg.items() if d == 0)))

    return walk()


def extends_hb(msc: Msc, order: Sequence[int]) -> bool:
    """True if `order` is a linearization of the MSC (covers every event
    once and extends happens-before)."""
    if sorted(order) != list(msc.events):
        return False
    pos = {e: i for i, e in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in msc.hb_generators.edges)


def concatenate(m1: Msc, m2: Msc) -> Msc:
    """Vertical composition: disjoint union with each process line of m2
    appended after the corresponding line of m1.  Events of m2 are
    renumbered past those of m1."""
    require_valid(m1)
    require_valid(m2)
    offset = (max(m1.events) + 1) if m1.events else 0
    shift = {e: e + offset for e in m2.events}
    processes = list(m1.processes) + [p for p in m2.processes if p not in m1.processes]
    labels = dict(m1.labels)
    labels.update({shift[e]: m2.labels[e] for e in m2.events})
    proc_order = {}
    for p in processes:
        proc_order[p] = tuple(m1.proc_order.get(p, ())) + tuple(
            shift[e] for e in m2.proc_order.get(p, ())
        )
    matching = dict(m1.matching)
    matching.update({shift[s]: shift[r] for s, r in m2.matching.items()})
    out = Msc(processes, labels, proc_order, matching)
    require_valid(out)
    return out


# prefix closure -> (model whose scheduling relation is used, whether
# it is transitively closed first); the closure decides only the witness
_PREFIX_RELATIONS = {"hb": ("asy", True), "onen": ("onen", True), "nn": ("nn", False)}


def prefix(msc: Msc, keep: Iterable[int], closure: str = "hb") -> Msc:
    """Restrict the MSC to `keep`, provided `keep` is downward closed
    under the chosen relation: ``hb`` for happens-before, ``onen`` for
    the sender-side schedulability order, ``nn`` for the global-order
    dependency relation.

    Raises :class:`NotDownwardClosedError` with a witness pair otherwise.
    """
    require_valid(msc)
    keep = frozenset(keep)
    unknown = keep - set(msc.events)
    if unknown:
        raise MscError(f"prefix keeps unknown events: {sorted(unknown)}")

    if closure not in _PREFIX_RELATIONS:
        raise ValueError(f"unknown closure: {closure!r}")
    from . import relations

    model, closed = _PREFIX_RELATIONS[closure]
    relation = relations.scheduling_closure if closed else relations.scheduling
    succ = relation(msc, model).adjacency()
    for a in sorted(succ):
        if a not in keep:
            above = [b for b in succ[a] if b in keep]
            if above:
                raise NotDownwardClosedError((a, min(above)))

    labels = {e: msc.labels[e] for e in keep}
    proc_order = {p: tuple(e for e in seq if e in keep) for p, seq in msc.proc_order.items()}
    matching = {s: r for s, r in msc.matching.items() if s in keep and r in keep}
    return Msc(msc.processes, labels, proc_order, matching)


def hb_prefixes(msc: Msc) -> Iterator[frozenset[int]]:
    """All happens-before downward-closed event sets, smallest first."""
    return _downward_closed_sets(msc.events, happens_before(msc).edges)


def _downward_closed_sets(
    events: Sequence[int], rel: frozenset[tuple[int, int]]
) -> Iterator[frozenset[int]]:
    preds = RelationGraph.of(events, ((b, a) for a, b in rel if a != b)).adjacency()
    seen: set[frozenset[int]] = set()
    frontier = [frozenset()]
    seen.add(frozenset())
    while frontier:
        nxt = []
        for cur in frontier:
            yield cur
            for e in events:
                if e not in cur and cur.issuperset(preds[e]):
                    ext = cur | {e}
                    if ext not in seen:
                        seen.add(ext)
                        nxt.append(ext)
        frontier = nxt


def to_dot(msc: Msc) -> str:
    """Deterministic DOT rendering: solid arrowless edges along process
    lines, arrowed edges for messages, and a dashed stub arrow out of
    every unmatched send."""
    require_valid(msc)
    lines = ["digraph msc {", "  rankdir=TB;"]
    for e in msc.events:
        lines.append(f'  e{e} [label="{msc.labels[e]}"];')
    for a, b in sorted(msc.succ_edges):
        lines.append(f"  e{a} -> e{b} [arrowhead=none];")
    for s, r in sorted(msc.msg_edges):
        lines.append(f"  e{s} -> e{r};")
    for s in sorted(msc.unmatched_sends):
        lines.append(f'  u{s} [shape=point, label=""];')
        lines.append(f"  e{s} -> u{s} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"

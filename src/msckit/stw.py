"""
Special treewidth of an MSC via the mark-disconnect-split game.

The MSC is taken as an undirected graph whose vertices are events and
whose edges are process succession and message matching.  One player
marks up to k+1 events, removes edges between marked endpoints so the
fragment falls apart, and splits it; the opponent picks the part to
continue on.  Width at most k means the marking player can always reach
fully-marked fragments without ever exceeding k+1 marks in a visited
position.

A position is two int masks over event ranks (ranks follow ascending
event ids): the fragment's events and its marked events.  Its edges are
implied.  A move removes exactly the edges whose two ends are marked,
and marks only grow along a play, so a fragment's edges are the chart's
edges inside it minus those between two marked events.  The solver keeps
one adjacency mask per event, built once per chart for every width
tried, and memoizes positions by their two masks.  The parts a move
yields are components by construction, so only the whole chart is split
into independent per-component subgames.

Two shortcuts leave the first winning move of every position, and so
every width and every transcript, as the plain search has them:

- A move needs every chosen event to remove an edge.  If a chosen event
  v removes none, the move without v removes the same edges and gives
  the same parts, with v unmarked.  A part with one mark fewer wins
  whenever it wins with the mark, since its player can add v to the next
  move.  The move without v has one event fewer, so the search, which
  tries smaller moves first, has already tried it and found it losing.
- The fragment is connected before the move, so it splits only if the
  ends of the removed edges fall apart.  A fill from one end that stops
  once it holds them all rules that out; the full split into components
  runs only when the fill does not reach every end.

This keeps the search tractable for the desk-scale inputs this targets
(roughly 20 events).  The memo table lives inside one evaluation;
distinct evaluations can run concurrently.
"""

from __future__ import annotations

from itertools import combinations

from . import graph
from .core import Msc, MscError, require_valid

DEFAULT_GAME_BOUND = 20


class GameSizeError(MscError):
    pass


class _Solver:
    """The game on one chart: the adjacency masks are built once, and
    :meth:`wins` plays it at one width, with a memo table of its own."""

    def __init__(self, msc: Msc):
        self.events = sorted(msc.events)
        rank = {e: i for i, e in enumerate(self.events)}
        self.adj = [0] * len(self.events)
        for a, b in msc.succ_edges | msc.msg_edges:
            self.adj[rank[a]] |= 1 << rank[b]
            self.adj[rank[b]] |= 1 << rank[a]
        self.all = (1 << len(self.events)) - 1
        self.roots = self.components(self.all, 0)
        self.budget = 0
        self.memo: dict[tuple[int, int], bool] = {}
        # position -> (marks after the move, the parts it splits into)
        self.plan: dict[tuple[int, int], tuple[int, tuple[tuple[int, int], ...]]] = {}

    def ids(self, mask: int) -> list[int]:
        return [self.events[v] for v in graph.bits_of(mask)]

    def components(self, nodes: int, marked: int) -> list[int]:
        """The components of the fragment, in order of their lowest event."""
        adj = self.adj
        # a marked event keeps its edges to unmarked events only
        unmarked = nodes & ~marked
        comps = []
        rest = nodes
        while rest:
            comp = todo = rest & -rest
            while todo:
                low = todo & -todo
                todo ^= low
                near = adj[low.bit_length() - 1] & (unmarked if low & marked else nodes) & ~comp
                comp |= near
                todo |= near
            comps.append(comp)
            rest &= ~comp
        return comps

    def joined(self, nodes: int, marked: int, ends: int) -> bool:
        """Whether the events of `ends` lie in one component of the
        fragment: a fill from the lowest of them that stops once it holds
        them all."""
        adj = self.adj
        unmarked = nodes & ~marked
        comp = todo = ends & -ends
        while todo:
            low = todo & -todo
            todo ^= low
            near = adj[low.bit_length() - 1] & (unmarked if low & marked else nodes) & ~comp
            if near:
                comp |= near
                if not ends & ~comp:
                    return True
                todo |= near
        return False

    def wins(self, k: int) -> bool:
        """The marking player wins at width k.  Disconnected charts are
        equivalent to playing each component separately; splitting them
        off costs no marks."""
        self.budget = k + 1
        self.memo = {}
        self.plan = {}
        return all(self.win(c, 0) for c in self.roots)

    def win(self, nodes: int, marked: int) -> bool:
        """The marking player wins on a connected fragment."""
        if marked == nodes:
            return True
        key = (nodes, marked)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = False  # cycle guard; positions only shrink, so safe
        result = self.memo[key] = self._search(nodes, marked, key)
        return result

    def _search(self, nodes: int, marked: int, key: tuple[int, int]) -> bool:
        free = self.budget - marked.bit_count()
        unmarked = graph.bits_of(nodes & ~marked)
        if len(unmarked) <= free:
            # mark everything at once: terminal position
            self.plan[key] = (nodes, ())
            return True
        adj = self.adj
        # try extending the marking, smallest extensions first; every
        # chosen event must remove an edge (see the module docstring)
        for extra in range(1, free + 1):
            for chosen in combinations(unmarked, extra):
                new_marked = marked
                for v in chosen:
                    new_marked |= 1 << v
                held = nodes & new_marked
                ends = 0
                for v in chosen:
                    near = adj[v] & held
                    if not near:
                        break
                    ends |= near | 1 << v
                else:
                    # the fragment was connected: it splits only if the
                    # ends of the removed edges fall apart
                    if self.joined(nodes, new_marked, ends):
                        continue
                    parts = tuple((c, new_marked & c) for c in self.components(nodes, new_marked))
                    if all(self.win(*part) for part in parts):
                        self.plan[key] = (new_marked, parts)
                        return True
        return False


def _solver(msc: Msc, game_bound: int) -> _Solver:
    require_valid(msc)
    if len(msc.events) > game_bound:
        raise GameSizeError(f"{len(msc.events)} events exceed the game bound {game_bound}")
    return _Solver(msc)


def stw_at_most(msc: Msc, k: int, game_bound: int = DEFAULT_GAME_BOUND) -> bool:
    """Decide whether the marking player wins the width-k decomposition
    game on the MSC."""
    solver = _solver(msc, game_bound)
    if k < 0:
        return not msc.events
    return solver.wins(k)


def special_treewidth(
    msc: Msc, max_k: int, game_bound: int = DEFAULT_GAME_BOUND
) -> int | None:
    """The least k <= max_k with :func:`stw_at_most`, or None beyond it.
    The chart is validated and its adjacency built once for all k."""
    solver = _solver(msc, game_bound)
    return next((k for k in range(max_k + 1) if solver.wins(k)), None)


def strategy_transcript(msc: Msc, k: int, game_bound: int = DEFAULT_GAME_BOUND) -> str | None:
    """A textual trace of one winning strategy, or None if k is too small."""
    solver = _solver(msc, game_bound)
    if not solver.wins(k):
        return None
    ids = solver.ids
    lines = [f"winning strategy with at most {k + 1} marks:"]

    def describe(nodes: int, marked: int, depth: int) -> None:
        pad = "  " * depth
        if marked == nodes:
            lines.append(f"{pad}fragment {ids(nodes)} fully marked: done")
            return
        new_marked, parts = solver.plan[(nodes, marked)]
        newly = ids(new_marked & ~marked)
        if not parts:
            lines.append(f"{pad}mark {newly}: all of {ids(nodes)} marked, done")
            return
        lines.append(
            f"{pad}mark {newly} (marked now {ids(new_marked)}), remove marked-marked edges, split:"
        )
        for part_nodes, part_marked in parts:
            lines.append(f"{pad}  part {ids(part_nodes)}")
            describe(part_nodes, part_marked, depth + 2)

    if len(solver.roots) > 1:
        lines.append(f"  fragment {ids(solver.all)} is disconnected; play components separately")
        for c in solver.roots:
            describe(c, 0, 2)
    else:
        describe(solver.all, 0, 1)
    return "\n".join(lines) + "\n"

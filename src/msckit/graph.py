"""
Digraph algorithms shared by the relational checks.

A digraph is given as adjacency: a dict mapping every node to its
successors (a list or a set), with every successor also a key.  Node ids are
integers; wherever a choice is made, the smaller id goes first, so every
result is deterministic.
"""

from __future__ import annotations

import heapq
from typing import Collection, Iterable, Mapping

Adjacency = Mapping[int, Collection[int]]


def sccs(adj: Adjacency) -> list[list[int]]:
    """Strongly connected components by iterative Tarjan, roots and
    successors visited in ascending order.  Each component is sorted, and
    a component comes after every component it reaches."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    for root in sorted(adj):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(adj[root])))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(sorted(comp))
    return out


def reach_bits(
    adj: Adjacency, reflexive: bool = False, comps: Iterable[Collection[int]] | None = None
) -> dict[int, int]:
    """For every node, the nodes reachable along one or more edges, as a
    bitset (bit n for node n); with `reflexive`, the node itself too.  In
    the strict form a node reaches itself only when it lies on a cycle.

    Accumulated over the strongly connected components, each after all
    the components it reaches (those of :func:`sccs`, or `comps` when
    the caller has them, such as one node each in reverse topological
    order), so each edge costs one integer OR.  Every member of a cyclic
    component is the target of an edge inside it, so cycles need no
    special case."""
    rows: dict[int, int] = {}
    for comp in sccs(adj) if comps is None else comps:
        acc = 0
        for v in comp:
            for w in adj[v]:
                acc |= rows.get(w, 0) | 1 << w  # no row yet: w is in comp
            if reflexive:
                acc |= 1 << v
        for v in comp:
            rows[v] = acc
    return rows


def bits_of(row: int) -> list[int]:
    """The positions of the set bits of `row`, ascending."""
    return [i for i, c in enumerate(reversed(bin(row))) if c == "1"]


def order(adj: Adjacency) -> tuple[tuple[int, ...], None] | tuple[None, tuple[int, ...]]:
    """The topological order and None when the digraph is acyclic, else
    None and a minimal-length cycle as a node tuple with first == last.

    Kahn's algorithm, smallest ready id first, gives the order.  The
    nodes it leaves unordered hold every cycle and everything the
    cycles reach.  If one of them has a self-loop, the cycle is (s, s)
    for the least such s.  Otherwise a breadth-first search runs from
    each member of a strongly connected component of two or more nodes,
    in ascending order, successors in ascending order, keeping the first
    shortest cycle found.  A search stays inside its start's component:
    a cycle through the start lies in it, and no node outside it leads
    back.  The cycle is the one a search from every leftover node over
    all edges would find."""
    indeg = dict.fromkeys(adj, 0)
    for succs in adj.values():
        for m in succs:
            indeg[m] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    done = []
    while ready:
        n = heapq.heappop(ready)
        done.append(n)
        for m in adj[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(done) == len(adj):
        return tuple(done), None
    left = set(adj).difference(done)  # closed under successors
    loop = min((n for n in left if n in adj[n]), default=None)
    if loop is not None:
        return None, (loop, loop)
    inner: dict[int, list[int]] = {}  # successors inside the node's component
    for comp in sccs({n: adj[n] for n in left}):
        if len(comp) > 1:
            members = set(comp)
            for n in comp:
                inner[n] = sorted(members.intersection(adj[n]))
    best: list[int] | None = None
    for start in sorted(inner):
        parent: dict[int, int] = {}
        frontier = [start]
        depth = 0
        found = None
        while frontier and found is None:
            depth += 1
            if best is not None and depth >= len(best) - 1:
                break  # a cycle found now would be no shorter
            nxt = []
            for n in frontier:
                for m in inner[n]:
                    if m == start:
                        found = n
                        break
                    if m not in parent:
                        parent[m] = n
                        nxt.append(m)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            path = [found]
            while path[-1] != start:
                path.append(parent[path[-1]])
            best = path[::-1] + [start]
    return None, tuple(best)

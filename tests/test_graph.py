"""The graph layer against slow references on seeded random digraphs.

The references are the earlier, direct implementations: a fixpoint
transitive closure and a breadth-first cycle search from every node.
"""

import random

import pytest

from msckit import graph, relations
from msckit.core import RelationGraph


def closure_reference(nodes, edges, reflexive=False):
    """Transitive closure by iterating to a fixpoint."""
    succ = {n: set() for n in nodes}
    for a, b in edges:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in succ:
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    out = {(a, b) for a, bs in succ.items() for b in bs}
    if reflexive:
        out |= {(n, n) for n in nodes}
    return out


def find_cycle_reference(nodes, edges):
    """A minimal-length cycle (first == last) by breadth-first search from
    every node in ascending order, successors in ascending order; None if
    acyclic."""
    adj = {n: [] for n in nodes}
    for a, b in sorted(edges):
        adj[a].append(b)
    best = None
    for start in sorted(nodes):
        parent = {}
        frontier = [start]
        depth = 0
        found = None
        while frontier and found is None:
            depth += 1
            if best is not None and depth >= len(best):
                break
            nxt = []
            for n in frontier:
                for m in adj[n]:
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
                path.append(parent[path[-1]] if path[-1] in parent else start)
            path.reverse()
            cycle = path + [start]
            if best is None or len(cycle) < len(best):
                best = cycle
    return best


def topo_reference(nodes, edges):
    """Repeatedly take the least node whose predecessors are all taken;
    None if some node never qualifies."""
    preds = {n: {a for a, b in edges if b == n} for n in nodes}
    order, taken = [], set()
    while len(order) < len(nodes):
        ready = [n for n in nodes if n not in taken and preds[n] <= taken]
        if not ready:
            return None
        order.append(min(ready))
        taken.add(order[-1])
    return order


def random_digraphs(seed, count=150):
    """Digraphs of 0-40 nodes with sparse ids, in turn: acyclic (edges go
    up), without self-loops, and with self-loops."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 40)
        nodes = sorted(rng.sample(range(100), n))
        m = rng.randint(0, 3 * n) if n else 0
        edges = set()
        for _ in range(m):
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a == b and i % 3 != 2:
                continue
            edges.add((min(a, b), max(a, b)) if i % 3 == 0 else (a, b))
        yield nodes, edges


def adjacency(nodes, edges):
    """Successor lists in descending order: results may not depend on it."""
    adj = RelationGraph.of(nodes, edges).adjacency()
    for succs in adj.values():
        succs.sort(reverse=True)
    return adj


@pytest.mark.parametrize("reflexive", [False, True])
def test_reach_and_closure_match_fixpoint(reflexive):
    for nodes, edges in random_digraphs(1):
        want = closure_reference(nodes, edges, reflexive)
        reach = graph.reach(adjacency(nodes, edges), reflexive=reflexive)
        assert {(a, b) for a, bs in reach.items() for b in bs} == want
        closed = relations.transitive_closure(RelationGraph.of(nodes, edges), reflexive)
        assert closed.edges == want and closed.nodes == frozenset(nodes)


def test_reach_bits_matches_reach():
    cyclic = 0
    for nodes, edges in random_digraphs(5):
        adj = adjacency(nodes, edges)
        reach = graph.reach(adj)
        rows = graph.reach_bits(adj)
        assert rows.keys() == reach.keys()
        assert all(graph.bits_of(rows[n]) == sorted(reach[n]) for n in nodes)
        cyclic += any(n in reach[n] for n in nodes)
    assert 20 < cyclic < 130


def test_order_is_ascending_kahn_or_all_starts_cycle():
    cyclic = 0
    for seed in (2, 3):
        for nodes, edges in random_digraphs(seed):
            topo = topo_reference(nodes, edges)
            cycle = find_cycle_reference(nodes, edges)
            assert graph.order(adjacency(nodes, edges)) == (
                None if topo is None else tuple(topo),
                None if cycle is None else tuple(cycle),
            )
            assert (topo is None) == (cycle is not None)
            assert (cycle is None) == all(
                (n, n) not in closure_reference(nodes, edges) for n in nodes
            )
            cyclic += cycle is not None
    assert 40 < cyclic < 260  # both sides are exercised


def test_sccs_are_mutual_reachability_classes():
    for nodes, edges in random_digraphs(4):
        reach = closure_reference(nodes, edges, reflexive=True)
        comps = graph.sccs(adjacency(nodes, edges))
        want = {frozenset(b for b in nodes if (a, b) in reach and (b, a) in reach) for a in nodes}
        assert {frozenset(c) for c in comps} == want
        assert all(c == sorted(c) for c in comps)
        assert sum(map(len, comps)) == len(nodes)
        # a component comes after every component it reaches
        index = {n: i for i, c in enumerate(comps) for n in c}
        assert all(index[a] >= index[b] for a, b in reach)

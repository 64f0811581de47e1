"""The graph layer against slow references on seeded random digraphs.

The references are the earlier, direct implementations: a fixpoint
transitive closure and a breadth-first cycle search from every node.
"""

import random

import pytest

from conftest import network_chart, random_msc
from msckit import core, graph, network, relations
from msckit.bounded import exists_k_bounded
from msckit.classify import classify
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


def confined_digraphs(seed, count=40):
    """Digraphs whose cycles sit in a few strongly connected components,
    in turn:

    0. cyclic components (a ring plus chords) joined by one-way bridges;
    1. one cyclic component at ids 100-139, reached from nodes on no
       cycle at lower ids, and reaching a few nodes at higher ids;
    2. a self-loop at a higher id than a 2-cycle, amid acyclic edges;
    3. dense, closure-like digraphs of 60-120 nodes: edges going up with
       high probability, closed transitively in every other graph, and
       one to three edges going down from the end of a walk up (two or
       more steps) to its start, in the open graphs in place of any edge
       going straight up between the two."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            ids = rng.sample(range(200), rng.randint(6, 40))
            cut = sorted(rng.sample(range(1, len(ids)), rng.randint(1, min(4, len(ids) - 1))))
            comps = [ids[a:b] for a, b in zip([0] + cut, cut + [len(ids)])]
            edges = set()
            for comp in comps:
                if len(comp) > 1:
                    edges |= set(zip(comp, comp[1:] + comp[:1]))
                for _ in range(len(comp) // 2):
                    a, b = rng.choice(comp), rng.choice(comp)
                    if a != b:
                        edges.add((a, b))
            for x, y in zip(comps, comps[1:]):  # bridges run one way only
                for _ in range(rng.randint(1, 3)):
                    edges.add((rng.choice(x), rng.choice(y)))
        elif kind == 1:
            cycle = rng.sample(range(100, 140), rng.randint(2, 8))
            edges = set(zip(cycle, cycle[1:] + cycle[:1]))
            tails = rng.sample(range(100), rng.randint(1, 15))
            for j, t in enumerate(tails):
                edges.add((t, rng.choice(cycle + tails[j + 1 :])))
            ids = cycle + tails + rng.sample(range(140, 160), rng.randint(0, 5))
            for d in ids[len(cycle) + len(tails) :]:  # reached from the cycle
                edges.add((rng.choice(cycle), d))
        elif kind == 2:
            ids = sorted(rng.sample(range(60), rng.randint(4, 20)))
            a, b = sorted(rng.sample(ids[:-1], 2))
            loop = rng.choice([n for n in ids if n > b])
            edges = {(a, b), (b, a), (loop, loop)}
            for _ in range(len(ids)):
                x, y = sorted(rng.sample(ids, 2))
                edges.add((x, y))
        else:
            ids = sorted(rng.sample(range(300), rng.randint(60, 120)))
            p = rng.uniform(0.2, 0.6)
            edges = {(x, y) for j, x in enumerate(ids) for y in ids[j + 1 :] if rng.random() < p}
            closed = i % 8 == 3
            if closed:
                edges = closure_reference(ids, edges)
            downs = rng.randint(1, 3)
            while downs:  # down along a random walk up of two or more steps
                walk = [rng.choice(ids)]
                for _ in range(rng.randint(2, 8)):
                    up = [b for a, b in edges if a == walk[-1]]
                    if up:
                        walk.append(rng.choice(up))
                if len(walk) > 2:
                    edges.add((walk[-1], walk[0]))
                    if not closed:
                        edges.discard((walk[0], walk[-1]))
                    downs -= 1
        yield sorted(ids), edges


def adjacency(nodes, edges):
    """Successor lists in descending order: results may not depend on it."""
    adj = RelationGraph.of(nodes, edges).adjacency()
    for succs in adj.values():
        succs.sort(reverse=True)
    return adj


@pytest.mark.parametrize("reflexive", [False, True])
def test_reach_and_closure_match_fixpoint(reflexive):
    cyclic = 0
    for seed in (1, 5):
        for nodes, edges in random_digraphs(seed):
            want = closure_reference(nodes, edges, reflexive)
            adj = adjacency(nodes, edges)
            rows = graph.reach_bits(adj, reflexive)
            assert rows.keys() == set(nodes)
            assert {(a, b) for a, row in rows.items() for b in graph.bits_of(row)} == want
            closed = relations.transitive_closure(RelationGraph.of(nodes, edges), reflexive)
            assert closed.edges == want and closed.nodes == frozenset(nodes)
            topo = graph.order(adj)[0]
            if topo is not None:
                # given components: one node each, in reverse topological order
                assert graph.reach_bits(adj, reflexive, ((n,) for n in reversed(topo))) == rows
            elif seed == 5:
                cyclic += 1
    assert 20 < cyclic < 130


def test_hb_reach_rows_match_fixpoint():
    """Happens-before rows against the fixpoint closure of process
    succession and matching on valid charts, among them prefixes that
    keep sparse event ids and concatenations."""
    rng = random.Random(25)
    charts = [random_msc(rng, max_events=14, procs=("p", "q", "r", "s")) for _ in range(120)]
    for kind in ("p2p", "mb", "onen", "nn"):
        for _ in range(10):
            charts.append(network_chart(rng, kind, rng.randint(20, 60), ("p", "q", "r")))
    for m in charts[:40]:
        # the happens-before down-closure of a random set of events
        keep = {f for e in rng.sample(m.events, len(m.events) // 2) for f in m.events if m.hb(f, e)}
        charts.append(core.prefix(m, keep))
    charts += [core.concatenate(a, b) for a, b in zip(charts[:40], charts[40:80])]
    sparse = 0
    for m in charts:
        assert core.validate(m).ok
        want = closure_reference(m.events, m.succ_edges | m.msg_edges, reflexive=True)
        assert {(a, b) for a, row in m.hb_reach.items() for b in graph.bits_of(row)} == want
        assert m.hb_reach.keys() == set(m.events)
        sparse += m.events != tuple(range(len(m.events)))
    assert sparse > 20
def test_order_is_ascending_kahn_or_all_starts_cycle():
    cyclic = 0
    for seed in (2, 3):
        for nodes, edges in random_digraphs(seed):
            topo, cycle = assert_order_matches_references(nodes, edges)
            assert (topo is None) == (cycle is not None)
            assert (cycle is None) == all(
                (n, n) not in closure_reference(nodes, edges) for n in nodes
            )
            cyclic += cycle is not None
    assert 40 < cyclic < 260  # both sides are exercised


def assert_order_matches_references(nodes, edges):
    topo = topo_reference(nodes, edges)
    cycle = find_cycle_reference(nodes, edges)
    got = graph.order(adjacency(nodes, edges))
    assert got == (
        None if topo is None else tuple(topo),
        None if cycle is None else tuple(cycle),
    )
    return got


def test_order_confined_to_components_matches_all_starts_search():
    """The cycle search starts only on cyclic components and stays inside
    them, yet finds the cycle of the search from every leftover node."""
    lengths = {kind: set() for kind in range(4)}
    for seed in (6, 7):
        for i, (nodes, edges) in enumerate(confined_digraphs(seed)):
            cycle = assert_order_matches_references(nodes, edges)[1]
            assert cycle is not None
            lengths[i % 4].add(len(cycle) - 1)
            if i % 4 == 2:  # the self-loop wins over the lower 2-cycle
                assert cycle[0] == cycle[1]
    assert lengths[2] == {1}
    assert len(lengths[0]) > 2 and len(lengths[1]) > 2 and len(lengths[3]) > 1


def test_order_matches_references_at_workload_scale(monkeypatch):
    """Every graph.order call that classify and exists_k_bounded make on
    charts of 60-120 events gives the references' answer."""
    calls = []
    real = graph.order

    def recording(adj):
        nodes = sorted(adj)
        edges = {(a, b) for a in adj for b in adj[a]}
        result = real(adj)
        calls.append((nodes, edges, result))
        return result

    monkeypatch.setattr(graph, "order", recording)
    rng = random.Random(8)
    kinds = (None,) + network.KINDS  # None: a bag chart
    for i in range(20):
        procs = ("p", "q", "r", "s")[: 2 + i % 3]
        kind = kinds[i % len(kinds)]
        if kind is None:
            chart = random_msc(rng, max_events=120, procs=procs, min_events=60)
        else:
            chart = network_chart(rng, kind, rng.randint(60, 120), procs)
        report = classify(chart)
        for model in ("asy", "p2p") if report.verdicts["p2p"] else ("asy",):
            for k in (1, 2):
                exists_k_bounded(chart, k, model)
    monkeypatch.undo()
    cyclic = 0
    for nodes, edges, result in calls:
        assert result == assert_order_matches_references(nodes, edges)
        cyclic += result[1] is not None
    assert 0 < cyclic < len(calls)


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

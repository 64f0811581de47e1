import random
from itertools import combinations

import pytest

from conftest import channel_chain, random_msc
from msckit import graph, stw
from msckit.core import EMPTY_MSC, prefix, hb_prefixes, validate
from msckit.corpus import EXAMPLES, example
from msckit.stw import GameSizeError, _Solver, special_treewidth, strategy_transcript, stw_at_most


def chart_edges(msc):
    return frozenset(frozenset(e) for e in msc.succ_edges | msc.msg_edges)


def components(nodes, edges):
    """The components of an explicit edge set, in order of their lowest node."""
    adj = {n: set() for n in nodes}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for s in sorted(nodes):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        seen.add(s)
        while stack:
            n = stack.pop()
            for m in adj[n]:
                if m not in seen:
                    seen.add(m)
                    comp.add(m)
                    stack.append(m)
        comps.append(frozenset(comp))
    return comps


def reference_stw_at_most(msc, k):
    """Literal rules, no shortcuts: try every marking, every removal set
    of marked-marked edges, and every bipartition of the components."""
    budget = k + 1
    edges0 = chart_edges(msc)
    memo = {}

    def win(nodes, edges, marked):
        if marked == nodes:
            return True
        key = (nodes, edges, marked)
        if key in memo:
            return memo[key]
        memo[key] = False
        unmarked = sorted(nodes - marked)
        result = False
        for extra in range(budget - len(marked) + 1):
            if result:
                break
            for chosen in combinations(unmarked, extra):
                mk = marked | set(chosen)
                if mk == nodes:
                    result = True
                    break
                removable = sorted(e for e in edges if e <= mk)
                for drop in range(len(removable) + 1):
                    if result:
                        break
                    for fs in combinations(removable, drop):
                        left = edges - set(fs)
                        comps = components(nodes, left)
                        if len(comps) < 2:
                            continue
                        for cut in range(1, len(comps)):
                            for half in combinations(range(len(comps)), cut):
                                a_nodes = frozenset().union(*(comps[i] for i in half))
                                b_nodes = nodes - a_nodes
                                ok = win(
                                    a_nodes,
                                    frozenset(e for e in left if e <= a_nodes),
                                    mk & a_nodes,
                                ) and win(
                                    b_nodes,
                                    frozenset(e for e in left if e <= b_nodes),
                                    mk & b_nodes,
                                )
                                if ok:
                                    result = True
                                    break
                            if result:
                                break
                        if result:
                            break
        memo[key] = result
        return result

    if k < 0:
        return not msc.events
    return win(frozenset(msc.events), edges0, frozenset())


def test_overtake_three_winning():
    assert stw_at_most(example("overtake"), 3)


def test_empty_width_zero():
    assert special_treewidth(EMPTY_MSC, 3) == 0


def test_single_message_width_one():
    m = channel_chain(1)
    assert not stw_at_most(m, 0)
    assert stw_at_most(m, 1)
    assert special_treewidth(m, 3) == 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_channel_chains_within_three(n):
    assert stw_at_most(channel_chain(n), 3)


def test_monotone_in_k():
    for name in ("relay", "overtake", "two_targets", "handshake"):
        m = example(name)
        width = special_treewidth(m, 6)
        assert width is not None
        for k in range(width, 5):
            assert stw_at_most(m, k)
        for k in range(width):
            assert not stw_at_most(m, k)


def test_game_bound():
    with pytest.raises(GameSizeError):
        stw_at_most(example("producer"), 2, game_bound=10)


def test_strategy_transcript():
    transcript = strategy_transcript(example("overtake"), 3)
    assert transcript is not None
    assert "mark" in transcript and "split" in transcript
    assert strategy_transcript(channel_chain(1), 0) is None


def seeded_charts(seed, count, lo, hi):
    """count random charts of lo..hi events on 2-4 processes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        procs = ("p", "q", "r", "s")[: rng.randint(2, 4)]
        m = random_msc(rng, max_events=hi, procs=procs)
        if len(m.events) >= lo:
            out.append(m)
    return out


def test_solver_matches_literal_reference():
    rng = random.Random(42)
    cases = [random_msc(rng, max_events=5) for _ in range(25)]
    cases += [example("handshake"), example("blocked"), example("fanout"), channel_chain(2)]
    cases += seeded_charts(43, 120, 6, 8)
    for m in cases:
        for k in (0, 1, 2, 3):
            assert stw_at_most(m, k) == reference_stw_at_most(m, k), (m.canonical(), k)


def check_plan(msc, k):
    """Replay the solver's winning plan at width k move by move on explicit
    edge sets, independently of the solver's masks; return the moves seen."""
    solver = _Solver(msc)
    assert solver.wins(k)
    rank = {e: i for i, e in enumerate(solver.events)}

    def ids(mask):
        return frozenset(e for e, i in rank.items() if mask >> i & 1)

    def mask(events):
        return sum(1 << rank[e] for e in events)

    moves = 0

    def replay(nodes, edges, marked):
        nonlocal moves
        if marked == nodes:
            return  # a leaf: fully marked
        new_marked, parts = solver.plan[(mask(nodes), mask(marked))]
        now = ids(new_marked)
        moves += 1
        assert marked <= now <= nodes
        assert len(now) <= k + 1
        if not parts:
            assert now == nodes  # the move marks the whole fragment: a leaf
            return
        removed = frozenset(e for e in edges if e <= now)
        assert removed, "the move removes no marked-marked edge"
        left = edges - removed
        want = [(c, now & c) for c in components(nodes, left)]
        assert len(want) >= 2
        assert [(ids(c), ids(m)) for c, m in parts] == want
        for c, m in want:
            replay(c, frozenset(e for e in left if e <= c), m)

    edges = chart_edges(msc)
    roots = components(frozenset(msc.events), edges)
    assert [ids(c) for c in solver.roots] == roots
    for c in roots:
        replay(c, frozenset(e for e in edges if e <= c), frozenset())
    return moves


def test_plan_replays_on_corpus():
    for name in EXAMPLES:
        m = example(name)
        width = special_treewidth(m, 6)
        for k in range(width, width + 2):
            check_plan(m, k)


def test_plan_replays_on_seeded_charts():
    moves = 0
    for m in seeded_charts(44, 40, 6, 16) + [channel_chain(n) for n in (1, 3, 6)]:
        width = special_treewidth(m, 6)
        for k in range(width, width + 2):
            moves += check_plan(m, k)
    assert moves > 100


def first_move_reference(solver, nodes, marked, key):
    """The solver's search before its two shortcuts, kept as the
    reference: a move needs only one chosen event to remove an edge, and
    every move is split in full.  Same move order, same plans."""
    free = solver.budget - marked.bit_count()
    unmarked = graph.bits_of(nodes & ~marked)
    if len(unmarked) <= free:
        solver.plan[key] = (nodes, ())
        return True
    adj = solver.adj
    for extra in range(1, free + 1):
        for chosen in combinations(unmarked, extra):
            new_marked = marked
            for v in chosen:
                new_marked |= 1 << v
            held = nodes & new_marked
            if not any(adj[v] & held for v in chosen):
                continue
            comps = solver.components(nodes, new_marked)
            if len(comps) < 2:
                continue
            parts = tuple((c, new_marked & c) for c in comps)
            if all(solver.win(*part) for part in parts):
                solver.plan[key] = (new_marked, parts)
                return True
    return False


class FirstMoveReference(_Solver):
    _search = first_move_reference


def test_search_matches_first_move_reference(monkeypatch):
    """Skipping dominated moves and unsplittable fills changes no width and
    no transcript: the first winning move is the same in every position."""
    charts = seeded_charts(45, 300, 8, 16)

    def outputs():
        return [
            (special_treewidth(m, 4), [strategy_transcript(m, k) for k in range(5)])
            for m in charts
        ]

    fast = outputs()
    monkeypatch.setattr(stw, "_Solver", FirstMoveReference)
    reference = outputs()
    for m, got, want in zip(charts, fast, reference):
        assert got == want, m.canonical()
    assert {w for w, _ in fast} >= {2, 3, 4}


def test_hb_prefixes_never_wider():
    # empirical: restriction cannot increase the width
    rng = random.Random(41)
    for _ in range(25):
        m = random_msc(rng, max_events=6)
        whole = special_treewidth(m, 6)
        assert whole is not None
        for keep in hb_prefixes(m):
            if len(keep) in (0, len(m.events)):
                continue
            part = prefix(m, keep, "hb")
            assert validate(part).ok
            w = special_treewidth(part, 6)
            assert w is not None and w <= whole

import itertools
import random

import pytest

from conftest import NN_GAP_CHARTS, random_msc
from msckit import relations
from msckit.core import Msc, MscError, RelationGraph, happens_before, send, recv
from msckit.corpus import EXAMPLES, example


def test_transitive_closure_chain():
    r = RelationGraph.of([1, 2, 3], [(1, 2), (2, 3)])
    closed = relations.transitive_closure(r)
    assert (1, 3) in closed.edges


def test_relation_graph_is_immutable():
    r = RelationGraph.of([1, 2], [(1, 2)])
    held = {r}
    for name in ("nodes", "_succ", "_cache", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, frozenset())
    assert r.nodes == {1, 2} and r in held


def test_transitive_closure_idempotent():
    rng = random.Random(1)
    for _ in range(30):
        nodes = range(6)
        edges = {(rng.randrange(6), rng.randrange(6)) for _ in range(8)}
        once = relations.transitive_closure(RelationGraph.of(nodes, edges))
        twice = relations.transitive_closure(once)
        assert once.edges == twice.edges


def test_closure_of_generators_is_happens_before():
    rng = random.Random(2)
    for _ in range(40):
        m = random_msc(rng, max_events=7)
        if not m.events:
            continue
        from msckit.core import validate

        if not validate(m).ok:
            continue
        closed = relations.transitive_closure(
            RelationGraph.of(m.events, m.succ_edges | m.msg_edges), reflexive=True
        )
        assert closed.edges == happens_before(m).edges


def test_is_acyclic_empty():
    assert RelationGraph.of([], []).order == ((), None)


def test_is_acyclic_hb_strict():
    m = example("pipeline")
    strict = {(a, b) for a, b in happens_before(m).edges if a != b}
    assert RelationGraph.of(m.events, strict).order[1] is None


def test_mb_rel_mailbox_cross():
    # !4 and !1 target s, !2 and !3 target q; receives order them
    m = example("mailbox_cross")
    assert relations.mb_rel(m).edges == {(5, 0), (1, 4)}


def test_mb_cycle_mailbox_cross():
    order, cycle = relations.mb_generators(example("mailbox_cross")).order
    assert order is None
    assert cycle == (0, 1, 4, 5, 0)  # !1 -> !2 mb !3 -> !4 mb !1


def test_mb_rel_no_common_receiver():
    m = example("lost_elsewhere")
    assert relations.mb_rel(m).edges == frozenset()


def test_mb_rel_blocked_matched_beats_unmatched():
    m = example("blocked")
    assert relations.mb_rel(m).edges == {(1, 0)}


def test_mb_partial_two_targets_acyclic():
    assert relations.mb_generators(example("two_targets")).order[1] is None


def test_mb_partial_empty_msc():
    from msckit.core import EMPTY_MSC

    assert relations.mb_partial(EMPTY_MSC).edges == frozenset()


def test_onen_cycle_overtake():
    assert relations.onen_generators(example("overtake")).order[0] is None


def test_onen_two_targets_acyclic_with_witness():
    m = example("two_targets")
    assert relations.onen_generators(m).order[1] is None
    from msckit.classify import check_linearization

    # !1 !2 !3 ?1 ?2 ?3 from the text
    assert check_linearization(m, (0, 1, 4, 5, 2, 3), "onen")


def test_onen_rel_empty_when_single_sends():
    m = example("relay")  # every process sends at most one message
    assert relations.onen_rel(m).edges == frozenset()


def test_bowtie_pipeline_acyclic():
    assert relations.nn_bowtie(example("pipeline")).order[1] is None


def test_bowtie_late_receive_cyclic():
    order, cycle = relations.nn_bowtie(example("late_receive")).order
    assert order is None and cycle


def test_bowtie_single_message():
    m = Msc(("p", "q"), {0: send("p", "q", "m"), 1: recv("p", "q", "m")}, {"p": (0,), "q": (1,)}, {0: 1})
    assert relations.nn_bowtie(m).edges == {(0, 1)}


def test_relb_train_k2():
    assert relations.relb(example("train"), 2).edges == {(3, 2)}


def test_relb_few_sends_empty():
    assert relations.relb(example("relay"), 2).edges == frozenset()


def test_relb_producer_k1_channel_windows():
    m = example("producer")
    got = relations.relb(m, 1).edges
    sends = relations.channel_sends(m)
    recvs = relations.channel_receives(m)
    expected = set()
    for ch, rs in recvs.items():
        for i, r in enumerate(rs):
            if i + 1 < len(sends[ch]):
                expected.add((r, sends[ch][i + 1]))
    assert got == expected and len(got) == 5


def test_relb_requires_p2p():
    with pytest.raises(relations.NotP2pError):
        relations.relb(example("crossing"), 1)


def test_relb_asy_train_k2():
    assert relations.relb_asy(example("train"), 2).edges == {(3, 2)}


def test_relb_asy_all_unmatched_empty():
    m = Msc(
        ("p", "q"),
        {0: send("p", "q", "a"), 1: send("p", "q", "b")},
        {"p": (0, 1)},
        {},
    )
    assert relations.relb_asy(m, 1).edges == frozenset()


def test_relb_asy_matches_relb_verdicts_on_random_p2p():
    # acyclicity of hb + window agrees between the FIFO-indexed and the
    # order-free constructions on p2p instances
    from msckit.classify import is_p2p

    rng = random.Random(3)
    checked = 0
    while checked < 60:
        m = random_msc(rng, max_events=6)
        if not m.events or not is_p2p(m)[0]:
            continue
        checked += 1
        hb = {(a, b) for a, b in happens_before(m).edges if a != b}
        for k in (1, 2, 3):
            a = RelationGraph.of(m.events, hb | relations.relb(m, k).edges).order[1]
            b = RelationGraph.of(m.events, hb | relations.relb_asy(m, k).edges).order[1]
            assert (a is None) == (b is None)


def relb_asy_by_subsets(msc, k):
    """Reference for the counting construction: every (k+1)-subset of a
    channel's sends, in send order, with a matched member puts its
    earliest receive before its last send."""
    edges = set()
    for ss in relations.channel_sends(msc).values():
        rpos = {s: msc.position[msc.matching[s]][1] for s in ss if s in msc.matching}
        for tup in itertools.combinations(ss, k + 1):
            matched = [s for s in tup if s in rpos]
            if matched:
                first = min(matched, key=lambda s: rpos[s])
                edges.add((msc.matching[first], tup[-1]))
    return edges


@pytest.mark.parametrize("procs", [("p", "q"), ("p", "q", "r")], ids=["2p", "3p"])
def test_relb_asy_matches_subset_enumeration(procs):
    rng = random.Random(8)
    unmatched = 0
    for _ in range(600):
        m = random_msc(rng, max_events=16, procs=procs)
        unmatched += bool(m.unmatched_sends)
        for k in range(5):
            assert set(relations.relb_asy(m, k).edges) == relb_asy_by_subsets(m, k), k
    assert unmatched > 150


def test_window_relations_memoised_per_k():
    m = example("producer")
    for fn in (relations.relb, relations.relb_asy):
        assert fn(m, 1) is fn(m, 1)
        assert fn(m, 2) is not fn(m, 1)
        assert fn(m, 2).edges != fn(m, 1).edges


def test_not_p2p_is_an_msc_error():
    assert issubclass(relations.NotP2pError, MscError)


def saturate_by_hand(msc):
    """Reference for the bitset saturation: from nn_rel, add the mirror
    and matched-before-unmatched edges, close again, and repeat until
    nothing changes or an event precedes itself.  The closed edge set,
    or None when cyclic."""
    rel = set(relations.nn_rel(msc).edges)
    while True:
        if any(a == b for a, b in rel):
            return None
        grown = set(rel)
        for s1, r1 in msc.matching.items():
            for s2, r2 in msc.matching.items():
                if (s1, s2) in rel:
                    grown.add((r1, r2))
                if (r1, r2) in rel:
                    grown.add((s1, s2))
            grown.update((s1, u) for u in msc.unmatched_sends)
        grown = set(relations.transitive_closure(RelationGraph.of(msc.events, grown)).edges)
        if grown == rel:
            return rel
        rel = grown


def saturated_edges(msc):
    """The edge set of nn_saturated's predecessor rows, or None."""
    out = relations.nn_saturated(msc)
    if out is None:
        return None
    bits, before = out
    return {
        (bits[j], bits[i]) for i, row in before.items() for j in range(len(bits)) if row >> j & 1
    }


def test_saturation_matches_plain_loop():
    # the fixpoint outgrows nn_bowtie's closure on about 1% of these
    rng = random.Random(9)
    cases = [random_msc(rng, max_events=16, procs=("p", "q", "r", "s")) for _ in range(800)]
    cases += [random_msc(rng, max_events=40, procs=("p", "q", "r", "s")) for _ in range(100)]
    cases += [example(name) for name in EXAMPLES]
    cyclic = grew = 0
    for m in cases:
        want = saturate_by_hand(m)
        assert saturated_edges(m) == want
        bowtie = relations.transitive_closure(relations.nn_bowtie(m))
        if want is None:
            cyclic += 1
            assert bowtie.order[1] is not None
        else:
            assert bowtie.order[1] is None
            assert bowtie.edges <= want
            grew += bowtie.edges != want
    assert cyclic > 50 and grew > 3


def test_saturation_adds_the_missing_send_edge():
    # p: ?m0 ?m4; q: !m0 !m1 ?m2 !m4; r: !m2 !m3(lost) ?m1.  nn_bowtie
    # lacks !m2 -> !m1, which its fixpoint has.
    from msckit.io import message_names, parse_msc

    m = parse_msc(
        "processes p q r\n"
        "message m0 q p\nmessage m1 q r\nmessage m2 r q\nmessage m3 r q lost\nmessage m4 q p\n"
        "order p ?m0 ?m4\norder q !m0 !m1 ?m2 !m4\norder r !m2 !m3 ?m1\n"
    )
    names = {name: s for s, name in message_names(m).items()}
    missing = (names["m2"], names["m1"])
    assert missing not in relations.transitive_closure(relations.nn_bowtie(m)).edges
    assert missing in saturated_edges(m)


@pytest.mark.parametrize("name", sorted(NN_GAP_CHARTS))
def test_bowtie_acyclic_where_its_fixpoint_is_not(name):
    # ⋈ acyclic does not make a chart global FIFO; its fixpoint decides
    from msckit.classify import oracle_membership
    from msckit.io import parse_msc

    m = parse_msc(NN_GAP_CHARTS[name])
    assert relations.nn_bowtie(m).order[1] is None
    assert relations.nn_saturated(m) is None
    limit = len(m.events)
    verdicts = {model: oracle_membership(m, model, limit) for model in ("mb", "onen", "nn")}
    assert verdicts == {"mb": True, "onen": True, "nn": False}


def test_hb_contained_in_partials():
    rng = random.Random(4)
    for _ in range(40):
        m = random_msc(rng, max_events=6)
        hb_strict = {(a, b) for a, b in happens_before(m).edges if a != b}
        mbp = relations.mb_partial(m).edges
        onenp = relations.onen_partial(m).edges
        nn = relations.nn_rel(m).edges
        assert hb_strict <= mbp and hb_strict <= onenp
        assert mbp <= nn and onenp <= nn


def test_receive_bowtie_implies_send_bowtie():
    rng = random.Random(5)
    for _ in range(60):
        m = random_msc(rng, max_events=7)
        bow = relations.nn_bowtie(m).edges
        for s1, r1 in m.matching.items():
            for s2, r2 in m.matching.items():
                if s1 != s2 and (r1, r2) in bow:
                    assert (s1, s2) in bow


def bowtie_by_hand(msc):
    """Independent reconstruction of the dependency relation: closure of
    all four generator families, then the three mirrored/ordering rules
    added pointwise under the not-already-related guard."""
    events = list(msc.events)
    base = set(msc.succ_edges | msc.msg_edges)
    for s1 in msc.send_events:
        for s2 in msc.send_events:
            if s1 == s2:
                continue
            a1, a2 = msc.labels[s1], msc.labels[s2]
            m1, m2 = s1 in msc.matching, s2 in msc.matching
            if a1.receiver == a2.receiver:
                if m1 and not m2:
                    base.add((s1, s2))
                if m1 and m2 and proc_before(msc, msc.matching[s1], msc.matching[s2]):
                    base.add((s1, s2))
            if a1.sender == a2.sender:
                if m1 and not m2:
                    base.add((s1, s2))
                if m1 and m2 and proc_before(msc, s1, s2):
                    base.add((msc.matching[s1], msc.matching[s2]))
    # reachability closure
    closed = set()
    adj = {e: set() for e in events}
    for a, b in base:
        adj[a].add(b)
    for start in events:
        seen, stack = set(), list(adj[start])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(adj[n])
        closed.update((start, e) for e in seen)
    out = set(closed)
    for s1, r1 in msc.matching.items():
        for s2, r2 in msc.matching.items():
            if s1 == s2:
                continue
            if (s1, s2) in closed and (r1, r2) not in closed:
                out.add((r1, r2))
            if (r1, r2) in closed and (s1, s2) not in closed:
                out.add((s1, s2))
        for u in msc.unmatched_sends:
            if (s1, u) not in closed:
                out.add((s1, u))
    return out


def test_bowtie_matches_independent_reconstruction():
    rng = random.Random(7)
    cases = [random_msc(rng, max_events=7) for _ in range(120)]
    cases += [random_msc(rng, max_events=40, procs=("p", "q", "r", "s")) for _ in range(60)]
    cases += [example(n) for n in ("pipeline", "late_receive", "handshake", "staggered")]
    for m in cases:
        assert set(relations.nn_bowtie(m).edges) == bowtie_by_hand(m)


def test_no_unmatched_mb_iff_onen():
    rng = random.Random(6)
    for _ in range(120):
        m = random_msc(rng, max_events=7)
        if m.unmatched_sends:
            continue
        a = relations.mb_generators(m).order[1]
        b = relations.onen_generators(m).order[1]
        assert (a is None) == (b is None)


def test_edgeless_union_reuses_the_generators(monkeypatch):
    # with no 1-n or mailbox edges the onen and mb generators are the
    # chart's happens-before generators, so validate's order serves both
    from msckit import graph
    from msckit.classify import membership
    from msckit.core import validate
    from msckit.io import parse_msc

    ordered = []

    def counting_order(adj):
        ordered.append(adj)
        return real_order(adj)

    real_order = graph.order
    monkeypatch.setattr(graph, "order", counting_order)
    m = parse_msc(
        "processes p q r\nmessage m0 p q\nmessage m1 r p\n"
        "order p !m0 ?m1\norder q ?m0\norder r !m1\n"
    )
    assert validate(m).ok
    assert membership(m, "onen")[0] and membership(m, "mb")[0]
    assert len(ordered) == 1
    assert not relations.onen_rel(m).edges and not relations.mb_rel(m).edges
    assert relations.onen_generators(m) is relations.mb_generators(m) is m.hb_generators


def edge_list(rel):
    """One `a b` pair per line, sorted."""
    return "\n".join(f"{a} {b}" for a, b in sorted(rel.edges))


def test_relation_dot_and_edge_list():
    m = example("blocked")
    rel = relations.mb_rel(m)
    assert "e1 -> e0" in relations.to_dot(rel, m)
    assert edge_list(rel) == "1 0"


# Pairwise references for the grouped, rank-ordered send relations and
# deciders: every pair of sends in a group is tested directly with
# proc_before / Msc.hb_strict.


def proc_before(msc, a, b):
    """a ->+ b: strictly earlier on the same process line."""
    pa, ia = msc.position[a]
    pb, ib = msc.position[b]
    return pa == pb and ia < ib


def is_p2p_pairwise(msc):
    for sends in relations.channel_sends(msc).values():
        for i, s1 in enumerate(sends):
            for s2 in sends[i + 1 :]:
                if not receives_in_order(msc, s1, s2):
                    return (False, (s1, s2))
    return (True, None)


def is_co_pairwise(msc):
    by_receiver = {}
    for s in msc.send_events:
        by_receiver.setdefault(msc.labels[s].receiver, []).append(s)
    for sends in by_receiver.values():
        for s1 in sends:
            for s2 in sends:
                if msc.hb_strict(s1, s2) and not receives_in_order(msc, s1, s2):
                    return (False, (s1, s2))
    return (True, None)


def receives_in_order(msc, s1, s2):
    if s2 not in msc.matching:
        return True
    return s1 in msc.matching and proc_before(msc, msc.matching[s1], msc.matching[s2])


def pairwise_rel(msc, group, ordered):
    """Within each group of sends: matched before unmatched, and
    ordered(s1, s2) for the matched pairs it holds on."""
    groups = {}
    for s in msc.send_events:
        groups.setdefault(group(msc.labels[s]), []).append(s)
    edges = set()
    for sends in groups.values():
        for s1 in sends:
            for s2 in sends:
                m1, m2 = s1 in msc.matching, s2 in msc.matching
                if s1 != s2 and m1 and not m2:
                    edges.add((s1, s2))
                elif s1 != s2 and m1 and m2:
                    edges |= ordered(s1, s2)
    return edges


def mb_rel_pairwise(msc):
    r = msc.matching
    return pairwise_rel(
        msc, lambda a: a.receiver, lambda s1, s2: {(s1, s2)} if proc_before(msc, r[s1], r[s2]) else set()
    )


def onen_rel_pairwise(msc):
    r = msc.matching
    return pairwise_rel(
        msc, lambda a: a.sender, lambda s1, s2: {(r[s1], r[s2])} if proc_before(msc, s1, s2) else set()
    )


def crown_pairwise(msc):
    return {
        (s1, s2)
        for s1 in msc.matched_sends
        for s2 in msc.matched_sends
        if s1 != s2 and msc.hb_strict(s1, msc.matching[s2])
    }


def rsc_greedy(msc):
    """Pair sends with their receives, each time the least pending send
    whose send and receive have every hb-predecessor emitted; None when
    stuck."""
    emitted, order, pending = set(), [], sorted(msc.matched_sends)
    preds = {e: {a for a in msc.events if msc.hb_strict(a, e)} for e in msc.events}
    while pending:
        ready = [
            s for s in pending if preds[s] <= emitted and preds[msc.matching[s]] <= emitted | {s}
        ]
        if not ready:
            return None
        pending.remove(ready[0])
        order += [ready[0], msc.matching[ready[0]]]
        emitted.update(order[-2:])
    return tuple(order)


def shuffled_ids(msc, rng):
    """The same chart with its event ids permuted, so that ids need not
    grow along happens-before."""
    new = dict(zip(msc.events, rng.sample(range(len(msc.events)), len(msc.events))))
    return Msc(
        msc.processes,
        {new[e]: a for e, a in msc.labels.items()},
        {p: [new[e] for e in seq] for p, seq in msc.proc_order.items()},
        {new[s]: new[r] for s, r in msc.matching.items()},
    )


def grouped_cases():
    rng = random.Random(21)
    cases = [random_msc(rng, max_events=10) for _ in range(400)]
    cases += [random_msc(rng, max_events=40, procs=("p", "q", "r", "s")) for _ in range(150)]
    cases += [shuffled_ids(m, rng) for m in cases[::2]]
    return cases + [example(name) for name in EXAMPLES]


def test_grouped_send_pairs_match_pairwise_loops():
    from msckit.classify import NotInModelError, is_co, is_p2p, rsc_linearize

    failed = dict.fromkeys(("p2p", "co"), 0)
    rsc = 0
    for m in grouped_cases():
        assert is_p2p(m) == is_p2p_pairwise(m)
        assert is_co(m) == is_co_pairwise(m)
        failed["p2p"] += not is_p2p(m)[0]
        failed["co"] += not is_co(m)[0]
        assert relations.mb_rel(m).edges == mb_rel_pairwise(m)
        assert relations.onen_rel(m).edges == onen_rel_pairwise(m)
        crown = relations.crown_digraph(m)
        assert crown.edges == crown_pairwise(m) and crown.nodes == m.matched_sends
        want = None if m.unmatched_sends else rsc_greedy(m)
        if want is None:
            with pytest.raises(NotInModelError):
                rsc_linearize(m)
        else:
            rsc += 1
            assert rsc_linearize(m).order == want
    # both verdicts, and both rsc outcomes, are exercised
    assert 50 < failed["p2p"] < 500 and failed["co"] > failed["p2p"] and rsc > 50


# -- relations as successor maps ---------------------------------------------


def test_relation_edge_outside_nodes_rejected():
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        RelationGraph.of([1], [(1, 2)])
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        RelationGraph.of([1], [(0, 1)])


def test_relation_equality_by_nodes_and_edges():
    built = RelationGraph.of([1, 2, 3], [(1, 2), (1, 2), (2, 3)])
    given = RelationGraph({1: frozenset({2}), 2: (3,), 3: []})
    assert built == given and hash(built) == hash(given)
    assert built.edges == frozenset({(1, 2), (2, 3)})
    assert built.has(1, 2) and not built.has(2, 1) and not built.has(4, 1)
    assert built != RelationGraph({1: [2], 2: [3], 3: [], 4: []})
    assert built != RelationGraph({1: [2], 2: [], 3: []})


def fresh(m: Msc) -> Msc:
    """A copy of `m` with empty per-chart caches."""
    return Msc(m.processes, m.labels, m.proc_order, m.matching)


def count_builds(monkeypatch, names) -> dict:
    """Wrap each named producer of the relations module so that it
    records, per function, chart and argument tuple, the distinct
    objects it returns: one per build, since a memoised call returns
    the object built first.  The charts are kept, so ids stay unique."""
    seen: dict[tuple, list] = {}

    def counting(name, fn):
        def wrapper(msc, *args):
            out = fn(msc, *args)
            got = seen.setdefault((name, id(msc), args), [msc])
            if all(out is not x for x in got[1:]):
                got.append(out)
            return out

        return wrapper

    for name in names:
        monkeypatch.setattr(relations, name, counting(name, getattr(relations, name)))
    return seen


# The README's example formula and one atom per named ordering it lists.
README_FORMULAS = (
    "~E x. (send(x) & ~matched(x))",
    "E x. E y. (mb(x, y) | mb+(x, y) | onen(x, y) | bowtie(x, y))",
    "E x. E y. (nnrel(x, y) | mbp(x, y) | onenp(x, y) | prox(x, y) | prox*(x, y))",
    "E x. E y. relbasy1(x, y)",
    "E x. E y. relb2(x, y)",
    "~E x. bowtie+(x, x)",
    "phi_nn",
)


def test_each_relation_built_once_per_chart(monkeypatch):
    from msckit.classify import MODELS, classify
    from msckit.mso import builtin, evaluate, parse_formula

    names = sorted({*relations.SCHEDULING.values(), *relations.NAMED.values()})
    seen = count_builds(monkeypatch, names)
    formulas = [builtin(model) for model in MODELS]
    formulas += [parse_formula(text) for text in README_FORMULAS]
    for name in EXAMPLES:
        m = fresh(example(name))
        classify(m)
        for f in formulas:
            try:
                evaluate(m, f)
            except MscError:
                pass  # relb needs FIFO channels
    builds = {key[:1] + key[2:]: len(got) - 1 for key, got in seen.items()}
    assert {name for name, *_ in builds} == set(names)
    assert max(builds.values()) == 1


def test_crown_search_and_rsc_witness_share_one_digraph(monkeypatch):
    from msckit.classify import find_crown, rsc_linearize

    seen = count_builds(monkeypatch, ["crown_digraph"])
    m = fresh(example("relay"))
    assert find_crown(m) is None
    assert rsc_linearize(m).models == ("rsc",)
    assert [len(got) - 1 for got in seen.values()] == [1]


def old_adjacency(rel: RelationGraph) -> dict:
    """The successor sets rebuilt from the edge set, as relations were
    searched before they held their successor map."""
    adj: dict[int, set[int]] = {n: set() for n in rel.nodes}
    for a, b in rel.edges:
        adj[a].add(b)
    return adj


def assert_successor_map(rel: RelationGraph) -> None:
    adj = rel.adjacency()
    assert rel.adjacency() is adj
    assert set(adj) == rel.nodes
    with pytest.raises(TypeError):
        adj[min(rel.nodes, default=0)] = []  # read-only: the map is shared
    for succs in adj.values():
        assert len(list(succs)) == len(set(succs)) and set(succs) <= rel.nodes
    assert {n: set(succs) for n, succs in adj.items()} == old_adjacency(rel)


def successor_map_cases() -> list[Msc]:
    rng = random.Random(90)
    cases = [random_msc(rng, max_events=10) for _ in range(150)]
    cases += [random_msc(rng, max_events=40, procs=("p", "q", "r", "s")) for _ in range(40)]
    return cases + [fresh(example(name)) for name in EXAMPLES]


def test_successor_maps_match_edge_set_constructions():
    from msckit import graph
    from msckit.classify import membership

    nn_members = {True: 0, False: 0}
    for m in successor_map_cases():
        nn_members[membership(m, "nn")[0]] += 1
        # ⋈: its predecessor bitsets turned into an edge-tuple list
        bits, rows = relations._bowtie(m, saturate=False)
        bowtie = relations.nn_bowtie(m)
        assert sorted(bowtie.edges) == sorted(
            (bits[j], bits[i]) for i, row in rows.items() for j in graph.bits_of(row)
        )
        # closures: the reach rows of the edge set's adjacency as pairs
        for model in ("asy", "mb", "onen", "nn"):
            rel = relations.scheduling(m, model)
            assert_successor_map(rel)
            for reflexive in (False, True):
                rows = graph.reach_bits(old_adjacency(rel), reflexive)
                closed = relations.transitive_closure(rel, reflexive)
                pairs = {(a, b) for a, row in rows.items() for b in graph.bits_of(row)}
                assert closed.edges == pairs
                assert closed.nodes == rel.nodes
                assert_successor_map(closed)
            assert relations.scheduling_closure(m, model) == relations.transitive_closure(rel)
        # happens-before: the hb_reach rows as pairs
        hb = happens_before(m)
        assert hb.edges == {(e, f) for e, row in m.hb_reach.items() for f in graph.bits_of(row)}
        assert_successor_map(hb)
        # crowns: matched sends, s1 before the receive of s2
        rm = m.rmatching
        crown = relations.crown_digraph(m)
        assert crown.nodes == m.matched_sends
        assert crown.edges == {
            (s, rm[e]) for s in m.matched_sends for e in rm if rm[e] != s and m.hb(s, e)
        }
        assert_successor_map(crown)
        for name in ("mb", "onen", "nnrel", "mbp", "onenp", "relbasy"):
            assert_successor_map(relations.named(m, name, 1))
    assert min(nn_members.values()) > 10

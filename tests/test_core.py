import random

import pytest

from conftest import channel_chain, random_msc
from msckit.core import (
    EMPTY_MSC,
    InvalidMscError,
    LimitExceededError,
    Msc,
    NotDownwardClosedError,
    concatenate,
    enumerate_linearizations,
    extends_hb,
    happens_before,
    hb_prefixes,
    prefix,
    recv,
    send,
    to_dot,
    validate,
)
from msckit.corpus import example


def closure_oracle(events, edges):
    """Independent reflexive-transitive closure by repeated BFS."""
    adj = {e: set() for e in events}
    for a, b in edges:
        adj[a].add(b)
    out = set()
    for start in events:
        seen = {start}
        stack = [start]
        while stack:
            n = stack.pop()
            for m in adj[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        out.update((start, e) for e in seen)
    return out


# -- validation ---------------------------------------------------------------


def test_validate_empty():
    assert validate(EMPTY_MSC).ok


def test_validate_relay():
    assert validate(example("relay")).ok


def test_validate_unmatched_receive():
    m = Msc(("p", "q"), {0: recv("p", "q", "m")}, {"q": (0,)}, {})
    report = validate(m)
    assert not report.ok
    assert any(v.condition == "2b" for v in report.violations)


def two_message_loop() -> Msc:
    # receive placed before its own send on one line is impossible; use
    # two messages closing a loop instead
    labels = {
        0: send("p", "q", "a"),
        1: recv("q", "p", "b"),
        2: send("q", "p", "b"),
        3: recv("p", "q", "a"),
    }
    return Msc(("p", "q"), labels, {"p": (1, 0), "q": (3, 2)}, {0: 3, 2: 1})


def test_validate_cycle():
    report = validate(two_message_loop())
    assert not report.ok
    assert any(v.condition == "3" for v in report.violations)


def test_hb_reach_raises_on_a_cycle_that_validate_reports():
    m = two_message_loop()
    with pytest.raises(InvalidMscError):
        m.hb_reach
    with pytest.raises(InvalidMscError):
        m.hb(0, 3)
    report = validate(m)
    assert [(v.condition, v.events) for v in report.violations] == [("3", (0, 3, 2, 1, 0))]


def test_validate_mismatched_labels():
    labels = {0: send("p", "q", "a"), 1: recv("p", "q", "b")}
    m = Msc(("p", "q"), labels, {"p": (0,), "q": (1,)}, {0: 1})
    report = validate(m)
    assert any(v.condition == "2a" for v in report.violations)


def test_validate_wrong_line():
    labels = {0: send("p", "q", "a")}
    m = Msc(("p", "q"), labels, {"q": (0,)}, {})
    report = validate(m)
    assert any(v.condition == "1" for v in report.violations)


def test_validate_reports_edges_to_unknown_events():
    # event 5 sits on p's line without a label, and send 0 is matched to
    # the unknown id 9: both edges leave the labelled events, which must
    # come back as violations 1 and 2a, not as an error from the cycle check
    labels = {0: send("p", "q", "a"), 1: recv("p", "q", "a")}
    m = Msc(("p", "q"), labels, {"p": (0, 5), "q": (1,)}, {0: 9})
    report = validate(m)
    assert not report.ok
    assert ("1", (5,)) in [(v.condition, v.events) for v in report.violations]
    assert ("2a", (0, 9)) in [(v.condition, v.events) for v in report.violations]
    with pytest.raises(InvalidMscError):
        happens_before(m)


def test_self_send_rejected():
    with pytest.raises(ValueError):
        send("p", "p", "m")


def test_validate_agrees_with_closure_antisymmetry():
    # validity of random candidates == antisymmetry of the closed relation
    rng = random.Random(5)
    for _ in range(200):
        m = random_msc(rng, max_events=7)
        closure = closure_oracle(m.events, m.succ_edges | m.msg_edges)
        antisym = all(not (a != b and (b, a) in closure) for (a, b) in closure)
        assert validate(m).ok == antisym


# -- happens-before -------------------------------------------------------------


def test_hb_relay_causal_path():
    relay = example("relay")
    hb = happens_before(relay)
    # !m2 (id 5) reaches ?m3 (id 1) through ?m2 -> !m3
    assert hb.has(5, 1)


def test_hb_single_event():
    m = Msc(("p", "q"), {0: send("p", "q", "m")}, {"p": (0,)}, {})
    assert happens_before(m).edges == frozenset({(0, 0)})


def test_hb_matches_independent_closure_on_corpus():
    for name in ("relay", "crossing", "overtake", "two_targets", "pipeline"):
        m = example(name)
        expected = closure_oracle(m.events, m.succ_edges | m.msg_edges)
        assert set(happens_before(m).edges) == expected


def test_hb_crossing_exact():
    # crossing sends still relate through the process line: the closure
    # of the 4-event relation, computed independently, is the whole truth
    m = example("crossing")
    expected = closure_oracle(m.events, m.succ_edges | m.msg_edges)
    assert set(happens_before(m).edges) == expected
    # the two receives are hb-ordered, the crossing pair (!m2, ?m1) too
    assert (1, 3) in expected and (0, 2) in expected


# -- linearizations ---------------------------------------------------------------


def count_linear_extensions(events, edges):
    """Independent recursive counter over admissible-next-event choices."""
    preds = {e: {a for (a, b) in edges if b == e} for e in events}

    def rec(placed: frozenset) -> int:
        if len(placed) == len(events):
            return 1
        total = 0
        for e in events:
            if e not in placed and preds[e] <= placed:
                total += rec(placed | {e})
        return total

    return rec(frozenset())


def test_empty_msc_has_one_linearization():
    assert [lin.order for lin in enumerate_linearizations(EMPTY_MSC)] == [()]


def test_two_targets_contains_mailbox_schedule():
    m = example("two_targets")
    orders = {lin.order for lin in enumerate_linearizations(m)}
    # !1 !2 !3 ?2 ?3 ?1 with ids p: !m1=0 !m2=1, q: ?m2=2 ?m3=3, r: !m3=4 ?m1=5
    assert (0, 1, 4, 2, 3, 5) in orders


def test_linearization_count_matches_brute_force():
    m = channel_chain(3)
    got = sum(1 for _ in enumerate_linearizations(m))
    want = count_linear_extensions(m.events, m.succ_edges | m.msg_edges)
    assert got == want


def test_every_linearization_extends_hb():
    rng = random.Random(6)
    for _ in range(50):
        m = random_msc(rng, max_events=6)
        for lin in enumerate_linearizations(m):
            assert extends_hb(m, lin.order)


def test_linearizations_come_in_lexicographic_order():
    # the ascending-id tie-break makes the enumeration lexicographic
    rng = random.Random(7)
    for _ in range(50):
        m = random_msc(rng, max_events=7)
        orders = [lin.order for lin in enumerate_linearizations(m)]
        assert orders == sorted(set(orders))
        assert len(orders) == count_linear_extensions(m.events, m.succ_edges | m.msg_edges)


def test_linearization_of_long_chain():
    m = channel_chain(1000)
    first = next(enumerate_linearizations(m))
    assert first.order == tuple(range(2000))


def test_msg_edges_memoised():
    m = example("relay")
    assert m.msg_edges is m.msg_edges
    assert m.msg_edges == frozenset(m.matching.items())


def test_event_views_memoised():
    m = example("fanout_lost")
    for view in ("send_events", "receive_events", "matched_sends", "unmatched_sends"):
        assert getattr(m, view) is getattr(m, view), view
    assert m.send_events == tuple(e for e in m.events if m.labels[e].is_send)
    assert m.receive_events == tuple(e for e in m.events if not m.labels[e].is_send)
    assert m.matched_sends == frozenset(m.matching)
    assert m.unmatched_sends == frozenset(m.send_events) - m.matched_sends != frozenset()


def test_views_are_properties_cached_under_their_names():
    # outside-in instrumentation wraps Msc.hb_reach as a property and
    # looks its value up in `_cache` under the property's name
    m = Msc(("p", "q"), {0: send("p", "q", "m")}, {"p": (0,)}, {})
    for view in ("events", "position", "rmatching", "succ_edges", "hb_reach"):
        assert isinstance(vars(Msc)[view], property), view
        value = getattr(m, view)
        assert m._cache[view] is value is getattr(m, view), view


def test_linearization_limit_signal():
    m = example("two_targets")
    gen = enumerate_linearizations(m, limit=2)
    assert len(next(gen).order) == 6
    next(gen)
    with pytest.raises(LimitExceededError):
        next(gen)


# -- concatenation ---------------------------------------------------------------


def test_concat_identity():
    m = example("relay")
    assert concatenate(m, EMPTY_MSC).isomorphic(m)
    assert concatenate(EMPTY_MSC, m).isomorphic(m)


def test_concat_associative():
    a, b, c = example("blocked"), example("lost_elsewhere"), example("handshake")
    left = concatenate(concatenate(a, b), c)
    right = concatenate(a, concatenate(b, c))
    assert left.isomorphic(right)


def test_concat_result_valid():
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_msc(rng, 5), random_msc(rng, 5)
        assert validate(concatenate(a, b)).ok


# -- prefixes ---------------------------------------------------------------------


def test_prefix_full_set_is_identity():
    m = example("relay")
    assert prefix(m, m.events, "hb").isomorphic(m)


def test_prefix_fanout_hb():
    fanout, lost = example("fanout"), example("fanout_lost")
    assert prefix(fanout, {0, 1, 3}, "hb").isomorphic(lost)


def test_prefix_fanout_nn_rejected():
    fanout = example("fanout")
    with pytest.raises(NotDownwardClosedError) as exc:
        prefix(fanout, {0, 1, 3}, "nn")
    # the receive of m1 reaches the kept receive of m2 in the dependency
    # relation, so dropping it breaks downward closure
    assert exc.value.pair == (2, 3)


def test_hb_prefix_always_valid():
    rng = random.Random(8)
    for _ in range(30):
        m = random_msc(rng, max_events=6)
        for keep in hb_prefixes(m):
            assert validate(prefix(m, keep, "hb")).ok


# -- dot export ---------------------------------------------------------------------


def test_dot_empty():
    assert to_dot(EMPTY_MSC) == "digraph msc {\n  rankdir=TB;\n}\n"


def test_dot_blocked_dashed():
    assert to_dot(example("blocked")).count("style=dashed") == 1


def test_dot_relay_counts():
    d = to_dot(example("relay"))
    nodes = sum(1 for line in d.splitlines() if "[label=" in line and "shape=point" not in line)
    solid = d.count("arrowhead=none")
    msg = sum(
        1
        for line in d.splitlines()
        if "->" in line and "arrowhead" not in line and "dashed" not in line
    )
    # 6 events over lines of 2, 3, and 1 events: 3 succession edges
    assert (nodes, solid, msg) == (6, 3, 3)

import random
from dataclasses import dataclass
from typing import Iterator

import pytest

from msckit import cfsm, network
from msckit.cfsm import (
    CfsmSystem,
    Machine,
    bounded_synchronizability,
    explore,
    find_run,
)
from msckit.classify import MODELS, classify, membership
from msckit.core import EMPTY_MSC, Action, Msc, MscError, send
from msckit.io import parse_cfsm

PING_PONG = """
machine p: state l0 init; trans l0 -> l1 on ! q ping; trans l1 -> l0 on ? q pong
machine q: state s0 init; trans s0 -> s1 on ? p ping; trans s1 -> s0 on ! p pong
"""

BACKCHANNEL = """
machine p: state a init; trans a -> a on ! q m1; trans a -> a on ? q m2
machine q: state b init; trans b -> b on ? p m1; trans b -> b on ! p m2
"""

SINGLE_SEND = """
machine p: state a init; trans a -> b on ! q m1
machine q: state z init
"""

# p also sends to z, which has no machine: those messages stay in flight
OPEN_PEER = """
machine p: state a init; trans a -> a on ! z m; trans a -> a on ! q n
machine q: state b init; trans b -> b on ? p n
"""


def protocol_text(rng: random.Random, procs=("p", "q", "r")) -> str:
    """Two states per machine, one send to a random peer from each state,
    and every message sent to a machine receivable in both its states."""
    sends = {
        (p, st): (rng.choice([x for x in procs if x != p]), rng.choice("ab"), rng.randrange(2))
        for p in procs
        for st in (0, 1)
    }
    lines = []
    for p in procs:
        inbound = sorted({(s, m) for (s, _), (peer, m, _) in sends.items() if peer == p})
        stmts = [f"machine {p}: state s0 init", "state s1"]
        for st in (0, 1):
            peer, m, dst = sends[(p, st)]
            stmts.append(f"trans s{st} -> s{dst} on ! {peer} {m}")
            stmts += [f"trans s{st} -> s{st} on ? {s} {m2}" for s, m2 in inbound]
        lines.append("; ".join(stmts))
    return "\n".join(lines)


def protocol_system(rng: random.Random, procs=("p", "q", "r")) -> CfsmSystem:
    return parse_cfsm(protocol_text(rng, procs))


def differential_systems() -> list[CfsmSystem]:
    rng = random.Random(2022)
    named = [parse_cfsm(t) for t in (PING_PONG, BACKCHANNEL, OPEN_PEER)]
    return named + [protocol_system(rng) for _ in range(20)]


# -- reference exploration ---------------------------------------------------------


@dataclass(frozen=True)
class _Partial:
    states: tuple[str, ...]  # machine state per process, in system order
    lines: tuple[tuple[int, ...], ...]  # event ids per process
    labels: tuple[Action, ...]  # label of event i
    matching: tuple[tuple[int, int], ...]

    def to_msc(self, processes: tuple[str, ...]) -> Msc:
        lines = dict(zip(processes, self.lines))
        return Msc(processes, dict(enumerate(self.labels)), lines, dict(self.matching))


def reference_explore(sys: CfsmSystem, model: str, max_events: int) -> Iterator[Msc]:
    """The unpruned bag search: every receive may take any in-flight send
    with its channel and payload, partial behaviors are merged by machine
    states and :meth:`Msc.canonical`, and each level's classes are
    filtered by membership and emitted sorted by canonical form."""
    processes = sys.processes
    initial = _Partial(
        tuple(sys.machines[p].initial for p in processes), tuple(() for _ in processes), (), ()
    )
    initial_msc = initial.to_msc(processes)
    seen_mscs: set = set()
    # one representative per (machine states, MSC isomorphism class)
    level = {(initial.states, initial_msc.canonical()): (initial, initial_msc)}
    for _ in range(max_events + 1):
        emit = []
        for (_, canon), (_, msc) in level.items():
            if canon not in seen_mscs:
                seen_mscs.add(canon)
                if membership(msc, model)[0]:
                    emit.append((canon, msc))
        for _, msc in sorted(emit, key=lambda pair: pair[0]):
            yield msc
        nxt: dict = {}
        for partial, _ in level.values():
            if len(partial.labels) >= max_events:
                continue
            for succ in _successors(sys, processes, partial):
                msc = succ.to_msc(processes)
                key = (succ.states, msc.canonical())
                if key not in nxt:
                    nxt[key] = (succ, msc)
        level = nxt
        if not level:
            return


def _successors(
    sys: CfsmSystem, processes: tuple[str, ...], partial: _Partial
) -> Iterator[_Partial]:
    # in-flight sends: emitted, not yet matched
    matched = {s for s, _ in partial.matching}
    pending = [i for i, a in enumerate(partial.labels) if a.is_send and i not in matched]
    nid = len(partial.labels)
    for pi, p in enumerate(processes):
        for _, action, dst in sys.machines[p].steps_from(partial.states[pi]):
            states = partial.states[:pi] + (dst,) + partial.states[pi + 1 :]
            lines = partial.lines[:pi] + (partial.lines[pi] + (nid,),) + partial.lines[pi + 1 :]
            labels = partial.labels + (action,)
            if action.is_send:
                yield _Partial(states, lines, labels, partial.matching)
                continue
            for s in pending:
                sa = partial.labels[s]
                if sa.channel == action.channel and sa.payload == action.payload:
                    yield _Partial(states, lines, labels, partial.matching + ((s, nid),))


# -- tests ---------------------------------------------------------------------------


def test_equal_systems_hash_equal():
    a, b = parse_cfsm(PING_PONG), parse_cfsm(PING_PONG)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # the machines' order does not matter, and the system keeps its own copy
    machines = dict(reversed(list(a.machines.items())))
    swapped = CfsmSystem(machines)
    machines.clear()
    assert swapped == a and hash(swapped) == hash(a) and swapped.processes == ("q", "p")
    with pytest.raises(TypeError):
        a.machines["p"] = a.machines["q"]
    assert parse_cfsm(BACKCHANNEL) != a


def test_machine_rejects_foreign_action():
    with pytest.raises(MscError):
        Machine("p", ("a",), "a", ((("a"), send("q", "p", "m"), "a"),))


def test_find_run_empty():
    sys_ = parse_cfsm(PING_PONG)
    assert find_run(sys_, EMPTY_MSC) == {}


def test_find_run_single_unmatched():
    sys_ = parse_cfsm(SINGLE_SEND)
    m = Msc(("p", "q"), {0: send("p", "q", "m1")}, {"p": (0,)}, {})
    run = find_run(sys_, m)
    assert run is not None and run[0][1] == send("p", "q", "m1")


def test_find_run_rejects_wrong_word():
    sys_ = parse_cfsm(SINGLE_SEND)
    m = Msc(("p", "q"), {0: send("p", "q", "zzz")}, {"p": (0,)}, {})
    assert find_run(sys_, m) is None


def test_find_run_long_line_backtracks():
    # 2,999 sends of m then one n: the only path loops on a and leaves for
    # b on the last m; a recursive search would exceed the recursion limit
    sys_ = parse_cfsm(
        "machine p: state a init; trans a -> a on ! q m; trans a -> b on ! q m;"
        " trans b -> b on ! q n\nmachine q: state z init"
    )
    labels = [send("p", "q", "m")] * 2999 + [send("p", "q", "n")]
    m = Msc(("p", "q"), dict(enumerate(labels)), {"p": tuple(range(3000))}, {})
    run = find_run(sys_, m)
    assert run is not None
    assert [run[e][2] for e in range(3000)] == ["a"] * 2998 + ["b", "b"]


def test_find_run_rejection_is_not_exponential():
    # every m-path of length i ends in a or b, 2**i paths in all; none
    # reads the final n, and the search must not try them one by one
    sys_ = parse_cfsm(
        "machine p: state a init; state b; trans a -> a on ! q m; trans a -> b on ! q m;"
        " trans b -> a on ! q m; trans b -> b on ! q m\nmachine q: state z init"
    )
    labels = [send("p", "q", "m")] * 2999 + [send("p", "q", "n")]
    m = Msc(("p", "q"), dict(enumerate(labels)), {"p": tuple(range(3000))}, {})
    assert find_run(sys_, m) is None


def test_find_run_agrees_with_nfa_simulation():
    # independent subset-construction word acceptance per process line
    sys_ = parse_cfsm(PING_PONG)

    def accepts(machine, word):
        states = {machine.initial}
        for a in word:
            states = {t[2] for s in states for t in machine.steps_from(s) if t[1] == a}
            if not states:
                return False
        return True

    for m in explore(sys_, "asy", 5):
        for p in m.processes:
            word = [m.labels[e] for e in m.proc_order[p]]
            assert accepts(sys_.machines[p], word)
        assert find_run(sys_, m) is not None


def test_explore_no_transitions():
    sys_ = CfsmSystem({"p": Machine("p", ("a",), "a", ())})
    assert [m.events for m in explore(sys_, "asy", 4)] == [()]


@pytest.mark.parametrize("model", MODELS)
def test_explore_no_machines(model):
    # the queue networks have no process to be built on
    for search in (explore, reference_explore):
        got = list(search(CfsmSystem({}), model, 4))
        assert [(m.processes, m.events) for m in got] == [((), ())]


@pytest.mark.parametrize("model", MODELS)
def test_explore_horizon_zero(model):
    for search in (explore, reference_explore):
        assert [m.events for m in search(parse_cfsm(PING_PONG), model, 0)] == [()]


def test_explore_single_send():
    sys_ = parse_cfsm(SINGLE_SEND)
    sizes = [len(m.events) for m in explore(sys_, "asy", 4)]
    assert sizes == [0, 1]


def test_ping_pong_behavior_counts():
    # p must await pong before the next ping and q must alternate too,
    # so behaviors are exactly the prefixes of the alternating run: one
    # MSC per event count 0..6
    sys_ = parse_cfsm(PING_PONG)
    assert sorted(len(m.events) for m in explore(sys_, "asy", 6)) == [0, 1, 2, 3, 4, 5, 6]
    # the synchronously realizable ones cannot leave a ping in flight
    assert sorted(len(m.events) for m in explore(sys_, "rsc", 6)) == [0, 2, 4, 6]


def test_explore_language_chain():
    sys_ = parse_cfsm(PING_PONG)
    sets = {}
    for model in ("asy", "p2p", "co", "mb", "onen", "nn", "rsc"):
        sets[model] = {m.canonical() for m in explore(sys_, model, 6)}
    chain = ("rsc", "nn", "onen", "mb", "co", "p2p", "asy")
    for smaller, larger in zip(chain, chain[1:]):
        assert sets[smaller] <= sets[larger]


def test_explored_mscs_are_members_and_runnable():
    sys_ = parse_cfsm(BACKCHANNEL)
    for model in ("asy", "mb", "rsc"):
        for m in explore(sys_, model, 5):
            assert membership(m, model)[0]
            assert find_run(sys_, m) is not None


def test_ping_pong_rsc_alternating():
    sys_ = parse_cfsm(PING_PONG)
    got = {m.canonical() for m in explore(sys_, "rsc", 6)}
    # independent route: crown-free filter of the full exploration
    want = {
        m.canonical()
        for m in explore(sys_, "asy", 6)
        if classify(m, with_witnesses=False).verdicts["rsc"]
    }
    assert got == want


@pytest.mark.parametrize("model", MODELS)
def test_explore_matches_reference(model):
    # against the unpruned bag search filtered by membership: the same
    # canonical forms in the same order
    for sys_ in differential_systems():
        fast = [m.canonical() for m in explore(sys_, model, 5)]
        slow = [m.canonical() for m in reference_explore(sys_, model, 5)]
        assert fast == slow


def test_rsc_builds_the_charts_asy_builds(monkeypatch):
    # rsc steps the bag as asy does and builds a chart only to emit or
    # filter it, never one per successor
    built = []

    def counting_to_msc(ex, processes):
        built.append(ex)
        return real_to_msc(ex, processes)

    real_to_msc = cfsm._Execution.to_msc
    monkeypatch.setattr(cfsm._Execution, "to_msc", counting_to_msc)
    counts = {}
    for model in ("asy", "rsc"):
        built.clear()
        for sys_ in differential_systems():
            for _ in explore(sys_, model, 5):
                pass
        counts[model] = len(built)
    assert counts["rsc"] == counts["asy"] > 0


@pytest.mark.parametrize("model", network.KINDS)
def test_network_route_charts_replay(model):
    # event ids follow the network execution that reached the chart
    for sys_ in differential_systems():
        for m in explore(sys_, model, 5):
            actions = [m.labels[e] for e in m.events]
            procs = network.full_process_set(actions, m.processes)
            assert network.run_execution(network.network_for(model, procs), actions).ok
            back = network.execution_to_msc(actions, model, procs)
            assert back.isomorphic(m)


def test_synch_no_transition_system():
    sys_ = CfsmSystem({"p": Machine("p", ("a",), "a", ())})
    for predicate, k in (
        ("weakly-synchronous", None),
        ("weakly-k-synchronous", 1),
        ("exists-k-bounded", 1),
        ("forall-k-bounded", 1),
    ):
        assert bounded_synchronizability(sys_, "asy", predicate, 4, k).ok


def test_synch_single_exchanges_always_ok():
    sys_ = parse_cfsm(SINGLE_SEND)
    verdict = bounded_synchronizability(sys_, "asy", "weakly-synchronous", 4)
    assert verdict.ok and verdict.bound == 4


def test_synch_producer_counterexample():
    sys_ = parse_cfsm(BACKCHANNEL)
    verdict = bounded_synchronizability(sys_, "p2p", "weakly-synchronous", 9)
    assert not verdict.ok
    assert verdict.counterexample is not None
    from msckit.bounded import is_weakly_synchronous

    assert not is_weakly_synchronous(verdict.counterexample)
    assert membership(verdict.counterexample, "p2p")[0]


def test_synch_needs_k():
    sys_ = parse_cfsm(SINGLE_SEND)
    with pytest.raises(ValueError):
        bounded_synchronizability(sys_, "asy", "exists-k-bounded", 4)

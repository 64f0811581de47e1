import random

import pytest

from conftest import random_msc
from msckit.classify import linearize, membership
from msckit.core import enumerate_linearizations, send, recv, validate
from msckit.corpus import EXAMPLES, example
from msckit.network import (
    BAG,
    KINDS,
    ExecutionRejected,
    QueueNetwork,
    classify_execution,
    execution_to_msc,
    initial,
    linearization_to_execution,
    network_for,
    receives,
    run_execution,
    step,
)

PQR = ("p", "q", "r")

EX1 = [send("p", "q", "m1"), send("q", "r", "m2"), recv("q", "r", "m2"), recv("p", "q", "m1")]
EX2 = [send("p", "q", "m1"), send("r", "q", "m2"), recv("r", "q", "m2")]


def test_network_shapes():
    nn = network_for("nn", PQR)
    assert nn.queue_ids == ("0",)
    assert len(set(nn.assign.values())) == 1
    p2p = network_for("p2p", ("p", "q"))
    assert len(p2p.queue_ids) == 2
    onen = network_for("onen", PQR)
    assert set(onen.queue_ids) == set(PQR)
    assert all(onen.assign[(a, b)] == a for (a, b) in onen.assign)
    mb = network_for("mb", PQR)
    assert all(mb.assign[(a, b)] == b for (a, b) in mb.assign)


def test_queue_assignment_is_frozen():
    # the channel-to-slot map is built once, from the assignment
    assign = {("p", "q"): "a", ("q", "p"): "b"}
    net = QueueNetwork(("a", "b"), assign)
    assign[("p", "q")] = "b"
    with pytest.raises(TypeError):
        net.assign[("p", "q")] = "b"
    assert net.queue_of("p", "q") == "a" and net.slot_of("q", "p") == 1


def test_equal_networks_hash_equal():
    a, b = network_for("nn", ("p", "q")), network_for("nn", ("p", "q"))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # the assignment's insertion order does not matter
    swapped = QueueNetwork(a.queue_ids, dict(reversed(list(a.assign.items()))), "nn")
    assert swapped == a and hash(swapped) == hash(a)
    assert network_for("mb", ("p", "q")) != a
    assert len({network_for(kind, PQR) for kind in KINDS}) == len(KINDS)


def test_step_send_appends():
    net = network_for("p2p", ("p", "q"))
    cfg = step(net, initial(net), send("p", "q", "m"))
    assert cfg is not None
    assert [e[2] for e in cfg[net.queue_ids.index("p>q")]] == ["m"]


def test_step_example1_fails_on_nn():
    net = network_for("nn", PQR)
    cfg = initial(net)
    for a in EX1[:2]:
        cfg = step(net, cfg, a)
    assert step(net, cfg, EX1[2]) is None  # m1 heads the single queue


def test_step_example2_fails_on_mb():
    net = network_for("mb", PQR)
    cfg = initial(net)
    for a in EX2[:2]:
        cfg = step(net, cfg, a)
    assert step(net, cfg, EX2[2]) is None  # m2 overtakes m1 in q's mailbox


def test_run_example2_p2p_leftover():
    net = network_for("p2p", PQR)
    result = run_execution(net, EX2)
    assert result.ok
    leftover = {qid: entries for qid, entries in zip(net.queue_ids, result.config) if entries}
    assert list(leftover) == ["p>q"]
    assert leftover["p>q"][0][2] == "m1"


def test_run_empty():
    net = network_for("mb", PQR)
    result = run_execution(net, [])
    assert result.ok and result.config == initial(net) == ((),) * len(net.queue_ids)


def test_run_example1_onen():
    assert run_execution(network_for("onen", PQR), EX1).ok


def test_classify_example_executions():
    assert classify_execution(EX1, PQR) == {"p2p", "mb", "onen"}
    assert classify_execution(EX2, PQR) == {"p2p", "onen"}
    assert classify_execution([], PQR) == set(KINDS)


def test_roundtrip_two_targets_mb():
    m = example("two_targets")
    lin = linearize(m, "mb")
    rebuilt = execution_to_msc(linearization_to_execution(m, lin), "mb", m.processes)
    assert rebuilt.isomorphic(m)


def test_roundtrip_empty():
    assert execution_to_msc([], "nn", PQR).events == ()


def test_example2_reconstruction():
    m = execution_to_msc(EX2, "p2p", PQR)
    assert validate(m).ok
    assert len(m.unmatched_sends) == 1
    assert len(m.matching) == 1
    assert membership(m, "mb")[0]  # different receivers never conflict


def test_reconstruction_rejects():
    with pytest.raises(ExecutionRejected):
        execution_to_msc([recv("p", "q", "m")], "p2p", ("p", "q"))


def test_fact_on_corpus():
    # model membership == some linearization runs on the matching network
    for name in EXAMPLES:
        m = example(name)
        if len(m.events) > 10:
            continue
        lins = list(enumerate_linearizations(m))
        for kind in KINDS:
            net = network_for(kind, m.processes)
            runs = any(
                run_execution(net, linearization_to_execution(m, lin)).ok for lin in lins
            )
            assert runs == membership(m, kind)[0], (name, kind)


def test_merging_monotonicity():
    # an execution accepted by the single queue is accepted by them all
    rng = random.Random(21)
    accepted = 0
    for _ in range(200):
        m = random_msc(rng, max_events=6)
        for lin in enumerate_linearizations(m):
            ex = linearization_to_execution(m, lin)
            if run_execution(network_for("nn", PQR), ex).ok:
                accepted += 1
                for kind in ("mb", "onen", "p2p"):
                    assert run_execution(network_for(kind, PQR), ex).ok
            break  # one linearization per MSC keeps this quick
    assert accepted > 10


def test_p2p_strength():
    # members of the per-channel FIFO class run on it under EVERY schedule
    for name in ("relay", "two_targets", "train"):
        m = example(name)
        net = network_for("p2p", m.processes)
        for lin in enumerate_linearizations(m):
            assert run_execution(net, linearization_to_execution(m, lin)).ok


def test_roundtrip_random_per_kind():
    rng = random.Random(22)
    for _ in range(120):
        m = random_msc(rng, max_events=7)
        for kind in KINDS:
            if not membership(m, kind)[0]:
                continue
            lin = linearize(m, kind)
            ex = linearization_to_execution(m, lin)
            assert run_execution(network_for(kind, m.processes), ex).ok
            assert execution_to_msc(ex, kind, m.processes).isomorphic(m)


# -- step against a list-of-lists FIFO replay -------------------------------------


def _random_execution(rng: random.Random, length: int) -> list:
    """Sends on random channels; a receive takes a random in-flight message
    (any, not only a queue head) or, now and then, one never sent."""
    actions, in_flight = [], []
    for _ in range(length):
        if in_flight and rng.random() < 0.5:
            actions.append(recv(*in_flight.pop(rng.randrange(len(in_flight)))))
        elif rng.random() < 0.05:
            actions.append(recv("p", "q", "ghost"))
        else:
            p, q = rng.sample(PQR, 2)
            in_flight.append((p, q, rng.choice("ab")))
            actions.append(send(*in_flight[-1]))
    return actions


def _fifo_reference(net, actions, tag):
    """Replay on plain lists: per prefix the queue contents, then the
    position of the first refused action (None if all run) and the
    matching of the receives that ran."""
    queues = [[] for _ in net.queue_ids]
    snapshots, matching = [], {}
    for i, a in enumerate(actions):
        snapshots.append([tuple(q) for q in queues])
        queue = queues[net.queue_ids.index(net.assign[(a.sender, a.receiver)])]
        if a.is_send:
            queue.append((a.sender, a.receiver, a.payload, tag(i)))
        elif queue and queue[0][:3] == (a.sender, a.receiver, a.payload):
            matching[queue.pop(0)[3]] = tag(i)
        else:
            return snapshots, i, matching
    snapshots.append([tuple(q) for q in queues])
    return snapshots, None, matching


CUSTOM = QueueNetwork(  # p reads one queue, q and r share the other
    ("in-p", "rest"), {(a, b): "in-p" if b == "p" else "rest" for a in PQR for b in PQR if a != b}
)


@pytest.mark.parametrize("kind", KINDS + ("custom",))
def test_step_matches_fifo_reference(kind):
    net = CUSTOM if kind == "custom" else network_for(kind, PQR)
    rng = random.Random(f"step-{kind}")
    refused = 0
    for _ in range(150):
        actions = _random_execution(rng, rng.randrange(1, 16))
        # a coordinate-like tag, as exploration uses, and positions, as replay does
        for tag in (lambda i: ("tag", i), lambda i: i):
            snapshots, failed_at, matching = _fifo_reference(net, actions, tag)
            config = initial(net)
            for i, a in enumerate(actions):
                want = snapshots[i]
                assert config == tuple(want)
                assert (config == initial(net)) == (not any(want))
                config = step(net, config, a, origin=tag(i))
                if i == failed_at:
                    assert config is None
                    break
            else:
                assert config == tuple(snapshots[-1])
        result = run_execution(net, actions)
        assert result.ok == (failed_at is None) and result.failed_at == failed_at
        refused += not result.ok
        if kind in KINDS and failed_at is None:
            assert execution_to_msc(actions, kind, PQR).matching == matching
        elif kind in KINDS:
            with pytest.raises(ExecutionRejected) as exc:
                execution_to_msc(actions, kind, PQR)
            assert exc.value.position == failed_at
    assert 0 < refused < 150  # both outcomes occur


# -- receives against a direct reference --------------------------------------------


@pytest.mark.parametrize("kind", (BAG,) + KINDS)
def test_receives_matches_reference(kind):
    # the bag offers every entry of the channel that carries the message,
    # oldest first; a queue offers at most its head
    net = network_for(kind, PQR)
    rng = random.Random(f"receives-{kind}")
    ways_seen = set()
    for _ in range(150):
        actions = _random_execution(rng, rng.randrange(1, 16))
        config, in_flight = initial(net), []  # in-flight entries in send order
        for i, a in enumerate(actions):
            if a.is_send:
                config = step(net, config, a, origin=i)
                in_flight.append((a.sender, a.receiver, a.payload, i))
                continue
            slot = net.slot_of(a.sender, a.receiver)
            message = (a.sender, a.receiver, a.payload)
            queue = [e for e in in_flight if net.slot_of(e[0], e[1]) == slot]
            want = queue if kind == BAG else queue[:1]
            want = [e[3] for e in want if e[:3] == message]
            ways = receives(net, config, a)
            assert [origin for _, origin in ways] == want
            ways_seen.add(len(ways))
            for after, origin in ways:
                rest = [e for e in in_flight if e[3] != origin]
                assert after == tuple(
                    tuple(e for e in rest if net.slot_of(e[0], e[1]) == s)
                    for s in range(len(net.queue_ids))
                )
            if not ways:
                assert step(net, config, a) is None
                break
            config = step(net, config, a)
            assert config == ways[0][0]
            in_flight = [e for e in in_flight if e[3] != ways[0][1]]
    # refusals and takes both occur, and only the bag offers a choice
    assert {0, 1} <= ways_seen and (max(ways_seen) > 1) == (kind == BAG)

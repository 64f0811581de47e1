"""
Seeded input generators for the benchmark.

Every generator takes a `random.Random` (or nothing, when the shape is
fixed).  Charts are returned as `Msc` values, which the workloads
serialise to `.msc` text; machines are returned as `.cfsm` text.  The
program only ever sees that text; what the generator knows about an
input (which network produced it, hence which classes it is a member
of) travels beside it as the checker's reference.

`bag_random_msc` and `fifo_chain` mirror `random_msc` and
`channel_chain` of the test suite's conftest.
"""

from __future__ import annotations

import random

from msckit.core import Msc, recv, send
from msckit.network import execution_to_msc, network_for

def bag_random_msc(rng: random.Random, n_events: int, procs: tuple[str, ...]) -> Msc:
    """A random valid MSC built along a global timeline with bag
    semantics: each step fires a fresh send or matches a random pending
    one, so receives can cross."""
    labels, matching = {}, {}
    proc_order: dict[str, list[int]] = {p: [] for p in procs}
    pending: list[tuple[int, str, str, str]] = []
    seq = 0
    for nid in range(n_events):
        if pending and rng.random() < 0.55:
            s, p, q, m = pending.pop(rng.randrange(len(pending)))
            labels[nid] = recv(p, q, m)
            proc_order[q].append(nid)
            matching[s] = nid
        else:
            p = rng.choice(procs)
            q = rng.choice([x for x in procs if x != p])
            m = f"m{seq}"
            seq += 1
            labels[nid] = send(p, q, m)
            proc_order[p].append(nid)
            pending.append((nid, p, q, m))
    return Msc(procs, labels, proc_order, matching)


def fifo_chain(n_messages: int) -> Msc:
    """n matched messages down the single channel p -> q."""
    labels, matching = {}, {}
    po: dict[str, list[int]] = {"p": [], "q": []}
    for i in range(n_messages):
        labels[2 * i] = send("p", "q", f"m{i}")
        labels[2 * i + 1] = recv("p", "q", f"m{i}")
        po["p"].append(2 * i)
        po["q"].append(2 * i + 1)
        matching[2 * i] = 2 * i + 1
    return Msc(("p", "q"), labels, po, matching)


def network_msc(
    rng: random.Random, kind: str, n_events: int, procs: tuple[str, ...]
) -> Msc:
    """A random execution of the canonical `kind` network, folded into
    its MSC by `execution_to_msc`.  Each step either receives the head
    of a random nonempty queue or sends a fresh message on a random
    channel; whatever is still queued at the end stays unmatched."""
    net = network_for(kind, procs)
    queues: dict[str, list[tuple[str, str, str]]] = {qid: [] for qid in net.queue_ids}
    actions = []
    for i in range(n_events):
        ready = [qid for qid in net.queue_ids if queues[qid]]
        if ready and rng.random() < 0.5:
            p, q, m = queues[rng.choice(ready)].pop(0)
            actions.append(recv(p, q, m))
        else:
            p = rng.choice(procs)
            q = rng.choice([x for x in procs if x != p])
            m = f"m{i}"
            queues[net.queue_of(p, q)].append((p, q, m))
            actions.append(send(p, q, m))
    return execution_to_msc(actions, kind, procs)


def protocol_cfsm(
    rng: random.Random, procs: tuple[str, ...] = ("p", "q", "r")
) -> tuple[str, dict[str, list[tuple[str, str, str, str, str]]]]:
    """A protocol system: each machine has two states, each state one
    send to a random peer, and every receiver can consume, in either
    state, every message sent to it.

    Returns the `.cfsm` text and, for the checker, the same machines as
    `{process: [(src, "!" or "?", peer, payload, dst), ...]}` with `s0`
    initial everywhere."""
    payloads = ("a", "b")
    sends = {}
    for p in procs:
        for state in (0, 1):
            peer = rng.choice([x for x in procs if x != p])
            sends[(p, state)] = (peer, rng.choice(payloads), rng.randrange(2))
    inbound: dict[str, set[tuple[str, str]]] = {p: set() for p in procs}
    for (p, _), (peer, payload, _) in sends.items():
        inbound[peer].add((p, payload))
    spec: dict[str, list[tuple[str, str, str, str, str]]] = {}
    lines = []
    for p in procs:
        trans = []
        for state in (0, 1):
            peer, payload, dst = sends[(p, state)]
            trans.append((f"s{state}", "!", peer, payload, f"s{dst}"))
            for sender, m in sorted(inbound[p]):
                trans.append((f"s{state}", "?", sender, m, f"s{state}"))
        spec[p] = trans
        stmts = [f"machine {p}: state s0 init", "state s1"]
        stmts += [f"trans {src} -> {dst} on {mark} {peer} {m}" for src, mark, peer, m, dst in trans]
        lines.append("; ".join(stmts))
    return "\n".join(lines) + "\n", spec

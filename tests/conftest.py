import random

import pytest

from msckit import network
from msckit.core import Msc, recv, send
from msckit.corpus import EXAMPLES, example


def random_msc(
    rng: random.Random, max_events: int = 8, procs=("p", "q", "r"), min_events: int = 0
) -> Msc:
    """A uniformly sized random valid MSC, built along a global timeline:
    each step either fires a fresh send or matches a random pending one,
    so receives can cross (non-FIFO matchings included)."""
    n = rng.randint(min_events, max_events)
    labels, matching = {}, {}
    proc_order: dict[str, list[int]] = {p: [] for p in procs}
    pending: list[tuple[int, str, str, str]] = []
    nid = seq = 0
    while nid < n:
        if pending and rng.random() < 0.55:
            idx = rng.randrange(len(pending))
            s, p, q, m = pending.pop(idx)
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
        nid += 1
    return Msc(procs, labels, proc_order, matching)


def channel_chain(n: int) -> Msc:
    """n matched messages down the single channel p -> q."""
    labels, matching = {}, {}
    po: dict[str, list[int]] = {"p": [], "q": []}
    for i in range(n):
        labels[2 * i] = send("p", "q", f"m{i}")
        labels[2 * i + 1] = recv("p", "q", f"m{i}")
        po["p"].append(2 * i)
        po["q"].append(2 * i + 1)
        matching[2 * i] = 2 * i + 1
    return Msc(("p", "q"), labels, po, matching)


def network_chart(rng, kind, n_events, procs):
    """A random execution of the canonical `kind` network as a chart:
    each step receives a random queue head or sends a fresh message."""
    net = network.network_for(kind, procs)
    queues = {qid: [] for qid in net.queue_ids}
    actions = []
    for i in range(n_events):
        ready = [qid for qid in net.queue_ids if queues[qid]]
        if ready and rng.random() < 0.5:
            actions.append(recv(*queues[rng.choice(ready)].pop(0)))
        else:
            p, q = rng.sample(procs, 2)
            queues[net.queue_of(p, q)].append((p, q, f"m{i}"))
            actions.append(send(p, q, f"m{i}"))
    return network.execution_to_msc(actions, kind, procs)


# Charts on which ⋈ (relations.nn_bowtie) is acyclic but its least
# fixpoint (relations.nn_saturated) is not, and which are not global
# FIFO.  Each was shrunk from a large-msc benchmark input (seed 35,
# b3-onen-150-3p; seed 39, b2-mb-140-4p) by removing whole messages.
# A chart keeps nn when messages are removed, so those inputs are not
# nn either.
NN_GAP_CHARTS = {
    "A": """processes p q r
message m82 p q
message m114 p q
message m126 p q lost
message m100 q p
message m108 q p
message m125 q p
message m73 r p
message m74 r q
order p !m82 ?m73 ?m100 !m114 !m126 ?m108 ?m125
order q ?m74 !m100 !m108 ?m82 ?m114 !m125
order r !m73 !m74
""",
    "B": """processes p q r s
message m85 q p
message m91 q r
message m95 r s
message m100 p q
message m109 q s
message m116 s p
message m120 s q lost
message m133 p r
order p !m100 ?m85 ?m116 !m133
order q !m85 !m91 !m109 ?m100
order r ?m91 !m95 ?m133
order s ?m95 !m116 !m120 ?m109
""",
}


@pytest.fixture(scope="session")
def examples():
    return {name: example(name) for name in EXAMPLES}

import random

import pytest

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


@pytest.fixture(scope="session")
def examples():
    return {name: example(name) for name in EXAMPLES}

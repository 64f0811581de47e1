import random
from functools import lru_cache
from itertools import combinations

import pytest

from conftest import channel_chain, random_msc
from msckit.bounded import (
    BOUNDED_MODELS,
    _unit_graph,
    _units,
    DecompositionFailure,
    ExchangeDecomposition,
    bounded_failure_witness,
    decompose_exchanges,
    exists_k_bounded,
    forall_k_bounded,
    is_exchange,
    is_k_bounded_linearization,
    is_weakly_k_synchronous,
    is_weakly_synchronous,
    minimal_exists_k,
)
from msckit.classify import NotInModelError, check_linearization, membership
from msckit.core import EMPTY_MSC, Msc, enumerate_linearizations, send
from msckit.corpus import example


def test_k_bounded_linearization_train():
    m = example("train")
    assert is_k_bounded_linearization(m, (0, 1, 3, 2, 4, 5), 2)  # !1 !2 ?1 !3 ?2 ?3
    assert not is_k_bounded_linearization(m, (0, 1, 2, 3, 4, 5), 2)  # !1 !2 !3 ...
    assert is_k_bounded_linearization(EMPTY_MSC, (), 0)


def test_k_bounded_global_flag():
    # two sends on different channels: fine per channel, too much globally
    m = example("fanout")
    lin = (0, 1, 2, 3)
    assert is_k_bounded_linearization(m, lin, 1)
    assert not is_k_bounded_linearization(m, lin, 1, per_channel=False)
    assert is_k_bounded_linearization(m, lin, 2, per_channel=False)


def test_exists_producer_k1():
    assert exists_k_bounded(example("producer"), 1, "p2p")


def test_exists_train():
    m = example("train")
    assert exists_k_bounded(m, 2, "p2p")
    assert not exists_k_bounded(m, 0, "p2p")
    assert minimal_exists_k(m, "p2p") == 1


def test_exists_empty_k0():
    for model in BOUNDED_MODELS:
        assert exists_k_bounded(EMPTY_MSC, 0, model)


def test_forall_train():
    m = example("train")
    assert forall_k_bounded(m, 3, "p2p")
    assert not forall_k_bounded(m, 2, "p2p")


def test_forall_single_message():
    m = channel_chain(1)
    for model in BOUNDED_MODELS:
        assert forall_k_bounded(m, 1, model)


def test_bounded_requires_membership():
    with pytest.raises(NotInModelError):
        exists_k_bounded(example("crossing"), 1, "p2p")
    with pytest.raises(NotInModelError):
        forall_k_bounded(example("mailbox_cross"), 1, "mb")


@pytest.mark.parametrize("name", ["pipeline", "crossing"])
def test_negative_k_rejected(name):
    # pipeline has unmatched sends, crossing none: both fail the same way
    m = example(name)
    for fn in (exists_k_bounded, forall_k_bounded):
        with pytest.raises(ValueError, match="k must be >= 0"):
            fn(m, -1, "asy")
    for universal in (False, True):
        with pytest.raises(ValueError, match="k must be >= 0"):
            bounded_failure_witness(m, -1, "asy", universal)


def test_unmatched_overflow_not_bounded():
    # two unmatched sends hold the channel at occupancy two forever
    m = Msc(("p", "q"), {0: send("p", "q", "a"), 1: send("p", "q", "b")}, {"p": (0, 1)}, {})
    assert not exists_k_bounded(m, 1, "asy")
    assert not exists_k_bounded(m, 1, "p2p")
    assert exists_k_bounded(m, 2, "p2p")


def test_exists_forall_match_enumeration():
    rng = random.Random(31)
    for _ in range(250):
        m = random_msc(rng, max_events=8)
        lins = list(enumerate_linearizations(m))
        for model in BOUNDED_MODELS:
            if not membership(m, model)[0]:
                continue
            witnesses = [l for l in lins if check_linearization(m, l, model)]
            for k in (0, 1, 2):
                assert exists_k_bounded(m, k, model) == any(
                    is_k_bounded_linearization(m, l, k) for l in witnesses
                )
                assert forall_k_bounded(m, k, model) == all(
                    is_k_bounded_linearization(m, l, k) for l in witnesses
                )


def test_long_chain_window_is_polynomial():
    # 200 messages down one channel: C(200, 4) windows by enumeration
    m = channel_chain(200)
    assert (exists_k_bounded(m, 3, "asy"), forall_k_bounded(m, 3, "asy")) == (True, False)


def test_forall_implies_exists_and_monotonicity():
    rng = random.Random(32)
    for _ in range(120):
        m = random_msc(rng, max_events=7)
        for model in BOUNDED_MODELS:
            if not membership(m, model)[0]:
                continue
            for k in (0, 1, 2):
                if forall_k_bounded(m, k, model):
                    assert exists_k_bounded(m, k, model)
                if exists_k_bounded(m, k, model):
                    assert exists_k_bounded(m, k + 1, model)
                if forall_k_bounded(m, k, model):
                    assert forall_k_bounded(m, k + 1, model)


# -- exchanges -------------------------------------------------------------------


def test_is_exchange():
    assert is_exchange(example("staggered"))
    assert is_exchange(example("fanout"))
    assert not is_exchange(example("roundtrip"))  # ?1 precedes !2 on q


def test_staggered_three_one_exchanges():
    dec = decompose_exchanges(example("staggered"), 1)
    assert isinstance(dec, ExchangeDecomposition)
    assert dec.factors == ((0,), (1, 2), (3, 4))
    assert is_weakly_k_synchronous(example("staggered"), 1)


def test_producer_not_weakly_synchronous():
    result = decompose_exchanges(example("producer"))
    assert isinstance(result, DecompositionFailure)
    assert result.reason == "receive-before-send"
    assert not is_weakly_synchronous(example("producer"))


def test_exchange_is_weakly_synchronous_in_one_factor():
    m = example("fanout")
    dec = decompose_exchanges(m)
    assert isinstance(dec, ExchangeDecomposition)
    assert len(dec) == 1


def test_empty_decomposition():
    dec = decompose_exchanges(EMPTY_MSC)
    assert isinstance(dec, ExchangeDecomposition) and dec.factors == ()


def test_cap_failure_reports_block():
    m = example("handshake")  # the two messages cross: one unavoidable block
    result = decompose_exchanges(m, 1)
    assert isinstance(result, DecompositionFailure)
    assert result.reason == "block-exceeds-cap"
    assert result.events == (0, 1, 2, 3)
    assert is_weakly_k_synchronous(m, 2)


def brute_factorizable(msc, k):
    """Independent search over all ordered cuts into exchange factors."""
    events = list(msc.events)
    if not events:
        return True
    hb = {(a, b) for a in events for b in events if msc.hb(a, b)}

    def is_prefix_cut(keep, remaining):
        for p in msc.processes:
            line = [e for e in msc.proc_order[p] if e in remaining]
            kept = [e for e in line if e in keep]
            if kept != line[: len(kept)]:
                return False
        return all(
            (s in keep) == (r in keep)
            for s, r in msc.matching.items()
            if s in remaining
        )

    def block_ok(block):
        ss = [e for e in block if msc.labels[e].is_send]
        if k is not None and len(ss) > k:
            return False
        rs = [e for e in block if not msc.labels[e].is_send]
        return not any((r, s) in hb and r != s for r in rs for s in ss)

    @lru_cache(maxsize=None)
    def rec(remaining):
        if not remaining:
            return True
        rem = set(remaining)
        universe = sorted(rem)
        for size in range(1, len(universe) + 1):
            for block in combinations(universe, size):
                bs = set(block)
                if is_prefix_cut(bs, rem) and block_ok(bs):
                    if rec(frozenset(rem - bs)):
                        return True
        return False

    return rec(frozenset(events))


def unit_graph_pairwise(msc):
    """Reference for the unit graph: every pair of units tested through
    happens-before."""
    units = _units(msc)
    weak = {i: set() for i in range(len(units))}
    strict = set()
    for i, u in enumerate(units):
        for j, v in enumerate(units):
            if i == j:
                continue
            if any(msc.hb_strict(e, f) for e in u for f in v):
                weak[i].add(j)
            if len(u) == 2 and msc.hb(u[1], v[0]):
                strict.add((i, j))
                weak[i].add(j)
    return units, weak, strict


def test_unit_graph_matches_pairwise():
    rng = random.Random(35)
    cases = [random_msc(rng, max_events=12) for _ in range(400)]
    cases += [example(name) for name in ("producer", "staggered", "train", "pipeline")]
    strict = 0
    for m in cases:
        got = _unit_graph(m)
        assert got == unit_graph_pairwise(m)
        strict += len(got[2])
    assert strict > 400


def test_decomposition_matches_brute_force():
    rng = random.Random(33)
    for _ in range(250):
        m = random_msc(rng, max_events=6)
        for k in (None, 1, 2):
            got = isinstance(decompose_exchanges(m, k), ExchangeDecomposition)
            assert got == brute_factorizable(m, k), (m.canonical(), k)


def test_factors_reassemble_and_are_exchanges():
    from msckit.core import concatenate

    rng = random.Random(34)
    count = 0
    for _ in range(150):
        m = random_msc(rng, max_events=7)
        dec = decompose_exchanges(m)
        if not isinstance(dec, ExchangeDecomposition) or not m.events:
            continue
        count += 1
        parts = []
        for factor in dec.factors:
            keep = set(factor)
            parts.append(
                Msc(
                    m.processes,
                    {e: m.labels[e] for e in keep},
                    {p: [e for e in m.proc_order[p] if e in keep] for p in m.processes},
                    {s: r for s, r in m.matching.items() if s in keep},
                )
            )
        assert all(is_exchange(part) for part in parts)
        whole = parts[0]
        for part in parts[1:]:
            whole = concatenate(whole, part)
        assert whole.isomorphic(m)
    assert count > 50

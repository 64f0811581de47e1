import random
from itertools import islice

import pytest

from conftest import NN_GAP_CHARTS, network_chart, random_msc
from msckit import graph, relations
from msckit.classify import (
    MODELS,
    ClassReport,
    NnAlgorithmError,
    NotInModelError,
    check_linearization,
    classify,
    find_crown,
    format_linearization,
    is_co,
    is_p2p,
    is_rsc,
    linearize,
    membership,
    nn_linearize,
    oracle_membership,
    rsc_linearize,
)
from msckit.core import EMPTY_MSC, Msc, enumerate_linearizations, send, recv, validate
from msckit.corpus import EXAMPLES, example

# expected class set per corpus example, frozen from the enumeration oracle
EXPECTED = {
    "relay": {"asy", "p2p", "co", "mb", "onen", "nn", "rsc"},
    "crossing": {"asy"},
    "overtake": {"asy", "p2p"},
    "two_targets": {"asy", "p2p", "co", "mb", "onen", "nn"},
    "roundtrip": {"asy", "p2p", "co", "mb", "onen", "nn", "rsc"},
    "blocked": {"asy"},
    "lost_elsewhere": {"asy", "p2p", "co", "mb"},
    "mailbox_cross": {"asy", "p2p", "co"},
    "late_receive": {"asy", "p2p", "co", "mb", "onen"},
    "handshake": {"asy", "p2p", "co", "mb", "onen", "nn"},
    "staggered": {"asy", "p2p", "co", "mb", "onen", "nn"},
    "pipeline": {"asy", "p2p", "co", "mb", "onen", "nn"},
    "producer": {"asy", "p2p", "co", "mb", "onen", "nn"},
    "train": {"asy", "p2p", "co", "mb", "onen", "nn", "rsc"},
    "fanout": {"asy", "p2p", "co", "mb", "onen", "nn", "rsc"},
    "fanout_lost": {"asy", "p2p", "co", "mb"},
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_corpus_classification(name):
    assert set(classify(example(name), with_witnesses=False).members) == EXPECTED[name]


def test_p2p_verdicts():
    assert not is_p2p(example("crossing"))[0]
    assert is_p2p(example("overtake"))[0]
    ok, pair = is_p2p(example("blocked"))
    assert not ok and pair == (0, 1)  # unmatched before matched on (p,q)


def test_co_verdicts():
    ok, pair = is_co(example("overtake"))
    assert not ok and pair == (0, 6)  # !m1 happens before !m3, receives flipped
    assert is_co(example("two_targets"))[0]
    one = Msc(("p", "q"), {0: send("p", "q", "m"), 1: recv("p", "q", "m")}, {"p": (0,), "q": (1,)}, {0: 1})
    assert is_co(one)[0]


def test_acyclicity_verdicts():
    assert not membership(example("mailbox_cross"), "mb")[0] and is_co(example("mailbox_cross"))[0]
    assert membership(example("late_receive"), "onen")[0] and not membership(example("late_receive"), "nn")[0]
    m = example("two_targets")
    assert membership(m, "mb")[0] and membership(m, "onen")[0] and membership(m, "nn")[0]


def test_crowns():
    crown = find_crown(example("handshake"))
    assert crown is not None and len(crown) == 2
    assert not is_rsc(example("handshake"))[0]
    assert is_rsc(example("roundtrip"))[0]
    assert find_crown(example("roundtrip")) is None
    # any unmatched send rules rsc out
    ok, witness = is_rsc(example("lost_elsewhere"))
    assert not ok and witness == (0,)


def test_nn_linearize_pipeline_golden():
    m = example("pipeline")
    lin = nn_linearize(m)
    assert format_linearization(m, lin) == (
        "!m5 !m1 !m2 !m3 ?m5 ?m1 ?m2 !m4 !m6 ?m3 ?m4"
    )
    assert check_linearization(m, lin, "nn")


def test_nn_linearize_empty():
    assert nn_linearize(EMPTY_MSC).order == ()


def test_nn_linearize_cyclic_dependency_errors():
    from msckit.classify import NnAlgorithmError

    with pytest.raises(NnAlgorithmError):
        nn_linearize(example("mailbox_cross"))


def test_nn_linearize_handshake():
    # the matched-send steps drain both sends before any receive; the
    # ascending-id tie-break fixes the order
    m = example("handshake")
    assert nn_linearize(m).order == (0, 2, 3, 1)  # !m1 !m2 ?m1 ?m2


def test_nn_linearize_random_members():
    rng = random.Random(11)
    checked = 0
    while checked < 80:
        m = random_msc(rng, max_events=7)
        if not membership(m, "nn")[0]:
            continue
        checked += 1
        assert check_linearization(m, nn_linearize(m), "nn")


def test_linearize_examples():
    two = example("two_targets")
    assert check_linearization(two, linearize(two, "mb"), "mb")
    rt = example("roundtrip")
    assert linearize(rt, "rsc").order == (0, 2, 3, 5, 4, 1)  # !1 ?1 !2 ?2 !3 ?3
    late = example("late_receive")
    assert check_linearization(late, linearize(late, "onen"), "onen")
    # a hand-picked alternative schedule is a valid onen witness too
    assert check_linearization(late, (6, 0, 7, 1, 2, 3, 4, 5), "onen")


def test_linearize_not_member():
    with pytest.raises(NotInModelError):
        linearize(example("crossing"), "p2p")
    with pytest.raises(NotInModelError):
        linearize(example("mailbox_cross"), "mb")


def test_check_linearization_two_targets_examples():
    m = example("two_targets")
    # ids p: !m1=0 !m2=1, q: ?m2=2 ?m3=3, r: !m3=4 ?m1=5
    assert check_linearization(m, (0, 1, 4, 2, 5, 3), "mb")  # !1 !2 !3 ?2 ?1 ?3
    assert not check_linearization(m, (0, 1, 4, 2, 5, 3), "onen")
    assert check_linearization(m, (0, 4, 1, 5, 2, 3), "onen")  # !1 !3 !2 ?1 ?2 ?3
    assert not check_linearization(m, (0, 4, 1, 5, 2, 3), "mb")


CLAUSE_MODELS = ("p2p", "co", "mb", "onen", "nn")


def clause_reference(msc, order, model):
    """The defining clause of p2p, co, mb, onen or nn on a total order,
    pair by pair: of two sends to one channel (p2p), to one receiver (co,
    mb), from one sender (onen) or of any kind (nn), the one ordered
    second (by happens-before for co, by the order otherwise) is
    unmatched, or both are matched and received in that order."""
    key = {
        "p2p": lambda a: a.channel,
        "co": lambda a: a.receiver,
        "mb": lambda a: a.receiver,
        "onen": lambda a: a.sender,
        "nn": lambda a: None,
    }[model]
    groups = {}
    for s in msc.send_events:
        groups.setdefault(key(msc.labels[s]), []).append(s)
    pos = {e: i for i, e in enumerate(order)}
    before = msc.hb_strict if model == "co" else lambda s1, s2: pos[s1] < pos[s2]

    def receives_ordered(s1, s2):
        if s2 not in msc.matching:
            return True
        if s1 not in msc.matching:
            return False
        return pos[msc.matching[s1]] < pos[msc.matching[s2]]

    return all(
        receives_ordered(s1, s2)
        for group in groups.values()
        for s1 in group
        for s2 in group
        if s1 != s2 and before(s1, s2)
    )


def test_check_linearization_matches_pairwise_clause():
    """The sweep (and co's pairwise test) against the pairwise clause on
    every linearization of the corpus charts and the first 200 of seeded
    random charts."""
    rng = random.Random(15)
    charts = [(m, enumerate_linearizations(m)) for m in map(example, EXAMPLES)]
    for _ in range(60):
        m = random_msc(rng, max_events=12, procs=("p", "q", "r", "s"))
        charts.append((m, islice(enumerate_linearizations(m), 200)))
    verdicts = {model: set() for model in CLAUSE_MODELS}
    for m, lins in charts:
        for lin in lins:
            for model in CLAUSE_MODELS:
                want = clause_reference(m, lin.order, model)
                assert check_linearization(m, lin, model) == want, (model, m, lin)
                verdicts[model].add(want)
    assert all(v == {False, True} for v in verdicts.values())


def test_check_linearization_empty():
    for model in MODELS:
        assert check_linearization(EMPTY_MSC, (), model)


def test_oracle_examples():
    assert not oracle_membership(example("mailbox_cross"), "mb")
    assert oracle_membership(example("two_targets"), "nn")


def test_oracle_limit():
    from msckit.classify import OracleLimitError

    with pytest.raises(OracleLimitError):
        oracle_membership(example("producer"), "mb", limit=10)


def test_oracle_env_override(monkeypatch):
    from msckit.classify import OracleLimitError

    monkeypatch.setenv("MSCKIT_ORACLE_LIMIT", "4")
    with pytest.raises(OracleLimitError):
        oracle_membership(example("two_targets"), "mb")
    monkeypatch.setenv("MSCKIT_ORACLE_LIMIT", "6")
    assert oracle_membership(example("two_targets"), "mb")


@pytest.mark.parametrize("raw", ["abc", "-1", "4.5"])
def test_oracle_env_malformed(monkeypatch, raw):
    from msckit.classify import OracleLimitError

    monkeypatch.setenv("MSCKIT_ORACLE_LIMIT", raw)
    with pytest.raises(OracleLimitError, match="MSCKIT_ORACLE_LIMIT"):
        oracle_membership(example("two_targets"), "mb")


# A chart in nn by the relational verdict and by the oracle on which the
# dependency-graph loop over the unsaturated ⋈ gets stuck: step 1 emits
# !m0 before !m1, and the loop later finds no admissible event.
NN_LINEARIZE_STUCK = """\
processes p q r
message m0 q r
message m1 r q
message m3 r q
message m4 q r
message m5 r q lost
message m7 q r lost
order p
order q !m0 ?m1 !m4 ?m3 !m7
order r !m1 !m3 !m5 ?m0 ?m4
"""


def test_nn_linearize_stuck_on_member():
    from msckit.io import parse_msc

    m = parse_msc(NN_LINEARIZE_STUCK)
    assert membership(m, "nn")[0] and oracle_membership(m, "nn")
    assert check_linearization(m, nn_linearize(m), "nn")


def test_seeded_differential_against_oracle():
    # verdicts against enumeration, witnesses against their clause and
    # their network, nn negative cycles against the unsaturated ⋈
    from msckit.network import (
        KINDS,
        execution_to_msc,
        linearization_to_execution,
        network_for,
        run_execution,
    )
    from msckit.relations import nn_bowtie

    # chart 493 of this seed is an nn member on which the linearizer got
    # stuck before ⋈ was saturated
    rng = random.Random(1)
    members = dict.fromkeys(MODELS, 0)
    for _ in range(600):
        m = random_msc(rng, max_events=10)
        report = classify(m)
        for model in MODELS:
            assert report.verdicts[model] == oracle_membership(m, model), model
            if not report.verdicts[model]:
                continue
            members[model] += 1
            lin = report.witnesses[model]
            assert check_linearization(m, lin, model), model
            if model in KINDS:
                actions = linearization_to_execution(m, lin)
                assert run_execution(network_for(model, m.processes), actions).ok, model
                assert execution_to_msc(actions, model, m.processes).isomorphic(m), model
        if not report.verdicts["nn"]:
            cycle = report.negatives["nn"]
            assert cycle[0] == cycle[-1]
            assert set(zip(cycle, cycle[1:])) <= nn_bowtie(m).edges
    assert min(members.values()) > 20


def test_is_nn_matches_bowtie_order(monkeypatch):
    # membership(m, "nn") gives what ⋈'s order gives, and builds ⋈ only
    # for the fixpoint non-members whose mb and 1-n relations joined are
    # acyclic
    from msckit.io import parse_msc

    real = relations.nn_bowtie
    built = []
    monkeypatch.setattr(relations, "nn_bowtie", lambda m: built.append(m) or real(m))
    rng = random.Random(1)
    charts = [
        network_chart(rng, ("mb", "onen", "p2p")[i % 3], rng.randint(40, 60), ("p", "q", "r"))
        for i in range(300)
    ]
    charts += [parse_msc(text) for text in NN_GAP_CHARTS.values()]
    fallbacks = 0
    for m in charts:
        built.clear()
        got = membership(m, "nn")
        cycle = real(m).order[1]
        assert got == (cycle is None, cycle)
        union = relations.scheduling(m, "mb") | relations.scheduling(m, "onen")
        fallback = union.order[1] is None and relations.nn_saturated(m) is None
        assert len(built) == fallback
        fallbacks += fallback and cycle is not None
    assert fallbacks >= 5


def test_classify_empty_all_models():
    assert set(classify(EMPTY_MSC).members) == set(MODELS)


def test_classify_witnesses_verify():
    for name in EXAMPLES:
        m = example(name)
        report = classify(m)
        for model, lin in report.witnesses.items():
            assert check_linearization(m, lin, model)
        for model in MODELS:
            if not report.verdicts[model] and model != "asy":
                assert model in report.negatives


def test_report_json_roundtrip():
    report = classify(example("late_receive"))
    again = ClassReport.from_json(report.to_json())
    assert again.verdicts == report.verdicts
    assert {m: w.order for m, w in again.witnesses.items()} == {
        m: w.order for m, w in report.witnesses.items()
    }


def test_hierarchy_downward_closed_on_random():
    rng = random.Random(12)
    order = list(MODELS)
    for _ in range(150):
        m = random_msc(rng, max_events=7)
        report = classify(m, with_witnesses=False)
        for smaller, larger in zip(order[1:], order):
            assert not report.verdicts[smaller] or report.verdicts[larger]


def test_hierarchy_strictness_witnessed_by_corpus():
    # each inclusion is strict somewhere in the example corpus
    strict_pairs = {
        ("asy", "p2p"): "crossing",
        ("p2p", "co"): "overtake",
        ("co", "mb"): "mailbox_cross",
        ("mb", "onen"): "lost_elsewhere",
        ("onen", "nn"): "late_receive",
        ("nn", "rsc"): "handshake",
    }
    for (larger, smaller), name in strict_pairs.items():
        report = classify(example(name), with_witnesses=False)
        assert report.verdicts[larger] and not report.verdicts[smaller]


def test_oracle_equivalence_random():
    rng = random.Random(13)
    for i in range(250):
        procs = ("p", "q", "r", "s") if i % 3 == 0 else ("p", "q", "r")
        m = random_msc(rng, max_events=8, procs=procs)
        report = classify(m, with_witnesses=False)
        for model in ("mb", "onen", "nn", "rsc"):
            assert report.verdicts[model] == oracle_membership(m, model)


def test_membership_unknown_model():
    with pytest.raises(ValueError):
        membership(EMPTY_MSC, "sync")


def test_deciding_and_witnessing_order_each_relation_once(monkeypatch):
    """On a fresh chart, deciding a model and then witnessing it orders
    the model's relation once and no relation object twice: validate then
    linearize for asy, p2p and co, membership then linearize for mb and
    onen, find_crown then rsc_linearize for rsc."""
    ordered = []
    real = graph.order

    def counting(adj):
        ordered.append(adj)
        return real(adj)

    monkeypatch.setattr(graph, "order", counting)
    rng = random.Random(14)
    charts = [example(name) for name in EXAMPLES]
    charts += [random_msc(rng, max_events=12, procs=("p", "q", "r", "s")) for _ in range(80)]
    witnessed = dict.fromkeys(("asy", "p2p", "co", "mb", "onen", "rsc"), 0)
    for chart in charts:
        for model in witnessed:
            m = Msc(chart.processes, chart.labels, chart.proc_order, chart.matching)
            ordered.clear()
            if model == "rsc":
                find_crown(m)
                relation = relations.crown_digraph(m)
            elif model in ("mb", "onen"):
                membership(m, model)
                relation = relations.scheduling(m, model)
            else:
                validate(m)
                relation = m.hb_generators
            if membership(m, model)[0]:
                if model == "rsc":
                    rsc_linearize(m)
                else:
                    linearize(m, model)
                witnessed[model] += 1
            assert sum(adj is relation.adjacency() for adj in ordered) == 1, (model, m)
            assert len(set(map(id, ordered))) == len(ordered), (model, m)
    assert min(witnessed.values()) > 10

"""
The benchmark's three workloads.

A workload turns a seed into a fixed list of inputs, built from blocks
of the same composition (the same input kinds in the same size strata;
only the random structure differs).  A run serves whole passes over
that list, so every run of a seed times the same inputs, however fast
the program is.

Each workload supplies:

* `inputs(seed)`: the inputs, as `Input(ident, text, ref)` where `text`
  is what the program reads and `ref` what the checker knows;
* `request(inp)`: one client request through the public API, returning
  what the client receives;
* `check(inp, result, cache)`: the problems the checker finds;
* `digest(result)`: a comparable summary, so a repeated input is checked
  against its first, fully checked result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import check
import gen
from msckit.bounded import decompose_exchanges, exists_k_bounded, forall_k_bounded, minimal_exists_k
from msckit.cfsm import explore, find_run
from msckit.classify import MODELS, classify
from msckit.corpus import EXAMPLES
from msckit.io import parse_cfsm, parse_msc, serialize_msc
from msckit.mso import builtin, evaluate, parse_formula
from msckit.network import execution_to_msc, linearization_to_execution, network_for, run_execution
from msckit.stw import special_treewidth

PROCS = ("p", "q", "r", "s")
NETWORK_KINDS = ("p2p", "mb", "onen", "nn")

# Formulas in the README's MSO syntax, parsed from text, each with what
# the checker expects it to equal: a fact about the chart or a model's
# verdict.  The defining formulas are evaluated through `mso.builtin`
# already, so only one is looked up by name here.
README_FORMULAS = {
    "~E x. (send(x) & ~matched(x))": "no-unmatched",
    "A x. A y. (x ->+ y) => (x < y)": "true",
    "~E x. mbp(x, x)": "mb",
    "~E x. bowtie+(x, x)": "nn",
    "phi_nn": "nn",
}


@dataclass
class Input:
    ident: str
    text: str
    ref: dict = field(default_factory=dict)


def _digest_report(report):
    return (
        tuple(sorted(report.verdicts.items())),
        tuple((m, lin.order) for m, lin in sorted(report.witnesses.items())),
        tuple(sorted(report.negatives.items())),
    )


def _digest_decomposition(dec):
    if hasattr(dec, "factors"):
        return dec.factors
    return (dec.reason, dec.receive, dec.send, dec.events)


# -- large-msc ------------------------------------------------------------------


class LargeMsc:
    """72 MSCs of 100-250 events on 2-4 processes: FIFO chains,
    executions of each canonical network, and bag-semantics random
    charts, through the polynomial relational pipeline."""

    name = "large-msc"
    kinds = ("chain",) + NETWORK_KINDS + ("bag",)
    # Three size strata; within a stratum the six kinds take the six sizes
    # lo, lo+10, ..., hi in an order that rotates with the block, so every
    # block has the same sizes and the latencies form no gaps.
    strata = ((100, 150), (150, 200), (200, 250))
    n_blocks = 4

    def inputs(self, seed: int) -> list[Input]:
        rng = random.Random(seed)
        out = []
        for b in range(self.n_blocks):
            for si, (lo, hi) in enumerate(self.strata):
                for ki, kind in enumerate(self.kinds):
                    size = lo + (hi - lo) // 5 * ((b + ki) % 6)
                    procs = PROCS[: 2 + (ki + si) % 3]
                    ident = f"b{b}-{kind}-{size}-{len(procs)}p"
                    if kind == "chain":
                        msc = gen.fifo_chain(size // 2)
                        ref = {"at_least": set(MODELS), "chain": size // 2}
                    elif kind == "bag":
                        msc = gen.bag_random_msc(rng, size, procs)
                        ref = {}
                    else:
                        msc = gen.network_msc(rng, kind, size, procs)
                        ref = {"at_least": check.classes_from(kind)}
                    ref["ident"] = ident
                    out.append(Input(ident, serialize_msc(msc), ref))
        return out

    def request(self, inp: Input):
        msc = parse_msc(inp.text)
        report = classify(msc)
        replays = {}
        for kind in NETWORK_KINDS:
            if kind in report.witnesses:
                actions = linearization_to_execution(msc, report.witnesses[kind])
                ok = run_execution(network_for(kind, msc.processes), actions).ok
                replays[kind] = (ok, execution_to_msc(actions, kind, msc.processes) if ok else None)
        bounded = {}
        for model in ("asy", "p2p") if report.verdicts["p2p"] else ("asy",):
            for k in (1, 2):
                bounded[(model, k)] = (
                    exists_k_bounded(msc, k, model),
                    forall_k_bounded(msc, k, model),
                )
        return msc, report, replays, bounded, decompose_exchanges(msc)

    def check(self, inp: Input, result, cache: dict) -> list[str]:
        msc, report, replays, bounded, dec = result
        chart = check.Chart(msc)
        problems = check.check_report(chart, report, inp.ref, cache)
        for kind in NETWORK_KINDS:
            if kind in report.witnesses and not check.replay_ok(
                msc, kind, report.witnesses[kind], replays.get(kind)
            ):
                problems.append(f"{kind}: witness does not replay to an isomorphic MSC")
        problems += check.check_bounded(chart, bounded, inp.ref.get("chain"))
        problems += check.check_decomposition(chart, dec)
        return problems

    def digest(self, result):
        msc, report, replays, bounded, dec = result
        return (
            check.canon(msc),
            _digest_report(report),
            tuple((k, ok, check.canon(m) if m is not None else None) for k, (ok, m) in sorted(replays.items())),
            tuple(sorted(bounded.items())),
            _digest_decomposition(dec),
        )


# -- small-exact ----------------------------------------------------------------


class SmallExact:
    """The 16 corpus charts plus 100 seeded network and bag-random charts
    of 6-19 events, through the exponential layers: the special-treewidth
    game and the MSO evaluator."""

    name = "small-exact"
    kinds = NETWORK_KINDS + ("bag",)
    # The sizes each kind takes in a block.  Request time grows about 1.4x
    # per event here, so four in ten charts have 12 events: the median
    # then falls inside a plateau of like-sized requests instead of on the
    # steep part of the curve.  The largest size comes twice so that the
    # tail percentile (p91 of a pass) falls inside it too.
    sizes = (6, 8, 10, 12, 12, 12, 12, 15, 19, 19)
    n_blocks = 2

    def inputs(self, seed: int) -> list[Input]:
        import importlib.resources

        corpus = []
        for name in EXAMPLES:
            text = (
                importlib.resources.files("msckit").joinpath("corpus", f"{name}.msc").read_text(encoding="utf-8")
            )
            corpus.append(Input(name, text, {"expected": check.EXPECTED_CORPUS[name], "ident": name}))
        rng = random.Random(seed)
        out = corpus
        for b in range(self.n_blocks):
            for si, size in enumerate(self.sizes):
                for ki, kind in enumerate(self.kinds):
                    procs = PROCS[: 2 + (ki + si) % 2]
                    ident = f"b{b}-{si}-{kind}-{size}-{len(procs)}p"
                    if kind == "bag":
                        msc = gen.bag_random_msc(rng, size, procs)
                        ref = {"ident": ident}
                    else:
                        msc = gen.network_msc(rng, kind, size, procs)
                        ref = {"at_least": check.classes_from(kind), "ident": ident}
                    out.append(Input(ident, serialize_msc(msc), ref))
        return out

    def request(self, inp: Input):
        msc = parse_msc(inp.text)
        report = classify(msc)
        width = special_treewidth(msc, 4)
        mso_verdicts = {m: evaluate(msc, builtin(m)) for m in MODELS}
        formulas = {text: evaluate(msc, parse_formula(text)) for text in README_FORMULAS}
        return msc, report, width, mso_verdicts, formulas, minimal_exists_k(msc, "asy"), decompose_exchanges(msc)

    def check(self, inp: Input, result, cache: dict) -> list[str]:
        msc, report, width, mso_verdicts, formulas, min_k, dec = result
        chart = check.Chart(msc)
        problems = check.check_report(chart, report, inp.ref, cache)
        for kind in NETWORK_KINDS:
            if kind in report.witnesses and not check.replay_ok(msc, kind, report.witnesses[kind]):
                problems.append(f"{kind}: witness does not replay to an isomorphic MSC")
        for m in MODELS:
            if mso_verdicts[m] != report.verdicts[m]:
                problems.append(f"{m}: MSO {mso_verdicts[m]} != relational {report.verdicts[m]}")
        facts = {"true": True, "no-unmatched": all(s in chart.match for s in chart.sends), **report.verdicts}
        for text, key in README_FORMULAS.items():
            if formulas[text] != facts[key]:
                problems.append(f"formula {text!r}: {formulas[text]} != {facts[key]}")
        if width is not None and not 0 <= width <= 4:
            problems.append(f"stw {width} outside 0..4")
        if len(msc.labels) <= check.ORACLE_EVENTS:
            want_k = check.min_bound_by_enumeration(chart)
            if min_k != want_k:
                problems.append(f"minimal k {min_k} != enumerated {want_k}")
        problems += check.check_decomposition(chart, dec)
        return problems

    def digest(self, result):
        msc, report, width, mso_verdicts, formulas, min_k, dec = result
        return (
            check.canon(msc),
            _digest_report(report),
            width,
            tuple(sorted(mso_verdicts.items())),
            tuple(sorted(formulas.items())),
            min_k,
            _digest_decomposition(dec),
        )


# -- cfsm-explore -----------------------------------------------------------------


class CfsmExplore:
    """40 seeded 3-process protocol systems explored to horizon 7
    under nn, onen, mb and p2p in turn: thousands of tiny, freshly built
    charts per request."""

    name = "cfsm-explore"
    # The request times of the four models form separate clusters
    # (p2p and mb fastest, nn slowest).  With nn twice per block, the
    # median falls inside the onen cluster and the tail (p75 of a pass)
    # inside the nn one, not in a gap between clusters where they would
    # swing with single systems.
    models = ("nn", "onen", "mb", "p2p", "nn")
    horizon = 7
    n_blocks = 8

    def inputs(self, seed: int) -> list[Input]:
        rng = random.Random(seed)
        out = []
        for b in range(self.n_blocks):
            for model in self.models:
                text, spec = gen.protocol_cfsm(rng)
                out.append(Input(f"b{b}-{len(out)}-{model}", text, {"spec": spec, "model": model}))
        return out

    def request(self, inp: Input):
        system = parse_cfsm(inp.text)
        return system, list(explore(system, inp.ref["model"], self.horizon))

    def check(self, inp: Input, result, cache: dict) -> list[str]:
        system, mscs = result
        problems = []
        no_run = sum(1 for m in mscs if find_run(system, m) is None)
        if no_run:
            problems.append(f"{no_run} emitted MSCs have no run")
        got = [check.canon(m) for m in mscs]
        ref = check.reference_behaviours(inp.ref["spec"], inp.ref["model"], self.horizon)
        if len(got) != len(set(got)):
            problems.append("an isomorphism class is emitted twice")
        if set(got) != ref:
            problems.append(
                f"emitted {len(set(got))} classes, reference {len(ref)}: "
                f"{len(set(got) - ref)} extra, {len(ref - set(got))} missing"
            )
        return problems

    def digest(self, result):
        return tuple(check.canon(m) for m in result[1])


WORKLOADS = {w.name: w for w in (LargeMsc(), SmallExact(), CfsmExplore())}

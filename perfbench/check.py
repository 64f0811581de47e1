"""
Verdict checker.

Every check returns a list of problems (empty when the result is
right).  The references are independent of the code being timed
wherever that is affordable:

* happens-before, the negative witnesses of every model, the
  k-boundedness closed forms and the exchange factorisations are
  re-derived here from the process lines and the matching alone;
* membership comes from how an input was built (chains are in all
  seven classes, an execution of a canonical network is in that
  network's class and every larger one), from the hand-written corpus
  table of the acceptance test, and from the brute-force enumeration
  oracle on inputs of at most ORACLE_EVENTS events;
* relational verdicts must agree with the MSO defining formulas;
* witnesses must pass `check_linearization` and, for the network
  models, replay on their network to an isomorphic MSC;
* CFSM exploration is compared with a breadth-first run of the machines
  against the canonical queue network, written here.
"""

from __future__ import annotations

from msckit.classify import MODELS, check_linearization, oracle_membership
from msckit.core import MscError
from msckit.network import execution_to_msc, linearization_to_execution, network_for, run_execution

ORACLE_EVENTS = 10

# The hand-written table of tests/test_acceptance.py.
EXPECTED_CORPUS = {
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


def classes_from(model: str) -> set[str]:
    """The class of `model` and every larger one."""
    return set(MODELS[: MODELS.index(model) + 1])


# -- structure re-derived from the chart ------------------------------------


class Chart:
    """Positions, happens-before and the model orderings of an MSC,
    computed from its process lines and matching only."""

    def __init__(self, msc):
        self.msc = msc
        self.pos = {e: (p, i) for p, line in msc.proc_order.items() for i, e in enumerate(line)}
        self.match = dict(msc.matching)
        self.rmatch = {r: s for s, r in self.match.items()}
        self.sends = [e for e in sorted(msc.labels) if msc.labels[e].is_send]
        self.succ: dict[int, list[int]] = {e: [] for e in msc.labels}
        for line in msc.proc_order.values():
            for a, b in zip(line, line[1:]):
                self.succ[a].append(b)
        for s, r in self.match.items():
            self.succ[s].append(r)
        self._reach: dict[int, set[int]] = {}
        self._nn_adj: dict[int, list[int]] | None = None
        self._nn_reach: dict[int, set[int]] = {}

    def label(self, e):
        return self.msc.labels[e]

    def line_before(self, a: int, b: int) -> bool:
        pa, pb = self.pos[a], self.pos[b]
        return pa[0] == pb[0] and pa[1] < pb[1]

    def before(self, a: int, b: int) -> bool:
        """Strict happens-before."""
        return b in _reach(self.succ, a, self._reach)

    # one edge of each scheduling relation, from its definition

    def mb_edge(self, a: int, b: int) -> bool:
        if self._base_edge(a, b):
            return True
        la, lb = self.label(a), self.label(b)
        if a == b or not (la.is_send and lb.is_send) or la.receiver != lb.receiver:
            return False
        if a in self.match and b not in self.match:
            return True
        return a in self.match and b in self.match and self.line_before(self.match[a], self.match[b])

    def onen_edge(self, a: int, b: int) -> bool:
        if self._base_edge(a, b):
            return True
        la, lb = self.label(a), self.label(b)
        if a != b and la.is_send and lb.is_send and la.sender == lb.sender:
            return a in self.match and b not in self.match
        if a in self.rmatch and b in self.rmatch:
            s1, s2 = self.rmatch[a], self.rmatch[b]
            return self.label(s1).sender == self.label(s2).sender and self.line_before(s1, s2)
        return False

    def _base_edge(self, a: int, b: int) -> bool:
        return b in self.succ[a]

    def nn_rel(self, a: int, b: int) -> bool:
        """Transitive closure of succession, matching, mailbox and 1-n."""
        if self._nn_adj is None:
            events = sorted(self.msc.labels)
            self._nn_adj = {
                a2: [b2 for b2 in events if self.mb_edge(a2, b2) or self.onen_edge(a2, b2)]
                for a2 in events
            }
        return b in _reach(self._nn_adj, a, self._nn_reach)

    def bowtie_edge(self, a: int, b: int) -> bool:
        if self.nn_rel(a, b):
            return True
        if a == b:
            return False
        if a in self.rmatch and b in self.rmatch:
            return self.nn_rel(self.rmatch[a], self.rmatch[b])
        la, lb = self.label(a), self.label(b)
        if la.is_send and lb.is_send and a in self.match:
            return b not in self.match or self.nn_rel(self.match[a], self.match[b])
        return False


def _reach(adj: dict[int, list[int]], a: int, memo: dict[int, set[int]]) -> set[int]:
    if a not in memo:
        seen: set[int] = set()
        stack = list(adj[a])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(adj[n])
        memo[a] = seen
    return memo[a]


def canon(msc):
    """Isomorphism-invariant form: per-process label sequences and the
    matching in (process, index) coordinates."""
    pos = {e: (p, i) for p, line in msc.proc_order.items() for i, e in enumerate(line)}

    def lab(e):
        a = msc.labels[e]
        return ("!" if a.is_send else "?", a.sender, a.receiver, a.payload)

    lines = tuple(
        (p, tuple(lab(e) for e in msc.proc_order[p])) for p in sorted(msc.proc_order) if msc.proc_order[p]
    )
    return lines, tuple(sorted((pos[s], pos[r]) for s, r in msc.matching.items()))


# -- class verdicts and witnesses ---------------------------------------------


def check_report(chart: Chart, report, ref: dict, oracle_cache: dict) -> list[str]:
    """Verdicts, positive witnesses (clause check) and negative
    witnesses of a ClassReport."""
    out = []
    verdicts = report.verdicts
    members = {m for m in MODELS if verdicts[m]}
    for smaller, larger in zip(MODELS[1:], MODELS):
        if verdicts[smaller] and not verdicts[larger]:
            out.append(f"hierarchy: {smaller} without {larger}")
    if "expected" in ref and members != ref["expected"]:
        out.append(f"members {sorted(members)} != table {sorted(ref['expected'])}")
    if "at_least" in ref and not ref["at_least"] <= members:
        out.append(f"members {sorted(members)} miss {sorted(ref['at_least'] - members)}")
    msc = chart.msc
    if len(msc.labels) <= ORACLE_EVENTS:
        key = ref["ident"]
        if key not in oracle_cache:
            oracle_cache[key] = {m: oracle_membership(msc, m, limit=ORACLE_EVENTS) for m in MODELS}
        for m, want in oracle_cache[key].items():
            if verdicts[m] != want:
                out.append(f"{m}: verdict {verdicts[m]} != oracle {want}")
    for m in MODELS:
        if verdicts[m]:
            lin = report.witnesses.get(m)
            if lin is None:
                out.append(f"{m}: member without witness")
                continue
            try:
                if not check_linearization(msc, lin, m):
                    out.append(f"{m}: witness fails its clause")
            except MscError as exc:
                out.append(f"{m}: witness is not a linearization ({exc})")
        else:
            w = report.negatives.get(m)
            if w is None:
                out.append(f"{m}: non-member without witness")
            elif not negative_ok(chart, m, tuple(w)):
                out.append(f"{m}: negative witness {tuple(w)} does not hold")
    return out


def negative_ok(chart: Chart, model: str, w: tuple[int, ...]) -> bool:
    if model in ("p2p", "co"):
        if len(w) != 2:
            return False
        s1, s2 = w
        l1, l2 = chart.label(s1), chart.label(s2)
        if not (l1.is_send and l2.is_send) or s1 == s2:
            return False
        if model == "p2p":
            related = l1.channel == l2.channel and chart.line_before(s1, s2)
        else:
            related = l1.receiver == l2.receiver and chart.before(s1, s2)
        if not related or s2 not in chart.match:
            return False
        return s1 not in chart.match or chart.line_before(chart.match[s2], chart.match[s1])
    if model == "rsc":
        if len(w) == 1:
            return chart.label(w[0]).is_send and w[0] not in chart.match
        if len(w) < 4 or len(w) % 2:
            return False
        pairs = list(zip(w[0::2], w[1::2]))
        if any(chart.match.get(s) != r for s, r in pairs):
            return False
        return all(chart.before(pairs[i][0], pairs[(i + 1) % len(pairs)][1]) for i in range(len(pairs)))
    edge = {"mb": chart.mb_edge, "onen": chart.onen_edge, "nn": chart.bowtie_edge}[model]
    if len(w) < 2 or w[0] != w[-1]:
        return False
    return all(edge(a, b) for a, b in zip(w, w[1:]))


def replay_ok(msc, kind: str, witness, replayed: tuple[bool, object] | None = None) -> bool:
    """The witness of a network model runs on that network and rebuilds
    an isomorphic MSC.  `replayed` carries a replay the request already
    made, as (accepted, rebuilt MSC)."""
    if replayed is None:
        actions = linearization_to_execution(msc, witness)
        ok = run_execution(network_for(kind, msc.processes), actions).ok
        replayed = (ok, execution_to_msc(actions, kind, msc.processes) if ok else None)
    ok, rebuilt = replayed
    return bool(ok) and rebuilt is not None and canon(rebuilt) == canon(msc)


# -- boundedness and exchanges ----------------------------------------------------


def check_bounded(chart: Chart, results: dict, chain_messages: int | None) -> list[str]:
    """`results[(model, k)] = (exists, forall)`.  Implications between
    the answers, channel-count closed forms, and exact answers on the
    single-channel chain of n messages (exists iff k >= 1, forall iff
    n <= k)."""
    out = []
    per_channel: dict[tuple[str, str], list[int]] = {}
    for s in chart.sends:
        per_channel.setdefault(chart.label(s).channel, []).append(s)
    max_unmatched = max(
        (sum(1 for s in ss if s not in chart.match) for ss in per_channel.values()), default=0
    )
    max_sends = max((len(ss) for ss in per_channel.values()), default=0)
    for (model, k), (ex, fa) in sorted(results.items()):
        tag = f"{model} k={k}"
        if fa and not ex:
            out.append(f"{tag}: forall without exists")
        if max_unmatched > k and ex:
            out.append(f"{tag}: exists despite {max_unmatched} unmatched sends on a channel")
        if max_sends <= k and max_unmatched <= k and not fa:
            out.append(f"{tag}: not forall with at most {max_sends} sends per channel")
        if (model, k + 1) in results:
            ex2, fa2 = results[(model, k + 1)]
            if (ex and not ex2) or (fa and not fa2):
                out.append(f"{tag}: not monotone in k")
        if chain_messages is not None and (ex, fa) != (k >= 1, chain_messages <= k):
            out.append(f"{tag}: chain answer {(ex, fa)}")
    return out


def check_decomposition(chart: Chart, dec) -> list[str]:
    if hasattr(dec, "factors"):
        factors = [set(f) for f in dec.factors]
        seen = [e for f in dec.factors for e in f]
        if sorted(seen) != sorted(chart.msc.labels):
            return ["factors do not partition the events"]
        where = {e: i for i, f in enumerate(factors) for e in f}
        for s, r in chart.match.items():
            if where[s] != where[r]:
                return [f"message {s}->{r} split across factors"]
        for i, f in enumerate(factors):
            recvs = [e for e in f if not chart.label(e).is_send]
            sends = [e for e in f if chart.label(e).is_send]
            if any(chart.before(r, s) for r in recvs for s in sends):
                return [f"factor {i} is not an exchange"]
        for a in chart.msc.labels:
            for b in _reach(chart.succ, a, chart._reach):
                if where[b] < where[a]:
                    return [f"event {a} of factor {where[a]} precedes {b} of factor {where[b]}"]
        return []
    if dec.reason == "receive-before-send":
        r, s = dec.receive, dec.send
        if chart.label(r).is_send or not chart.label(s).is_send or not chart.before(r, s):
            return [f"failure witness {r} before {s} does not hold"]
        return []
    return [f"unexpected decomposition failure {dec.reason}"]


def min_bound_by_enumeration(chart: Chart) -> int:
    """Least k such that some linearization keeps every channel at most
    k full, by depth-first search over linearizations (branch and
    bound on the occupancy reached so far)."""
    preds = {e: 0 for e in chart.msc.labels}
    for a, bs in chart.succ.items():
        for b in bs:
            preds[b] += 1
    best = [len(chart.msc.labels)]
    occupancy: dict[tuple[str, str], int] = {}

    def dfs(ready: list[int], remaining: int, peak: int) -> None:
        if peak >= best[0]:
            return
        if remaining == 0:
            best[0] = peak
            return
        for e in sorted(ready):
            a = chart.label(e)
            ch = a.channel
            occupancy[ch] = occupancy.get(ch, 0) + (1 if a.is_send else -1)
            nxt = [x for x in ready if x != e]
            for f in chart.succ[e]:
                preds[f] -= 1
                if preds[f] == 0:
                    nxt.append(f)
            dfs(nxt, remaining - 1, max(peak, occupancy[ch]))
            for f in chart.succ[e]:
                preds[f] += 1
            occupancy[ch] -= 1 if a.is_send else -1

    dfs([e for e, n in preds.items() if n == 0], len(preds), 0)
    return best[0]


# -- CFSM exploration reference ------------------------------------------------------


def _queue_of(kind: str, p: str, q: str):
    return {"p2p": (p, q), "mb": q, "onen": p, "nn": 0}[kind]


def reference_behaviours(spec: dict, kind: str, horizon: int) -> set:
    """Canonical forms of every MSC of at most `horizon` events that the
    machines in `spec` produce on the canonical `kind` network.  Pending
    messages at the end are unmatched sends.  States are deduplicated on
    (machine states, chart so far, queue contents)."""
    procs = tuple(spec)
    index = {p: i for i, p in enumerate(procs)}
    steps = {p: {} for p in procs}
    for p, trans in spec.items():
        for src, mark, peer, payload, dst in trans:
            steps[p].setdefault(src, []).append((mark, peer, payload, dst))
    start = (tuple("s0" for _ in procs), tuple(() for _ in procs), frozenset(), ())
    seen = {start}
    level = [start]
    forms = set()
    for n in range(horizon + 1):
        nxt = []
        for states, lines, matching, queues in level:
            forms.add(
                (
                    tuple((p, lines[index[p]]) for p in sorted(procs) if lines[index[p]]),
                    tuple(sorted(matching)),
                )
            )
            if n == horizon:
                continue
            qmap = dict(queues)
            for pi, p in enumerate(procs):
                for mark, peer, payload, dst in steps[p].get(states[pi], ()):
                    new_states = states[:pi] + (dst,) + states[pi + 1 :]
                    at = (p, len(lines[pi]))
                    if mark == "!":
                        label = ("!", p, peer, payload)
                        qid = _queue_of(kind, p, peer)
                        q2 = dict(qmap)
                        q2[qid] = qmap.get(qid, ()) + (((p, peer, payload), at),)
                        new_matching = matching
                    else:
                        label = ("?", peer, p, payload)
                        qid = _queue_of(kind, peer, p)
                        entries = qmap.get(qid, ())
                        if not entries or entries[0][0] != (peer, p, payload):
                            continue
                        q2 = dict(qmap)
                        q2[qid] = entries[1:]
                        new_matching = matching | {(entries[0][1], at)}
                    new_lines = lines[:pi] + (lines[pi] + (label,),) + lines[pi + 1 :]
                    node = (
                        new_states,
                        new_lines,
                        new_matching,
                        tuple(sorted((k, v) for k, v in q2.items() if v)),
                    )
                    if node not in seen:
                        seen.add(node)
                        nxt.append(node)
        level = nxt
    return forms

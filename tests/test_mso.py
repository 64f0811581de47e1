import dataclasses
import gc
import random
import weakref

import pytest

from conftest import random_msc
from msckit import mso, relations
from msckit.bounded import exists_k_bounded, forall_k_bounded
from msckit.classify import MODELS, classify, membership
from msckit.core import EMPTY_MSC, Msc, MscError, RelationGraph, recv, send
from msckit.corpus import EXAMPLES, example
from msckit.mso import (
    MAX_NESTING,
    AndF,
    ClosureRel,
    DefRel,
    EqF,
    Evaluator,
    ExistsF,
    ForallF,
    IffF,
    ImpliesF,
    InF,
    LabelF,
    MsoSyntaxError,
    NamedRel,
    NotF,
    OrF,
    PredF,
    PrimRel,
    RelF,
    SoLimitError,
    TrueF,
    UnionRel,
    builtin,
    builtin_bounded,
    evaluate,
    free_vars,
    parse_formula,
    rel_free_vars,
)
from msckit.relations import NotP2pError

NO_UNMATCHED = "~E x. (send(x) & ~matched(x))"


def test_parse_no_unmatched():
    f = parse_formula(NO_UNMATCHED)
    assert not free_vars(f)
    assert evaluate(example("roundtrip"), f)
    assert not evaluate(example("blocked"), f)


def test_parse_true():
    assert evaluate(example("relay"), parse_formula("true"))
    assert evaluate(EMPTY_MSC, parse_formula("true"))


def test_parse_builtin_name():
    f = parse_formula("phi_pp")
    assert evaluate(example("overtake"), f)
    assert not evaluate(example("crossing"), f)


def test_syntax_error_position():
    with pytest.raises(MsoSyntaxError) as exc:
        parse_formula("E x. (send(x) &")
    assert exc.value.pos >= 14


def test_parse_quantifiers_and_sets():
    # a set containing one event and closed forward must hold everything
    f = parse_formula("A x. A y. (x ->+ y) => (x < y)")
    assert evaluate(example("relay"), f)
    g = parse_formula("E X. A x. x in X")
    assert evaluate(example("crossing"), g)


@pytest.mark.parametrize(
    "text, name, pos",
    [
        ("E x. E y. x in y", "y", 15),  # first-order variable as a set
        ("E X. send(X)", "X", 10),  # set variable as an event
        ("E X. E Y. X in Y", "X", 10),  # set variable as an element
        ("E X. A x. X < x", "X", 10),
        ("E x. E Y. mb(x, Y)", "Y", 16),
    ],
)
def test_variable_sorts_are_checked(text, name, pos):
    with pytest.raises(MsoSyntaxError) as exc:
        parse_formula(text)
    assert exc.value.pos == pos and repr(name) in str(exc.value)


def test_parse_label_atom():
    f = parse_formula("E x. label(x) = !(p,q,m1)")
    assert evaluate(example("crossing"), f)
    assert not evaluate(example("two_targets"), f)  # m1 goes to r there


def test_free_variable_env():
    f = parse_formula("matched(x)")
    m = example("blocked")
    assert not evaluate(m, f, env={"x": 0})
    assert evaluate(m, f, env={"x": 1})
    from msckit.core import MscError

    with pytest.raises(MscError):
        evaluate(m, f)


def test_named_relation_atoms():
    m = example("mailbox_cross")
    assert evaluate(m, parse_formula("E x. E y. mb(x, y)"))
    assert evaluate(m, parse_formula("E x. mbp(x, x)"))  # the mailbox cycle
    assert not evaluate(example("two_targets"), parse_formula("E x. mbp(x, x)"))
    assert evaluate(example("handshake"), parse_formula("E x. E y. (prox(x, y) & prox*(y, x))"))


def test_builtin_asy_is_true():
    for name in ("relay", "blocked"):
        assert evaluate(example(name), builtin("asy"))


def test_builtin_examples():
    assert not evaluate(example("mailbox_cross"), builtin("mb"))
    assert not evaluate(example("handshake"), builtin("rsc"))
    assert evaluate(example("overtake"), builtin("p2p"))


@pytest.mark.parametrize("name", [f for f in EXAMPLES if len(example(f).events) <= 12])
def test_builtins_match_classifier_on_corpus(name):
    m = example(name)
    report = classify(m, with_witnesses=False)
    for model in MODELS[1:]:
        assert evaluate(m, builtin(model)) == report.verdicts[model], model
        assert evaluate(m, builtin(model, delegated=True)) == report.verdicts[model], model


def test_builtins_match_classifier_on_random():
    rng = random.Random(51)
    for _ in range(60):
        m = random_msc(rng, max_events=6)
        report = classify(m, with_witnesses=False)
        for model in MODELS[1:]:
            assert evaluate(m, builtin(model)) == report.verdicts[model]


CLOSURE_FORMS = (
    "A x. A y. (x ->+ y) => (x < y)",
    "E x. E y. (x <= y & ~(x = y))",
    "E x. E y. mb+(x, y)",
    "E x. mbp(x, x)",
    "E x. onenp(x, x)",
    "E x. E y. (msg(x, y) & x ->* y)",
)


def test_native_closure_equals_subset_encoding():
    small = [example(f) for f in EXAMPLES if len(example(f).events) <= 8]
    rng = random.Random(52)
    small += [random_msc(rng, max_events=6) for _ in range(20)]
    for m in small:
        for text in CLOSURE_FORMS:
            f = parse_formula(text)
            native = evaluate(m, f, closure_mode="native")
            subset = evaluate(m, f, closure_mode="subset", so_limit=8)
            assert native == subset, (text,)


def test_so_limit_guard():
    f = parse_formula("E X. A x. x in X")
    with pytest.raises(SoLimitError):
        evaluate(example("overtake"), f, so_limit=4)


def test_bounded_formulas_match_bounded_module():
    corpus = [example(f) for f in EXAMPLES if len(example(f).events) <= 11]
    for m in corpus:
        for model in ("asy", "p2p", "co", "mb", "onen", "nn"):
            member = membership(m, model)[0]
            for k in (1, 2):
                for universal in (False, True):
                    got = evaluate(m, builtin_bounded(model, k, universal))
                    if member:
                        fn = forall_k_bounded if universal else exists_k_bounded
                        want = fn(m, k, model)
                    else:
                        want = False
                    assert got == want, (model, k, universal)


def test_bounded_formulas_random():
    rng = random.Random(53)
    for _ in range(40):
        m = random_msc(rng, max_events=6)
        for model in ("asy", "mb", "nn"):
            member = membership(m, model)[0]
            for universal in (False, True):
                got = evaluate(m, builtin_bounded(model, 1, universal))
                if member:
                    fn = forall_k_bounded if universal else exists_k_bounded
                    want = fn(m, 1, model)
                else:
                    want = False
                assert got == want


def _ast_nodes(node):
    """Every AST node object reachable from `node`, each once."""
    seen, stack = {}, [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen[id(n)] = n
        for f in dataclasses.fields(n):
            value = getattr(n, f.name)
            children = value if isinstance(value, tuple) else (value,)
            stack.extend(c for c in children if dataclasses.is_dataclass(c))
    return list(seen.values())


@pytest.mark.parametrize("model, xvar", [("mb", "_mbx"), ("onen", "_onx"), ("nn", "_btx")])
def test_bounded_formula_builds_its_schedule_once(model, xvar):
    # the membership conjunct and the schedule share one relation object
    rng = random.Random(54)
    charts = [example(f) for f in EXAMPLES if len(example(f).events) <= 6]
    charts += [random_msc(rng, max_events=7) for _ in range(6)]
    for universal in (False, True):
        f = builtin_bounded(model, 1, universal)
        defined = [n for n in _ast_nodes(f) if isinstance(n, DefRel) and n.xvar == xvar]
        assert len(defined) == 1
        for m in charts:
            assert_agrees(m, f)


def test_infix_equality_and_sets():
    m = example("crossing")
    assert evaluate(m, parse_formula("A x. x = x"))
    assert not evaluate(m, parse_formula("E x. x != x"))
    assert evaluate(m, parse_formula("E X. E x. (x in X & A y. y in X => y = x)"))


def test_generated_formulas_do_not_depend_on_history():
    for model in MODELS:
        assert builtin(model) == builtin(model)
        assert builtin(model, delegated=True) == builtin(model, delegated=True)
    for model in BOUNDED_MODELS:
        for k in (0, 1, 2):
            for universal in (False, True):
                assert builtin_bounded(model, k, universal) == builtin_bounded(model, k, universal)
    assert parse_formula("E x. matched(x)") == parse_formula("E x. matched(x)")


def test_fresh_names_avoid_the_formula_own():
    # `matched` quantifies a fresh variable, which must not capture `_m1`
    renamed = parse_formula("E _m1. (send(_m1) & ~matched(_m1))")
    plain = parse_formula("E x. (send(x) & ~matched(x))")
    for name in EXAMPLES:
        assert evaluate(example(name), renamed) == evaluate(example(name), plain)


@pytest.mark.parametrize(
    "text",
    [
        "~" * 5000 + "true",
        "(" * 3000 + "true" + ")" * 3000,
        "E x. " + " & ".join(["x = x"] * 3000),
        " => ".join(["true"] * 3000),
    ],
    ids=["negations", "parentheses", "conjunctions", "implications"],
)
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(MsoSyntaxError) as exc:
        parse_formula(text)
    assert "nested deeper" in str(exc.value)
    assert 0 < exc.value.pos < len(text)


@pytest.mark.parametrize(
    "text",
    [
        "~" * MAX_NESTING + "true",
        "(" * MAX_NESTING + "true" + ")" * MAX_NESTING,
        "E x. " + " & ".join(["x = x"] * MAX_NESTING),
    ],
    ids=["negations", "parentheses", "conjunctions"],
)
def test_nesting_at_the_cap_parses_and_evaluates(text):
    assert evaluate(example("relay"), parse_formula(text))


def atom_edges(m, rel):
    """The pairs the compiled evaluator puts in relation `rel` on `m`."""
    atom = RelF(rel, "x", "y")
    return {(a, b) for a in m.events for b in m.events if evaluate(m, atom, {"x": a, "y": b})}


def test_named_relations_come_from_one_table():
    m = example("overtake")
    for name in relations.NAMED:
        if name in relations.K_INDEXED:
            for k in (0, 1, 2):
                text = f"E x. E y. {name}{k}(x, y)"
                assert parse_formula(text) == ExistsF("x", False, ExistsF(
                    "y", False, RelF(NamedRel(name, k), "x", "y")
                ))
                assert atom_edges(m, NamedRel(name, k)) == relations.named(m, name, k).edges
            with pytest.raises(MsoSyntaxError):
                parse_formula(f"E x. {name}(x, x)")
        else:
            assert parse_formula(f"E x. {name}+(x, x)") == ExistsF(
                "x", False, RelF(ClosureRel(NamedRel(name), False), "x", "x")
            )
            assert atom_edges(m, NamedRel(name)) == relations.named(m, name).edges
    assert atom_edges(m, NamedRel("relb", 0)) == relations.relb(m, 0).edges
    assert atom_edges(m, NamedRel("relb")) == relations.relb(m, 1).edges
    with pytest.raises(MscError):
        evaluate(m, RelF(NamedRel("nope"), "x", "x"), {"x": m.events[0]})
    with pytest.raises(MsoSyntaxError):
        parse_formula("E x. nope(x, x)")
    with pytest.raises(MsoSyntaxError):
        parse_formula("E x. mb2(x, x)")


def test_guards_run_before_evaluation(monkeypatch):
    def refuse(*args):
        raise AssertionError("the formula was compiled")

    monkeypatch.setattr(mso, "_Compiler", refuse)
    with pytest.raises(MscError, match="unassigned"):
        evaluate(example("blocked"), parse_formula("matched(x)"))
    with pytest.raises(SoLimitError):
        evaluate(example("overtake"), parse_formula("E X. A x. x in X"), so_limit=4)
    with pytest.raises(SoLimitError):
        evaluate(
            example("overtake"), parse_formula("E x. mb+(x, x)"), closure_mode="subset", so_limit=4
        )
    # a cached plan answers the guards from the facts it keeps, without
    # compiling again, before it runs
    monkeypatch.undo()
    small = example("relay")
    for text, mode in (("E X. A x. x in X", "native"), ("E x. mb+(x, x)", "subset")):
        evaluate(small, parse_formula(text), closure_mode=mode, so_limit=len(small.events))
    evaluate(small, parse_formula("matched(x)"), {"x": small.events[0]})
    monkeypatch.setattr(mso, "_Compiler", refuse)
    with pytest.raises(MscError, match="unassigned"):
        evaluate(small, parse_formula("matched(x)"))
    with pytest.raises(SoLimitError):
        evaluate(example("overtake"), parse_formula("E X. A x. x in X"), so_limit=4)
    with pytest.raises(SoLimitError):
        evaluate(
            example("overtake"), parse_formula("E x. mb+(x, x)"), closure_mode="subset", so_limit=4
        )
    assert evaluate(small, parse_formula("E X. A x. x in X"), so_limit=len(small.events))


# -- the compiled evaluator against the tree-walking reference ----------------


class _Missing:
    pass


_MISSING = _Missing()


class Reference:
    """The tree-walking reference the compiled evaluator is tested
    against: it evaluates one node per call and tests relations pair by
    pair, materialising only the inner relation of a closure."""

    def __init__(self, msc, closure_mode="native"):
        self.msc = msc
        self.events = list(msc.events)
        self.closure_mode = closure_mode
        self.materialized = {}

    def eval(self, f, env):
        if isinstance(f, TrueF):
            return True
        if isinstance(f, NotF):
            return not self.eval(f.body, env)
        if isinstance(f, OrF):
            return self.eval(f.left, env) or self.eval(f.right, env)
        if isinstance(f, AndF):
            return self.eval(f.left, env) and self.eval(f.right, env)
        if isinstance(f, ImpliesF):
            return (not self.eval(f.left, env)) or self.eval(f.right, env)
        if isinstance(f, IffF):
            return self.eval(f.left, env) == self.eval(f.right, env)
        if isinstance(f, ExistsF):
            return self.quant(f.var, f.second_order, f.body, env, any_of=True)
        if isinstance(f, ForallF):
            return self.quant(f.var, f.second_order, f.body, env, any_of=False)
        if isinstance(f, EqF):
            return env[f.left] == env[f.right]
        if isinstance(f, InF):
            return env[f.element] in env[f.setvar]
        if isinstance(f, LabelF):
            return self.msc.labels[env[f.var]] == f.action
        if isinstance(f, PredF):
            return self.pred(f, env)
        if isinstance(f, RelF):
            return self.rel_holds(f.rel, env[f.left], env[f.right], env)
        raise TypeError(f"unknown formula node {f!r}")

    def quant(self, var, second_order, body, env, any_of):
        saved = env.get(var, _MISSING)
        try:
            for value in mso._subsets(self.events) if second_order else self.events:
                env[var] = value
                if self.eval(body, env) == any_of:
                    return any_of
            return not any_of
        finally:
            if saved is _MISSING:
                env.pop(var, None)
            else:
                env[var] = saved

    def pred(self, f, env):
        labels = [self.msc.labels[env[v]] for v in f.args]
        name = f.name
        if name == "send":
            return labels[0].is_send
        if name == "recv":
            return not labels[0].is_send
        a, b = labels
        if name == "both_sends":
            return a.is_send and b.is_send
        if name == "both_receives":
            return not a.is_send and not b.is_send
        if name == "same_channel_sends":
            return a.is_send and b.is_send and a.channel == b.channel
        if name == "same_receiver_sends":
            return a.is_send and b.is_send and a.receiver == b.receiver
        if name == "same_sender_sends":
            return a.is_send and b.is_send and a.sender == b.sender
        if name == "same_sender_receives":
            return not a.is_send and not b.is_send and a.sender == b.sender
        raise MscError(f"unknown predicate {name!r}")

    def rel_holds(self, r, e1, e2, env):
        if isinstance(r, PrimRel):
            if r.name == "succ":
                return (e1, e2) in self.msc.succ_edges
            return (e1, e2) in self.msc.msg_edges
        if isinstance(r, NamedRel):
            return (e1, e2) in relations.named(self.msc, r.name, r.k).edges
        if isinstance(r, DefRel):
            saved = [(v, env.get(v, _MISSING)) for v in (r.xvar, r.yvar)]
            env[r.xvar], env[r.yvar] = e1, e2
            try:
                return self.eval(r.body, env)
            finally:
                for var, value in saved:
                    if value is _MISSING:
                        env.pop(var, None)
                    else:
                        env[var] = value
        if isinstance(r, UnionRel):
            return any(self.rel_holds(p, e1, e2, env) for p in r.parts)
        if isinstance(r, ClosureRel):
            if self.closure_mode == "subset":
                return self.closure_by_subsets(r, e1, e2, env)
            return (e1, e2) in self.closure_edges(r, env)
        raise TypeError(f"unknown relation node {r!r}")

    def env_signature(self, r, env):
        return tuple((v, env[v]) for v in sorted(rel_free_vars(r)))

    def edges_of(self, r, env):
        key = (r, self.env_signature(r, env))
        if key not in self.materialized:
            self.materialized[key] = frozenset(
                (a, b) for a in self.events for b in self.events if self.rel_holds(r, a, b, env)
            )
        return self.materialized[key]

    def closure_edges(self, r, env):
        key = (r, self.env_signature(r, env))
        if key not in self.materialized:
            base = RelationGraph.of(self.events, self.edges_of(r.inner, env))
            self.materialized[key] = relations.transitive_closure(base, r.reflexive).edges
        return self.materialized[key]

    def closure_by_subsets(self, r, e1, e2, env):
        """The second-order encoding: e2 belongs to every forward-closed
        set that contains e1 (reflexive case) or all successors reached
        from e1 (strict case)."""
        edges = self.edges_of(r.inner, env)
        for X in mso._subsets(self.events):
            if r.reflexive:
                if e1 not in X:
                    continue
                closed = all(t in X for (z, t) in edges if z in X)
            else:
                closed = all(t in X for (z, t) in edges if z in X or z == e1)
            if closed and e2 not in X:
                return False
        return True


BOUNDED_MODELS = ("asy", "p2p", "co", "mb", "onen", "nn")
README_FORMULAS = (
    NO_UNMATCHED,
    "A x. A y. (x ->+ y) => (x < y)",
    "A x. A y. x -> y => x < y",
    "E x. mbp(x, x)",
    "~E x. mbp(x, x)",
    "~E x. bowtie+(x, x)",
    "phi_nn",
)
LABEL_TESTS = (
    "send",
    "recv",
    "both_sends",
    "both_receives",
    "same_channel_sends",
    "same_receiver_sends",
    "same_sender_sends",
    "same_sender_receives",
)
ATOM_NAMES = ("mb", "onen", "bowtie", "nnrel", "mbp", "onenp", "prox")


def assert_agrees(m, f, env=None, closure_mode="native"):
    got = Evaluator(m, so_limit=8, closure_mode=closure_mode).check(f, env)
    want = Reference(m, closure_mode).eval(f, dict(env or {}))
    assert got == want, (f, env, closure_mode)


def builtin_formulas():
    """The defining and boundedness formulas and the README formulas,
    each value once."""
    formulas = [builtin(model, d) for model in MODELS for d in (False, True)]
    formulas += [parse_formula(text) for text in README_FORMULAS]
    formulas += [
        builtin_bounded(model, k, universal)
        for model in BOUNDED_MODELS
        for k in (0, 1, 2)
        for universal in (False, True)
    ]
    return list(dict.fromkeys(formulas))


def test_compiled_matches_reference_on_builtins(no_plans):
    rng = random.Random(60)
    charts = [example(f) for f in EXAMPLES if len(example(f).events) <= 6]
    charts += [random_msc(rng, max_events=8) for _ in range(8)]
    assert_warm_plans_agree(charts, builtin_formulas(), "native")


def test_compiled_restores_shadowed_bindings():
    # a set quantifier and a relation defined by a set-quantified body
    # rebind `X` and `x`; the outer values must hold again afterwards
    m = example("relay")
    e0, e1 = m.events[:2]
    env = {"x": e0, "w": e0, "u": e1, "X": frozenset()}
    rebinds_set = AndF(ExistsF("X", True, InF("x", "X")), NotF(InF("x", "X")))
    per_pair = DefRel("x", "y", AndF(ExistsF("Z", True, TrueF()), EqF("x", "y")))
    rebinds_x = AndF(RelF(per_pair, "u", "u"), EqF("x", "w"))
    for f in (rebinds_set, rebinds_x):
        assert evaluate(m, f, env)
        assert_agrees(m, f, env)


class RandomFormulas:
    """Seeded random formulas over the AST: first- and second-order
    quantifiers (blocks of existentials over conjunctions among them,
    and reused names that shadow), every label test, labels, set
    membership and every kind of relation node."""

    def __init__(self, rng):
        self.rng = rng
        self.actions = []  # label literals for LabelF, set per chart
        self.count = 0
        self.seen = set()

    def name(self, second_order=False, scope=()):
        if scope and self.rng.random() < 0.2:
            return self.rng.choice(scope)  # shadows
        self.count += 1
        return f"{'X' if second_order else 'v'}{self.count}"

    def formula(self, fo, so, depth, so_free=True):
        rng = self.rng
        if not fo or (depth > 0 and rng.random() < 0.45):
            # a set quantifier multiplies the reference's work by 2^n for
            # every binding of the variables around it, so few of those
            if so_free and len(fo) <= 2 and rng.random() < 0.12:
                return self.set_quantified(fo, so, depth)
            return self.quantified(fo, so, depth, so_free)
        r = rng.random()
        if depth <= 0 or r < 0.35:
            return self.atom(fo, so, depth)
        if r < 0.5:
            self.seen.add("not")
            return NotF(self.formula(fo, so, depth - 1, so_free))
        cls = rng.choice((AndF, OrF, ImpliesF, IffF))
        self.seen.add(cls.__name__)
        left = self.formula(fo, so, depth - 1, so_free)
        return cls(left, self.formula(fo, so, depth - 1, so_free))

    def quantified(self, fo, so, depth, so_free):
        rng = self.rng
        block = []
        for _ in range(rng.choice((1, 1, 2, 3))):
            block.append(self.name(scope=fo))
        scope = fo + block
        parts = [RelF(self.rel(scope, so, depth - 1), rng.choice(scope), block[-1])]
        for _ in range(rng.randint(0, 2)):
            parts.append(self.formula(scope, so, depth - 1, so_free))
        body = parts[0]
        for p in parts[1:]:
            body = AndF(body, p)
        if rng.random() < 0.3:
            body = self.formula(scope, so, depth - 1, so_free)
        universal = rng.random() < 0.4
        self.seen.add("forall" if universal else "exists")
        for var in reversed(block):
            body = ForallF(var, False, body) if universal else ExistsF(var, False, body)
        return body

    def set_quantified(self, fo, so, depth):
        var = self.name(second_order=True, scope=so)
        body = self.formula(fo, so + [var], depth - 1, so_free=False)
        universal = self.rng.random() < 0.5
        self.seen.add("set-forall" if universal else "set-exists")
        return ForallF(var, True, body) if universal else ExistsF(var, True, body)

    def atom(self, fo, so, depth):
        rng = self.rng
        a, b = rng.choice(fo), rng.choice(fo)
        r = rng.random()
        if r < 0.08:
            self.seen.add("eq")
            return EqF(a, b)
        if r < 0.18 and so:
            self.seen.add("in")
            return InF(a, rng.choice(so))
        if r < 0.26:
            self.seen.add("label")
            return LabelF(a, rng.choice(self.actions))
        if r < 0.42:
            name = rng.choice(LABEL_TESTS)
            self.seen.add(name)
            return PredF(name, (a,) if name in ("send", "recv") else (a, b))
        if r < 0.45:
            return TrueF()
        return RelF(self.rel(fo, so, depth), a, b)

    def rel(self, fo, so, depth):
        rng = self.rng
        r = rng.random()
        if depth <= 0 or r < 0.3:
            self.seen.add("prim")
            return PrimRel(rng.choice(("succ", "msg")))
        if r < 0.45:
            self.seen.add("named")
            if rng.random() < 0.2:
                return NamedRel("relbasy", rng.randint(0, 2))
            return NamedRel(rng.choice(ATOM_NAMES))
        if r < 0.65:
            self.seen.add("defined")
            x, y = self.name(scope=fo), self.name(scope=fo)
            return DefRel(x, y, self.formula(fo + [x, y], so, depth - 1, so_free=False))
        if r < 0.8:
            self.seen.add("union")
            return UnionRel(tuple(self.rel(fo, so, depth - 1) for _ in range(rng.randint(2, 3))))
        self.seen.add("closure")
        return ClosureRel(self.rel(fo, so, depth - 1), rng.random() < 0.5)


@pytest.mark.parametrize("closure_mode", ["native", "subset"])
def test_compiled_matches_reference_on_random_formulas(closure_mode):
    rng = random.Random(61)
    charts = [example(f) for f in EXAMPLES if len(example(f).events) <= 6]
    charts += [random_msc(rng, max_events=6) for _ in range(20)]
    gen = RandomFormulas(rng)
    absent = [send("p", "q", "zz"), recv("p", "q", "zz")]
    for i in range(1500):
        m = charts[i % len(charts)]
        gen.actions = sorted(set(m.labels.values()), key=str) + absent
        env, fo, so = {}, [], []
        if m.events and rng.random() < 0.5:
            env["x"] = rng.choice(m.events)
            env["X"] = frozenset(e for e in m.events if rng.random() < 0.5)
            fo, so = ["x"], ["X"]
        assert_agrees(m, gen.formula(fo, so, depth=3), env, closure_mode)
    connectives = {"not", "AndF", "OrF", "ImpliesF", "IffF"}
    quantifiers = {"exists", "forall", "set-exists", "set-forall"}
    atoms = {"eq", "in", "label", "prim", "named", "defined", "union", "closure"}
    assert connectives | quantifiers | atoms | set(LABEL_TESTS) <= gen.seen


# -- plans cached by formula value ----------------------------------------------

SUCC, MSG = PrimRel("succ"), PrimRel("msg")
SUCC_PLUS, SUCC_STAR = ClosureRel(SUCC, False), ClosureRel(SUCC, True)
HB = ClosureRel(UnionRel((SUCC, MSG)), True)


def _ex(var, body):
    return ExistsF(var, False, body)


# Defined relations whose bodies exercise the join that materialises them:
# disjunctions (also under a conjunction), existentials to flatten into
# the block, and existentials that must stay nested because their
# variable is x, y, a sibling's free variable or another sibling's.
DEFINED = {
    "disjunctive": DefRel("x", "y", OrF(
        RelF(MSG, "x", "y"),
        AndF(PredF("both_sends", ("x", "y")), OrF(
            RelF(SUCC, "x", "y"),
            _ex("w", AndF(RelF(SUCC, "x", "w"), RelF(SUCC, "w", "y"))),
        )),
    )),
    "shadows_x": DefRel("x", "y", AndF(RelF(SUCC_PLUS, "x", "y"), _ex("x", RelF(MSG, "x", "y")))),
    "x_bound_only_inside": DefRel("x", "y", _ex("x", RelF(MSG, "x", "y"))),
    "shadows_y": DefRel("x", "y", AndF(RelF(SUCC_STAR, "x", "y"), _ex("y", RelF(MSG, "x", "y")))),
    "shadows_sibling": DefRel("x", "y", AndF(
        _ex("z", AndF(RelF(MSG, "x", "z"), RelF(SUCC_STAR, "z", "y"))),
        NotF(RelF(SUCC, "z", "y")),
    )),
    "same_name_siblings": DefRel("x", "y", AndF(
        _ex("w", RelF(MSG, "x", "w")), _ex("w", RelF(SUCC, "w", "y"))
    )),
    "negated_forall": DefRel("x", "y", AndF(
        RelF(HB, "x", "y"),
        NotF(ForallF("w", False, NotF(AndF(RelF(SUCC, "x", "w"), RelF(SUCC_STAR, "w", "y"))))),
    )),
    "free_variable": DefRel("x", "y", AndF(
        RelF(HB, "z", "x"), OrF(RelF(SUCC, "x", "y"), _ex("w", AndF(RelF(MSG, "x", "w"), RelF(SUCC_STAR, "w", "y"))))
    )),
    "same_marked_variable": DefRel("v", "v", _ex("w", RelF(MSG, "w", "v"))),
}


# Quantifier blocks with nested existentials that must stay nested: one
# rebinds a block variable, one a variable free in a sibling conjunct.
BLOCKS = (
    "E x. E y. (x -> y & (E x. msg(x, y)))",
    "A z. E x. ((E z. msg(x, z)) & z -> x)",
    "E x. ((E w. msg(x, w)) & (E w. w -> x))",
)


def defined_formulas():
    """Sentences over each relation of DEFINED: a pair not in its
    converse, a cycle of its closure, and every event in some pair.
    Those over the relation with the free variable `z` quantify `z`, so
    one check materialises the relation once per value of `z`."""
    out = []
    for r in DEFINED.values():
        pair = _ex("a", _ex("b", AndF(RelF(r, "a", "b"), NotF(RelF(r, "b", "a")))))
        cycle = _ex("a", RelF(ClosureRel(r, False), "a", "a"))
        every = ForallF("a", False, _ex("b", OrF(RelF(r, "a", "b"), RelF(r, "b", "a"))))
        for f in (pair, cycle, every):
            out += [ForallF("z", False, f), _ex("z", f)] if "z" in rel_free_vars(r) else [f]
    return out


def interleaved_charts(seed, count, max_events):
    rng = random.Random(seed)
    charts = [example(f) for f in EXAMPLES if len(example(f).events) <= max_events]
    charts += [random_msc(rng, max_events=max_events) for _ in range(count)]
    rng.shuffle(charts)
    return charts


@pytest.fixture
def no_plans(monkeypatch):
    """An empty plan cache for one test, so that no plan it finds was
    compiled by another test."""
    monkeypatch.setattr(mso, "_PLANS", {})


def assert_warm_plans_agree(charts, formulas, closure_mode):
    """Every formula on every chart, chart by chart, against the
    reference; after the first chart each formula runs on the plan it
    was compiled into there."""
    assert len(set(formulas)) <= mso._PLAN_LIMIT
    plans = {}
    for m in charts:
        for f in formulas:
            assert_agrees(m, f, closure_mode=closure_mode)
            plan = plans.setdefault(f, mso._PLANS[(f, closure_mode)])
            assert mso._PLANS[(f, closure_mode)] is plan


def test_warm_plans_match_reference_on_builtins_in_subset_mode(no_plans):
    assert_warm_plans_agree(interleaved_charts(63, 5, 5), builtin_formulas(), "subset")


@pytest.mark.parametrize("closure_mode", ["native", "subset"])
def test_warm_plans_match_reference_on_defined_and_random_formulas(no_plans, closure_mode):
    rng = random.Random(64)
    charts = interleaved_charts(65, 8, 6)
    gen = RandomFormulas(rng)
    gen.actions = [send("p", "q", "m1"), recv("p", "q", "m1"), send("q", "p", "m2")]
    formulas = defined_formulas() + [parse_formula(text) for text in BLOCKS]
    formulas += [gen.formula([], [], depth=3) for _ in range(24)]
    assert_warm_plans_agree(charts, formulas, closure_mode)


@pytest.mark.parametrize("name", sorted(DEFINED))
def test_defined_relations_match_reference_pair_by_pair(name):
    r = DEFINED[name]
    atom = RelF(r, "a", "b")
    for m in interleaved_charts(66, 6, 7):
        for z in m.events[:2] if "z" in rel_free_vars(r) else [None]:
            for a in m.events:
                for b in m.events:
                    env = {"a": a, "b": b} if z is None else {"a": a, "b": b, "z": z}
                    assert_agrees(m, atom, env)


def plan_of(formula, closure_mode="native"):
    return mso._PLANS[(formula, closure_mode)]


def test_equal_formulas_share_one_plan():
    # two equal but distinct trees: `builtin` itself now hands out one object
    first, second = (mso._builtin(mso._Fresh(), "nn") for _ in range(2))
    evaluate(example("overtake"), first)
    plan, size = plan_of(first), len(mso._PLANS)
    assert first is not second
    evaluate(example("mailbox_cross"), second)
    assert parse_formula("phi_nn") == builtin("nn") == first
    evaluate(example("relay"), parse_formula("phi_nn"))
    assert plan_of(second) is plan and plan_of(parse_formula("phi_nn")) is plan
    assert plan_of(builtin("nn")) is plan
    assert len(mso._PLANS) == size
    # the closure mode is part of the key
    evaluate(example("relay"), builtin("nn"), closure_mode="subset")
    assert plan_of(builtin("nn"), "subset") is not plan


def test_plan_cache_is_bounded():
    m = example("relay")
    texts = [f"E v{i}. (send(v{i}) & matched(v{i}))" for i in range(mso._PLAN_LIMIT + 10)]
    for text in texts:
        assert evaluate(m, parse_formula(text))
        assert len(mso._PLANS) <= mso._PLAN_LIMIT
    assert len(mso._PLANS) == mso._PLAN_LIMIT
    assert all((parse_formula(t), "native") in mso._PLANS for t in texts[10:])


def test_builtins_and_texts_give_one_object():
    for model in MODELS:
        for delegated in (False, True):
            assert builtin(model, delegated) is builtin(model, delegated)
    assert builtin("nn") is builtin("nn", delegated=False)
    text = "~E x. (send(x) & ~matched(x))"
    assert parse_formula(text) is parse_formula(text)
    with pytest.raises(ValueError):
        builtin("nope")
    for _ in range(2):
        with pytest.raises(MsoSyntaxError):
            parse_formula("E x.")
    assert "E x." not in mso._PARSED


def test_parse_memo_is_bounded():
    texts = [f"E v{i}. send(v{i})" for i in range(mso._PLAN_LIMIT + 10)]
    for text in texts:
        parse_formula(text)
        assert len(mso._PARSED) <= mso._PLAN_LIMIT
    assert len(mso._PARSED) == mso._PLAN_LIMIT
    assert all(t in mso._PARSED for t in texts[10:])
    assert texts[0] not in mso._PARSED
    assert parse_formula(texts[0]) == mso._Parser(texts[0]).parse()


def test_plan_answers_after_an_error_mid_run():
    f = parse_formula("E x. E y. relb1(x, y)")
    with pytest.raises(NotP2pError):
        evaluate(example("crossing"), f)
    plan = plan_of(f)
    for name in ("producer", "train", "relay"):
        m = example(name)
        assert evaluate(m, f) == bool(relations.relb(m, 1).edges)
        assert plan_of(f) is plan


class WeakChart(Msc):
    __slots__ = ("__weakref__",)


def test_plan_keeps_no_reference_to_the_chart():
    base = example("mailbox_cross")
    chart = WeakChart(base.processes, base.labels, base.proc_order, base.matching)
    alive = weakref.ref(chart)
    for f in (builtin("nn"), builtin_bounded("mb", 1), parse_formula("E x. mbp(x, x)")):
        assert evaluate(chart, f) == evaluate(base, f)
    del chart
    gc.collect()
    assert alive() is None

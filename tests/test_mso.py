import dataclasses
import random

import pytest

from conftest import random_msc
from msckit import mso, relations
from msckit.bounded import exists_k_bounded, forall_k_bounded
from msckit.classify import MODELS, classify, membership
from msckit.core import EMPTY_MSC, MscError, recv, send
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
)

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


def test_named_relations_come_from_one_table():
    m = example("overtake")
    ev = Evaluator(m)
    for name in relations.NAMED:
        if name in relations.K_INDEXED:
            for k in (0, 1, 2):
                text = f"E x. E y. {name}{k}(x, y)"
                assert parse_formula(text) == ExistsF("x", False, ExistsF(
                    "y", False, RelF(NamedRel(name, k), "x", "y")
                ))
                assert ev.named_edges(name, k) == relations.named(m, name, k).edges
            with pytest.raises(MsoSyntaxError):
                parse_formula(f"E x. {name}(x, x)")
        else:
            assert parse_formula(f"E x. {name}+(x, x)") == ExistsF(
                "x", False, RelF(ClosureRel(NamedRel(name), False), "x", "x")
            )
            assert ev.named_edges(name, None) == relations.named(m, name).edges
    assert ev.named_edges("relb", 0) == relations.relb(m, 0).edges
    assert ev.named_edges("relb", None) == relations.relb(m, 1).edges
    with pytest.raises(MscError):
        ev.named_edges("nope", None)
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


# -- the compiled evaluator against the `_eval` reference ---------------------

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
    want = Evaluator(m, closure_mode=closure_mode)._eval(f, dict(env or {}))
    assert got == want, (f, env, closure_mode)


def test_compiled_matches_reference_on_builtins():
    rng = random.Random(60)
    charts = [example(f) for f in EXAMPLES if len(example(f).events) <= 6]
    charts += [random_msc(rng, max_events=8) for _ in range(8)]
    formulas = [builtin(model, d) for model in MODELS for d in (False, True)]
    formulas += [parse_formula(text) for text in README_FORMULAS]
    formulas += [
        builtin_bounded(model, k, universal)
        for model in BOUNDED_MODELS
        for k in (0, 1, 2)
        for universal in (False, True)
    ]
    for m in charts:
        for f in formulas:
            assert_agrees(m, f)


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

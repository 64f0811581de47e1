"""
Monadic second-order logic over finite MSCs.

Formulas are built from event relations (process successor, message
matching), label tests, equality, set membership, boolean connectives,
and first/second-order quantification.  Transitive closures of definable
binary relations are first-class: by default they are interpreted
natively as graph closure, and a ``subset`` evaluation mode replaces
every closure atom by its second-order encoding (forward-closed sets)
for cross-validation.

:meth:`Evaluator.check` runs a formula by its plan: closures compiled
once per formula value and closure mode, and kept in a bounded cache,
that read the chart from a binding made fresh for each check.  Each
relation atom is materialised once per check, with successor and
predecessor indexes, and a block of first-order existentials over a
conjunction runs as a join along those indexes instead of trying every
event for every variable; a defined relation is materialised by the same
join.  The tests keep a one-node-at-a-time tree walker as the reference
the compiled path is compared against.  Second-order quantification
iterates all event subsets, so formulas containing it are guarded by a
configurable event cap.

ASCII surface syntax (see :func:`parse_formula`):

    ~E x. (send(x) & ~matched(x))          no unmatched send events
    E x. mbp(x, x)                          a mailbox-order cycle
    A x. A y. x -> y => x < y               successors are ordered

Quantifiers are `E`/`A`; a variable starting with an uppercase letter is
second-order.  Infix atoms: `x -> y`, `x ->+ y`, `x ->* y`, `x = y`,
`x != y`, `x <= y`, `x < y` (happens-before), `x in X`.  Connectives
`~ & | => <=>`.  Named relation atoms take two arguments and accept a
closure suffix, e.g. `mb(x,y)`, `bowtie+(x,y)`, `prox*(x,y)`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from . import relations
from .core import Action, Msc, MscError, RelationGraph, recv, require_valid, send

DEFAULT_SO_LIMIT = 12


class MsoSyntaxError(MscError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class SoLimitError(MscError):
    pass


# -- abstract syntax ----------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True, slots=True)
class NotF(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class OrF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class AndF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class ImpliesF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class IffF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class ExistsF(Formula):
    var: str
    second_order: bool
    body: Formula


@dataclass(frozen=True, slots=True)
class ForallF(Formula):
    var: str
    second_order: bool
    body: Formula


@dataclass(frozen=True, slots=True)
class EqF(Formula):
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class InF(Formula):
    element: str
    setvar: str


@dataclass(frozen=True, slots=True)
class LabelF(Formula):
    var: str
    action: Action


@dataclass(frozen=True, slots=True)
class PredF(Formula):
    """Finite label disjunctions kept primitive: send/recv tests and the
    same-channel / same-endpoint guards used by the model formulas."""

    name: str
    args: tuple[str, ...]


class RelExpr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PrimRel(RelExpr):
    name: str  # succ | msg


@dataclass(frozen=True, slots=True)
class NamedRel(RelExpr):
    """Relation computed by the relations module (fast path)."""

    name: str
    k: int | None = None


@dataclass(frozen=True, slots=True)
class DefRel(RelExpr):
    """Binary relation defined by a formula with two marked free variables."""

    xvar: str
    yvar: str
    body: Formula


@dataclass(frozen=True, slots=True)
class UnionRel(RelExpr):
    parts: tuple[RelExpr, ...]


@dataclass(frozen=True, slots=True)
class ClosureRel(RelExpr):
    inner: RelExpr
    reflexive: bool


@dataclass(frozen=True, slots=True)
class RelF(Formula):
    rel: RelExpr
    left: str
    right: str


# -- free variables -----------------------------------------------------------


def free_vars(f: Formula) -> frozenset[str]:
    return _free(f, {})


def rel_free_vars(r: RelExpr) -> frozenset[str]:
    return _free(r, {})


def _free(node: Formula | RelExpr, memo: dict) -> frozenset[str]:
    """Free variables of a formula or relation node, memoised in `memo`
    by node identity (the entry keeps the node alive, so ids stay unique)."""
    got = memo.get(id(node))
    if got is not None:
        return got[1]
    if isinstance(node, (TrueF, PrimRel, NamedRel)):
        out: frozenset[str] = frozenset()
    elif isinstance(node, NotF):
        out = _free(node.body, memo)
    elif isinstance(node, (OrF, AndF, ImpliesF, IffF)):
        out = _free(node.left, memo) | _free(node.right, memo)
    elif isinstance(node, (ExistsF, ForallF)):
        out = _free(node.body, memo) - {node.var}
    elif isinstance(node, EqF):
        out = frozenset((node.left, node.right))
    elif isinstance(node, InF):
        out = frozenset((node.element, node.setvar))
    elif isinstance(node, LabelF):
        out = frozenset((node.var,))
    elif isinstance(node, PredF):
        out = frozenset(node.args)
    elif isinstance(node, RelF):
        out = _free(node.rel, memo) | {node.left, node.right}
    elif isinstance(node, DefRel):
        out = _free(node.body, memo) - {node.xvar, node.yvar}
    elif isinstance(node, UnionRel):
        out = frozenset().union(*(_free(p, memo) for p in node.parts))
    elif isinstance(node, ClosureRel):
        out = _free(node.inner, memo)
    else:
        raise TypeError(f"unknown formula or relation node {node!r}")
    memo[id(node)] = (node, out)
    return out


def _nodes(root: Formula | RelExpr) -> Iterator[Formula | RelExpr]:
    """Every formula and relation node under `root`, itself included,
    each shared node once."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, (NotF, ExistsF, ForallF, DefRel)):
            stack.append(node.body)
        elif isinstance(node, (OrF, AndF, ImpliesF, IffF)):
            stack += (node.left, node.right)
        elif isinstance(node, RelF):
            stack.append(node.rel)
        elif isinstance(node, UnionRel):
            stack += node.parts
        elif isinstance(node, ClosureRel):
            stack.append(node.inner)


def _has_so(f: Formula) -> bool:
    return any(isinstance(n, (ExistsF, ForallF)) and n.second_order for n in _nodes(f))


def _has_closure(f: Formula) -> bool:
    return any(isinstance(n, ClosureRel) for n in _nodes(f))


# -- evaluation ----------------------------------------------------------------


class Evaluator:
    def __init__(self, msc: Msc, so_limit: int = DEFAULT_SO_LIMIT, closure_mode: str = "native"):
        if closure_mode not in ("native", "subset"):
            raise ValueError(f"unknown closure mode {closure_mode!r}")
        require_valid(msc)
        self.msc = msc
        self.so_limit = so_limit
        self.closure_mode = closure_mode

    def check(self, formula: Formula, env: dict | None = None) -> bool:
        """Evaluate `formula` by its plan (see :class:`_Compiler`), which
        is compiled on the first check of an equal formula in this closure
        mode, on a binding made fresh for this chart."""
        env = {v: frozenset(x) if isinstance(x, set) else x for v, x in (env or {}).items()}
        key = (formula, self.closure_mode)
        plan = _PLANS.get(key)
        if plan is None:
            free, has_so = free_vars(formula), _has_so(formula)
            has_closure = self.closure_mode == "subset" and _has_closure(formula)
        else:
            free, has_so, has_closure = plan.free, plan.has_so, plan.has_closure
        missing = free - set(env)
        if missing:
            raise MscError(f"unassigned free variables: {sorted(missing)}")
        if (has_so or has_closure) and len(self.msc.events) > self.so_limit:
            raise SoLimitError(
                f"{len(self.msc.events)} events exceed the second-order cap {self.so_limit}"
            )
        if plan is None:
            compiler = _Compiler(self.closure_mode == "subset")
            plan = _Plan(compiler.formula(formula), compiler.slots, free, has_so, has_closure)
            if len(_PLANS) >= _PLAN_LIMIT:
                del _PLANS[next(iter(_PLANS))]
            _PLANS[key] = plan
        return plan.run(_Binding(self.msc, plan.slots), env)


def evaluate(
    msc: Msc,
    formula: Formula,
    env: dict | None = None,
    so_limit: int = DEFAULT_SO_LIMIT,
    closure_mode: str = "native",
) -> bool:
    """Satisfaction of `formula` on `msc` under `env` (which must cover
    all free variables)."""
    return Evaluator(msc, so_limit=so_limit, closure_mode=closure_mode).check(formula, env)


def _subsets(events):
    """Every set of `events`, smallest first."""
    for size in range(len(events) + 1):
        for combo in combinations(events, size):
            yield frozenset(combo)


# -- compiled evaluation ---------------------------------------------------------
#
# A compiled formula is a closure ``run(ctx, env) -> bool``.  `ctx` is the
# binding of one check (:class:`_Binding`); `env` maps a variable to an
# event id, or to a frozenset of ids for a set variable.  Quantifiers bind
# their variable in `env` and restore the outer value on exit.


class _Plan:
    """A compiled formula, without a chart: its closure, the number of
    relation memo slots a binding needs, and the facts `check` reads before
    running it."""

    __slots__ = ("run", "slots", "free", "has_so", "has_closure")

    def __init__(self, run, slots: int, free: frozenset[str], has_so: bool, has_closure: bool):
        self.run, self.slots, self.free = run, slots, free
        self.has_so, self.has_closure = has_so, has_closure


# Plans by (formula, closure mode).  Formulas are frozen dataclasses,
# equal by value, so a formula checked on many charts is compiled once.
# `builtin` and `parse_formula` hand out one object per model and per
# text, so a repeated lookup finds its key by identity instead of
# comparing the trees node by node.  The oldest plan goes when the cache
# is full.
_PLAN_LIMIT = 64
_PLANS: dict[tuple[Formula, str], _Plan] = {}


class _Binding:
    """What one check adds to a plan: the chart, its events and labels,
    one memo slot per relation node of the plan, and the rows the join of
    a defined relation is recording."""

    __slots__ = ("msc", "events", "labels", "memo", "rows")

    def __init__(self, msc: Msc, slots: int):
        self.msc = msc
        self.events = msc.events
        self.labels = msc.labels
        self.memo: list = [None] * slots
        self.rows: list[tuple[int, int]] = []


class _Missing:
    pass


_MISSING = _Missing()


def _true(ctx: _Binding, env: dict) -> bool:
    return True


def _all(tests: list) -> object:
    """One closure testing every closure of `tests`, left to right."""
    tests = [t for t in tests if t is not _true]
    if not tests:
        return _true
    if len(tests) == 1:
        return tests[0]
    first, rest = tests[0], _all(tests[1:])
    return lambda ctx, env: first(ctx, env) and rest(ctx, env)


def _save(env: dict, names) -> list:
    return [(v, env.get(v, _MISSING)) for v in names]


def _restore(env: dict, saved: list) -> None:
    for v, value in saved:
        if value is _MISSING:
            env.pop(v, None)
        else:
            env[v] = value


def _peel_exists(f: Formula) -> tuple[str, Formula] | None:
    """(variable, body) if `f` is a first-order existential, including
    in the form ``~A v. phi``, which is ``E v. ~phi``."""
    if isinstance(f, ExistsF) and not f.second_order:
        return f.var, f.body
    if isinstance(f, NotF) and isinstance(f.body, ForallF) and not f.body.second_order:
        return f.body.var, NotF(f.body.body)
    return None


def _conjuncts(f: Formula, out: list[Formula]) -> list[Formula]:
    """Append the conjuncts of `f` to `out`, pushing negation through ~,
    | and =>, and return `out`."""
    if isinstance(f, AndF):
        _conjuncts(f.left, out)
        return _conjuncts(f.right, out)
    if isinstance(f, NotF):
        g = f.body
        if isinstance(g, NotF):
            return _conjuncts(g.body, out)
        if isinstance(g, OrF):
            _conjuncts(NotF(g.left), out)
            return _conjuncts(NotF(g.right), out)
        if isinstance(g, ImpliesF):
            _conjuncts(g.left, out)
            return _conjuncts(NotF(g.right), out)
    out.append(f)
    return out


# Most disjuncts a conjunction is split into by distributing it over
# the disjunctions among its conjuncts.
_MAX_DISJUNCTS = 8


def _disjuncts(f: Formula) -> list[Formula]:
    """`f` as a disjunction: `|` splits it, and `&` distributes over the
    disjuncts of its two sides while that gives at most _MAX_DISJUNCTS."""
    if isinstance(f, OrF):
        return _disjuncts(f.left) + _disjuncts(f.right)
    if isinstance(f, AndF):
        left, right = _disjuncts(f.left), _disjuncts(f.right)
        if 1 < len(left) * len(right) <= _MAX_DISJUNCTS:
            return [AndF(a, b) for a in left for b in right]
    return [f]


class _Rel:
    """A compiled relation node.  `index(ctx, env)` materialises it as a
    :class:`RelationGraph` for the values of its free variables `fv`,
    once per distinct value tuple and binding.
    A `lazy` node is tested pair by pair with `holds(ctx, env, a, b)` and
    has no cheap index, so quantifiers never range over it."""

    __slots__ = ("fv", "lazy", "index", "holds")

    def __init__(self, fv: tuple[str, ...], lazy: bool, index, holds):
        self.fv, self.lazy, self.index, self.holds = fv, lazy, index, holds


# Label predicates of PredF, on the Action of each argument.
_LABEL_TESTS = {
    "send": lambda a: a.is_send,
    "recv": lambda a: not a.is_send,
    "both_sends": lambda a, b: a.is_send and b.is_send,
    "both_receives": lambda a, b: not a.is_send and not b.is_send,
    "same_channel_sends": lambda a, b: a.is_send and b.is_send and a.channel == b.channel,
    "same_receiver_sends": lambda a, b: a.is_send and b.is_send and a.receiver == b.receiver,
    "same_sender_sends": lambda a, b: a.is_send and b.is_send and a.sender == b.sender,
    "same_sender_receives": lambda a, b: not a.is_send and not b.is_send and a.sender == b.sender,
}


class _Compiler:
    """Compiles a formula, without a chart, into the closure of its plan.

    The closures read the chart only from the binding they are handed, so
    one plan serves every chart.  Every relation node gets a memo slot in
    the binding, where it is materialised once per binding of its free
    variables into a :class:`RelationGraph`, whose successor and
    predecessor maps the quantifiers range over.

    One join builder, :meth:`join`, serves quantifier blocks and defined
    relations.  It takes a block of first-order existentials over a
    conjunction and flattens positive existential conjuncts into the
    block.  Each variable in turn then ranges over the neighbours of a
    bound variable through a relation conjunct where one exists, over all
    events otherwise, and each other conjunct is tested as soon as its
    variables are bound.  ``A v. phi`` is ``~E v. ~phi``.  A defined
    relation runs one join per disjunct of its body, with its two marked
    variables in the block, and records their values at every match.
    Second-order quantifiers, relations defined by second-order bodies,
    and subset-encoded closures enumerate event sets instead.
    """

    def __init__(self, subset_closures: bool):
        self.subset_closures = subset_closures
        self.free: dict[int, tuple] = {}  # the memo of _free
        self.rels: dict[int, tuple[RelExpr, _Rel]] = {}
        self.slots = 0

    def formula(self, f: Formula):
        if isinstance(f, TrueF):
            return _true
        if isinstance(f, NotF):
            body = self.formula(f.body)
            return lambda ctx, env: not body(ctx, env)
        if isinstance(f, (OrF, AndF, ImpliesF, IffF)):
            left, right = self.formula(f.left), self.formula(f.right)
            if isinstance(f, OrF):
                return lambda ctx, env: left(ctx, env) or right(ctx, env)
            if isinstance(f, AndF):
                return lambda ctx, env: left(ctx, env) and right(ctx, env)
            if isinstance(f, ImpliesF):
                return lambda ctx, env: not left(ctx, env) or right(ctx, env)
            return lambda ctx, env: left(ctx, env) == right(ctx, env)
        if isinstance(f, ExistsF):
            return self.exists(f)
        if isinstance(f, ForallF):
            return self.formula(NotF(ExistsF(f.var, f.second_order, NotF(f.body))))
        if isinstance(f, EqF):
            a, b = f.left, f.right
            return lambda ctx, env: env[a] == env[b]
        if isinstance(f, InF):
            a, s = f.element, f.setvar
            return lambda ctx, env: env[a] in env[s]
        if isinstance(f, LabelF):
            v, action = f.var, f.action
            return lambda ctx, env: ctx.labels[env[v]] == action
        if isinstance(f, PredF):
            if f.name not in _LABEL_TESTS:
                raise MscError(f"unknown predicate {f.name!r}")
            test = _LABEL_TESTS[f.name]
            if len(f.args) == 1:
                (a,) = f.args
                return lambda ctx, env: test(ctx.labels[env[a]])
            a, b = f.args
            return lambda ctx, env: test(ctx.labels[env[a]], ctx.labels[env[b]])
        if isinstance(f, RelF):
            rel, a, b = self.rel(f.rel), f.left, f.right
            if rel.lazy:
                holds = rel.holds
                return lambda ctx, env: holds(ctx, env, env[a], env[b])
            index = rel.index
            return lambda ctx, env: (env[a], env[b]) in index(ctx, env).edges
        raise TypeError(f"unknown formula node {f!r}")

    # -- quantifiers ----------------------------------------------------

    def exists(self, f: ExistsF):
        if not f.second_order:
            return self.join([], [f])
        var, body = f.var, self.formula(f.body)

        def some_set(ctx: _Binding, env: dict) -> bool:
            saved = _save(env, (var,))
            try:
                for value in _subsets(ctx.events):
                    env[var] = value
                    if body(ctx, env):
                        return True
                return False
            finally:
                _restore(env, saved)

        return some_set

    def join(self, block: list, conjuncts: list[Formula], outputs=(), then=_true):
        """``E block. /\\ conjuncts`` as a join.

        A conjunct ``E v. phi`` (or ``~A v. ~phi``) joins the block as `v`
        and the conjuncts of `phi`, unless `v` is already in the block or
        is free in another conjunct.  The closure returned binds the block
        and runs `then` at every match; the search stops at the first match
        for which `then` returns true.  Once the variables in `outputs` are
        bound, the rest of the block is only tested for a match, so `then`
        runs once per value of `outputs`."""
        block, conjuncts = list(block), list(conjuncts)
        i = 0
        while i < len(conjuncts):
            peeled = _peel_exists(conjuncts[i])
            others = conjuncts[:i] + conjuncts[i + 1 :]
            if (
                peeled is not None
                and peeled[0] not in block
                and all(peeled[0] not in _free(c, self.free) for c in others)
            ):
                block.append(peeled[0])
                conjuncts[i : i + 1] = _conjuncts(peeled[1], [])
            else:
                i += 1
        first, steps = self._plan(block, conjuncts)
        last = max((n for n, step in enumerate(steps) if step[0] in outputs), default=-1)
        run = self._chain(steps[: last + 1], _all([self._chain(steps[last + 1 :], _true), then]))
        guard = _all(first)

        def join(ctx: _Binding, env: dict) -> bool:
            if not guard(ctx, env):
                return False
            saved = _save(env, block)
            try:
                return run(ctx, env)
            finally:
                _restore(env, saved)

        return join

    def _plan(self, block: list[str], conjuncts: list[Formula]):
        """Order the block's variables and place each conjunct test.

        Returns the tests that use no block variable, and one step per
        variable: (variable, its source, tests run once it is bound).  A
        source (index, other variable, forward) ranges the variable over
        the successors (forward) or predecessors of the other variable's
        value in a relation conjunct, which is then implied and not
        tested.  A variable with no source ranges over all events."""
        inside = set(block)
        pending = [(c, _free(c, self.free) & inside) for c in conjuncts]
        first = [self.formula(c) for c, vs in pending if not vs]
        pending = [(c, vs) for c, vs in pending if vs]
        bound: set[str] = set()
        steps = []
        remaining = list(block)
        while remaining:
            var, source = remaining[0], None
            for v in remaining:
                found = self._source(v, pending, bound)
                if found is not None:
                    var, (source, used) = v, found
                    pending.remove(used)
                    break
            remaining.remove(var)
            bound.add(var)
            ready = [c for c, vs in pending if vs <= bound]
            pending = [(c, vs) for c, vs in pending if not vs <= bound]
            steps.append((var, source, [self.formula(c) for c in ready]))
        return first, steps

    def _source(self, var: str, pending: list, bound: set[str]):
        for entry in pending:
            c, vs = entry
            if not isinstance(c, RelF) or vs - bound != {var} or c.left == c.right:
                continue
            rel = self.rel(c.rel)
            if rel.lazy or var in rel.fv:
                continue
            if c.right == var:
                return (rel.index, c.left, True), entry
            if c.left == var:
                return (rel.index, c.right, False), entry
        return None

    def _chain(self, steps: list, then):
        """Bind the variables of `steps` in order, then run `then`."""
        for var, source, tests in reversed(steps):
            then = self._bind(var, source, _all(tests + [then]))
        return then

    def _bind(self, var: str, source, then):
        if source is None:

            def each_event(ctx: _Binding, env: dict) -> bool:
                for value in ctx.events:
                    env[var] = value
                    if then(ctx, env):
                        return True
                return False

            return each_event
        index, other, forward = source

        def each_neighbour(ctx: _Binding, env: dict) -> bool:
            rel = index(ctx, env)
            near = rel.adjacency() if forward else rel.predecessors
            for value in near.get(env[other], ()):
                env[var] = value
                if then(ctx, env):
                    return True
            return False

        return each_neighbour

    # -- relations ------------------------------------------------------

    def rel(self, r: RelExpr) -> _Rel:
        """The compiled node, shared by every use of the same node object
        (keyed by identity: hashing a node would walk its whole tree)."""
        seen = self.rels.get(id(r))
        if seen is None:
            seen = self.rels[id(r)] = (r, self._compile_rel(r))
        return seen[1]

    def _compile_rel(self, r: RelExpr) -> _Rel:
        fv = tuple(sorted(_free(r, self.free)))
        if isinstance(r, PrimRel):
            attr = "succ_edges" if r.name == "succ" else "msg_edges"
            return self._materialised(
                fv, lambda ctx, env: RelationGraph.of(ctx.events, getattr(ctx.msc, attr))
            )
        if isinstance(r, NamedRel):
            name, k = r.name, r.k
            return self._materialised(fv, lambda ctx, env: relations.named(ctx.msc, name, k))
        if isinstance(r, DefRel):
            return self._defined(r, fv)
        if isinstance(r, UnionRel):
            parts = [self.rel(p) for p in r.parts]
            if any(p.lazy for p in parts):
                return self._lazy(
                    fv, lambda ctx, env, a, b: any(p.holds(ctx, env, a, b) for p in parts)
                )
            return self._materialised(
                fv,
                lambda ctx, env: RelationGraph.of(
                    ctx.events, frozenset().union(*(p.index(ctx, env).edges for p in parts))
                ),
            )
        if isinstance(r, ClosureRel):
            inner, reflexive = self.rel(r.inner), r.reflexive
            if self.subset_closures:
                return self._lazy(
                    fv,
                    lambda ctx, env, a, b: _subset_closure(
                        ctx.events, inner.index(ctx, env).edges, reflexive, a, b
                    ),
                )

            def closed(ctx: _Binding, env: dict) -> RelationGraph:
                succ = inner.index(ctx, env).adjacency()
                padded = RelationGraph({e: succ.get(e, ()) for e in ctx.events})
                return relations.transitive_closure(padded, reflexive)

            return self._materialised(fv, closed)
        raise TypeError(f"unknown relation node {r!r}")

    def _defined(self, r: DefRel, fv: tuple[str, ...]) -> _Rel:
        x, y = r.xvar, r.yvar
        if _has_so(r.body) or (self.subset_closures and _has_closure(r.body)):
            body = self.formula(r.body)

            def holds(ctx: _Binding, env: dict, a: int, b: int) -> bool:
                saved = _save(env, (x, y))
                env[x], env[y] = a, b
                try:
                    return body(ctx, env)
                finally:
                    _restore(env, saved)

            return self._lazy(fv, holds)
        if x == y:
            # the right argument overwrites the left one, which then ranges
            # over all events: give it a name no formula can use
            x = _Missing()

        def record(ctx: _Binding, env: dict) -> bool:
            ctx.rows.append((env[x], env[y]))
            return False

        joins = [
            self.join([x, y], _conjuncts(d, []), (x, y), record)
            for d in _disjuncts(r.body)
        ]

        def rows(ctx: _Binding, env: dict) -> RelationGraph:
            outer, ctx.rows = ctx.rows, []
            try:
                for join in joins:
                    join(ctx, env)
                return RelationGraph.of(ctx.events, ctx.rows)
            finally:
                ctx.rows = outer

        return self._materialised(fv, rows)

    def _memo(self, fv: tuple[str, ...], build):
        """`build(ctx, env)` once per binding and value tuple of `fv`, kept
        in a memo slot of the binding."""
        slot = self.slots
        self.slots += 1
        if not fv:

            def index_once(ctx: _Binding, env: dict) -> RelationGraph:
                got = ctx.memo[slot]
                if got is None:
                    got = ctx.memo[slot] = build(ctx, env)
                return got

            return index_once

        def index(ctx: _Binding, env: dict) -> RelationGraph:
            cache = ctx.memo[slot]
            if cache is None:
                cache = ctx.memo[slot] = {}
            key = tuple([env[v] for v in fv])
            got = cache.get(key)
            if got is None:
                got = cache[key] = build(ctx, env)
            return got

        return index

    def _materialised(self, fv: tuple[str, ...], build) -> _Rel:
        index = self._memo(fv, build)
        return _Rel(fv, False, index, lambda ctx, env, a, b: (a, b) in index(ctx, env).edges)

    def _lazy(self, fv: tuple[str, ...], holds) -> _Rel:
        def pairs(ctx: _Binding, env: dict) -> RelationGraph:
            events = ctx.events
            return RelationGraph.of(
                events, [(a, b) for a in events for b in events if holds(ctx, env, a, b)]
            )

        return _Rel(fv, True, self._memo(fv, pairs), holds)


def _subset_closure(events, edges, reflexive: bool, e1: int, e2: int) -> bool:
    """e2 lies in every forward-closed event set that holds e1
    (reflexive) or the successors of e1 (strict)."""
    for X in _subsets(events):
        if reflexive and e1 not in X:
            continue
        starts = X if reflexive else X | {e1}
        if e2 not in X and all(t in X for z, t in edges if z in starts):
            return False
    return True


# -- formula construction helpers ----------------------------------------------

SUCC = PrimRel("succ")
MSG = PrimRel("msg")
SUCC_PLUS = ClosureRel(SUCC, reflexive=False)
SUCC_STAR = ClosureRel(SUCC, reflexive=True)
HB = ClosureRel(UnionRel((SUCC, MSG)), reflexive=True)
HB_STRICT = ClosureRel(UnionRel((SUCC, MSG)), reflexive=False)


class _Fresh:
    """Bound-variable names for the helpers building one formula,
    numbered from 1 and skipping the names in `taken`, so a formula does
    not depend on what was built before it."""

    def __init__(self, taken=()):
        self.taken = frozenset(taken)
        self.count = 0

    def __call__(self, prefix: str = "v") -> str:
        while True:
            self.count += 1
            name = f"_{prefix}{self.count}"
            if name not in self.taken:
                return name


def matched_f(fresh: _Fresh, x: str) -> Formula:
    y = fresh("m")
    return ExistsF(y, False, RelF(MSG, x, y))


def _exists(names: list[str], body: Formula) -> Formula:
    for n in reversed(names):
        body = ExistsF(n, False, body)
    return body


def _and(*fs: Formula) -> Formula:
    out = fs[0]
    for f in fs[1:]:
        out = AndF(out, f)
    return out


def _or(*fs: Formula) -> Formula:
    out = fs[0]
    for f in fs[1:]:
        out = OrF(out, f)
    return out


def no_unmatched_f(fresh: _Fresh) -> Formula:
    x = fresh("u")
    return NotF(ExistsF(x, False, AndF(PredF("send", (x,)), NotF(matched_f(fresh, x)))))


def _receives_reversed(fresh: _Fresh, s1: str, s2: str) -> Formula:
    """Both matched with receives in the opposite order."""
    r1, r2 = fresh("r"), fresh("r")
    return _exists(
        [r1, r2],
        _and(
            RelF(MSG, s1, r1),
            RelF(MSG, s2, r2),
            RelF(SUCC_PLUS, r2, r1),
        ),
    )


def _first_unmatched(fresh: _Fresh, s1: str, s2: str) -> Formula:
    return AndF(NotF(matched_f(fresh, s1)), matched_f(fresh, s2))


def mb_edge_rel(fresh: _Fresh) -> DefRel:
    x, y = "_mbx", "_mby"
    x2, y2 = fresh("x"), fresh("y")
    ordered = _exists(
        [x2, y2],
        _and(RelF(MSG, x, x2), RelF(MSG, y, y2), RelF(SUCC_PLUS, x2, y2)),
    )
    body = AndF(
        PredF("same_receiver_sends", (x, y)),
        OrF(AndF(matched_f(fresh, x), NotF(matched_f(fresh, y))), ordered),
    )
    return DefRel(x, y, body)


def onen_edge_rel(fresh: _Fresh) -> DefRel:
    x, y = "_onx", "_ony"
    x2, y2 = fresh("x"), fresh("y")
    first = _and(
        PredF("same_sender_sends", (x, y)), matched_f(fresh, x), NotF(matched_f(fresh, y))
    )
    second = AndF(
        PredF("same_sender_receives", (x, y)),
        _exists(
            [x2, y2],
            _and(RelF(MSG, x2, x), RelF(MSG, y2, y), RelF(SUCC_PLUS, x2, y2)),
        ),
    )
    return DefRel(x, y, OrF(first, second))


def nn_rel_expr(fresh: _Fresh) -> ClosureRel:
    return ClosureRel(
        UnionRel((SUCC, MSG, mb_edge_rel(fresh), onen_edge_rel(fresh))), reflexive=False
    )


def bowtie_rel(fresh: _Fresh) -> DefRel:
    x, y = "_btx", "_bty"
    nn = nn_rel_expr(fresh)
    x2, y2 = fresh("x"), fresh("y")
    psi3 = _and(
        PredF("both_receives", (x, y)),
        _exists(
            [x2, y2],
            _and(RelF(MSG, x2, x), RelF(MSG, y2, y), RelF(nn, x2, y2)),
        ),
        NotF(RelF(nn, x, y)),
    )
    x3, y3 = fresh("x"), fresh("y")
    psi4 = _and(
        PredF("both_sends", (x, y)),
        _exists(
            [x3, y3],
            _and(RelF(MSG, x, x3), RelF(MSG, y, y3), RelF(nn, x3, y3)),
        ),
        NotF(RelF(nn, x, y)),
    )
    rule4 = _and(PredF("both_sends", (x, y)), matched_f(fresh, x), NotF(matched_f(fresh, y)))
    return DefRel(x, y, _or(RelF(nn, x, y), rule4, psi3, psi4))


def prox_rel(fresh: _Fresh) -> DefRel:
    """One message sent strictly before another is received; chains of
    this relation closing into a cycle are crowns."""
    x, y = "_pxx", "_pxy"
    r2 = fresh("r")
    body = _and(
        PredF("send", (x,)),
        NotF(EqF(x, y)),
        ExistsF(r2, False, AndF(RelF(HB_STRICT, x, r2), RelF(MSG, y, r2))),
    )
    return DefRel(x, y, body)


def builtin(model: str, delegated: bool = False) -> Formula:
    """The defining formula of a model class.

    With ``delegated=True`` the auxiliary orderings appear as named
    atoms computed by the relations module; by default they are spelled
    out as defined sub-formulas, mirroring their definitions.  Each
    ``(model, delegated)`` pair gives one shared formula object.
    """
    return _shared_builtin(model, bool(delegated))


@lru_cache(maxsize=None)
def _shared_builtin(model: str, delegated: bool) -> Formula:
    return _builtin(_Fresh(), model, delegated)


def _builtin(fresh: _Fresh, model: str, delegated: bool = False) -> Formula:
    if model == "asy":
        return TrueF()
    if model == "p2p":
        s1, s2 = fresh("s"), fresh("s")
        return NotF(
            _exists(
                [s1, s2],
                _and(
                    PredF("same_channel_sends", (s1, s2)),
                    RelF(SUCC_PLUS, s1, s2),
                    OrF(_receives_reversed(fresh, s1, s2), _first_unmatched(fresh, s1, s2)),
                ),
            )
        )
    if model == "co":
        s1, s2 = fresh("s"), fresh("s")
        return NotF(
            _exists(
                [s1, s2],
                _and(
                    PredF("same_receiver_sends", (s1, s2)),
                    RelF(HB, s1, s2),
                    OrF(_receives_reversed(fresh, s1, s2), _first_unmatched(fresh, s1, s2)),
                ),
            )
        )
    if model == "mb":
        x = fresh("x")
        rel = (
            ClosureRel(UnionRel((SUCC, MSG, NamedRel("mb"))), False)
            if delegated
            else ClosureRel(UnionRel((SUCC, MSG, mb_edge_rel(fresh))), False)
        )
        return NotF(ExistsF(x, False, RelF(rel, x, x)))
    if model == "onen":
        x = fresh("x")
        rel = (
            ClosureRel(UnionRel((SUCC, MSG, NamedRel("onen"))), False)
            if delegated
            else ClosureRel(UnionRel((SUCC, MSG, onen_edge_rel(fresh))), False)
        )
        return NotF(ExistsF(x, False, RelF(rel, x, x)))
    if model == "nn":
        x = fresh("x")
        rel = (
            ClosureRel(NamedRel("bowtie"), False)
            if delegated
            else ClosureRel(bowtie_rel(fresh), False)
        )
        return NotF(ExistsF(x, False, RelF(rel, x, x)))
    if model == "rsc":
        s1, s2 = fresh("s"), fresh("s")
        prox = NamedRel("prox") if delegated else prox_rel(fresh)
        crown = _exists(
            [s1, s2],
            AndF(RelF(prox, s1, s2), RelF(ClosureRel(prox, True), s2, s1)),
        )
        # the class additionally forbids unmatched sends; a lone
        # unmatched send forms no crown, so the conjunct is not redundant
        return AndF(no_unmatched_f(fresh), NotF(crown))
    raise ValueError(f"unknown model {model!r}")


def relb_rel(fresh: _Fresh, k: int) -> DefRel:
    """Under FIFO channels: the i-th receive must precede the (i+k)-th
    send of its channel.  Expressed with k chained same-channel sends."""
    x, y = f"_rbx{k}", f"_rby{k}"
    if k == 0:
        return DefRel(x, y, RelF(MSG, y, x))
    ss = [fresh("s") for _ in range(k)]
    chain = []
    hops = ss + [y]
    for a, b in zip(hops, hops[1:]):
        chain.append(RelF(SUCC_PLUS, a, b))
        chain.append(PredF("same_channel_sends", (a, b)))
    body = _exists(ss, _and(*chain, RelF(MSG, ss[0], x)))
    return DefRel(x, y, body)


def relb_asy_rel(fresh: _Fresh, k: int) -> DefRel:
    """k+1 chained same-channel sends, one of them matched, whose first
    receive is the left endpoint."""
    x, y = f"_rax{k}", f"_ray{k}"
    ss = [fresh("s") for _ in range(k)]
    hops = ss + [y]
    parts: list[Formula] = []
    for a, b in zip(hops, hops[1:]):
        parts.append(RelF(SUCC_PLUS, a, b))
        parts.append(PredF("same_channel_sends", (a, b)))
    if k == 0:
        parts.append(PredF("send", (y,)))
    hits = [RelF(MSG, e, x) for e in hops]
    parts.append(_or(*hits))
    for e in hops:
        f = fresh("f")
        parts.append(
            ImpliesF(
                matched_f(fresh, e),
                ExistsF(
                    f, False, AndF(RelF(MSG, e, f), RelF(SUCC_STAR, x, f))
                ),
            )
        )
    return DefRel(x, y, _exists(ss, _and(*parts)))


def _all_unmatched_chain(fresh: _Fresh, k: int) -> Formula:
    """k+1 chained same-channel sends, all unmatched."""
    ss = [fresh("s") for _ in range(k + 1)]
    parts: list[Formula] = []
    for a, b in zip(ss, ss[1:]):
        parts.append(RelF(SUCC_PLUS, a, b))
        parts.append(PredF("same_channel_sends", (a, b)))
    if k == 0:
        parts.append(PredF("send", (ss[0],)))
    for s in ss:
        parts.append(NotF(matched_f(fresh, s)))
    return _exists(ss, _and(*parts))


def builtin_bounded(model: str, k: int, universal: bool = False) -> Formula:
    """Formulas for existential/universal k-boundedness per model; the
    model membership formula is conjoined so the result is meaningful on
    arbitrary MSCs."""
    fresh = _Fresh()
    x = fresh("x")
    if model == "asy":
        ra = relb_asy_rel(fresh, k)
        cap = NotF(_all_unmatched_chain(fresh, k))
        if universal:
            r, s = fresh("r"), fresh("s")
            incl = NotF(_exists([r, s], AndF(RelF(ra, r, s), NotF(RelF(HB, r, s)))))
            return AndF(incl, cap)
        acyclic = NotF(
            ExistsF(x, False, RelF(ClosureRel(UnionRel((SUCC, MSG, ra)), False), x, x))
        )
        return AndF(acyclic, cap)

    if model in ("p2p", "co"):
        schedule: RelExpr = UnionRel((SUCC, MSG))
        witness: RelExpr = HB
    elif model == "mb":
        schedule = UnionRel((SUCC, MSG, mb_edge_rel(fresh)))
        witness = ClosureRel(schedule, True)
    elif model == "onen":
        schedule = UnionRel((SUCC, MSG, onen_edge_rel(fresh)))
        witness = ClosureRel(schedule, True)
    elif model == "nn":
        schedule = bowtie_rel(fresh)
        witness = ClosureRel(schedule, False)
    else:
        raise ValueError(f"unknown model {model!r}")
    if model in ("p2p", "co"):
        member = _builtin(fresh, model)
    else:
        # membership is acyclicity of the schedule; built from the same
        # relation objects, the evaluator materialises each once
        closed = witness if model == "nn" else ClosureRel(schedule, False)
        member = NotF(ExistsF(x, False, RelF(closed, x, x)))
    rb = relb_rel(fresh, k)
    cap = NotF(_all_unmatched_chain(fresh, k))
    if universal:
        r, s = fresh("r"), fresh("s")
        incl = NotF(_exists([r, s], AndF(RelF(rb, r, s), NotF(RelF(witness, r, s)))))
        return _and(member, incl, cap)
    acyclic = NotF(
        ExistsF(x, False, RelF(ClosureRel(UnionRel((schedule, rb)), False), x, x))
    )
    return _and(member, acyclic, cap)


# -- parser --------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><=>)
  | (?P<implies>=>)
  | (?P<arrowplus>->\+)
  | (?P<arrowstar>->\*)
  | (?P<arrow>->)
  | (?P<le><=)
  | (?P<lt><)
  | (?P<neq>!=)
  | (?P<eq>=)
  | (?P<not>~)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<dot>\.)
  | (?P<comma>,)
  | (?P<plus>\+)
  | (?P<star>\*)
  | (?P<bang>!)
  | (?P<quest>\?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

# Deepest nesting parse_formula accepts.  Every `~`, quantifier, opening
# parenthesis and binary connective opens a level that lasts until the
# formula it belongs to ends; the cap keeps parsing and evaluation well
# inside the interpreter's recursion limit.
MAX_NESTING = 100
_PRED_ALIASES = {
    "samechan": "same_channel_sends",
    "samerecv": "same_receiver_sends",
    "samesender": "same_sender_sends",
    "recvsamesender": "same_sender_receives",
    "bothsends": "both_sends",
    "bothrecvs": "both_receives",
}
_INFIX_RELS = {"arrow": SUCC, "arrowplus": SUCC_PLUS, "arrowstar": SUCC_STAR, "le": HB, "lt": HB_STRICT}
_BUILTIN_NAMES = {
    "phi_asy": "asy",
    "phi_pp": "p2p",
    "phi_co": "co",
    "phi_mb": "mb",
    "phi_1n": "onen",
    "phi_nn": "nn",
    "phi_rsc": "rsc",
}


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise MsoSyntaxError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup or ""
        if kind != "ws":
            out.append(_Token(kind, m.group(), i))
        i = m.end()
    out.append(_Token("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.fresh = _Fresh(t.text for t in self.tokens if t.kind == "name")

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise MsoSyntaxError(f"expected {kind}, found {tok.text!r}", tok.pos)
        return tok

    def var(self, second_order: bool = False) -> str:
        """A variable of the given sort: set variables start with an
        uppercase letter, first-order ones do not."""
        tok = self.expect("name")
        if tok.text[0].isupper() != second_order:
            sort = "a set" if second_order else "a first-order"
            raise MsoSyntaxError(f"{tok.text!r} is not {sort} variable", tok.pos)
        return tok.text

    def opens(self) -> _Token:
        """Consume a token that opens a nesting level; each parse method
        closes the levels it opened before it returns."""
        tok = self.next()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MsoSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", tok.pos)
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "eof":
            raise MsoSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return f

    def formula(self) -> Formula:
        outer = self.depth
        left = self.implication()
        while self.peek().kind == "iff":
            self.opens()
            left = IffF(left, self.implication())
        self.depth = outer
        return left

    def implication(self) -> Formula:
        outer = self.depth
        left = self.disjunction()
        if self.peek().kind == "implies":
            self.opens()
            left = ImpliesF(left, self.implication())
        self.depth = outer
        return left

    def disjunction(self) -> Formula:
        outer = self.depth
        left = self.conjunction()
        while self.peek().kind == "or":
            self.opens()
            left = OrF(left, self.conjunction())
        self.depth = outer
        return left

    def conjunction(self) -> Formula:
        outer = self.depth
        left = self.unary()
        while self.peek().kind == "and":
            self.opens()
            left = AndF(left, self.unary())
        self.depth = outer
        return left

    def unary(self) -> Formula:
        outer = self.depth
        tok = self.peek()
        if tok.kind == "not":
            self.opens()
            f: Formula = NotF(self.unary())
        elif (
            tok.kind == "name"
            and tok.text in ("E", "A")
            and self.peek(1).kind == "name"
            and self.peek(2).kind == "dot"
        ):
            self.opens()
            var = self.next().text
            self.next()  # dot
            body = self.formula()
            second = var[0].isupper()
            f = ExistsF(var, second, body) if tok.text == "E" else ForallF(var, second, body)
        else:
            return self.atom()
        self.depth = outer
        return f

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lpar":
            outer = self.depth
            self.opens()
            f = self.formula()
            self.expect("rpar")
            self.depth = outer
            return f
        if tok.kind != "name":
            raise MsoSyntaxError(f"expected an atom, found {tok.text!r}", tok.pos)
        name = tok.text
        if name == "true":
            self.next()
            return TrueF()
        if name == "false":
            self.next()
            return NotF(TrueF())
        if name in _BUILTIN_NAMES:
            self.next()
            return builtin(_BUILTIN_NAMES[name])
        if self._call_ahead():
            return self.call()
        return self.infix_atom()

    def _call_ahead(self) -> bool:
        nxt = self.peek(1)
        if nxt.kind == "lpar":
            return True
        return nxt.kind in ("plus", "star") and self.peek(2).kind == "lpar"

    def call(self) -> Formula:
        name_tok = self.expect("name")
        name = name_tok.text
        closure = None
        if self.peek().kind in ("plus", "star"):
            closure = self.next().kind
        self.expect("lpar")
        args = [self.var()]
        while self.peek().kind == "comma":
            self.next()
            args.append(self.var())
        self.expect("rpar")

        if name == "label":
            if closure or len(args) != 1:
                raise MsoSyntaxError("label takes one variable", name_tok.pos)
            self.expect("eq")
            return LabelF(args[0], self.action_literal())
        if name == "matched":
            if closure or len(args) != 1:
                raise MsoSyntaxError("matched takes one variable", name_tok.pos)
            return matched_f(self.fresh, args[0])
        if name == "unmatched":
            if closure or len(args) != 1:
                raise MsoSyntaxError("unmatched takes one variable", name_tok.pos)
            return AndF(PredF("send", (args[0],)), NotF(matched_f(self.fresh, args[0])))
        if name in ("send", "recv"):
            if closure or len(args) != 1:
                raise MsoSyntaxError(f"{name} takes one variable", name_tok.pos)
            return PredF(name, tuple(args))
        if name in _PRED_ALIASES:
            if closure or len(args) != 2:
                raise MsoSyntaxError(f"{name} takes two variables", name_tok.pos)
            return PredF(_PRED_ALIASES[name], tuple(args))
        if len(args) != 2:
            raise MsoSyntaxError(f"relation {name} takes two variables", name_tok.pos)
        rel = self._rel_by_name(name, name_tok.pos)
        if closure:
            rel = ClosureRel(rel, reflexive=(closure == "star"))
        return RelF(rel, args[0], args[1])

    def _rel_by_name(self, name: str, pos: int) -> RelExpr:
        if name == "msg":
            return MSG
        if name == "succ":
            return SUCC
        if name in relations.NAMED and name not in relations.K_INDEXED:
            return NamedRel(name)
        m = re.fullmatch(r"([a-z]+)(\d+)", name)
        if m and m.group(1) in relations.K_INDEXED:
            return NamedRel(m.group(1), int(m.group(2)))
        raise MsoSyntaxError(f"unknown relation {name!r}", pos)

    def action_literal(self) -> Action:
        tok = self.next()
        if tok.kind not in ("bang", "quest"):
            raise MsoSyntaxError("expected an action literal !(p,q,m) or ?(p,q,m)", tok.pos)
        self.expect("lpar")
        p = self.expect("name").text
        self.expect("comma")
        q = self.expect("name").text
        self.expect("comma")
        m = self.expect("name").text
        self.expect("rpar")
        return send(p, q, m) if tok.kind == "bang" else recv(p, q, m)

    def infix_atom(self) -> Formula:
        left = self.var()
        op = self.next()
        if op.kind == "name" and op.text == "in":
            return InF(left, self.var(second_order=True))
        if op.kind in _INFIX_RELS:
            return RelF(_INFIX_RELS[op.kind], left, self.var())
        if op.kind == "eq":
            return EqF(left, self.var())
        if op.kind == "neq":
            return NotF(EqF(left, self.var()))
        raise MsoSyntaxError(f"expected a relation after {left!r}", op.pos)


def parse_formula(text: str) -> Formula:
    """Parse the ASCII surface syntax into an AST; raises
    :class:`MsoSyntaxError` with the offending position.  A text parsed
    again while memoised gives the same formula object."""
    formula = _PARSED.get(text)
    if formula is None:
        formula = _Parser(text).parse()
        if len(_PARSED) >= _PLAN_LIMIT:
            del _PARSED[next(iter(_PARSED))]
        _PARSED[text] = formula
    return formula


# Formulas by source text, as many as plans and dropped oldest first.
_PARSED: dict[str, Formula] = {}

"""
Monadic second-order logic over finite MSCs.

Formulas are built from event relations (process successor, message
matching), label tests, equality, set membership, boolean connectives,
and first/second-order quantification.  Transitive closures of definable
binary relations are first-class: by default they are interpreted
natively as graph closure, and a ``subset`` evaluation mode replaces
every closure atom by its second-order encoding (forward-closed sets)
for cross-validation.

:meth:`Evaluator.check` compiles a formula into closures.  Each relation
atom is materialised once, with successor and predecessor indexes, and
a block of first-order existentials over a conjunction runs as a join
along those indexes instead of trying every event for every variable.
The one-node-at-a-time tree walker ``Evaluator._eval`` is kept as the
reference the tests compare the compiled path against.  Second-order
quantification iterates all event subsets, so formulas containing it
are guarded by a configurable event cap.

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
from itertools import combinations

from . import graph, relations
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


def _has_so(f: Formula) -> bool:
    if isinstance(f, (ExistsF, ForallF)):
        return f.second_order or _has_so(f.body)
    if isinstance(f, NotF):
        return _has_so(f.body)
    if isinstance(f, (OrF, AndF, ImpliesF, IffF)):
        return _has_so(f.left) or _has_so(f.right)
    if isinstance(f, RelF):
        return _rel_has_so(f.rel)
    return False


def _rel_has_so(r: RelExpr) -> bool:
    if isinstance(r, DefRel):
        return _has_so(r.body)
    if isinstance(r, UnionRel):
        return any(_rel_has_so(p) for p in r.parts)
    if isinstance(r, ClosureRel):
        return _rel_has_so(r.inner)
    return False


def _has_closure(f: Formula) -> bool:
    if isinstance(f, NotF):
        return _has_closure(f.body)
    if isinstance(f, (OrF, AndF, ImpliesF, IffF)):
        return _has_closure(f.left) or _has_closure(f.right)
    if isinstance(f, (ExistsF, ForallF)):
        return _has_closure(f.body)
    if isinstance(f, RelF):
        return _rel_closed(f.rel)
    return False


def _rel_closed(r: RelExpr) -> bool:
    if isinstance(r, ClosureRel):
        return True
    if isinstance(r, UnionRel):
        return any(_rel_closed(p) for p in r.parts)
    if isinstance(r, DefRel):
        return _has_closure(r.body)
    return False


# -- evaluation ----------------------------------------------------------------


class Evaluator:
    def __init__(self, msc: Msc, so_limit: int = DEFAULT_SO_LIMIT, closure_mode: str = "native"):
        if closure_mode not in ("native", "subset"):
            raise ValueError(f"unknown closure mode {closure_mode!r}")
        require_valid(msc)
        self.msc = msc
        self.events = list(msc.events)
        self.so_limit = so_limit
        self.closure_mode = closure_mode
        self._materialized: dict[tuple, frozenset[tuple[int, int]]] = {}

    def named_edges(self, name: str, k: int | None) -> frozenset[tuple[int, int]]:
        """Edges of a relation the relations module computes, by name."""
        return relations.named(self.msc, name, k).edges

    def check(self, formula: Formula, env: dict | None = None) -> bool:
        """Compile `formula` (see :class:`_Compiler`) and evaluate it."""
        env = {v: frozenset(x) if isinstance(x, set) else x for v, x in (env or {}).items()}
        missing = free_vars(formula) - set(env)
        if missing:
            raise MscError(f"unassigned free variables: {sorted(missing)}")
        if _has_so(formula) or (self.closure_mode == "subset" and _has_closure(formula)):
            if len(self.events) > self.so_limit:
                raise SoLimitError(
                    f"{len(self.events)} events exceed the second-order cap {self.so_limit}"
                )
        return _Compiler(self).formula(formula)(env)

    # The tree walker below is the reference the compiled path is tested
    # against: it evaluates one node per call and tests relations pair by
    # pair, materialising only the inner relation of a closure.

    def _eval(self, f: Formula, env: dict) -> bool:
        if isinstance(f, TrueF):
            return True
        if isinstance(f, NotF):
            return not self._eval(f.body, env)
        if isinstance(f, OrF):
            return self._eval(f.left, env) or self._eval(f.right, env)
        if isinstance(f, AndF):
            return self._eval(f.left, env) and self._eval(f.right, env)
        if isinstance(f, ImpliesF):
            return (not self._eval(f.left, env)) or self._eval(f.right, env)
        if isinstance(f, IffF):
            return self._eval(f.left, env) == self._eval(f.right, env)
        if isinstance(f, ExistsF):
            return self._quant(f.var, f.second_order, f.body, env, any_of=True)
        if isinstance(f, ForallF):
            return self._quant(f.var, f.second_order, f.body, env, any_of=False)
        if isinstance(f, EqF):
            return env[f.left] == env[f.right]
        if isinstance(f, InF):
            return env[f.element] in env[f.setvar]
        if isinstance(f, LabelF):
            return self.msc.labels[env[f.var]] == f.action
        if isinstance(f, PredF):
            return self._pred(f, env)
        if isinstance(f, RelF):
            return self._rel_holds(f.rel, env[f.left], env[f.right], env)
        raise TypeError(f"unknown formula node {f!r}")

    def _quant(self, var: str, second_order: bool, body: Formula, env: dict, any_of: bool) -> bool:
        saved = env.get(var, _MISSING)
        try:
            if second_order:
                domain = self._subsets()
            else:
                domain = self.events
            for value in domain:
                env[var] = value
                result = self._eval(body, env)
                if result == any_of:
                    return any_of
            return not any_of
        finally:
            if saved is _MISSING:
                env.pop(var, None)
            else:
                env[var] = saved

    def _subsets(self):
        for size in range(len(self.events) + 1):
            for combo in combinations(self.events, size):
                yield frozenset(combo)

    def _pred(self, f: PredF, env: dict) -> bool:
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

    # -- binary relations ------------------------------------------------

    def _rel_holds(self, r: RelExpr, e1: int, e2: int, env: dict) -> bool:
        if isinstance(r, PrimRel):
            if r.name == "succ":
                return (e1, e2) in self.msc.succ_edges
            return (e1, e2) in self.msc.msg_edges
        if isinstance(r, NamedRel):
            return (e1, e2) in self.named_edges(r.name, r.k)
        if isinstance(r, DefRel):
            savedx = env.get(r.xvar, _MISSING)
            savedy = env.get(r.yvar, _MISSING)
            env[r.xvar], env[r.yvar] = e1, e2
            try:
                return self._eval(r.body, env)
            finally:
                for var, saved in ((r.xvar, savedx), (r.yvar, savedy)):
                    if saved is _MISSING:
                        env.pop(var, None)
                    else:
                        env[var] = saved
        if isinstance(r, UnionRel):
            return any(self._rel_holds(p, e1, e2, env) for p in r.parts)
        if isinstance(r, ClosureRel):
            if self.closure_mode == "subset":
                return self._closure_by_subsets(r, e1, e2, env)
            return (e1, e2) in self._closure_edges(r, env)
        raise TypeError(f"unknown relation node {r!r}")

    def _env_signature(self, r: RelExpr, env: dict) -> tuple:
        fv = sorted(rel_free_vars(r))
        return tuple((v, env[v]) for v in fv)

    def _edges_of(self, r: RelExpr, env: dict) -> frozenset[tuple[int, int]]:
        key = (r, self._env_signature(r, env))
        if key not in self._materialized:
            edges = frozenset(
                (a, b)
                for a in self.events
                for b in self.events
                if self._rel_holds(r, a, b, env)
            )
            self._materialized[key] = edges
        return self._materialized[key]

    def _closure_edges(self, r: ClosureRel, env: dict) -> frozenset[tuple[int, int]]:
        key = (r, self._env_signature(r, env))
        if key not in self._materialized:
            base = RelationGraph.of(self.events, self._edges_of(r.inner, env))
            self._materialized[key] = relations.transitive_closure(base, r.reflexive).edges
        return self._materialized[key]

    def _closure_by_subsets(self, r: ClosureRel, e1: int, e2: int, env: dict) -> bool:
        """The second-order encoding: e2 belongs to every forward-closed
        set that contains e1 (reflexive case) or all successors reached
        from e1 (strict case)."""
        edges = self._edges_of(r.inner, env)
        for X in self._subsets():
            if r.reflexive:
                if e1 not in X:
                    continue
                closed = all(t in X for (z, t) in edges if z in X)
            else:
                closed = all(t in X for (z, t) in edges if z in X or z == e1)
            if closed and e2 not in X:
                return False
        return True


class _Missing:
    pass


_MISSING = _Missing()


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


# -- compiled evaluation ---------------------------------------------------------
#
# A compiled formula is a closure taking the environment dict (variable ->
# event id, or frozenset of ids for a set variable).  Quantifiers bind
# their variable in that dict and restore the outer value on exit.


def _true(env: dict) -> bool:
    return True


def _all(tests: list) -> object:
    """One closure testing every closure of `tests`, left to right."""
    tests = [t for t in tests if t is not _true]
    if not tests:
        return _true
    if len(tests) == 1:
        return tests[0]
    first, rest = tests[0], _all(tests[1:])
    return lambda env: first(env) and rest(env)


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


def _conjuncts(f: Formula, out: list[Formula]) -> None:
    """Append the conjuncts of `f`, pushing negation through ~, | and =>."""
    if isinstance(f, AndF):
        _conjuncts(f.left, out)
        _conjuncts(f.right, out)
        return
    if isinstance(f, NotF):
        g = f.body
        if isinstance(g, NotF):
            _conjuncts(g.body, out)
            return
        if isinstance(g, OrF):
            _conjuncts(NotF(g.left), out)
            _conjuncts(NotF(g.right), out)
            return
        if isinstance(g, ImpliesF):
            _conjuncts(g.left, out)
            _conjuncts(NotF(g.right), out)
            return
    out.append(f)


class _Rel:
    """A compiled relation node.  `index(env)` materialises it as a
    :class:`RelationGraph` for the values of its free variables `fv`,
    once per distinct value tuple.
    A `lazy` node is tested pair by pair with `holds(env, a, b)` and has
    no cheap index, so quantifiers never range over it."""

    __slots__ = ("fv", "lazy", "index", "holds")

    def __init__(self, fv: tuple[str, ...], lazy: bool, index, holds):
        self.fv, self.lazy, self.index, self.holds = fv, lazy, index, holds


def _memo(fv: tuple[str, ...], build) -> object:
    if not fv:
        once: list[RelationGraph] = []

        def index_once(env: dict) -> RelationGraph:
            if not once:
                once.append(build(env))
            return once[0]

        return index_once
    cache: dict[tuple, RelationGraph] = {}

    def index(env: dict) -> RelationGraph:
        key = tuple([env[v] for v in fv])
        got = cache.get(key)
        if got is None:
            got = cache[key] = build(env)
        return got

    return index


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
    """Compiles formulas for one evaluator into closures ``env -> bool``.

    Every relation atom is materialised once per binding of its free
    variables into a :class:`RelationGraph`, whose successor and
    predecessor maps the quantifiers range over.  A block of
    first-order existentials over a conjunction runs as a join: each
    variable in turn ranges over the neighbours of a bound variable
    through a relation conjunct where one exists, over all events
    otherwise, and each other conjunct is tested as soon as its variables
    are bound.  ``A v. phi`` is ``~E v. ~phi``.  Second-order quantifiers
    and subset-encoded closures enumerate event sets as `_eval` does.
    """

    def __init__(self, ev: Evaluator):
        self.ev = ev
        self.events = ev.events
        self.labels = ev.msc.labels
        self.subset_closures = ev.closure_mode == "subset"
        self.free: dict[int, tuple] = {}  # the memo of _free
        self.rels: dict[int, tuple[RelExpr, _Rel]] = {}

    def formula(self, f: Formula):
        if isinstance(f, TrueF):
            return _true
        if isinstance(f, NotF):
            body = self.formula(f.body)
            return lambda env: not body(env)
        if isinstance(f, (OrF, AndF, ImpliesF, IffF)):
            left, right = self.formula(f.left), self.formula(f.right)
            if isinstance(f, OrF):
                return lambda env: left(env) or right(env)
            if isinstance(f, AndF):
                return lambda env: left(env) and right(env)
            if isinstance(f, ImpliesF):
                return lambda env: not left(env) or right(env)
            return lambda env: left(env) == right(env)
        if isinstance(f, ExistsF):
            return self.exists(f)
        if isinstance(f, ForallF):
            return self.formula(NotF(ExistsF(f.var, f.second_order, NotF(f.body))))
        if isinstance(f, EqF):
            a, b = f.left, f.right
            return lambda env: env[a] == env[b]
        if isinstance(f, InF):
            a, s = f.element, f.setvar
            return lambda env: env[a] in env[s]
        labels = self.labels
        if isinstance(f, LabelF):
            v, action = f.var, f.action
            return lambda env: labels[env[v]] == action
        if isinstance(f, PredF):
            if f.name not in _LABEL_TESTS:
                raise MscError(f"unknown predicate {f.name!r}")
            test = _LABEL_TESTS[f.name]
            if len(f.args) == 1:
                (a,) = f.args
                return lambda env: test(labels[env[a]])
            a, b = f.args
            return lambda env: test(labels[env[a]], labels[env[b]])
        if isinstance(f, RelF):
            rel, a, b = self.rel(f.rel), f.left, f.right
            if rel.lazy:
                holds = rel.holds
                return lambda env: holds(env, env[a], env[b])
            index = rel.index
            return lambda env: (env[a], env[b]) in index(env).edges
        raise TypeError(f"unknown formula node {f!r}")

    # -- quantifiers ----------------------------------------------------

    def exists(self, f: ExistsF):
        if f.second_order:
            var, body, subsets = f.var, self.formula(f.body), self.ev._subsets

            def some_set(env: dict) -> bool:
                saved = _save(env, (var,))
                try:
                    for value in subsets():
                        env[var] = value
                        if body(env):
                            return True
                    return False
                finally:
                    _restore(env, saved)

            return some_set

        block: list[str] = []
        body: Formula = f
        while (peeled := _peel_exists(body)) is not None:
            block.append(peeled[0])
            body = peeled[1]
        conjuncts: list[Formula] = []
        _conjuncts(body, conjuncts)
        first, steps = self._plan(block, conjuncts)

        run = _true
        for var, source, tests in reversed(steps):
            run = self._bind(var, source, _all(tests + [run]))
        guard = _all(first)

        def join(env: dict) -> bool:
            if not guard(env):
                return False
            saved = _save(env, block)
            try:
                return run(env)
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

    def _bind(self, var: str, source, then):
        if source is None:
            events = self.events

            def each_event(env: dict) -> bool:
                for value in events:
                    env[var] = value
                    if then(env):
                        return True
                return False

            return each_event
        index, other, forward = source

        def each_neighbour(env: dict) -> bool:
            rel = index(env)
            near = rel.adjacency() if forward else rel.predecessors
            for value in near.get(env[other], ()):
                env[var] = value
                if then(env):
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
        events, msc = self.events, self.ev.msc
        if isinstance(r, PrimRel):
            edges = msc.succ_edges if r.name == "succ" else msc.msg_edges
            return self._materialised(fv, lambda env: RelationGraph.of(events, edges))
        if isinstance(r, NamedRel):
            return self._materialised(fv, lambda env: relations.named(msc, r.name, r.k))
        if isinstance(r, DefRel):
            body, x, y = self.formula(r.body), r.xvar, r.yvar
            if _has_so(r.body) or (self.subset_closures and _has_closure(r.body)):

                def holds(env: dict, a: int, b: int) -> bool:
                    saved = _save(env, (x, y))
                    env[x], env[y] = a, b
                    try:
                        return body(env)
                    finally:
                        _restore(env, saved)

                return self._lazy(fv, holds)

            def pairs(env: dict) -> RelationGraph:
                saved = _save(env, (x, y))
                try:
                    out = []
                    for a in events:
                        env[x] = a
                        for b in events:
                            env[y] = b
                            if body(env):
                                out.append((a, b))
                    return RelationGraph.of(events, out)
                finally:
                    _restore(env, saved)

            return self._materialised(fv, pairs)
        if isinstance(r, UnionRel):
            parts = [self.rel(p) for p in r.parts]
            if any(p.lazy for p in parts):
                return self._lazy(fv, lambda env, a, b: any(p.holds(env, a, b) for p in parts))
            return self._materialised(
                fv,
                lambda env: RelationGraph.of(
                    events, frozenset().union(*(p.index(env).edges for p in parts))
                ),
            )
        if isinstance(r, ClosureRel):
            inner, reflexive = self.rel(r.inner), r.reflexive
            if self.subset_closures:
                return self._lazy(
                    fv,
                    lambda env, a, b: self._subset_closure(
                        inner.index(env).edges, reflexive, a, b
                    ),
                )

            def closed(env: dict) -> RelationGraph:
                succ = inner.index(env).adjacency()
                adj = {e: succ.get(e, ()) for e in events}
                return RelationGraph(graph.reach(adj, reflexive=reflexive))

            return self._materialised(fv, closed)
        raise TypeError(f"unknown relation node {r!r}")

    def _materialised(self, fv: tuple[str, ...], build) -> _Rel:
        index = _memo(fv, build)
        return _Rel(fv, False, index, lambda env, a, b: (a, b) in index(env).edges)

    def _lazy(self, fv: tuple[str, ...], holds) -> _Rel:
        events = self.events
        index = _memo(
            fv,
            lambda env: RelationGraph.of(
                events, [(a, b) for a in events for b in events if holds(env, a, b)]
            ),
        )
        return _Rel(fv, True, index, holds)

    def _subset_closure(self, edges, reflexive: bool, e1: int, e2: int) -> bool:
        """e2 lies in every forward-closed event set that holds e1
        (reflexive) or the successors of e1 (strict)."""
        for X in self.ev._subsets():
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
    out as defined sub-formulas, mirroring their definitions.
    """
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
        args = [self.expect("name").text]
        while self.peek().kind == "comma":
            self.next()
            args.append(self.expect("name").text)
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
        left = self.expect("name").text
        op = self.next()
        if op.kind == "arrow":
            return RelF(SUCC, left, self.expect("name").text)
        if op.kind == "arrowplus":
            return RelF(SUCC_PLUS, left, self.expect("name").text)
        if op.kind == "arrowstar":
            return RelF(SUCC_STAR, left, self.expect("name").text)
        if op.kind == "le":
            return RelF(HB, left, self.expect("name").text)
        if op.kind == "lt":
            return RelF(HB_STRICT, left, self.expect("name").text)
        if op.kind == "eq":
            return EqF(left, self.expect("name").text)
        if op.kind == "neq":
            return NotF(EqF(left, self.expect("name").text))
        if op.kind == "name" and op.text == "in":
            return InF(left, self.expect("name").text)
        raise MsoSyntaxError(f"expected a relation after {left!r}", op.pos)


def parse_formula(text: str) -> Formula:
    """Parse the ASCII surface syntax into an AST; raises
    :class:`MsoSyntaxError` with the offending position."""
    return _Parser(text).parse()

"""
Command-line front end.

Exit status: 0 when the checked property holds (or the command simply
succeeded), 1 when it fails (a witness is always printed), 2 on usage or
parse errors.  Output is deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounded as bounded_mod
from . import cfsm as cfsm_mod
from . import mso as mso_mod
from . import network, relations, stw
from .classify import (
    MODELS,
    NotInModelError,
    classify,
    check_linearization,
    format_linearization,
    linearize,
)
from .core import MscError, validate, to_dot
from .io import ParseError, event_tokens, load_cfsm, load_msc, parse_trace, serialize_msc


def _out(args, payload: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_validate(args) -> int:
    msc = load_msc(args.file)
    report = validate(msc)
    if report.ok:
        _out(args, {"ok": True}, f"ok: {len(msc.events)} events")
        return 0
    lines = [f"({v.condition}) events {list(v.events)}: {v.detail}" for v in report.violations]
    _out(
        args,
        {
            "ok": False,
            "violations": [
                {"condition": v.condition, "events": list(v.events), "detail": v.detail}
                for v in report.violations
            ],
        },
        "\n".join(lines),
    )
    return 1


def cmd_classify(args) -> int:
    msc = load_msc(args.file)
    report = classify(msc)
    _out(args, report.to_json(), report.to_table(msc))
    return 0


def cmd_linearize(args) -> int:
    msc = load_msc(args.file)
    try:
        lin = linearize(msc, args.model)
    except NotInModelError as exc:
        _out(args, {"ok": False, "error": str(exc)}, f"not in model: {exc}")
        return 1
    _out(
        args,
        {"ok": True, "order": list(lin.order)},
        format_linearization(msc, lin),
    )
    return 0


def cmd_check_lin(args) -> int:
    msc = load_msc(args.file)
    events = {tok: e for e, tok in event_tokens(msc).items()}
    try:
        order = tuple(events[tok] for tok in args.lin.split())
    except KeyError as exc:
        print(f"unknown event token {exc}", file=sys.stderr)
        return 2
    ok = check_linearization(msc, order, args.model)
    _out(args, {"ok": ok}, "holds" if ok else "violated")
    return 0 if ok else 1


def cmd_bounded(args) -> int:
    msc = load_msc(args.file)
    fn = bounded_mod.forall_k_bounded if args.universal else bounded_mod.exists_k_bounded
    try:
        ok = fn(msc, args.k, args.model)
    except NotInModelError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    kind = "universally" if args.universal else "existentially"
    payload = {"ok": ok, "k": args.k, "model": args.model, "universal": bool(args.universal)}
    text = f"{kind} {args.k}-bounded under {args.model}: {'yes' if ok else 'no'}"
    if not ok:
        witness = bounded_mod.bounded_failure_witness(msc, args.k, args.model, args.universal)
        payload["witness"] = witness
        text += f"\nwitness: {json.dumps(witness, sort_keys=True)}"
    _out(args, payload, text)
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    msc = load_msc(args.file)
    result = bounded_mod.decompose_exchanges(msc, args.k)
    if isinstance(result, bounded_mod.ExchangeDecomposition):
        factors = [list(f) for f in result.factors]
        text = "\n".join(
            f"factor {i + 1}: " + " ".join(str(msc.labels[e]) for e in f)
            for i, f in enumerate(result.factors)
        )
        _out(args, {"ok": True, "factors": factors}, text or "empty decomposition")
        return 0
    payload = {"ok": False, "reason": result.reason}
    if result.reason == "receive-before-send":
        payload["receive"] = result.receive
        payload["send"] = result.send
        text = (
            f"impossible: receive {result.receive} ({msc.labels[result.receive]}) happens before "
            f"send {result.send} ({msc.labels[result.send]}) inside one unavoidable block"
        )
    else:
        payload["events"] = list(result.events)
        text = f"impossible with cap {args.k}: block {list(result.events)} has too many sends"
    _out(args, payload, text)
    return 1


def cmd_stw(args) -> int:
    msc = load_msc(args.file)
    if args.trace:
        transcript = stw.strategy_transcript(msc, args.max)
        if transcript is None:
            _out(args, {"ok": False, "k": args.max}, f"no winning strategy with k={args.max}")
            return 1
        _out(args, {"ok": True, "k": args.max, "transcript": transcript}, transcript.rstrip())
        return 0
    width = stw.special_treewidth(msc, args.max)
    if width is None:
        _out(args, {"ok": False, "max": args.max}, f"special treewidth exceeds {args.max}")
        return 1
    _out(args, {"ok": True, "width": width}, f"special treewidth: {width}")
    return 0


def cmd_mso(args) -> int:
    msc = load_msc(args.file)
    if args.builtin:
        formula = mso_mod.builtin(args.builtin)
    else:
        formula = mso_mod.parse_formula(args.formula)
    ok = mso_mod.evaluate(
        msc, formula, so_limit=args.so_limit, closure_mode=args.closure_mode
    )
    _out(args, {"ok": ok}, "satisfied" if ok else "not satisfied")
    return 0 if ok else 1


def cmd_exec(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        actions = parse_trace(fh.read())
    processes = args.processes.split() if args.processes else None
    if args.network:
        procs = network.full_process_set(actions, processes)
        net = network.network_for(args.network, procs)
        result = network.run_execution(net, actions)
        if result.ok:
            leftover = {
                qid: [e[2] for e in entries]
                for qid, entries in zip(net.queue_ids, result.config)
                if entries
            }
            _out(
                args,
                {"ok": True, "leftover": leftover},
                "accepted" + (f"; in transit: {leftover}" if leftover else ""),
            )
            return 0
        _out(
            args,
            {"ok": False, "failed_at": result.failed_at},
            f"rejected at step {result.failed_at} ({actions[result.failed_at]})",
        )
        return 1
    kinds = sorted(network.classify_execution(actions, processes))
    _out(args, {"kinds": kinds}, " ".join(kinds) if kinds else "(none)")
    return 0


def cmd_cfsm(args) -> int:
    if args.cfsm_cmd == "synch" and args.predicate != "weakly-synchronous" and args.k is None:
        print(f"error: --predicate {args.predicate} needs --k", file=sys.stderr)
        return 2
    sys_ = load_cfsm(args.system)
    if args.cfsm_cmd == "explore":
        shown = 0
        for shown, msc in enumerate(cfsm_mod.explore(sys_, args.model, args.max_events), 1):
            print(f"# behavior {shown}: {len(msc.events)} events")
            print(serialize_msc(msc), end="")
        print(f"# total: {shown} behaviors (<= {args.max_events} events, model {args.model})")
        return 0
    verdict = cfsm_mod.bounded_synchronizability(
        sys_, args.model, args.predicate, args.max_events, args.k
    )
    if verdict.ok:
        print(
            f"no violation of {args.predicate} among {args.model} behaviors"
            f" up to {args.max_events} events"
        )
        return 0
    print(f"counterexample ({len(verdict.counterexample.events)} events):")
    print(serialize_msc(verdict.counterexample), end="")
    return 1


# --relation -> (model whose scheduling relation is drawn, whether it is
# transitively closed first)
DOT_RELATIONS = {"hb": ("asy", True), "mb": ("mb", True), "onen": ("onen", True), "bowtie": ("nn", False)}


def cmd_dot(args) -> int:
    msc = load_msc(args.file)
    if args.relation:
        model, closed = DOT_RELATIONS[args.relation]
        rel = (relations.scheduling_closure if closed else relations.scheduling)(msc, model)
        print(relations.to_dot(rel, msc, name=args.relation), end="")
    else:
        print(to_dot(msc), end="")
    return 0


def non_negative_int(text: str) -> int:
    """Argument type for bounds and sizes: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS, help="output format"
    )
    parser = argparse.ArgumentParser(
        prog="msckit",
        description="Analyze message sequence charts against communication models.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[shared], help="check MSC well-formedness")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", parents=[shared], help="membership in all seven models")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("linearize", parents=[shared], help="produce a model witness linearization")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("file")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("check-lin", parents=[shared], help="check a linearization against a model clause")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--lin", required=True, help="space-separated !name/?name tokens")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_lin)

    p = sub.add_parser("bounded", parents=[shared], help="existential/universal k-boundedness")
    p.add_argument("--k", type=non_negative_int, required=True)
    p.add_argument("--model", default="asy", choices=bounded_mod.BOUNDED_MODELS)
    p.add_argument("--universal", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_bounded)

    p = sub.add_parser("decompose", parents=[shared], help="factor into exchanges")
    p.add_argument("--k", type=non_negative_int, default=None, help="cap sends per exchange")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("stw", parents=[shared], help="special treewidth via the decomposition game")
    p.add_argument("--max", type=non_negative_int, required=True)
    p.add_argument("--trace", action="store_true", help="print a winning strategy")
    p.add_argument("file")
    p.set_defaults(func=cmd_stw)

    p = sub.add_parser("mso", parents=[shared], help="evaluate an MSO formula")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula")
    g.add_argument("--builtin", choices=MODELS)
    p.add_argument("--so-limit", type=non_negative_int, default=mso_mod.DEFAULT_SO_LIMIT)
    p.add_argument("--closure-mode", choices=("native", "subset"), default="native")
    p.add_argument("file")
    p.set_defaults(func=cmd_mso)

    p = sub.add_parser("exec", parents=[shared], help="replay or classify an execution trace")
    p.add_argument("--network", choices=network.KINDS, default=None)
    p.add_argument("--processes", default=None, help="space-separated process set")
    p.add_argument("file")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("cfsm", parents=[shared], help="communicating machines")
    csub = p.add_subparsers(dest="cfsm_cmd", required=True)
    pe = csub.add_parser("explore", parents=[shared], help="enumerate behaviors")
    pe.add_argument("--system", required=True)
    pe.add_argument("--model", default="asy", choices=MODELS)
    pe.add_argument("--max-events", type=non_negative_int, default=6)
    pe.set_defaults(func=cmd_cfsm)
    ps = csub.add_parser("synch", parents=[shared], help="bounded synchronizability search")
    ps.add_argument("--system", required=True)
    ps.add_argument("--model", default="asy", choices=MODELS)
    ps.add_argument("--predicate", required=True, choices=cfsm_mod.PREDICATES)
    ps.add_argument("--k", type=non_negative_int, default=None)
    ps.add_argument("--max-events", type=non_negative_int, default=6)
    ps.set_defaults(func=cmd_cfsm)

    p = sub.add_parser("dot", parents=[shared], help="DOT export of the MSC or a relation")
    p.add_argument("--relation", choices=tuple(DOT_RELATIONS), default=None)
    p.add_argument("file")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, mso_mod.MsoSyntaxError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

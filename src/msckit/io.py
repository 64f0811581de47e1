"""
Textual and JSON formats.

MSC files (`.msc`) are line based, `#` starts a comment:

    processes p q r
    message m1 p q              # matched message named m1
    message m2 p r lost         # send without a receive
    message a  q p payload ack  # wire payload differs from the name
    order p !m1 !m2
    order q ?m1 !a
    order r ?m2

Every declared message contributes a `!name` token on its sender's
order line, and a `?name` token on its receiver's line unless declared
`lost`.  Event ids are dense integers assigned in file order (order
lines top to bottom, tokens left to right), which is what all
deterministic tie-breaks in the library key on.

Execution traces are one action per line: `! p q m` or `? p q m`.

Communicating machines:

    machine p: state l0 init; trans l0 -> l1 on ! q m1
    machine q: state s0 init; trans s0 -> s0 on ? p m1

`! q m` on machine p sends m to q; `? q m` receives the m sent by q.
"""

from __future__ import annotations

import json
from typing import Iterable

from .core import Action, Msc, recv, send


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


# -- MSC text format -------------------------------------------------------


def parse_msc(text: str) -> Msc:
    processes: list[str] = []
    messages: dict[str, dict] = {}
    order_lines: list[tuple[int, str, list[str]]] = []

    for lineno, line in _content_lines(text):
        parts = line.split()
        head = parts[0]
        if head == "processes":
            for p in parts[1:]:
                if p in processes:
                    raise ParseError(f"duplicate process {p}", lineno)
                processes.append(p)
        elif head == "message":
            if len(parts) < 4:
                raise ParseError("message needs: name sender receiver", lineno)
            name, sender, receiver = parts[1:4]
            if name in messages:
                raise ParseError(f"duplicate message {name}", lineno)
            spec = {"from": sender, "to": receiver, "lost": False, "payload": name}
            rest = parts[4:]
            while rest:
                if rest[0] == "lost":
                    spec["lost"] = True
                    rest = rest[1:]
                elif rest[0] == "payload" and len(rest) >= 2:
                    spec["payload"] = rest[1]
                    rest = rest[2:]
                else:
                    raise ParseError(f"bad message flag {rest[0]!r}", lineno)
            messages[name] = spec
        elif head == "order":
            if len(parts) < 2:
                raise ParseError("order needs a process name", lineno)
            order_lines.append((lineno, parts[1], parts[2:]))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    return _assemble(processes, messages, order_lines)


def _assemble(
    processes: list[str],
    messages: dict[str, dict],
    order_lines: list[tuple[int, str, list[str]]],
) -> Msc:
    for name, spec in messages.items():
        for endpoint in (spec["from"], spec["to"]):
            if endpoint not in processes:
                raise ParseError(f"message {name} uses undeclared process {endpoint}")
        if spec["from"] == spec["to"]:
            raise ParseError(f"message {name} is a self-send")

    labels: dict[int, Action] = {}
    proc_order: dict[str, list[int]] = {p: [] for p in processes}
    send_ids: dict[str, int] = {}
    recv_ids: dict[str, int] = {}
    next_id = 0
    seen_order: set[str] = set()

    for lineno, proc, tokens in order_lines:
        if proc not in processes:
            raise ParseError(f"order for undeclared process {proc}", lineno)
        if proc in seen_order:
            raise ParseError(f"second order line for {proc}", lineno)
        seen_order.add(proc)
        for tok in tokens:
            if len(tok) < 2 or tok[0] not in "!?":
                raise ParseError(f"bad event token {tok!r}", lineno)
            name = tok[1:]
            if name not in messages:
                raise ParseError(f"unknown message {name!r}", lineno)
            spec = messages[name]
            if tok[0] == "!":
                if name in send_ids:
                    raise ParseError(f"second send of {name}", lineno)
                if spec["from"] != proc:
                    raise ParseError(f"{name} is sent by {spec['from']}, not {proc}", lineno)
                labels[next_id] = send(spec["from"], spec["to"], spec["payload"])
                send_ids[name] = next_id
            else:
                if name in recv_ids:
                    raise ParseError(f"second receive of {name}", lineno)
                if spec["lost"]:
                    raise ParseError(f"receive token for lost message {name}", lineno)
                if spec["to"] != proc:
                    raise ParseError(f"{name} is received by {spec['to']}, not {proc}", lineno)
                labels[next_id] = recv(spec["from"], spec["to"], spec["payload"])
                recv_ids[name] = next_id
            proc_order[proc].append(next_id)
            next_id += 1

    for name, spec in messages.items():
        if name not in send_ids:
            raise ParseError(f"message {name} never sent")
        if not spec["lost"] and name not in recv_ids:
            raise ParseError(f"message {name} never received (not declared lost)")

    matching = {send_ids[n]: recv_ids[n] for n in messages if n in recv_ids}
    return Msc(processes, labels, proc_order, matching)


def serialize_msc(msc: Msc) -> str:
    """Inverse of :func:`parse_msc`, re-deriving message names from send
    event order.  Payloads are preserved through `payload` flags when
    they cannot double as unique names."""
    tokens = event_tokens(msc)
    lines = ["processes " + " ".join(msc.processes)] if msc.processes else []
    for s in msc.send_events:
        a = msc.labels[s]
        name = tokens[s][1:]
        flags = ""
        if s not in msc.matching:
            flags += " lost"
        if a.payload != name:
            flags += f" payload {a.payload}"
        lines.append(f"message {name} {a.sender} {a.receiver}{flags}")
    for p in msc.processes:
        lines.append(("order " + p + " " + " ".join(tokens[e] for e in msc.proc_order[p])).rstrip())
    return "\n".join(lines) + "\n"


def message_names(msc: Msc) -> dict[int, str]:
    """A unique name per send, in ascending id: its payload, suffixed
    `_2`, `_3`, ... when an earlier send took that name."""
    names = {}
    used: set[str] = set()
    for s in sorted(msc.send_events):
        base = msc.labels[s].payload
        name = base
        i = 1
        while name in used:
            i += 1
            name = f"{base}_{i}"
        used.add(name)
        names[s] = name
    return names


def event_tokens(msc: Msc) -> dict[int, str]:
    """The `!name` token of every send and the `?name` token of every
    matched receive, as the text format writes them."""
    tokens = {}
    for s, name in message_names(msc).items():
        tokens[s] = "!" + name
        if s in msc.matching:
            tokens[msc.matching[s]] = "?" + name
    return tokens


def msc_to_json(msc: Msc) -> dict:
    tokens = event_tokens(msc)
    return {
        "processes": list(msc.processes),
        "messages": [
            {
                "name": tokens[s][1:],
                "from": msc.labels[s].sender,
                "to": msc.labels[s].receiver,
                "lost": s not in msc.matching,
                "payload": msc.labels[s].payload,
            }
            for s in msc.send_events
        ],
        "orders": {p: [tokens[e] for e in msc.proc_order[p]] for p in msc.processes},
    }


def msc_from_json(data: dict) -> Msc:
    processes = list(data.get("processes", []))
    messages = {}
    for m in data.get("messages", []):
        for key in ("name", "from", "to", "payload"):
            if not isinstance(m.get(key, ""), str):
                raise ParseError(f"message field {key!r} is not a string: {m[key]!r}")
        messages[m["name"]] = {
            "from": m["from"],
            "to": m["to"],
            "lost": bool(m.get("lost", False)),
            "payload": m.get("payload", m["name"]),
        }
    order_lines = [(0, p, list(toks)) for p, toks in data.get("orders", {}).items()]
    # honour declared process order for id assignment
    order_lines.sort(key=lambda item: processes.index(item[1]))
    return _assemble(processes, messages, order_lines)


def load_msc(path: str) -> Msc:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            return msc_from_json(json.loads(text))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise ParseError(f"malformed JSON MSC: {exc}") from None
    return parse_msc(text)


# -- execution traces --------------------------------------------------------


def parse_trace(text: str) -> list[Action]:
    actions = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 4 or parts[0] not in "!?":
            raise ParseError("trace lines look like: ! p q m", lineno)
        mark, p, q, m = parts
        if p == q:
            raise ParseError(f"self-send on {p}", lineno)
        actions.append(send(p, q, m) if mark == "!" else recv(p, q, m))
    return actions


def serialize_trace(actions: Iterable[Action]) -> str:
    lines = []
    for a in actions:
        mark = "!" if a.is_send else "?"
        lines.append(f"{mark} {a.sender} {a.receiver} {a.payload}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- communicating machines ---------------------------------------------------


def parse_cfsm(text: str):
    from .cfsm import CfsmSystem, Machine

    machines: dict[str, dict] = {}
    current: dict | None = None

    statements: list[tuple[int, str]] = []
    for lineno, line in _content_lines(text):
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                statements.append((lineno, stmt))

    queue = list(reversed(statements))
    while queue:
        lineno, stmt = queue.pop()
        parts = stmt.split()
        if parts[0] == "machine":
            # `machine p: state l0 init` carries a trailing statement
            rest = stmt[len("machine") :].strip()
            name, _, tail = rest.partition(":")
            name = name.strip()
            if not name:
                raise ParseError("machine needs a process name", lineno)
            if name in machines:
                raise ParseError(f"duplicate machine {name}", lineno)
            current = {"proc": name, "states": [], "init": None, "trans": []}
            machines[name] = current
            if tail.strip():
                queue.append((lineno, tail.strip()))
        elif parts[0] == "state":
            if current is None:
                raise ParseError("state outside a machine", lineno)
            if len(parts) < 2:
                raise ParseError("state needs a name", lineno)
            sname = parts[1]
            if sname not in current["states"]:
                current["states"].append(sname)
            if parts[2:] == ["init"]:
                if current["init"] is not None:
                    raise ParseError("second init state", lineno)
                current["init"] = sname
            elif parts[2:]:
                raise ParseError(f"bad state flags {parts[2:]}", lineno)
        elif parts[0] == "trans":
            if current is None:
                raise ParseError("trans outside a machine", lineno)
            # trans SRC -> DST on !|? PEER MSG
            if (
                len(parts) != 8
                or parts[2] != "->"
                or parts[4] != "on"
                or parts[5] not in "!?"
            ):
                raise ParseError("trans looks like: trans l0 -> l1 on ! q m1", lineno)
            src, dst, mark, peer, payload = parts[1], parts[3], parts[5], parts[6], parts[7]
            me = current["proc"]
            if peer == me:
                raise ParseError("self-send transition", lineno)
            action = send(me, peer, payload) if mark == "!" else recv(peer, me, payload)
            for s in (src, dst):
                if s not in current["states"]:
                    current["states"].append(s)
            current["trans"].append((src, action, dst))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)

    built = {}
    for name, m in machines.items():
        if m["init"] is None:
            raise ParseError(f"machine {name} lacks an init state")
        built[name] = Machine(
            process=name,
            states=tuple(m["states"]),
            initial=m["init"],
            transitions=tuple(m["trans"]),
        )
    return CfsmSystem(built)


def load_cfsm(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cfsm(fh.read())

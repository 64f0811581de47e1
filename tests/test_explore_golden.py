"""Golden replay of ``msckit cfsm explore`` and ``msckit exec``.

Each explore case runs :func:`msckit.cli.main` in-process with
``cfsm explore --max-events 5`` for one of the seven models on one
system: the named systems of ``test_cfsm.py`` and two seeded protocol
systems.  Each synch case runs ``cfsm synch --max-events 5`` for one
predicate and one model on the same systems, with ``--k 1`` where the
predicate needs a bound.  Stdout and exit code are compared with
``tests/data/explore_golden.json`` byte for byte, and so are the event
ids (process lines and matching) of every emitted chart and of every
counterexample, which the serialised text does not show: they come from
the execution that first reached each isomorphism class.  The exec cases
replay two traces with ``exec --network`` on each of the four canonical
networks, and classify them with plain ``exec``.

To re-record after an intended change of output, run from the
repository root::

    PYTHONPATH=src python tests/test_explore_golden.py

and review the diff of ``tests/data/explore_golden.json`` before
committing.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import tempfile

import pytest
from test_cfsm import BACKCHANNEL, OPEN_PEER, PING_PONG, protocol_text

from msckit.cfsm import PREDICATES, bounded_synchronizability, explore
from msckit.classify import MODELS
from msckit.cli import main
from msckit.io import parse_cfsm
from msckit.network import KINDS

GOLDEN = pathlib.Path(__file__).parent / "data" / "explore_golden.json"
MAX_EVENTS = 5
# the bound given to the predicates that need one
SYNCH_K = {p: ["--k", "1"] for p in PREDICATES if p != "weakly-synchronous"}

_rng = random.Random(2022)
SYSTEMS = {
    "ping-pong.cfsm": PING_PONG,
    "backchannel.cfsm": BACKCHANNEL,
    "open-peer.cfsm": OPEN_PEER,
    **{f"protocol-{i}.cfsm": protocol_text(_rng) for i in range(2)},
}

TRACES = {
    # p's m1 is overtaken in q's mailbox; m4 and m5 stay in flight
    "overtake.trace": "! p q m1\n! r q m2\n! q r m3\n? r q m2\n? q r m3\n! p r m4\n! r p m5\n",
    # the single shared queue holds m1 ahead of m2
    "nested.trace": "! p q m1\n! q r m2\n? q r m2\n? p q m1\n",
}


def _commands() -> dict[str, tuple[list[str], str]]:
    out = {}
    for name in SYSTEMS:
        for model in MODELS:
            cmd = ["cfsm", "explore", "--max-events", str(MAX_EVENTS), "--model", model]
            out[" ".join(cmd + ["--system", name])] = (cmd + ["--system"], name)
            for predicate in PREDICATES:
                cmd = ["cfsm", "synch", "--max-events", str(MAX_EVENTS), "--model", model]
                cmd += ["--predicate", predicate] + SYNCH_K.get(predicate, [])
                out[" ".join(cmd + ["--system", name])] = (cmd + ["--system"], name)
    for name in TRACES:
        for cmd in [["exec"]] + [["exec", "--network", kind] for kind in KINDS]:
            out[" ".join(cmd + [name])] = (cmd, name)
    return out


CASES = _commands()


def _event_ids(msc) -> str:
    """The chart's process lines and matching by event id."""
    lines = " ".join(f"{p}:{','.join(map(str, msc.proc_order[p]))}" for p in msc.processes)
    matching = " ".join(f"{s}>{r}" for s, r in sorted(msc.matching.items()))
    return f"{lines} | {matching}"


def _run(case: str, workdir: pathlib.Path) -> dict:
    cmd, name = CASES[case]
    path = workdir / name
    path.write_text(SYSTEMS.get(name) or TRACES[name], encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(cmd + [str(path)])
    result = {"exit": code, "stdout": buf.getvalue()}
    if name in SYSTEMS:
        sys_, model = parse_cfsm(SYSTEMS[name]), cmd[cmd.index("--model") + 1]
        if cmd[1] == "explore":
            result["event_ids"] = [_event_ids(m) for m in explore(sys_, model, MAX_EVENTS)]
        else:
            predicate = cmd[cmd.index("--predicate") + 1]
            k = 1 if predicate in SYNCH_K else None
            verdict = bounded_synchronizability(sys_, model, predicate, MAX_EVENTS, k)
            if verdict.counterexample is not None:
                result["event_ids"] = _event_ids(verdict.counterexample)
    return result


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_explore_golden(case, golden, tmp_path):
    assert _run(case, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {case: _run(case, pathlib.Path(tmp)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")

import json
import random

import pytest

from conftest import random_msc
from msckit.core import send, recv, validate
from msckit.corpus import EXAMPLES, example
from msckit.io import (
    ParseError,
    msc_from_json,
    msc_to_json,
    parse_cfsm,
    parse_msc,
    parse_trace,
    serialize_msc,
    serialize_trace,
)


def test_parse_basics():
    m = parse_msc(
        """
        # demo
        processes p q
        message m1 p q
        order p !m1
        order q ?m1
        """
    )
    assert validate(m).ok
    assert m.labels[0] == send("p", "q", "m1")
    assert m.matching == {0: 1}


def test_event_ids_follow_file_order():
    m = example("pipeline")
    # order lines: p, q, r, s; p's first token is !m5
    assert m.labels[0] == send("p", "r", "m5")
    assert m.proc_order["q"] == (2, 3, 4)


def test_payload_override_and_lost():
    m = parse_msc(
        """
        processes p q
        message a1 p q payload m
        message a2 p q lost payload m
        order p !a1 !a2
        order q ?a1
        """
    )
    assert m.labels[0].payload == "m" and m.labels[1].payload == "m"
    assert m.unmatched_sends == {1}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("processes p q\norder p !m1", "unknown message"),
        ("processes p q\nmessage m1 p q\norder p !m1 !m1\norder q ?m1", "second send"),
        ("processes p q\nmessage m1 p q\norder q ?m1", "never sent"),
        ("processes p q\nmessage m1 p q\norder p !m1", "never received"),
        ("processes p q\nmessage m1 p q lost\norder p !m1\norder q ?m1", "lost message"),
        ("processes p q\nmessage m1 p p\norder p !m1", "self-send"),
        ("processes p\nbogus x", "unknown directive"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_msc(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("name", EXAMPLES)
def test_text_roundtrip_corpus(name):
    m = example(name)
    again = parse_msc(serialize_msc(m))
    assert again.isomorphic(m)


def test_text_roundtrip_random():
    rng = random.Random(61)
    for _ in range(80):
        m = random_msc(rng, max_events=8)
        assert parse_msc(serialize_msc(m)).isomorphic(m)


@pytest.mark.parametrize("name", EXAMPLES)
def test_json_roundtrip_corpus(name):
    m = example(name)
    blob = json.dumps(msc_to_json(m))
    assert msc_from_json(json.loads(blob)).isomorphic(m)


def test_trace_roundtrip():
    actions = [send("p", "q", "m1"), recv("p", "q", "m1"), send("q", "p", "x")]
    assert parse_trace(serialize_trace(actions)) == actions
    assert parse_trace("# nothing\n") == []


def test_trace_error():
    with pytest.raises(ParseError):
        parse_trace("! p q\n")


def test_trace_self_send_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_trace("! p q m\n! p p m\n")
    assert exc.value.line == 2 and "self-send" in str(exc.value)


@pytest.mark.parametrize("key", ["name", "from", "to", "payload"])
@pytest.mark.parametrize("value", [None, 7, ["p"]])
def test_json_non_string_fields(key, value):
    data = msc_to_json(example("crossing"))
    data["messages"][0][key] = value
    with pytest.raises(ParseError) as exc:
        msc_from_json(data)
    assert repr(key) in str(exc.value)


def test_cfsm_multiline_and_inline():
    inline = parse_cfsm("machine p: state a init; trans a -> b on ! q m")
    block = parse_cfsm(
        """
        machine p:
          state a init
          trans a -> b on ! q m
        """
    )
    assert inline.machines["p"].transitions == block.machines["p"].transitions


def test_cfsm_errors():
    with pytest.raises(ParseError):
        parse_cfsm("machine p: state a")  # no init
    with pytest.raises(ParseError):
        parse_cfsm("machine p: state a init; trans a -> b on ! p m")  # self-send
    with pytest.raises(ParseError):
        parse_cfsm("state a init")  # outside a machine

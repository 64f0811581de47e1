import json
import os
import pathlib
import subprocess
import sys

import pytest

import msckit
from msckit.cli import main
from msckit.corpus import EXAMPLES, example
from msckit.io import serialize_msc, serialize_trace
from msckit.core import send, recv


@pytest.fixture
def msc_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.msc"
        path.write_text(serialize_msc(example(name)), encoding="utf-8")
        return str(path)

    return write


SRC = pathlib.Path(msckit.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_ok(capsys, msc_file):
    code, out = run(capsys, "validate", msc_file("relay"))
    assert code == 0 and "ok" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.msc"
    bad.write_text("order p !m1\n", encoding="utf-8")
    code, _ = run(capsys, "validate", str(bad))
    assert code == 2


def test_classify_table(capsys, msc_file):
    code, out = run(capsys, "classify", msc_file("two_targets"))
    assert code == 0
    assert "rsc   no" in out
    for model in ("asy", "p2p", "co", "mb", "onen", "nn"):
        assert f"{model:<5} yes" in out


def test_classify_json_roundtrips(capsys, msc_file):
    code, out = run(capsys, "--format", "json", "classify", msc_file("two_targets"))
    assert code == 0
    data = json.loads(out)
    assert data["models"]["nn"] is True and data["models"]["rsc"] is False
    from msckit.classify import ClassReport

    assert ClassReport.from_json(data).verdicts["mb"] is True


def test_deterministic_output(capsys, msc_file):
    path = msc_file("pipeline")
    _, first = run(capsys, "--format", "json", "classify", path)
    _, second = run(capsys, "--format", "json", "classify", path)
    assert first == second


def test_linearize_pipeline(capsys, msc_file):
    code, out = run(capsys, "linearize", "--model", "nn", msc_file("pipeline"))
    assert code == 0
    assert out.strip() == "!m5 !m1 !m2 !m3 ?m5 ?m1 ?m2 !m4 !m6 ?m3 ?m4"


def test_linearize_not_member(capsys, msc_file):
    code, out = run(capsys, "linearize", "--model", "p2p", msc_file("crossing"))
    assert code == 1 and "not in model" in out


def test_check_lin(capsys, msc_file):
    path = msc_file("train")
    code, _ = run(capsys, "check-lin", "--model", "nn", "--lin", "!m1 ?m1 !m2 ?m2 !m3 ?m3", path)
    assert code == 0
    code, out = run(capsys, "check-lin", "--model", "rsc", "--lin", "!m1 !m2 ?m1 ?m2 !m3 ?m3", path)
    assert code == 1 and "violated" in out


def test_bounded(capsys, msc_file):
    path = msc_file("train")
    assert run(capsys, "bounded", "--k", "2", "--model", "p2p", path)[0] == 0
    code, out = run(capsys, "bounded", "--k", "2", "--model", "p2p", "--universal", path)
    assert code == 1 and "no" in out


def test_decompose(capsys, msc_file):
    code, out = run(capsys, "decompose", "--k", "1", msc_file("staggered"))
    assert code == 0 and out.count("factor") == 3
    code, out = run(capsys, "decompose", msc_file("producer"))
    assert code == 1 and "impossible" in out


def test_stw(capsys, msc_file):
    code, out = run(capsys, "stw", "--max", "3", msc_file("overtake"))
    assert code == 0 and "special treewidth: 2" in out
    code, out = run(capsys, "stw", "--max", "3", "--trace", msc_file("overtake"))
    assert code == 0 and "winning strategy" in out


def test_mso(capsys, msc_file):
    path = msc_file("blocked")
    code, out = run(capsys, "mso", "--formula", "~E x. (send(x) & ~matched(x))", path)
    assert code == 1 and "not satisfied" in out
    assert run(capsys, "mso", "--builtin", "mb", msc_file("two_targets"))[0] == 0
    assert run(capsys, "mso", "--formula", "E x. (", path)[0] == 2


@pytest.mark.parametrize(
    "formula", ["~" * 5000 + "true", "(" * 3000 + "true" + ")" * 3000], ids=["not", "parens"]
)
def test_mso_deep_formula_exits_2(capsys, msc_file, formula):
    code = main(["mso", "--formula", formula, msc_file("blocked")])
    err = capsys.readouterr().err
    assert code == 2
    assert "nested deeper" in err and "Traceback" not in err


def test_exec(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text(
        serialize_trace(
            [send("p", "q", "m1"), send("q", "r", "m2"), recv("q", "r", "m2"), recv("p", "q", "m1")]
        ),
        encoding="utf-8",
    )
    code, out = run(capsys, "exec", str(trace))
    assert code == 0 and out.split() == ["mb", "onen", "p2p"]
    assert run(capsys, "exec", "--network", "mb", str(trace))[0] == 0
    code, out = run(capsys, "exec", "--network", "nn", str(trace))
    assert code == 1 and "rejected at step 2" in out


def test_cfsm_cli(tmp_path, capsys):
    sysfile = tmp_path / "sys.cfsm"
    sysfile.write_text(
        "machine p: state a init; trans a -> b on ! q m1\n"
        "machine q: state z init; trans z -> y on ? p m1\n",
        encoding="utf-8",
    )
    code, out = run(capsys, "cfsm", "explore", "--system", str(sysfile), "--max-events", "4")
    assert code == 0 and "total: 3 behaviors" in out
    code, out = run(
        capsys,
        "cfsm",
        "synch",
        "--system",
        str(sysfile),
        "--predicate",
        "weakly-synchronous",
        "--max-events",
        "4",
    )
    assert code == 0 and "no violation" in out


def test_dot(capsys, msc_file):
    code, out = run(capsys, "dot", msc_file("blocked"))
    assert code == 0 and "style=dashed" in out
    code, out = run(capsys, "dot", "--relation", "mb", msc_file("mailbox_cross"))
    assert code == 0 and "digraph mb" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("bounded", "--k", "-1", "pipeline"),
        ("bounded", "--k", "-1", "crossing"),
        ("decompose", "--k", "-1", "staggered"),
        ("stw", "--max", "-5", "overtake"),
        ("mso", "--builtin", "mb", "--so-limit", "-1", "blocked"),
    ],
)
def test_negative_bound_is_usage_error(capsys, msc_file, argv):
    code = main([*argv[:-1], msc_file(argv[-1])])
    err = capsys.readouterr().err
    assert code == 2 and "must be >= 0" in err and "Traceback" not in err


def test_negative_max_events_is_usage_error(tmp_path, capsys):
    sysfile = tmp_path / "sys.cfsm"
    sysfile.write_text("machine p: state a init\n", encoding="utf-8")
    for sub in (["explore"], ["synch", "--predicate", "weakly-synchronous"]):
        assert main(["cfsm", *sub, "--system", str(sysfile), "--max-events", "-1"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_decompose_cap_zero_is_valid(capsys, msc_file):
    code, out = run(capsys, "decompose", "--k", "0", msc_file("staggered"))
    assert code == 1 and "impossible with cap 0" in out
    assert run(capsys, "decompose", "--k", "0", msc_file("roundtrip"))[0] in (0, 1)


def test_usage_error_exit_2(capsys):
    assert main(["linearize"]) == 2
    assert main(["classify", "/nonexistent/file.msc"]) == 2


# -- the exit-status contract ---------------------------------------------------

# Every subcommand, with the input file appended last.
CONTRACT_COMMANDS = [
    ["validate"],
    ["classify"],
    ["--format", "json", "classify"],
    ["linearize", "--model", "nn"],
    ["linearize", "--model", "rsc"],
    ["check-lin", "--model", "p2p", "--lin", "!m1 ?m1"],
    ["bounded", "--k", "1"],
    ["bounded", "--k", "2", "--model", "nn", "--universal"],
    ["decompose", "--k", "1"],
    ["stw", "--max", "2"],
    ["mso", "--builtin", "nn"],
    ["mso", "--formula", "E x. E y. relb1(x, y)"],
    ["mso", "--formula", "E x. E y. relbasy2(x, y)"],
    ["exec"],
    ["exec", "--network", "nn"],
    ["cfsm", "explore", "--max-events", "3", "--system"],
    ["cfsm", "synch", "--predicate", "weakly-synchronous", "--max-events", "3", "--system"],
    ["dot"],
    ["dot", "--relation", "bowtie"],
]

MALFORMED = {
    "garbage.msc": "garbage here\n",
    "empty.msc": "",
    "wrong_line.msc": "processes p q\nmessage m1 p q\norder p ?m1\norder q !m1\n",
    "binary.msc": b"\xff\xfe\x00bad",
    "bad.json": "{bad",
    "list.json": "[1, 2]",
    "fields.json": '{"processes": ["p"], "messages": [{"name": "m"}]}',
    "self_send.trace": "! p q m\n! p p m\n",
    "null_payload.json": json.dumps(
        {
            "processes": ["p", "q"],
            "messages": [{"name": "m", "from": "p", "to": "q", "payload": None}],
            "orders": {"p": ["!m"], "q": ["?m"]},
        }
    ),
}


def assert_contract(capsys, argv) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    return code


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_contract_on_corpus(capsys, msc_file, name):
    path = msc_file(name)
    for cmd in CONTRACT_COMMANDS:
        assert_contract(capsys, cmd + [path])


@pytest.mark.parametrize("name", sorted(MALFORMED) + ["directory", "missing.msc"])
def test_contract_on_malformed_input(capsys, tmp_path, name):
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    elif name in MALFORMED:
        content = MALFORMED[name]
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    for cmd in CONTRACT_COMMANDS:
        code = assert_contract(capsys, cmd + [str(path)])
        # an empty file is an empty chart, trace and system alike
        assert code == 2 or name == "empty.msc", (cmd, name)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["nosuch", "crossing"],
        ["linearize", "--model", "nosuch", "crossing"],
        ["bounded", "--k", "abc", "crossing"],
        ["bounded", "--k", "1", "--model", "rsc", "crossing"],
        ["bounded", "--k", "1", "--model", "p2p", "crossing"],
        ["mso", "crossing"],
        ["mso", "--formula", "E x. E y. relb1(x, y)", "crossing"],
        ["mso", "--formula", "E x. E y. nosuch(x, y)", "crossing"],
        ["mso", "--formula", "x = y", "crossing"],
        ["mso", "--formula", "E X. A x. x in X", "--so-limit", "0", "crossing"],
        ["mso", "--formula", "E x. E y. x in y", "crossing"],
        ["mso", "--formula", "E X. send(X)", "crossing"],
        ["mso", "--formula", "E X. E Y. X in Y", "crossing"],
        ["check-lin", "--model", "nn", "--lin", "!m1 ?m9", "crossing"],
        ["check-lin", "--model", "nn", "--lin", "!m1", "crossing"],
    ],
)
def test_bad_arguments_exit_2(capsys, msc_file, argv):
    if argv[-1] == "crossing":
        argv = argv[:-1] + [msc_file("crossing")]
    assert assert_contract(capsys, argv) == 2


@pytest.mark.parametrize(
    "predicate", ["weakly-k-synchronous", "exists-k-bounded", "forall-k-bounded"]
)
def test_synch_predicate_without_k_exits_2(capsys, tmp_path, predicate):
    sysfile = tmp_path / "sys.cfsm"
    sysfile.write_text("machine p: state a init; trans a -> b on ! q m1\n", encoding="utf-8")
    argv = ["cfsm", "synch", "--predicate", predicate, "--system", str(sysfile)]
    assert assert_contract(capsys, argv) == 2


def test_not_p2p_formula_exits_2_without_traceback(msc_file):
    # relb needs FIFO channels; crossing has none
    argv = ["mso", "--formula", "E x. E y. relb1(x, y)", msc_file("crossing")]
    proc = subprocess.run(
        [sys.executable, "-m", "msckit", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")},
        timeout=60,
    )
    assert proc.returncode == 2
    assert "FIFO" in proc.stderr and "Traceback" not in proc.stderr

"""Golden replay of the command line over the bundled corpus.

Each case runs :func:`msckit.cli.main` in-process on one corpus file and
compares its stdout and exit code with ``tests/data/cli_golden.json``,
byte for byte.  The cases cover ``validate``, ``classify`` (text and
``--format json``), ``bounded --k {1,2}`` for every bounded model with
and without ``--universal``, ``decompose`` with and without ``--k 1``,
``dot --relation`` for each exported relation, ``linearize --model``
and ``mso --builtin`` for each of the seven models, ``mso --formula``
for the README formulas of the benchmark, a ``relb1`` atom (exit 2 on
charts whose channels are not FIFO), a ``bowtie+`` closure and three
formulas with variables of the wrong sort (exit 2), ``mso
--closure-mode subset --builtin mb``, and ``stw --max 4`` (plain,
``--trace`` and ``--format json --trace``) and ``stw --max 1``, which
exits 1 on every chart of width 2 or more.

To re-record after an intended change of output, run from the
repository root::

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/data/cli_golden.json`` before committing.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import json
import pathlib

import pytest

from msckit.bounded import BOUNDED_MODELS
from msckit.classify import MODELS
from msckit.cli import main
from msckit.corpus import EXAMPLES

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

MSO_FORMULAS = (
    "~E x. (send(x) & ~matched(x))",
    "A x. A y. (x ->+ y) => (x < y)",
    "~E x. mbp(x, x)",
    "~E x. bowtie+(x, x)",
    "phi_nn",
    "E x. E y. relb1(x, y)",
    "A x. A y. bowtie+(x, y) => ~bowtie+(y, x)",
    # variables of the wrong sort: exit 2
    "E x. E y. x in y",
    "E X. send(X)",
    "E X. E Y. X in Y",
)


def _commands() -> list[list[str]]:
    out = [["validate"], ["classify"], ["--format", "json", "classify"]]
    for k in ("1", "2"):
        for model in BOUNDED_MODELS:
            out.append(["bounded", "--k", k, "--model", model])
            out.append(["bounded", "--k", k, "--model", model, "--universal"])
    out += [["decompose"], ["decompose", "--k", "1"]]
    out += [["dot", "--relation", r] for r in ("hb", "mb", "onen", "bowtie")]
    for cmd, flag in (("linearize", "--model"), ("mso", "--builtin")):
        out += [[cmd, flag, m] for m in MODELS]
    out += [["mso", "--formula", text] for text in MSO_FORMULAS]
    out.append(["mso", "--closure-mode", "subset", "--builtin", "mb"])
    out += [
        ["stw", "--max", "4"],
        ["stw", "--max", "4", "--trace"],
        ["--format", "json", "stw", "--max", "4", "--trace"],
        ["stw", "--max", "1"],
    ]
    return out


CASES = {
    " ".join(cmd + [f"{name}.msc"]): (cmd, name) for name in EXAMPLES for cmd in _commands()
}


def _run(cmd: list[str], name: str) -> dict:
    path = importlib.resources.files("msckit").joinpath("corpus", f"{name}.msc")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(cmd + [str(path)])
    return {"exit": code, "stdout": buf.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, golden):
    assert _run(*CASES[case]) == golden[case]


if __name__ == "__main__":
    data = {case: _run(*CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")

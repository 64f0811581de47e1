"""Golden replay of the special-treewidth game on seeded charts.

For 34 charts of 10-20 events on 2-4 processes drawn by ``random_msc``
and six ``channel_chain`` charts of 10-20 events, the special treewidth
(searched up to ``MAX_K``) and the ``strategy_transcript`` at that width
are compared with ``tests/data/stw_golden.json``.  The transcript prints
event ids, so it pins the order in which the solver tries moves.  Each
record also keeps the serialised chart, so a change of the generators
shows up as a chart mismatch rather than as a changed strategy.

To re-record after an intended change of output, run from the
repository root::

    PYTHONPATH=src python tests/test_stw_golden.py

and review the diff of ``tests/data/stw_golden.json`` before committing.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest
from conftest import channel_chain, random_msc

from msckit.io import serialize_msc
from msckit.stw import special_treewidth, strategy_transcript

GOLDEN = pathlib.Path(__file__).parent / "data" / "stw_golden.json"
MAX_K = 6


def _charts() -> dict:
    rng = random.Random(11)
    out = {}
    while len(out) < 34:
        procs = ("p", "q", "r", "s")[: rng.randint(2, 4)]
        m = random_msc(rng, max_events=20, procs=procs)
        if len(m.events) >= 10:
            out[f"random-{len(out):02d}"] = m
    for n in range(5, 11):
        out[f"chain-{n:02d}"] = channel_chain(n)
    return out


CHARTS = _charts()


def _record(m) -> dict:
    width = special_treewidth(m, MAX_K)
    transcript = None if width is None else strategy_transcript(m, width)
    return {"chart": serialize_msc(m), "width": width, "transcript": transcript}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_chart(golden):
    assert sorted(golden) == sorted(CHARTS)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_stw_golden(name, golden):
    assert _record(CHARTS[name]) == golden[name]


if __name__ == "__main__":
    data = {name: _record(m) for name, m in CHARTS.items()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} charts to {GOLDEN}")

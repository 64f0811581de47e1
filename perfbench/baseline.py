#!/usr/bin/env python3
"""
The seven baseline cases of the ROADMAP's first open item, re-measured.

Each case runs untraced three times (the median is reported) and then
once under the tracer, whose three largest self times are listed.  The
ROADMAP does not say which 3-process system its CFSM case explored, so
that case uses the first protocol system the benchmark generates for
seed 0; compare its time per emitted MSC, not its total.

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import importlib
import os
import random
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

# Module objects, not the same-named functions the package re-exports.
cfsm = importlib.import_module("msckit.cfsm")
classify = importlib.import_module("msckit.classify")
io = importlib.import_module("msckit.io")
relations = importlib.import_module("msckit.relations")


def cases():
    system = io.parse_cfsm(gen.protocol_cfsm(random.Random(0))[0])
    return [
        ("`classify`, FIFO chain of 25 messages", "34 ms", lambda: gen.fifo_chain(25), lambda m: classify.classify(m)),
        ("`classify`, chain of 50 messages", "126 ms", lambda: gen.fifo_chain(50), lambda m: classify.classify(m)),
        ("`classify`, chain of 100 messages", "575 ms", lambda: gen.fifo_chain(100), lambda m: classify.classify(m)),
        (
            "`classify`, chain of 200 messages (400 events)",
            "2.17 s",
            lambda: gen.fifo_chain(200),
            lambda m: classify.classify(m),
        ),
        (
            "`classify`, random MSC of 166 events",
            "138 ms",
            lambda: gen.bag_random_msc(random.Random(166), 166, ("p", "q", "r")),
            lambda m: classify.classify(m),
        ),
        ("`relb_asy`, chain of 20, k=5", "84 ms", lambda: gen.fifo_chain(20), lambda m: relations.relb_asy(m, 5)),
        (
            "`cfsm explore`, 3-process system, `nn`, horizon 7",
            "5.2 s for 6,844 MSCs",
            lambda: system,
            lambda s: len(list(cfsm.explore(s, "nn", 7))),
        ),
    ]


def timed(make, run) -> tuple[float, object]:
    arg = make()  # a fresh input, so no cached analysis carries over
    t0 = perf_counter()
    out = run(arg)
    return perf_counter() - t0, out


def fmt(seconds: float) -> str:
    return f"{seconds:.2f} s" if seconds >= 1 else f"{seconds * 1000:.0f} ms"


def main() -> int:
    rows = []
    for label, roadmap, make, run in cases():
        walls = []
        for _ in range(3):
            wall, out = timed(make, run)
            walls.append(wall)
        tracer = Tracer()
        tracer.install("msckit", extra_modules=(sys.modules[__name__],))
        try:
            tracer.begin_request(0)
            traced, _ = timed(make, run)
            tracer.end_request()
        finally:
            tracer.uninstall()
        top = sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self_ms"])[:3]
        layers = ", ".join(f"{name} {row['self_ms']:.0f} ms ({row['calls']} calls)" for name, row in top)
        note = f" for {out:,} MSCs" if isinstance(out, int) else ""
        rows.append(f"| {label} | {roadmap} | {fmt(statistics.median(walls))}{note} | {fmt(traced)} | {layers} |")
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    print("| case | ROADMAP | measured (median of 3) | traced | largest self times, traced |")
    print("| --- | --- | --- | --- | --- |")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

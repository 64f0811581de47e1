#!/usr/bin/env python3
"""
msckit benchmark: one seeded workload, closed loop, one request at a
time, in one process.

    python3 perfbench/run.py --workload large-msc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; msckit is imported from its
`src/` directory and nothing needs installing.  Workloads are described
in `workloads.py`.

Each workload makes a fixed list of inputs from the seed.  With
`--trace 0` the run serves whole passes over that list, as many as
bring the time spent in requests nearest to `--seconds` (at least one),
so every run of a seed times the same inputs.  After each request,
outside the timed region, the checker verifies the result.  The
end-to-end metrics are printed as the last line of standard output, as
one JSON object; the lines before it say what the tail percentile is,
give the unscaled figures, and list the requests that failed.

The machine this runs on may be shared, and its speed then changes by
half again in phases of seconds to minutes.  Before each request, and
each set-up, a fixed pure-Python loop that uses no msckit code (the
probe) is timed, and every time the run reports is scaled to the speed
at which the probe takes PROBE_REF_S: a request's time is multiplied by
PROBE_REF_S over the median of the probes nearest it.

With `--trace 1` the run serves one pass untraced, then one pass with
the tracer of `tracer.py` installed.  It prints the per-layer metrics
and writes every span to `.bench_out/`.

The metric names and units are those of `BENCHMARK.json`.  A request
fails if it raises, returns a wrong verdict, or returns a witness that
fails its check.  `failed` counts them.  `correct` is false when a
request returned a result that the checker rejected, or raised an
exception of a class other than KNOWN_ERRORS.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 11
BENCH_MODULES = ("gen", "check", "workloads")
WALL_LIMIT_S = 150.0  # start no pass that would end after this, to exit within 180 s
PROBE_LOOPS = 100_000
PROBE_REF_S = 0.008  # reported times are at the speed where the probe takes this long
PROBE_WINDOW = 2  # a time is scaled by the probes of the 2 requests before it to 2 after it

# Exception classes that the seed commit raises on valid inputs (see the
# README).  They count as failed requests; any other exception is also a
# wrong result.
KNOWN_ERRORS = ("NnAlgorithmError",)


def fresh_import():
    """Import msckit from the checkout's `src/` and the benchmark's
    modules, dropping any copies imported before."""
    for name in list(sys.modules):
        if name == "msckit" or name.startswith("msckit.") or name in BENCH_MODULES:
            del sys.modules[name]
    msckit = importlib.import_module("msckit")
    if not os.path.abspath(msckit.__file__).startswith(os.path.join(SRC, "msckit") + os.sep):
        raise ImportError(f"msckit imported from {msckit.__file__}, not from {SRC}")
    return importlib.import_module("workloads")


def probe() -> float:
    """Time a fixed loop that calls no msckit code: how fast the machine
    runs Python right now."""
    t0 = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return perf_counter() - t0


def scale(times: list[float], probes: list[float]) -> list[float]:
    """`times` rescaled to the reference speed.  probes[i] was taken just
    before times[i], and one more probe after the last."""
    return [
        t * PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 2])
        for i, t in enumerate(times)
    ]


def setup(name: str, seed: int):
    """Import, input generation and reference loading: everything before
    the first timed request."""
    t0 = perf_counter()
    wl_mod = fresh_import()
    workload = wl_mod.WORKLOADS[name]
    inputs = workload.inputs(seed)
    return perf_counter() - t0, wl_mod, workload, inputs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy = 0.0
        self.probes: list[float] = []  # one before each request, and one after the last
        self.failures: list[str] = []
        self.records: list[tuple[str, float, bool]] = []  # (input, seconds, succeeded)
        self.first: dict[str, bool] = {}  # input -> whether its first request succeeded

    def scaled(self) -> list[float]:
        """The request times at the reference speed, in serving order."""
        return scale([seconds for _, seconds, _ in self.records], self.probes)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures += other.failures


class Checker:
    """Checks each input's first result fully, and later results of the
    same input against the first one's digest.  Digests are kept hashed,
    so the checker's memory does not grow with the requests served."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[str, str] = {}
        self.cache: dict = {}

    def __call__(self, inp, result) -> list[str]:
        digest = hashlib.sha256(repr(self.workload.digest(result)).encode()).hexdigest()
        if inp.ident in self.digests:
            return [] if self.digests[inp.ident] == digest else ["result differs from an earlier request"]
        self.digests[inp.ident] = digest
        return self.workload.check(inp, result, self.cache)


def serve(workload, inp, checker: Checker, tally: Tally, tracer=None, request_id: int = 0) -> None:
    gc.collect()  # every request starts with the same collector state, whatever the checker left
    tally.probes.append(probe())
    if tracer is not None:
        tracer.begin_request(request_id)
    t0 = perf_counter()
    try:
        result = workload.request(inp)
        error = None
    except Exception as exc:  # a failing request is counted, not fatal
        result, error = None, exc
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.end_request()
    tally.attempted += 1
    tally.busy += elapsed
    if error is None:
        problems = checker(inp, result)
        wrong = bool(problems)
    else:
        problems = [f"{type(error).__name__}: {error}"]
        wrong = type(error).__name__ not in KNOWN_ERRORS
    tally.records.append((inp.ident, elapsed, not problems))
    tally.first.setdefault(inp.ident, not problems)
    if problems:
        tally.failed += 1
        tally.wrong += wrong
        tally.failures.append(f"{inp.ident}: {'; '.join(problems[:3])}")


def measure(workload, inputs, checker, seconds: float) -> tuple[Tally, float]:
    """Whole passes over `inputs`, as many as bring the time spent in
    requests nearest to `seconds`, and at least one.  That time is taken
    at the reference speed, so a phase of the machine does not change
    the number of passes."""
    tally = Tally()
    start = perf_counter()
    busy = 0.0
    while True:
        pass_start, raw_before, first = perf_counter(), tally.busy, len(tally.probes)
        for inp in inputs:
            serve(workload, inp, checker, tally)
        now = perf_counter()
        pass_s = (tally.busy - raw_before) * PROBE_REF_S / statistics.median(tally.probes[first:])
        busy += pass_s
        if busy + pass_s / 2 >= seconds:
            break
        if now + (now - pass_start) - start > WALL_LIMIT_S:
            break
    tally.probes.append(probe())
    return tally, perf_counter() - start


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(pass_size: int) -> int:
    """The highest whole percentile that leaves at least ten samples
    beyond it in one pass.  It depends on the workload only, so tails
    compare across commits."""
    return (100 * (pass_size - 10)) // pass_size


def end_to_end(tally: Tally, pass_size: int, setup_s: float) -> dict:
    lat = sorted(tally.scaled())
    p = tail_percentile(pass_size)
    tail, beyond = percentile(lat, p)
    print(f"latency_tail_ms is p{p} of {len(lat)} requests, {beyond} samples beyond it")
    raw = sorted(seconds for _, seconds, _ in tally.records)
    print(
        f"probe median {statistics.median(tally.probes) * 1000:.2f} ms (reference {PROBE_REF_S * 1000:.1f} ms); "
        f"unscaled: latency_p50_ms {statistics.median(raw) * 1000:.1f}, latency_tail_ms "
        f"{percentile(raw, p)[0] * 1000:.1f}, throughput_rps {tally.attempted / tally.busy:.3f}"
    )
    return {
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "throughput_rps": tally.attempted / sum(lat),
        # over distinct inputs, so the share depends on the seed only
        "ok_share": sum(tally.first.values()) / len(tally.first),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names: list[str], tracer, requests: int, overhead: float) -> dict:
    """Each name is `<function>.<key>`: `calls` and `self_ms` come from
    the tracer's totals, the other keys are derived below."""
    totals = tracer.totals()

    def get(fn: str, key: str):
        return totals.get(fn, {}).get(key, 0)

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    classifies = get("classify.classify", "calls")
    emitted = tracer.counts.get("cfsm.explore.yields", 0)
    derived = {
        "edges_out": lambda fn: tracer.counts.get(f"{fn}.edges_out", 0),
        "calls_per_request": lambda fn: ratio(get(fn, "calls"), requests),
        "calls_per_classify": lambda fn: ratio(get(fn, "calls"), classifies),
        "calls_per_verdict": lambda fn: ratio(get(fn, "calls"), 7 * classifies),  # 7 verdicts per classify
        "mscs_emitted": lambda fn: emitted,
        "ms_per_msc": lambda fn: ratio(get(fn, "total_ms"), emitted),
        "overhead_share": lambda fn: overhead,
    }
    out = {}
    for name in names:
        fn, key = name.rsplit(".", 1)
        out[name] = derived[key](fn) if key in derived else get(fn, key)
    return out


def traced_run(names, seed, wl_mod, workload, inputs) -> tuple[Tally, dict]:
    from tracer import Tracer

    checker = Checker(workload)
    untraced = Tally()
    for inp in inputs:
        serve(workload, inp, checker, untraced)
    untraced.probes.append(probe())
    tracer = Tracer()
    tracer.install("msckit", extra_modules=(wl_mod,))
    traced = Tally()
    try:
        for i, inp in enumerate(inputs):
            serve(workload, inp, checker, traced, tracer, i)
    finally:
        tracer.uninstall()
    traced.probes.append(probe())
    overhead = sum(traced.scaled()) / sum(untraced.scaled()) - 1.0
    walls = [w for w, _ in tracer.requests]
    selfs = [s for _, s in tracer.requests]
    worst = min((s / w for w, s in tracer.requests if w > 0), default=1.0)
    print(
        f"traced one pass of {len(inputs)} requests; span self times cover "
        f"{sum(selfs) / sum(walls):.4f} of traced request wall time (lowest request {worst:.4f})"
    )
    if tracer.missing:
        print("trace targets missing: " + ", ".join(tracer.missing))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.write(path, {"workload": workload.name, "seed": seed, "requests": len(inputs)})
    print(f"spans written to {os.path.relpath(path, ROOT)} ({tracer.spans_dropped} beyond the cap not stored)")
    untraced.add(traced)
    return untraced, per_layer(names, tracer, len(inputs), overhead)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("large-msc", "small-exact", "cfsm-explore"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    try:
        times, probes = [], []
        for _ in range(SETUP_REPEATS):
            probes.append(probe())
            setup_s, wl_mod, workload, inputs = setup(args.workload, args.seed)
            times.append(setup_s)
        probes.append(probe())
    except ImportError as exc:
        print(f"cannot import msckit from {SRC}: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}

    if args.trace:
        tally, values = traced_run(list(units), args.seed, wl_mod, workload, inputs)
    else:
        tally, wall = measure(workload, inputs, Checker(workload), args.seconds)
        values = end_to_end(tally, len(inputs), statistics.median(scale(times, probes)))
        print(f"unscaled setup_s {statistics.median(times):.4f}")
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"requests-{workload.name}-seed{args.seed}.json"), "w") as fh:
            json.dump(
                {"setup_s": times, "setup_probes": probes, "requests": tally.records, "probes": tally.probes}, fh
            )
        print(
            f"{tally.attempted} requests ({tally.attempted // len(inputs)} pass(es) over {len(inputs)} inputs) "
            f"in {wall:.1f} s wall, {tally.busy:.1f} s of it in requests"
        )
    failures = list(dict.fromkeys(tally.failures))  # a repeated input fails the same way each pass
    for line in failures[:20]:
        print("failed: " + line)
    if len(failures) > 20:
        print(f"failed: ... {len(failures) - 20} more")
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""
Determinism self-check of the traced run.

Runs `run.py --trace 1 --seed 1` on every workload three times, twice
with PYTHONHASHSEED=0 and once with PYTHONHASHSEED=1, and requires every
count metric of BENCHMARK.json (unit `count` or `calls/...`), plus the
attempted and failed request counts, to be identical across the three.
Exits 1 and lists the differences otherwise.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("large-msc", "small-exact", "cfsm-explore")


def count_metrics() -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    return {m["name"] for m in per_layer if m["unit"] == "count" or m["unit"].startswith("calls/")}


def counts(workload: str, names: set[str], hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {k: v["value"] for k, v in result["metrics"].items() if k in names}
    out["attempted"] = result["attempted"]
    out["failed"] = result["failed"]
    return out


def main() -> int:
    names = count_metrics()
    bad = 0
    for workload in WORKLOADS:
        runs = [counts(workload, names, h) for h in ("0", "0", "1")]
        diffs = [
            f"{k}: {[r.get(k) for r in runs]}"
            for k in sorted(set().union(*runs))
            if len({json.dumps(r.get(k)) for r in runs}) > 1
        ]
        nonzero = sum(1 for v in runs[0].values() if v)
        status = "identical" if not diffs else "DIFFER"
        print(f"{workload}: {len(runs[0])} counters ({nonzero} nonzero) {status} across 2 runs and 2 hash seeds")
        for line in diffs:
            print("  " + line)
        bad += bool(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in ``BENCH_<label>.json``.

    python3 scripts/bench_record.py --label L [--base CHECKOUT]

Runs ``benchmark/run.py --trace 0`` of this checkout for the ``corpus`` and
``refine`` workloads at seeds 1 and 2, 10 times each, with
``BENCHMARK.json``'s ``run_seconds`` of measured rounds per run: a gain is
judged on 10 pairs of runs of the benchmark's own length.  With ``--base``,
each pair also runs the base checkout's own ``benchmark/run.py`` on the same
workload and seed, right before or right after this checkout's run (the order alternates
from pair to pair), so that both sides of a pair see the same stretch of a
shared machine's speed.  Each run's result is the last line of its standard
output.

``BENCH_<label>.json`` is written to this checkout's root.  It holds every
run's result; per workload, seed and side, the median and quartiles of each
end-to-end metric; with ``--base``, the relative change of the medians and
the number of pairs in which this checkout was better, by the direction that
``BENCHMARK.json`` gives each metric; the Python and numpy versions, the CPU
count, seeds and seconds; and what each checkout ran: its git revision and,
when its tree differs from that revision, ``diff_sha256``, the SHA-256 of

    git diff --binary REVISION -- . ':(exclude)*.md' ':(exclude)BENCH_*.json'

run in that tree, so that a commit made from it gives the same hash when it
takes the place of the tree (``git diff --binary REVISION COMMIT -- ...``).
A new file counts once it is added to the index.
Documents and records are left out, so that they may be written after the
runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "refine")
SEEDS = (1, 2)
PAIRS = 10
NOT_RUN = (":(exclude)*.md", ":(exclude)BENCH_*.json")


def revision(checkout: Path) -> dict:
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, check=True).stdout

    head = git("rev-parse", "HEAD").decode().strip()
    diff = git("diff", "--binary", head, "--", ".", *NOT_RUN)
    return {"revision": head, "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {' '.join(command[1:])} exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {**result, "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], sides: list[str], better: dict[str, str]) -> dict:
    summary: dict = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            mine = [r for r in runs if r["workload"] == workload and r["seed"] == seed]
            by_side = {side: sorted((r for r in mine if r["side"] == side), key=lambda r: r["pair"]) for side in sides}
            entry = {
                side: {name: spread([r["metrics"][name] for r in side_runs]) for name in better}
                for side, side_runs in by_side.items()
            }
            if "base" in by_side:
                entry["change"] = {
                    name: entry["head"][name]["median"] / entry["base"][name]["median"] - 1.0 for name in better
                }
                pairs = list(zip(by_side["head"], by_side["base"]))
                entry["head_better_pairs"] = {
                    name: sum(
                        h["metrics"][name] > b["metrics"][name] if direction == "higher"
                        else h["metrics"][name] < b["metrics"][name]
                        for h, b in pairs
                    )
                    for name, direction in better.items()
                }
            summary.setdefault(workload, {})[str(seed)] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", type=Path, default=None, help="a checkout to pair each run with")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = float(benchmark["run_seconds"])
    checkouts = {"head": ROOT}
    if args.base is not None:
        checkouts["base"] = args.base.resolve()
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for pair in range(PAIRS):
                sides = list(checkouts) if pair % 2 else list(reversed(checkouts))
                for side in sides:
                    result = run(checkouts[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side, **result})
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"ops_per_s {result['metrics']['ops_per_s']:.1f}", file=sys.stderr)

    record = {
        "label": args.label,
        "checkouts": {side: revision(path) for side, path in checkouts.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workloads": list(WORKLOADS),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "pairs": PAIRS,
        "summary": summarize(runs, list(checkouts), better),
        "runs": runs,
    }
    destination = ROOT / f"BENCH_{args.label}.json"
    destination.write_text(json.dumps(record, indent=2) + "\n", "utf-8")
    print(f"wrote {destination}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

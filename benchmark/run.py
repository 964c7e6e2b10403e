"""Layered benchmark of softprove: end-to-end metrics, or per-layer with --trace 1.

    python3 benchmark/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --seed 1            # every workload, one fresh process each

A run generates its inputs from the seed (``gen.py``, in a child process),
loads the store and the principles, runs one unmeasured warm-up round, then
runs whole rounds of the workload's operations with a single closed-loop
client (one operation in flight) until the next round would end past
``--seconds``.  Set-up is timed in fresh processes (``probe.py``), half of
them before the rounds and half after.  Every operation's output is
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import workloads
from oracle import CheckError
from tracer import Tracer

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("corpus", "large_kb", "refine")
SETUP_PROBES = 10  # half before the measured rounds, half after
TRACE_PROBES = 3
EXIT_MISSING_TARGET = 3
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(HERE / script), *args], capture_output=True, text=True, cwd=env.ROOT
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"{script} failed with exit code {result.returncode}")
    return result.stdout


def probe(kind: str, inputs: Path, count: int) -> tuple[list[float], list[float]]:
    stores, principles = [], []
    for _ in range(count):
        doc = json.loads(child("probe.py", "--store", kind, "--inputs", str(inputs)).splitlines()[-1])
        stores.append(doc["store_s"])
        principles.append(doc["principles_s"])
    return stores, principles


def upper_quartile(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4)[2]


def lower_quartile(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4)[0]


def typical_latencies(latencies: list[float], per_round: int) -> list[float]:
    """Each operation's upper-quartile service time over the rounds of a run.

    On a shared machine the CPU runs at a usual speed with stretches up to
    twice as fast that come and go over seconds to minutes.  A run's median
    then depends on how much of it fell into fast stretches; its upper
    quartile stays at the usual speed.
    """
    return [upper_quartile(latencies[i::per_round]) for i in range(per_round)]


def run_rounds(workload, ops, seconds: float, tracer=None) -> dict:
    """Whole rounds until the next one would end past ``seconds``; at least one.

    With a tracer, rounds alternate untraced and traced (at least one of
    each), so that both see the same stretch of the machine's speed.
    """
    latencies: list[float] = []
    traced_flags: list[bool] = []
    failures: list[str] = []
    round_walls: list[float] = []  # each round's wall time, less its checks
    started = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        checking = 0.0
        traced = tracer is not None and rounds % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.remove()
            workload.tracer = tracer if traced else None
        workload.begin_round()
        for op in ops:
            if traced:
                tracer.begin_op(len(latencies))
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising operation is a failed one; the run goes on
                result, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
            else:
                error = None
            latencies.append(time.perf_counter() - t0)
            traced_flags.append(traced)
            if traced:
                tracer.end_op()
            check_start = time.perf_counter()
            if error is None:
                try:
                    op.check(result)
                except CheckError as exc:
                    error = str(exc)
                except Exception as exc:  # the output was too wrong to check
                    error = f"{op.name}: check raised {exc!r}"
            if error is not None:
                failures.append(error)
            checking += time.perf_counter() - check_start
        rounds += 1
        now = time.perf_counter()
        round_walls.append(now - round_start - checking)
        if now - started + (now - round_start) > seconds and (tracer is None or rounds >= 2):
            break
    if tracer is not None:
        tracer.remove()
        workload.tracer = None
    return {
        "latencies": latencies,
        "traced": traced_flags,
        "failures": failures,
        "rounds": rounds,
        "wall": time.perf_counter() - started,
        "round_walls": round_walls,
    }


def end_to_end(measured: dict, per_round: int, setup: list[float], rss_mb: float) -> dict:
    lat = measured["latencies"]
    typical = typical_latencies(lat, per_round)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": lower_quartile([per_round / wall for wall in measured["round_walls"]]),
        "latency_p50_ms": statistics.median(typical) * 1000.0,
        "latency_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[8] * 1000.0,
        "peak_rss_mb": rss_mb,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> int:
    softprove = env.import_softprove()
    inputs = env.INPUTS / name
    gen_args = ["--workload", name, "--seed", str(seed), "--out", str(inputs)]
    child("gen.py", *gen_args, *(["--small"] if small else []))
    kind = workloads.WORKLOADS[name].store_kind
    probes = {}
    if trace:
        for k in ("cached", "text"):
            probes[k] = probe(k, inputs, TRACE_PROBES)
    else:
        probes[kind] = probe(kind, inputs, SETUP_PROBES // 2)

    tracer = Tracer(softprove) if trace else None
    if tracer is not None:
        missing = tracer.install()  # the set-up's principles parse is traced too
        if missing:
            # An untraced function would read as a layer that costs nothing.
            print(f"error: trace targets not found: {', '.join(missing)}", file=sys.stderr)
            raise SystemExit(EXIT_MISSING_TARGET)
    vocab = inputs / "vocab.txt"
    if kind == "cached":
        store = softprove.embeddings.load_embeddings_cached(vocab, Path(f"{vocab}.spemb"))
    else:
        store = softprove.embeddings.load_embeddings(vocab)
    softprove.principles.load_principles()
    workload = workloads.WORKLOADS[name](softprove, inputs, store)
    ops = workload.ops()
    if tracer is not None:
        tracer.remove()
        setup_self_time = dict(tracer.self_time)

    warm = run_rounds(workload, ops, 0.0)  # fills caches; its failures still count
    gc.collect()
    workload.reset_counts()
    measured = run_rounds(workload, ops, seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        # Probes on both sides of the rounds see more of the machine's drift.
        later = probe(kind, inputs, SETUP_PROBES - SETUP_PROBES // 2)
        probes[kind] = tuple(a + b for a, b in zip(probes[kind], later))

    failures = warm["failures"] + measured["failures"]
    attempted = len(warm["latencies"]) + len(measured["latencies"])
    known = [f for f in failures if f == workloads.REFINE_FAULT]
    unexpected = [f for f in failures if f != workloads.REFINE_FAULT]
    for failure in sorted(set(failures)):
        print(f"failed: {failure} (x{failures.count(failure)})")

    n = len(measured["latencies"])
    print(f"{name}: seed={seed} rounds={measured['rounds']} ops={n} attempted={attempted} "
          f"failed={len(failures)} (known fault {len(known)}) wall={measured['wall']:.2f}s")
    if tracer is None:
        metrics = end_to_end(measured, len(ops), [s + p for s, p in zip(*probes[kind])], rss_mb)
        units = END_TO_END_UNITS
        if name == "refine":
            print(f"{name}/llm_calls_per_op {workload.llm_calls / n} count")
    else:
        metrics, units = per_layer(tracer, setup_self_time, workload, measured, len(ops), probes)
        tracer.write(inputs / "spans.jsonl")
        print(f"spans written to {inputs / 'spans.jsonl'}")
    for key, value in metrics.items():
        print(f"{name}/{key} {value} {units[key]}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# Per-layer metrics that every workload exercises, in the JSON result; the
# workload-specific layer times are printed above it (see README).
PER_LAYER_UNITS = {
    "principles.load_ms": "ms",
    "embeddings.load_cached_s": "s",
    "embeddings.load_text_s": "s",
    "embeddings.similarity_calls_per_op": "count",
    "embeddings.similarity_self_ms_per_op": "ms",
    "embeddings.pair_repeat_ratio": "ratio",
    "ruleparse.parse_kb_ms": "ms",
    "ruleparse.self_ms_per_op": "ms",
    "prover.prove_goal_ms": "ms",
    "prover.self_ms_per_op": "ms",
    "prover.unify_attempts_per_op": "count",
    "prover.unify_success_ratio": "ratio",
    "prover.proof_steps": "count",
    "verifier.outcomes.valid_non_redundant": "count",
    "verifier.outcomes.valid_redundant": "count",
    "verifier.outcomes.invalid_mismatch": "count",
    "verifier.outcomes.invalid_no_proof": "count",
    "refine.iterations_per_op": "count",
    "chat.calls_per_op": "count",
    "chat.repeat_prompt_ratio": "ratio",
    "trace.overhead_pct": "%",
}
TABLE_UNITS = {
    "ruleparse.parse_rule_us": ("ruleparse.parse_rule", 1e6),
    "ruleparse.serialize_ms": ("ruleparse.serialize", 1e3),
    "verifier.case_from_dict_ms": ("verifier.case_from_dict", 1e3),
    "verifier.verify_case_ms": ("verifier.verify_case", 1e3),
    "refine.semantic_inference_ms": ("refine.semantic_inference", 1e3),
    "refine.autoformalize_ms": ("refine.autoformalize", 1e3),
    "refine.abductive_inference_ms": ("refine.abductive_inference", 1e3),
    "refine.deductive_inference_ms": ("refine.deductive_inference", 1e3),
    "refine.trace_json_ms": ("refine.trace_json", 1e3),
    "chat.complete_us": ("chat.complete", 1e6),
}
PROVER = ("prover.prove_all_goals", "prover.prove_goal", "prover.weak_unify_atoms")
RULEPARSE = ("ruleparse.parse_kb", "ruleparse.parse_rule", "ruleparse.serialize")


def per_layer(
    tracer, setup_self_time: dict, workload, measured: dict, per_round: int, probes: dict
) -> tuple[dict, dict]:
    flags = measured["traced"]
    traced_lat = [t for t, on in zip(measured["latencies"], flags) if on]
    untraced_lat = [t for t, on in zip(measured["latencies"], flags) if not on]
    n = len(traced_lat)  # the tracer's counts cover the traced rounds only
    n_all = len(flags)
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time

    def mean(name: str, scale: float) -> float:
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def self_ms_per_op(names) -> float:
        return sum(self_time[f] - setup_self_time.get(f, 0.0) for f in names) / n * 1e3

    similarity = calls["embeddings.weak_unify_score"]
    attempts = calls["prover.weak_unify_atoms"]
    chat_calls = calls["chat.complete"]
    metrics = {
        "principles.load_ms": statistics.median(probes["cached"][1] + probes["text"][1]) * 1e3,
        "embeddings.load_cached_s": statistics.median(probes["cached"][0]),
        "embeddings.load_text_s": statistics.median(probes["text"][0]),
        "embeddings.similarity_calls_per_op": similarity / n,
        "embeddings.similarity_self_ms_per_op": self_ms_per_op(["embeddings.weak_unify_score"]),
        "embeddings.pair_repeat_ratio": tracer.pair_repeats / similarity if similarity else 0.0,
        "ruleparse.parse_kb_ms": mean("ruleparse.parse_kb", 1e3),
        "ruleparse.self_ms_per_op": self_ms_per_op(RULEPARSE),
        "prover.prove_goal_ms": mean("prover.prove_goal", 1e3),
        "prover.self_ms_per_op": self_ms_per_op(PROVER),
        "prover.unify_attempts_per_op": attempts / n,
        "prover.unify_success_ratio": tracer.unify_matches / attempts if attempts else 0.0,
        "prover.proof_steps": statistics.mean(workload.proof_steps) if workload.proof_steps else 0.0,
    }
    for kind in ("valid_non_redundant", "valid_redundant", "invalid_mismatch", "invalid_no_proof"):
        metrics[f"verifier.outcomes.{kind}"] = tracer.outcomes[kind] / n
    metrics["refine.iterations_per_op"] = workload.records / n_all
    metrics["chat.calls_per_op"] = chat_calls / n
    metrics["chat.repeat_prompt_ratio"] = tracer.prompt_repeats / chat_calls if chat_calls else 0.0
    traced_p50 = statistics.median(typical_latencies(traced_lat, per_round))
    untraced_p50 = statistics.median(typical_latencies(untraced_lat, per_round))
    metrics["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
    for key, (name, scale) in TABLE_UNITS.items():
        print(f"layer {key} {mean(name, scale)} {key.rsplit('_', 1)[-1]}")
    for name in sorted(calls):
        print(f"span {name}: calls={calls[name]} total_ms={total[name] * 1e3:.3f} self_ms={self_time[name] * 1e3:.3f}")
    return metrics, PER_LAYER_UNITS


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=env.ROOT).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small generated inputs (self-test)")
    args = parser.parse_args()
    env.import_softprove()  # exits before any work when the checkout has no program
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Same-seed runs then see the same set and dict layouts in the program.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.small)


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark: small generated inputs, every check on.

    python3 benchmark/selftest.py

1. Each workload runs end to end on small inputs, untraced and traced, and
   prints a well-formed result: no unexpected failure, the expected share of
   failed operations, and every metric ``BENCHMARK.json`` names.
2. The oracle's cosines equal the program's on every principle symbol, and
   the checks reject wrong answers: program outputs altered to carry a
   unification score off by 1e-6, a swapped rule, a wrong unused-fact set or
   a wrong redundancy flag each fail their check.
3. In a directory that holds only the benchmark, ``run.py`` exits non-zero
   and prints no result.

Exits 0 when every part passes.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import env
import gen
import workloads
from oracle import CheckError

HERE = Path(__file__).resolve().parent
WORK = env.INPUTS / "selftest"
EXPECTED_FAILED_SHARE = {
    "corpus": Fraction(0),
    "large_kb": Fraction(0),
    "refine": Fraction(1, gen.REFINE_FAULT_EVERY),
}


def run_benchmark(workload: str, trace: int, cwd: Path = env.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_end_to_end(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(name, trace)
            assert result.returncode == 0, f"{name} trace={trace}: exit {result.returncode}\n{result.stderr}"
            doc = json.loads(result.stdout.strip().splitlines()[-1])
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
            assert doc["correct"] is True, f"{name} trace={trace}: unexpected failures\n{result.stdout}"
            share = Fraction(doc["failed"], doc["attempted"])
            assert share == EXPECTED_FAILED_SHARE[name], f"{name}: failed share {share}"
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == wanted, f"{name} trace={trace}: metrics {sorted(got)} != {sorted(wanted)}"
            for metric in spec["end_to_end"] if trace == 0 else ():
                assert doc["metrics"][metric["name"]]["value"] > 0, f"{name}: {metric['name']} is not positive"
            print(f"ok: {name} trace={trace}: attempted={doc['attempted']} failed={doc['failed']}")


def _nudge_weak_step(step):
    """The proof tree with its first inexact unification score off by 1e-6."""
    if step.unification_score < 1.0:
        return dataclasses.replace(step, unification_score=step.unification_score + 1e-6), True
    children = list(step.children)
    for i, child in enumerate(children):
        children[i], done = _nudge_weak_step(child)
        if done:
            return dataclasses.replace(step, children=tuple(children)), True
    return step, False


def nudged(result):
    step, done = _nudge_weak_step(result.proof)
    assert done, "no weak unification in the proof"
    first = next(s for s in step.walk() if s.unification_score < 1.0)
    score = result.proof_score * (first.unification_score / (first.unification_score - 1e-6))
    return dataclasses.replace(result, proof=step, proof_score=score)


def check_symbol_scores(workload) -> None:
    """The oracle's cosines equal the program's on every principle symbol.

    Each symbol is scored against each of its tokens and token pairs, which
    covers the three-token symbols whose mean divides by three.
    """
    symbols = {a.predicate for rule in workload.principle_rules.values() for a in (rule.head, *rule.body)}
    compared = 0
    for symbol in sorted(symbols):
        tokens = [t for t in symbol.split("_") if t not in workload.vectors.absent]
        others = set(tokens) | {"_".join(pair) for pair in itertools.combinations(tokens, 2)}
        for other in sorted(others - {symbol}):
            want = workload.vectors.similarity(symbol, other)
            got = workload.sp.embeddings.weak_unify_score(workload.store, symbol, other)
            assert got == want, f"{symbol} ~ {other}: program {got!r}, oracle {want!r}"
            compared += 1
    print(f"ok: {compared} principle-symbol scores equal the program's")


def expect_rejected(check, output, what: str) -> None:
    try:
        check(output)
    except CheckError as exc:
        print(f"ok: rejected {what}: {exc}")
        return
    raise AssertionError(f"check accepted {what}")


def check_rejections() -> None:
    softprove = env.import_softprove()
    for name in ("corpus", "large_kb", "refine"):
        inputs = WORK / name
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", name, "--seed", "5", "--out", str(inputs), "--small"],
            check=True, cwd=env.ROOT,
        )
        vocab = inputs / "vocab.txt"
        store = softprove.embeddings.load_embeddings(vocab)
        workload = workloads.WORKLOADS[name](softprove, inputs, store)
        workload.begin_round()
        ops = workload.ops()
        outputs = [op.run() for op in ops]
        for op, output in zip(ops, outputs):
            if name == "refine" and op is ops[-1]:
                expect_rejected(op.check, output, "the known refine fault")
            else:
                op.check(output)
        if name == "corpus":
            check_symbol_scores(workload)
            weak = next(o for o in outputs if o.proof and any(s.unification_score < 1.0 for s in o.proof.proof.walk()))
            op = ops[outputs.index(weak)]
            expect_rejected(op.check, dataclasses.replace(weak, proof=nudged(weak.proof)), "a unification score off by 1e-6")
            redundant = next(o for o in outputs if o.kind.value == "valid_redundant")
            op = ops[outputs.index(redundant)]
            expect_rejected(op.check, dataclasses.replace(redundant, unused_fact_ids=frozenset({"f1", "f99"})), "a wrong unused set")
        elif name == "large_kb":
            violation, result = outputs[0]
            expect_rejected(ops[0].check, (violation, nudged(result)), "a unification score off by 1e-6")
            swapped = dataclasses.replace(result.proof, rule_id="r0" if result.proof.rule_id != "r0" else "r1")
            expect_rejected(ops[0].check, (violation, dataclasses.replace(result, proof=swapped)), "a swapped rule")
        else:
            trace, text, calls = outputs[0]
            flipped = dataclasses.replace(trace, non_redundant=not trace.non_redundant)
            expect_rejected(ops[0].check, (flipped, text, calls), "a wrong non_redundant flag")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(env.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "benchmark" / path.name)
    result = run_benchmark("corpus", 0, cwd=bare)
    assert result.returncode != 0, "run.py succeeded without the program"
    assert '"metrics"' not in result.stdout, "run.py printed a result without the program"
    print(f"ok: without the program run.py exits {result.returncode} with no result")


def main() -> int:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text("utf-8"))
    check_rejections()
    check_bare_directory()
    check_end_to_end(spec)
    shutil.rmtree(WORK)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

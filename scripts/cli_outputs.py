#!/usr/bin/env python3
"""Record the CLI's stdout, stderr and exit code over a fixed list of commands.

    python3 scripts/cli_outputs.py CHECKOUT OUTDIR
    diff -r OUTDIR_A OUTDIR_B

Runs ``python -m softprove.cli`` from ``CHECKOUT/src`` on the shipped data,
and on ``CHECKOUT/.bench_inputs/`` (made by ``python3 benchmark/gen.py``) when
it exists: ``prove --json`` on each ``large_kb`` KB, ``verify --json`` on each
``corpus`` case and ``corpus verify`` over all of them, in text and
``--json``, and ``refine --json`` on each ``refine`` seed with its planted
iteration budget and ``--out`` to write its trace, the first seed also
without a vector cache, so that the whole vector text is parsed.  On the
shipped data, ``corpus verify`` also runs over variants of the frog case at
iterations 0, 1 and 2 (once with ``--out`` to write the report) and over an
empty manifest, ``verify`` runs on the demo vectors with every component
spelled with an underscore (``1.000_00``), and ``prove`` runs on a rule with
a 1,200-atom body, on a KB whose search finds no proof after 4^9 paths, and,
in text and ``--json``, on a KB of 10,201 tying proofs that the proof budget
cuts off.  The bad-input commands give the exit codes and ``error:`` lines.

For each command NAME it writes ``NAME.out``, ``NAME.err`` and ``NAME.code`` to
OUTDIR, with the checkout's path replaced by ``<ROOT>`` and OUTDIR's by
``<OUT>``, so that ``diff -r`` between the OUTDIRs of two checkouts is the
check.  Nothing is written inside the checkout: the ``--out`` traces and
reports go to OUTDIR, and the inputs the script makes and the vector caches to
OUTDIR/work, which is deleted at the end (it holds paths of the checkout).  The
report that ``corpus verify`` writes to ``--out directory/report.json``, a
path from the working directory OUTDIR/work, is first copied to OUTDIR.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


def shipped_commands(data: Path, work: Path, out: Path) -> list[tuple[str, list[str]]]:
    """Commands on the shipped data; writes the bad inputs they read to ``work``."""
    vectors = ["--embeddings", str(data / "demo_vectors.txt")]
    frog = str(data / "cases/frog.json")
    prison = ["--case", str(data / "cases/prison_seed.json")]
    transcript = data / "transcripts/prison.json"
    mock = ["--mock", str(transcript)]

    (work / "bad.pl").write_text("broken(clause", "utf-8")
    (work / "bad_lines.pl").write_text("a(x).\nb(X) :-\n  c(X,\n  :- d(X).\ne(y).\nf(z) g(w).\nh(q).", "utf-8")
    (work / "bad_term.pl").write_text("a(.b).", "utf-8")
    (work / "bad_vectors.txt").write_text("cat 1.0 zero 0.0\n", "utf-8")
    # A bad numeral on line 2,000, in a later block of the block-wise parse.
    late = [f"w{i} 1.0 0.0\n" for i in range(2100)]
    late[1999] = "bad 1.0 zero\n"
    (work / "bad_vectors_late.txt").write_text("".join(late), "utf-8")
    # Two tokens that differ only in a Latin-1 byte.
    (work / "latin1_vectors.txt").write_bytes(b"caf\xe9 1.0 0.0\ncaf\xe8 0.0 1.0\n")
    # The demo vectors with every component spelled `1.000_00`: a numeral that
    # Python's float takes and NumPy's block reader does not.
    underscored = []
    for line in (data / "demo_vectors.txt").read_text("utf-8").splitlines():
        token, *components = line.split(" ")
        underscored.append(" ".join([token, *(c[:-2] + "_" + c[-2:] for c in components)]) + "\n")
    (work / "underscore_vectors.txt").write_text("".join(underscored), "utf-8")
    (work / "number.json").write_text("5", "utf-8")
    # A case whose id is a list and a seed whose id is a number: JSON that the
    # verdict and trace schemas would not take as a `case_id`.
    (work / "case_id_list.json").write_text(
        json.dumps({**json.loads(Path(frog).read_text("utf-8")), "id": ["x"]}), "utf-8"
    )
    (work / "seed_id_number.json").write_text(
        json.dumps({**json.loads((data / "cases/prison_seed.json").read_text("utf-8")), "id": 5}), "utf-8"
    )
    (work / "cases.json").write_text('"cases"', "utf-8")
    (work / "directory").mkdir(exist_ok=True)
    (work / "sub").mkdir(exist_ok=True)
    (work / "sub" / "manifest.json").write_text(json.dumps({"cases": [frog]}), "utf-8")
    entries = json.loads(transcript.read_text("utf-8"))
    (work / "no_abduce.json").write_text(json.dumps([e for e in entries if e["role"] != "abduce"]), "utf-8")
    (work / "match_number.json").write_text(json.dumps([{**entries[0], "match": 5}, *entries[1:]]), "utf-8")
    (work / "response_list.json").write_text(
        json.dumps([{**entries[0], "response": entries[0]["response"].splitlines()}, *entries[1:]]), "utf-8"
    )
    # A nan component, which would otherwise score its token 1.0 against every symbol.
    (work / "nan_vectors.txt").write_text("harm 1.0 0.0\nkick nan 0.0\n", "utf-8")
    (work / "kick.pl").write_text(
        "violate_care_physical(X,Y) :- harm(X). = 1.0\nkick(action).\ngoal <- violate_care_physical(action,patient).\n",
        "utf-8",
    )
    goal = "goal <- violate_care_physical(action,patient)."
    # A chain deeper than the depth cap.
    chain = ["violate_care_physical(X,Y) :- p0(X).", *(f"p{i}(X) :- p{i + 1}(X)." for i in range(1200))]
    (work / "chain.pl").write_text("\n".join([*chain, goal]), "utf-8")
    # One rule with a 1,200-atom body, and its facts.
    body = ", ".join(f"q{i}(X)" for i in range(1200))
    facts = [f"q{i}(action)." for i in range(1200)]
    (work / "long_body.pl").write_text("\n".join([f"violate_care_physical(X,Y) :- {body}.", *facts, goal]), "utf-8")
    # Nine levels of four alternative rules, down to a predicate with no
    # rule: 4^9 paths and no proof.
    dead_end = [f"violate_care_physical(X,Y) :- p0(X). = 0.9{9 - a}" for a in range(4)]
    dead_end += [f"p{i}(X) :- p{i + 1}(X). = 0.9{9 - a}" for i in range(8) for a in range(4)]
    (work / "dead_end.pl").write_text("\n".join([*dead_end, goal]), "utf-8")
    # 101 * 101 tying proofs: the search stops at the proof budget.
    budget = ["violate_care_physical(X,Y) :- p(X), p(X).", *["p(action)."] * 101]
    (work / "budget.pl").write_text("\n".join([*budget, goal]), "utf-8")

    # The frog case at iterations 0, 1 and 2: every outcome kind, and an
    # iteration (1) with no valid outcome, whose redundancy columns print 0.0.
    case = json.loads(Path(frog).read_text("utf-8"))
    padded = {**case, "nl_facts": case["nl_facts"] + [{"id": "f4", "text": "The sky is blue."}],
              "rules": case["rules"] + [{"fact_id": "f4", "clause": "sky_is_blue(action). = 1.0"}]}
    variants = [
        ("valid", 0, case),
        ("mismatch", 0, {**case, "hypothesis": "authority"}),
        ("no_proof", 1, {**case, "rules": []}),
        ("mismatch", 1, {**case, "hypothesis": "liberty"}),
        ("redundant", 2, padded),
        ("valid", 2, case),
    ]
    iteration_cases = []
    for index, (kind, iteration, doc) in enumerate(variants):
        name = f"iteration{iteration}-{index}-{kind}.json"
        (work / name).write_text(json.dumps({**doc, "iteration": iteration}), "utf-8")
        iteration_cases.append(name)
    (work / "iterations.json").write_text(json.dumps({"cases": iteration_cases, "split": "iterations"}), "utf-8")
    (work / "empty.json").write_text(json.dumps({"cases": []}), "utf-8")

    return [
        ("parse", ["parse", str(data / "principles.pl")]),
        ("parse-json", ["parse", str(data / "principles.pl"), "--json"]),
        ("verify", ["verify", frog, *vectors]),
        ("verify-json", ["verify", frog, *vectors, "--json"]),
        ("verify-underscore-numerals", ["verify", frog, "--embeddings", str(work / "underscore_vectors.txt")]),
        ("refine", ["refine", *prison, *mock, *vectors, "--out", str(out / "refine.trace.json")]),
        ("refine-json", ["refine", *prison, *mock, *vectors, "--json"]),
        ("refine-iterations-1", ["refine", *prison, *mock, *vectors, "--iterations", "1"]),
        # --out is a path from the working directory (``work``), where
        # ``directory/`` exists; ``sub/directory/`` does not.
        ("corpus-out-from-working-directory",
         ["corpus", "verify", str(work / "sub" / "manifest.json"), *vectors, "--out", "directory/report.json"]),
        ("corpus-iterations", ["corpus", "verify", str(work / "iterations.json"), *vectors]),
        ("corpus-iterations-json", ["corpus", "verify", str(work / "iterations.json"), *vectors, "--json"]),
        ("corpus-iterations-report",
         ["corpus", "verify", str(work / "iterations.json"), *vectors, "--out", str(out / "corpus-iterations.report.json")]),
        ("corpus-empty", ["corpus", "verify", str(work / "empty.json"), *vectors]),
        ("corpus-empty-json", ["corpus", "verify", str(work / "empty.json"), *vectors, "--json"]),
        ("prove-long-body", ["prove", str(work / "long_body.pl")]),
        ("prove-long-body-json", ["prove", str(work / "long_body.pl"), "--json"]),
        ("prove-dead-end", ["prove", str(work / "dead_end.pl")]),
        ("prove-budget", ["prove", str(work / "budget.pl")]),
        ("prove-budget-json", ["prove", str(work / "budget.pl"), "--json"]),
        # bad input: each ends in exit 1, 2 or 4 and one `error:` line
        ("error-bad-clause", ["parse", str(work / "bad.pl")]),
        ("error-clause-positions", ["parse", str(work / "bad_lines.pl")]),
        ("error-recovery-after-bad-term", ["parse", str(work / "bad_term.pl")]),
        ("error-bad-vectors", ["verify", frog, "--embeddings", str(work / "bad_vectors.txt")]),
        ("error-bad-vectors-late", ["verify", frog, "--embeddings", str(work / "bad_vectors_late.txt")]),
        ("error-vectors-not-utf8", ["verify", frog, "--embeddings", str(work / "latin1_vectors.txt")]),
        ("error-missing-file", ["parse", str(work / "missing.pl")]),
        ("error-case-not-object", ["verify", str(work / "number.json")]),
        ("error-seed-not-object", ["refine", "--case", str(work / "number.json"), *mock]),
        ("error-case-id-list", ["verify", str(work / "case_id_list.json"), *vectors, "--json"]),
        ("error-seed-id-number", ["refine", "--case", str(work / "seed_id_number.json"), *mock, *vectors, "--json"]),
        ("error-kb-directory", ["parse", str(work / "directory")]),
        ("error-embeddings-directory", ["verify", frog, "--embeddings", str(work / "directory")]),
        ("error-manifest-number", ["corpus", "verify", str(work / "number.json")]),
        ("error-manifest-string", ["corpus", "verify", str(work / "cases.json")]),
        ("error-cache-without-embeddings", ["verify", frog, "--embeddings-cache", str(work / "x.spemb")]),
        ("error-limit-without-embeddings", ["verify", frog, "--limit", "5"]),
        ("error-negative-limit", ["verify", frog, *vectors, "--limit", "-3"]),
        ("error-limit-zero", ["verify", frog, *vectors, "--limit", "0"]),
        ("error-nan-vector", ["prove", str(work / "kick.pl"), "--embeddings", str(work / "nan_vectors.txt")]),
        ("error-transcript-match-number", ["refine", *prison, "--mock", str(work / "match_number.json"), *vectors]),
        ("error-transcript-response-list", ["refine", *prison, "--mock", str(work / "response_list.json"), *vectors]),
        ("error-max-depth-over-cap", ["prove", str(work / "chain.pl"), "--max-depth", "500"]),
        ("error-lenient-mock-flag", ["refine", *prison, *mock, *vectors, "--lenient-mock"]),
        (
            "error-refine-abort",
            ["refine", *prison, "--mock", str(work / "no_abduce.json"), *vectors,
             "--out", str(out / "error-refine-abort.trace.json")],
        ),
    ]


def bench_commands(inputs: Path, work: Path, out: Path) -> list[tuple[str, list[str]]]:
    """Commands on the generated benchmark inputs; the caches and the corpus
    manifest go to ``work``, the ``refine`` traces to ``out``."""
    def vectors(workload: str) -> list[str]:
        return ["--embeddings", str(inputs / workload / "vocab.txt"),
                "--embeddings-cache", str(work / f"{workload}.spemb")]

    commands = []
    for kb in sorted((inputs / "large_kb").glob("kb*.pl")):
        commands.append((f"large_kb-{kb.stem}", ["prove", str(kb), "--json", *vectors("large_kb")]))
    cases = sorted((inputs / "corpus" / "cases").glob("*.json"))
    for case in cases:
        commands.append((f"corpus-{case.stem}", ["verify", str(case), "--json", *vectors("corpus")]))
    manifest = work / "corpus-manifest.json"
    manifest.write_text(json.dumps({"cases": [str(case) for case in cases]}), "utf-8")
    commands.append(("corpus-verify", ["corpus", "verify", str(manifest), "--json", *vectors("corpus")]))
    commands.append(("corpus-verify-text", ["corpus", "verify", str(manifest), *vectors("corpus")]))
    refine = inputs / "refine"
    for index, seed in enumerate(json.loads((refine / "expect.json").read_text("utf-8"))["seeds"]):
        name = Path(seed["seed"]).stem
        args = ["refine", "--case", str(refine / seed["seed"]), "--mock", str(refine / seed["transcript"]),
                "--iterations", str(seed["max_iterations"]), "--json"]
        trace = ["--out", str(out / f"refine-{name}.trace.json")]
        commands.append((f"refine-{name}", [*args, *vectors("refine"), *trace]))
        if index == 0:  # the vector text parsed, with no cache
            commands.append((f"refine-{name}-text", [*args, "--embeddings", str(refine / "vocab.txt")]))
    return commands


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: cli_outputs.py CHECKOUT OUTDIR", file=sys.stderr)
        return 2
    checkout, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if out == checkout or checkout in out.parents:
        print("error: OUTDIR must lie outside the checkout", file=sys.stderr)
        return 2
    work = out / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = shipped_commands(checkout / "src" / "softprove" / "data", work, out)
    inputs = checkout / ".bench_inputs"
    if inputs.is_dir():
        commands += bench_commands(inputs, work, out)
    else:
        print(f"no {inputs}: benchmark inputs skipped", file=sys.stderr)

    path = [str(checkout / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name, args in commands:
        done = subprocess.run(
            [sys.executable, "-m", "softprove.cli", *args], cwd=work, env=env, capture_output=True, text=True
        )
        for suffix, text in ((".out", done.stdout), (".err", done.stderr), (".code", f"{done.returncode}\n")):
            text = text.replace(str(out), "<OUT>").replace(str(checkout), "<ROOT>")
            (out / f"{name}{suffix}").write_text(text, "utf-8")
    report = work / "directory" / "report.json"  # the one report written under ``work``, by a relative --out
    if report.exists():
        shutil.copyfile(report, out / "corpus-out-from-working-directory.report.json")
    shutil.rmtree(work)
    print(f"{len(commands)} commands recorded in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Record the CLI's stdout, stderr and exit code over a fixed list of commands.

    python3 scripts/cli_outputs.py CHECKOUT OUTDIR
    diff -r OUTDIR_A OUTDIR_B

Runs ``python -m softprove.cli`` from ``CHECKOUT/src`` on the shipped data,
and on ``CHECKOUT/.bench_inputs/`` (made by ``python3 benchmark/gen.py``) when
it exists: ``prove --json`` on each ``large_kb`` KB, ``verify --json`` on each
``corpus`` case and ``corpus verify --json`` over all of them, and
``refine --json`` on each ``refine`` seed with its planted iteration budget.
The bad-input commands give the exit codes and ``error:`` lines.

For each command NAME it writes ``NAME.out``, ``NAME.err`` and ``NAME.code`` to
OUTDIR, with the checkout's path replaced by ``<ROOT>`` and OUTDIR's by
``<OUT>``, so that ``diff -r`` between the OUTDIRs of two checkouts is the
check.  Nothing is written inside the checkout: the ``--out`` traces go to
OUTDIR, and the inputs the script makes and the vector caches to OUTDIR/work,
which is deleted at the end (it holds paths of the checkout).
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
    (work / "number.json").write_text("5", "utf-8")
    (work / "cases.json").write_text('"cases"', "utf-8")
    (work / "directory").mkdir(exist_ok=True)
    (work / "sub").mkdir(exist_ok=True)
    (work / "sub" / "manifest.json").write_text(json.dumps({"cases": [frog]}), "utf-8")
    entries = json.loads(transcript.read_text("utf-8"))
    (work / "no_abduce.json").write_text(json.dumps([e for e in entries if e["role"] != "abduce"]), "utf-8")

    return [
        ("parse", ["parse", str(data / "principles.pl")]),
        ("parse-json", ["parse", str(data / "principles.pl"), "--json"]),
        ("verify", ["verify", frog, *vectors]),
        ("verify-json", ["verify", frog, *vectors, "--json"]),
        ("refine", ["refine", *prison, *mock, *vectors, "--out", str(out / "refine.trace.json")]),
        ("refine-json", ["refine", *prison, *mock, *vectors, "--json"]),
        ("refine-iterations-1", ["refine", *prison, *mock, *vectors, "--iterations", "1"]),
        # --out is a path from the working directory (``work``), where
        # ``directory/`` exists; ``sub/directory/`` does not.
        ("corpus-out-from-working-directory",
         ["corpus", "verify", str(work / "sub" / "manifest.json"), *vectors, "--out", "directory/report.json"]),
        # bad input: each ends in exit 1, 2 or 4 and one `error:` line
        ("error-bad-clause", ["parse", str(work / "bad.pl")]),
        ("error-clause-positions", ["parse", str(work / "bad_lines.pl")]),
        ("error-recovery-after-bad-term", ["parse", str(work / "bad_term.pl")]),
        ("error-bad-vectors", ["verify", frog, "--embeddings", str(work / "bad_vectors.txt")]),
        ("error-missing-file", ["parse", str(work / "missing.pl")]),
        ("error-case-not-object", ["verify", str(work / "number.json")]),
        ("error-seed-not-object", ["refine", "--case", str(work / "number.json"), *mock]),
        ("error-kb-directory", ["parse", str(work / "directory")]),
        ("error-embeddings-directory", ["verify", frog, "--embeddings", str(work / "directory")]),
        ("error-manifest-number", ["corpus", "verify", str(work / "number.json")]),
        ("error-manifest-string", ["corpus", "verify", str(work / "cases.json")]),
        ("error-cache-without-embeddings", ["verify", frog, "--embeddings-cache", str(work / "x.spemb")]),
        ("error-limit-without-embeddings", ["verify", frog, "--limit", "5"]),
        ("error-negative-limit", ["verify", frog, *vectors, "--limit", "-3"]),
        ("error-lenient-mock-flag", ["refine", *prison, *mock, *vectors, "--lenient-mock"]),
        (
            "error-refine-abort",
            ["refine", *prison, "--mock", str(work / "no_abduce.json"), *vectors,
             "--out", str(out / "error-refine-abort.trace.json")],
        ),
    ]


def bench_commands(inputs: Path, work: Path) -> list[tuple[str, list[str]]]:
    """Commands on the generated benchmark inputs; the caches and the corpus
    manifest go to ``work``."""
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
    refine = inputs / "refine"
    for seed in json.loads((refine / "expect.json").read_text("utf-8"))["seeds"]:
        name = Path(seed["seed"]).stem
        commands.append((
            f"refine-{name}",
            ["refine", "--case", str(refine / seed["seed"]), "--mock", str(refine / seed["transcript"]),
             "--iterations", str(seed["max_iterations"]), "--json", *vectors("refine")],
        ))
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
        commands += bench_commands(inputs, work)
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
    shutil.rmtree(work)
    print(f"{len(commands)} commands recorded in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

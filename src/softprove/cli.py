"""Command-line surface: parse, prove, verify, refine, corpus verify,
embeddings cache.

Exit codes: 0 success, 1 input error, 2 config error, 3 no proof,
4 LLM/client error.  Each error prints one ``error: <message>`` line on
stderr, and its type picks the code: a ``ConfigError`` (a missing or
contradictory flag) exits 2; a ``RefineError`` or ``ChatError`` (the client
failed, or the refine loop aborted) exits 4; any other ``ValueError`` (bad
rule, case, seed, manifest or vector text) or ``OSError`` (a missing file, a
directory given as a file) exits 1.  An aborted ``refine --out`` still writes
the partial trace: the iterations recorded before the abort, ``valid: false``.
An output file (``refine --out``, the ``corpus verify`` report) is written at
the end, but a destination that is a directory, or whose directory does not
exist, is an input error before the vectors load or any case runs.

Settings come from flags only; the chat client's
endpoint, key and model also read ``SOFTPROVE_LLM_URL``, ``SOFTPROVE_LLM_KEY``
and ``SOFTPROVE_LLM_MODEL``.

Each command takes only the flags it reads; every command takes ``--json``.

- ``parse KB``: no other flag.
- ``prove KB``: the vector and solver flags.
- ``verify CASE`` and ``corpus verify MANIFEST [--out]``: the vector and
  solver flags and ``--principles``.  ``--out`` is a path from the working
  directory; the manifest's own ``report`` key, absent, ``null`` or a
  non-empty string, is read relative to the manifest.
- ``refine --case SEED``: those of ``verify``, plus ``--mock`` or ``--live``,
  ``--iterations``, ``--temperature`` and ``--out``.  ``--out`` writes the
  trace as one line of JSON; ``--json`` prints it indented.  A prompt that
  the ``--mock`` transcript has no entry for aborts the loop.
- ``embeddings cache``: ``--embeddings``, ``--limit`` and ``--out`` (default
  ``<source>.spemb``).

The vector flags are ``--embeddings``, ``--embeddings-cache`` and ``--limit``;
the last two need the first, and ``--limit`` must be at least 1.
The solver flags are the solver's three settings and no other:
``--unify-threshold``, ``--proof-threshold`` and ``--max-depth``; the last
is at most 256 (``prover.MAX_DEPTH``), since the proof's text and JSON
renderers recurse once per level and a much deeper proof would overflow the
interpreter's stack.  Goal constants name SRL role slots and match by
equality only, and every reported proof clears the proof threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .chat import ChatError, ChatParams, HttpChatClient, MockTranscript, default_model
from .embeddings import EmbeddingStore, default_cache_path, load_embeddings, load_embeddings_cached
from .logic import KnowledgeBase
from .principles import load_principles
from .prover import (
    ConfigError,
    SolverConfig,
    prove_all_goals,
    proof_to_dict,
    render_proof,
)
from .refine import CaseSeed, RefineAborted, RefineConfig, RefineError, RefineTrace, refine_loop
from .ruleparse import parse_kb, serialize
from .srl import frame_from_dict, frame_to_facts
from .verifier import (
    MoralViolation,
    aggregate_metrics,
    assemble_kb,
    case_from_dict,
    check_text_keys,
    render_metrics,
    verify_case,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_NO_PROOF = 3
EXIT_CLIENT = 4


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    """The solver flags that are set; ``SolverConfig`` supplies the rest."""
    values = {f.name: getattr(args, f.name) for f in fields(SolverConfig)}
    return SolverConfig(**{name: value for name, value in values.items() if value is not None})


def _limit(args: argparse.Namespace) -> Optional[int]:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    return args.limit


def _store(args: argparse.Namespace) -> EmbeddingStore:
    path = args.embeddings
    if path is None:
        if args.embeddings_cache is not None or args.limit is not None:
            raise ConfigError("--embeddings-cache and --limit need --embeddings <file>")
        return EmbeddingStore.empty()
    if args.embeddings_cache:
        return load_embeddings_cached(path, args.embeddings_cache, limit=_limit(args))
    return load_embeddings(path, limit=_limit(args))


def _check_destination(destination: Path) -> None:
    """Fail before any work when ``destination`` cannot be written as a file;
    the file itself is written only at the end."""
    if destination.is_dir():
        raise ValueError(f"{destination}: output destination is a directory")
    if not destination.parent.is_dir():
        raise ValueError(f"{destination}: output directory {destination.parent} does not exist")


def _write_trace(args: argparse.Namespace, trace: RefineTrace) -> None:
    if args.out:
        Path(args.out).write_text(trace.to_json() + "\n", "utf-8")


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# -- commands -------------------------------------------------------------------


def cmd_parse(args: argparse.Namespace) -> int:
    doc = parse_kb(Path(args.kb).read_text("utf-8"))
    canonical = serialize(doc)
    payload = {
        "rules": [r.text for r in doc.rules],
        "goals": [str(g.goal_atom) for g in doc.goal_decls],
        "canonical": canonical,
    }
    _emit(args, canonical.rstrip("\n"), payload)
    return EXIT_OK


def cmd_prove(args: argparse.Namespace) -> int:
    doc = parse_kb(Path(args.kb).read_text("utf-8"))
    goals = doc.goal_decls
    if not goals:
        raise ConfigError(f"{args.kb}: no goal declaration (`goal <- ...`) found")
    kb = KnowledgeBase(rules=doc.rules, goals=goals)
    with _store(args) as store:
        outcome = prove_all_goals(kb, kb.goals, store, _solver_config(args))
    if outcome is None:
        print("no proof above the threshold", file=sys.stderr)
        return EXIT_NO_PROOF
    violation, result = outcome
    _emit(args, render_proof(result), proof_to_dict(result))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    case, rules = case_from_dict(json.loads(Path(args.case).read_text("utf-8")))
    principle_doc = load_principles(args.principles)
    kb = assemble_kb(principle_doc.rules, principle_doc.goal_decls, frame_to_facts(case.frame), rules)
    with _store(args) as store:
        outcome = verify_case(case, kb, store, _solver_config(args))
    payload = {"case_id": case.id, **outcome.to_dict()}
    text_lines = [f"{case.id}: {outcome.kind.value}"]
    if outcome.entailed:
        text_lines.append(f"entailed: {outcome.entailed.value}")
    if outcome.unused_fact_ids:
        text_lines.append(f"unused facts: {', '.join(sorted(outcome.unused_fact_ids))}")
    if outcome.proof:
        text_lines.append(render_proof(outcome.proof))
    _emit(args, "\n".join(text_lines), payload)
    return EXIT_OK


def cmd_refine(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.case).read_text("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{args.case}: seed file must be a JSON object")
    for key in ("id", "statement", "frame"):
        if key not in doc:
            raise ValueError(f"{args.case}: seed file missing key {key!r}")
    check_text_keys(doc, f"{args.case}: seed file")
    if args.out:
        _check_destination(Path(args.out))
    seed = CaseSeed(
        id=doc["id"],
        statement=doc["statement"],
        frame=frame_from_dict(doc["frame"]),
        gold_violation=MoralViolation(doc["gold_violation"]) if doc.get("gold_violation") else None,
    )
    if args.mock:
        client = MockTranscript.from_file(args.mock)
    elif args.live:
        client = HttpChatClient()
    else:
        raise ConfigError("refine needs --mock <transcript> or --live")
    config = RefineConfig(
        max_iterations=args.iterations,
        solver=_solver_config(args),
        principles_path=args.principles,
        params=ChatParams(model=default_model(), temperature=args.temperature),
    )
    try:
        with _store(args) as store:
            case, trace = refine_loop(seed, config, client, store)
    except RefineAborted as exc:
        _write_trace(args, exc.trace)
        raise
    _write_trace(args, trace)
    summary = [f"{case.id}: valid={trace.valid} hypothesis={case.hypothesis.value}"]
    for record in trace.records:
        summary.append(
            f"  iteration {record.index}: {record.outcome.kind.value}"
            f" ({len(record.explanation)} facts)"
        )
    _emit(args, "\n".join(summary), trace.to_dict())
    return EXIT_OK


def cmd_corpus_verify(args: argparse.Namespace) -> int:
    manifest = json.loads(Path(args.manifest).read_text("utf-8"))
    if not isinstance(manifest, dict) or not isinstance(manifest.get("cases"), list):
        raise ValueError(f"{args.manifest}: manifest needs a `cases` list")
    report = manifest.get("report")
    if report is not None and not (isinstance(report, str) and report):
        raise ValueError(f"{args.manifest}: manifest `report` must be a non-empty string")
    base = Path(args.manifest).parent
    if args.out:
        destination = Path(args.out)
    elif report is not None:
        destination = base / report
    else:
        destination = None
    if destination:
        _check_destination(destination)
    principle_doc = load_principles(args.principles)
    config = _solver_config(args)

    outcomes = []
    failures = []
    with _store(args) as store:
        for path_text in manifest["cases"]:
            try:
                doc = json.loads((base / path_text).read_text("utf-8"))
                case, rules = case_from_dict(doc)
                iteration = doc.get("iteration", 0)
                if isinstance(iteration, bool) or not isinstance(iteration, int):
                    raise ValueError(f"case {case.id}: iteration must be an integer, got {iteration!r}")
                kb = assemble_kb(principle_doc.rules, principle_doc.goal_decls, frame_to_facts(case.frame), rules)
                outcomes.append((iteration, verify_case(case, kb, store, config)))
            except Exception as exc:  # per-case failures never abort the corpus run
                failures.append(str(path_text))
                print(f"case failed: {path_text}: {type(exc).__name__}: {exc}", file=sys.stderr)
    payload = aggregate_metrics(outcomes)
    payload["split"] = manifest.get("split")
    payload["failures"] = failures
    if destination:
        destination.write_text(json.dumps(payload, indent=2) + "\n", "utf-8")
    _emit(args, render_metrics(payload), payload)
    return EXIT_OK


def cmd_embeddings_cache(args: argparse.Namespace) -> int:
    source = args.embeddings
    if source is None:
        raise ConfigError("embeddings cache needs --embeddings <file>")
    cache = args.out or default_cache_path(source)
    store = load_embeddings_cached(source, cache, limit=_limit(args))
    store.close()
    payload = {
        "source": str(source),
        "cache": str(cache),
        "vocab_size": store.vocab_size,
        "dimension": store.dimension,
    }
    _emit(args, f"cached {store.vocab_size} vectors (dim {store.dimension}) at {cache}", payload)
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unify-threshold", dest="unify_threshold", type=float, default=None)
    p.add_argument("--proof-threshold", dest="proof_threshold", type=float, default=None)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=None)


def _add_vector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", default=None, help="GloVe-style text vector file")
    p.add_argument("--embeddings-cache", default=None, help="binary vector cache path")
    p.add_argument("--limit", type=int, default=None, help="load only the first N vector lines")


def _add_principles_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--principles", default=None, help="principle library override")


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="softprove")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a rule file and print its canonical form")
    p.add_argument("kb")
    _add_json_flag(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("prove", help="run the solver over a self-contained rule file")
    p.add_argument("kb")
    _add_json_flag(p)
    _add_vector_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="verify one case file against its formalized rules")
    p.add_argument("case")
    _add_json_flag(p)
    _add_principles_flag(p)
    _add_vector_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("refine", help="run the iterative repair loop on a case seed")
    p.add_argument("--case", required=True)
    p.add_argument("--mock", default=None, help="transcript JSON for the deterministic client")
    p.add_argument("--live", action="store_true", help="use the HTTPS chat client")
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--temperature", type=float, default=0.5)
    p.add_argument("--out", default=None, help="write the full trace JSON here")
    _add_json_flag(p)
    _add_principles_flag(p)
    _add_vector_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_refine)

    corpus = sub.add_parser("corpus", help="corpus-level operations")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    p = corpus_sub.add_parser("verify", help="verify every case in a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="report JSON destination")
    _add_json_flag(p)
    _add_principles_flag(p)
    _add_vector_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_corpus_verify)

    emb = sub.add_parser("embeddings", help="embedding store operations")
    emb_sub = emb.add_subparsers(dest="embeddings_command", required=True)
    p = emb_sub.add_parser("cache", help="build the binary vector cache")
    p.add_argument("--embeddings", default=None, help="GloVe-style text vector file")
    p.add_argument("--limit", type=int, default=None, help="load only the first N vector lines")
    p.add_argument("--out", default=None, help="cache path (default <source>.spemb)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_embeddings_cache)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # a ValueError, so caught before the input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RefineError, ChatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLIENT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

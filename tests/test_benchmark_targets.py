"""The benchmark's traced run wraps these package functions by name, and its
checks read these parts of the program's results; a rename, deletion or
layout change must fail here, not only as ``benchmark/run.py`` exiting 3 or
failing every operation."""

import importlib
import importlib.util
import json
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _owner(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_every_traced_function_exists():
    targets = _tracer_targets()
    assert targets
    missing = [f"{owner}.{attr}" for owner, attr, _ in targets if not callable(getattr(_owner(owner), attr, None))]
    assert missing == []


def test_search_calls_the_traced_unify_layers(monkeypatch, fresh_demo_store, frog_case):
    # The traced run counts unify attempts and similarity calls through these
    # two module globals; a search that routes around them would read as 0.
    # A store that has scored a pair before answers it from its similarity
    # table without a call, so the search runs on a store of its own.
    from softprove import prover
    from softprove.principles import load_principles
    from softprove.srl import frame_to_facts
    from softprove.verifier import assemble_kb, verify_case

    calls = {"weak_unify_atoms": 0, "weak_unify_score": 0}

    def counted(name):
        original = getattr(prover, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(prover, name, wrapper)

    for name in calls:
        counted(name)
    case, rules = frog_case
    doc = load_principles()
    kb = assemble_kb(doc.rules, doc.goal_decls, frame_to_facts(case.frame), rules)
    assert verify_case(case, kb, fresh_demo_store).kind.value == "valid_non_redundant"
    assert calls["weak_unify_atoms"] > 0
    assert calls["weak_unify_score"] > 0


def test_prove_all_goals_calls_the_traced_prove_goal_once_per_goal(monkeypatch, demo_store, frog_case):
    # The traced run times each goal's search through this module global; a
    # search core reached around it would read prover.prove_goal_ms as 0.
    from softprove import prover
    from softprove.principles import load_principles
    from softprove.srl import frame_to_facts
    from softprove.verifier import assemble_kb

    original = prover.prove_goal
    goals = []

    def counted(kb, goal, *args, **kwargs):
        goals.append(goal)
        return original(kb, goal, *args, **kwargs)

    monkeypatch.setattr(prover, "prove_goal", counted)
    case, rules = frog_case
    doc = load_principles()
    kb = assemble_kb(doc.rules, doc.goal_decls, frame_to_facts(case.frame), rules)
    assert prover.prove_all_goals(kb, kb.goals, demo_store) is not None
    assert goals == list(kb.goals)


def test_refine_check_reads_what_the_trace_holds(prison_runs):
    # What benchmark/workloads.py's refine check reads from each trace: the
    # records' outcome kinds, proofs and explanations, the final hypothesis,
    # explanation and non_redundant flag, and the JSON's iterations[].outcome.
    from softprove.logic import MoralViolation
    from softprove.prover import ProofResult

    assert set(prison_runs) == {"iterations-0", "iterations-1", "iterations-2", "iterations-3", "aborted"}
    for name, (trace, _) in prison_runs.items():
        outcomes = [record.outcome.kind.value for record in trace.records]
        assert outcomes, name
        assert [i["outcome"] for i in json.loads(trace.to_json())["iterations"]] == outcomes
        for record in trace.records:
            assert record.proof is None or isinstance(record.proof, ProofResult)
            assert (record.proof is None) == (record.outcome.kind.value == "invalid_no_proof")
            assert all(isinstance(fid, str) and isinstance(text, str) for fid, text in record.explanation)
        assert trace.final_hypothesis is None or isinstance(trace.final_hypothesis.value, str)
        assert all(isinstance(fid, str) and isinstance(text, str) for fid, text in trace.final_explanation)
        assert trace.non_redundant is (outcomes[-1] == "valid_non_redundant" and trace.valid)
    aborted, _ = prison_runs["aborted"]
    assert (aborted.final_hypothesis, aborted.final_explanation, aborted.non_redundant) == (None, (), False)
    finished, _ = prison_runs["iterations-3"]
    assert finished.final_hypothesis is MoralViolation.AUTHORITY
    written = json.loads(finished.to_json())["final_explanation"]
    assert [list(fact) for fact in finished.final_explanation] == [[f["id"], f["text"]] for f in written]

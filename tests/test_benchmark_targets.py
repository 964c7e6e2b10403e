"""The benchmark's traced run wraps these package functions by name; a
rename or deletion must fail here, not only as ``benchmark/run.py`` exiting 3."""

import importlib
import importlib.util
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

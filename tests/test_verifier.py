import json
import random
from importlib import resources

import pytest

from softprove.embeddings import EmbeddingStore
from softprove.logic import MoralViolation
from softprove.principles import load_principles
from softprove.prover import ConfigError, SolverConfig, prove_all_goals
from softprove.ruleparse import parse_rule
from softprove.srl import frame_to_facts
from softprove.verifier import (
    EthicalCase,
    OutcomeKind,
    VerificationOutcome,
    aggregate_metrics,
    assemble_kb,
    case_from_dict,
    render_metrics,
    verify_case,
)
from genutil import facts_in_proof

EMPTY_STORE = EmbeddingStore.empty()


def _frog_kb(case, rules, extra_rules=()):
    doc = load_principles()
    return assemble_kb(doc.rules, doc.goal_decls, frame_to_facts(case.frame), tuple(rules) + tuple(extra_rules))


def test_frog_case_valid_non_redundant(demo_store, frog_case):
    case, rules = frog_case
    outcome = verify_case(case, _frog_kb(case, rules), demo_store, SolverConfig())
    assert outcome.kind is OutcomeKind.VALID_NON_REDUNDANT
    assert outcome.entailed is MoralViolation.CARE
    assert outcome.proof is not None
    kb = _frog_kb(case, rules)
    assert outcome.proof.used_fact_ids == facts_in_proof(outcome.proof, kb) == case.fact_ids()


def test_unused_generated_fact_makes_it_redundant(demo_store, frog_case):
    case, rules = frog_case
    filler = parse_rule("sky_is_blue(action). = 1.0", rule_id="g_f4_0", fact_id="f4")
    padded = EthicalCase(
        id=case.id,
        statement=case.statement,
        frame=case.frame,
        nl_facts=case.nl_facts + (("f4", "The sky is blue."),),
        hypothesis=case.hypothesis,
    )
    outcome = verify_case(padded, _frog_kb(padded, rules, [filler]), demo_store, SolverConfig())
    assert outcome.kind is OutcomeKind.VALID_REDUNDANT
    assert outcome.unused_fact_ids == {"f4"}


def test_unprovable_case_is_invalid_no_proof(demo_store, frog_case):
    case, _ = frog_case
    bare = EthicalCase(
        id=case.id,
        statement=case.statement,
        frame=case.frame,
        nl_facts=(),
        hypothesis=MoralViolation.AUTHORITY,
    )
    outcome = verify_case(bare, _frog_kb(bare, ()), demo_store, SolverConfig())
    assert outcome.kind is OutcomeKind.INVALID_NO_PROOF
    assert outcome.proof is None


def test_hypothesis_mismatch(demo_store, frog_case):
    case, rules = frog_case
    wrong = EthicalCase(
        id=case.id,
        statement=case.statement,
        frame=case.frame,
        nl_facts=case.nl_facts,
        hypothesis=MoralViolation.AUTHORITY,
    )
    outcome = verify_case(wrong, _frog_kb(wrong, rules), demo_store, SolverConfig())
    assert outcome.kind is OutcomeKind.INVALID_MISMATCH
    assert outcome.entailed is MoralViolation.CARE
    assert outcome.proof is not None


def test_verify_requires_goal_declarations(demo_store, frog_case):
    case, rules = frog_case
    doc = load_principles()
    kb = assemble_kb(doc.rules, (), frame_to_facts(case.frame), rules)
    with pytest.raises(ConfigError):
        verify_case(case, kb, demo_store, SolverConfig())


def test_valid_non_redundant_iff_conditions(demo_store, frog_case):
    case, rules = frog_case
    kb = _frog_kb(case, rules)
    outcome = verify_case(case, kb, demo_store, SolverConfig())
    entailment = prove_all_goals(kb, kb.goals, demo_store, SolverConfig())
    holds = (
        entailment is not None
        and entailment[0] is case.hypothesis
        and facts_in_proof(entailment[1], kb) == case.fact_ids()
    )
    assert (outcome.kind is OutcomeKind.VALID_NON_REDUNDANT) == holds


def test_removing_unused_fact_keeps_best_score(demo_store, frog_case):
    case, rules = frog_case
    filler = parse_rule("sky_is_blue(action). = 1.0", rule_id="g_f4_0", fact_id="f4")
    with_filler = _frog_kb(case, rules, [filler])
    without = _frog_kb(case, rules)
    score_with = prove_all_goals(with_filler, with_filler.goals, demo_store, SolverConfig())[1].proof_score
    score_without = prove_all_goals(without, without.goals, demo_store, SolverConfig())[1].proof_score
    assert score_with == score_without


# -- metrics -------------------------------------------------------------------------


def _outcome(kind: OutcomeKind) -> VerificationOutcome:
    if kind is OutcomeKind.VALID_REDUNDANT:
        return VerificationOutcome(kind=kind, unused_fact_ids=frozenset({"fx"}))
    if kind is OutcomeKind.INVALID_MISMATCH:
        return VerificationOutcome(kind=kind, entailed=MoralViolation.CARE)
    return VerificationOutcome(kind=kind)


def test_empty_metrics_report():
    report = aggregate_metrics([])
    assert report["empty"]
    assert report["overall"]["total"] == 0
    assert report["overall"]["valid_pct"] == 0.0
    assert "(no outcomes)" in render_metrics(report)


def test_small_report_arithmetic():
    outcomes = [
        (0, _outcome(OutcomeKind.VALID_NON_REDUNDANT)),
        (0, _outcome(OutcomeKind.VALID_REDUNDANT)),
        (0, _outcome(OutcomeKind.INVALID_NO_PROOF)),
        (0, _outcome(OutcomeKind.INVALID_MISMATCH)),
    ]
    report = aggregate_metrics(outcomes)
    assert report["overall"]["valid_pct"] == 50.0
    assert report["overall"]["invalid_pct"] == 50.0
    assert report["overall"]["valid_non_redundant_pct"] == 50.0
    assert report["overall"]["valid_redundant_pct"] == 50.0


def _find_table_shaped_multiset():
    """Brute-force a 166-case outcome multiset printing 65.1/34.9/95.4/4.6."""
    total = 166
    for valid in range(total + 1):
        if round(100 * valid / total, 1) != 65.1:
            continue
        if round(100 * (total - valid) / total, 1) != 34.9:
            continue
        for non_redundant in range(valid + 1):
            if round(100 * non_redundant / valid, 1) != 95.4:
                continue
            if round(100 * (valid - non_redundant) / valid, 1) != 4.6:
                continue
            return valid, non_redundant
    raise AssertionError("no multiset reproduces the target row")


def test_row_shape_from_constructed_multiset():
    valid, non_redundant = _find_table_shaped_multiset()
    outcomes = (
        [(3, _outcome(OutcomeKind.VALID_NON_REDUNDANT))] * non_redundant
        + [(3, _outcome(OutcomeKind.VALID_REDUNDANT))] * (valid - non_redundant)
        + [(3, _outcome(OutcomeKind.INVALID_NO_PROOF))] * (166 - valid)
    )
    report = aggregate_metrics(outcomes)
    row = report["per_iteration"][0]
    assert row["label"] == "iteration 3"
    assert (row["valid_pct"], row["invalid_pct"]) == (65.1, 34.9)
    assert (row["valid_non_redundant_pct"], row["valid_redundant_pct"]) == (95.4, 4.6)
    assert row["valid_non_redundant_pct"] + row["valid_redundant_pct"] == 100.0


def test_redundancy_split_sums_to_100_within_valid_subset():
    rng = random.Random(31)
    kinds = list(OutcomeKind)
    for _ in range(100):
        outcomes = [(rng.randint(0, 3), _outcome(rng.choice(kinds))) for _ in range(rng.randint(1, 60))]
        report = aggregate_metrics(outcomes)
        for row in report["per_iteration"] + [report["overall"]]:
            assert row["valid_pct"] + row["invalid_pct"] == pytest.approx(100.0, abs=0.1)
            if row["valid"]:
                assert row["valid_non_redundant_pct"] + row["valid_redundant_pct"] == pytest.approx(100.0, abs=0.1)


def test_metrics_permutation_invariance_100_instances():
    rng = random.Random(37)
    kinds = list(OutcomeKind)
    for _ in range(100):
        outcomes = [(rng.randint(0, 2), _outcome(rng.choice(kinds))) for _ in range(rng.randint(0, 40))]
        shuffled = outcomes[:]
        rng.shuffle(shuffled)
        assert aggregate_metrics(outcomes) == aggregate_metrics(shuffled)


def test_render_metrics_column_order():
    report = aggregate_metrics([(0, _outcome(OutcomeKind.VALID_NON_REDUNDANT))])
    header = render_metrics(report).splitlines()[0]
    valid_pos = header.index("Valid")
    invalid_pos = header.index("Invalid")
    non_redundant_pos = header.index("Valid and non-Redundant")
    redundant_pos = header.index("Valid but Redundant")
    assert valid_pos < invalid_pos < non_redundant_pos < redundant_pos


def test_render_metrics_golden_text():
    kinds = [
        (2, OutcomeKind.VALID_NON_REDUNDANT),
        (0, OutcomeKind.VALID_NON_REDUNDANT),
        (0, OutcomeKind.VALID_REDUNDANT),
        (0, OutcomeKind.INVALID_NO_PROOF),
        (1, OutcomeKind.INVALID_MISMATCH),
        (1, OutcomeKind.INVALID_NO_PROOF),
        (2, OutcomeKind.VALID_NON_REDUNDANT),
        (2, OutcomeKind.VALID_REDUNDANT),
        (1, OutcomeKind.INVALID_NO_PROOF),
        (0, OutcomeKind.VALID_NON_REDUNDANT),
    ]
    report = aggregate_metrics([(iteration, _outcome(kind)) for iteration, kind in kinds])
    assert render_metrics(report) == (
        "Group        Valid  Invalid  Valid and non-Redundant  Valid but Redundant  N\n"
        "iteration 0  75.0   25.0     66.7                     33.3                 4\n"
        "iteration 1  0.0    100.0    0.0                      0.0                  3\n"
        "iteration 2  100.0  0.0      66.7                     33.3                 3\n"
        "all          60.0   40.0     66.7                     33.3                 10"
    )
    assert render_metrics(aggregate_metrics([])) == (
        "Group  Valid  Invalid  Valid and non-Redundant  Valid but Redundant  N\n"
        "all    0.0    0.0      0.0                      0.0                  0\n"
        "(no outcomes)"
    )


def test_metrics_json_shape():
    payload = aggregate_metrics([(1, _outcome(OutcomeKind.VALID_REDUNDANT))])
    assert payload["overall"]["valid"] == 1
    assert payload["per_iteration"][0]["label"] == "iteration 1"


# -- case files ----------------------------------------------------------------------


def _frog_doc() -> dict:
    return json.loads(resources.files("softprove").joinpath("data/cases/frog.json").read_text("utf-8"))


def test_case_round_trip(frog_case):
    case, rules = frog_case
    doc = _frog_doc()
    doc["rules"] = [
        {"fact_id": r.fact_id, "clause": "compression(X) :- crush(X). = 1.0"}
        for r in rules[:1]
    ]
    again, again_rules = case_from_dict(doc)
    assert again.id == case.id
    assert again.hypothesis is case.hypothesis
    assert len(again_rules) == 1


def test_case_rejects_unknown_fact_id():
    doc = _frog_doc()
    doc["rules"] = [{"fact_id": "zzz", "clause": "a(x)."}]
    with pytest.raises(ValueError):
        case_from_dict(doc)


def test_case_duplicate_fact_ids_rejected():
    doc = _frog_doc()
    doc["nl_facts"] = [{"id": "f1", "text": "a"}, {"id": "f1", "text": "b"}]
    with pytest.raises(ValueError):
        case_from_dict(doc)


def test_case_ignores_manual_invalid_class(frog_case):
    doc = _frog_doc()
    doc["manual_invalid_class"] = "missing_plausible_premise"
    assert case_from_dict(doc) == frog_case

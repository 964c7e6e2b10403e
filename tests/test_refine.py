import json
from importlib import resources

import pytest

from softprove.chat import MockTranscript, TranscriptEntry, TranscriptMiss
from softprove.logic import MoralViolation
from softprove.prompts import PromptRole, TemplateError, template
from softprove.refine import (
    AutoformalizationEmpty,
    CaseSeed,
    ParseFailure,
    RefineAborted,
    RefineConfig,
    UnknownViolation,
    abductive_inference,
    autoformalize,
    deductive_inference,
    parse_hypothesis,
    parse_premises,
    refine_loop,
    semantic_inference,
)
from softprove.srl import frame_from_dict

FROG_FRAME = frame_from_dict(
    {"statement": "I crushed the frog", "action": "crush", "agent": "I", "patient": "the frog"}
)


def _mock(entries, strict=True):
    return MockTranscript([TranscriptEntry(*e) for e in entries], strict=strict)


def _prison_seed():
    doc = json.loads(
        resources.files("softprove").joinpath("data/cases/prison_seed.json").read_text()
    )
    return CaseSeed(
        id=doc["id"],
        statement=doc["statement"],
        frame=frame_from_dict(doc["frame"]),
        gold_violation=MoralViolation(doc["gold_violation"]),
    )


def _prison_client(strict=True):
    text = resources.files("softprove").joinpath("data/transcripts/prison.json").read_text()
    return MockTranscript.from_json(text, strict=strict)


# -- templates ----------------------------------------------------------------------


def test_every_role_has_a_template():
    for role in PromptRole:
        assert template(role).role is role


def test_render_fills_slots():
    messages = template(PromptRole.DEDUCE).render(facts="1. a fact")
    assert messages[0][0] == "system"
    assert "1. a fact" in messages[1][1]


def test_render_missing_slot_is_error():
    with pytest.raises(TemplateError):
        template(PromptRole.SEMANTIC).render(statement="s", frame="f")  # principles missing


# -- parsers ------------------------------------------------------------------------


def test_parse_premises_with_header_and_numbering():
    reply = "Premises:\n1. First fact.\n2. Second fact.\nHypothesis: care"
    assert parse_premises(reply) == ["First fact.", "Second fact."]


def test_parse_premises_without_header():
    assert parse_premises("- only fact\n") == ["only fact"]


def test_parse_hypothesis_tolerates_wording():
    assert parse_hypothesis("Hypothesis: Violate the norm of authority") is MoralViolation.AUTHORITY
    assert parse_hypothesis("fairness") is MoralViolation.FAIRNESS


def test_parse_hypothesis_unknown_label():
    with pytest.raises(UnknownViolation):
        parse_hypothesis("Hypothesis: honor")
    with pytest.raises(UnknownViolation):
        parse_hypothesis("Hypothesis: care or maybe fairness")


# -- semantic inference ---------------------------------------------------------------


def test_semantic_inference_parses_facts_and_hypothesis():
    client = _mock(
        [("semantic", "crushed the frog", "Premises:\n1. Fact one.\n2. Fact two.\nHypothesis: care")]
    )
    facts, hypothesis = semantic_inference("I crushed the frog", FROG_FRAME, client)
    assert hypothesis is MoralViolation.CARE
    assert facts == [("f1", "Fact one."), ("f2", "Fact two.")]


def test_semantic_inference_fact_count_matches_reply():
    reply = "Premises:\n" + "\n".join(f"{i}. Fact {i}." for i in range(1, 6)) + "\nHypothesis: care"
    client = _mock([("semantic", "frog", reply)])
    facts, _ = semantic_inference("the frog", FROG_FRAME, client)
    assert len(facts) == 5


def test_semantic_inference_unknown_violation():
    client = _mock([("semantic", "frog", "Premises:\n1. x.\nHypothesis: honor")])
    with pytest.raises(UnknownViolation):
        semantic_inference("the frog", FROG_FRAME, client)


def test_semantic_inference_parse_failure_after_one_retry():
    client = _mock([("semantic", "frog", "no structure at all")])
    with pytest.raises(ParseFailure) as excinfo:
        semantic_inference("the frog", FROG_FRAME, client)
    assert excinfo.value.raw == "no structure at all"
    assert len(client.requests) == 2  # one automatic re-ask


# -- autoformalization ----------------------------------------------------------------


def test_autoformalize_tags_origin():
    client = _mock([("autoformalize", "neighbors are friends", "friend(X) :- neighbor(X). = 1.0")])
    rules, warnings = autoformalize([("f1", "neighbors are friends")], FROG_FRAME, client)
    assert warnings == []
    (rule,) = rules
    assert rule.fact_id == "f1"
    assert rule.head.predicate == "friend"


def test_autoformalize_drops_malformed_with_warning(caplog):
    reply = "友好 not a clause\nfriend(X) :- neighbor(X). = 1.0"
    client = _mock([("autoformalize", "neighbors", reply)])
    with caplog.at_level("WARNING"):
        rules, warnings = autoformalize([("f1", "neighbors are friends")], FROG_FRAME, client)
    assert len(rules) == 1
    assert len(warnings) == 1
    assert "dropped unparsable clause" in caplog.text
    assert len(client.requests) == 2  # re-asked once before dropping


def test_autoformalize_scores_validated():
    client = _mock([("autoformalize", "neighbors", "friend(X) :- neighbor(X). = 0.9")])
    rules, _ = autoformalize([("f1", "neighbors are friends")], FROG_FRAME, client)
    assert all(0.0 < r.score <= 1.0 for r in rules)


def test_autoformalize_empty_is_error():
    client = _mock([("autoformalize", "neighbors", "nothing usable")])
    with pytest.raises(AutoformalizationEmpty):
        autoformalize([("f1", "neighbors are friends")], FROG_FRAME, client)


# -- abduction and deduction -----------------------------------------------------------


def test_abduction_assigns_fresh_ids_and_dedupes():
    client = _mock(
        [("abduce", "authority", "Premises:\n1. New premise.\n2. Existing fact.\n3. new premise.")]
    )
    fresh = abductive_inference(
        ["kept one"],
        MoralViolation.AUTHORITY,
        "statement",
        client,
        existing_texts=["Existing fact."],
        first_fact_index=4,
    )
    assert fresh == [("f4", "New premise.")]


def test_abduction_with_empty_kept_facts_renders_none_slot():
    client = _mock([("abduce", "(none)", "Premises:\n1. Something new.")])
    fresh = abductive_inference([], MoralViolation.CARE, "s", client)
    assert fresh == [("f1", "Something new.")]
    assert "(none)" in client.requests[0][1]


def test_deduction_parses_label():
    client = _mock([("deduce", "physical harm", "Hypothesis: care")])
    got = deductive_inference([("f1", "physical harm was made to an animal")], client)
    assert got is MoralViolation.CARE


def test_deduction_deterministic_with_mock():
    client = _mock([("deduce", "", "Hypothesis: loyalty")])
    facts = [("f1", "some fact")]
    assert deductive_inference(facts, client) is deductive_inference(facts, client)


# -- the loop ---------------------------------------------------------------------------


def test_prison_three_stage_progression(demo_store):
    case, trace = refine_loop(_prison_seed(), RefineConfig(), _prison_client(), demo_store)
    kinds = [r.outcome.kind.value for r in trace.records]
    assert kinds == ["invalid_no_proof", "valid_redundant", "valid_non_redundant"]
    assert [len(r.explanation) for r in trace.records] == [2, 7, 3]
    assert case.hypothesis is MoralViolation.AUTHORITY
    assert trace.valid
    assert len(case.nl_facts) == 3
    assert len(trace.records[1].added_facts) == 5
    assert set(trace.records[1].pruned_fact_ids) == set(trace.records[1].outcome.unused_fact_ids)


def test_prison_trace_byte_identical_across_runs(demo_store):
    _, first = refine_loop(_prison_seed(), RefineConfig(), _prison_client(), demo_store)
    _, second = refine_loop(_prison_seed(), RefineConfig(), _prison_client(), demo_store)
    assert first.to_json().encode() == second.to_json().encode()


def test_pruning_is_exact(demo_store):
    _, trace = refine_loop(_prison_seed(), RefineConfig(), _prison_client(), demo_store)
    redundant = trace.records[1]
    survivors = {fid for fid, _ in trace.records[2].explanation}
    used = {fid for fid, _ in redundant.explanation} - set(redundant.pruned_fact_ids)
    assert survivors == used


def test_budget_ending_on_redundant_explanation_is_not_non_redundant(demo_store):
    # One iteration repairs the case into a valid but redundant explanation;
    # the pruned explanation is never re-verified, so it is not non-redundant.
    _, trace = refine_loop(_prison_seed(), RefineConfig(max_iterations=1), _prison_client(), demo_store)
    assert [r.outcome.kind.value for r in trace.records] == ["invalid_no_proof", "valid_redundant"]
    assert trace.valid is True
    assert trace.non_redundant is False


def test_prison_formalizes_each_fact_once(demo_store):
    # Iterations hold 2, 7 and 3 facts; 7 distinct facts in all.
    client = _prison_client()
    refine_loop(_prison_seed(), RefineConfig(), client, demo_store)
    prompts = [prompt for role, prompt in client.requests if role == "autoformalize"]
    assert len(prompts) == 7
    assert len(set(prompts)) == 7


def test_dropped_clauses_reach_the_trace(demo_store):
    # f1's reply keeps a malformed line after the re-ask; f2's reply parses to
    # nothing, which must not stop the loop while f1 still has a rule.
    client = _mock(
        [
            ("semantic", "frog", "Premises:\n1. Unhelpful fact.\nHypothesis: care"),
            ("autoformalize", "Unhelpful", "unrelated_thing(X) :- crush(X). = 1.0\nnot a clause"),
            ("autoformalize", "Another unhelpful", "nothing usable"),
            ("abduce", "", "Premises:\n1. Another unhelpful fact."),
            ("deduce", "", "Hypothesis: care"),
        ]
    )
    seed = CaseSeed(id="frog", statement="the frog", frame=FROG_FRAME)
    _, trace = refine_loop(seed, RefineConfig(max_iterations=2), client, demo_store)
    dropped = [record["dropped_clauses"] for record in trace.to_dict()["iterations"]]
    assert len(dropped) == 3
    assert len(dropped[0]) == 1 and "fact f1: dropped unparsable clause 'not a clause'" in dropped[0][0]
    assert len(dropped[1]) == 1 and "fact f2: dropped unparsable clause 'nothing usable'" in dropped[1][0]
    assert dropped[2] == []
    assert [r.outcome.kind.value for r in trace.records] == ["invalid_no_proof"] * 3


def test_proof_without_facts_confirms_on_principles_alone(demo_store, tmp_path):
    # The one principle proves the goal from the frame fact crush(action), so
    # the only fact is pruned and the confirmation pass has no rules to add.
    principles = tmp_path / "principles.pl"
    principles.write_text(
        "violate_care_physical(X,Y) :- crush(X). = 1.0\n"
        "goal <- violate_care_physical(action,patient).\n"
    )
    client = _mock(
        [
            ("semantic", "frog", "Premises:\n1. A frog is an animal.\nHypothesis: care"),
            ("autoformalize", "frog is an animal", "animal(X) :- frog(X). = 1.0"),
        ]
    )
    seed = CaseSeed(id="frog", statement="I crushed the frog", frame=FROG_FRAME)
    config = RefineConfig(principles_path=str(principles))
    _, trace = refine_loop(seed, config, client, demo_store)
    assert [r.outcome.kind.value for r in trace.records] == ["valid_redundant", "valid_non_redundant"]
    assert trace.valid is True and trace.non_redundant is True
    assert trace.final_explanation == ()
    assert len(client.requests) == 2


def test_full_repair_is_non_redundant(demo_store):
    _, trace = refine_loop(_prison_seed(), RefineConfig(), _prison_client(), demo_store)
    assert trace.valid is True
    assert trace.non_redundant is True


def test_zero_iterations_single_verification(demo_store):
    client = _prison_client()
    _, trace = refine_loop(_prison_seed(), RefineConfig(max_iterations=0), client, demo_store)
    assert len(trace.records) == 1
    assert trace.records[0].outcome.kind.value == "invalid_no_proof"
    roles = {role for role, _ in client.requests}
    assert "abduce" not in roles and "deduce" not in roles


def test_already_valid_case_never_abduces(demo_store):
    entries = [
        (
            "semantic",
            "crushed the frog",
            "Premises:\n1. Crushing is a form of compression.\n2. A frog is an animal.\n"
            "3. Compression applies a pushing force.\nHypothesis: care",
        ),
        ("autoformalize", "form of compression", "compression(X) :- crush(X). = 1.0"),
        ("autoformalize", "frog is an animal", "animal(X) :- frog(X). = 1.0"),
        ("autoformalize", "pushing force", "pushing_force(X) :- compression(X). = 1.0"),
    ]
    client = _mock(entries)
    seed = CaseSeed(id="frog", statement="I crushed the frog", frame=FROG_FRAME)
    case, trace = refine_loop(seed, RefineConfig(), client, demo_store)
    assert trace.records[0].outcome.kind.value == "valid_non_redundant"
    assert len(trace.records) == 1
    roles = {role for role, _ in client.requests}
    assert roles == {"semantic", "autoformalize"}
    assert case.hypothesis is MoralViolation.CARE


def test_loop_bounds(demo_store):
    # All iterations invalid: abductions == n, verifications == n + 1.  The
    # second abduction repeats an existing fact, which dedup removes.
    client = _mock(
        [
            ("semantic", "frog", "Premises:\n1. Unhelpful fact.\nHypothesis: care"),
            ("autoformalize", "Unhelpful", "unrelated_thing(X) :- crush(X). = 1.0"),
            ("autoformalize", "Another unhelpful", "unrelated_thing(X) :- crush(X). = 1.0"),
            ("abduce", "", "Premises:\n1. Another unhelpful fact."),
            ("deduce", "", "Hypothesis: care"),
        ]
    )
    seed = CaseSeed(id="frog", statement="the frog", frame=FROG_FRAME)
    _, trace = refine_loop(seed, RefineConfig(max_iterations=2), client, demo_store)
    verifications = len(trace.records)
    abductions = sum(1 for role, _ in client.requests if role == "abduce")
    assert verifications == 3  # n + 1
    assert abductions == 2  # n
    assert not trace.valid


def test_strict_mock_miss_aborts_with_partial_trace(demo_store):
    entries = [
        ("semantic", "frog", "Premises:\n1. Unhelpful fact.\nHypothesis: care"),
        ("autoformalize", "Unhelpful", "unrelated_thing(X) :- crush(X). = 1.0"),
        # no abduce entry: the loop's first repair request will miss
    ]
    client = _mock(entries)
    seed = CaseSeed(id="frog", statement="the frog", frame=FROG_FRAME)
    with pytest.raises(RefineAborted) as excinfo:
        refine_loop(seed, RefineConfig(), client, demo_store)
    assert isinstance(excinfo.value.cause, TranscriptMiss)
    assert len(excinfo.value.trace.records) == 1  # iteration 0 was recorded


def test_no_fabrication_in_strict_mode(demo_store):
    client = _prison_client(strict=True)
    _, trace = refine_loop(_prison_seed(), RefineConfig(), client, demo_store)
    responses = {e.response for e in client.entries}
    for record in trace.records:
        for fact_id, text in record.explanation:
            assert any(text in response for response in responses)


def test_trace_validates_against_schema(demo_store):
    import jsonschema

    _, trace = refine_loop(_prison_seed(), RefineConfig(), _prison_client(), demo_store)
    schema = json.loads(
        resources.files("softprove").joinpath("data/schemas/trace.schema.json").read_text()
    )
    jsonschema.validate(trace.to_dict(), schema)

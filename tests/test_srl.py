import pytest

from softprove.logic import Constant
from softprove.ruleparse import parse_rule
from softprove.srl import SchemaError, frame_from_dict, frame_to_facts, normalize_phrase

FROG_DOC = {"statement": "I crushed the frog", "action": "crush", "agent": "I", "patient": "the frog"}


def test_frame_from_dict_frog():
    frame = frame_from_dict(FROG_DOC)
    assert frame.action_lemma == "crush"
    assert frame.agent == "I"
    assert normalize_phrase(frame.patient) == "the_frog"


def test_missing_action_is_schema_error():
    with pytest.raises(SchemaError) as excinfo:
        frame_from_dict({"statement": "x"})
    assert "action" in str(excinfo.value)


def test_ill_typed_keys_reported_together():
    with pytest.raises(SchemaError) as excinfo:
        frame_from_dict({"statement": 1, "action": 2, "agent": 3})
    message = str(excinfo.value)
    assert "statement" in message and "action" in message and "agent" in message


def test_normalization_rules():
    assert normalize_phrase("The FROG!!") == "the_frog"
    assert normalize_phrase("a  b--c") == "a_b_c"
    assert normalize_phrase("_edge_") == "edge"
    assert normalize_phrase("3 dogs") == "n_3_dogs"
    assert normalize_phrase("!!!") == ""


def test_frame_to_facts_frog():
    frame = frame_from_dict(FROG_DOC)
    facts = frame_to_facts(frame)
    rendered = {r.text for r in facts}
    assert rendered == {
        "crush(action). = 1.0",
        "the_frog(patient). = 1.0",
        "frog(patient). = 1.0",
        "i(agent). = 1.0",
    }


def test_frame_without_agent_emits_no_agent_fact():
    frame = frame_from_dict({"statement": "s", "action": "wave", "patient": "crowd"})
    predicates = {r.head.predicate for r in frame_to_facts(frame)}
    assert predicates == {"wave", "crowd"}
    assert not any(r.head.args == (Constant("agent"),) for r in frame_to_facts(frame))


def test_facts_are_ground_unit_scored_srl_rules():
    frame = frame_from_dict(FROG_DOC)
    for rule in frame_to_facts(frame):
        assert rule.body == ()
        assert rule.score == 1.0
        assert rule.fact_id is None
        assert all(isinstance(t, Constant) for t in rule.head.args)


def test_single_word_patient_has_no_head_noun_duplicate():
    frame = frame_from_dict({"statement": "s", "action": "kick", "patient": "dog"})
    predicates = [r.head.predicate for r in frame_to_facts(frame)]
    assert predicates.count("dog") == 1


def test_extra_roles_sorted_and_grounded():
    frame = frame_from_dict(
        {"statement": "s", "action": "cut", "roles": {"instrument": "sharp knife", "beneficiary": "my guests"}}
    )
    facts = frame_to_facts(frame)
    rendered = [r.text for r in facts]
    assert rendered == [
        "cut(action). = 1.0",
        "my_guests(beneficiary). = 1.0",
        "sharp_knife(instrument). = 1.0",
    ]


def test_facts_parse_back_through_ruleparse():
    frame = frame_from_dict(FROG_DOC)
    for rule in frame_to_facts(frame):
        reparsed = parse_rule(rule.text, rule_id=rule.id)
        assert reparsed.head == rule.head
        assert reparsed.body == rule.body
        assert reparsed.score == rule.score


def test_frame_to_facts_deterministic():
    frame = frame_from_dict(FROG_DOC)
    assert frame_to_facts(frame) == frame_to_facts(frame)

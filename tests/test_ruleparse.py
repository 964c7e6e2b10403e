import random

import pytest

from softprove.logic import Constant, MoralViolation, Variable
from softprove.ruleparse import (
    ArityError,
    KbParseError,
    RuleSyntaxError,
    ScoreRangeError,
    format_score,
    parse_kb,
    parse_rule,
    serialize,
)
from genutil import random_document


def test_parse_rule_with_body_and_score():
    rule = parse_rule("animal(X) :- frog(X). = 1.0")
    assert rule.head.predicate == "animal"
    assert rule.head.args == (Variable("X"),)
    assert [a.predicate for a in rule.body] == ["frog"]
    assert rule.score == 1.0


def test_parse_fact_clause():
    rule = parse_rule("frog(patient). = 1.0")
    assert rule.body == ()
    assert rule.head.args == (Constant("patient"),)


def test_parse_two_atom_body_shares_variables():
    rule = parse_rule("violate_care_physical(X,Y) :- physical_harm(X), animal(Y). = 1.0")
    assert rule.head.args == (Variable("X"), Variable("Y"))
    assert rule.body[0].args == (Variable("X"),)
    assert rule.body[1].args == (Variable("Y"),)


def test_missing_score_defaults_to_one():
    assert parse_rule("a(x).").score == 1.0


def test_syntax_error_carries_position():
    with pytest.raises(RuleSyntaxError) as excinfo:
        parse_rule("animal(X :- frog(X).")
    assert excinfo.value.line == 1
    assert excinfo.value.column > 1


def test_arity_error_above_cap():
    with pytest.raises(ArityError):
        parse_rule("p(a,b,c,d).")


def test_score_range_error():
    with pytest.raises(ScoreRangeError):
        parse_rule("a(x). = 0.0")
    with pytest.raises(RuleSyntaxError):
        parse_rule("a(x). = 0.1234567")  # more than 6 fractional digits


def test_parse_kb_empty_input():
    doc = parse_kb("")
    assert doc.rules == ()
    assert doc.goal_decls == ()


def test_parse_kb_generated_fact_chain():
    text = """% formalized explanation facts
compression(X) :- crush(X). = 1.0
animal(X) :- frog(X). = 1.0
pushing_force(X) :- compression(X). = 1.0
"""
    doc = parse_kb(text)
    assert len(doc.rules) == 3
    assert all(r.score == 1.0 for r in doc.rules)
    assert [r.id for r in doc.rules] == ["r0", "r1", "r2"]


def test_parse_kb_goal_line():
    doc = parse_kb("goal <- violate_care_physical(action,patient) | violate_liberty(action,patient).")
    assert len(doc.goal_decls) == 2
    assert doc.goal_decls[0].violation is MoralViolation.CARE
    assert doc.goal_decls[1].violation is MoralViolation.LIBERTY
    assert str(doc.goal_decls[0].goal_atom) == "violate_care_physical(action,patient)"


def test_parse_kb_retains_duplicate_clauses():
    doc = parse_kb("a(x). = 0.5\na(x). = 0.7\na(x). = 0.5")
    assert [r.score for r in doc.rules] == [0.5, 0.7, 0.5]


def test_parse_kb_aggregates_errors():
    text = "a(x).\nbad clause here\nb(y). = 2.0\nc(z)."
    with pytest.raises(KbParseError) as excinfo:
        parse_kb(text)
    assert len(excinfo.value.errors) == 2
    for error in excinfo.value.errors:
        assert error.line in (2, 3)


def test_error_positions_point_inside_offending_clause():
    text = "good(x).\n  also_good(y).\n  broken(:- x)."
    with pytest.raises(KbParseError) as excinfo:
        parse_kb(text)
    (error,) = excinfo.value.errors
    assert error.line == 3
    assert error.column >= 3


def test_serialize_fact():
    doc = parse_kb("a(x).")
    assert serialize(doc) == "a(x). = 1.0\n"


def test_serialize_score_formatting():
    assert format_score(1.0) == "1.0"
    assert format_score(0.672) == "0.672"
    assert format_score(0.29562) == "0.29562"
    assert format_score(float(f"{1/3:.6f}")) == "0.333333"


def test_round_trip_paper_style_clauses():
    clauses = [
        "animal(X) :- frog(X). = 1.0",
        "frog(patient). = 1.0",
        "violate_care_physical(X,Y) :- physical_harm(X), animal(Y). = 1.0",
        "compression(X) :- crush(X). = 1.0",
        "pushing_force(X) :- compression(X). = 1.0",
        "physical_harm(X) :- crush(X). = 0.672",
        "physical_harm(X) :- compression(X). = 0.776",
        "physical_harm(X) :- pushing_force(X). = 0.823",
        "friend(X) :- neighbor(X). = 1.0",
    ]
    text = "\n".join(clauses)
    doc = parse_kb(text)
    assert serialize(doc).strip().splitlines() == clauses


def test_round_trip_random_rules_100():
    rng = random.Random(7)
    for _ in range(100):
        doc = random_document(rng)
        assert parse_kb(serialize(doc)) == doc


def test_round_trip_includes_goal_lines():
    rng = random.Random(11)
    seen_goals = 0
    for _ in range(200):
        doc = random_document(rng)
        seen_goals += len(doc.goal_decls)
        assert parse_kb(serialize(doc)) == doc
    assert seen_goals > 0


def test_document_equality_ignores_layout():
    left = parse_kb("a(x).\n\n\nb(y).")
    right = parse_kb("a(x).\nb(y).")
    assert left == right


def test_whitespace_and_comments_are_insignificant():
    sprawling = "% header\n  animal(X)\n :- frog(X)\n . = 1.0  % trailing\n"
    assert parse_kb(sprawling).rules == parse_kb("animal(X) :- frog(X). = 1.0").rules

import random

import pytest

from softprove.logic import Constant, MoralViolation, Variable, format_score
from softprove.ruleparse import (
    _CLAUSE_RE,
    KbParseError,
    RuleSyntaxError,
    _Parser,
    parse_kb,
    parse_rule,
    serialize,
)
from genutil import one_edit_away, random_clause_lines, random_document


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
    with pytest.raises(RuleSyntaxError, match=r"column 1: expected arity <= 3, found arity 4$"):
        parse_rule("p(a,b,c,d).")


def test_score_range_error():
    with pytest.raises(RuleSyntaxError, match=r"expected score in \(0, 1\], found 0.0$"):
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


@pytest.mark.parametrize(
    "text, expected",
    [
        # term() stops on the '.', so recovery starts there and finds a second error
        ("a(.b).", [(1, 3, "expected a constant or variable, found '.'"), (1, 5, "expected '(', found ')'")]),
        # recovery crosses a clause that spans lines 2-4
        (
            "a(x).\nb(X) :-\n  c(X,\n  :- d(X).\ne(y).\nf(z) g(w).\nh(q).",
            [(4, 3, "expected a constant or variable, found ':-'"), (6, 6, "expected '.', found 'g'")],
        ),
        (
            "a(x).\nbad clause here\nb(y). = 2.0\nc(z).",
            [(2, 5, "expected '(', found 'clause'"), (3, 9, "expected score in (0, 1], found 2.0")],
        ),
        # a bad character anywhere is the one error reported
        ("good(x).\n  bad(y) = 2.\nok(z).\n  p(a) :- q(#).", [(4, 13, "expected a token, found '#'")]),
    ],
)
def test_parse_kb_error_positions_and_recovery(text, expected):
    with pytest.raises(KbParseError) as excinfo:
        parse_kb(text)
    errors = excinfo.value.errors
    assert [(e.line, e.column, str(e)) for e in errors] == [
        (line, column, f"line {line}, column {column}: {message}") for line, column, message in expected
    ]
    assert str(excinfo.value) == "; ".join(str(e) for e in errors)


def test_bad_character_is_the_one_error_at_its_position():
    rng = random.Random(5)
    checked = 0
    while checked < 250:
        text = serialize(random_document(rng))
        cut = rng.randint(0, len(text))
        if text[cut - 1 : cut + 1] in (":-", "<-"):  # a lone ':' or '<' would come first
            continue
        text = text[:cut] + "#" + text[cut:]
        with pytest.raises(KbParseError) as excinfo:
            parse_kb(text)
        (error,) = excinfo.value.errors
        assert str(error).endswith("expected a token, found '#'")
        assert text.splitlines()[error.line - 1][error.column - 1] == "#"
        checked += 1


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


def test_serialize_reads_the_kept_rule_text():
    # Each rule keeps its clause text once formatted: serializing a document
    # again, or the document parsed back from it, gives the same bytes.
    rng = random.Random(17)
    for _ in range(200):
        doc = random_document(rng)
        text = serialize(doc)
        assert serialize(doc) == text
        again = parse_kb(text)
        assert again == doc and serialize(again) == text


def test_document_equality_ignores_layout():
    left = parse_kb("a(x).\n\n\nb(y).")
    right = parse_kb("a(x).\nb(y).")
    assert left == right


def test_whitespace_and_comments_are_insignificant():
    sprawling = "% header\n  animal(X)\n :- frog(X)\n . = 1.0  % trailing\n"
    assert parse_kb(sprawling).rules == parse_kb("animal(X) :- frog(X). = 1.0").rules


def _token_parse(text, rule_id, fact_id):
    """A clause read by the token parser alone."""
    parser = _Parser(text)
    rule = parser.clause(rule_id, fact_id)
    if not parser.at_end():
        raise parser.error(parser.peek(), "end of input")
    return rule


def _reading(read, text, rule_id="g_f1_0", fact_id="f1"):
    """The rule and its template, or the error's type, text, line and column."""
    try:
        rule = read(text, rule_id, fact_id)
    except RuleSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return rule, rule.template


def test_both_readers_agree_on_clauses_and_every_one_edit_variant():
    # Every line of generated documents (goal declarations too, which
    # parse_rule rejects), and every text one character edit away from it.
    lines = random_clause_lines(random.Random(23), 14)
    checked = accepted = 0
    for line in lines:
        for text in (line, *one_edit_away(line)):
            expected = _reading(_token_parse, text)
            assert _reading(parse_rule, text) == expected, text
            checked += 1
            accepted += _CLAUSE_RE.fullmatch(text) is not None
    assert checked >= 100_000
    assert accepted > 1_000  # the one-match reader is exercised, not only the fallback


@pytest.mark.parametrize(
    "text",
    [
        "a(x). = 0.5" + " " * 20_000 + "x",
        "a" * 20_000,
        "p(X) :- " + ", ".join(f"q{i}(X)" for i in range(3_000)),
    ],
    ids=["trailing-junk", "long-symbol", "long-body-no-dot"],
)
def test_long_near_misses_fall_back_with_the_token_parsers_error(text):
    # A clause regex that backtracked more than linearly would hang here.
    assert len(text) >= 20_000
    assert _CLAUSE_RE.fullmatch(text) is None
    assert _reading(parse_rule, text) == _reading(_token_parse, text)
    assert _reading(parse_rule, text)[0] is RuleSyntaxError


@pytest.mark.parametrize(
    "text, one_match",
    [
        ("p(a,b,c,d).", False),
        ("a(x). = 0.1234567", False),
        ("a(x). % comment", False),
        ("a(x).\x0c", False),
        ("a(x). = 0.0", True),
        ("a(x). = 1.5", True),
    ],
)
def test_what_the_one_match_reader_leaves_to_the_token_parser(text, one_match):
    # An arity above the cap, seven fractional digits, a comment and a
    # character the tokenizer rejects do not match; a score outside (0, 1]
    # matches but is refused.  The token parser reads each: the comment is
    # whitespace to it, the rest are errors.
    assert (_CLAUSE_RE.fullmatch(text) is not None) == one_match
    assert _reading(parse_rule, text) == _reading(_token_parse, text)

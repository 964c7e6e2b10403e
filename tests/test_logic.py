import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softprove.logic import (
    Atom,
    Constant,
    EMPTY_SUBSTITUTION,
    KnowledgeBase,
    LogicError,
    MoralViolation,
    OccursCheckViolation,
    Rule,
    ScoreRangeError,
    Substitution,
    Variable,
    apply_substitution,
    atom,
    compose,
    foundation_for_goal_predicate,
)
from softprove.principles import load_principles
from softprove.ruleparse import parse_rule, serialize

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


def test_variable_name_validation():
    Variable("X1_ok")
    with pytest.raises(LogicError):
        Variable("lower")
    with pytest.raises(LogicError):
        Constant("Upper")
    with pytest.raises(LogicError):
        Constant("")


def test_atom_arity_bounds():
    atom("p", "X")
    atom("p", "X", "y", "Z")
    with pytest.raises(LogicError):
        Atom("p", ())
    with pytest.raises(LogicError):
        Atom("p", (X, Y, Z, X))


def test_rule_score_range():
    head = atom("p", "x")
    Rule(head=head, body=(), score=1.0, id="r")
    with pytest.raises(ScoreRangeError):
        Rule(head=head, body=(), score=0.0, id="r")
    with pytest.raises(ScoreRangeError):
        Rule(head=head, body=(), score=1.2, id="r")


def test_rule_fact_id_is_none_or_non_empty():
    head = atom("p", "x")
    assert Rule(head=head, body=(), score=1.0, id="r").fact_id is None
    assert Rule(head=head, body=(), score=1.0, id="r", fact_id="f1").fact_id == "f1"
    with pytest.raises(LogicError):
        Rule(head=head, body=(), score=1.0, id="r", fact_id="")


def test_kb_rejects_duplicate_ids():
    rule = Rule(head=atom("p", "x"), body=(), score=1.0, id="r0")
    with pytest.raises(LogicError):
        KnowledgeBase((rule, rule))


# -- substitutions ---------------------------------------------------------------


def test_apply_empty_substitution_is_identity():
    subject = atom("p", "X")
    assert apply_substitution(subject, EMPTY_SUBSTITUTION) == subject


def test_apply_single_binding():
    theta = Substitution({"X": Constant("the_frog")})
    assert apply_substitution(atom("animal", "X"), theta) == atom("animal", "the_frog")


def test_apply_is_single_pass():
    theta = Substitution({"X": Y, "Y": a})
    assert apply_substitution(atom("p", "X", "Y"), theta) == Atom("p", (Y, a))


def _reference_apply(bindings: dict, subject: Atom) -> Atom:
    # Independent single-pass application used as the oracle.
    return Atom(
        subject.predicate,
        tuple(
            bindings.get(t.name, t) if isinstance(t, Variable) else t for t in subject.args
        ),
    )


def test_apply_matches_reference_on_all_two_variable_cases():
    variables = [X, Y]
    images = [X, Y, a, b]
    subject = Atom("p", (X, Y))
    for n_bindings in (0, 1, 2):
        for names in itertools.combinations(["X", "Y"], n_bindings):
            for values in itertools.product(images, repeat=n_bindings):
                bindings = dict(zip(names, values))
                if any(isinstance(v, Variable) and v.name == k for k, v in bindings.items()):
                    continue  # self-binding rejected by the occurs check
                theta = Substitution(bindings)
                assert apply_substitution(subject, theta) == _reference_apply(bindings, subject)


def test_compose_identities():
    theta = Substitution({"X": a})
    assert compose(EMPTY_SUBSTITUTION, theta) == theta
    assert compose(theta, EMPTY_SUBSTITUTION) == theta


def test_compose_chains_bindings():
    composed = compose(Substitution({"X": Y}), Substitution({"Y": b}))
    assert composed == Substitution({"X": b, "Y": b})
    # Defining equation checked on p(X,Y).
    subject = Atom("p", (X, Y))
    theta1, theta2 = Substitution({"X": Y}), Substitution({"Y": b})
    assert apply_substitution(subject, composed) == apply_substitution(
        apply_substitution(subject, theta1), theta2
    )


def test_occurs_check():
    with pytest.raises(OccursCheckViolation):
        Substitution({"X": X})
    with pytest.raises(OccursCheckViolation):
        compose(Substitution({"X": Y}), Substitution({"Y": X}))


_term = st.one_of(
    st.sampled_from([X, Y, Z, a, b]),
)


@st.composite
def _substitutions(draw):
    names = draw(st.lists(st.sampled_from(["X", "Y", "Z"]), unique=True, max_size=3))
    bindings = {}
    for name in names:
        image = draw(_term)
        if isinstance(image, Variable) and image.name == name:
            continue
        bindings[name] = image
    return Substitution(bindings)


@st.composite
def _atoms(draw):
    predicate = draw(st.sampled_from(["p", "q", "r"]))
    args = draw(st.lists(_term, min_size=1, max_size=3))
    return Atom(predicate, tuple(args))


@given(theta1=_substitutions(), theta2=_substitutions(), subject=_atoms())
@settings(max_examples=200)
def test_compose_defining_equation_property(theta1, theta2, subject):
    try:
        composed = compose(theta1, theta2)
    except OccursCheckViolation:
        return  # cyclic composition is rejected, not mis-applied
    assert apply_substitution(subject, composed) == apply_substitution(
        apply_substitution(subject, theta1), theta2
    )


# -- the principle library --------------------------------------------------------


def test_default_principles_contains_the_care_animal_rule():
    expected = parse_rule("violate_care_physical(X,Y) :- physical_harm(X), animal(Y). = 1.0")
    matches = [
        r
        for r in load_principles().rules
        if r.head == expected.head and r.body == expected.body and r.score == expected.score
    ]
    assert len(matches) == 1


def test_default_principles_all_true_facts():
    rules = load_principles().rules
    assert rules
    assert all(r.score == 1.0 for r in rules)
    assert all(r.fact_id is None for r in rules)


def test_default_principles_cover_every_foundation():
    covered = set()
    for rule in load_principles().rules:
        if rule.head.predicate.startswith("violate_"):
            covered.add(foundation_for_goal_predicate(rule.head.predicate))
    assert covered == set(MoralViolation)


def test_default_goals_cover_every_foundation_and_are_ground():
    goals = load_principles().goal_decls
    assert {g.violation for g in goals} == set(MoralViolation)
    assert all(isinstance(t, Constant) for g in goals for t in g.goal_atom.args)


def test_principles_serialization_is_byte_stable():
    from softprove.principles import principles_text
    from softprove.ruleparse import parse_kb

    text = principles_text()
    first = serialize(parse_kb(text))
    second = serialize(parse_kb(text))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_goal_predicate_mapping_total_over_known_predicates():
    for goal in load_principles().goal_decls:
        assert foundation_for_goal_predicate(goal.goal_atom.predicate) is goal.violation
    assert foundation_for_goal_predicate("violate_care_emotional") is MoralViolation.CARE
    with pytest.raises(LogicError):
        foundation_for_goal_predicate("violate_honor")

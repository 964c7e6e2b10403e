import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softprove.logic import (
    Atom,
    Constant,
    KnowledgeBase,
    LogicError,
    MoralViolation,
    Rule,
    Variable,
    atom,
    format_score,
    foundation_for_goal_predicate,
)
from softprove.principles import load_principles
from softprove.ruleparse import parse_rule, serialize
from genutil import (
    EMPTY_SUBSTITUTION,
    Substitution,
    apply_substitution,
    compose,
    random_document,
    random_layered_kb,
    rename_apart,
    with_definitional_cycles,
)

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
    with pytest.raises(LogicError, match=r"rule score must be in \(0, 1\], got 0.0"):
        Rule(head=head, body=(), score=0.0, id="r")
    with pytest.raises(LogicError, match=r"rule score must be in \(0, 1\], got 1.2"):
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


# -- rule templates ----------------------------------------------------------------


def _instantiate(rule: Rule, frame: int) -> tuple[Atom, tuple[Atom, ...]]:
    """The template at ``frame``, slot ``s`` named ``V<frame + s>``."""
    template = rule.template

    def args(slots):
        return tuple(Variable(f"V{frame + s}") if isinstance(s, int) else s for s in slots)

    head = Atom(rule.head.predicate, args(template.head))
    return head, tuple(Atom(a.predicate, args(slots)) for a, slots in zip(rule.body, template.body))


def test_template_at_a_frame_equals_renaming_apart():
    # Random documents repeat variables within and across atoms and mix in
    # constants; the layered KBs and their cycles are what the search meets.
    rng = random.Random(12)
    rules = []
    for _ in range(200):
        rules.extend(random_document(rng).rules)
        kb, _, _ = random_layered_kb(rng)
        rules.extend(with_definitional_cycles(rng, kb).rules)
    assert len(rules) > 1000
    for rule in rules:
        frame = rng.randint(0, 500)
        fresh = itertools.count(frame)
        assert _instantiate(rule, frame) == rename_apart(rule, lambda: f"V{next(fresh)}")
        distinct = {v.name for a in (rule.head,) + rule.body for v in a.variables()}
        assert rule.template.size == len(distinct)
        assert next(fresh) == frame + rule.template.size


def test_template_numbers_variables_head_first():
    rule = parse_rule("p(Y,a) :- q(X,Y), r(Z,X,b).")
    assert rule.template == (3, (0, a), ((1, 0), (2, 1, b)))
    assert parse_rule("p(a).").template == (0, (a,), ())


def test_template_is_not_part_of_rule_equality_or_repr():
    rule = parse_rule("p(X) :- q(X).", rule_id="r0")
    same = Rule(rule.head, rule.body, rule.score, rule.id)
    assert same == rule and hash(same) == hash(rule)
    assert "template" not in repr(rule)


def _formatted(rule: Rule) -> str:
    """The clause text of ``rule``, formatted afresh."""
    clause = str(rule.head)
    if rule.body:
        clause = f"{clause} :- {', '.join(str(a) for a in rule.body)}"
    return f"{clause}. = {format_score(rule.score)}"


def test_rule_text_equals_fresh_formatting():
    rng = random.Random(13)
    rules = [rule for _ in range(300) for rule in random_document(rng).rules]
    assert len(rules) > 500
    for rule in rules:
        assert rule.text == _formatted(rule)
        assert rule.text is rule.text  # kept, not formatted again
        assert parse_rule(rule.text, rule_id=rule.id) == rule


def test_rule_text_is_not_part_of_rule_equality_or_repr():
    rule = parse_rule("p(X) :- q(X). = 0.5", rule_id="r0")
    assert rule.text == "p(X) :- q(X). = 0.5"
    same = Rule(rule.head, rule.body, rule.score, rule.id)  # text not formatted yet
    assert same == rule and hash(same) == hash(rule)
    assert repr(same) == repr(rule)
    assert "text" not in repr(rule) and rule.text not in repr(rule)


def test_replace_gives_fresh_rule_text():
    rule = parse_rule("p(X) :- q(X). = 0.5", rule_id="r0")
    assert rule.text == "p(X) :- q(X). = 0.5"
    assert replace(rule, score=0.25).text == "p(X) :- q(X). = 0.25"
    assert replace(rule, body=()).text == "p(X). = 0.5"
    assert replace(rule, head=atom("r", "X", "a")).text == "r(X,a) :- q(X). = 0.5"
    assert replace(rule, id="r9").text == rule.text


# -- substitutions ---------------------------------------------------------------
# The search keeps θ as numbered bindings (``prover.weak_unify_atoms``); these
# check the named substitutions of ``genutil``, the reference its unifier is
# checked against in ``test_prover.py``.


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
    with pytest.raises(LogicError, match="variable X would bind to itself"):
        Substitution({"X": X})
    with pytest.raises(LogicError, match="would bind to itself"):
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
    except LogicError:
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

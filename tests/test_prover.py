import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import softprove
from softprove.embeddings import EmbeddingStore
from softprove.logic import (
    Atom,
    Constant,
    GoalSpec,
    KnowledgeBase,
    MoralViolation,
    Rule,
    Variable,
    atom,
)
from softprove.ruleparse import parse_rule
from softprove.prover import (
    MAX_DEPTH,
    ConfigError,
    SolverConfig,
    candidate_rules,
    prove_all_goals,
    prove_goal,
    proof_to_dict,
    render_proof,
    weak_unify_atoms,
)
from genutil import (
    EMPTY_SUBSTITUTION,
    Substitution,
    apply_term,
    compose,
    cosine_pair_table,
    exact_pair_score,
    facts_in_proof,
    head_score,
    oracle_best,
    oracle_proof_scores,
    oracle_proofs,
    random_layered_kb,
    with_definitional_cycles,
)

X, Y = Variable("X"), Variable("Y")
EMPTY_STORE = EmbeddingStore.empty()


def _kb(*clauses: str, goal: str = "violate_care_physical(action,patient)") -> KnowledgeBase:
    from softprove.ruleparse import parse_kb

    doc = parse_kb("\n".join(clauses))
    goal_doc = parse_kb(f"goal <- {goal}.")
    return KnowledgeBase(doc.rules, goal_doc.goal_decls)


def test_config_validation():
    SolverConfig()
    with pytest.raises(ConfigError):
        SolverConfig(unify_threshold=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(proof_threshold=1.5)
    with pytest.raises(ConfigError):
        SolverConfig(max_depth=0)
    SolverConfig(max_depth=MAX_DEPTH)
    with pytest.raises(ConfigError, match=f"max_depth must be in \\[1, {MAX_DEPTH}\\]"):
        SolverConfig(max_depth=MAX_DEPTH + 1)


# -- atom unification -------------------------------------------------------------


def _predicate_score(goal: Atom, head: Atom, store: EmbeddingStore, config: SolverConfig):
    """The candidate scan's score of ``head`` for ``goal``, or None if it does
    not pass: the candidates of a one-fact knowledge base with that head."""
    found = candidate_rules(KnowledgeBase((Rule(head, (), 1.0, "h"),)), goal, store, config)
    return found[0][1] if found else None


def _unify(goal: Atom, head: Atom, theta: Substitution, store: EmbeddingStore, config: SolverConfig):
    """The search's two steps on named atoms: the candidate scan passes the
    head, then ``weak_unify_atoms`` unifies the arguments.

    The goal's and the head's variables share one numbering (head frame 0),
    so a name on both sides is one variable, and the named ``theta`` goes in
    as numbered bindings.  Returns ``(θ, score)`` with θ as a named
    substitution, each variable bound to the end of its chain, or None.
    """
    score = _predicate_score(goal, head, store, config)
    if score is None:
        return None
    numbers: dict[str, int] = {}

    def number(term):
        return numbers.setdefault(term.name, len(numbers)) if isinstance(term, Variable) else term

    bindings = {number(Variable(name)): number(term) for name, term in theta.items()}
    goal_args = tuple(number(t) for t in goal.args)
    unified = weak_unify_atoms(goal_args, head, tuple(number(t) for t in head.args), 0, bindings)
    if unified is None:
        return None
    names = {n: Variable(name) for name, n in numbers.items()}

    def resolved(term):
        while isinstance(term, int) and term in unified:
            term = unified[term]
        return names[term] if isinstance(term, int) else term

    return Substitution({names[n].name: resolved(n) for n in unified}), score


def test_unify_identical_predicate_binds_variable():
    result = _unify(atom("animal", "the_frog"), atom("animal", "X"), EMPTY_SUBSTITUTION, EMPTY_STORE, SolverConfig())
    assert result is not None
    theta, score = result
    assert score == 1.0
    assert theta == Substitution({"X": Constant("the_frog")})


def test_unify_weak_predicates(demo_store):
    result = _unify(
        atom("physical_harm", "action"),
        atom("pushing_force", "X"),
        EMPTY_SUBSTITUTION,
        demo_store,
        SolverConfig(),
    )
    assert result is not None
    theta, score = result
    assert 0.5 <= score < 1.0
    assert theta == Substitution({"X": Constant("action")})


def test_unify_below_threshold_fails(demo_store):
    assert (
        _unify(
            atom("physical_harm", "action"),
            atom("animal", "X"),
            EMPTY_SUBSTITUTION,
            demo_store,
            SolverConfig(),
        )
        is None
    )


def test_unify_arity_mismatch():
    assert _unify(atom("p", "a"), atom("q", "a", "b"), EMPTY_SUBSTITUTION, EMPTY_STORE, SolverConfig()) is None


def test_unify_constant_equality_is_strict_by_default(demo_store):
    from softprove.embeddings import weak_unify_score

    # Similar enough to unify as predicates, but constants match by equality only.
    assert weak_unify_score(demo_store, "the_frog", "frog") >= SolverConfig().unify_threshold
    assert _predicate_score(atom("animal", "the_frog"), atom("animal", "frog"), demo_store, SolverConfig()) == 1.0
    assert weak_unify_atoms((Constant("the_frog"),), atom("animal", "frog"), (Constant("frog"),), 0, {}) is None


def test_unify_respects_existing_bindings():
    theta = Substitution({"X": Constant("a")})
    assert _unify(atom("p", "X"), atom("p", "b"), theta, EMPTY_STORE, SolverConfig()) is None
    ok = _unify(atom("p", "X"), atom("p", "a"), theta, EMPTY_STORE, SolverConfig())
    assert ok is not None and ok[0] == theta


def test_unify_follows_chains_and_leaves_theta_unchanged():
    # θ binds 3 -> 2 -> 1 -> 0, as the search leaves bindings: each made to
    # the term resolved when it was made.  The head slot 0 at frame 5 is
    # variable 5; the goal's 3 resolves to 0, so 5 is bound to 0.
    theta = {1: 0, 2: 1, 3: 2}
    head = atom("p", "X", "X")
    got = weak_unify_atoms((3, 0), head, (0, 0), 5, theta)
    assert got == {1: 0, 2: 1, 3: 2, 5: 0}
    assert theta == {1: 0, 2: 1, 3: 2}
    a = Constant("a")
    theta[0] = a
    assert weak_unify_atoms((3, a), atom("p", "a", "a"), (a, a), 5, theta) is theta  # nothing new to bind
    assert weak_unify_atoms((3, Constant("b")), head, (0, 0), 5, theta) is None  # 5 -> a, then a meets b


def test_unify_follows_long_chains_on_both_sides_at_a_shifted_frame():
    # Goal variable -1 leads to 9 and head slot 0 at frame 10 (variable 10)
    # to 19, three links each; slot 1 at frame 10 is variable 11, bound to b.
    a, b = Constant("a"), Constant("b")
    theta = {-1: 4, 4: 7, 7: 9, 10: 13, 13: 16, 16: 19, 11: b}
    snapshot = dict(theta)
    head = atom("p", "X", "Y")
    assert weak_unify_atoms((-1,), head, (0,), 10, theta) == {**snapshot, 19: 9}  # the head's end is bound
    assert weak_unify_atoms((-1,), head, (1,), 10, theta) == {**snapshot, 9: b}
    assert weak_unify_atoms((-1,), head, (0,), 0, theta) == {**snapshot, 0: 9}  # slot 0 at frame 0 is unbound
    assert weak_unify_atoms((-1, a), head, (0, 1), 10, theta) is None  # 19 -> 9, then a meets b
    assert theta == snapshot
    joined = {**theta, 19: 9}
    assert weak_unify_atoms((-1, 4), head, (0, 0), 10, joined) is joined  # nothing new to bind
    grounded = {**theta, 9: b, 19: b}
    assert weak_unify_atoms((-1, b), head, (0, 1), 10, grounded) is grounded
    assert weak_unify_atoms((-1,), head, (0,), 10, {**theta, 9: a, 19: b}) is None


def _unify_by_composing(a: Atom, b: Atom, theta: Substitution):
    """Reference unifier: composes ``theta`` with each binding as it is made."""
    for raw_left, raw_right in zip(a.args, b.args):
        left, right = apply_term(theta, raw_left), apply_term(theta, raw_right)
        if isinstance(left, Constant) and isinstance(right, Constant):
            if left.symbol != right.symbol:
                return None
        elif isinstance(left, Variable) and isinstance(right, Variable):
            if left.name != right.name:
                theta = compose(theta, Substitution({right.name: left}))
        elif isinstance(left, Variable):
            theta = compose(theta, Substitution({left.name: right}))
        else:
            theta = compose(theta, Substitution({right.name: left}))
    return theta


def test_unify_equals_composing_each_binding():
    # Goal and head share variables, and θ already binds some of them, so
    # later arguments meet bindings made by earlier ones.
    rng = random.Random(11)
    terms = [Variable(name) for name in "XYZAB"] + [Constant("a"), Constant("b")]
    for _ in range(2000):
        theta = EMPTY_SUBSTITUTION
        for _ in range(rng.randint(0, 3)):
            name = rng.choice("XYZAB")
            term = apply_term(theta, rng.choice(terms))
            if name not in theta and term != Variable(name):
                theta = compose(theta, Substitution({name: term}))
        arity = rng.randint(1, 3)
        goal = Atom("p", tuple(rng.choice(terms) for _ in range(arity)))
        head = Atom("p", tuple(rng.choice(terms) for _ in range(arity)))
        expected = _unify_by_composing(goal, head, theta)
        got = _unify(goal, head, theta, EMPTY_STORE, SolverConfig())
        assert (got and got[0]) == expected
        if expected is not None:
            assert got[1] == 1.0


# -- prove_goal --------------------------------------------------------------------


def test_exact_chain_scores_one():
    kb = _kb(
        "violate_care_physical(X,Y) :- harmful(X), animal(Y).",
        "harmful(action).",
        "animal(patient).",
    )
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    assert result is not None
    assert result.proof_score == 1.0
    assert {s.rule_id for s in result.proof.walk()} == {"r0", "r1", "r2"}
    assert not result.budget_exceeded


def test_best_of_two_proofs_wins():
    kb = _kb(
        "violate_care_physical(X,Y) :- low(X). = 0.8",
        "violate_care_physical(X,Y) :- high(X). = 0.9",
        "low(action). = 0.5",
        "high(action). = 0.9",
    )
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    assert result.proof_score == pytest.approx(0.81)
    assert {s.rule_id for s in result.proof.walk()} == {"r1", "r3"}


def test_no_rules_means_no_proof():
    kb = KnowledgeBase((), (GoalSpec(MoralViolation.CARE, atom("violate_care_physical", "action", "patient")),))
    assert prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig()) is None


def test_proof_below_threshold_rejected():
    kb = _kb("violate_care_physical(X,Y) :- weak(X). = 0.3", "weak(action). = 0.3")
    assert prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig()) is None  # 0.09 < 0.13
    found = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig(proof_threshold=0.05))
    assert found is not None


def test_proof_exactly_at_threshold_is_accepted():
    kb = _kb("violate_care_physical(X,Y) :- w(X). = 0.5", "w(action). = 0.26")
    exactly = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig(proof_threshold=0.13))
    assert exactly is not None and exactly.proof_score == 0.13  # 0.5 * 0.26, exact in binary
    above = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig(proof_threshold=0.1300001))
    assert above is None


def test_search_weak_match_exactly_at_unify_threshold(demo_store):
    # The search's candidate filter and weak_unify_atoms share one rule:
    # a predicate pair scoring exactly the threshold unifies, one ulp less does not.
    from softprove.embeddings import weak_unify_score

    kb = _kb("violate_care_physical(X,Y) :- physical_harm(X).", "pushing_force(action).")
    score = weak_unify_score(demo_store, "physical_harm", "pushing_force")
    assert 0.13 <= score < 1.0
    at = prove_goal(kb, kb.goals[0], demo_store, SolverConfig(unify_threshold=score))
    assert at is not None and at.proof_score == score
    above = SolverConfig(unify_threshold=math.nextafter(score, 1.0))
    assert prove_goal(kb, kb.goals[0], demo_store, above) is None


def test_depth_limit_cuts_chains():
    clauses = ["violate_care_physical(X,Y) :- c0(X)."]
    for i in range(6):
        clauses.append(f"c{i}(X) :- c{i + 1}(X).")
    clauses.append("c6(action).")
    kb = _kb(*clauses)
    deep = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig(max_depth=10))
    assert deep is not None
    shallow = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig(max_depth=4))
    assert shallow is None
    assert max(_chain_depths(deep.proof)) <= 10


def test_a_chain_as_deep_as_the_cap_proves_without_recursion_error():
    # 256 steps: the goal's rule, the 254 links and the fact at the end.
    clauses = ["violate_care_physical(X,Y) :- c0(X)."]
    clauses += [f"c{i}(X) :- c{i + 1}(X)." for i in range(MAX_DEPTH - 2)]
    clauses.append(f"c{MAX_DEPTH - 2}(action).")
    kb = _kb(*clauses)
    at_cap = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig(max_depth=MAX_DEPTH))
    assert at_cap is not None
    assert max(_chain_depths(at_cap.proof)) == MAX_DEPTH
    assert prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig(max_depth=MAX_DEPTH - 1)) is None


def test_search_takes_no_stack_per_body_atom_or_level():
    # A 1,200-atom body and a chain as deep as the cap, under a recursion
    # limit a few dozen frames above the caller's depth: the search must not
    # recurse once per body atom or per level.
    body = ["violate_care_physical(X,Y) :- " + ", ".join(f"q{i}(X)" for i in range(1200)) + "."]
    wide = _kb(*body, *(f"q{i}(action)." for i in range(1200)))
    chain = ["violate_care_physical(X,Y) :- c0(X)."]
    chain += [f"c{i}(X) :- c{i + 1}(X)." for i in range(MAX_DEPTH - 2)]
    chain.append(f"c{MAX_DEPTH - 2}(action).")
    deep = _kb(*chain)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        wide_result = prove_goal(wide, wide.goals[0], EMPTY_STORE, SolverConfig())
        deep_result = prove_goal(deep, deep.goals[0], EMPTY_STORE, SolverConfig(max_depth=MAX_DEPTH))
    finally:
        sys.setrecursionlimit(limit)
    assert wide_result is not None and wide_result.proof_score == 1.0
    assert [step.rule_id for step in wide_result.proof.children] == [f"r{i}" for i in range(1, 1201)]
    assert deep_result is not None and deep_result.proof_score == 1.0
    assert max(_chain_depths(deep_result.proof)) == MAX_DEPTH


def _chain_depths(step, depth=1):
    if not step.children:
        yield depth
    for child in step.children:
        yield from _chain_depths(child, depth + 1)


def test_tie_break_prefers_fewer_steps():
    kb = _kb(
        "violate_care_physical(X,Y) :- mid(X).",
        "violate_care_physical(X,Y) :- leaf(X).",
        "mid(X) :- leaf(X).",
        "leaf(action).",
    )
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    assert result.proof_score == 1.0
    assert {s.rule_id for s in result.proof.walk()} == {"r1", "r3"}  # two steps beat three


def test_tie_break_prefers_smaller_rule_ids():
    kb = _kb(
        "violate_care_physical(X,Y) :- pa(X).",
        "violate_care_physical(X,Y) :- pb(X).",
        "pa(action).",
        "pb(action).",
    )
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    assert sorted({s.rule_id for s in result.proof.walk()}) == ["r0", "r2"]


def test_budget_flag_on_truncation():
    # n copies of p(action) give n * n proofs of score 1.0; the budget is
    # MAX_PROOFS_PER_GOAL = 10,000 complete proofs.  They all tie on score,
    # so the bound, which is strict, cuts none of them.
    def search(copies: int):
        kb = _kb("violate_care_physical(X,Y) :- p(X), p(X).", *["p(action)."] * copies)
        return prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())

    capped = search(101)  # 10,201 proofs
    assert capped is not None and capped.proof_score == 1.0
    assert capped.budget_exceeded
    uncapped = search(99)  # 9,801 proofs
    assert uncapped is not None and uncapped.proof_score == 1.0
    assert not uncapped.budget_exceeded
    # The text form says that the search was cut off, on the line under the
    # score header, and only then.
    notice = "(search stopped after 10000 proofs; a better proof may exist)"
    assert render_proof(capped).splitlines()[1] == notice
    assert notice not in render_proof(uncapped)


def test_score_recompute_from_tree(demo_store, frog_case):
    from softprove.principles import load_principles
    from softprove.srl import frame_to_facts
    from softprove.verifier import assemble_kb

    case, rules = frog_case
    doc = load_principles()
    kb = assemble_kb(doc.rules, doc.goal_decls, frame_to_facts(case.frame), rules)
    outcome = prove_all_goals(kb, kb.goals, demo_store, SolverConfig())
    assert outcome is not None
    _, result = outcome
    by_id = {rule.id: rule for rule in kb.rules}
    recomputed = 1.0
    for step in result.proof.walk():
        recomputed *= step.unification_score * by_id[step.rule_id].score
    assert abs(recomputed - result.proof_score) < 1e-12


# -- prove_all_goals ----------------------------------------------------------------


def test_prove_all_goals_picks_best_goal():
    from softprove.ruleparse import parse_kb

    doc = parse_kb(
        "violate_authority(X,Y) :- strong(X). = 0.9\n"
        "violate_liberty(X,Y) :- weakish(X). = 0.5\n"
        "strong(action).\n"
        "weakish(action).\n"
        "goal <- violate_liberty(action,patient) | violate_authority(action,patient)."
    )
    kb = KnowledgeBase(doc.rules, doc.goal_decls)
    outcome = prove_all_goals(kb, kb.goals, EMPTY_STORE, SolverConfig())
    assert outcome is not None
    violation, result = outcome
    assert violation is MoralViolation.AUTHORITY
    assert result.proof_score == pytest.approx(0.9)


def test_prove_all_goals_empty_kb_is_absent():
    goals = (GoalSpec(MoralViolation.CARE, atom("violate_care_physical", "action", "patient")),)
    kb = KnowledgeBase((), goals)
    assert prove_all_goals(kb, kb.goals, EMPTY_STORE, SolverConfig()) is None


def test_prove_all_goals_ties_go_to_first_goal():
    from softprove.ruleparse import parse_kb

    doc = parse_kb(
        "violate_authority(X,Y) :- sym_a(X). = 0.8\n"
        "violate_liberty(X,Y) :- sym_b(X). = 0.8\n"
        "sym_a(action).\n"
        "sym_b(action).\n"
        "goal <- violate_liberty(action,patient) | violate_authority(action,patient)."
    )
    kb = KnowledgeBase(doc.rules, doc.goal_decls)
    violation, _ = prove_all_goals(kb, kb.goals, EMPTY_STORE, SolverConfig())
    assert violation is MoralViolation.LIBERTY


def test_prove_all_goals_flags_the_winner_when_another_search_was_cut_off():
    # The liberty goal's 0.9 proofs tie n * n ways over n copies of
    # p(action), so its search stops at the budget; the authority goal's
    # one 1.0 proof wins, and carries the flag because a better liberty
    # proof might have been missed.
    def outcome(copies: int):
        kb = _kb(
            "violate_liberty(X,Y) :- p(X), p(X). = 0.9",
            "violate_authority(X,Y) :- strong(X). = 1.0",
            "strong(action).",
            *["p(action)."] * copies,
            goal="violate_liberty(action,patient) | violate_authority(action,patient)",
        )
        return prove_all_goals(kb, kb.goals, EMPTY_STORE, SolverConfig())

    violation, result = outcome(101)  # 10,201 liberty proofs
    assert violation is MoralViolation.AUTHORITY and result.proof_score == 1.0
    assert result.budget_exceeded
    violation, result = outcome(99)  # 9,801 liberty proofs
    assert violation is MoralViolation.AUTHORITY and result.proof_score == 1.0
    assert not result.budget_exceeded


def test_prove_all_goals_requires_goals():
    kb = KnowledgeBase((), ())
    with pytest.raises(ConfigError):
        prove_all_goals(kb, kb.goals, EMPTY_STORE, SolverConfig())


# -- candidate scan -------------------------------------------------------------------


def _frog_kb(frog_case) -> KnowledgeBase:
    from softprove.principles import load_principles
    from softprove.srl import frame_to_facts
    from softprove.verifier import assemble_kb

    case, rules = frog_case
    doc = load_principles()
    return assemble_kb(doc.rules, doc.goal_decls, frame_to_facts(case.frame), rules)


def _key_goals(kb: KnowledgeBase) -> list[Atom]:
    """A goal for every goal key of the KB, and for keys that match nothing."""
    keys = {(a.predicate, a.arity) for r in kb.rules for a in (r.head,) + r.body}
    keys |= {(g.goal_atom.predicate, g.goal_atom.arity) for g in kb.goals}
    keys |= {(predicate, 3) for predicate, _ in keys} | {("nomatch", 1), ("nomatch", 2)}
    return [Atom(predicate, tuple(Variable(f"A{i}") for i in range(arity))) for predicate, arity in sorted(keys)]


def _full_scan(kb: KnowledgeBase, goal: Atom, store: EmbeddingStore, config: SolverConfig):
    """The rules whose head passes ``head_score``, in KB order, with their scores."""
    return [(r, score) for r in kb.rules if (score := head_score(goal, r.head, store, config)) is not None]


def _assert_candidates_are_full_scan(kb: KnowledgeBase, store: EmbeddingStore, config: SolverConfig) -> None:
    """Every goal key of the KB, and keys that match nothing, give exactly the
    rules a scan of the whole KB passes, in KB order, with their scores."""
    for goal in _key_goals(kb):
        assert candidate_rules(kb, goal, store, config) == _full_scan(kb, goal, store, config)


def test_candidates_equal_full_scan_on_random_suites():
    # The suites list each head predicate's rules together; a shuffled copy
    # interleaves them, so the candidates of several groups must be merged.
    shuffler = random.Random(7)
    for seed in (1001, 2002, 3003):
        rng = random.Random(seed)
        for _ in range(100):
            kb, _, vectors = random_layered_kb(rng)
            shuffled = KnowledgeBase(tuple(shuffler.sample(kb.rules, len(kb.rules))), kb.goals)
            for store in (_store_from_vectors(vectors), EMPTY_STORE):
                _assert_candidates_are_full_scan(kb, store, SolverConfig())
                _assert_candidates_are_full_scan(shuffled, store, SolverConfig())


def test_candidates_merge_interleaved_groups_and_return_one_group_as_it_stands():
    # The exact group of harm (positions 0 and 3) and the weak group of hurt
    # (1 and 4) interleave in KB order; calm (2) is the only group that
    # unifies with itself, and still and arity 2 meet no head.
    store = _store_from_vectors({"harm": [1.0, 0.0], "hurt": [0.9, 0.1], "calm": [0.0, 1.0], "still": [0.0, -1.0]})
    kb = KnowledgeBase(tuple(
        parse_rule(text, f"r{i}") for i, text in enumerate(["harm(a).", "hurt(b).", "calm(c).", "harm(d).", "hurt(e)."])
    ))
    config = SolverConfig()
    for predicate, ids in (("harm", ["r0", "r1", "r3", "r4"]), ("calm", ["r2"]), ("still", [])):
        goal = atom(predicate, "X")
        found = candidate_rules(kb, goal, store, config)
        assert [rule.id for rule, _ in found] == ids
        assert found == _full_scan(kb, goal, store, config)
    assert candidate_rules(kb, atom("harm", "X", "Y"), store, config) == []


def test_candidate_lists_from_the_table_equal_the_per_pair_reference():
    # The reference scores pair by pair in a store that no scan reads.  The
    # scan reads a cold store, a store warmed by the scans of another KB
    # that shares half of this KB's rules, and a store warmed by this KB
    # under another unify threshold; the lists must not depend on which
    # pairs the table already holds.
    rng = random.Random(4004)
    for _ in range(100):
        kb, _, vectors = random_layered_kb(rng)
        other, _, other_vectors = random_layered_kb(rng)
        shared = rng.sample(kb.rules, (len(kb.rules) + 1) // 2)
        other = KnowledgeBase(tuple(replace(r, id=f"o{r.id}") for r in other.rules) + tuple(shared), other.goals)
        vectors = {**other_vectors, **vectors}
        for threshold, other_threshold in ((0.5, 0.2), (0.2, 0.5)):
            config = SolverConfig(unify_threshold=threshold)
            reference = _store_from_vectors(vectors)
            cold, by_other_kb, by_other_threshold = (_store_from_vectors(vectors) for _ in range(3))
            for warm_kb, store, warm_config in (
                (other, by_other_kb, config),
                (kb, by_other_threshold, SolverConfig(unify_threshold=other_threshold)),
            ):
                for goal in _key_goals(warm_kb):
                    candidate_rules(warm_kb, goal, store, warm_config)
            for store in (cold, by_other_kb, by_other_threshold):
                for goal in _key_goals(kb):
                    assert candidate_rules(kb, goal, store, config) == _full_scan(kb, goal, reference, config)


def test_candidates_equal_full_scan_on_frog_kb_at_the_unify_threshold(demo_store, frog_case):
    from softprove.embeddings import weak_unify_score

    kb = _frog_kb(frog_case)
    score = weak_unify_score(demo_store, "crush", "compression")
    assert 0.5 <= score < 1.0
    goal = atom("crush", "X")
    compression = {r.id for r in kb.rules if r.head.predicate == "compression"}
    assert compression
    reversed_kb = KnowledgeBase(kb.rules[::-1], kb.goals)
    for config, included in (
        (SolverConfig(), True),
        (SolverConfig(unify_threshold=score), True),  # exactly at the threshold
        (SolverConfig(unify_threshold=math.nextafter(score, 1.0)), False),  # one ulp below it
    ):
        _assert_candidates_are_full_scan(kb, demo_store, config)
        _assert_candidates_are_full_scan(reversed_kb, demo_store, config)
        ids = {r.id for r, _ in candidate_rules(kb, goal, demo_store, config)}
        assert compression & ids == (compression if included else set())


def _count_similarity_calls(monkeypatch) -> list[tuple[str, str]]:
    """The pairs ``prover.weak_unify_score`` is called with from now on."""
    from softprove import prover

    original = prover.weak_unify_score
    pairs: list[tuple[str, str]] = []

    def counted(store, a, b):
        pairs.append((a, b))
        return original(store, a, b)

    monkeypatch.setattr(prover, "weak_unify_score", counted)
    return pairs


def test_prove_all_goals_scores_each_predicate_pair_at_most_once(monkeypatch, demo_store, fresh_demo_store, frog_case):
    kb = _frog_kb(frog_case)
    expected = prove_all_goals(kb, kb.goals, demo_store, SolverConfig())
    pairs = _count_similarity_calls(monkeypatch)
    assert prove_all_goals(kb, kb.goals, fresh_demo_store, SolverConfig()) == expected
    assert pairs
    assert [pair for pair in set(pairs) if pairs.count(pair) > 1] == []


def test_a_warm_store_proves_again_without_scoring(monkeypatch, fresh_demo_store, frog_case):
    kb = _frog_kb(frog_case)
    first = prove_all_goals(kb, kb.goals, fresh_demo_store, SolverConfig())
    assert first is not None
    pairs = _count_similarity_calls(monkeypatch)
    assert prove_all_goals(kb, kb.goals, fresh_demo_store, SolverConfig()) == first
    assert pairs == []


# -- facts in a proof ----------------------------------------------------------------


def test_facts_in_proof_excludes_principles_and_srl():
    kb = _kb(
        "violate_care_physical(X,Y) :- harmful(X), animal(Y).",
        "harmful(action).",
        "animal(patient).",
    )
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    assert result.used_fact_ids == facts_in_proof(result, kb) == set()


def test_facts_in_proof_frog_chain(demo_store, frog_case):
    from softprove.principles import load_principles
    from softprove.srl import frame_to_facts
    from softprove.verifier import assemble_kb

    case, rules = frog_case
    doc = load_principles()
    kb = assemble_kb(doc.rules, doc.goal_decls, frame_to_facts(case.frame), rules)
    _, result = prove_all_goals(kb, kb.goals, demo_store, SolverConfig())
    assert result.used_fact_ids == facts_in_proof(result, kb) == {"f1", "f2", "f3"}


def test_facts_in_proof_subset_of_generated_ids():
    rng = random.Random(23)
    for _ in range(50):
        kb, goal, _ = random_layered_kb(rng)
        tagged = KnowledgeBase(
            tuple(
                replace(r, fact_id=f"nl_{r.id}") if rng.random() < 0.5 else r
                for r in kb.rules
            ),
            kb.goals,
        )
        result = prove_goal(tagged, goal, EMPTY_STORE, SolverConfig(proof_threshold=0.01))
        if result is None:
            continue
        all_generated = {r.fact_id for r in tagged.rules if r.fact_id is not None}
        assert result.used_fact_ids == facts_in_proof(result, tagged)
        assert result.used_fact_ids <= all_generated


def test_used_fact_ids_equal_the_proof_walk_on_oracle_suites():
    # The KBs of the oracle suites, with most rules tagged from three fact
    # ids so that several rules of one proof can share a fact.  The tags come
    # from a generator of their own, so each suite builds the KBs it checks.
    tagger = random.Random(31)
    checked = 0
    for seed, weak in ((1001, False), (2002, True), (3003, True)):
        rng = random.Random(seed)
        for _ in range(100):
            kb, goal, vectors = random_layered_kb(rng)
            tagged = KnowledgeBase(
                tuple(replace(r, fact_id=f"f{tagger.randrange(3)}") if tagger.random() < 0.7 else r for r in kb.rules),
                kb.goals,
            )
            store = _store_from_vectors(vectors) if weak else EMPTY_STORE
            result = prove_goal(tagged, goal, store, SolverConfig())
            if result is None:
                continue
            assert result.used_fact_ids == facts_in_proof(result, tagged)
            checked += 1
    assert checked == 47  # goals of the three suites that have a proof


# -- rendering and export ------------------------------------------------------------


def test_render_one_step_proof_is_two_lines():
    kb = _kb("violate_care_physical(action,patient).")
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    lines = render_proof(result).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("1.00000 violate_care_physical")


def test_render_root_line_has_five_decimals(demo_store, frog_case):
    from softprove.principles import load_principles
    from softprove.srl import frame_to_facts
    from softprove.verifier import assemble_kb

    case, rules = frog_case
    doc = load_principles()
    kb = assemble_kb(doc.rules, doc.goal_decls, frame_to_facts(case.frame), rules)
    _, result = prove_all_goals(kb, kb.goals, demo_store, SolverConfig())
    first = render_proof(result).splitlines()[0]
    score_text = first.split()[0]
    assert len(score_text.split(".")[1]) == 5
    assert render_proof(result) == render_proof(result)


def test_render_is_stable_under_unrelated_rules():
    # The proof leaves Z unbound; a same-arity rule whose head cannot unify
    # with the goal is never renamed, so it does not shift fresh variable names.
    kb = _kb("violate_care_physical(X,Y) :- q(X), r(Z).", "q(action).", "r(W).")
    unrelated = Rule(atom("zzz", "X", "Y"), (atom("q", "X"),), 1.0, "unrelated")
    widened = KnowledgeBase((unrelated,) + kb.rules, kb.goals)
    plain = render_proof(prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig()))
    assert "r(V2) <= r2" in plain
    assert render_proof(prove_goal(widened, widened.goals[0], EMPTY_STORE, SolverConfig())) == plain


def test_fresh_names_skip_the_goals_own_variable_names():
    # Frame variables are named V0, V1, ... in the order their frames were
    # reserved, skipping the goal's own names.  With V0 and V2 in the goal,
    # r0's X, Y and Z are V1, V3 and V4; X and Y bind to the goal's variables
    # and Z stays unbound.  V01 is not a name a frame variable takes, so it
    # skips nothing.
    kb = _kb("violate_care_physical(X,Y) :- q(X), r(Z).", "q(action).", "r(W).")

    def rendered(*names: str) -> list[str]:
        goal = GoalSpec(MoralViolation.CARE, atom("violate_care_physical", *names))
        return render_proof(prove_goal(kb, goal, EMPTY_STORE, SolverConfig())).splitlines()[1:]

    assert rendered("V0", "V2") == [
        "  violate_care_physical(action,V2) <= r0  [unify 1.00000]",
        "    q(action) <= r1  [unify 1.00000]",
        "    r(V4) <= r2  [unify 1.00000]",
    ]
    assert rendered("V01", "V1")[0::2] == [
        "  violate_care_physical(action,V1) <= r0  [unify 1.00000]",
        "    r(V3) <= r2  [unify 1.00000]",
    ]


def test_proof_to_dict_shape():
    kb = _kb("violate_care_physical(X,Y) :- h(X).", "h(action).")
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    payload = proof_to_dict(result)
    assert payload["violation"] == "care"
    assert payload["proof_score"] == 1.0
    assert len(payload["steps"]) == 1
    root = payload["steps"][0]
    assert root["goal"] == "violate_care_physical(action,patient)"
    assert root["children"][0]["rule_id"] == "r1"


# -- oracle equivalence and invariants ----------------------------------------------


def _store_from_vectors(vectors) -> EmbeddingStore:
    dim = len(next(iter(vectors.values())))
    return EmbeddingStore(dim, {k: np.asarray(v) for k, v in vectors.items()})


def _assert_oracle_best(result, expected) -> None:
    """The search's whole result is the oracle's best: score to the last bit,
    step count and sorted rule ids."""
    if expected is None:
        assert result is None
        return
    score, steps, rule_ids = expected
    assert result is not None
    assert result.proof_score == score  # bitwise
    assert sum(1 for _ in result.proof.walk()) == steps
    assert tuple(sorted({s.rule_id for s in result.proof.walk()})) == rule_ids


def _assert_weak_suite_matches_oracle(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(100):
        kb, goal, vectors = random_layered_kb(rng)
        result = prove_goal(kb, goal, _store_from_vectors(vectors), SolverConfig())
        # The store keeps float32 vectors; the oracle scores those in float64.
        table = cosine_pair_table({t: np.asarray(v, dtype=np.float32).astype(np.float64) for t, v in vectors.items()})
        _assert_oracle_best(result, oracle_best(kb, goal.goal_atom, table))


def test_oracle_equivalence_exact_matching_suite():
    rng = random.Random(1001)
    for _ in range(100):
        kb, goal, _ = random_layered_kb(rng)
        result = prove_goal(kb, goal, EMPTY_STORE, SolverConfig())
        _assert_oracle_best(result, oracle_best(kb, goal.goal_atom, exact_pair_score))


def test_oracle_equivalence_tie_suite():
    # Every rule scores 1.0, so every proof ties on score and the tie-break
    # (fewer steps, then the smallest sorted rule-id set) picks the best.
    rng = random.Random(1001)
    for _ in range(100):
        kb, goal, _ = random_layered_kb(rng)
        kb = KnowledgeBase(tuple(replace(r, score=1.0) for r in kb.rules), kb.goals)
        result = prove_goal(kb, goal, EMPTY_STORE, SolverConfig())
        _assert_oracle_best(result, oracle_best(kb, goal.goal_atom, exact_pair_score))


def test_oracle_equivalence_weak_matching_suite():
    _assert_weak_suite_matches_oracle(2002)


def test_oracle_equivalence_weak_matching_suite_3003():
    _assert_weak_suite_matches_oracle(3003)


def _assert_cyclic_suite_matches_oracle(
    seed: int, cycle_score, weak: bool = False, tie: bool = False, cycles: int = 2, max_depth: int = 4
) -> None:
    # The oracle unrolls every cycle down to max_depth without a cut, and a
    # two-atom body squares the proof count per level, so the depth is small.
    rng = random.Random(seed)
    config = SolverConfig(max_depth=max_depth)
    for _ in range(100):
        kb, goal, vectors = random_layered_kb(rng)
        kb = with_definitional_cycles(rng, kb, cycle_score, cycles)
        if tie:
            kb = KnowledgeBase(tuple(replace(r, score=1.0) for r in kb.rules), kb.goals)
        if weak:
            store = _store_from_vectors(vectors)
            table = cosine_pair_table({t: np.asarray(v, dtype=np.float32).astype(np.float64) for t, v in vectors.items()})
        else:
            store, table = EMPTY_STORE, exact_pair_score
        result = prove_goal(kb, goal, store, config)
        _assert_oracle_best(result, oracle_best(kb, goal.goal_atom, table, max_depth=max_depth))


def test_oracle_equivalence_with_definitional_cycles_at_one():
    # Cycle rules scored 1.0 cost nothing to unroll: only the ancestor cut
    # and the depth limit stop them.
    _assert_cyclic_suite_matches_oracle(7007, 1.0)
    _assert_cyclic_suite_matches_oracle(7008, 1.0, weak=True)
    _assert_cyclic_suite_matches_oracle(7009, 1.0, cycles=1, max_depth=5)


def test_oracle_equivalence_with_definitional_cycles_below_one():
    _assert_cyclic_suite_matches_oracle(8008, None)
    _assert_cyclic_suite_matches_oracle(8009, None, weak=True)


def test_oracle_equivalence_with_definitional_cycles_tie_suite():
    # Every rule scores 1.0: each proof ties on score, and the shortcut that
    # the ancestor cut relies on wins the tie-break by its step count.
    _assert_cyclic_suite_matches_oracle(9009, 1.0, tie=True)


def test_proof_through_a_variant_of_its_ancestor_is_found():
    # q(W) below q(Z) is a variant, not identical: the only proof resolves it
    # with q(b), which binds Z to a through r(Z,W).  A cut up to renaming
    # would lose it.
    kb = _kb(
        "violate_care_physical(X,Y) :- q(Z), t(Z).",
        "q(Z) :- q(W), r(Z,W).",
        "q(b).",
        "r(a,b).",
        "t(a).",
    )
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    _assert_oracle_best(result, oracle_best(kb, kb.goals[0].goal_atom, exact_pair_score))
    assert result is not None
    assert "q(a) <= r1" in render_proof(result)


def test_definitional_cycles_keep_the_frog_verdict_and_stay_cheap(monkeypatch, demo_store, frog_case):
    # Each goal the search opens scans for candidates once, so the scans
    # count the goals opened: 64 for the frog case and 70 with the cycle
    # rules scored 1.0.  Without the ancestor cut they are 236 and 885.
    from softprove import prover
    from softprove.verifier import verify_case

    calls = 0
    scan = prover.candidate_rules

    def counted(*args):
        nonlocal calls
        calls += 1
        return scan(*args)

    monkeypatch.setattr(prover, "candidate_rules", counted)
    case, _ = frog_case
    kb = _frog_kb(frog_case)
    plain = verify_case(case, kb, demo_store)
    plain_calls, calls = calls, 0
    cycle = ("frog(X) :- animal(X).", "animal(X) :- creature(X).", "creature(X) :- animal(X).")
    cyclic_kb = KnowledgeBase(
        kb.rules + tuple(parse_rule(clause, rule_id=f"cycle{i}") for i, clause in enumerate(cycle)), kb.goals
    )
    cyclic = verify_case(case, cyclic_kb, demo_store)
    assert cyclic.kind is plain.kind
    assert render_proof(cyclic.proof) == render_proof(plain.proof)
    assert calls <= 2 * plain_calls


def test_bound_skips_candidates_below_the_best_score(monkeypatch):
    # The first proof scores 1.0, so the 0.9 rule below it is never tried.
    from softprove import prover

    kb = _kb(
        "violate_care_physical(X,Y) :- h(X).",
        "violate_care_physical(X,Y) :- w(X). = 0.9",
        "h(action).",
        "w(action).",
    )
    tried = []
    unify = prover.weak_unify_atoms

    def counted(goal, head, *args, **kwargs):
        tried.append(head.predicate)
        return unify(goal, head, *args, **kwargs)

    monkeypatch.setattr(prover, "weak_unify_atoms", counted)
    result = prove_goal(kb, kb.goals[0], EMPTY_STORE, SolverConfig())
    assert result.proof_score == 1.0 and {s.rule_id for s in result.proof.walk()} == {"r0", "r2"}
    assert tried == ["violate_care_physical", "h"]


def test_oracle_enumerates_deep_chain_without_recursion():
    # A 100-step chain under a recursion limit a few dozen frames above the
    # caller's depth: the oracle must not recurse once per step.
    chain = ["violate_care_physical(X,Y) :- c0(X)."]
    chain += [f"c{i}(X) :- c{i + 1}(X)." for i in range(98)]
    chain.append("c98(action).")
    kb = _kb(*chain)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        proofs = list(oracle_proofs(kb, kb.goals[0].goal_atom, exact_pair_score, max_depth=100))
    finally:
        sys.setrecursionlimit(limit)
    assert proofs == [(1.0, 100, tuple(sorted(r.id for r in kb.rules)))]


def test_monotonicity_under_rule_addition_100_instances():
    rng = random.Random(4004)
    for _ in range(100):
        kb, goal, vectors = random_layered_kb(rng)
        store = _store_from_vectors(vectors)
        before = prove_goal(kb, goal, store, SolverConfig())
        extra_body = rng.choice(kb.rules).head
        extra = Rule(
            head=Atom(goal.goal_atom.predicate, (Variable("X"), Variable("Y"))),
            body=(Atom(extra_body.predicate, tuple(Variable(f"W{i}") for i in range(extra_body.arity))),),
            score=round(rng.uniform(0.5, 1.0), 6),
            id="extra",
        )
        after = prove_goal(KnowledgeBase(kb.rules + (extra,), kb.goals), goal, store, SolverConfig())
        if before is not None:
            assert after is not None
            assert after.proof_score >= before.proof_score


def test_determinism_bit_identical_results():
    rng = random.Random(5005)
    for _ in range(25):
        kb, goal, vectors = random_layered_kb(rng)
        store_a = _store_from_vectors(vectors)
        store_b = _store_from_vectors(vectors)
        first = prove_goal(kb, goal, store_a, SolverConfig())
        second = prove_goal(kb, goal, store_b, SolverConfig())
        assert first == second


def test_step_scores_stay_in_unit_interval():
    rng = random.Random(6006)
    seen = 0
    for _ in range(60):
        kb, goal, vectors = random_layered_kb(rng)
        store = _store_from_vectors(vectors)
        result = prove_goal(kb, goal, store, SolverConfig(proof_threshold=0.01))
        if result is None:
            continue
        seen += 1
        for step in result.proof.walk():
            assert 0.0 < step.unification_score <= 1.0
        assert 0.0 < result.proof_score <= 1.0
    assert seen > 10


def test_oracle_suite_stays_under_budget():
    # The random suites must never trip the proof budget, otherwise the
    # exhaustive oracle and the truncated search would diverge.
    rng = random.Random(2002)
    for _ in range(100):
        kb, goal, vectors = random_layered_kb(rng)
        table = cosine_pair_table({t: np.asarray(v, dtype=np.float32).astype(np.float64) for t, v in vectors.items()})
        scores = oracle_proof_scores(kb, goal.goal_atom, table)
        assert len(scores) < 10_000


# Builds the Random(2002) suite and prints a digest of its KBs and vectors.
_SUITE_DIGEST = """
import hashlib, random
from genutil import random_layered_kb
rng = random.Random(2002)
digest = hashlib.sha256()
for _ in range(100):
    kb, goal, vectors = random_layered_kb(rng)
    digest.update(repr((kb.rules, goal)).encode())
    for name, vector in vectors.items():
        digest.update(name.encode() + vector.tobytes())
print(digest.hexdigest())
"""


def test_random_suite_is_independent_of_hash_seed():
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(softprove.__file__).parents[1])])
    digests = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _SUITE_DIGEST], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


# Instance 4 of Random(2002) as the suite built it when predicates took their
# vectors in set order under PYTHONHASHSEED=0: the exhaustive oracle enumerates
# 261,121 complete proofs, only 8 of which clear the 0.13 threshold, and none
# of those among the first 10,000.  Vectors are the float32 values the store
# keeps.
_BUSHY_RULES = (
    ("root", "violate_authority(X,Z) :- q86x0x0(X), q86x0x0(Z). = 0.894631"),
    ("r0", "q86x0x0(X) :- q86x1x0(X). = 0.989097"),
    ("r1", "q86x0x0(X) :- q86x1x0(X). = 0.682446"),
    ("r2", "q86x0x1(X,Z) :- q86x1x0(X), q86x1x0(Z). = 0.635147"),
    ("r3", "q86x0x1(X,Z) :- q86x1x0(X), q86x1x0(Z). = 0.854423"),
    ("r4", "q86x1x0(a). = 0.590636"),
)
_BUSHY_VECTORS = {
    "q86x0x1": [
        0.021055610850453377, -0.2324972003698349, -0.1567145586013794, 0.22080080211162567,
        -0.20172087848186493, -0.1359177976846695, 0.31721600890159607, 0.019335221499204636,
        -0.1368289738893509, 0.46240198612213135, -0.30304789543151855, -0.14615829288959503,
        0.2759721875190735, 0.48919832706451416, 0.11428944766521454, -0.19429020583629608,
    ],
    "q86x0x0": [
        0.0025702824350446463, -0.4195407032966614, -0.23532982170581818, 0.24846339225769043,
        0.19448353350162506, 0.3484393358230591, -0.33737415075302124, 0.2067044973373413,
        0.14188528060913086, 0.2870595157146454, 0.3279253840446472, 0.09211269021034241,
        0.10540391504764557, -0.3931935131549835, 0.08054270595312119, -0.018173424527049065,
    ],
    "q86x1x0": [
        -0.10626830905675888, -0.40642282366752625, 0.3822733759880066, -0.11277906596660614,
        0.24907830357551575, 0.23990285396575928, -0.32110825181007385, 0.017678052186965942,
        0.21087557077407837, 0.06538315117359161, 0.39467352628707886, 0.04827430844306946,
        0.36075642704963684, 0.08605406433343887, 0.17466580867767334, -0.25837838649749756,
    ],
    "violate_authority": [
        -0.13925804197788239, -0.10860922187566757, -0.10015583038330078, 0.3014240562915802,
        -0.15605036914348602, -0.24749480187892914, 0.016132891178131104, -0.01106896810233593,
        0.05152451992034912, 0.5405866503715515, -0.24166861176490784, 0.056397419422864914,
        0.2080940455198288, 0.40934839844703674, 0.24990002810955048, -0.39005517959594727,
    ],
}
# oracle_best(kb, goal, cosine_pair_table(_BUSHY_VECTORS)) with the default
# thresholds and depth, run once (about half a minute): too slow for tier-1.
_BUSHY_ORACLE_BEST = (0.3053244198706368, 5, ("r0", "r4", "root"))


def test_bushy_instance_stays_under_budget_when_pruned():
    kb = KnowledgeBase(
        tuple(parse_rule(clause, rule_id=rule_id) for rule_id, clause in _BUSHY_RULES),
        (GoalSpec(MoralViolation.AUTHORITY, atom("violate_authority", "a", "a")),),
    )
    result = prove_goal(kb, kb.goals[0], _store_from_vectors(_BUSHY_VECTORS), SolverConfig())
    assert result is not None
    assert not result.budget_exceeded
    _assert_oracle_best(result, _BUSHY_ORACLE_BEST)

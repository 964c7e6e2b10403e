"""Shared test machinery: an independent exhaustive proof enumerator and
seeded random generators for knowledge bases and rule documents.

The oracle re-implements proof enumeration from scratch (plain dicts, an
explicit stack, no pruning, no candidate ranking) so the solver's best proof
can be checked against a full enumeration.  Scores follow the shared
contract: running product, depth-first pre-order, ``running * (unify *
rule_score)`` at every step.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, Optional

import numpy as np

from softprove.logic import (
    Atom,
    Constant,
    GoalSpec,
    KnowledgeBase,
    MoralViolation,
    Rule,
    Variable,
)
from softprove.ruleparse import RuleDocument

PairScore = Callable[[str, str], float]


def exact_pair_score(a: str, b: str) -> float:
    return 1.0 if a == b else 0.0


def cosine_pair_table(vectors: dict[str, np.ndarray]) -> PairScore:
    """Independent token-mean cosine scoring over raw vectors."""

    def embed(symbol: str) -> Optional[np.ndarray]:
        hits = [vectors[t] for t in symbol.split("_") if t in vectors]
        return None if not hits else np.mean(np.stack(hits), axis=0).astype(np.float64)

    def score(a: str, b: str) -> float:
        if a == b:
            return 1.0
        key = (a, b) if a <= b else (b, a)
        va, vb = embed(key[0]), embed(key[1])
        if va is None or vb is None:
            return 0.0
        denom = float(np.linalg.norm(va)) * float(np.linalg.norm(vb))
        if denom == 0.0:
            return 0.0
        return max(0.0, min(1.0, float(np.dot(va, vb)) / denom))

    return score


Proof = tuple[float, int, tuple[str, ...]]  # (score, steps, sorted rule ids)


def oracle_proofs(
    kb: KnowledgeBase,
    goal_atom: Atom,
    pair_score: PairScore,
    unify_threshold: float = 0.5,
    max_depth: int = 10,
) -> Iterator[Proof]:
    """Every complete proof, enumerated without pruning and without recursion.

    Each stack entry is a resolvent: the atoms still to prove, each with its
    depth, under the bindings ``theta``.  Resolving the leftmost atom and
    putting the rule's body in front of the rest applies the steps in
    depth-first pre-order, the order in which the score multiplies.
    """
    fresh = itertools.count()

    def rename(rule: Rule) -> tuple[Atom, list[Atom]]:
        mapping: dict[str, Variable] = {}

        def term(t):
            if isinstance(t, Variable):
                if t.name not in mapping:
                    mapping[t.name] = Variable(f"OR{next(fresh)}")
                return mapping[t.name]
            return t

        head = Atom(rule.head.predicate, tuple(term(t) for t in rule.head.args))
        body = [Atom(a.predicate, tuple(term(t) for t in a.args)) for a in rule.body]
        return head, body

    def walk(theta: dict, term):
        while isinstance(term, Variable) and term.name in theta:
            term = theta[term.name]
        return term

    def unify(goal: Atom, head: Atom, theta: dict) -> Optional[tuple[dict, float]]:
        if goal.arity != head.arity:
            return None
        u = 1.0 if goal.predicate == head.predicate else pair_score(goal.predicate, head.predicate)
        if goal.predicate != head.predicate and u < unify_threshold:
            return None
        theta = dict(theta)
        for left_raw, right_raw in zip(goal.args, head.args):
            left, right = walk(theta, left_raw), walk(theta, right_raw)
            if isinstance(left, Constant) and isinstance(right, Constant):
                if left.symbol != right.symbol:
                    return None
            elif isinstance(left, Variable):
                if not (isinstance(right, Variable) and right.name == left.name):
                    theta[left.name] = right
            else:
                theta[right.name] = left
        return theta, u

    stack = [(((goal_atom, 1),), {}, 1.0, 0, frozenset())]
    while stack:
        goals, theta, running, steps, ids = stack.pop()
        if not goals:
            yield running, steps, tuple(sorted(ids))
            continue
        (atom, depth), rest = goals[0], goals[1:]
        if depth > max_depth:
            continue
        children = []
        for rule in kb.rules:
            if rule.head.arity != atom.arity:
                continue
            head, body = rename(rule)
            unified = unify(atom, head, theta)
            if unified is None:
                continue
            theta1, u = unified
            factor = u * rule.score
            resolvent = tuple((b, depth + 1) for b in body) + rest
            children.append((resolvent, theta1, running * factor, steps + 1, ids | {rule.id}))
        stack.extend(reversed(children))  # the first rule's proofs come first


def oracle_proof_scores(
    kb: KnowledgeBase,
    goal_atom: Atom,
    pair_score: PairScore,
    unify_threshold: float = 0.5,
    max_depth: int = 10,
) -> list[float]:
    """Scores of every complete proof, enumerated without pruning."""
    return [score for score, _, _ in oracle_proofs(kb, goal_atom, pair_score, unify_threshold, max_depth)]


def oracle_best(
    kb: KnowledgeBase,
    goal_atom: Atom,
    pair_score: PairScore,
    unify_threshold: float = 0.5,
    proof_threshold: float = 0.13,
    max_depth: int = 10,
) -> Optional[Proof]:
    """The contract's best proof among those that clear the threshold: the
    highest score, then the fewest steps, then the smallest sorted rule-id set."""
    accepted = [
        proof
        for proof in oracle_proofs(kb, goal_atom, pair_score, unify_threshold, max_depth)
        if proof[0] >= proof_threshold
    ]
    return min(accepted, key=lambda proof: (-proof[0], proof[1], proof[2]), default=None)


# -- random knowledge bases -----------------------------------------------------

_FOUNDATION_GOALS = {
    "violate_care_physical": MoralViolation.CARE,
    "violate_fairness": MoralViolation.FAIRNESS,
    "violate_authority": MoralViolation.AUTHORITY,
    "violate_liberty": MoralViolation.LIBERTY,
}


def random_layered_kb(
    rng: random.Random, max_rules: int = 8, dim: int = 16
) -> tuple[KnowledgeBase, GoalSpec, dict[str, np.ndarray]]:
    """A small layered KB plus per-predicate random vectors.

    Bodies only reference the next layer down, so exact-match recursion is
    impossible; weak unification may still connect arbitrary layers, which the
    depth limit bounds.
    """
    n_layers = rng.randint(2, 3)
    layers: list[list[tuple[str, int]]] = []
    serial = rng.randint(0, 999)
    for level in range(n_layers):
        preds = []
        for i in range(rng.randint(1, 2)):
            preds.append((f"q{serial}x{level}x{i}", rng.choice((1, 2))))
        layers.append(preds)

    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    consts = [Constant("a"), Constant("b")]
    rules: list[Rule] = []

    def score() -> float:
        return round(rng.uniform(0.5, 1.0), 6)

    def head_atom(pred: str, arity: int) -> Atom:
        return Atom(pred, (x,) if arity == 1 else (x, z))

    def body_atoms(arity: int, below: list[tuple[str, int]]) -> tuple[Atom, ...]:
        p1, a1 = rng.choice(below)
        if arity == 1:
            return (Atom(p1, (x,) if a1 == 1 else (x, y)),)
        p2, a2 = rng.choice(below)
        first = Atom(p1, (x,) if a1 == 1 else (x, y))
        second = Atom(p2, (z,) if a2 == 1 else (y if a1 == 2 else x, z))
        return (first, second)

    count = 0
    for level in range(n_layers - 1):
        for pred, arity in layers[level]:
            for _ in range(rng.randint(1, 2)):
                if count >= max_rules - len(layers[-1]):
                    break
                rules.append(
                    Rule(
                        head=head_atom(pred, arity),
                        body=body_atoms(arity, layers[level + 1]),
                        score=score(),
                        id=f"r{count}",
                    )
                )
                count += 1
    for pred, arity in layers[-1]:
        args = tuple(rng.choice(consts) for _ in range(arity))
        rules.append(Rule(head=Atom(pred, args), body=(), score=score(), id=f"r{count}"))
        count += 1

    goal_pred, violation = rng.choice(sorted(_FOUNDATION_GOALS.items()))
    top_pred, top_arity = layers[0][0]
    rules.insert(
        0,
        Rule(
            head=Atom(goal_pred, (x, z)),
            body=body_atoms(2, layers[0]),
            score=score(),
            id="root",
        ),
    )
    goal = GoalSpec(violation, Atom(goal_pred, (Constant("a"), rng.choice(consts))))

    vec_rng = np.random.default_rng(rng.randint(0, 2**31))
    vectors = {}
    # Sorted, so that which predicate gets which vector does not depend on
    # PYTHONHASHSEED.
    for pred in sorted({r.head.predicate for r in rules} | {a.predicate for r in rules for a in r.body}):
        v = vec_rng.normal(size=dim)
        vectors[pred] = v / np.linalg.norm(v)
    return KnowledgeBase(tuple(rules), (goal,)), goal, vectors


def with_definitional_cycles(
    rng: random.Random, kb: KnowledgeBase, cycle_score: Optional[float] = None, cycles: int = 2
) -> KnowledgeBase:
    """``kb`` plus ``cycles`` definitional 2-cycles ``p :- q`` and ``q :- p``,
    each between two of its predicates of one arity (the same predicate twice
    gives a self-loop), as paraphrased explanations produce them.

    The arguments are the same variables on both sides, so the goal two steps
    down is identical to the one above it.  Each rule scores ``cycle_score``,
    or a random score in [0.5, 1.0) if it is None; the pairs go in at random
    positions, with ids ``c0``, ``c1``, ...
    """
    predicates = sorted({(a.predicate, a.arity) for r in kb.rules for a in (r.head,) + r.body})
    rules = list(kb.rules)
    variables = (Variable("X"), Variable("Z"))
    for n in range(cycles):
        p, arity = rng.choice(predicates)
        q = rng.choice([name for name, other in predicates if other == arity])
        args = variables[:arity]
        for i, (head, body) in enumerate(((p, q), (q, p))):
            score = cycle_score if cycle_score is not None else round(rng.uniform(0.5, 0.999999), 6)
            rule = Rule(Atom(head, args), (Atom(body, args),), score, f"c{2 * n + i}")
            rules.insert(rng.randint(0, len(rules)), rule)
    return KnowledgeBase(tuple(rules), kb.goals)


# -- random rule documents ------------------------------------------------------

_GOAL_PREDICATES = sorted(_FOUNDATION_GOALS)


def random_document(rng: random.Random, max_rules: int = 6) -> RuleDocument:
    """A structurally valid document with parser-compatible rule ids."""

    def symbol() -> str:
        return "".join(rng.choice("abcdefgh_") for _ in range(rng.randint(1, 6))).strip("_") or "p"

    def pred() -> str:
        return ("p" + symbol())[:12]

    def term():
        if rng.random() < 0.5:
            return Variable(rng.choice("XYZW"))
        return Constant(("c" + symbol())[:10])

    def atom() -> Atom:
        return Atom(pred(), tuple(term() for _ in range(rng.randint(1, 3))))

    def parseable_score() -> float:
        digits = rng.randint(1, 6)
        value = round(rng.uniform(10**-digits, 1.0), digits)
        return min(1.0, max(10**-6, value))

    rules = tuple(
        Rule(
            head=atom(),
            body=tuple(atom() for _ in range(rng.randint(0, 3))),
            score=parseable_score(),
            id=f"r{i}",
        )
        for i in range(rng.randint(0, max_rules))
    )
    goal_decls = tuple(
        GoalSpec(
            _FOUNDATION_GOALS[p],
            Atom(p, (Constant("action"), Constant("patient"))),
        )
        for p in rng.sample(_GOAL_PREDICATES, rng.randint(0, 2))
    )
    return RuleDocument(rules=rules, goal_decls=goal_decls)

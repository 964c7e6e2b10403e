"""Depth-limited backward chaining with weak unification and product scoring.

A proof scores the running product, in depth-first pre-order, of
``unification_score * rule_score`` over its steps.  Because every factor is
at most 1.0, the search cuts every branch whose running product falls below
the proof threshold, so every complete proof it yields clears the threshold.
Predicates unify by embedding similarity; constants name SRL role slots
(``action``, ``patient``, ``agent``) and match by equality only.

The enumeration is exhaustive up to ``max_depth`` and fully deterministic.
A ``CandidateIndex`` maps each goal ``(predicate, arity)`` to the rules whose
head can unify with it (same arity, predicate at or above the unify
threshold), in knowledge-base order; it scores each head predicate once per
goal key, not each rule once per subgoal.  Only those candidates are renamed
apart and tried, in that order.  The best proof has the smallest key
``(-score, steps, sorted rule ids)``: the highest score, then fewer steps,
then the lexicographically smallest sorted rule-id set; the first found wins
an exact tie.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from .embeddings import EmbeddingStore, weak_unify_score
from .logic import (
    Atom,
    Constant,
    EMPTY_SUBSTITUTION,
    GoalSpec,
    KnowledgeBase,
    MoralViolation,
    OriginKind,
    Rule,
    Substitution,
    Term,
    Variable,
    apply_substitution,
    apply_term,
    compose,
)


class ConfigError(ValueError):
    pass


# Complete proofs one goal's search may enumerate before it stops and flags
# its result ``budget_exceeded``.
MAX_PROOFS_PER_GOAL = 10_000


@dataclass(frozen=True)
class SolverConfig:
    """The solver's three settings; defaults follow the tuned configuration.

    A predicate pair unifies at or above ``unify_threshold``; a proof counts
    at or above ``proof_threshold``; no proof goes deeper than ``max_depth``.
    """

    unify_threshold: float = 0.5
    proof_threshold: float = 0.13
    max_depth: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.unify_threshold <= 1.0):
            raise ConfigError(f"unify_threshold must be in (0, 1]: {self.unify_threshold}")
        if not (0.0 < self.proof_threshold <= 1.0):
            raise ConfigError(f"proof_threshold must be in (0, 1]: {self.proof_threshold}")
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1: {self.max_depth}")


@dataclass(frozen=True)
class ProofStep:
    """One rule application: the resolved goal, the rule used, its unify score."""

    goal_atom: Atom
    rule_id: str
    unification_score: float
    children: tuple["ProofStep", ...] = ()

    def walk(self) -> Iterator["ProofStep"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class ProofResult:
    violation: MoralViolation
    proof: ProofStep
    proof_score: float
    used_rule_ids: frozenset[str]
    budget_exceeded: bool = False


def _head_score(a: Atom, b: Atom, store: EmbeddingStore, config: SolverConfig) -> Optional[float]:
    """Predicate score of goal ``a`` against head ``b``, or None if they cannot unify.

    Arities must be equal; predicates match exactly (score 1.0) or by
    embedding similarity at or above the unify threshold.
    """
    if a.arity != b.arity:
        return None
    if a.predicate == b.predicate:
        return 1.0
    score = weak_unify_score(store, a.predicate, b.predicate)
    return score if score >= config.unify_threshold else None


def weak_unify_atoms(
    a: Atom,
    b: Atom,
    theta: Substitution,
    store: EmbeddingStore,
    config: SolverConfig,
    score: Optional[float] = None,
) -> Optional[tuple[Substitution, float]]:
    """Unify goal atom ``a`` with rule head ``b`` under ``theta``.

    Heads pass by ``_head_score``; a caller that has already passed them
    there gives its ``score`` and they are not scored again.  Arguments match
    structurally, and constants by equality only, so the returned score is
    the predicate score.
    """
    if score is None:
        score = _head_score(a, b, store, config)
        if score is None:
            return None
    for raw_left, raw_right in zip(a.args, b.args):
        left = apply_term(theta, raw_left)
        right = apply_term(theta, raw_right)
        if isinstance(left, Constant) and isinstance(right, Constant):
            if left.symbol != right.symbol:
                return None
        elif isinstance(left, Variable) and isinstance(right, Variable):
            if left.name == right.name:
                continue
            # Bind the rule-side variable so goal naming survives in output.
            theta = compose(theta, Substitution({right.name: left}))
        elif isinstance(left, Variable):
            theta = compose(theta, Substitution({left.name: right}))
        else:
            theta = compose(theta, Substitution({right.name: left}))
    return theta, score


class CandidateIndex:
    """Rules whose head can unify with a goal, per goal ``(predicate, arity)``.

    Built for one knowledge base, store and configuration.  The first lookup
    of a goal key calls ``_head_score`` once per head predicate of that arity
    (``KnowledgeBase.head_groups``) and keeps the rules of the groups that
    pass, each with its predicate score, in knowledge-base order; later
    lookups of the key return the same tuple.
    """

    def __init__(self, kb: KnowledgeBase, store: EmbeddingStore, config: SolverConfig) -> None:
        self.kb = kb
        self.store = store
        self.config = config
        self._memo: dict[tuple[str, int], tuple[tuple[Rule, float], ...]] = {}

    def candidates(self, goal: Atom) -> tuple[tuple[Rule, float], ...]:
        key = (goal.predicate, goal.arity)
        found = self._memo.get(key)
        if found is None:
            rules = self.kb.rules
            scored: list[tuple[int, float]] = []
            for positions in self.kb.head_groups(goal.arity).values():
                score = _head_score(goal, rules[positions[0]].head, self.store, self.config)
                if score is not None:
                    scored.extend((position, score) for position in positions)
            scored.sort()  # positions are distinct: back into knowledge-base order
            found = tuple((rules[position], score) for position, score in scored)
            self._memo[key] = found
        return found


class _Search:
    def __init__(self, index: CandidateIndex) -> None:
        self.index = index
        self.store = index.store
        self.config = index.config
        self._fresh = 0
        self._reserved = set()

    def _fresh_variable(self) -> Variable:
        while True:
            name = f"V{self._fresh}"
            self._fresh += 1
            if name not in self._reserved:
                return Variable(name)

    def _rename(self, rule: Rule) -> tuple[Atom, tuple[Atom, ...]]:
        mapping: dict[str, Variable] = {}

        def fresh(term: Term) -> Term:
            if isinstance(term, Variable):
                if term.name not in mapping:
                    mapping[term.name] = self._fresh_variable()
                return mapping[term.name]
            return term

        head = Atom(rule.head.predicate, tuple(fresh(t) for t in rule.head.args))
        body = tuple(Atom(a.predicate, tuple(fresh(t) for t in a.args)) for a in rule.body)
        return head, body

    def solve(
        self, goal_atom: Atom, theta: Substitution, depth: int, running: float
    ) -> Iterator[tuple[Substitution, ProofStep, float]]:
        """Yield (θ, proof tree, running score); tree goals are not yet under θ."""
        if depth > self.config.max_depth:
            return
        for rule, score in self.index.candidates(goal_atom):
            head, body = self._rename(rule)
            unified = weak_unify_atoms(goal_atom, head, theta, self.store, self.config, score=score)
            if unified is None:
                continue
            theta1, unify = unified
            factor = unify * rule.score
            running1 = running * factor
            if running1 < self.config.proof_threshold:
                continue
            for theta2, children, running2 in self._solve_body(body, theta1, depth, running1):
                yield theta2, ProofStep(goal_atom, rule.id, unify, children), running2

    def _solve_body(
        self, atoms: tuple[Atom, ...], theta: Substitution, depth: int, running: float
    ) -> Iterator[tuple[Substitution, tuple[ProofStep, ...], float]]:
        if not atoms:
            yield theta, (), running
            return
        first, rest = atoms[0], atoms[1:]
        for theta1, node, running1 in self.solve(first, theta, depth + 1, running):
            for theta2, tail, running2 in self._solve_body(rest, theta1, depth, running1):
                yield theta2, (node,) + tail, running2

    def run(self, spec: GoalSpec) -> Optional[ProofResult]:
        self._reserved = {v.name for v in spec.goal_atom.variables()}
        best = None  # (ranking key, tree, θ); the smallest key wins, the first on a tie
        complete = 0
        truncated = False
        for theta, node, score in self.solve(spec.goal_atom, EMPTY_SUBSTITUTION, 1, 1.0):
            complete += 1
            if complete > MAX_PROOFS_PER_GOAL:
                truncated = True
                break
            steps = list(node.walk())
            key = (-score, len(steps), tuple(sorted({step.rule_id for step in steps})))
            if best is None or key < best[0]:
                best = (key, node, theta)
        if best is None:
            return None
        (neg_score, _, rule_ids), node, theta = best
        return ProofResult(
            violation=spec.violation,
            proof=self._materialize(node, theta),
            proof_score=-neg_score,
            used_rule_ids=frozenset(rule_ids),
            budget_exceeded=truncated,
        )

    def _materialize(self, node: ProofStep, theta: Substitution) -> ProofStep:
        return ProofStep(
            goal_atom=apply_substitution(node.goal_atom, theta),
            rule_id=node.rule_id,
            unification_score=node.unification_score,
            children=tuple(self._materialize(child, theta) for child in node.children),
        )


def prove_goal(
    kb: KnowledgeBase,
    goal: GoalSpec,
    store: EmbeddingStore,
    config: SolverConfig = SolverConfig(),
    index: Optional[CandidateIndex] = None,
) -> Optional[ProofResult]:
    """Best-scoring complete proof of one goal, or None if nothing clears the bar.

    ``index`` lets several goals share candidate lookups; it must have been
    built for this ``kb``, ``store`` and ``config``.  Without it the search
    builds its own.
    """
    if index is None:
        index = CandidateIndex(kb, store, config)
    elif index.kb is not kb or index.store is not store or index.config != config:
        raise ConfigError("candidate index was built for another knowledge base, store or config")
    return _Search(index).run(goal)


def prove_all_goals(
    kb: KnowledgeBase,
    goals: Sequence[GoalSpec],
    store: EmbeddingStore,
    config: SolverConfig = SolverConfig(),
) -> Optional[tuple[MoralViolation, ProofResult]]:
    """Try each goal in order; the globally best proof names the hypothesis.

    The goals share one ``CandidateIndex``, since their searches meet the
    same subgoals: each head predicate is scored at most once per goal key
    over all of them, and candidates still come in knowledge-base order, so
    the proofs are those each goal's search finds on its own.  Ties across
    goals go to the earlier goal in ``goals``.  If any per-goal search hit
    the proof budget, the winning result is flagged as possibly non-optimal.
    """
    if not goals:
        raise ConfigError("prove_all_goals needs at least one goal")
    index = CandidateIndex(kb, store, config)
    best: Optional[tuple[MoralViolation, ProofResult]] = None
    any_truncated = False
    for spec in goals:
        result = prove_goal(kb, spec, store, config, index)
        if result is None:
            continue
        any_truncated = any_truncated or result.budget_exceeded
        if best is None or result.proof_score > best[1].proof_score:
            best = (spec.violation, result)
    if best is not None and any_truncated and not best[1].budget_exceeded:
        best = (best[0], replace(best[1], budget_exceeded=True))
    return best


def facts_in_proof(result: ProofResult, kb: KnowledgeBase) -> set[str]:
    """Ids of the explanation facts whose formalized rules appear in the proof."""
    ids: set[str] = set()
    for step in result.proof.walk():
        rule = kb.rule_by_id(step.rule_id)
        if rule.origin.kind is OriginKind.GENERATED_FACT:
            ids.add(rule.origin.nl_fact_id)  # type: ignore[arg-type]
    return ids


def render_proof(result: ProofResult) -> str:
    """Indented text tree: score header, one rule application per line."""
    lines = [f"{result.proof_score:.5f} {result.proof.goal_atom.predicate}"]

    def walk(step: ProofStep, depth: int) -> None:
        indent = "  " * depth
        lines.append(f"{indent}{step.goal_atom} <= {step.rule_id}  [unify {step.unification_score:.5f}]")
        for child in step.children:
            walk(child, depth + 1)

    walk(result.proof, 1)
    return "\n".join(lines)


def proof_to_dict(result: ProofResult) -> dict:
    """JSON-ready form of a proof result."""

    def step_dict(step: ProofStep) -> dict:
        return {
            "goal": str(step.goal_atom),
            "rule_id": step.rule_id,
            "unification_score": step.unification_score,
            "children": [step_dict(c) for c in step.children],
        }

    return {
        "violation": result.violation.value,
        "proof_score": result.proof_score,
        "budget_exceeded": result.budget_exceeded,
        "steps": [step_dict(result.proof)],
    }

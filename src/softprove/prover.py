"""Depth-limited backward chaining with weak unification and product scoring.

A proof scores the running product, in depth-first pre-order, of
``unification_score * rule_score`` over its steps.  Predicates unify by
embedding similarity; constants name SRL role slots (``action``, ``patient``,
``agent``) and match by equality only.  The best proof has the smallest key
``(-score, steps, sorted rule ids)``: the highest score, then fewer steps,
then the lexicographically smallest sorted rule-id set; the first found wins
an exact tie.

The search is depth-first and fully deterministic.  It returns the best
proof among all proofs up to ``max_depth``, but does not enumerate them all:
two cuts drop only proofs whose key is strictly worse than that of a proof
the search still reaches, so neither can change the best proof.

- *Bound.*  Every factor is at most 1.0, so a running product never rises.
  A candidate rule is skipped when the running product through it falls
  below the proof threshold, or below the best score found so far for the
  goal.  Every proof yielded therefore clears the threshold.  The
  comparison is strict, so a proof that ties the best score still reaches
  the step and rule-id tie-break.
- *Ancestor.*  A subgoal whose atom under the current θ is identical to that
  of one of its ancestors on the path is cut.  A proof through it holds a
  proof of the ancestor's atom inside a proof of the same atom; putting the
  inner proof in place of the outer one drops steps whose factors are at
  most 1.0, so the shortcut scores at least as high with fewer steps.  The
  best proof therefore never repeats an ancestor, and no proof with its key
  does either.  The check is identity, not identity up to renaming: a
  subgoal that is only a variant of its ancestor may be proved with
  bindings the ancestor cannot take, so its proof may be the only one.  This
  cut stops definitional cycles (``p :- q`` beside ``q :- p``) from being
  unrolled down to ``max_depth``.

A ``CandidateIndex`` maps each goal ``(predicate, arity)`` to the rules whose
head can unify with it (same arity, predicate at or above the unify
threshold), in knowledge-base order; it scores each head predicate once per
goal key, not each rule once per subgoal.  Only those candidates are tried,
in that order, and only those that pass the bound are renamed apart.
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
    Rule,
    Substitution,
    Term,
    Variable,
    apply_substitution,
    apply_term,
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

    The new bindings are collected apart and merged into one new
    substitution at the end; it equals composing ``theta`` with each binding
    in turn.
    """
    if score is None:
        score = _head_score(a, b, store, config)
        if score is None:
            return None
    new: dict[str, Term] = {}  # this unification's bindings, each kept fully applied
    for raw_left, raw_right in zip(a.args, b.args):
        left = apply_term(theta, raw_left)
        right = apply_term(theta, raw_right)
        if new:
            if isinstance(left, Variable):
                left = new.get(left.name, left)
            if isinstance(right, Variable):
                right = new.get(right.name, right)
        if isinstance(left, Constant) and isinstance(right, Constant):
            if left.symbol != right.symbol:
                return None
            continue
        if isinstance(left, Variable) and isinstance(right, Variable):
            if left.name == right.name:
                continue
            # Bind the rule-side variable so goal naming survives in output.
            name, term = right.name, left
        elif isinstance(left, Variable):
            name, term = left.name, right
        else:
            name, term = right.name, left
        for bound, value in new.items():
            if isinstance(value, Variable) and value.name == name:
                new[bound] = term
        new[name] = term
    if not new:
        return theta, score
    merged = {
        name: new.get(term.name, term) if isinstance(term, Variable) else term for name, term in theta.items()
    }
    merged.update(new)
    return Substitution(merged), score


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


# The goals above a subgoal on the current path, nearest first, as linked
# ``(atom, rest)`` pairs ending in None; the atoms are not yet under θ.
_Ancestors = Optional[tuple[Atom, "_Ancestors"]]


def _repeats_ancestor(goal: Atom, theta: Substitution, ancestors: _Ancestors) -> bool:
    """Whether ``goal`` under ``theta`` is identical to an ancestor under ``theta``.

    Only ancestors with the goal's predicate and arity have θ applied.
    """
    while ancestors is not None:
        above, ancestors = ancestors
        if above.predicate == goal.predicate and above.arity == goal.arity:
            if all(apply_term(theta, a) == apply_term(theta, b) for a, b in zip(above.args, goal.args)):
                return True
    return False


class _Search:
    def __init__(self, index: CandidateIndex) -> None:
        self.index = index
        self.store = index.store
        self.config = index.config
        self._fresh = 0
        self._reserved = set()
        # A candidate whose running product falls below this is skipped: the
        # proof threshold, raised by ``run`` to the best score found so far.
        self._bound = self.config.proof_threshold

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
        self, goal_atom: Atom, theta: Substitution, depth: int, running: float, ancestors: _Ancestors
    ) -> Iterator[tuple[Substitution, ProofStep, float]]:
        """Yield (θ, proof tree, running score); tree goals are not yet under θ."""
        if depth > self.config.max_depth or _repeats_ancestor(goal_atom, theta, ancestors):
            return
        lineage = (goal_atom, ancestors)
        for rule, score in self.index.candidates(goal_atom):
            running1 = running * (score * rule.score)
            if running1 < self._bound:
                continue
            head, body = self._rename(rule)
            unified = weak_unify_atoms(goal_atom, head, theta, self.store, self.config, score=score)
            if unified is None:
                continue
            theta1, unify = unified
            for theta2, children, running2 in self._solve_body(body, theta1, depth, running1, lineage):
                yield theta2, ProofStep(goal_atom, rule.id, unify, children), running2

    def _solve_body(
        self, atoms: tuple[Atom, ...], theta: Substitution, depth: int, running: float, ancestors: _Ancestors
    ) -> Iterator[tuple[Substitution, tuple[ProofStep, ...], float]]:
        if not atoms:
            yield theta, (), running
            return
        first, rest = atoms[0], atoms[1:]
        for theta1, node, running1 in self.solve(first, theta, depth + 1, running, ancestors):
            for theta2, tail, running2 in self._solve_body(rest, theta1, depth, running1, ancestors):
                yield theta2, (node,) + tail, running2

    def run(self, spec: GoalSpec) -> Optional[ProofResult]:
        self._reserved = {v.name for v in spec.goal_atom.variables()}
        best = None  # (ranking key, tree, θ); the smallest key wins, the first on a tie
        complete = 0
        truncated = False
        for theta, node, score in self.solve(spec.goal_atom, EMPTY_SUBSTITUTION, 1, 1.0, None):
            complete += 1
            if complete > MAX_PROOFS_PER_GOAL:
                truncated = True
                break
            steps = list(node.walk())
            key = (-score, len(steps), tuple(sorted({step.rule_id for step in steps})))
            if best is None or key < best[0]:
                best = (key, node, theta)
                self._bound = score  # a branch below the best score can only end in a worse key
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
        if rule.fact_id is not None:
            ids.add(rule.fact_id)
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

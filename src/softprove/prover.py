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
  goal.  Every complete proof therefore clears the threshold.  The
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

The search is one function, ``prove_goal``: one loop over linked lists and a
stack, so it takes no interpreter stack per level or per body atom.  The
goals left to prove are a linked list, the next goal first; applying a rule
puts its body atoms in front of the rest.  A goal is opened when the loop
reaches it: the depth limit and the ancestor cut apply there, and a goal
that passes both and has candidates pushes a choice point, which holds its
candidates not yet tried with the rest of the goal list, θ, the running
product and the steps as they were at the goal.  The loop always goes on
from the newest choice point, which gives the depth-first order, and applies
the bound as it draws each candidate.  When the goal list runs out, the same
loop counts the proof, ranks it, raises the bound on a new best, and
backtracks; the proof after the ``MAX_PROOFS_PER_GOAL``-th stops it.  The rule
applications of a proof are a linked list of steps, newest first: the proof
tree in reverse pre-order.  Only the best proof's steps are built into a
``ProofStep`` tree.

Each goal's candidates are the rules whose head can unify with it, in
knowledge-base order: the heads of the same arity whose predicate is the
goal's or scores at or above the unify threshold (``candidate_rules``).  The
scan reads each head predicate's score from the store's similarity table and
scores only a pair the store has never seen.  The table outlives the search,
and searches repeat pairs: the cases of ``corpus verify`` and the iterations
of the refine loop prove against the same principle library.  On the
benchmark's seed-1 inputs, of the checks of a head against a goal with
another predicate, none repeats a (goal, head) predicate pair within one
``corpus`` case, but 45 % repeat one from an earlier case of the round; in
``refine``, 56 % repeat within one refine loop and 71 % over a round of eight
loops; a second round finds every pair in the table.  The search keeps no
memo of candidate lists: it scans again for each goal, one table lookup per
head group, since on the same inputs a goal key recurs in only 10-14 % of
the scans of one ``prove_all_goals``.

Rules are standardized apart without copying them.  Each rule carries its
``template`` (``logic.Rule``): its variables numbered from 0 by first
appearance, head first.  A candidate that passes the bound gets a frame, the
next block of ``template.size`` variable numbers, so its slot ``s`` is
variable ``frame + s``; the goal's own variables are numbered -1, -2, ...
During the search a term is a variable number or a ``Constant``, and θ is a
dict from variable numbers to terms, each binding made to a term resolved
at the time (so a lookup may have to follow a chain).  Atoms and variables
are built only for the best proof, in ``_materialize``.  A goal variable
that the proof leaves unbound keeps its name; frame variable ``k`` is named
``V<n>`` for the ``k``-th ``n`` (from 0) whose name the goal does not use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from .embeddings import EmbeddingStore, weak_unify_score
from .logic import (
    Atom,
    GoalSpec,
    KnowledgeBase,
    MoralViolation,
    Rule,
    Slot,
    Variable,
)

# θ during a search: variable number -> variable number or constant.  A
# binding's value is the term as resolved when it was made, so a number may
# lead through further bindings (``_resolve``).
Bindings = dict[int, Slot]


class ConfigError(ValueError):
    pass


# Complete proofs one goal's search may enumerate before it stops and flags
# its result ``budget_exceeded``.
MAX_PROOFS_PER_GOAL = 10_000

# The deepest ``max_depth`` a config accepts.  The search takes no stack per
# level, but the readers of its proof tree recurse once per level
# (``ProofStep.walk``, ``render_proof``, ``proof_to_dict``), so a proof much
# deeper than this would overflow the interpreter's default recursion limit
# of 1,000; this leaves room for the callers' own stack.
MAX_DEPTH = 256


@dataclass(frozen=True)
class SolverConfig:
    """The solver's three settings; defaults follow the tuned configuration.

    A predicate pair unifies at or above ``unify_threshold``; a proof counts
    at or above ``proof_threshold``; no proof goes deeper than ``max_depth``,
    which is at most ``MAX_DEPTH``.
    """

    unify_threshold: float = 0.5
    proof_threshold: float = 0.13
    max_depth: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.unify_threshold <= 1.0):
            raise ConfigError(f"unify_threshold must be in (0, 1]: {self.unify_threshold}")
        if not (0.0 < self.proof_threshold <= 1.0):
            raise ConfigError(f"proof_threshold must be in (0, 1]: {self.proof_threshold}")
        if not (1 <= self.max_depth <= MAX_DEPTH):
            raise ConfigError(f"max_depth must be in [1, {MAX_DEPTH}]: {self.max_depth}")


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
    used_fact_ids: frozenset[str]  # the ``fact_id`` of every rule in the proof that has one
    budget_exceeded: bool = False


def _resolve(term: Slot, theta: Bindings) -> Slot:
    """``term`` with its bindings under ``theta`` followed to the end."""
    while isinstance(term, int):
        bound = theta.get(term)
        if bound is None:
            break
        term = bound
    return term


def weak_unify_atoms(
    goal: tuple[Slot, ...], head: Atom, slots: tuple[Slot, ...], frame: int, theta: Bindings
) -> Optional[Bindings]:
    """Unify a goal's arguments with rule head ``head`` standardized apart at
    ``frame``, under ``theta``; None if they clash.

    ``goal`` holds variable numbers and constants.  ``slots`` is the head's
    compiled arguments (``rule.template.head``), so slot ``s`` is variable
    ``frame + s``; ``head`` itself is passed so that a wrapper of this
    function sees which rule is tried.  The predicates have already passed
    the candidate scan (``candidate_rules``), which gives the unification its
    score; arguments match structurally, and constants by equality only.
    Where both sides are variables, the head's is bound, so the goal's naming
    survives in output.

    Returns ``theta`` itself if nothing was bound, else a new dict with the
    new bindings; ``theta`` is never changed.
    """
    bindings = theta
    for left, right in zip(goal, slots):
        left = _resolve(left, bindings)
        if isinstance(right, int):
            right = _resolve(frame + right, bindings)
        if isinstance(right, int):
            if left == right:
                continue
            variable, term = right, left
        elif isinstance(left, int):
            variable, term = left, right
        elif left.symbol != right.symbol:
            return None
        else:
            continue
        if bindings is theta:
            bindings = dict(theta)
        bindings[variable] = term
    return bindings


def candidate_rules(
    kb: KnowledgeBase, goal: Atom, store: EmbeddingStore, config: SolverConfig
) -> list[tuple[Rule, float]]:
    """The rules whose head can unify with ``goal``, each with its predicate
    score, in knowledge-base order.

    Scans the head predicates of the goal's arity
    (``KnowledgeBase.head_groups``): a head unifies with the goal when its
    similarity to the goal's predicate, 1.0 for the same predicate, is at or
    above the unify threshold.  Each similarity comes from the store's table
    (``EmbeddingStore.similarities``); ``weak_unify_score`` is called only for
    a pair the store has never scored.

    Each group's positions are in knowledge-base order already, so the
    result is sorted only when two or more groups unify: with none it is
    empty, with one it is that group's rules as they stand.
    """
    rules = kb.rules
    predicate, threshold = goal.predicate, config.unify_threshold
    similarities = store.similarities(predicate)
    hits: list[tuple[Sequence[int], float]] = []
    for head, positions in kb.head_groups(goal.arity).items():
        score = similarities.get(head)
        if score is None:
            score = weak_unify_score(store, predicate, head)
        if score >= threshold:
            hits.append((positions, score))
    if not hits:
        return []
    if len(hits) == 1:
        positions, score = hits[0]
        return [(rules[position], score) for position in positions]
    # positions are distinct: back into knowledge-base order
    scored = sorted([(position, score) for positions, score in hits for position in positions])
    return [(rules[position], score) for position, score in scored]


# The goals above a subgoal on the current path, nearest first, as linked
# ``(atom, arguments, rest)`` triples ending in None; the atom gives the
# predicate, the arguments are variable numbers and constants not under θ.
_Ancestors = Optional[tuple[Atom, tuple[Slot, ...], "_Ancestors"]]

# The rule applications of a proof, newest first, as linked ``(goal atom, goal
# arguments, rule, unify score, rest)`` tuples ending in None: the proof tree
# in reverse pre-order.  The arguments are not under θ; ``_materialize``
# builds the ``ProofStep`` tree of the best proof from them.
_Steps = Optional[tuple[Atom, tuple[Slot, ...], Rule, float, "_Steps"]]


def _repeats_ancestor(goal: Atom, args: tuple[Slot, ...], theta: Bindings, ancestors: _Ancestors) -> bool:
    """Whether the goal under ``theta`` is identical to an ancestor under ``theta``.

    Only ancestors with the goal's predicate and arity are resolved.
    """
    while ancestors is not None:
        above, above_args, ancestors = ancestors
        if above.predicate == goal.predicate and above.arity == goal.arity:
            if all(_resolve(a, theta) == _resolve(b, theta) for a, b in zip(above_args, args)):
                return True
    return False


def _rules(steps: _Steps) -> list[Rule]:
    """The rule of every step of a proof, one per step."""
    rules = []
    while steps is not None:
        _, _, rule, _, steps = steps
        rules.append(rule)
    return rules


# The names ``_materialize`` gives frame variables: ``V`` and a number.
_FRESH_NAME = re.compile(r"V(0|[1-9][0-9]*)\Z")


def _materialize(steps: _Steps, theta: Bindings, goal_variables: Sequence[Variable]) -> ProofStep:
    """The ``ProofStep`` tree of a proof, its goals under ``theta``.

    Goal variable ``-1 - i`` is ``goal_variables[i]``.  Frame variable ``k``,
    if the proof leaves it unbound, is named ``V<n>`` for the ``k``-th
    ``n`` (from 0) whose name is not one of the goal's own variables.

    The steps come newest first, so each step's subtrees are built before
    it: the step takes the last ``len(rule.body)`` built, the newest being
    its first child.
    """
    taken = sorted(int(m.group(1)) for v in goal_variables if (m := _FRESH_NAME.match(v.name)))
    fresh: dict[int, Variable] = {}

    def term(slot: Slot):
        slot = _resolve(slot, theta)
        if not isinstance(slot, int):
            return slot
        if slot < 0:
            return goal_variables[-1 - slot]
        variable = fresh.get(slot)
        if variable is None:
            n = slot
            for number in taken:
                if number <= n:
                    n += 1
            variable = fresh[slot] = Variable(f"V{n}")
        return variable

    built: list[ProofStep] = []
    while steps is not None:
        goal, args, rule, score, steps = steps
        split = len(built) - len(rule.body)
        children = tuple(reversed(built[split:]))
        del built[split:]
        built.append(ProofStep(Atom(goal.predicate, tuple(term(a) for a in args)), rule.id, score, children))
    return built[0]


def prove_goal(
    kb: KnowledgeBase,
    goal: GoalSpec,
    store: EmbeddingStore,
    config: SolverConfig = SolverConfig(),
) -> Optional[ProofResult]:
    """Best-scoring complete proof of one goal, or None if nothing clears the bar.

    The goals left to prove are linked ``((atom, slots, frame, depth,
    ancestors), rest)`` pairs; a goal's arguments are its slots shifted by
    ``frame``.  Each opened goal with candidates pushes a choice point,
    ``(candidates left, atom, arguments, depth, ancestors, rest, θ, running,
    steps)`` as they were when it was opened; the loop always goes on from
    the newest one.  When the goal list is empty, the proof is complete: it
    is counted and ranked, and the loop backtracks to look for the next.
    """
    goal_variables = list(dict.fromkeys(goal.goal_atom.variables()))
    args = tuple(-1 - goal_variables.index(t) if isinstance(t, Variable) else t for t in goal.goal_atom.args)
    goals = ((goal.goal_atom, args, 0, 1, None), None)
    theta, running, steps = {}, 1.0, None
    choices = []
    next_frame = 0  # variable numbers given to frames so far
    # A candidate whose running product falls below this is skipped: the
    # proof threshold, raised to the best score found so far.
    bound = config.proof_threshold
    best = None  # (ranking key, rules, steps, θ); the smallest key wins, the first on a tie
    complete = 0
    while True:
        if goals is None:
            complete += 1
            if complete > MAX_PROOFS_PER_GOAL:
                break
            rules = _rules(steps)
            key = (-running, len(rules), tuple(sorted({rule.id for rule in rules})))
            if best is None or key < best[0]:
                best = (key, rules, steps, theta)
                bound = running  # a branch below the best score can only end in a worse key
        else:
            (atom, slots, frame, depth, ancestors), rest = goals
            args = tuple([s + frame if isinstance(s, int) else s for s in slots])
            if depth <= config.max_depth and not _repeats_ancestor(atom, args, theta, ancestors):
                candidates = candidate_rules(kb, atom, store, config)
                if candidates:
                    choices.append((iter(candidates), atom, args, depth, ancestors, rest, theta, running, steps))
        while choices:
            candidates, atom, args, depth, ancestors, rest, theta, running, steps = choices[-1]
            for rule, score in candidates:
                running1 = running * (score * rule.score)
                if running1 < bound:
                    continue
                frame = next_frame
                next_frame += rule.template.size
                theta1 = weak_unify_atoms(args, rule.head, rule.template.head, frame, theta)
                if theta1 is not None:
                    break
            else:
                choices.pop()
                continue
            lineage = (atom, args, ancestors)
            goals = rest
            for body_atom, slots in zip(reversed(rule.body), reversed(rule.template.body)):
                goals = ((body_atom, slots, frame, depth + 1, lineage), goals)
            theta, running, steps = theta1, running1, (atom, args, rule, score, steps)
            break
        else:
            break
    if best is None:
        return None
    (neg_score, _, _), rules, steps, theta = best
    return ProofResult(
        violation=goal.violation,
        proof=_materialize(steps, theta, goal_variables),
        proof_score=-neg_score,
        used_fact_ids=frozenset(rule.fact_id for rule in rules if rule.fact_id is not None),
        budget_exceeded=complete > MAX_PROOFS_PER_GOAL,
    )


def prove_all_goals(
    kb: KnowledgeBase,
    goals: Sequence[GoalSpec],
    store: EmbeddingStore,
    config: SolverConfig = SolverConfig(),
) -> Optional[tuple[MoralViolation, ProofResult]]:
    """Try each goal in order; the globally best proof names the hypothesis.

    Each goal is searched on its own by ``prove_goal``; the goals share only
    the store's similarity table, so a predicate pair is scored at most once
    over all of them.  Ties across goals go to the earlier goal in
    ``goals``.  If any per-goal search hit
    the proof budget, the winning result is flagged as possibly non-optimal.
    """
    if not goals:
        raise ConfigError("prove_all_goals needs at least one goal")
    best: Optional[tuple[MoralViolation, ProofResult]] = None
    any_truncated = False
    for spec in goals:
        result = prove_goal(kb, spec, store, config)
        if result is None:
            continue
        any_truncated = any_truncated or result.budget_exceeded
        if best is None or result.proof_score > best[1].proof_score:
            best = (spec.violation, result)
    if best is not None and any_truncated and not best[1].budget_exceeded:
        best = (best[0], replace(best[1], budget_exceeded=True))
    return best


def render_proof(result: ProofResult) -> str:
    """Indented text tree: score header, one rule application per line.

    A result flagged ``budget_exceeded`` says so on the line under the header.
    """
    lines = [f"{result.proof_score:.5f} {result.proof.goal_atom.predicate}"]
    if result.budget_exceeded:
        lines.append(f"(search stopped after {MAX_PROOFS_PER_GOAL} proofs; a better proof may exist)")

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

"""Core symbolic objects: terms, atoms, scored rules, goals, substitutions.

The rule language is deliberately tiny: constants and variables only (no
function symbols), predicates of arity 1..3, definite clauses carrying a
confidence score in (0, 1].  Everything is immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence, Union

VARIABLE_NAME = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
SYMBOL_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

# Hard cap on atom arity; the rule schema only ever needs 1 and 2.
MAX_ARITY = 3


class LogicError(ValueError):
    """A structurally malformed logic object."""


class ArityError(LogicError):
    pass


class ScoreRangeError(LogicError):
    pass


class OccursCheckViolation(LogicError):
    pass


@dataclass(frozen=True)
class Variable:
    """A logic variable; names start with an uppercase letter."""

    name: str

    def __post_init__(self) -> None:
        if not VARIABLE_NAME.match(self.name):
            raise LogicError(f"invalid variable name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A ground symbol: lowercase, digits and underscores (`the_frog`)."""

    symbol: str

    def __post_init__(self) -> None:
        if not SYMBOL_NAME.match(self.symbol):
            raise LogicError(f"invalid constant symbol: {self.symbol!r}")

    def __str__(self) -> str:
        return self.symbol


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms, e.g. ``physical_harm(X)``."""

    predicate: str
    args: tuple[Term, ...]
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not SYMBOL_NAME.match(self.predicate):
            raise LogicError(f"invalid predicate symbol: {self.predicate!r}")
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "arity", len(self.args))
        if self.arity < 1:
            raise ArityError(f"atom {self.predicate!r} needs at least one argument")
        if self.arity > MAX_ARITY:
            raise ArityError(
                f"atom {self.predicate!r} has arity {self.arity}, cap is {MAX_ARITY}"
            )

    def variables(self) -> Iterator[Variable]:
        for term in self.args:
            if isinstance(term, Variable):
                yield term

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(str(t) for t in self.args)})"


def atom(predicate: str, *args: Union[Term, str]) -> Atom:
    """Shorthand constructor; bare strings become constants or variables by case."""
    terms: list[Term] = []
    for a in args:
        if isinstance(a, (Variable, Constant)):
            terms.append(a)
        elif a[:1].isupper():
            terms.append(Variable(a))
        else:
            terms.append(Constant(a))
    return Atom(predicate, tuple(terms))


class MoralViolation(Enum):
    """The six moral foundations whose violation the solver can entail."""

    CARE = "care"
    FAIRNESS = "fairness"
    LOYALTY = "loyalty"
    AUTHORITY = "authority"
    SANCTITY = "sanctity"
    LIBERTY = "liberty"


# Goal predicates understood out of the box.  Care splits into two goal
# predicates (physical and emotional harm) that map to the same foundation;
# physical harm covers human and animal patients through two library rules.
GOAL_PREDICATE_FOUNDATION: dict[str, MoralViolation] = {
    "violate_care_physical": MoralViolation.CARE,
    "violate_care_emotional": MoralViolation.CARE,
    "violate_fairness": MoralViolation.FAIRNESS,
    "violate_loyalty": MoralViolation.LOYALTY,
    "violate_authority": MoralViolation.AUTHORITY,
    "violate_sanctity": MoralViolation.SANCTITY,
    "violate_liberty": MoralViolation.LIBERTY,
}


def foundation_for_goal_predicate(predicate: str) -> MoralViolation:
    """Map a ``violate_*`` goal predicate to its foundation (total mapping)."""
    known = GOAL_PREDICATE_FOUNDATION.get(predicate)
    if known is not None:
        return known
    parts = predicate.split("_")
    for violation in MoralViolation:
        if violation.value in parts:
            return violation
    raise LogicError(f"goal predicate {predicate!r} names no known moral foundation")


@dataclass(frozen=True)
class Rule:
    """A scored implication clause; an empty body makes it a fact.

    A score of exactly 1.0 marks a true fact; anything lower is a soft rule.
    ``fact_id`` names the explanation fact a formalized rule came from; it is
    None for principles and frame facts.
    """

    head: Atom
    body: tuple[Atom, ...]
    score: float
    id: str
    fact_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not (0.0 < self.score <= 1.0):
            raise ScoreRangeError(f"rule score must be in (0, 1], got {self.score}")
        if not self.id:
            raise LogicError("rule id must be non-empty")
        if self.fact_id == "":
            raise LogicError("fact id must be non-empty when given")


@dataclass(frozen=True)
class GoalSpec:
    """A provable goal atom together with the foundation it stands for."""

    violation: MoralViolation
    goal_atom: Atom


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable rule set plus the goal declarations to try against it."""

    rules: tuple[Rule, ...]
    goals: tuple[GoalSpec, ...] = ()
    _by_id: Mapping[str, Rule] = field(init=False, repr=False, compare=False)
    _by_head: Mapping[int, Mapping[str, list[int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "goals", tuple(self.goals))
        by_id: dict[str, Rule] = {}
        by_head: dict[int, dict[str, list[int]]] = {}
        for position, rule in enumerate(self.rules):
            if rule.id in by_id:
                raise LogicError(f"duplicate rule id: {rule.id!r}")
            by_id[rule.id] = rule
            head = rule.head
            by_head.setdefault(head.arity, {}).setdefault(head.predicate, []).append(position)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_by_head", by_head)

    def rule_by_id(self, rule_id: str) -> Rule:
        return self._by_id[rule_id]

    def head_groups(self, arity: int) -> Mapping[str, Sequence[int]]:
        """Positions in ``rules`` of the heads of this arity, grouped by predicate."""
        return self._by_head.get(arity, {})


class Substitution:
    """Immutable variable-name -> term mapping with an occurs check.

    With no function symbols the only self-containing binding possible is
    ``X -> X``, which the constructor rejects.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[str, Term]] = None) -> None:
        items = dict(bindings) if bindings else {}
        for name, term in items.items():
            if isinstance(term, Variable) and term.name == name:
                raise OccursCheckViolation(f"variable {name} would bind to itself")
        self._bindings = items

    def get(self, name: str) -> Optional[Term]:
        return self._bindings.get(name)

    def items(self) -> Iterator[tuple[str, Term]]:
        return iter(self._bindings.items())

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}->{v}" for k, v in sorted(self._bindings.items()))
        return f"{{{inner}}}"


EMPTY_SUBSTITUTION = Substitution()


def apply_term(theta: Substitution, term: Term) -> Term:
    """Single-pass image of one term; unbound variables pass through."""
    if isinstance(term, Variable):
        bound = theta.get(term.name)
        if bound is not None:
            return bound
    return term


def apply_substitution(subject: Atom, theta: Substitution) -> Atom:
    """Replace bound variables in one pass; no fixpoint chasing."""
    if len(theta) == 0:
        return subject
    return Atom(subject.predicate, tuple(apply_term(theta, t) for t in subject.args))


def compose(theta1: Substitution, theta2: Substitution) -> Substitution:
    """Sequential composition: apply(compose(t1, t2), a) == apply(t2, apply(t1, a))."""
    merged: dict[str, Term] = {}
    for name, term in theta1.items():
        merged[name] = apply_term(theta2, term)
    for name, term in theta2.items():
        if name not in merged:
            merged[name] = term
    return Substitution(merged)

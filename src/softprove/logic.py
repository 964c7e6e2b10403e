"""Core symbolic objects: terms, atoms, scored rules and their slot templates, goals.

The rule language is deliberately tiny: constants and variables only (no
function symbols), predicates of arity 1..3, definite clauses carrying a
confidence score in (0, 1].  Everything is immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

VARIABLE_NAME = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
SYMBOL_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

# Hard cap on atom arity; the rule schema only ever needs 1 and 2.
MAX_ARITY = 3


class LogicError(ValueError):
    """A structurally malformed logic object."""


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
            raise LogicError(f"atom {self.predicate!r} needs at least one argument")
        if self.arity > MAX_ARITY:
            raise LogicError(
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


def foundation_for_goal_predicate(predicate: str) -> MoralViolation:
    """The foundation that an underscore-separated part of a ``violate_*`` goal
    predicate names: ``violate_care_physical`` and ``violate_care_emotional``
    both stand for care."""
    parts = predicate.split("_")
    for violation in MoralViolation:
        if violation.value in parts:
            return violation
    raise LogicError(f"goal predicate {predicate!r} names no known moral foundation")


_PLAIN_DECIMAL = re.compile(r"[0-9]+\.[0-9]{1,6}\Z")


def format_score(score: float) -> str:
    """Shortest decimal that round-trips, capped at 6 fractional digits."""
    shortest = repr(score)
    if _PLAIN_DECIMAL.match(shortest):
        return shortest
    text = f"{score:.6f}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return text


# A compiled argument: the slot number of a rule variable, or a constant.
Slot = Union[int, Constant]


class RuleTemplate(NamedTuple):
    """A rule's arguments with its variables numbered ``0 .. size - 1``."""

    size: int
    head: tuple[Slot, ...]
    body: tuple[tuple[Slot, ...], ...]


@dataclass(frozen=True)
class Rule:
    """A scored implication clause; an empty body makes it a fact.

    A score of exactly 1.0 marks a true fact; anything lower is a soft rule.
    ``fact_id`` names the explanation fact a formalized rule came from; it is
    None for principles and frame facts.

    ``template`` is the rule compiled once for proof search: its variables
    are numbered by first appearance, head first, and each argument of the
    head and of every body atom becomes its variable's slot number or stays
    a ``Constant``.  The search standardizes the rule apart by adding a frame
    offset to the slot numbers, so no renamed copy of the rule is built.

    ``text`` is the clause in the rule text format (``ruleparse``), built on
    first use and kept: a rule that is serialized again, such as a principle
    in every refine iteration, is formatted once.
    """

    head: Atom
    body: tuple[Atom, ...]
    score: float
    id: str
    fact_id: Optional[str] = None
    template: RuleTemplate = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not (0.0 < self.score <= 1.0):
            raise LogicError(f"rule score must be in (0, 1], got {self.score}")
        if not self.id:
            raise LogicError("rule id must be non-empty")
        if self.fact_id == "":
            raise LogicError("fact id must be non-empty when given")
        slots: dict[str, int] = {}
        head, *body = [
            tuple([slots.setdefault(t.name, len(slots)) if isinstance(t, Variable) else t for t in a.args])
            for a in (self.head, *self.body)
        ]
        object.__setattr__(self, "template", RuleTemplate(len(slots), head, tuple(body)))

    @cached_property
    def text(self) -> str:
        """``head :- body. = score``, or ``head. = score`` for a fact."""
        clause = str(self.head)
        if self.body:
            clause += " :- " + ", ".join(str(a) for a in self.body)
        return f"{clause}. = {format_score(self.score)}"


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
    _by_head: Mapping[int, Mapping[str, list[int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "goals", tuple(self.goals))
        ids: set[str] = set()
        by_head: dict[int, dict[str, list[int]]] = {}
        for position, rule in enumerate(self.rules):
            if rule.id in ids:
                raise LogicError(f"duplicate rule id: {rule.id!r}")
            ids.add(rule.id)
            head = rule.head
            by_head.setdefault(head.arity, {}).setdefault(head.predicate, []).append(position)
        object.__setattr__(self, "_by_head", by_head)

    def head_groups(self, arity: int) -> Mapping[str, Sequence[int]]:
        """Positions in ``rules`` of the heads of this arity, grouped by predicate."""
        return self._by_head.get(arity, {})

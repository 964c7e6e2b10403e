"""Prompt template registry for the refinement pipeline.

A template's slots are the replacement fields of its user text; rendering
with a missing slot is an error.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum

from .chat import Message


class PromptRole(Enum):
    SEMANTIC = "semantic"
    AUTOFORMALIZE = "autoformalize"
    ABDUCE = "abduce"
    DEDUCE = "deduce"


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    role: PromptRole
    system: str
    user: str

    def render(self, **slots: str) -> list[Message]:
        missing = {name for _, name, _, _ in string.Formatter().parse(self.user) if name} - set(slots)
        if missing:
            raise TemplateError(f"{self.role.value} template missing slots: {sorted(missing)}")
        return [("system", self.system), ("user", self.user.format(**slots))]


_FOUNDATIONS_BRIEF = """\
An action can violate one of six moral foundations:
- care: emotional or physical harm to a human, or physical harm to a non-human animal
- fairness: cheating, free riding, or reducing equality
- loyalty: public behaviour that threatens the reputation of one's own group
- authority: disobedience or disrespect towards an authority figure or institution
- sanctity: sexually deviant, degrading, or disgusting acts
- liberty: coercion or reduced freedom of choice, exercised by someone in a position of power"""

_SEMANTIC = PromptTemplate(
    role=PromptRole.SEMANTIC,
    system=(
        "You explain why everyday actions are morally unacceptable.\n"
        + _FOUNDATIONS_BRIEF
        + "\n\nGiven a statement and its semantic roles (action, agent, patient), list short"
        " factual premises that connect the statement to one violated foundation, then name"
        " that foundation.  Answer in exactly this format:\n"
        "Premises:\n1. <premise>\n2. <premise>\nHypothesis: <foundation>\n\n"
        "Example:\n"
        "Statement: I kicked the stray dog that slept by my door.\n"
        "Roles: action=kick, agent=i, patient=the stray dog\n"
        "Premises:\n1. Kicking inflicts physical harm.\n2. A dog is an animal.\n"
        "Hypothesis: care\n\n"
        "Example:\n"
        "Statement: I skipped the clinic queue by pretending to be staff.\n"
        "Roles: action=skip, agent=i, patient=the clinic queue\n"
        "Premises:\n1. Pretending to be staff to skip a queue is cheating.\n"
        "2. Queue jumping takes an unfair advantage over people who wait.\n"
        "Hypothesis: fairness"
    ),
    user="Statement: {statement}\nRoles: {frame}\nPrinciples:\n{principles}",
)

_AUTOFORMALIZE = PromptTemplate(
    role=PromptRole.AUTOFORMALIZE,
    system=(
        "You translate plain-language facts into scored implication rules.\n"
        "Use lowercase snake_case predicates.  X stands for the action, Y for the patient.\n"
        "Allowed clause shapes:\n"
        "  p(X) :- q(X). = 1.0\n"
        "  p(X,Y) :- q(X), r(Y). = 1.0\n"
        "  p(X,Z) :- q(X,Y), r(Y,Z). = 1.0\n"
        "A ground statement becomes a fact such as `frog(patient). = 1.0`.\n"
        "Scores lie in (0, 1]; use 1.0 unless the fact itself is uncertain.\n"
        "Reply with one clause per line and nothing else.\n\n"
        "Example:\nFact: neighbors are friends\nfriend(X) :- neighbor(X). = 1.0"
    ),
    user="Roles: {frame}\nFact: {facts}",
)

_ABDUCE = PromptTemplate(
    role=PromptRole.ABDUCE,
    system=(
        "You repair incomplete moral explanations.\n"
        + _FOUNDATIONS_BRIEF
        + "\n\nGiven the premises that already survived formal proof checking and the"
        " hypothesised foundation, propose the missing premises that would let the"
        " hypothesis follow from the statement.  Keep each premise short and factual."
        "  Answer in exactly this format:\nPremises:\n1. <premise>\n2. <premise>"
    ),
    user="Statement: {statement}\nVerified premises: {facts}\nHypothesis: {hypothesis}",
)

_DEDUCE = PromptTemplate(
    role=PromptRole.DEDUCE,
    system=(
        "You judge which moral foundation a set of premises supports.\n"
        + _FOUNDATIONS_BRIEF
        + "\n\nAnswer with a single line:\nHypothesis: <foundation>"
    ),
    user="Premises:\n{facts}",
)

TEMPLATES: dict[PromptRole, PromptTemplate] = {
    t.role: t for t in (_SEMANTIC, _AUTOFORMALIZE, _ABDUCE, _DEDUCE)
}


def template(role: PromptRole) -> PromptTemplate:
    return TEMPLATES[role]

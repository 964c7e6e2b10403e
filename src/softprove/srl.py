"""Ingest pre-annotated semantic-role frames and ground them as facts.

Frames arrive as JSON (``statement``, ``action``, optional ``agent``,
``patient``, ``roles``).  Phrases normalize to lowercase snake_case symbols;
the frame grounds as facts over the role constants ``action``, ``patient``,
``agent`` so goal atoms can refer to them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .logic import Atom, Constant, Rule

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


class SchemaError(ValueError):
    """Frame document missing or mis-typing required keys."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = problems
        super().__init__("; ".join(problems))


def normalize_phrase(phrase: str) -> str:
    """Lowercase, non-alphanumerics to ``_``, collapse repeats, strip ends.

    A leading digit gets an ``n_`` prefix so the result is a valid symbol.
    """
    cleaned = _NON_ALNUM.sub("_", phrase.lower()).strip("_")
    if cleaned and cleaned[0].isdigit():
        cleaned = f"n_{cleaned}"
    return cleaned


@dataclass(frozen=True)
class SemanticFrame:
    """Predicate-argument structure of one statement."""

    statement: str
    action_lemma: str
    agent: Optional[str] = None
    patient: Optional[str] = None
    extra_roles: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.action_lemma:
            raise SchemaError(["action lemma must be non-empty"])
        object.__setattr__(self, "extra_roles", dict(self.extra_roles))


def frame_from_dict(doc: object) -> SemanticFrame:
    """Validate one frame document (parsed JSON) and build its frame."""
    if not isinstance(doc, dict):
        raise SchemaError(["frame document must be a JSON object"])
    problems = []
    for key in ("statement", "action"):
        if key not in doc:
            problems.append(f"missing key: {key}")
        elif not isinstance(doc[key], str) or not doc[key].strip():
            problems.append(f"key {key} must be a non-empty string")
    for key in ("agent", "patient"):
        if key in doc and doc[key] is not None and not isinstance(doc[key], str):
            problems.append(f"key {key} must be a string")
    roles = doc.get("roles", {})
    if roles is None:
        roles = {}
    if not isinstance(roles, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in roles.items()
    ):
        problems.append("key roles must map strings to strings")
    if problems:
        raise SchemaError(problems)
    normalized_roles = {normalize_phrase(k): v for k, v in roles.items()}
    if any(not k for k in normalized_roles):
        raise SchemaError(["role names must normalize to non-empty symbols"])
    action = normalize_phrase(doc["action"])
    if not action:
        raise SchemaError(["key action must normalize to a non-empty symbol"])
    return SemanticFrame(
        statement=doc["statement"],
        action_lemma=action,
        agent=doc.get("agent"),
        patient=doc.get("patient"),
        extra_roles=normalized_roles,
    )


def _phrase_facts(
    phrase: str, role_constant: str, rule_id_base: str, keep_head_noun: bool = False
) -> list[Rule]:
    """Ground facts for one role phrase.

    The full phrase always becomes a fact; with ``keep_head_noun`` a multiword
    phrase additionally keeps its head noun (last token) as a second fact,
    which is what rule bodies usually unify against (``frog``, not
    ``the_frog``).
    """
    symbol = normalize_phrase(phrase)
    if not symbol:
        raise SchemaError([f"phrase {phrase!r} normalizes to an empty symbol"])
    facts = [
        Rule(
            head=Atom(symbol, (Constant(role_constant),)),
            body=(),
            score=1.0,
            id=rule_id_base,
        )
    ]
    head_noun = symbol.rsplit("_", 1)[-1]
    if keep_head_noun and head_noun != symbol and not head_noun[0].isdigit():
        facts.append(
            Rule(
                head=Atom(head_noun, (Constant(role_constant),)),
                body=(),
                score=1.0,
                id=f"{rule_id_base}_head",
            )
        )
    return facts


def frame_to_facts(frame: SemanticFrame) -> tuple[Rule, ...]:
    """Ground, score-1.0 facts over the role constants the goals refer to."""
    facts: list[Rule] = [
        Rule(
            head=Atom(frame.action_lemma, (Constant("action"),)),
            body=(),
            score=1.0,
            id="srl_action",
        )
    ]
    if frame.patient is not None:
        facts.extend(_phrase_facts(frame.patient, "patient", "srl_patient", keep_head_noun=True))
    if frame.agent is not None:
        facts.extend(_phrase_facts(frame.agent, "agent", "srl_agent"))
    for role_name in sorted(frame.extra_roles):
        facts.extend(
            _phrase_facts(frame.extra_roles[role_name], role_name, f"srl_role_{role_name}")
        )
    return tuple(facts)

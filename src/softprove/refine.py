"""Iterative explanation repair: semantic inference, autoformalization,
abductive premise generation, deductive hypothesis revision, and the bounded
refinement loop that ties them to the solver.

Each iteration formalizes the explanation's new facts (each fact once per
loop, its dropped clauses recorded in the trace), assembles a knowledge base
from every current fact's rules, and verifies it.  A valid proof ends the
loop; a valid-but-redundant proof first prunes the explanation to exactly the
facts used in the proof and, budget permitting, re-verifies once so the trace
records the pruned state.  An invalid iteration asks the client for missing
premises (seeded with whatever facts survived in the failed proof) and then
re-derives the hypothesis from the extended explanation.

The loop has one abort path: a ``ChatError`` or ``RefineError`` from any step
(a failed or unmatched client call, a reply that does not parse, a hypothesis
that names no foundation, or facts of which none formalizes into a rule) ends
it with ``RefineAborted``, which carries the trace of the iterations recorded
so far.  ``autoformalize`` itself never raises on an empty result; the loop
decides that a case without rules cannot go on.

The trace says each thing once.  Its top-level ``kb`` is what every
iteration's knowledge base shares: the frame facts, the principle library and
the goal declaration, serialized in ``assemble_kb``'s layer order.  Each
iteration's ``rules`` holds only the serialized rules of that iteration's
explanation, so the knowledge base it verified is, as text,
``iteration["rules"] + trace["kb"]``.  An aborted trace carries ``kb`` too.
An iteration's proof is written once, as its ``proof`` object
(``prover.proof_to_dict``).  ``RefineTrace.to_json`` writes the trace as one
line of ``json.dumps``.

Each step asks the client once more when a reply is malformed, never more.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

from .chat import ChatClient, ChatError, ChatParams
from .embeddings import EmbeddingStore
from .logic import MoralViolation, Rule
from .principles import load_principles
from .prompts import ABDUCE, AUTOFORMALIZE, DEDUCE, SEMANTIC, PromptTemplate
from .prover import ConfigError, ProofResult, SolverConfig
from .ruleparse import RuleDocument, parse_rule, serialize
from .srl import SemanticFrame, frame_to_facts
from .verifier import (
    EthicalCase,
    OutcomeKind,
    VerificationOutcome,
    assemble_kb,
    verify_case,
)

logger = logging.getLogger(__name__)

Fact = tuple[str, str]  # (fact id, text)
T = TypeVar("T")


class RefineError(RuntimeError):
    pass


class RefineAborted(RefineError):
    """The loop's one abort: ``cause`` is the ``ChatError`` or ``RefineError``
    that ended it, ``trace`` holds the iterations recorded before it."""

    def __init__(self, trace: "RefineTrace", cause: Exception) -> None:
        super().__init__(f"refinement aborted: {cause}")
        self.trace = trace
        self.cause = cause


# -- reply parsing -------------------------------------------------------------

_BULLET = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s*)?(.*?)\s*$")
_HYPOTHESIS_LINE = re.compile(r"hypothesis\s*:\s*(.*)", re.IGNORECASE)
_WORD = re.compile(r"[a-z]+")


def parse_premises(reply: str) -> list[str]:
    """Premise lines from a reply, tolerating numbering and a Premises: header."""
    lines = reply.splitlines()
    start = 0
    for i, line in enumerate(lines):
        if line.strip().lower().startswith("premises"):
            start = i + 1
            break
    premises = []
    for line in lines[start:]:
        if _HYPOTHESIS_LINE.search(line):
            break
        text = _BULLET.match(line).group(1)
        if text:
            premises.append(text)
    return premises


def _premises(reply: str) -> tuple[list[str], bool]:
    """The reply's premises; it is well formed when it has any."""
    premises = parse_premises(reply)
    return premises, bool(premises)


def parse_hypothesis(reply: str) -> MoralViolation:
    """The single foundation named by the reply's hypothesis text."""
    marker = _HYPOTHESIS_LINE.search(reply)
    candidate = reply if marker is None else marker.group(1)
    words = set(_WORD.findall(candidate.lower()))
    named = [v for v in MoralViolation if v.value in words]
    if len(named) != 1:
        raise RefineError(f"hypothesis label names no known foundation: {candidate.strip()!r}")
    return named[0]


def frame_summary(frame: SemanticFrame) -> str:
    parts = [f"action={frame.action_lemma}"]
    if frame.agent is not None:
        parts.append(f"agent={frame.agent}")
    if frame.patient is not None:
        parts.append(f"patient={frame.patient}")
    for role in sorted(frame.extra_roles):
        parts.append(f"{role}={frame.extra_roles[role]}")
    return ", ".join(parts)


def _numbered(texts: Sequence[str]) -> str:
    return "\n".join(f"{i}. {t}" for i, t in enumerate(texts, start=1)) if texts else "(none)"


# -- pipeline operations -------------------------------------------------------


def _ask(
    client: ChatClient, params: ChatParams, template: PromptTemplate,
    parse: Callable[[str], tuple[T, bool]], error: str, **slots: str,
) -> T:
    """What ``parse`` makes of the reply to ``template`` filled with ``slots``.

    ``parse`` gives a value and whether the reply was well formed.  A malformed
    reply is asked for once more; if that one is malformed too, it raises
    ``RefineError(error)``, or gives its value when ``error`` is empty.
    """
    messages = template.render(**slots)
    tagged = params.tagged(template.role)
    value, well_formed = parse(client.complete(messages, tagged))
    if not well_formed:
        value, well_formed = parse(client.complete(messages, tagged))
        if not well_formed and error:
            raise RefineError(error)
    return value


def semantic_inference(
    statement: str,
    frame: SemanticFrame,
    client: ChatClient,
    params: ChatParams = ChatParams(),
    principles_text: str = "",
) -> tuple[list[Fact], MoralViolation]:
    """Initial explanation facts and violation hypothesis for a statement."""

    def parse(reply: str) -> tuple[tuple[list[str], str], bool]:
        premises = parse_premises(reply)
        return (premises, reply), bool(premises) and _HYPOTHESIS_LINE.search(reply) is not None

    premises, reply = _ask(
        client, params, SEMANTIC, parse, "reply lacks Premises:/Hypothesis: structure",
        statement=statement, frame=frame_summary(frame), principles=principles_text,
    )
    return [(f"f{i}", text) for i, text in enumerate(premises, start=1)], parse_hypothesis(reply)


def autoformalize(
    nl_facts: Sequence[Fact],
    frame: SemanticFrame,
    client: ChatClient,
    params: ChatParams = ChatParams(),
) -> tuple[list[Rule], list[str]]:
    """Translate each fact into scored rules tagged with that fact's id.

    A reply with unparsable lines is re-asked once; lines that still fail are
    dropped with a logged warning, never silently.  No fact, or no parsable
    clause, gives no rules.
    """
    summary = frame_summary(frame)
    rules: list[Rule] = []
    warnings: list[str] = []
    for fact_id, text in nl_facts:
        parsed, bad = _ask(
            client, params, AUTOFORMALIZE, lambda reply: _parse_clauses(reply, fact_id), "",
            facts=text, frame=summary,
        )
        for line, error in bad:
            message = f"fact {fact_id}: dropped unparsable clause {line!r} ({error})"
            warnings.append(message)
            logger.warning(message)
        rules.extend(parsed)
    return rules, warnings


def _parse_clauses(reply: str, fact_id: str) -> tuple[tuple[list[Rule], list[tuple[str, str]]], bool]:
    """The reply's rules and its unparsable lines, well formed when it has none."""
    parsed: list[Rule] = []
    bad: list[tuple[str, str]] = []
    index = 0
    for line in reply.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        try:
            parsed.append(
                parse_rule(line, rule_id=f"g_{fact_id}_{index}", fact_id=fact_id)
            )
            index += 1
        except ValueError as exc:
            bad.append((line, str(exc)))
    return (parsed, bad), not bad


def abductive_inference(
    kept_facts: Sequence[str],
    hypothesis: MoralViolation,
    statement: str,
    client: ChatClient,
    params: ChatParams = ChatParams(),
    existing_texts: Sequence[str] = (),
    first_fact_index: int = 1,
) -> list[Fact]:
    """Missing premises given the hypothesis and the proof-surviving facts.

    Duplicates of existing facts (case-insensitive text match) are removed.
    """
    premises = _ask(
        client, params, ABDUCE, _premises, "abductive reply contains no premises",
        statement=statement, facts=_numbered(kept_facts), hypothesis=hypothesis.value,
    )
    seen = {t.strip().casefold() for t in existing_texts}
    fresh: list[Fact] = []
    index = first_fact_index
    for text in premises:
        key = text.strip().casefold()
        if key in seen:
            continue
        seen.add(key)
        fresh.append((f"f{index}", text))
        index += 1
    return fresh


def deductive_inference(
    nl_facts: Sequence[Fact],
    client: ChatClient,
    params: ChatParams = ChatParams(),
) -> MoralViolation:
    """Re-derive the violated foundation from the (extended) explanation."""
    if not nl_facts:
        raise RefineError("deduction needs at least one fact")
    reply = _ask(
        client, params, DEDUCE, lambda reply: (reply, bool(reply.strip())),
        "deductive reply is empty", facts=_numbered([t for _, t in nl_facts]),
    )
    return parse_hypothesis(reply)


# -- the refinement loop -------------------------------------------------------


@dataclass(frozen=True)
class CaseSeed:
    id: str
    statement: str
    frame: SemanticFrame
    gold_violation: Optional[MoralViolation] = None

    def case(self, facts: tuple[Fact, ...], hypothesis: MoralViolation) -> EthicalCase:
        """The case this seed states with ``facts`` as its explanation."""
        return EthicalCase(
            id=self.id,
            statement=self.statement,
            frame=self.frame,
            nl_facts=facts,
            hypothesis=hypothesis,
            gold_violation=self.gold_violation,
        )


@dataclass(frozen=True)
class RefineConfig:
    max_iterations: int = 3
    solver: SolverConfig = field(default_factory=SolverConfig)
    principles_path: Optional[str] = None
    params: ChatParams = field(default_factory=ChatParams)

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0: {self.max_iterations}")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    explanation: tuple[Fact, ...]
    hypothesis: MoralViolation
    rules_text: str  # the explanation's rules; the trace's ``kb_text`` follows them in the KB
    outcome: VerificationOutcome
    added_facts: tuple[Fact, ...] = ()
    pruned_fact_ids: tuple[str, ...] = ()
    dropped_clauses: tuple[str, ...] = ()  # warnings from formalizing this iteration's new facts

    @property
    def proof(self) -> Optional[ProofResult]:
        return self.outcome.proof


@dataclass(frozen=True)
class RefineTrace:
    case_id: str
    statement: str
    kb_text: str  # frame facts, principles and goal declaration: what every iteration's KB shares
    records: tuple[IterationRecord, ...]
    valid: bool
    non_redundant: bool
    final_hypothesis: Optional[MoralViolation]
    final_explanation: tuple[Fact, ...]

    def to_dict(self) -> dict:
        def record_dict(record: IterationRecord) -> dict:
            return {
                "index": record.index,
                "hypothesis": record.hypothesis.value,
                "explanation": [{"id": i, "text": t} for i, t in record.explanation],
                "added_facts": [{"id": i, "text": t} for i, t in record.added_facts],
                "pruned_fact_ids": list(record.pruned_fact_ids),
                "dropped_clauses": list(record.dropped_clauses),
                **record.outcome.to_dict(),
                "rules": record.rules_text,
            }

        return {
            "case_id": self.case_id,
            "statement": self.statement,
            "valid": self.valid,
            "non_redundant": self.non_redundant,
            "final_hypothesis": self.final_hypothesis.value if self.final_hypothesis else None,
            "final_explanation": [{"id": i, "text": t} for i, t in self.final_explanation],
            "iterations": [record_dict(r) for r in self.records],
            "kb": self.kb_text,
        }

    def to_json(self) -> str:
        """The trace as one line of ``json.dumps(self.to_dict())``."""
        return json.dumps(self.to_dict())


def refine_loop(
    seed: CaseSeed,
    config: RefineConfig,
    client: ChatClient,
    store: EmbeddingStore,
) -> tuple[EthicalCase, RefineTrace]:
    """Run the bounded repair loop and return the final case plus full trace.

    Any ``ChatError`` or ``RefineError`` raises ``RefineAborted`` with the
    trace of the iterations recorded so far."""
    principle_doc = load_principles(config.principles_path)
    if not principle_doc.goal_decls:
        raise ConfigError("principle library declares no goals")
    srl_rules = frame_to_facts(seed.frame)
    shared = assemble_kb(principle_doc.rules, principle_doc.goal_decls, srl_rules, ())
    kb_text = serialize(RuleDocument(rules=shared.rules, goal_decls=shared.goals))
    records: list[IterationRecord] = []
    try:
        facts, hypothesis = _iterate(seed, config, client, store, principle_doc, srl_rules, records)
    except (ChatError, RefineError) as exc:
        trace = _finish_trace(seed, kb_text, records, valid=False, facts=(), hypothesis=None)
        raise RefineAborted(trace, exc) from exc
    trace = _finish_trace(
        seed, kb_text, records, valid=records[-1].outcome.valid, facts=facts, hypothesis=hypothesis
    )
    return seed.case(facts, hypothesis), trace


def _iterate(
    seed: CaseSeed,
    config: RefineConfig,
    client: ChatClient,
    store: EmbeddingStore,
    principle_doc: RuleDocument,
    srl_rules: Sequence[Rule],
    records: list[IterationRecord],
) -> tuple[tuple[Fact, ...], MoralViolation]:
    """The loop's iterations, appended to ``records``; returns the final facts
    and hypothesis."""
    principles_slot = serialize(RuleDocument(rules=principle_doc.rules))
    fact_list, hypothesis = semantic_inference(
        seed.statement, seed.frame, client, config.params, principles_slot
    )
    facts: tuple[Fact, ...] = tuple(fact_list)
    formalized: dict[str, list[Rule]] = {}  # fact id -> its rules; each fact is formalized once
    next_fact_index = len(facts) + 1
    iteration = 0
    added: tuple[Fact, ...] = ()
    confirming = False

    while True:
        fresh = [fact for fact in facts if fact[0] not in formalized]
        dropped: list[str] = []
        if fresh:
            new_rules, dropped = autoformalize(fresh, seed.frame, client, config.params)
            for fid, _ in fresh:
                formalized[fid] = [r for r in new_rules if r.fact_id == fid]
        rules = tuple(rule for fid, _ in facts for rule in formalized[fid])
        if not rules and facts:  # no facts left: confirm on principles and frame facts
            raise RefineError("no formalized rules parsed from any fact")
        kb = assemble_kb(principle_doc.rules, principle_doc.goal_decls, srl_rules, rules)
        outcome = verify_case(seed.case(facts, hypothesis), kb, store, config.solver)
        unused = outcome.unused_fact_ids  # non-empty only for a valid but redundant outcome
        records.append(
            IterationRecord(
                index=iteration,
                explanation=facts,
                hypothesis=hypothesis,
                rules_text=serialize(RuleDocument(rules=rules)),
                outcome=outcome,
                added_facts=added,
                pruned_fact_ids=tuple(fid for fid, _ in facts if fid in unused),
                dropped_clauses=tuple(dropped),
            )
        )
        added = ()

        if outcome.valid:
            facts = tuple(fact for fact in facts if fact[0] not in unused)
            if unused and not confirming and iteration < config.max_iterations:
                # One confirmation pass so the trace shows the pruned state.
                confirming = True
                iteration += 1
                continue
            return facts, hypothesis

        if iteration >= config.max_iterations:
            return facts, hypothesis
        used = outcome.proof.used_fact_ids if outcome.proof else frozenset()
        kept_texts = [t for fid, t in facts if fid in used]
        new_facts = abductive_inference(
            kept_texts,
            hypothesis,
            seed.statement,
            client,
            config.params,
            existing_texts=[t for _, t in facts],
            first_fact_index=next_fact_index,
        )
        next_fact_index += len(new_facts)
        facts = tuple(new_facts) + facts
        hypothesis = deductive_inference(facts, client, config.params)
        added = tuple(new_facts)
        iteration += 1


def _finish_trace(
    seed: CaseSeed,
    kb_text: str,
    records: Sequence[IterationRecord],
    valid: bool,
    facts: tuple[Fact, ...],
    hypothesis: Optional[MoralViolation],
) -> RefineTrace:
    return RefineTrace(
        case_id=seed.id,
        statement=seed.statement,
        kb_text=kb_text,
        records=tuple(records),
        valid=valid,
        non_redundant=valid and records[-1].outcome.kind is OutcomeKind.VALID_NON_REDUNDANT,
        final_hypothesis=hypothesis,
        final_explanation=facts,
    )

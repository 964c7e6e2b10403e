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
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .chat import ChatClient, ChatError, ChatParams
from .embeddings import EmbeddingStore
from .logic import MoralViolation, Rule, generated_fact
from .principles import load_principles
from .prompts import PromptRole, template
from .prover import ConfigError, ProofResult, SolverConfig, facts_in_proof
from .ruleparse import RuleDocument, RuleSyntaxError, parse_rule, serialize
from .srl import SemanticFrame
from .verifier import (
    EthicalCase,
    OutcomeKind,
    VerificationOutcome,
    assemble_kb,
    verify_case,
)

logger = logging.getLogger(__name__)

Fact = tuple[str, str]  # (fact id, text)


class RefineError(RuntimeError):
    pass


class ParseFailure(RefineError):
    """Reply kept its raw text for inspection."""

    def __init__(self, message: str, raw: str) -> None:
        super().__init__(message)
        self.raw = raw


class UnknownViolation(RefineError):
    def __init__(self, label: str) -> None:
        super().__init__(f"hypothesis label names no known foundation: {label!r}")
        self.label = label


class AutoformalizationEmpty(RefineError):
    """No rule parsed; ``warnings`` names the clauses dropped on the way."""

    def __init__(self, message: str, warnings: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.warnings = list(warnings)


class RefineAborted(RefineError):
    """Client failure mid-loop; the partial trace is preserved."""

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


def parse_hypothesis(reply: str, require_marker: bool = False) -> MoralViolation:
    """The single foundation named by the reply's hypothesis text."""
    marker = _HYPOTHESIS_LINE.search(reply)
    if marker is not None:
        candidate = marker.group(1)
    elif require_marker:
        raise ParseFailure("reply lacks a Hypothesis: line", reply)
    else:
        candidate = reply
    words = set(_WORD.findall(candidate.lower()))
    named = [v for v in MoralViolation if v.value in words]
    if len(named) != 1:
        raise UnknownViolation(candidate.strip())
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


def semantic_inference(
    statement: str,
    frame: SemanticFrame,
    client: ChatClient,
    params: ChatParams = ChatParams(),
    principles_text: str = "",
    first_fact_index: int = 1,
) -> tuple[list[Fact], MoralViolation]:
    """Initial explanation facts and violation hypothesis for a statement."""
    messages = template(PromptRole.SEMANTIC).render(
        statement=statement, frame=frame_summary(frame), principles=principles_text
    )
    tagged = params.tagged(PromptRole.SEMANTIC.value)
    reply = client.complete(messages, tagged)
    for attempt in (0, 1):
        premises = parse_premises(reply)
        marker = _HYPOTHESIS_LINE.search(reply)
        if premises and marker is not None:
            break
        if attempt == 0:
            reply = client.complete(messages, tagged)
    else:
        raise ParseFailure("reply lacks Premises:/Hypothesis: structure", reply)
    hypothesis = parse_hypothesis(reply, require_marker=True)
    facts = [(f"f{first_fact_index + i}", text) for i, text in enumerate(premises)]
    return facts, hypothesis


def autoformalize(
    nl_facts: Sequence[Fact],
    frame: SemanticFrame,
    client: ChatClient,
    params: ChatParams = ChatParams(),
) -> tuple[list[Rule], list[str]]:
    """Translate each fact into scored rules tagged with that fact's id.

    A reply with unparsable lines is re-asked once; lines that still fail are
    dropped with a logged warning, never silently.
    """
    if not nl_facts:
        raise AutoformalizationEmpty("no facts to formalize")
    tagged = params.tagged(PromptRole.AUTOFORMALIZE.value)
    summary = frame_summary(frame)
    rules: list[Rule] = []
    warnings: list[str] = []
    for fact_id, text in nl_facts:
        messages = template(PromptRole.AUTOFORMALIZE).render(facts=text, frame=summary)
        reply = client.complete(messages, tagged)
        parsed, bad = _parse_clauses(reply, fact_id)
        if bad:
            reply = client.complete(messages, tagged)
            parsed, bad = _parse_clauses(reply, fact_id)
        for line, error in bad:
            message = f"fact {fact_id}: dropped unparsable clause {line!r} ({error})"
            warnings.append(message)
            logger.warning(message)
        rules.extend(parsed)
    if not rules:
        raise AutoformalizationEmpty("no formalized rules parsed from any fact", warnings)
    return rules, warnings


def _parse_clauses(reply: str, fact_id: str) -> tuple[list[Rule], list[tuple[str, str]]]:
    parsed: list[Rule] = []
    bad: list[tuple[str, str]] = []
    index = 0
    for line in reply.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        try:
            parsed.append(
                parse_rule(line, rule_id=f"g_{fact_id}_{index}", origin=generated_fact(fact_id))
            )
            index += 1
        except (RuleSyntaxError, ValueError) as exc:
            bad.append((line, str(exc)))
    return parsed, bad


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
    messages = template(PromptRole.ABDUCE).render(
        statement=statement, facts=_numbered(kept_facts), hypothesis=hypothesis.value
    )
    tagged = params.tagged(PromptRole.ABDUCE.value)
    reply = client.complete(messages, tagged)
    premises = parse_premises(reply)
    if not premises:
        reply = client.complete(messages, tagged)
        premises = parse_premises(reply)
        if not premises:
            raise ParseFailure("abductive reply contains no premises", reply)
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
    messages = template(PromptRole.DEDUCE).render(facts=_numbered([t for _, t in nl_facts]))
    tagged = params.tagged(PromptRole.DEDUCE.value)
    reply = client.complete(messages, tagged)
    if not reply.strip():
        reply = client.complete(messages, tagged)
        if not reply.strip():
            raise ParseFailure("deductive reply is empty", reply)
    return parse_hypothesis(reply)


# -- the refinement loop -------------------------------------------------------


@dataclass(frozen=True)
class CaseSeed:
    id: str
    statement: str
    frame: SemanticFrame
    gold_violation: Optional[MoralViolation] = None


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
    kb_text: str
    proof: Optional[ProofResult]
    outcome: VerificationOutcome
    added_facts: tuple[Fact, ...] = ()
    pruned_fact_ids: tuple[str, ...] = ()
    dropped_clauses: tuple[str, ...] = ()  # warnings from formalizing this iteration's new facts


@dataclass(frozen=True)
class RefineTrace:
    case_id: str
    statement: str
    records: tuple[IterationRecord, ...]
    valid: bool
    non_redundant: bool
    final_hypothesis: Optional[MoralViolation]
    final_explanation: tuple[Fact, ...]

    def to_dict(self) -> dict:
        from .prover import proof_to_dict, render_proof

        def record_dict(record: IterationRecord) -> dict:
            return {
                "index": record.index,
                "hypothesis": record.hypothesis.value,
                "explanation": [{"id": i, "text": t} for i, t in record.explanation],
                "added_facts": [{"id": i, "text": t} for i, t in record.added_facts],
                "pruned_fact_ids": list(record.pruned_fact_ids),
                "dropped_clauses": list(record.dropped_clauses),
                "outcome": record.outcome.kind.value,
                "entailed": record.outcome.entailed.value if record.outcome.entailed else None,
                "unused_fact_ids": sorted(record.outcome.unused_fact_ids),
                "proof": proof_to_dict(record.proof) if record.proof else None,
                "proof_render": render_proof(record.proof) if record.proof else None,
                "kb": record.kb_text,
            }

        return {
            "case_id": self.case_id,
            "statement": self.statement,
            "valid": self.valid,
            "non_redundant": self.non_redundant,
            "final_hypothesis": self.final_hypothesis.value if self.final_hypothesis else None,
            "final_explanation": [{"id": i, "text": t} for i, t in self.final_explanation],
            "iterations": [record_dict(r) for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def refine_loop(
    seed: CaseSeed,
    config: RefineConfig,
    client: ChatClient,
    store: EmbeddingStore,
) -> tuple[EthicalCase, RefineTrace]:
    """Run the bounded repair loop and return the final case plus full trace."""
    from .srl import frame_to_facts

    principle_doc = load_principles(config.principles_path)
    if not principle_doc.goal_decls:
        raise ConfigError("principle library declares no goals")
    principles_slot = serialize(RuleDocument(rules=principle_doc.rules))
    srl_rules = frame_to_facts(seed.frame)

    records: list[IterationRecord] = []

    def abort(cause: Exception) -> RefineAborted:
        trace = _finish_trace(seed, records, valid=False, facts=(), hypothesis=None)
        return RefineAborted(trace, cause)

    try:
        fact_list, hypothesis = semantic_inference(
            seed.statement, seed.frame, client, config.params, principles_slot
        )
    except (ChatError, RefineError) as exc:
        raise abort(exc) from exc

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
            try:
                new_rules, dropped = autoformalize(fresh, seed.frame, client, config.params)
            except AutoformalizationEmpty as exc:
                new_rules, dropped = [], exc.warnings
            except (ChatError, RefineError) as exc:
                raise abort(exc) from exc
            for fid, _ in fresh:
                formalized[fid] = [r for r in new_rules if r.origin.nl_fact_id == fid]
        rules = [rule for fid, _ in facts for rule in formalized[fid]]
        if not rules and facts:  # no facts left: confirm on principles and frame facts
            empty = AutoformalizationEmpty("no formalized rules parsed from any fact", dropped)
            raise abort(empty) from empty
        kb = assemble_kb(principle_doc.rules, principle_doc.goal_decls, srl_rules, rules)
        case = EthicalCase(
            id=seed.id,
            statement=seed.statement,
            frame=seed.frame,
            nl_facts=facts,
            hypothesis=hypothesis,
            gold_violation=seed.gold_violation,
        )
        outcome = verify_case(case, kb, store, config.solver)
        kb_text = serialize(RuleDocument(rules=kb.rules, goal_decls=kb.goals))
        record = IterationRecord(
            index=iteration,
            explanation=facts,
            hypothesis=hypothesis,
            kb_text=kb_text,
            proof=outcome.proof,
            outcome=outcome,
            added_facts=added,
            dropped_clauses=tuple(dropped),
        )
        added = ()

        if outcome.valid:
            if outcome.kind is OutcomeKind.VALID_REDUNDANT:
                used = facts_in_proof(outcome.proof, kb)
                pruned = tuple(fid for fid, _ in facts if fid not in used)
                record = replace(record, pruned_fact_ids=pruned)
                records.append(record)
                facts = tuple((fid, t) for fid, t in facts if fid in used)
                if not confirming and iteration < config.max_iterations:
                    # One confirmation pass so the trace shows the pruned state.
                    confirming = True
                    iteration += 1
                    continue
            else:
                records.append(record)
            break

        records.append(record)
        if iteration >= config.max_iterations:
            break
        used = facts_in_proof(outcome.proof, kb) if outcome.proof else set()
        kept_texts = [t for fid, t in facts if fid in used]
        try:
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
        except (ChatError, RefineError) as exc:
            raise abort(exc) from exc
        added = tuple(new_facts)
        iteration += 1

    final_case = EthicalCase(
        id=seed.id,
        statement=seed.statement,
        frame=seed.frame,
        nl_facts=facts,
        hypothesis=hypothesis,
        gold_violation=seed.gold_violation,
    )
    trace = _finish_trace(
        seed, records, valid=records[-1].outcome.valid, facts=facts, hypothesis=hypothesis
    )
    return final_case, trace


def _finish_trace(
    seed: CaseSeed,
    records: Sequence[IterationRecord],
    valid: bool,
    facts: tuple[Fact, ...],
    hypothesis: Optional[MoralViolation],
) -> RefineTrace:
    return RefineTrace(
        case_id=seed.id,
        statement=seed.statement,
        records=tuple(records),
        valid=valid,
        non_redundant=valid and records[-1].outcome.kind is OutcomeKind.VALID_NON_REDUNDANT,
        final_hypothesis=hypothesis,
        final_explanation=facts,
    )

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
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .chat import ChatClient, ChatError, ChatParams
from .embeddings import EmbeddingStore
from .jsontext import dumps_indented
from .logic import MoralViolation, Rule
from .principles import load_principles
from .prompts import ABDUCE, AUTOFORMALIZE, DEDUCE, SEMANTIC
from .prover import ConfigError, ProofResult, SolverConfig, render_proof
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


def semantic_inference(
    statement: str,
    frame: SemanticFrame,
    client: ChatClient,
    params: ChatParams = ChatParams(),
    principles_text: str = "",
) -> tuple[list[Fact], MoralViolation]:
    """Initial explanation facts and violation hypothesis for a statement."""
    messages = SEMANTIC.render(
        statement=statement, frame=frame_summary(frame), principles=principles_text
    )
    tagged = params.tagged(SEMANTIC.role)
    reply = client.complete(messages, tagged)
    premises = parse_premises(reply)
    if not premises or _HYPOTHESIS_LINE.search(reply) is None:
        reply = client.complete(messages, tagged)
        premises = parse_premises(reply)
        if not premises or _HYPOTHESIS_LINE.search(reply) is None:
            raise RefineError("reply lacks Premises:/Hypothesis: structure")
    hypothesis = parse_hypothesis(reply)
    facts = [(f"f{i}", text) for i, text in enumerate(premises, start=1)]
    return facts, hypothesis


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
    tagged = params.tagged(AUTOFORMALIZE.role)
    summary = frame_summary(frame)
    rules: list[Rule] = []
    warnings: list[str] = []
    for fact_id, text in nl_facts:
        messages = AUTOFORMALIZE.render(facts=text, frame=summary)
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
                parse_rule(line, rule_id=f"g_{fact_id}_{index}", fact_id=fact_id)
            )
            index += 1
        except ValueError as exc:
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
    messages = ABDUCE.render(
        statement=statement, facts=_numbered(kept_facts), hypothesis=hypothesis.value
    )
    tagged = params.tagged(ABDUCE.role)
    reply = client.complete(messages, tagged)
    premises = parse_premises(reply)
    if not premises:
        reply = client.complete(messages, tagged)
        premises = parse_premises(reply)
        if not premises:
            raise RefineError("abductive reply contains no premises")
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
    messages = DEDUCE.render(facts=_numbered([t for _, t in nl_facts]))
    tagged = params.tagged(DEDUCE.role)
    reply = client.complete(messages, tagged)
    if not reply.strip():
        reply = client.complete(messages, tagged)
        if not reply.strip():
            raise RefineError("deductive reply is empty")
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
        """The trace as text: the bytes of ``json.dumps(self.to_dict(), indent=2)``."""
        return dumps_indented(self.to_dict())


def refine_loop(
    seed: CaseSeed,
    config: RefineConfig,
    client: ChatClient,
    store: EmbeddingStore,
) -> tuple[EthicalCase, RefineTrace]:
    """Run the bounded repair loop and return the final case plus full trace.

    Any ``ChatError`` or ``RefineError`` raises ``RefineAborted`` with the
    trace of the iterations recorded so far."""
    records: list[IterationRecord] = []
    try:
        facts, hypothesis = _iterate(seed, config, client, store, records)
    except (ChatError, RefineError) as exc:
        trace = _finish_trace(seed, records, valid=False, facts=(), hypothesis=None)
        raise RefineAborted(trace, exc) from exc
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


def _iterate(
    seed: CaseSeed,
    config: RefineConfig,
    client: ChatClient,
    store: EmbeddingStore,
    records: list[IterationRecord],
) -> tuple[tuple[Fact, ...], MoralViolation]:
    """The loop's iterations, appended to ``records``; returns the final facts
    and hypothesis."""
    principle_doc = load_principles(config.principles_path)
    if not principle_doc.goal_decls:
        raise ConfigError("principle library declares no goals")
    principles_slot = serialize(RuleDocument(rules=principle_doc.rules))
    srl_rules = frame_to_facts(seed.frame)

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
        rules = [rule for fid, _ in facts for rule in formalized[fid]]
        if not rules and facts:  # no facts left: confirm on principles and frame facts
            raise RefineError("no formalized rules parsed from any fact")
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
            outcome=outcome,
            added_facts=added,
            dropped_clauses=tuple(dropped),
        )
        added = ()

        if outcome.valid:
            if outcome.kind is OutcomeKind.VALID_REDUNDANT:
                unused = outcome.unused_fact_ids
                pruned = tuple(fid for fid, _ in facts if fid in unused)
                record = replace(record, pruned_fact_ids=pruned)
                records.append(record)
                facts = tuple((fid, t) for fid, t in facts if fid not in unused)
                if not confirming and iteration < config.max_iterations:
                    # One confirmation pass so the trace shows the pruned state.
                    confirming = True
                    iteration += 1
                    continue
            else:
                records.append(record)
            return facts, hypothesis

        records.append(record)
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

"""Classify explanations against the solver's verdict and aggregate metrics.

An explanation is valid when the solver entails the same violation the
language model hypothesised; a valid explanation is non-redundant when every
generated fact appears in the winning proof tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .embeddings import EmbeddingStore
from .logic import GoalSpec, KnowledgeBase, MoralViolation, Rule
from .prover import ConfigError, ProofResult, SolverConfig, facts_in_proof, prove_all_goals
from .ruleparse import parse_rule
from .srl import SemanticFrame, frame_from_dict


@dataclass(frozen=True)
class EthicalCase:
    """One statement with its explanation facts and hypothesised violation."""

    id: str
    statement: str
    frame: SemanticFrame
    nl_facts: tuple[tuple[str, str], ...]
    hypothesis: MoralViolation
    gold_violation: Optional[MoralViolation] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nl_facts", tuple(tuple(f) for f in self.nl_facts))
        ids = [fact_id for fact_id, _ in self.nl_facts]
        if len(ids) != len(set(ids)):
            raise ValueError(f"case {self.id}: duplicate fact ids")

    def fact_ids(self) -> set[str]:
        return {fact_id for fact_id, _ in self.nl_facts}


class OutcomeKind(Enum):
    VALID_NON_REDUNDANT = "valid_non_redundant"
    VALID_REDUNDANT = "valid_redundant"
    INVALID_MISMATCH = "invalid_mismatch"
    INVALID_NO_PROOF = "invalid_no_proof"


@dataclass(frozen=True)
class VerificationOutcome:
    kind: OutcomeKind
    proof: Optional[ProofResult] = None
    unused_fact_ids: frozenset[str] = frozenset()
    entailed: Optional[MoralViolation] = None

    def __post_init__(self) -> None:
        if self.kind is OutcomeKind.VALID_REDUNDANT and not self.unused_fact_ids:
            raise ValueError("valid-redundant outcome needs a non-empty unused set")
        if self.kind is OutcomeKind.INVALID_MISMATCH and self.entailed is None:
            raise ValueError("invalid-mismatch outcome needs the entailed violation")

    @property
    def valid(self) -> bool:
        return self.kind in (OutcomeKind.VALID_NON_REDUNDANT, OutcomeKind.VALID_REDUNDANT)


def verify_case(
    case: EthicalCase,
    kb: KnowledgeBase,
    store: EmbeddingStore,
    config: SolverConfig = SolverConfig(),
) -> VerificationOutcome:
    """Prove the goals over a fully assembled knowledge base and classify.

    ``kb`` must already hold the formalized explanation rules (each tagged
    with the ``fact_id`` of one of the case's facts), the frame facts, the
    principle library, and goal declarations.
    """
    if not kb.goals:
        raise ConfigError("knowledge base carries no goal declarations")
    outcome = prove_all_goals(kb, kb.goals, store, config)
    if outcome is None:
        return VerificationOutcome(kind=OutcomeKind.INVALID_NO_PROOF)
    entailed, result = outcome
    if entailed is not case.hypothesis:
        return VerificationOutcome(
            kind=OutcomeKind.INVALID_MISMATCH, proof=result, entailed=entailed
        )
    unused = case.fact_ids() - facts_in_proof(result, kb)
    if unused:
        return VerificationOutcome(
            kind=OutcomeKind.VALID_REDUNDANT,
            proof=result,
            unused_fact_ids=frozenset(unused),
            entailed=entailed,
        )
    return VerificationOutcome(
        kind=OutcomeKind.VALID_NON_REDUNDANT, proof=result, entailed=entailed
    )


def assemble_kb(
    principles: Sequence[Rule],
    goals: Sequence[GoalSpec],
    srl_facts: Sequence[Rule],
    generated_rules: Sequence[Rule],
) -> KnowledgeBase:
    """Knowledge base in canonical layer order: generated, frame facts, principles."""
    return KnowledgeBase(
        rules=tuple(generated_rules) + tuple(srl_facts) + tuple(principles),
        goals=tuple(goals),
    )


# -- metrics ------------------------------------------------------------------


def _pct(count: int, total: int) -> float:
    return round(100.0 * count / total, 1) if total else 0.0


@dataclass(frozen=True)
class MetricsRow:
    """Counts and percentages for one group of outcomes.

    The redundancy split is computed within the valid subset, so
    ``non_redundant_pct + redundant_pct`` is 100 up to rounding whenever any
    outcome is valid.
    """

    label: str
    total: int
    valid: int
    invalid: int
    non_redundant: int
    redundant: int

    @property
    def valid_pct(self) -> float:
        return _pct(self.valid, self.total)

    @property
    def invalid_pct(self) -> float:
        return _pct(self.invalid, self.total)

    @property
    def non_redundant_pct(self) -> float:
        return _pct(self.non_redundant, self.valid)

    @property
    def redundant_pct(self) -> float:
        return _pct(self.redundant, self.valid)


@dataclass(frozen=True)
class MetricsReport:
    overall: MetricsRow
    per_iteration: tuple[MetricsRow, ...]
    empty: bool


def _row(label: str, outcomes: Sequence[VerificationOutcome]) -> MetricsRow:
    valid = sum(1 for o in outcomes if o.valid)
    non_redundant = sum(1 for o in outcomes if o.kind is OutcomeKind.VALID_NON_REDUNDANT)
    return MetricsRow(
        label=label,
        total=len(outcomes),
        valid=valid,
        invalid=len(outcomes) - valid,
        non_redundant=non_redundant,
        redundant=valid - non_redundant,
    )


def aggregate_metrics(outcomes: Sequence[tuple[int, VerificationOutcome]]) -> MetricsReport:
    """Overall and per-iteration percentage rows, one-decimal rounding."""
    by_iteration: dict[int, list[VerificationOutcome]] = {}
    for iteration, outcome in outcomes:
        by_iteration.setdefault(iteration, []).append(outcome)
    rows = tuple(
        _row(f"iteration {iteration}", by_iteration[iteration])
        for iteration in sorted(by_iteration)
    )
    overall = _row("all", [o for _, o in outcomes])
    return MetricsReport(overall=overall, per_iteration=rows, empty=not outcomes)


METRICS_COLUMNS = ("Valid", "Invalid", "Valid and non-Redundant", "Valid but Redundant")


def render_metrics(report: MetricsReport) -> str:
    """Aligned text table; column order mirrors the standard report layout."""
    header = ["Group"] + list(METRICS_COLUMNS) + ["N"]
    rows = [header]
    for row in report.per_iteration + (report.overall,):
        rows.append(
            [
                row.label,
                f"{row.valid_pct:.1f}",
                f"{row.invalid_pct:.1f}",
                f"{row.non_redundant_pct:.1f}",
                f"{row.redundant_pct:.1f}",
                str(row.total),
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip() for r in rows]
    if report.empty:
        lines.append("(no outcomes)")
    return "\n".join(lines)


def metrics_to_dict(report: MetricsReport) -> dict:
    def row_dict(row: MetricsRow) -> dict:
        return {
            "label": row.label,
            "total": row.total,
            "valid": row.valid,
            "invalid": row.invalid,
            "valid_pct": row.valid_pct,
            "invalid_pct": row.invalid_pct,
            "valid_non_redundant": row.non_redundant,
            "valid_redundant": row.redundant,
            "valid_non_redundant_pct": row.non_redundant_pct,
            "valid_redundant_pct": row.redundant_pct,
        }

    return {
        "empty": report.empty,
        "overall": row_dict(report.overall),
        "per_iteration": [row_dict(r) for r in report.per_iteration],
    }


# -- case files ---------------------------------------------------------------


def _entries(doc: dict, key: str, fields: tuple[str, ...]) -> list[dict]:
    """The list under ``key``; each entry must be an object with string ``fields``."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"case {doc['id']}: {key} must be a list")
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(f), str) for f in fields):
            raise ValueError(f"case {doc['id']}: {key}[{index}] needs string keys {', '.join(fields)}")
    return entries


def case_from_dict(doc: object) -> tuple[EthicalCase, tuple[Rule, ...]]:
    """Load an EthicalCase plus its pre-formalized rules from JSON data."""
    if not isinstance(doc, dict):
        raise ValueError("case document must be a JSON object")
    for key in ("id", "statement", "frame", "nl_facts", "hypothesis"):
        if key not in doc:
            raise ValueError(f"case document missing key: {key}")
    frame = frame_from_dict(doc["frame"])
    nl_facts = tuple((f["id"], f["text"]) for f in _entries(doc, "nl_facts", ("id", "text")))
    case = EthicalCase(
        id=doc["id"],
        statement=doc["statement"],
        frame=frame,
        nl_facts=nl_facts,
        hypothesis=MoralViolation(doc["hypothesis"]),
        gold_violation=MoralViolation(doc["gold_violation"]) if doc.get("gold_violation") else None,
    )
    rules: list[Rule] = []
    counters: dict[str, int] = {}
    known_ids = case.fact_ids()
    for entry in _entries(doc, "rules", ("fact_id", "clause")):
        fact_id = entry["fact_id"]
        if fact_id not in known_ids:
            raise ValueError(f"case {case.id}: rule references unknown fact id {fact_id!r}")
        index = counters.get(fact_id, 0)
        counters[fact_id] = index + 1
        rules.append(
            parse_rule(entry["clause"], rule_id=f"g_{fact_id}_{index}", fact_id=fact_id)
        )
    return case, tuple(rules)

"""Weak-unification backward chaining for verifying and repairing
natural-language ethical explanations."""

from .embeddings import EmbeddingStore, load_embeddings, symbol_embedding, weak_unify_score
from .logic import (
    Atom,
    Constant,
    GoalSpec,
    KnowledgeBase,
    MoralViolation,
    Rule,
    Substitution,
    Variable,
    apply_substitution,
    compose,
)
from .principles import load_principles
from .prover import (
    ProofResult,
    ProofStep,
    SolverConfig,
    facts_in_proof,
    prove_all_goals,
    prove_goal,
    render_proof,
    weak_unify_atoms,
)
from .refine import CaseSeed, RefineConfig, RefineTrace, refine_loop
from .ruleparse import RuleDocument, parse_kb, parse_rule, serialize
from .srl import SemanticFrame, frame_to_facts
from .verifier import (
    EthicalCase,
    MetricsReport,
    VerificationOutcome,
    aggregate_metrics,
    verify_case,
)

__version__ = "0.1.0"

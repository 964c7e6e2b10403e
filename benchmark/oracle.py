"""Computations the benchmark checks the program against, made apart from it.

Nothing here imports ``softprove``.  Symbol similarity is recomputed in float64
from the generated token vectors by the mean-of-tokens rule; clauses are read
by a parser of this module's own; best proof scores are bounded by a fixed
point over predicates; returned proofs are re-checked step by step.

Every generated vector component is an integer multiple of ``UNIT`` = 3/512
and no symbol has more than four in-vocabulary tokens, so the sum of a
symbol's token vectors is exact, and so is its mean: a sum of ``k`` units
divided by three is ``k / 512``, and by two or four a power-of-two division.
The mean is still rounded to float32 here, as the store keeps it, so that the
check does not rest on that choice of unit; the cosine is taken in float64.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

UNIT = 3.0 / 512.0
# Solver settings every workload runs with: the CLI's defaults.
UNIFY_THRESHOLD = 0.5
PROOF_THRESHOLD = 0.13
MAX_DEPTH = 10
MAX_SYMBOL_TOKENS = 4
SCORE_TOLERANCE = 1e-12
PRODUCT_TOLERANCE = 1e-9


class CheckError(Exception):
    """An output that disagrees with the independent computation."""


def to_float32(x: float) -> float:
    """``x`` rounded to the nearest float32, as a float."""
    return struct.unpack("f", struct.pack("f", x))[0]


# -- vectors -------------------------------------------------------------------


class Vectors:
    """Token vectors as integer multiples of UNIT, plus the tokens known absent."""

    def __init__(self, tokens: Mapping[str, Sequence[int]], absent: Iterable[str] = ()) -> None:
        self.tokens = tokens
        self.absent = set(absent)
        self._symbols: dict[str, Optional[tuple[float, ...]]] = {}
        self._norms: dict[str, float] = {}
        self._pairs: dict[tuple[str, str], float] = {}

    def symbol(self, symbol: str) -> Optional[tuple[float, ...]]:
        """Float32 mean of the symbol's in-vocabulary token vectors; None if none is.

        The sum of at most four multiples of UNIT is exact in float64; the
        quotient, rounded once to float32, is the correctly rounded float32
        mean, as the store computes it (exact for generated vectors).
        """
        if symbol in self._symbols:
            return self._symbols[symbol]
        hits = []
        for token in symbol.split("_"):
            if token in self.tokens:
                hits.append(self.tokens[token])
            elif token not in self.absent:
                raise CheckError(f"no generated vector for token {token!r} of {symbol!r}")
        if len(hits) > MAX_SYMBOL_TOKENS:
            raise CheckError(f"symbol {symbol!r} has more than {MAX_SYMBOL_TOKENS} tokens")
        vector = None
        if hits:
            vector = tuple(to_float32(sum(column) * UNIT / len(hits)) for column in zip(*hits))
        self._symbols[symbol] = vector
        return vector

    def similarity(self, a: str, b: str) -> float:
        """Clamped cosine in float64; 1.0 for equal symbols, 0.0 without vectors."""
        if a == b:
            return 1.0
        key = (a, b) if a < b else (b, a)
        if key in self._pairs:
            return self._pairs[key]
        va, vb = self.symbol(a), self.symbol(b)
        score = 0.0
        if va is not None and vb is not None:
            denom = self._norm(a, va) * self._norm(b, vb)
            if denom != 0.0:
                score = max(0.0, min(1.0, math.fsum(x * y for x, y in zip(va, vb)) / denom))
        self._pairs[key] = score
        return score

    def _norm(self, symbol: str, vector: tuple[float, ...]) -> float:
        if symbol not in self._norms:
            self._norms[symbol] = math.sqrt(math.fsum(x * x for x in vector))
        return self._norms[symbol]


# -- clauses -------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: tuple[Atom, ...]
    score: float


_ATOM = re.compile(r"\s*([a-z][a-z0-9_]*)\s*\(([^()]*)\)\s*")
_CLAUSE = re.compile(
    r"\s*(?P<head>[^:]+?)\s*(?::-\s*(?P<body>.+?))?\s*\.\s*(?:=\s*(?P<score>[0-9]+(?:\.[0-9]+)?))?\s*"
)


def _atoms(text: str) -> tuple[Atom, ...]:
    atoms = []
    pos = 0
    while pos < len(text):
        m = _ATOM.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read atoms from {text!r}")
        atoms.append(Atom(m.group(1), tuple(a.strip() for a in m.group(2).split(","))))
        pos = m.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ValueError(f"expected ',' in {text!r}")
            pos += 1
    return tuple(atoms)


def parse_clause(text: str) -> Clause:
    m = _CLAUSE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a clause: {text!r}")
    (head,) = _atoms(m.group("head"))
    body = _atoms(m.group("body")) if m.group("body") else ()
    score = float(m.group("score")) if m.group("score") else 1.0
    return Clause(head, body, score)


def read_rule_file(text: str, id_prefix: str) -> tuple[dict[str, Clause], list[Atom]]:
    """Clauses keyed by ``<id_prefix><index>`` in document order, and goal atoms."""
    rules: dict[str, Clause] = {}
    goals: list[Atom] = []
    for line in text.splitlines():
        line = line.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("goal") and "<-" in line:
            alternatives = line.split("<-", 1)[1].rstrip(". ")
            goals.extend(a for part in alternatives.split("|") for a in _atoms(part))
            continue
        rules[f"{id_prefix}{len(rules)}"] = parse_clause(line)
    return rules, goals


def format_clause(clause: Clause) -> str:
    def atom(a: Atom) -> str:
        return f"{a.predicate}({','.join(a.args)})"

    text = atom(clause.head)
    if clause.body:
        text += " :- " + ", ".join(atom(a) for a in clause.body)
    return f"{text}. = {clause.score!r}"


# -- score bounds --------------------------------------------------------------


def score_bounds(goals: Sequence[Atom], match) -> dict[tuple[str, int], float]:
    """Upper bound on the best proof score of every predicate reached from goals.

    ``match(predicate, arity)`` lists the rules whose head scores at or above
    the unify threshold against the predicate.  A body counts only when all of
    its atoms reach facts; a predicate whose bound is 0 reaches none.  Bindings
    and the depth limit are ignored, so the bound is never below the true best
    score.
    """
    matches: dict[tuple[str, int], list[tuple[float, Clause]]] = {}
    frontier = [(g.predicate, len(g.args)) for g in goals]
    while frontier:
        key = frontier.pop()
        if key in matches:
            continue
        matches[key] = match(*key)
        for _, rule in matches[key]:
            frontier.extend((a.predicate, len(a.args)) for a in rule.body)

    best = {key: 0.0 for key in matches}
    changed = True
    while changed:
        changed = False
        for key, found in matches.items():
            value = best[key]
            for sim, rule in found:
                candidate = sim * rule.score
                for a in rule.body:
                    candidate *= best[(a.predicate, len(a.args))]
                value = max(value, candidate)
            if value > best[key]:
                best[key] = value
                changed = True
    return best


# -- proof re-check ------------------------------------------------------------


def _bind(pattern: Sequence[str], values: Sequence[str], binding: dict[str, str]) -> bool:
    for term, value in zip(pattern, values):
        if value[:1].isupper():
            continue  # an unbound goal variable accepts any term
        if term[:1].isupper():
            if binding.setdefault(term, value) != value:
                return False
        elif term != value:
            return False
    return True


def check_proof(
    proof,
    rules_by_id: Mapping[str, Clause],
    vectors: Vectors,
    unify_threshold: float,
    proof_threshold: float,
    max_depth: int,
) -> tuple[float, int, frozenset[str]]:
    """Re-check a returned proof; returns (recomputed score, steps, rule ids).

    ``proof`` is the program's result object, read only through its public
    fields: ``proof_score``, ``budget_exceeded`` and the ``proof`` step tree of
    ``goal_atom``, ``rule_id``, ``unification_score`` and ``children``.
    """
    if proof.budget_exceeded:
        raise CheckError("proof reports budget_exceeded")
    product = 1.0
    steps = 0
    ids = set()
    stack = [(proof.proof, 1)]
    while stack:
        step, depth = stack.pop()
        if depth > max_depth:
            raise CheckError(f"step {step.rule_id} at depth {depth} > {max_depth}")
        rule = rules_by_id.get(step.rule_id)
        if rule is None:
            raise CheckError(f"proof uses rule {step.rule_id!r}, which is not in the knowledge base")
        goal = step.goal_atom
        goal_args = tuple(str(t) for t in goal.args)
        if len(goal_args) != len(rule.head.args):
            raise CheckError(f"{step.rule_id}: arity differs from goal {goal}")
        expected = vectors.similarity(goal.predicate, rule.head.predicate)
        if expected < unify_threshold:
            raise CheckError(
                f"{step.rule_id}: head {rule.head.predicate} scores {expected:.6f} against {goal.predicate}"
            )
        if abs(step.unification_score - expected) > SCORE_TOLERANCE:
            raise CheckError(
                f"{step.rule_id}: unification score {step.unification_score!r}, recomputed {expected!r}"
            )
        if len(step.children) != len(rule.body):
            raise CheckError(f"{step.rule_id}: {len(step.children)} children for {len(rule.body)} body atoms")
        binding: dict[str, str] = {}
        if not _bind(rule.head.args, goal_args, binding):
            raise CheckError(f"{step.rule_id}: head does not match goal {goal}")
        for atom, child in zip(rule.body, step.children):
            if child.goal_atom.predicate != atom.predicate:
                raise CheckError(f"{step.rule_id}: child {child.goal_atom} is not body atom {atom.predicate}")
            if not _bind(atom.args, tuple(str(t) for t in child.goal_atom.args), binding):
                raise CheckError(f"{step.rule_id}: child {child.goal_atom} breaks the rule's bindings")
        product *= step.unification_score * rule.score
        steps += 1
        ids.add(step.rule_id)
        stack.extend((child, depth + 1) for child in reversed(step.children))
    if abs(product - proof.proof_score) > PRODUCT_TOLERANCE:
        raise CheckError(f"proof_score {proof.proof_score!r}, product of steps {product!r}")
    if proof.proof_score < proof_threshold:
        raise CheckError(f"proof_score {proof.proof_score!r} below threshold {proof_threshold}")
    return product, steps, frozenset(ids)

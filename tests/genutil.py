"""Shared test machinery: an independent exhaustive proof enumerator, the
named substitutions and renaming that the search's numbered ones are checked
against, the per-pair predicate rule that the candidate scan is checked
against, the proof walk that ``ProofResult.used_fact_ids`` is checked
against, the per-line vector-text loader that ``load_embeddings`` is checked
against, and seeded random generators for knowledge bases, rule documents,
adversarial KB texts and JSON trees.

The oracle re-implements proof enumeration from scratch (plain dicts, an
explicit stack, no pruning, no candidate ranking) so the solver's best proof
can be checked against a full enumeration.  Scores follow the shared
contract: running product, depth-first pre-order, ``running * (unify *
rule_score)`` at every step.
"""

from __future__ import annotations

import io
import itertools
import random
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from softprove.embeddings import EmbeddingError, EmbeddingStore, weak_unify_score
from softprove.logic import (
    Atom,
    Constant,
    GoalSpec,
    KnowledgeBase,
    LogicError,
    MoralViolation,
    Rule,
    Term,
    Variable,
)
from softprove.prover import ProofResult, SolverConfig
from softprove.ruleparse import RuleDocument

PairScore = Callable[[str, str], float]


# -- reference substitutions and renaming -----------------------------------------


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
                raise LogicError(f"variable {name} would bind to itself")
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


def rename_apart(rule: Rule, fresh_name: Callable[[], str]) -> tuple[Atom, tuple[Atom, ...]]:
    """``rule``'s head and body with each of its variables replaced by a new
    one named by ``fresh_name()``, taken by first appearance, head first."""
    mapping: dict[str, Variable] = {}

    def term(t: Term) -> Term:
        if isinstance(t, Variable):
            if t.name not in mapping:
                mapping[t.name] = Variable(fresh_name())
            return mapping[t.name]
        return t

    head = Atom(rule.head.predicate, tuple(term(t) for t in rule.head.args))
    body = tuple(Atom(a.predicate, tuple(term(t) for t in a.args)) for a in rule.body)
    return head, body


def head_score(goal: Atom, head: Atom, store: EmbeddingStore, config: SolverConfig) -> Optional[float]:
    """Predicate score of ``goal`` against rule head ``head``, one pair at a
    time, or None if they cannot unify: arities must be equal, and predicates
    match exactly (score 1.0) or by ``weak_unify_score`` at or above the
    unify threshold."""
    if goal.arity != head.arity:
        return None
    if goal.predicate == head.predicate:
        return 1.0
    score = weak_unify_score(store, goal.predicate, head.predicate)
    return score if score >= config.unify_threshold else None


def facts_in_proof(result: ProofResult, kb: KnowledgeBase) -> set[str]:
    """Ids of the explanation facts whose formalized rules appear in the
    proof, found by walking the proof and looking each step's rule up by id."""
    by_id = {rule.id: rule for rule in kb.rules}
    ids: set[str] = set()
    for step in result.proof.walk():
        rule = by_id[step.rule_id]
        if rule.fact_id is not None:
            ids.add(rule.fact_id)
    return ids


def exact_pair_score(a: str, b: str) -> float:
    return 1.0 if a == b else 0.0


def cosine_pair_table(vectors: dict[str, np.ndarray]) -> PairScore:
    """Independent token-mean cosine scoring over raw vectors."""

    def embed(symbol: str) -> Optional[np.ndarray]:
        hits = [vectors[t] for t in symbol.split("_") if t in vectors]
        return None if not hits else np.mean(np.stack(hits), axis=0).astype(np.float64)

    def score(a: str, b: str) -> float:
        if a == b:
            return 1.0
        key = (a, b) if a <= b else (b, a)
        va, vb = embed(key[0]), embed(key[1])
        if va is None or vb is None:
            return 0.0
        denom = float(np.linalg.norm(va)) * float(np.linalg.norm(vb))
        if denom == 0.0:
            return 0.0
        return max(0.0, min(1.0, float(np.dot(va, vb)) / denom))

    return score


def reference_vectors(data: bytes, limit: Optional[int] = None) -> tuple[list[str], np.ndarray]:
    """The tokens in row order and the float32 matrix of a vector text, read
    one line at a time: each line split on spaces and its components cast by
    ``np.array(components, dtype=np.float32)``.  This is the loader that
    ``load_embeddings`` had before it parsed in blocks, with its error
    messages; it does not check that the vectors are finite."""
    dimension: Optional[int] = None
    vectors: dict[str, np.ndarray] = {}
    loaded = 0
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace")
    with np.errstate(over="ignore"):
        for line_no, raw in enumerate(lines, start=1):
            if limit is not None and loaded >= limit:
                break
            parts = raw.rstrip("\n").split(" ")
            if parts == [""]:
                continue
            token, components = parts[0], parts[1:]
            if not token or not components:
                raise EmbeddingError(f"line {line_no}: line has no vector components")
            if dimension is None:
                dimension = len(components)
            elif len(components) != dimension:
                raise EmbeddingError(f"line {line_no}: expected {dimension} components, got {len(components)}")
            try:
                vec = np.array(components, dtype=np.float32)
            except ValueError as exc:
                raise EmbeddingError(f"line {line_no}: non-numeric vector component") from exc
            vectors.setdefault(token.lower(), vec)
            loaded += 1
    if dimension is None:
        raise EmbeddingError("embedding source contains no vector lines")
    return list(vectors), np.stack(list(vectors.values()))


Proof = tuple[float, int, tuple[str, ...]]  # (score, steps, sorted rule ids)


def oracle_proofs(
    kb: KnowledgeBase,
    goal_atom: Atom,
    pair_score: PairScore,
    unify_threshold: float = 0.5,
    max_depth: int = 10,
) -> Iterator[Proof]:
    """Every complete proof, enumerated without pruning and without recursion.

    Each stack entry is a resolvent: the atoms still to prove, each with its
    depth, under the bindings ``theta``.  Resolving the leftmost atom and
    putting the rule's body in front of the rest applies the steps in
    depth-first pre-order, the order in which the score multiplies.
    """
    fresh = itertools.count()

    def fresh_name() -> str:
        return f"OR{next(fresh)}"

    def walk(theta: dict, term):
        while isinstance(term, Variable) and term.name in theta:
            term = theta[term.name]
        return term

    def unify(goal: Atom, head: Atom, theta: dict) -> Optional[tuple[dict, float]]:
        if goal.arity != head.arity:
            return None
        u = 1.0 if goal.predicate == head.predicate else pair_score(goal.predicate, head.predicate)
        if goal.predicate != head.predicate and u < unify_threshold:
            return None
        theta = dict(theta)
        for left_raw, right_raw in zip(goal.args, head.args):
            left, right = walk(theta, left_raw), walk(theta, right_raw)
            if isinstance(left, Constant) and isinstance(right, Constant):
                if left.symbol != right.symbol:
                    return None
            elif isinstance(left, Variable):
                if not (isinstance(right, Variable) and right.name == left.name):
                    theta[left.name] = right
            else:
                theta[right.name] = left
        return theta, u

    stack = [(((goal_atom, 1),), {}, 1.0, 0, frozenset())]
    while stack:
        goals, theta, running, steps, ids = stack.pop()
        if not goals:
            yield running, steps, tuple(sorted(ids))
            continue
        (atom, depth), rest = goals[0], goals[1:]
        if depth > max_depth:
            continue
        children = []
        for rule in kb.rules:
            if rule.head.arity != atom.arity:
                continue
            head, body = rename_apart(rule, fresh_name)
            unified = unify(atom, head, theta)
            if unified is None:
                continue
            theta1, u = unified
            factor = u * rule.score
            resolvent = tuple((b, depth + 1) for b in body) + rest
            children.append((resolvent, theta1, running * factor, steps + 1, ids | {rule.id}))
        stack.extend(reversed(children))  # the first rule's proofs come first


def oracle_proof_scores(
    kb: KnowledgeBase,
    goal_atom: Atom,
    pair_score: PairScore,
    unify_threshold: float = 0.5,
    max_depth: int = 10,
) -> list[float]:
    """Scores of every complete proof, enumerated without pruning."""
    return [score for score, _, _ in oracle_proofs(kb, goal_atom, pair_score, unify_threshold, max_depth)]


def oracle_best(
    kb: KnowledgeBase,
    goal_atom: Atom,
    pair_score: PairScore,
    unify_threshold: float = 0.5,
    proof_threshold: float = 0.13,
    max_depth: int = 10,
) -> Optional[Proof]:
    """The contract's best proof among those that clear the threshold: the
    highest score, then the fewest steps, then the smallest sorted rule-id set."""
    accepted = [
        proof
        for proof in oracle_proofs(kb, goal_atom, pair_score, unify_threshold, max_depth)
        if proof[0] >= proof_threshold
    ]
    return min(accepted, key=lambda proof: (-proof[0], proof[1], proof[2]), default=None)


# -- random knowledge bases -----------------------------------------------------

_FOUNDATION_GOALS = {
    "violate_care_physical": MoralViolation.CARE,
    "violate_fairness": MoralViolation.FAIRNESS,
    "violate_authority": MoralViolation.AUTHORITY,
    "violate_liberty": MoralViolation.LIBERTY,
}


def random_layered_kb(
    rng: random.Random, max_rules: int = 8, dim: int = 16
) -> tuple[KnowledgeBase, GoalSpec, dict[str, np.ndarray]]:
    """A small layered KB plus per-predicate random vectors.

    Bodies only reference the next layer down, so exact-match recursion is
    impossible; weak unification may still connect arbitrary layers, which the
    depth limit bounds.
    """
    n_layers = rng.randint(2, 3)
    layers: list[list[tuple[str, int]]] = []
    serial = rng.randint(0, 999)
    for level in range(n_layers):
        preds = []
        for i in range(rng.randint(1, 2)):
            preds.append((f"q{serial}x{level}x{i}", rng.choice((1, 2))))
        layers.append(preds)

    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    consts = [Constant("a"), Constant("b")]
    rules: list[Rule] = []

    def score() -> float:
        return round(rng.uniform(0.5, 1.0), 6)

    def head_atom(pred: str, arity: int) -> Atom:
        return Atom(pred, (x,) if arity == 1 else (x, z))

    def body_atoms(arity: int, below: list[tuple[str, int]]) -> tuple[Atom, ...]:
        p1, a1 = rng.choice(below)
        if arity == 1:
            return (Atom(p1, (x,) if a1 == 1 else (x, y)),)
        p2, a2 = rng.choice(below)
        first = Atom(p1, (x,) if a1 == 1 else (x, y))
        second = Atom(p2, (z,) if a2 == 1 else (y if a1 == 2 else x, z))
        return (first, second)

    count = 0
    for level in range(n_layers - 1):
        for pred, arity in layers[level]:
            for _ in range(rng.randint(1, 2)):
                if count >= max_rules - len(layers[-1]):
                    break
                rules.append(
                    Rule(
                        head=head_atom(pred, arity),
                        body=body_atoms(arity, layers[level + 1]),
                        score=score(),
                        id=f"r{count}",
                    )
                )
                count += 1
    for pred, arity in layers[-1]:
        args = tuple(rng.choice(consts) for _ in range(arity))
        rules.append(Rule(head=Atom(pred, args), body=(), score=score(), id=f"r{count}"))
        count += 1

    goal_pred, violation = rng.choice(sorted(_FOUNDATION_GOALS.items()))
    top_pred, top_arity = layers[0][0]
    rules.insert(
        0,
        Rule(
            head=Atom(goal_pred, (x, z)),
            body=body_atoms(2, layers[0]),
            score=score(),
            id="root",
        ),
    )
    goal = GoalSpec(violation, Atom(goal_pred, (Constant("a"), rng.choice(consts))))

    vec_rng = np.random.default_rng(rng.randint(0, 2**31))
    vectors = {}
    # Sorted, so that which predicate gets which vector does not depend on
    # PYTHONHASHSEED.
    for pred in sorted({r.head.predicate for r in rules} | {a.predicate for r in rules for a in r.body}):
        v = vec_rng.normal(size=dim)
        vectors[pred] = v / np.linalg.norm(v)
    return KnowledgeBase(tuple(rules), (goal,)), goal, vectors


def with_definitional_cycles(
    rng: random.Random, kb: KnowledgeBase, cycle_score: Optional[float] = None, cycles: int = 2
) -> KnowledgeBase:
    """``kb`` plus ``cycles`` definitional 2-cycles ``p :- q`` and ``q :- p``,
    each between two of its predicates of one arity (the same predicate twice
    gives a self-loop), as paraphrased explanations produce them.

    The arguments are the same variables on both sides, so the goal two steps
    down is identical to the one above it.  Each rule scores ``cycle_score``,
    or a random score in [0.5, 1.0) if it is None; the pairs go in at random
    positions, with ids ``c0``, ``c1``, ...
    """
    predicates = sorted({(a.predicate, a.arity) for r in kb.rules for a in (r.head,) + r.body})
    rules = list(kb.rules)
    variables = (Variable("X"), Variable("Z"))
    for n in range(cycles):
        p, arity = rng.choice(predicates)
        q = rng.choice([name for name, other in predicates if other == arity])
        args = variables[:arity]
        for i, (head, body) in enumerate(((p, q), (q, p))):
            score = cycle_score if cycle_score is not None else round(rng.uniform(0.5, 0.999999), 6)
            rule = Rule(Atom(head, args), (Atom(body, args),), score, f"c{2 * n + i}")
            rules.insert(rng.randint(0, len(rules)), rule)
    return KnowledgeBase(tuple(rules), kb.goals)


# -- random rule documents ------------------------------------------------------

_GOAL_PREDICATES = sorted(_FOUNDATION_GOALS)


def random_document(rng: random.Random, max_rules: int = 6) -> RuleDocument:
    """A structurally valid document with parser-compatible rule ids."""

    def symbol() -> str:
        return "".join(rng.choice("abcdefgh_") for _ in range(rng.randint(1, 6))).strip("_") or "p"

    def pred() -> str:
        return ("p" + symbol())[:12]

    def term():
        if rng.random() < 0.5:
            return Variable(rng.choice("XYZW"))
        return Constant(("c" + symbol())[:10])

    def atom() -> Atom:
        return Atom(pred(), tuple(term() for _ in range(rng.randint(1, 3))))

    def parseable_score() -> float:
        digits = rng.randint(1, 6)
        value = round(rng.uniform(10**-digits, 1.0), digits)
        return min(1.0, max(10**-6, value))

    rules = tuple(
        Rule(
            head=atom(),
            body=tuple(atom() for _ in range(rng.randint(0, 3))),
            score=parseable_score(),
            id=f"r{i}",
        )
        for i in range(rng.randint(0, max_rules))
    )
    goal_decls = tuple(
        GoalSpec(
            _FOUNDATION_GOALS[p],
            Atom(p, (Constant("action"), Constant("patient"))),
        )
        for p in rng.sample(_GOAL_PREDICATES, rng.randint(0, 2))
    )
    return RuleDocument(rules=rules, goal_decls=goal_decls)


# -- adversarial knowledge bases ------------------------------------------------
#
# KB shapes that an LLM may emit and that stress the search.  Each generator
# returns the KB's text, the extra ``prove`` flags it needs, and the most
# ``weak_unify_atoms`` calls one search of it may make.

_ADVERSARIAL_GOAL = "goal <- violate_care_physical(action,patient)."


def _adversarial_text(clauses: list[str]) -> str:
    return "\n".join([*clauses, _ADVERSARIAL_GOAL]) + "\n"


def definitional_cycles_kb(rng: random.Random) -> tuple[str, list[str], int]:
    """Definitional rules ``c<i>(...) :- c<j>(...)`` among ``k`` predicates, each
    with one or two outgoing edges, so that cycles of any length up to ``k``
    appear; arguments may swap along an edge.  A fact ends some of them.

    The bound is about four times the most that 200 of these KBs take; the
    ancestor cut is what keeps them under it (without it, up to 1,279)."""
    k = rng.randint(2, 6)
    pair = ("X", "Y")
    clauses = ["violate_care_physical(X,Y) :- c0(X,Y)."]
    for i in range(k):
        for j in rng.sample(range(k), rng.randint(1, 2)):
            body = pair if rng.random() < 0.5 else pair[::-1]
            clauses.append(f"c{i}(X,Y) :- c{j}({','.join(body)}). = {rng.choice(('1.0', '0.9'))}")
    if rng.random() < 0.5:
        clauses.append(f"c{rng.randrange(k)}(action,patient).")
    rng.shuffle(clauses)
    return _adversarial_text(clauses), [], 400


def long_body_kb(rng: random.Random) -> tuple[str, list[str], int]:
    """One rule with a body of up to 1,200 atoms, one fact for each body atom
    but perhaps one: each goal has one candidate, so a search unifies at most
    once per atom and once for the rule."""
    n = rng.choice((1, 2, rng.randint(3, 1200), 1200))
    atoms = [f"q{i}(X)" if rng.random() < 0.5 else f"q{i}(X,Y)" for i in range(n)]
    facts = [a.replace("X", "action").replace("Y", "patient") + "." for a in atoms]
    if rng.random() < 0.25:
        del facts[rng.randrange(n)]
    return _adversarial_text([f"violate_care_physical(X,Y) :- {', '.join(atoms)}.", *facts]), [], n + 1


def tying_proofs_kb(rng: random.Random) -> tuple[str, list[str], int]:
    """``copies`` facts ``p(action)`` under a body of ``m`` atoms ``p(X)``:
    ``copies ** m`` proofs scoring 1.0, under the proof budget.  Nothing is
    cut, so a search unifies once per node of the tree of partial proofs."""
    m = rng.randint(1, 3)
    copies = rng.randint(2, int(9_999 ** (1 / m)))
    clauses = [f"violate_care_physical(X,Y) :- {', '.join(['p(X)'] * m)}.", *["p(action)."] * copies]
    return _adversarial_text(clauses), [], sum(copies**i for i in range(m + 1))


def arity_three_kb(rng: random.Random) -> tuple[str, list[str], int]:
    """Three layers of arity-3 predicates whose rules permute and share their
    variables and may name role constants; the last layer holds facts.  The
    bound is over twice the most that 200 of these KBs take."""
    layers = [[f"t{level}x{i}" for i in range(rng.randint(1, 3))] for level in range(3)]

    def atom(predicate: str, variables: bool) -> str:
        terms = ("X", "Y", "Z", "action", "patient") if variables else ("action", "patient")
        return f"{predicate}({','.join(rng.choice(terms) for _ in range(3))})"

    clauses = [f"violate_care_physical(X,Y) :- {atom(layers[0][0], True)}, {atom(rng.choice(layers[0]), True)}."]
    for upper, lower in zip(layers, layers[1:]):
        for predicate in upper:
            for _ in range(rng.randint(1, 3)):
                body = ", ".join(atom(rng.choice(lower), True) for _ in range(rng.randint(1, 2)))
                clauses.append(f"{predicate}(X,Y,Z) :- {body}. = {rng.choice(('1.0', '0.8'))}")
    clauses += [f"{atom(predicate, False)}." for predicate in layers[-1] for _ in range(rng.randint(1, 6))]
    rng.shuffle(clauses)
    return _adversarial_text(clauses), [], 5_000


def chain_kb(rng: random.Random) -> tuple[str, list[str], int]:
    """A chain of ``length`` steps, proved at ``--max-depth`` at or above its
    length and not below: one candidate per goal, so at most one unification
    per step."""
    length = rng.randint(1, 256)
    max_depth = rng.choice((length, length - 1, rng.randint(1, 256))) or 1
    if length == 1:
        clauses = ["violate_care_physical(action,patient)."]
    else:
        clauses = ["violate_care_physical(X,Y) :- c0(X).", *(f"c{i}(X) :- c{i + 1}(X)." for i in range(length - 2))]
        clauses.append(f"c{length - 2}(action).")
    return _adversarial_text(clauses), ["--max-depth", str(max_depth)], length


ADVERSARIAL_FAMILIES = {
    "definitional_cycles": definitional_cycles_kb,
    "long_body": long_body_kb,
    "tying_proofs": tying_proofs_kb,
    "arity_three": arity_three_kb,
    "chain": chain_kb,
}


# -- JSON trees ----------------------------------------------------------------

# Characters the string encoder escapes or passes through: quotes, backslash,
# control characters, DEL, non-ASCII letters, an emoji (a surrogate pair in
# the output), lone surrogates and the separators JavaScript treats as line
# ends.
_JSON_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\r", "\x08", "\x0c", "é", "ß", "π", "\u2028",
               "\u2029", "\ufeff", "\U0001F600", "\ud800", "\udfff", "a", "Z", "0", " ", "_"]
_JSON_FLOATS = [0.0, -0.0, 1.0, -1.5, 1e-07, 1e16, 5e-324, 1.7976931348623157e308, 0.1, float("nan"),
                float("inf"), float("-inf")]


def random_json_text(rng: random.Random) -> str:
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randint(0, 8)))


def random_json_scalar(rng: random.Random) -> object:
    pick = rng.randrange(7)
    if pick == 0:
        return random_json_text(rng)
    if pick == 1:
        return rng.choice([0, -1, 7, 2**63, -(2**100), 10**30])
    if pick == 2:
        return rng.choice(_JSON_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if pick == 3:
        return rng.random() < 0.5
    if pick == 4:
        return None
    if pick == 5:
        return rng.choice([[], {}, (), [[]], [{}], {"": []}, {"k": {}}])
    return rng.getrandbits(64) / 2.0**rng.randint(0, 80)


def random_json_tree(rng: random.Random, depth: int = 4) -> object:
    """A tree of what ``json.dumps`` accepts: dicts (with str, int, float,
    bool and None keys), lists and tuples down to ``depth`` levels, over
    ``random_json_scalar`` leaves.  Built from ``rng`` alone, so it is the
    same under any hash seed."""
    if depth == 0 or rng.random() < 0.3:
        return random_json_scalar(rng)
    size = rng.randint(0, 5)
    pick = rng.randrange(3)
    if pick == 0:
        return [random_json_tree(rng, depth - 1) for _ in range(size)]
    if pick == 1:
        return tuple(random_json_tree(rng, depth - 1) for _ in range(size))
    keys = [
        random_json_text(rng) if rng.random() < 0.8 else rng.choice([1, -2, 2**70, 0.5, 1e-07, True, False, None])
        for _ in range(size)
    ]
    return {key: random_json_tree(rng, depth - 1) for key in keys}

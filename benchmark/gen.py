"""Seeded input generator for the layered benchmark.

    python3 benchmark/gen.py --workload corpus --seed 7 --out .bench_inputs/corpus

Writes, from the seed alone: a GloVe-format vocabulary, its SPEMB1 cache
(built with the program's own ``load_embeddings_cached``), the workload's case, KB, seed and transcript
files, ``oracle.json`` (the token vectors the checks need) and ``expect.json``
(the verdict of every input, worked out here apart from the program).  Every
verdict is confirmed by ``oracle.score_bounds`` before it is written; an input
whose verdict cannot be confirmed is drawn again with the next numbers.

This runs in its own process so that its memory does not count in the
benchmark's ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import env
import oracle
from oracle import PROOF_THRESHOLD, UNIFY_THRESHOLD, UNIT, Atom, Clause

DIM = 100
REL_DIMS = 64  # inputs' vocabulary lives in dims [0, 64); filler tokens in [64, 100)
NORM = 5.0
CROSS_NOISE = 0.1  # relative norm of a token's component outside its own subspace
VOCAB_SIZE = 50_000
SMALL_VOCAB_SIZE = 2_000
FILLER_POOL = 2_000  # filler tokens that name large_kb filler predicates

CLEAN_BELOW = 0.40  # unplanted same-arity symbol pairs stay under this cosine
REJECT_ABOVE = 0.30  # a fresh token is redrawn while it scores this high against its neighbours
WEAK_LINK = (0.85, 0.97)  # planted paraphrase heads that unify
NEAR_MISS = (0.40, 0.46)  # planted heads just under the unify threshold
LOW_ROUTE = (0.55, 0.60)  # planted heads that unify but give a worse proof

PLANT_ATTEMPTS = 50

CORPUS_CASES = 24
LARGE_KB_SIZES = (500, 1000, 2000, 4000)
REFINE_SEEDS = 8
REFINE_FAULT_EVERY = 8  # every 8th refine seed runs with max_iterations=1

# Tokens of the shipped principle predicates.  ``violate`` stays out of the
# vocabulary; tokens shared by several predicates get a smaller norm so that
# no two principle predicates of one arity reach CLEAN_BELOW.
ABSENT_TOKENS = ("violate",)
SHARED_TOKEN_NORM = {"harm": 0.5, "act": 0.5, "authority": 0.5, "group": 0.5, "care": 0.5, "the": 0.6}


class Rejected(Exception):
    """A planted input whose verdict could not be confirmed; it is drawn again."""


def planted(plant, *args) -> dict:
    """``plant(*args)``, drawn again with the generator's next numbers until confirmed."""
    for _ in range(PLANT_ATTEMPTS):
        try:
            return plant(*args)
        except Rejected:
            continue
    raise SystemExit(f"{plant.__name__}{args[2:]}: no confirmed input in {PLANT_ATTEMPTS} draws")


def _words(rng: np.random.Generator, count: int, reserved: set[str]) -> list[str]:
    """Distinct pronounceable pseudo-words, none of them in ``reserved``."""
    syllables = np.array([c + v for c in "bdfgklmnprstvz" for v in "aeiou"] + [""])
    out: list[str] = []
    seen = set(reserved)
    while len(out) < count:
        batch = max(64, 2 * (count - len(out)))
        picks = rng.integers(0, len(syllables) - 1, size=(batch, 4))
        lengths = rng.integers(2, 5, size=batch)
        picks[np.arange(4)[None, :] >= lengths[:, None]] = len(syllables) - 1  # "" pads short words
        for word in np.char.add(np.char.add(syllables[picks[:, 0]], syllables[picks[:, 1]]),
                                np.char.add(syllables[picks[:, 2]], syllables[picks[:, 3]])).tolist():
            if word not in seen:
                seen.add(word)
                out.append(word)
                if len(out) == count:
                    break
    return out


class Vocab:
    """Token vectors under construction; every component a multiple of UNIT."""

    def __init__(self, rng: np.random.Generator, principle_tokens: list[str]) -> None:
        self.rng = rng
        self.ints: dict[str, np.ndarray] = {}
        self.vectors = oracle.Vectors(self.ints, ABSENT_TOKENS)
        basis, _ = np.linalg.qr(rng.normal(size=(REL_DIMS, REL_DIMS)))
        if len(principle_tokens) > REL_DIMS:
            raise SystemExit("more principle tokens than dimensions")
        for i, token in enumerate(principle_tokens):
            vec = np.zeros(DIM)
            vec[:REL_DIMS] = basis[:, i] * NORM * SHARED_TOKEN_NORM.get(token, 1.0)
            self.put(token, self._with_cross_noise(vec, filler=False))
        self._fresh_words: list[str] = []
        self._filler_pool: list[str] = []
        self._filler_used: set[str] = set()
        self.reserved = set(principle_tokens) | set(ABSENT_TOKENS)

    def _with_cross_noise(self, vec: np.ndarray, filler: bool) -> np.ndarray:
        norm = float(np.linalg.norm(vec))
        noise = np.zeros(DIM)
        if filler:
            noise[:REL_DIMS] = self.rng.normal(size=REL_DIMS)
        else:
            noise[REL_DIMS:] = self.rng.normal(size=DIM - REL_DIMS)
        return vec + noise / np.linalg.norm(noise) * norm * CROSS_NOISE

    def put(self, token: str, vec: np.ndarray) -> None:
        if token in self.ints:
            raise SystemExit(f"token {token!r} generated twice")
        self.ints[token] = np.rint(vec / UNIT).astype(np.int64)

    def word(self) -> str:
        if not self._fresh_words:
            self._fresh_words = _words(self.rng, 256, self.reserved)
            self.reserved.update(self._fresh_words)
        return self._fresh_words.pop()

    def unit(self, symbol: str) -> np.ndarray:
        vec = np.array(self.vectors.symbol(symbol))
        return vec / np.linalg.norm(vec)

    def fresh(self, avoid: list[str], toward: Optional[str] = None, cosine: float = 0.0, norm: float = 1.0) -> str:
        """A new single-token symbol, optionally at a set cosine to ``toward``.

        Its direction is redrawn until it scores under REJECT_ABOVE against
        every symbol in ``avoid``.
        """
        token = self.word()
        others = [s for s in avoid if s != toward]
        avoid_units = np.stack([self.unit(s) for s in others]) if others else np.zeros((0, DIM))
        limit = np.full(len(others), REJECT_ABOVE)
        if toward is not None:
            t = self.unit(toward)
            # A paraphrase inherits part of its target's similarity to others.
            limit = np.minimum(CLEAN_BELOW - 0.02, limit + np.maximum(0.0, cosine * (avoid_units @ t)))
        for _ in range(1000):
            r = np.zeros(DIM)
            r[:REL_DIMS] = self.rng.normal(size=REL_DIMS)
            if toward is not None:
                r -= (r @ t) * t
                r = cosine * t + math.sqrt(1.0 - cosine * cosine) * r / np.linalg.norm(r)
            else:
                r /= np.linalg.norm(r)
            if not others or bool(np.all(avoid_units @ r < limit)):
                break
        else:
            raise Rejected("could not place a token away from its neighbours")
        self.put(token, self._with_cross_noise(r * NORM * norm, filler=False))
        return token

    def filler(self, count: int) -> list[str]:
        words = _words(self.rng, count, self.reserved)
        self.reserved.update(words)
        main = self.rng.normal(size=(count, DIM - REL_DIMS))
        main *= NORM / np.linalg.norm(main, axis=1, keepdims=True)
        cross = self.rng.normal(size=(count, REL_DIMS))
        cross *= NORM * CROSS_NOISE / np.linalg.norm(cross, axis=1, keepdims=True)
        ints = np.rint(np.hstack([cross, main]) / UNIT).astype(np.int64)
        for token, row in zip(words, ints):
            if token in self.ints:
                raise SystemExit(f"token {token!r} generated twice")
            self.ints[token] = row
        return words

    def filler_symbols(self, count: int) -> list[str]:
        """Distinct two-token symbols over a shared pool of filler tokens.

        Each symbol is new to the run, so its scores start cold, while its
        tokens come from a modest vocabulary, as multiword predicates do.
        """
        if not self._filler_pool:
            self._filler_pool = self.filler(FILLER_POOL)
        pool = self._filler_pool
        out: list[str] = []
        while len(out) < count:
            a, b = (pool[i] for i in self.rng.integers(0, len(pool), size=2))
            symbol = f"{a}_{b}"
            if a != b and symbol not in self._filler_used:
                self._filler_used.add(symbol)
                out.append(symbol)
        return out

    def write(self, path: Path, size: int) -> None:
        """Pad with filler to ``size`` tokens and write GloVe text in a seeded order."""
        missing = size - len(self.ints)
        if missing > 0:
            self.filler(missing)
        tokens = list(self.ints)
        order = self.rng.permutation(len(tokens))
        matrix = np.stack([self.ints[t] for t in tokens])
        low = int(matrix.min())
        table = [repr(j * UNIT) for j in range(low, int(matrix.max()) + 1)]
        with open(path, "w", encoding="utf-8") as fh:
            for i in order:
                fh.write(tokens[i] + " " + " ".join([table[j - low] for j in matrix[i].tolist()]) + "\n")

    def oracle_doc(self, tokens: set[str]) -> dict:
        return {
            "tokens": {t: self.ints[t].tolist() for t in sorted(tokens) if t in self.ints},
            "absent": list(ABSENT_TOKENS),
        }


# -- principles ---------------------------------------------------------------


@dataclass
class Library:
    rules: dict[str, Clause]
    goals: list[Atom]

    def tokens(self) -> list[str]:
        seen: dict[str, None] = {}
        for rule in self.rules.values():
            for a in (rule.head,) + rule.body:
                for t in a.predicate.split("_"):
                    seen.setdefault(t, None)
        for t in ("the", "i"):
            seen.setdefault(t, None)
        return [t for t in seen if t not in ABSENT_TOKENS]

    def defining(self, predicate: str) -> list[tuple[str, Clause]]:
        return [(rid, r) for rid, r in self.rules.items() if r.head.predicate == predicate]


def load_library() -> Library:
    rules, goals = oracle.read_rule_file(env.principles_path().read_text("utf-8"), "p")
    return Library(rules, goals)


# -- planted explanations -----------------------------------------------------


@dataclass
class Plan:
    """Explanation facts of one case, and the proof they were planted for."""

    clauses: list[Clause] = field(default_factory=list)  # one per fact, fact ids f1..
    used: set[int] = field(default_factory=set)  # indexes into clauses
    proof_rules: list[str] = field(default_factory=list)  # non-generated rule ids of the proof
    score: float = 1.0
    steps: int = 0

    def add(self, head: str, body: str, score: float = 1.0, used: bool = False) -> None:
        """Add the fact clause ``head(X) :- body(X). = score``."""
        if used:
            self.used.add(len(self.clauses))
        self.clauses.append(Clause(Atom(head, ("X",)), (Atom(body, ("X",)),), score))


def plant_link(
    vocab: Vocab, plan: Plan, avoid: list[str], needed: str, body: str, weak: bool, rule_score: float, near_miss: bool = False
) -> str:
    """Add ``needed(X) :- body(X)``, or a paraphrase head at a set cosine.

    Returns the head symbol written.  A near-miss head breaks the link.
    """
    head = needed
    if weak or near_miss:
        low, high = NEAR_MISS if near_miss else WEAK_LINK
        head = vocab.fresh(avoid, toward=needed, cosine=float(vocab.rng.uniform(low, high)))
        avoid.append(head)
    plan.add(head, body, rule_score, used=not near_miss)
    if not near_miss:
        plan.score *= vocab.vectors.similarity(needed, head) * rule_score
        plan.steps += 1
    return head


# -- corpus --------------------------------------------------------------------

# Eight-case pattern of outcome kinds and of definitional 2-cycles per case.
# These shares are synthetic, not measured on real explanations; each is set
# for the metric it exposes.  Every kind is present, so that each verifier
# path is timed in latency_p50_ms; redundant cases are half, because the
# cycles are redundant facts.  A quarter of the cases carry two cycles, so
# that latency_p90_ms falls among them and a bounded-search change moves it;
# redundant cases without a cycle carry a distractor fact instead.
CORPUS_KINDS = (
    "valid_non_redundant",
    "valid_redundant",
    "invalid_mismatch",
    "valid_redundant",
    "valid_non_redundant",
    "invalid_no_proof",
    "valid_redundant",
    "valid_redundant",
)
CORPUS_CYCLES = (0, 2, 0, 1, 0, 1, 0, 2)
CORPUS_GOALS = (
    "violate_care_physical",
    "violate_fairness",
    "violate_authority",
    "violate_sanctity",
    "violate_liberty",
    "violate_care_emotional",
    "violate_loyalty",
)
FOUNDATION = {
    "violate_care_physical": "care",
    "violate_care_emotional": "care",
    "violate_fairness": "fairness",
    "violate_loyalty": "loyalty",
    "violate_authority": "authority",
    "violate_sanctity": "sanctity",
    "violate_liberty": "liberty",
}
FOUNDATIONS = ("care", "fairness", "loyalty", "authority", "sanctity", "liberty")


def srl_facts(verb: str, noun: str) -> dict[str, Clause]:
    """The frame facts the program grounds for ``I <verb> the <noun>``."""
    return {
        "srl_action": Clause(Atom(verb, ("action",)), (), 1.0),
        "srl_patient": Clause(Atom(f"the_{noun}", ("patient",)), (), 1.0),
        "srl_patient_head": Clause(Atom(noun, ("patient",)), (), 1.0),
        "srl_agent": Clause(Atom("i", ("agent",)), (), 1.0),
    }


def arity_one_symbols(library: Library) -> list[str]:
    seen: dict[str, None] = {}
    for rule in library.rules.values():
        for a in (rule.head,) + rule.body:
            if len(a.args) == 1:
                seen.setdefault(a.predicate, None)
    return list(seen)


def plant_case(vocab: Vocab, library: Library, index: int) -> dict:
    kind = CORPUS_KINDS[index % len(CORPUS_KINDS)]
    cycles = CORPUS_CYCLES[index % len(CORPUS_CYCLES)]
    goal = CORPUS_GOALS[index % len(CORPUS_GOALS)]
    depth = 1 + index % 4
    weak_links = index % 3
    roots = library.defining(goal)
    root_id, root = roots[(index // len(CORPUS_GOALS)) % len(roots)]

    avoid = arity_one_symbols(library) + ["the", "i"]
    verb = vocab.fresh(avoid)
    avoid.append(verb)
    noun = vocab.fresh(avoid)
    avoid += [noun, f"the_{noun}"]

    plan = Plan(proof_rules=[root_id], steps=1, score=root.score)
    action_links: list[tuple[str, str]] = []  # (head written, body) of action-side rules
    patient_links: list[tuple[str, str]] = []
    first_chain = True
    for atom in root.body:
        if atom.args[0] == "X":
            chain = [atom.predicate] + [vocab.fresh(avoid) for _ in range((depth if first_chain else 1) - 1)]
            avoid.extend(chain[1:])
            for level, needed in enumerate(chain):
                body = chain[level + 1] if level + 1 < len(chain) else verb
                weak = first_chain and level < weak_links
                near = first_chain and kind == "invalid_no_proof" and level == len(chain) - 1
                rule_score = 0.95 if (first_chain and level == 0 and index % 2) else 1.0
                head = plant_link(vocab, plan, avoid, needed, body, weak, rule_score, near_miss=near)
                action_links.append((head, body))
            plan.proof_rules.append("srl_action")
            plan.steps += 1
            first_chain = False
        else:
            needed = atom.predicate
            helpers = library.defining(needed)
            if helpers:
                helper_id, helper = helpers[index % len(helpers)]
                plan.proof_rules.append(helper_id)
                plan.steps += 1
                needed = helper.body[0].predicate
            head = plant_link(vocab, plan, avoid, needed, noun, False, 1.0)
            patient_links.append((head, noun))
            plan.proof_rules.append("srl_patient_head")
            plan.steps += 1

    # Definitional 2-cycles, as paraphrasing produces them: reverse a planted rule.
    reversible = patient_links[:1] + action_links[-1:] + action_links[:1]
    for head, body in reversible[:cycles]:
        plan.add(body, head)
    if kind == "valid_redundant" and cycles == 0:
        if weak_links:
            plan.add(vocab.fresh(avoid), vocab.fresh(avoid))  # unrelated fact
        else:
            target = root.body[0].predicate  # a worse second route to the first body atom
            low = vocab.fresh(avoid, toward=target, cosine=float(vocab.rng.uniform(*LOW_ROUTE)))
            plan.add(low, verb)

    order = [int(i) for i in vocab.rng.permutation(len(plan.clauses))]
    fact_ids = {old: f"f{new + 1}" for new, old in enumerate(order)}
    generated = {f"g_{fact_ids[i]}_0": plan.clauses[i] for i in order}
    planted_ids = sorted(set(plan.proof_rules) | {f"g_{fact_ids[i]}_0" for i in plan.used})

    foundation = FOUNDATION[goal]
    hypothesis = foundation
    if kind == "invalid_mismatch":
        hypothesis = FOUNDATIONS[(FOUNDATIONS.index(foundation) + 1 + index) % len(FOUNDATIONS)]
        if hypothesis == foundation:
            hypothesis = FOUNDATIONS[(FOUNDATIONS.index(foundation) + 1) % len(FOUNDATIONS)]

    rules = dict(library.rules)
    rules.update(srl_facts(verb, noun))
    rules.update(generated)
    confirm_verdict(
        vocab, library.goals, list(rules.values()), goal if kind != "invalid_no_proof" else None, plan.score
    )
    unused = sorted(fact_ids[i] for i in range(len(plan.clauses)) if i not in plan.used)
    if kind == "valid_redundant" and not unused:
        raise SystemExit("redundant case planted without an unused fact")
    if kind == "valid_non_redundant" and unused:
        raise SystemExit("non-redundant case planted with an unused fact")

    statement = f"I {verb} the {noun}"
    case = {
        "id": f"case{index:02d}",
        "statement": statement,
        "frame": {"statement": statement, "action": verb, "agent": "I", "patient": f"the {noun}"},
        "nl_facts": [
            {"id": fact_ids[i], "text": sentence(plan.clauses[i])} for i in order
        ],
        "hypothesis": hypothesis,
        "gold_violation": foundation,
        "rules": [{"fact_id": fact_ids[i], "clause": oracle.format_clause(plan.clauses[i])} for i in order],
    }
    solved = kind != "invalid_no_proof"
    expect = {
        "file": f"case{index:02d}.json",
        "kind": kind,
        "entailed": foundation if solved else None,
        "unused": unused if kind == "valid_redundant" else [],
        "score": plan.score if solved else None,
        "steps": plan.steps if solved else None,
        "rule_ids": planted_ids if solved else None,
        "cycles": cycles,
        "rules": {rid: oracle.format_clause(c) for rid, c in list(srl_facts(verb, noun).items()) + list(generated.items())},
    }
    return {"case": case, "expect": expect, "tokens": token_set(rules.values())}


def sentence(clause: Clause) -> str:
    head = clause.head.predicate.replace("_", " ")
    if not clause.body:
        return f"It is {head}."
    body = clause.body[0].predicate.replace("_", " ")
    return f"Whatever is {body} is {head}."


def token_set(clauses) -> set[str]:
    tokens = set()
    for clause in clauses:
        for a in (clause.head,) + clause.body:
            tokens.update(a.predicate.split("_"))
    return tokens


def confirm_verdict(
    vocab: Vocab, goals: list[Atom], rules: list[Clause], winner: Optional[str], planted_score: float
) -> None:
    """Stop unless the bounds agree with the planted verdict.

    The planted goal's bound must equal the planted proof's score, and every
    other goal's bound must be strictly lower; with no planted goal, every
    goal's bound must be 0 (no fact reachable).
    """
    check_clean(vocab, rules)
    bounds = oracle.score_bounds(goals, Matcher(vocab, rules))
    for goal in goals:
        bound = bounds[(goal.predicate, len(goal.args))]
        if winner is None:
            ok = bound == 0.0
        elif goal.predicate == winner:
            ok = abs(bound - planted_score) <= oracle.SCORE_TOLERANCE and planted_score >= PROOF_THRESHOLD
        else:
            ok = bound < planted_score - oracle.PRODUCT_TOLERANCE
        if not ok:
            raise Rejected(
                f"planted verdict not confirmed: goal {goal.predicate} bound {bound!r},"
                f" winner {winner}, planted score {planted_score!r}"
            )


def check_clean(vocab: Vocab, rules: list[Clause]) -> None:
    """No same-arity symbol pair may sit between CLEAN_BELOW and the threshold."""
    by_arity: dict[int, set[str]] = {}
    for rule in rules:
        for a in (rule.head,) + rule.body:
            by_arity.setdefault(len(a.args), set()).add(a.predicate)
    for symbols in by_arity.values():
        ordered = sorted(symbols)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                s = vocab.vectors.similarity(a, b)
                planted_near_miss = NEAR_MISS[0] - 0.02 <= s <= NEAR_MISS[1] + 0.02
                if CLEAN_BELOW <= s < UNIFY_THRESHOLD + 0.02 and not planted_near_miss:
                    raise Rejected(f"symbols {a} and {b} score {s:.4f}, too close to the threshold")


def gen_corpus(vocab: Vocab, library: Library, out: Path, count: int) -> set[str]:
    (out / "cases").mkdir()
    expects = []
    tokens: set[str] = set()
    for index in range(count):
        made = planted(plant_case, vocab, library, index)
        (out / "cases" / made["expect"]["file"]).write_text(json.dumps(made["case"], indent=2), "utf-8")
        expects.append(made["expect"])
        tokens |= made["tokens"]
    (out / "expect.json").write_text(json.dumps({"cases": expects}, indent=1), "utf-8")
    return tokens


# -- large_kb ------------------------------------------------------------------


class Matcher:
    """``match`` for ``oracle.score_bounds``: numpy picks candidate heads, the oracle scores them."""

    def __init__(self, vocab: Vocab, rules: list[Clause]) -> None:
        self.vocab = vocab
        self.by_arity: dict[int, tuple[list[Clause], np.ndarray]] = {}
        groups: dict[int, list[Clause]] = {}
        for rule in rules:
            groups.setdefault(len(rule.head.args), []).append(rule)
        for arity, group in groups.items():
            units = np.stack([self.vocab.unit(r.head.predicate) for r in group])
            self.by_arity[arity] = (group, units)

    def __call__(self, predicate: str, arity: int) -> list[tuple[float, Clause]]:
        group, units = self.by_arity.get(arity, ([], np.zeros((0, DIM))))
        if not group:
            return []
        rough = units @ self.vocab.unit(predicate)
        found = []
        for i in np.nonzero(rough >= CLEAN_BELOW - 0.05)[0].tolist():
            rule = group[i]
            sim = self.vocab.vectors.similarity(predicate, rule.head.predicate)
            if sim >= UNIFY_THRESHOLD:
                found.append((sim, rule))
        return found


def plant_kb(vocab: Vocab, library: Library, index: int, size: int) -> dict:
    goals = list(CORPUS_GOALS)
    solvable = goals[index % len(goals)]
    unsolvable = goals[(index + 3) % len(goals)]
    X, Y = "X", "Y"
    avoid = arity_one_symbols(library)
    planted: list[tuple[Clause, bool]] = []  # (clause, in the planted proof)
    score = 1.0

    def rule(head: str, body: list[str], s: float = 1.0, args=(X,)) -> Clause:
        return Clause(Atom(head, args), tuple(Atom(b, (X,)) for b in body), s)

    chain = [vocab.fresh(avoid) for _ in range(5)]
    avoid += chain
    kinds = [vocab.fresh(avoid) for _ in range(2)]
    avoid += kinds
    planted.append((Clause(Atom(solvable, (X, Y)), (Atom(chain[0], (X,)), Atom(kinds[0], (Y,))), 1.0), True))
    for level in range(len(chain) - 1):
        needed, body = chain[level], chain[level + 1]
        head = needed
        if level in (1, 3):  # two planted weak links
            head = vocab.fresh(avoid, toward=needed, cosine=float(vocab.rng.uniform(*WEAK_LINK)))
            avoid.append(head)
        s = 0.9 if level == 2 else 1.0
        planted.append((rule(head, [body], s), True))
        score *= vocab.vectors.similarity(needed, head) * s
    planted.append((Clause(Atom(chain[-1], ("action",)), (), 1.0), True))
    planted.append((rule(kinds[0], [kinds[1]]), True))
    planted.append((Clause(Atom(kinds[1], ("patient",)), (), 1.0), True))
    steps = len(planted)

    # Near-miss heads at known cosines: under the threshold with a fact, over
    # it but dead-ending, and over it completing with a worse score.
    # Levels 1 and 3 carry the weak links, so the others take the near misses.
    for level in (0, 2, 4):
        needed = chain[level]
        miss = vocab.fresh(avoid, toward=needed, cosine=float(vocab.rng.uniform(*NEAR_MISS)))
        avoid.append(miss)
        dead = vocab.fresh(avoid, toward=needed, cosine=float(vocab.rng.uniform(*LOW_ROUTE)))
        avoid.append(dead)
        planted.append((Clause(Atom(miss, ("action",)), (), 1.0), False))
        planted.append((rule(dead, [vocab.fresh(avoid)]), False))
        if level >= 2:
            worse = vocab.fresh(avoid, toward=needed, cosine=float(vocab.rng.uniform(*LOW_ROUTE)))
            avoid.append(worse)
            planted.append((Clause(Atom(worse, ("action",)), (), 1.0), False))

    blocked = [vocab.fresh(avoid) for _ in range(3)]
    avoid += blocked
    planted.append((Clause(Atom(unsolvable, (X, Y)), (Atom(blocked[0], (X,)), Atom(kinds[0], (Y,))), 1.0), False))
    planted.append((rule(blocked[0], [blocked[1]]), False))
    planted.append((rule(blocked[1], [blocked[2]]), False))
    for needed in blocked:
        miss = vocab.fresh(avoid, toward=needed, cosine=float(vocab.rng.uniform(*NEAR_MISS)))
        avoid.append(miss)
        planted.append((Clause(Atom(miss, ("action",)), (), 1.0), False))

    check_clean(vocab, [c for c, _ in planted])
    filler_count = size - len(planted)
    if filler_count < 0:
        raise SystemExit(f"KB size {size} is smaller than its planted part")
    names = vocab.filler_symbols(filler_count)
    fillers = []
    for i, name in enumerate(names):
        if i % 10 == 9:
            fillers.append(Clause(Atom(name, ("action", "patient")), (), 1.0))
        elif i % 2 == 0:
            fillers.append(Clause(Atom(name, ("action",)), (), 1.0))
        else:
            fillers.append(rule(name, [names[i - 1]]))

    clauses: list[Optional[tuple[Clause, bool]]] = [None] * size
    slots = vocab.rng.permutation(size)
    for (clause, used), slot in zip(planted, slots[: len(planted)]):
        clauses[int(slot)] = (clause, used)
    filler_iter = iter(fillers)
    for i in range(size):
        if clauses[i] is None:
            clauses[i] = (next(filler_iter), False)
    goal_atoms = [Atom(solvable, ("action", "patient")), Atom(unsolvable, ("action", "patient"))]
    rules = [c for c, _ in clauses]
    bounds = oracle.score_bounds(goal_atoms, Matcher(vocab, rules))
    if abs(bounds[(solvable, 2)] - score) > oracle.SCORE_TOLERANCE or bounds[(unsolvable, 2)] != 0.0:
        raise Rejected(f"large KB {index}: planted verdict not confirmed: {bounds[(solvable, 2)]!r} vs {score!r}")

    lines = [oracle.format_clause(c) for c in rules]
    lines.append(f"goal <- {solvable}(action,patient) | {unsolvable}(action,patient).")
    expect = {
        "file": f"kb{index:02d}.pl",
        "rules": size,
        "entailed": FOUNDATION[solvable],
        "score": score,
        "steps": steps,
        "rule_ids": sorted(f"r{i}" for i, (_, used) in enumerate(clauses) if used),
        "unsolvable": unsolvable,
    }
    return {"text": "\n".join(lines) + "\n", "expect": expect, "tokens": token_set(c for c, _ in planted)}


def gen_large_kb(vocab: Vocab, library: Library, out: Path, sizes) -> set[str]:
    expects = []
    tokens: set[str] = set()
    for index, size in enumerate(sizes):
        made = planted(plant_kb, vocab, library, index, size)
        (out / made["expect"]["file"]).write_text(made["text"], "utf-8")
        expects.append(made["expect"])
        tokens |= made["tokens"]
    (out / "expect.json").write_text(json.dumps({"kbs": expects}, indent=1), "utf-8")
    return tokens


# -- refine --------------------------------------------------------------------

# Goals whose principle rules need both an action and a patient premise.
REFINE_GOALS = ("violate_authority", "violate_care_physical", "violate_liberty", "violate_care_emotional")


def plant_refine(vocab: Vocab, library: Library, index: int) -> dict:
    goal = REFINE_GOALS[index % len(REFINE_GOALS)]
    roots = library.defining(goal)
    _, root = roots[(index // len(REFINE_GOALS)) % len(roots)]
    action_target = root.body[0].predicate
    patient_target = root.body[1].predicate
    helpers = library.defining(patient_target)
    if helpers:
        patient_target = helpers[index % len(helpers)][1].body[0].predicate
    extra_chain = index % 2
    unrelated = 1 + index % 3
    max_iterations = 1 if index % REFINE_FAULT_EVERY == REFINE_FAULT_EVERY - 1 else 3

    avoid = arity_one_symbols(library) + ["the", "i"]
    verb = vocab.fresh(avoid)
    avoid.append(verb)
    noun = vocab.fresh(avoid)
    avoid += [noun, f"the_{noun}"]
    adverb_norm = math.sqrt(1.0 / float(vocab.rng.uniform(0.75, 0.9)) ** 2 - 1.0)
    adverb = vocab.fresh(avoid + [verb], norm=adverb_norm)
    performed = f"{verb}_{adverb}"  # how the abduced premises paraphrase the action
    avoid.append(performed)

    def fresh() -> str:
        token = vocab.fresh(avoid)
        avoid.append(token)
        return token

    P1 = Clause(Atom(patient_target, ("Y",)), (Atom(noun, ("Y",)),), 1.0)
    P2 = Clause(Atom(fresh(), ("X",)), (Atom(fresh(), ("X",)),), 1.0)
    chain = [action_target] + [fresh() for _ in range(1 + extra_chain)]
    abduced = [
        Clause(Atom(chain[level], ("X",)), (Atom(chain[level + 1] if level + 1 < len(chain) else performed, ("X",)),), 1.0)
        for level in range(len(chain))
    ]
    abduced.reverse()  # lowest link first, as the shipped prison transcript orders them
    for i in range(unrelated):
        if i % 2 == 0:
            abduced.append(Clause(Atom(fresh(), ("X",)), (Atom(performed, ("X",)),), 1.0))
        else:
            abduced.append(Clause(Atom(fresh(), ("Y",)), (Atom(noun, ("Y",)),), 1.0))

    statement = f"I {verb} the {noun} without {adverb}"
    foundation = FOUNDATION[goal]
    transcript = [
        {
            "role": "semantic",
            "match": statement,
            "response": f"Premises:\n1. {sentence(P1)}\n2. {sentence(P2)}\nHypothesis: {foundation}",
        },
        {"role": "abduce", "match": statement, "response": "Premises:\n"
         + "\n".join(f"{i}. {sentence(c)}" for i, c in enumerate(abduced + [P1, P2], start=1))},
        {"role": "deduce", "match": sentence(abduced[0]), "response": f"Hypothesis: {foundation}"},
    ]
    for clause in [P1, P2] + abduced:
        transcript.append({"role": "autoformalize", "match": sentence(clause), "response": oracle.format_clause(clause)})

    # Fact ids as the loop assigns them: f1, f2 from the first reply, then the
    # abduced premises f3.. prepended; the proof keeps the chain and P1.
    ids_abduced = [f"f{3 + i}" for i in range(len(abduced))]
    chain_ids = ids_abduced[: len(chain)]
    final = [(fid, sentence(c)) for fid, c in zip(ids_abduced, abduced) if fid in chain_ids] + [("f1", sentence(P1))]
    first_rules = {**library.rules, **srl_facts(verb, noun), "g_f1_0": P1, "g_f2_0": P2}
    confirm_verdict(vocab, library.goals, list(first_rules.values()), None, 0.0)
    all_rules = {**first_rules, **{f"g_{fid}_0": c for fid, c in zip(ids_abduced, abduced)}}
    score = vocab.vectors.similarity(performed, verb)
    confirm_verdict(vocab, library.goals, list(all_rules.values()), goal, score)

    outcomes = ["invalid_no_proof", "valid_redundant"]
    if max_iterations > 1:
        outcomes.append("valid_non_redundant")
    seed_doc = {
        "id": f"seed{index:02d}",
        "statement": statement,
        "frame": {"statement": statement, "action": verb, "agent": "I", "patient": f"the {noun}"},
        "gold_violation": foundation,
    }
    expect = {
        "seed": f"seed{index:02d}.json",
        "transcript": f"transcript{index:02d}.json",
        "max_iterations": max_iterations,
        "outcomes": outcomes,
        "final_hypothesis": foundation,
        "final_explanation": final,
        "non_redundant": outcomes[-1] == "valid_non_redundant",
        "rules": {rid: oracle.format_clause(c) for rid, c in all_rules.items() if not rid.startswith("p")},
    }
    return {"seed": seed_doc, "transcript": transcript, "expect": expect, "tokens": token_set(all_rules.values())}


def gen_refine(vocab: Vocab, library: Library, out: Path, count: int) -> set[str]:
    expects = []
    tokens: set[str] = set()
    for index in range(count):
        made = planted(plant_refine, vocab, library, index)
        (out / made["expect"]["seed"]).write_text(json.dumps(made["seed"], indent=2), "utf-8")
        (out / made["expect"]["transcript"]).write_text(json.dumps(made["transcript"], indent=2), "utf-8")
        expects.append(made["expect"])
        tokens |= made["tokens"]
    (out / "expect.json").write_text(json.dumps({"seeds": expects}, indent=1), "utf-8")
    return tokens


# -- main ------------------------------------------------------------------------


def generate(workload: str, seed: int, out: Path, small: bool = False) -> None:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = np.random.default_rng([seed % (1 << 63), sum(map(ord, workload))])
    library = load_library()
    vocab = Vocab(rng, library.tokens())
    if workload == "corpus":
        tokens = gen_corpus(vocab, library, out, 8 if small else CORPUS_CASES)
    elif workload == "large_kb":
        tokens = gen_large_kb(vocab, library, out, (60, 120, 200) if small else LARGE_KB_SIZES)
    elif workload == "refine":
        tokens = gen_refine(vocab, library, out, REFINE_SEEDS)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    tokens |= set(library.tokens())
    (out / "oracle.json").write_text(json.dumps(vocab.oracle_doc(tokens)), "utf-8")
    vocab.write(out / "vocab.txt", SMALL_VOCAB_SIZE if small else VOCAB_SIZE)
    softprove = env.import_softprove()
    softprove.embeddings.load_embeddings_cached(out / "vocab.txt", out / "vocab.txt.spemb")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--small", action="store_true", help="small inputs for the self-test")
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out), args.small)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: one operation each, and the check of its output.

Each operation drives the program through the calls its command makes, and is
checked against ``expect.json`` and ``oracle.py``, never against a stored
copy of the program's output.  An operation fails when it raises or when its
check does; ``REFINE_FAULT`` names the one failure that is expected.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import env
import oracle
from oracle import MAX_DEPTH, PROOF_THRESHOLD, UNIFY_THRESHOLD, CheckError

# refine_loop sets the trace's non_redundant flag to its valid flag, so a run
# whose budget ends on a pruned but unverified explanation reports it as
# non-redundant.  Seeds run with max_iterations=1 hit this on every run.
REFINE_FAULT = "non_redundant is true but the last record is valid_redundant"


@dataclass
class Op:
    """One unit of user work: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Workload:
    store_kind = "cached"

    def __init__(self, softprove, inputs: Path, store) -> None:
        self.sp = softprove
        self.inputs = inputs
        self.store = store
        self.config = softprove.prover.SolverConfig(
            unify_threshold=UNIFY_THRESHOLD, proof_threshold=PROOF_THRESHOLD, max_depth=MAX_DEPTH
        )
        self.vectors = self._vectors()
        self.principle_rules, _ = oracle.read_rule_file(env.principles_path().read_text("utf-8"), "p")
        self.tracer = None  # set for the traced run
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero what the checks count: proof steps, refine records, chat calls."""
        self.proof_steps: list[int] = []
        self.records = 0
        self.llm_calls = 0

    def _vectors(self) -> oracle.Vectors:
        doc = json.loads((self.inputs / "oracle.json").read_text("utf-8"))
        return oracle.Vectors(doc["tokens"], doc["absent"])

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Called between rounds, outside the timed operations."""

    def check_proof(self, result, rules_by_id) -> tuple[float, int, frozenset]:
        checked = oracle.check_proof(
            result, rules_by_id, self.vectors, UNIFY_THRESHOLD, PROOF_THRESHOLD, MAX_DEPTH
        )
        self.proof_steps.append(checked[1])
        return checked

    def with_principles(self, rules: dict[str, str]) -> dict[str, oracle.Clause]:
        merged = dict(self.principle_rules)
        merged.update({rid: oracle.parse_clause(text) for rid, text in rules.items()})
        return merged


def _same_score(got: float, want: float, what: str) -> None:
    if abs(got - want) > oracle.SCORE_TOLERANCE:
        raise CheckError(f"{what}: proof score {got!r}, planted {want!r} is both bound and best")


class Corpus(Workload):
    """Per-case path of ``corpus verify``, over cases of every outcome kind."""

    def __init__(self, softprove, inputs: Path, store) -> None:
        super().__init__(softprove, inputs, store)
        self.principles = softprove.principles.load_principles()
        self.expect = json.loads((inputs / "expect.json").read_text("utf-8"))["cases"]
        self.rules = [self.with_principles(e["rules"]) for e in self.expect]

    def ops(self) -> list[Op]:
        return [self._op(e, rules) for e, rules in zip(self.expect, self.rules)]

    def _op(self, expect: dict, rules_by_id) -> Op:
        sp = self.sp
        path = self.inputs / "cases" / expect["file"]
        principles = self.principles

        def run():
            doc = json.loads(path.read_text("utf-8"))
            case, rules = sp.verifier.case_from_dict(doc)
            kb = sp.verifier.assemble_kb(
                principles.rules, principles.goal_decls, sp.srl.frame_to_facts(case.frame), rules
            )
            return sp.verifier.verify_case(case, kb, self.store, self.config)

        def check(outcome) -> None:
            what = expect["file"]
            if outcome.kind.value != expect["kind"]:
                raise CheckError(f"{what}: outcome {outcome.kind.value}, planted {expect['kind']}")
            entailed = outcome.entailed.value if outcome.entailed else None
            if entailed != expect["entailed"]:
                raise CheckError(f"{what}: entailed {entailed}, planted {expect['entailed']}")
            if sorted(outcome.unused_fact_ids) != expect["unused"]:
                raise CheckError(f"{what}: unused {sorted(outcome.unused_fact_ids)}, planted {expect['unused']}")
            if expect["score"] is None:
                if outcome.proof is not None:
                    raise CheckError(f"{what}: a proof where no fact is reachable")
                return
            if outcome.proof is None:
                raise CheckError(f"{what}: no proof")
            score, steps, ids = self.check_proof(outcome.proof, rules_by_id)
            _same_score(score, expect["score"], what)
            if steps != expect["steps"] or sorted(ids) != expect["rule_ids"]:
                raise CheckError(f"{what}: proof of {steps} steps over {sorted(ids)}, planted {expect['steps']} over {expect['rule_ids']}")

        return Op(expect["file"], run, check)


class LargeKb(Workload):
    """``softprove prove`` on distinct generated KB files of 500 to 4000 rules.

    Each round starts from a store with empty caches, as each ``prove``
    command does, so that similarity scoring stays cold and memory does not
    grow with the number of operations a run completes.
    """

    def __init__(self, softprove, inputs: Path, store) -> None:
        super().__init__(softprove, inputs, store)
        self.base_store = store
        self.expect = json.loads((inputs / "expect.json").read_text("utf-8"))["kbs"]
        self.rules = [oracle.read_rule_file((inputs / e["file"]).read_text("utf-8"), "r")[0] for e in self.expect]

    def begin_round(self) -> None:
        self.store = None
        gc.collect()  # the last round's caches go now, not during a timed operation
        base = self.base_store
        self.store = self.sp.embeddings.EmbeddingStore(
            base.dimension, {t: base.token_vector(t) for t in base.tokens()}
        )
        if self.tracer is not None:
            self.tracer.forget_store()

    def ops(self) -> list[Op]:
        return [self._op(e, rules) for e, rules in zip(self.expect, self.rules)]

    def _op(self, expect: dict, rules_by_id) -> Op:
        sp = self.sp
        path = self.inputs / expect["file"]

        def run():
            doc = sp.ruleparse.parse_kb(path.read_text("utf-8"))
            kb = sp.logic.KnowledgeBase(rules=doc.rules, goals=doc.goal_decls)
            return sp.prover.prove_all_goals(kb, kb.goals, self.store, self.config)

        def check(outcome) -> None:
            what = expect["file"]
            if outcome is None:
                raise CheckError(f"{what}: no proof")
            violation, result = outcome
            if violation.value != expect["entailed"]:
                raise CheckError(f"{what}: entailed {violation.value}, planted {expect['entailed']}")
            score, steps, ids = self.check_proof(result, rules_by_id)
            _same_score(score, expect["score"], what)
            if steps != expect["steps"] or sorted(ids) != expect["rule_ids"]:
                raise CheckError(f"{what}: best proof {steps} steps over {sorted(ids)}, planted {expect['steps']} over {expect['rule_ids']}")

        return Op(expect["file"], run, check)


class Refine(Workload):
    """``refine --mock --out``: the repair loop on one seed, then its trace JSON."""

    store_kind = "text"

    def __init__(self, softprove, inputs: Path, store) -> None:
        super().__init__(softprove, inputs, store)
        self.expect = json.loads((inputs / "expect.json").read_text("utf-8"))["seeds"]

    def ops(self) -> list[Op]:
        return [self._op(e) for e in self.expect]

    def _op(self, expect: dict) -> Op:
        sp = self.sp
        seed_path = self.inputs / expect["seed"]
        transcript_path = self.inputs / expect["transcript"]
        config = sp.refine.RefineConfig(max_iterations=expect["max_iterations"])
        generated = {rid: oracle.parse_clause(text) for rid, text in expect["rules"].items()}

        def run():
            doc = json.loads(seed_path.read_text("utf-8"))
            seed = sp.refine.CaseSeed(
                id=doc["id"],
                statement=doc["statement"],
                frame=sp.srl.frame_from_dict(doc["frame"]),
                gold_violation=sp.verifier.MoralViolation(doc["gold_violation"]),
            )
            client = sp.chat.MockTranscript.from_file(transcript_path)
            _, trace = sp.refine.refine_loop(seed, config, client, self.store)
            if self.tracer is not None:
                return trace, self.tracer.call("refine.trace_json", trace.to_json), len(client.requests)
            return trace, trace.to_json(), len(client.requests)

        def check(result) -> None:
            trace, text, calls = result
            self.llm_calls += calls
            self.records += len(trace.records)
            what = expect["seed"]
            outcomes = [r.outcome.kind.value for r in trace.records]
            if outcomes != expect["outcomes"]:
                raise CheckError(f"{what}: outcomes {outcomes}, planted {expect['outcomes']}")
            if [r["outcome"] for r in json.loads(text)["iterations"]] != outcomes:
                raise CheckError(f"{what}: trace JSON disagrees with the trace")
            for record in trace.records:
                if record.proof is None:
                    continue
                rules = dict(self.principle_rules)
                rules.update({rid: c for rid, c in generated.items() if not rid.startswith("g_")})
                for fid, _ in record.explanation:
                    rules[f"g_{fid}_0"] = generated[f"g_{fid}_0"]
                self.check_proof(record.proof, rules)
            hypothesis = trace.final_hypothesis.value if trace.final_hypothesis else None
            if hypothesis != expect["final_hypothesis"]:
                raise CheckError(f"{what}: final hypothesis {hypothesis}, planted {expect['final_hypothesis']}")
            if [list(f) for f in trace.final_explanation] != expect["final_explanation"]:
                raise CheckError(f"{what}: final explanation {trace.final_explanation}, planted {expect['final_explanation']}")
            last_is_non_redundant = outcomes[-1] == "valid_non_redundant"
            if trace.non_redundant != last_is_non_redundant:
                if trace.non_redundant and outcomes[-1] == "valid_redundant":
                    raise CheckError(REFINE_FAULT)
                raise CheckError(f"{what}: non_redundant {trace.non_redundant}, last record {outcomes[-1]}")

        return Op(expect["seed"], run, check)


WORKLOADS = {"corpus": Corpus, "large_kb": LargeKb, "refine": Refine}

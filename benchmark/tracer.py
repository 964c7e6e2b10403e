"""Spans around calls into the program's layers, for the traced run only.

Each public function is wrapped where its caller looks it up (a module
attribute, or a class attribute for ``MockTranscript.complete``), so the
program itself is unchanged.  Every call adds to per-function counts, total
time and self time (its duration minus the part its traced callees cover).
Calls of ``HOT`` functions, made thousands of times per operation, are only
counted; every other call is also kept as a span with its parent and written
out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# (module, attribute, span name): the lookups that callers in the program make.
TARGETS = (
    ("softprove.principles", "parse_kb", "ruleparse.parse_kb"),
    ("softprove.ruleparse", "parse_kb", "ruleparse.parse_kb"),
    ("softprove.verifier", "parse_rule", "ruleparse.parse_rule"),
    ("softprove.refine", "parse_rule", "ruleparse.parse_rule"),
    ("softprove.refine", "serialize", "ruleparse.serialize"),
    ("softprove.verifier", "case_from_dict", "verifier.case_from_dict"),
    ("softprove.srl", "frame_to_facts", "srl.frame_to_facts"),
    ("softprove.verifier", "assemble_kb", "verifier.assemble_kb"),
    ("softprove.refine", "assemble_kb", "verifier.assemble_kb"),
    ("softprove.verifier", "verify_case", "verifier.verify_case"),
    ("softprove.refine", "verify_case", "verifier.verify_case"),
    ("softprove.verifier", "prove_all_goals", "prover.prove_all_goals"),
    ("softprove.prover", "prove_all_goals", "prover.prove_all_goals"),
    ("softprove.prover", "prove_goal", "prover.prove_goal"),
    ("softprove.prover", "weak_unify_atoms", "prover.weak_unify_atoms"),
    ("softprove.prover", "weak_unify_score", "embeddings.weak_unify_score"),
    ("softprove.refine", "semantic_inference", "refine.semantic_inference"),
    ("softprove.refine", "autoformalize", "refine.autoformalize"),
    ("softprove.refine", "abductive_inference", "refine.abductive_inference"),
    ("softprove.refine", "deductive_inference", "refine.deductive_inference"),
    ("softprove.chat.MockTranscript", "complete", "chat.complete"),
)
HOT = {"prover.weak_unify_atoms", "embeddings.weak_unify_score"}


class Tracer:
    def __init__(self, softprove) -> None:
        self.softprove = softprove
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (op, name, start, end, parent span index or -1)
        self.op = -1
        self._stack: list[list] = []  # [start, covered by callees, span index]
        self._patches: list[tuple[object, str, object]] = []
        self.unify_matches = 0
        self.pair_repeats = 0
        self._pairs_seen: dict[int, set] = {}
        self.prompt_repeats = 0
        self._prompts_seen: set = set()
        self.outcomes: dict[str, int] = defaultdict(int)

    # -- installing ------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names of those missing."""
        missing: list[str] = []
        if self._patches:
            return missing
        for owner_path, attr, name in TARGETS:
            owner = self.softprove
            for part in owner_path.split(".")[1:]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, self._observer(name)))
            self._patches.append((owner, attr, original))
        return missing

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _observer(self, name: str) -> Optional[Callable]:
        if name == "prover.weak_unify_atoms":
            return self._on_unify
        if name == "embeddings.weak_unify_score":
            return self._on_similarity
        if name == "chat.complete":
            return self._on_complete
        if name == "verifier.verify_case":
            return self._on_verify
        return None

    def _wrap(self, original, name: str, observe: Optional[Callable]):
        hot = name in HOT
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            span = -1
            if not hot:
                span = len(self.spans)
                parent = stack[-1][2] if stack else -1
                self.spans.append((self.op, name, start, None, parent))
            frame = [start, 0.0, span if not hot else (stack[-1][2] if stack else -1)]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if not hot:
                    op, _, _, _, parent = self.spans[span]
                    self.spans[span] = (op, name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- observers ---------------------------------------------------------------

    def _on_unify(self, args, result) -> None:
        if result is not None:
            self.unify_matches += 1

    def _on_similarity(self, args, result) -> None:
        store, a, b = args[:3]
        if a == b:
            return
        seen = self._pairs_seen.setdefault(id(store), set())
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            self.pair_repeats += 1
        else:
            seen.add(key)

    def _on_complete(self, args, result) -> None:
        _, messages, params = args[:3]
        key = (params.role, tuple(messages))
        if key in self._prompts_seen:
            self.prompt_repeats += 1
        else:
            self._prompts_seen.add(key)

    def _on_verify(self, args, result) -> None:
        self.outcomes[result.kind.value] += 1

    # -- operations --------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Open the span of one operation; the calls made in it become its children."""
        self.op = op
        self._prompts_seen = set()
        start = time.perf_counter()
        self._stack.append([start, 0.0, len(self.spans)])
        self.spans.append((op, "op", start, None, -1))

    def end_op(self) -> None:
        start, covered, span = self._stack.pop()
        end = time.perf_counter()
        self.spans[span] = (self.op, "op", start, end, -1)
        self.calls["op"] += 1
        self.total["op"] += end - start
        self.self_time["op"] += end - start - covered

    def call(self, name: str, fn: Callable, *args):
        """Call ``fn`` from the benchmark's own code as a span named ``name``."""
        return self._wrap(fn, name, None)(*args)

    def forget_store(self) -> None:
        """The workload replaced its store, whose pair cache starts empty."""
        self._pairs_seen.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end, "parent": parent}) + "\n")

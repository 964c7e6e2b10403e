from __future__ import annotations

import json
from importlib import resources

import pytest

from softprove.embeddings import EmbeddingStore, load_embeddings
from softprove.principles import load_principles
from softprove.ruleparse import RuleDocument
from softprove.verifier import case_from_dict


def data_path(relative: str) -> str:
    return str(resources.files("softprove").joinpath(f"data/{relative}"))


@pytest.fixture(scope="session")
def demo_store() -> EmbeddingStore:
    return load_embeddings(data_path("demo_vectors.txt"))


@pytest.fixture()
def fresh_demo_store() -> EmbeddingStore:
    """The demo vectors in a store of this test's own: nothing is scored in it yet."""
    return load_embeddings(data_path("demo_vectors.txt"))


@pytest.fixture(scope="session")
def principle_doc() -> RuleDocument:
    return load_principles()


@pytest.fixture()
def frog_case():
    return case_from_dict(json.loads(resources.files("softprove").joinpath("data/cases/frog.json").read_text()))


@pytest.fixture()
def prison_runs(monkeypatch, demo_store) -> dict:
    """The shipped prison seed refined at iteration budgets 0 to 3, and once on
    its transcript without the ``abduce`` entry, which aborts after iteration
    0.  Each run's name maps to its trace and the knowledge bases that its
    iterations verified, in order."""
    from softprove import refine
    from softprove.chat import MockTranscript
    from softprove.srl import frame_from_dict
    from softprove.verifier import MoralViolation

    doc = json.loads(resources.files("softprove").joinpath("data/cases/prison_seed.json").read_text())
    seed = refine.CaseSeed(
        id=doc["id"],
        statement=doc["statement"],
        frame=frame_from_dict(doc["frame"]),
        gold_violation=MoralViolation(doc["gold_violation"]),
    )
    entries = json.loads(resources.files("softprove").joinpath("data/transcripts/prison.json").read_text())
    verified: list = []
    verify_case = refine.verify_case

    def recording(case, kb, *args):
        verified.append(kb)
        return verify_case(case, kb, *args)

    monkeypatch.setattr(refine, "verify_case", recording)
    runs = {}
    for name, budget, kept in [
        *((f"iterations-{n}", n, entries) for n in range(4)),
        ("aborted", 3, [e for e in entries if e["role"] != "abduce"]),
    ]:
        client = MockTranscript.from_json(json.dumps(kept))
        try:
            _, trace = refine.refine_loop(seed, refine.RefineConfig(max_iterations=budget), client, demo_store)
        except refine.RefineAborted as exc:
            trace = exc.trace
        runs[name] = (trace, tuple(verified))
        verified.clear()
    return runs


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::", 1)[-1]
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {status} {name}")
    elif report.when == "setup" and report.skipped:
        print(f"\n[acceptance] SKIP {name}")

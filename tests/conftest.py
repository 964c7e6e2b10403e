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

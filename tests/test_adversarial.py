"""Adversarial knowledge bases: ``prove`` on each ends in bounded work with an
exit code of the contract, at most one line on stderr, and no traceback."""

import random

import pytest

from softprove import prover
from softprove.cli import EXIT_NO_PROOF, EXIT_OK, main
from genutil import ADVERSARIAL_FAMILIES

KBS_PER_FAMILY = 12


@pytest.mark.parametrize("family", sorted(ADVERSARIAL_FAMILIES))
def test_prove_ends_in_bounded_work_without_traceback(family, tmp_path, capsys, monkeypatch):
    calls = 0
    unify = prover.weak_unify_atoms

    def counted(*args):
        nonlocal calls
        calls += 1
        return unify(*args)

    monkeypatch.setattr(prover, "weak_unify_atoms", counted)
    rng = random.Random(f"adversarial-{family}")
    for index in range(KBS_PER_FAMILY):
        text, flags, most_calls = ADVERSARIAL_FAMILIES[family](rng)
        path = tmp_path / f"{family}{index}.pl"
        path.write_text(text, "utf-8")
        for output in ([], ["--json"]):
            calls = 0
            code = main(["prove", str(path), *flags, *output])  # an exception fails the test
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_NO_PROOF), (path.name, err)
            assert err.count("\n") <= 1, (path.name, err)
            assert calls <= most_calls, (path.name, calls)

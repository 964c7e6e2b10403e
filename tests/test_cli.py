import argparse
import dataclasses
import json
from importlib import resources

import jsonschema
import pytest

from softprove.cli import _add_solver_flags, main
from softprove.prover import SolverConfig
from conftest import data_path


def _schema(name: str) -> dict:
    text = resources.files("softprove").joinpath(f"data/schemas/{name}.schema.json").read_text()
    return json.loads(text)


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOOD_KB = """\
violate_care_physical(X,Y) :- physical_harm(X), animal(Y). = 1.0
compression(X) :- crush(X). = 1.0
animal(X) :- frog(X). = 1.0
pushing_force(X) :- compression(X). = 1.0
crush(action). = 1.0
frog(patient). = 1.0
goal <- violate_care_physical(action,patient) | violate_liberty(action,patient).
"""


@pytest.fixture()
def kb_file(tmp_path):
    path = tmp_path / "kb.pl"
    path.write_text(GOOD_KB)
    return str(path)


def test_parse_roundtrips_canonical_text(kb_file, capsys):
    code, out, _ = _run(capsys, "parse", kb_file)
    assert code == 0
    assert "violate_care_physical(X,Y) :- physical_harm(X), animal(Y). = 1.0" in out


def test_parse_json_validates(kb_file, capsys):
    code, out, _ = _run(capsys, "parse", kb_file, "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("parse"))
    assert len(payload["rules"]) == 6


def test_parse_syntax_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("broken(clause")
    code, _, err = _run(capsys, "parse", str(bad))
    assert code == 1
    assert "line 1" in err


def test_prove_finds_proof(kb_file, capsys):
    code, out, _ = _run(capsys, "prove", kb_file, "--embeddings", data_path("demo_vectors.txt"))
    assert code == 0
    assert out.splitlines()[0].endswith("violate_care_physical")


def test_prove_json_validates(kb_file, capsys):
    code, out, _ = _run(
        capsys, "prove", kb_file, "--embeddings", data_path("demo_vectors.txt"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("proof"))
    assert payload["violation"] == "care"


def test_prove_without_embeddings_uses_exact_matching(tmp_path, capsys):
    path = tmp_path / "kb.pl"
    path.write_text(
        "violate_authority(X,Y) :- disobedience(X), authority_institution(Y). = 1.0\n"
        "disobedience(action). = 1.0\n"
        "authority_institution(patient). = 1.0\n"
        "goal <- violate_authority(action,patient).\n"
    )
    code, out, _ = _run(capsys, "prove", str(path))
    assert code == 0
    assert out.startswith("1.00000 violate_authority")


def test_prove_unprovable_kb_exit_3(tmp_path, capsys):
    path = tmp_path / "kb.pl"
    path.write_text("violate_liberty(X,Y) :- coercive_act(X). = 1.0\ngoal <- violate_liberty(action,patient).\n")
    code, _, err = _run(capsys, "prove", str(path))
    assert code == 3
    assert "no proof" in err


def test_prove_kb_without_goals_exit_2(tmp_path, capsys):
    path = tmp_path / "kb.pl"
    path.write_text("a(x).\n")
    code, _, err = _run(capsys, "prove", str(path))
    assert code == 2


def test_prove_syntax_error_exit_1(tmp_path, capsys):
    path = tmp_path / "kb.pl"
    path.write_text("a(x = 1.0\n")
    code, _, err = _run(capsys, "prove", str(path))
    assert code == 1
    assert "column" in err


def test_prove_threshold_flags(kb_file, capsys):
    code, _, _ = _run(
        capsys,
        "prove",
        kb_file,
        "--embeddings",
        data_path("demo_vectors.txt"),
        "--unify-threshold",
        "0.95",
    )
    assert code == 3  # the weak hop no longer clears the bar


def test_solver_flags_are_exactly_the_solver_config_fields():
    parser = argparse.ArgumentParser(add_help=False)
    _add_solver_flags(parser)
    assert {action.dest for action in parser._actions} == {f.name for f in dataclasses.fields(SolverConfig)}


def test_verify_frog_case(capsys):
    code, out, _ = _run(
        capsys,
        "verify",
        data_path("cases/frog.json"),
        "--embeddings",
        data_path("demo_vectors.txt"),
    )
    assert code == 0
    assert "valid_non_redundant" in out


def test_verify_json_validates(capsys):
    code, out, _ = _run(
        capsys,
        "verify",
        data_path("cases/frog.json"),
        "--embeddings",
        data_path("demo_vectors.txt"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("verify"))
    assert payload["outcome"] == "valid_non_redundant"


def test_refine_with_mock_transcript(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code, out, _ = _run(
        capsys,
        "refine",
        "--case",
        data_path("cases/prison_seed.json"),
        "--mock",
        data_path("transcripts/prison.json"),
        "--embeddings",
        data_path("demo_vectors.txt"),
        "--out",
        str(trace_path),
    )
    assert code == 0
    assert "valid=True" in out
    trace = json.loads(trace_path.read_text())
    jsonschema.validate(trace, _schema("trace"))
    assert [r["outcome"] for r in trace["iterations"]] == [
        "invalid_no_proof",
        "valid_redundant",
        "valid_non_redundant",
    ]


def test_refine_without_client_exit_2(capsys):
    code, _, err = _run(capsys, "refine", "--case", data_path("cases/prison_seed.json"))
    assert code == 2
    assert "--mock" in err


def test_refine_client_miss_exit_4(tmp_path, capsys):
    transcript = tmp_path / "empty.json"
    transcript.write_text("[]")
    code, _, err = _run(
        capsys,
        "refine",
        "--case",
        data_path("cases/prison_seed.json"),
        "--mock",
        str(transcript),
        "--embeddings",
        data_path("demo_vectors.txt"),
    )
    assert code == 4


def _write_corpus(tmp_path):
    frog = json.loads(resources.files("softprove").joinpath("data/cases/frog.json").read_text())
    cases = []
    # two valid, one redundant, one without proof
    valid_a = dict(frog, id="a")
    valid_b = dict(frog, id="b")
    redundant = dict(frog, id="c")
    redundant["nl_facts"] = frog["nl_facts"] + [{"id": "f9", "text": "The sky is blue."}]
    redundant["rules"] = frog["rules"] + [{"fact_id": "f9", "clause": "sky_is_blue(action). = 1.0"}]
    no_proof = dict(frog, id="d", nl_facts=[], rules=[], hypothesis="authority")
    for i, doc in enumerate((valid_a, valid_b, redundant, no_proof)):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        cases.append(path.name)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"cases": cases, "split": "easy", "report": "report.json"}))
    return manifest


def test_corpus_verify_percentages(tmp_path, capsys):
    manifest = _write_corpus(tmp_path)
    code, out, _ = _run(
        capsys,
        "corpus",
        "verify",
        str(manifest),
        "--embeddings",
        data_path("demo_vectors.txt"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("metrics"))
    overall = payload["overall"]
    # hand-computed: 3 of 4 valid, 1 of 3 valid-but-redundant
    assert overall["valid_pct"] == 75.0
    assert overall["invalid_pct"] == 25.0
    assert overall["valid_non_redundant_pct"] == 66.7
    assert overall["valid_redundant_pct"] == 33.3
    assert (tmp_path / "report.json").exists()


def test_corpus_verify_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"cases": []}))
    code, out, _ = _run(capsys, "corpus", "verify", str(manifest), "--json")
    assert code == 0
    assert json.loads(out)["empty"] is True


def test_corpus_verify_continues_past_case_failures(tmp_path, capsys):
    manifest = _write_corpus(tmp_path)
    doc = json.loads(manifest.read_text())
    (tmp_path / "broken.json").write_text("{not json")
    doc["cases"].append("broken.json")
    manifest.write_text(json.dumps(doc))
    code, out, err = _run(
        capsys, "corpus", "verify", str(manifest),
        "--embeddings", data_path("demo_vectors.txt"), "--json",
    )
    assert code == 0
    assert "broken.json" in err
    assert "JSONDecodeError" in err
    payload = json.loads(out)
    assert payload["overall"]["total"] == 4
    assert payload["failures"] == ["broken.json"]


def test_corpus_text_report_column_order(tmp_path, capsys):
    manifest = _write_corpus(tmp_path)
    code, out, _ = _run(
        capsys, "corpus", "verify", str(manifest), "--embeddings", data_path("demo_vectors.txt")
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header.index("Valid") < header.index("Invalid") < header.index("Valid and non-Redundant")


def test_embeddings_cache_command(tmp_path, capsys):
    source = tmp_path / "vecs.txt"
    source.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    out_path = tmp_path / "vecs.spemb"
    code, out, _ = _run(
        capsys, "embeddings", "cache", "--embeddings", str(source), "--out", str(out_path), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("cache"))
    assert payload["vocab_size"] == 2
    assert out_path.exists()


def _data_doc(relative: str) -> dict:
    return json.loads(resources.files("softprove").joinpath(f"data/{relative}").read_text())


FROG = _data_doc("cases/frog.json")
PRISON = _data_doc("cases/prison_seed.json")
BAD_CASES = {
    "number": 5,
    "frame-list": dict(FROG, frame=["a"]),
    "frame-string": dict(FROG, frame="kick"),
    "fact-without-text": dict(FROG, nl_facts=[{"id": "f1"}]),
    "facts-not-a-list": dict(FROG, nl_facts={"id": "f1", "text": "t"}),
    "rule-without-clause": dict(FROG, rules=[{"fact_id": "f1"}]),
    "rule-without-fact-id": dict(FROG, rules=[{"clause": "compression(X) :- crush(X). = 1.0"}]),
    "rule-a-string": dict(FROG, rules=["compression(X) :- crush(X). = 1.0"]),
}
BAD_SEEDS = {"number": 5, "frame-list": dict(PRISON, frame=["a"]), "frame-string": dict(PRISON, frame="kick")}
REFINE = ["refine", "--mock", data_path("transcripts/prison.json"), "--case"]


@pytest.mark.parametrize(
    "command, doc",
    [pytest.param(["verify"], doc, id=f"verify-{name}") for name, doc in BAD_CASES.items()]
    + [pytest.param(REFINE, doc, id=f"refine-{name}") for name, doc in BAD_SEEDS.items()],
)
def test_malformed_case_or_seed_is_an_input_error(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, *command, str(path))
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "kb.pl", "--embeddings", "x"],
        ["parse", "kb.pl", "--embeddings-cache", "x"],
        ["parse", "kb.pl", "--limit", "1"],
        ["parse", "kb.pl", "--principles", "x"],
        ["prove", "kb.pl", "--principles", "x"],
        ["embeddings", "cache", "--embeddings", "v.txt", "--embeddings-cache", "x"],
        ["embeddings", "cache", "--embeddings", "v.txt", "--principles", "x"],
    ],
)
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_file_exit_1(capsys):
    code, _, err = _run(capsys, "parse", "/nonexistent/kb.pl")
    assert code == 1

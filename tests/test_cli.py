import argparse
import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import softprove
from softprove.cli import _add_solver_flags, main
from softprove.prover import MAX_DEPTH, SolverConfig
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


def test_prove_prints_a_proof_as_deep_as_the_cap(tmp_path, capsys):
    # The chain of test_prover's test_a_chain_as_deep_as_the_cap_proves_without_recursion_error:
    # 256 steps, which the text and JSON writers each walk by recursion.
    clauses = ["violate_care_physical(X,Y) :- c0(X)."]
    clauses += [f"c{i}(X) :- c{i + 1}(X)." for i in range(MAX_DEPTH - 2)]
    clauses += [f"c{MAX_DEPTH - 2}(action).", "goal <- violate_care_physical(action,patient)."]
    path = tmp_path / "chain.pl"
    path.write_text("\n".join(clauses) + "\n")
    code, out, err = _run(capsys, "prove", str(path), "--max-depth", str(MAX_DEPTH))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + MAX_DEPTH
    assert lines[-1] == "  " * MAX_DEPTH + f"c{MAX_DEPTH - 2}(action) <= r{MAX_DEPTH - 1}  [unify 1.00000]"
    code, out, err = _run(capsys, "prove", str(path), "--max-depth", str(MAX_DEPTH), "--json")
    assert (code, err) == (0, "")
    steps = json.loads(out)["steps"]
    depth = 0
    while steps:
        (step,) = steps
        steps, depth = step["children"], depth + 1
    assert depth == MAX_DEPTH


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
    # Without its abduce entry the prison transcript misses after iteration 0;
    # --out still gets the partial trace.
    entries = json.loads(resources.files("softprove").joinpath("data/transcripts/prison.json").read_text())
    transcript.write_text(json.dumps([e for e in entries if e["role"] != "abduce"]))
    trace_path = tmp_path / "trace.json"
    code, _, err = _run(
        capsys,
        "refine",
        "--case",
        data_path("cases/prison_seed.json"),
        "--mock",
        str(transcript),
        "--embeddings",
        data_path("demo_vectors.txt"),
        "--out",
        str(trace_path),
    )
    assert code == 4
    assert err.startswith("error: refinement aborted: no transcript entry for role 'abduce'")
    trace = json.loads(trace_path.read_text())
    jsonschema.validate(trace, _schema("trace"))
    assert [r["outcome"] for r in trace["iterations"]] == ["invalid_no_proof"]
    assert trace["valid"] is False


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


def test_corpus_verify_out_is_relative_to_the_working_directory(tmp_path, capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    _write_corpus(tmp_path / "sub")
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(
        capsys, "corpus", "verify", "sub/manifest.json", "--out", "r.json",
        "--embeddings", data_path("demo_vectors.txt"), "--json",
    )
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text()) == json.loads(out)
    assert not (tmp_path / "sub" / "r.json").exists()
    assert not (tmp_path / "sub" / "report.json").exists()  # --out replaces the manifest's report


def test_corpus_verify_report_key_is_relative_to_the_manifest(tmp_path, capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    _write_corpus(tmp_path / "sub")
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(
        capsys, "corpus", "verify", "sub/manifest.json", "--embeddings", data_path("demo_vectors.txt"), "--json"
    )
    assert code == 0
    assert json.loads((tmp_path / "sub" / "report.json").read_text()) == json.loads(out)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(("corpus", "report ."), id="corpus-report-dot"),
        pytest.param(("corpus", "--out nodir/r.json"), id="corpus-out-nodir"),
        pytest.param(("refine", "--out nodir/r.json"), id="refine-out-nodir"),
        pytest.param(("refine", "--out ."), id="refine-out-dot"),
    ],
)
def test_unwritable_destination_fails_before_any_case_runs(tmp_path, capsys, monkeypatch, command):
    from softprove import cli, refine

    calls = []
    monkeypatch.setattr(cli, "verify_case", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(refine, "verify_case", lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    name, destination = command
    vectors = ("--embeddings", data_path("demo_vectors.txt"))
    if name == "corpus":
        manifest = _write_corpus(tmp_path)
        if destination == "report .":
            doc = json.loads(manifest.read_text())
            manifest.write_text(json.dumps(dict(doc, report=".")))
            argv = ("corpus", "verify", str(manifest), *vectors)
        else:
            argv = ("corpus", "verify", str(manifest), *destination.split(), *vectors)
    else:
        argv = (*REFINE, data_path("cases/prison_seed.json"), *destination.split(), *vectors)
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert calls == []
    assert not (tmp_path / "nodir").exists()


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


@pytest.mark.parametrize("iteration", [1.9, True, "1"], ids=["float", "bool", "string"])
def test_corpus_verify_fails_a_case_whose_iteration_is_not_an_integer(tmp_path, capsys, iteration):
    manifest = _write_corpus(tmp_path)
    doc = json.loads(manifest.read_text())
    case = json.loads((tmp_path / doc["cases"][0]).read_text())
    (tmp_path / "odd.json").write_text(json.dumps({**case, "id": "odd", "iteration": iteration}))
    doc["cases"].append("odd.json")
    manifest.write_text(json.dumps(doc))
    code, out, err = _run(
        capsys, "corpus", "verify", str(manifest),
        "--embeddings", data_path("demo_vectors.txt"), "--json",
    )
    assert code == 0
    assert err == f"case failed: odd.json: ValueError: case odd: iteration must be an integer, got {iteration!r}\n"
    payload = json.loads(out)
    assert payload["failures"] == ["odd.json"]
    assert payload["overall"]["total"] == 4
    assert [row["label"] for row in payload["per_iteration"]] == ["iteration 0"]


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
    "id-a-list": dict(FROG, id=["x"]),
    "id-a-number": dict(FROG, id=5),
    "statement-a-number": dict(FROG, statement=5),
}
BAD_SEEDS = {
    "number": 5,
    "frame-list": dict(PRISON, frame=["a"]),
    "frame-string": dict(PRISON, frame="kick"),
    "id-a-number": dict(PRISON, id=5),
    "id-a-list": dict(PRISON, id=["x"]),
    "statement-null": dict(PRISON, statement=None),
}
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
    "command, doc, message",
    [
        (["verify"], dict(FROG, id=["x"]), "case document: id must be a string, got list"),
        (REFINE, dict(PRISON, id=5), "{path}: seed file: id must be a string, got int"),
        (REFINE, dict(PRISON, statement=["x"]), "{path}: seed file: statement must be a string, got list"),
    ],
    ids=["verify-id-a-list", "refine-id-a-number", "refine-statement-a-list"],
)
def test_non_string_id_or_statement_is_named(tmp_path, capsys, command, doc, message):
    # Such a file used to exit 0 with a `case_id` of the wrong JSON type.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, *command, str(path), "--json")
    assert (code, out) == (1, "")
    assert err == f"error: {message.format(path=path)}\n"


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
        ["refine", "--case", "seed.json", "--mock", "t.json", "--lenient-mock"],
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


def _bad_input(tmp_path, name: str, text: str, encoding: str = "utf-8") -> str:
    path = tmp_path / name
    path.write_text(text, encoding)
    return str(path)


# Manifest ``report`` values that are neither absent, null nor a non-empty string.
BAD_REPORTS = {"number": 5, "list": ["x"], "empty": "", "false": False}


@pytest.mark.parametrize(
    "argv, code, message",
    [
        pytest.param(["parse", "{dir}"], 1, "Is a directory", id="kb-directory"),
        pytest.param(["verify", "{frog}", "--embeddings", "{dir}"], 1, "Is a directory", id="embeddings-directory"),
        pytest.param(["corpus", "verify", "{manifest_number}"], 1, "manifest needs a `cases` list", id="manifest-number"),
        pytest.param(["corpus", "verify", "{manifest_string}"], 1, "manifest needs a `cases` list", id="manifest-string"),
        *[
            pytest.param(
                ["corpus", "verify", f"{{manifest_report_{name}}}"], 1, "manifest `report` must be a non-empty string",
                id=f"manifest-report-{name}",
            )
            for name in BAD_REPORTS
        ],
        pytest.param(["verify", "{frog}", "--embeddings-cache", "{dir}/x.spemb"], 2, "need --embeddings", id="cache-alone"),
        pytest.param(["verify", "{frog}", "--limit", "5"], 2, "need --embeddings", id="limit-alone"),
        pytest.param(
            ["verify", "{frog}", "--embeddings", "{vectors}", "--limit", "-3"], 2, "--limit must be >= 1, got -3",
            id="negative-limit",
        ),
        pytest.param(
            ["embeddings", "cache", "--embeddings", "{vectors}", "--limit", "-3", "--out", "{dir}/x.spemb"],
            2, "--limit must be >= 1, got -3", id="cache-negative-limit",
        ),
        pytest.param(
            ["verify", "{frog}", "--embeddings", "{vectors}", "--limit", "0"], 2, "--limit must be >= 1, got 0",
            id="limit-zero",
        ),
        pytest.param(
            ["prove", "{kb}", "--max-depth", "257"], 2, "max_depth must be in [1, 256]: 257", id="max-depth-over-cap",
        ),
        pytest.param(["parse", "{bad_clause}"], 1, "line 1, column 14: expected ')'", id="bad-clause"),
        pytest.param(["verify", "{frog}", "--embeddings", "{bad_vectors}"], 1, "line 2: expected 2 components, got 1", id="bad-vector-line"),
        pytest.param(["verify", "{frog}", "--embeddings", "{latin1_vectors}"], 1, "line 2: not valid UTF-8", id="not-utf8-vectors"),
        pytest.param(
            ["verify", "{frog}", "--embeddings", "{latin1_vectors}", "--embeddings-cache", "{dir}/x.spemb"],
            1, "line 2: not valid UTF-8", id="not-utf8-vectors-cached",
        ),
    ],
)
def test_exit_code_contract(tmp_path, capsys, argv, code, message):
    paths = {
        "dir": str(tmp_path),
        "frog": data_path("cases/frog.json"),
        "vectors": data_path("demo_vectors.txt"),
        "manifest_number": _bad_input(tmp_path, "number.json", "5"),
        "manifest_string": _bad_input(tmp_path, "string.json", '"cases"'),
        # The case is never read: the manifest is refused before any case runs.
        **{
            f"manifest_report_{name}": _bad_input(
                tmp_path, f"report_{name}.json", json.dumps({"cases": ["missing.json"], "report": report})
            )
            for name, report in BAD_REPORTS.items()
        },
        "bad_clause": _bad_input(tmp_path, "bad.pl", "broken(clause"),
        "bad_vectors": _bad_input(tmp_path, "vectors.txt", "cat 1.0 0.0\ndog 1.0\n"),
        "latin1_vectors": _bad_input(tmp_path, "latin1.txt", "cat 1.0 0.0\ncafé 1.0 0.0\n", "latin-1"),
        "kb": _bad_input(tmp_path, "kb.pl", GOOD_KB),
    }
    got, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# ``verify --json`` on the frog case and ``refine --json`` on the prison seed,
# in one process; the data directory is the first argument.
_CLI_RUNS = """
import sys
from softprove.cli import main

data = sys.argv[1]
vectors = ["--embeddings", f"{data}/demo_vectors.txt"]
codes = [
    main(["verify", f"{data}/cases/frog.json", *vectors, "--json"]),
    main(["refine", "--case", f"{data}/cases/prison_seed.json", "--mock", f"{data}/transcripts/prison.json",
          *vectors, "--json"]),
]
sys.exit(max(codes))
"""


def test_cli_output_is_independent_of_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(Path(softprove.__file__).parents[1]))
    outputs = set()
    for hash_seed in ("0", "7"):
        done = subprocess.run(
            [sys.executable, "-c", _CLI_RUNS, data_path("")],
            env=dict(env, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert '"outcome": "valid_non_redundant"' in done.stdout
        outputs.add(done.stdout)
    assert len(outputs) == 1

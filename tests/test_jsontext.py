"""The JSON text the program writes: ``cli._emit`` (every ``--json`` output)
prints ``json.dumps(payload, indent=2)`` and a newline, byte for byte, and
``RefineTrace.to_json`` is one line of ``json.dumps(trace.to_dict())``.
Neither adds a fallback for what JSON cannot hold, and neither prints part
of a payload it rejects."""

import argparse
import enum
import json
import random
from collections import OrderedDict
from decimal import Decimal

import pytest

from softprove.chat import MockTranscript
from softprove.cli import _emit
from softprove.refine import RefineAborted, RefineConfig, refine_loop
from test_refine import _prison_client, _prison_seed

from genutil import random_json_tree

_JSON_ARGS = argparse.Namespace(json=True)


def _emitted(obj, capsys) -> str:
    _emit(_JSON_ARGS, "the text output", obj)
    return capsys.readouterr().out


def _same_as_json(obj, capsys) -> None:
    assert _emitted(obj, capsys) == json.dumps(obj, indent=2) + "\n"


def test_random_trees_match_json(capsys):
    rng = random.Random(2402)
    for _ in range(400):
        _same_as_json(random_json_tree(rng), capsys)


class Colour(str, enum.Enum):
    RED = "red"
    NAMED = 'say "hi"\n'


class Level(enum.IntEnum):
    HIGH = 3


class Ratio(float):
    pass


class Tagged(list):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()], ((), ((),)), {"": ""}, "",
        1e-07, 0.0, -0.0, 1.0, 1e16, 5e-324, float("nan"), float("inf"), float("-inf"),
        [1e-07, 0.0, -0.0, 1.0, 1e16, 5e-324, float("nan"), float("inf"), float("-inf")],
        2**64, -(2**200), 0, True, False, None, [True, False, None, 2**64],
        Colour.RED, [Colour.NAMED], {Colour.RED: Colour.NAMED}, Level.HIGH, {Level.HIGH: [Level.HIGH]},
        Ratio(0.5), {Ratio(2.5): Ratio(float("nan"))}, Tagged([1, Tagged()]), OrderedDict([("b", 1), ("a", 2)]),
        {1: "int", 2.5: "float", True: "true", False: "false", None: "null", float("inf"): "inf", -0.0: "zero"},
        {"é\U0001F600\ud800\\\"\x00\x1f\x7f": "é\U0001F600\ud800\\\"\x00\x1f\x7f"},
    ],
)
def test_edge_values_match_json(obj, capsys):
    _same_as_json(obj, capsys)


def _prison_traces(demo_store):
    for iterations in range(4):
        _, trace = refine_loop(_prison_seed(), RefineConfig(max_iterations=iterations), _prison_client(), demo_store)
        yield trace
    # the trace of an aborted loop: no abduce entry, so it stops after iteration 0
    entries = [e for e in _prison_client().entries if e.role != "abduce"]
    with pytest.raises(RefineAborted) as aborted:
        refine_loop(_prison_seed(), RefineConfig(), MockTranscript(entries), demo_store)
    yield aborted.value.trace


def test_prison_traces_match_json(demo_store, capsys):
    traces = list(_prison_traces(demo_store))
    assert [len(trace.records) for trace in traces] == [1, 2, 3, 3, 1]
    for trace in traces:
        text = trace.to_json()
        assert text == json.dumps(trace.to_dict())
        assert "\n" not in text
        # refine --json prints the same trace indented
        _same_as_json(trace.to_dict(), capsys)


@pytest.mark.parametrize(
    "obj",
    [{1, 2}, b"bytes", object(), Decimal("1.5"), [1, {2}], {"k": [b"x"]}, {(1, 2): "tuple key"}, {b"k": 1}],
    ids=["set", "bytes", "object", "decimal", "nested-set", "nested-bytes", "tuple-key", "bytes-key"],
)
def test_what_json_rejects_raises_type_error(obj, capsys):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        _emit(_JSON_ARGS, "the text output", obj)
    assert str(got.value) == str(expected.value)
    assert capsys.readouterr().out == ""


def test_a_structure_that_contains_itself_raises(capsys):
    loop: list = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        _emit(_JSON_ARGS, "the text output", loop)
    assert capsys.readouterr().out == ""

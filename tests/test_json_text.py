"""The direct JSON writer against the standard library's encoder.

``json_text`` must write the bytes of ``json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False) + "\\n"`` for every document the program
writes and for arbitrary nested documents with str keys.
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raman_pairs
from raman_pairs import cli, geometry_explorer
from raman_pairs.errors import PhysicsError
from raman_pairs.outputs import json_text

DATA = Path(raman_pairs.__file__).parent / "data"


def stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def records_in(value) -> list:
    """The tuple subclasses in a document.  The value records are tuples, which
    both writers would write as lists, so a record in a document is a bug."""
    if isinstance(value, dict):
        return [r for v in value.values() for r in records_in(v)]
    if isinstance(value, (list, tuple)):
        own = [] if type(value) in (list, tuple) else [value]
        return own + [r for v in value for r in records_in(v)]
    return []


def test_every_shipped_document_matches_the_stdlib(tmp_path, monkeypatch, capsys):
    written = []

    def checked(doc):
        text = json_text(doc)
        assert text == stdlib_text(doc)
        assert records_in(doc) == []
        written.append(doc)
        return text

    monkeypatch.setattr(cli, "json_text", checked)
    monkeypatch.setattr(geometry_explorer, "json_text", checked)
    scan = tmp_path / "scan.json"
    shutil.copy(DATA / "sodium_scan.json", scan)
    raw = json.loads(scan.read_text())
    raw["detection"]["scan"]["resolution_deg"] = 15.0
    scan.write_text(json.dumps(raw))
    state, chsh = str(DATA / "sodium_state.json"), str(DATA / "sodium_chsh.json")
    runs = [
        ["state", "--config", state],
        ["filter", "--config", state, "--f-select", "1"],
        ["filter", "--config", state, "--f-select", "2"],
        ["filter", "--config", chsh],
        ["chsh", "--config", chsh],
        ["chsh", "--config", chsh, "--samples", "50", "--seed", "3"],
        ["scan", "--config", str(scan), "--output", str(tmp_path / "out")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(written) == len(runs)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, 0.1]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é中", "\U0001f600", '"\\/\b\f\n\r\t']),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.dictionaries(st.text(max_size=5), DOCUMENTS, max_size=5))
def test_nested_documents_match_the_stdlib(doc):
    assert json_text(doc) == stdlib_text(doc)


def test_empty_containers_match_the_stdlib():
    doc = {"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": {}}}
    assert json_text({}) == stdlib_text({}) == "{}\n"
    assert json_text(doc) == stdlib_text(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_non_finite_number_is_a_physics_error(value):
    with pytest.raises(PhysicsError, match="non-finite"):
        json_text({"a": [1.0, {"b": value}]})


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), object(), {1, 2}])
def test_unknown_type_is_a_type_error(value):
    with pytest.raises(TypeError):
        stdlib_text({"a": value})
    with pytest.raises(TypeError):
        json_text({"a": value})

"""Property tests: mutated inputs never crash the program.

Each config example takes a shipped config, may first add the optional keys
it lacks, then deletes keys or replaces values (huge, NaN, +-Infinity,
retyped), and runs one subcommand in-process.  Every run must exit 0, 2 or 3
without a traceback, a configuration error (exit 2) must name one of the
mutated keys, and a state that is written reports a positive emission
weight.  Each state-document example
mutates a ``pair_state_to_json`` document the same way and also relabels
keys; reading it back gives a ``PairState`` or an ``InputDomainError``.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import raman_pairs
from raman_pairs.atomic_model import sodium
from raman_pairs.cli import main
from raman_pairs.errors import InputDomainError
from raman_pairs.pair_state import (
    CondensateSpinor,
    PairState,
    PumpConfig,
    build_pair_state,
    pair_state_from_json,
    pair_state_to_json,
    spectral_filter,
)

DATA = Path(raman_pairs.__file__).parent / "data"


def _shipped(name: str) -> dict:
    return json.loads((DATA / name).read_text())


def _coarse_scan() -> dict:
    # the shipped 2-degree grid takes ~0.3 s a run; 15 degrees keeps the
    # examples fast and leaves every key in place
    config = _shipped("sodium_scan.json")
    config["detection"]["scan"]["resolution_deg"] = 15.0
    return config


# (config, subcommand arguments); "{out}" becomes a fresh output prefix
CASES = [
    (_shipped("sodium_state.json"), ["state"]),
    (_shipped("sodium_state.json"), ["state", "--format", "csv"]),
    (_shipped("sodium_state.json"), ["filter", "--f-select", "1"]),
    (_shipped("sodium_chsh.json"), ["filter"]),
    (_shipped("sodium_chsh.json"), ["chsh"]),
    (_shipped("sodium_chsh.json"), ["chsh", "--samples", "40"]),
    (_coarse_scan(), ["scan", "--output", "{out}"]),
]

# Optional keys, with valid values, that some shipped configs lack; "{out}"
# becomes a fresh output path
OPTIONAL = {
    ("chsh", "settings_rad"): [0.0, math.pi / 4, math.pi / 8, -math.pi / 8],
    ("validity_threshold",): 100.0,
    ("output", "path"): "{out}.result",
    ("pump", "amplitude"): [1.0, 0.0],
    ("pump", "atom_number"): 1.0e6,
}

REPLACEMENTS = st.one_of(
    st.sampled_from(
        [
            1e155,
            1e200,
            1e300,
            -1e300,
            1.7976931348623157e308,
            5e-324,
            math.nan,
            math.inf,
            -math.inf,
            10**400,
            0,
            -1,
            True,
            None,
            "1",
            [],
            {},
            [1e300, 0.0],
            [0.0, 0.0, 1e300],
        ]
    ),
    st.floats(),
    st.integers(),
    st.text(max_size=4),
)


def _paths(node, prefix=()):
    """Every key path in a JSON tree: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        path = prefix + (key,)
        yield path
        if isinstance(child, (dict, list)):
            yield from _paths(child, path)


def _key_name(path) -> str:
    """The dotted config key a path belongs to; list indices name their list."""
    return ".".join(part for part in path if isinstance(part, str))


def _holder(tree: dict, path):
    """The dict or list that holds the last key of ``path``; None if an
    earlier mutation removed the path."""
    node = tree
    for part in path[:-1]:
        try:
            node = node[part]
        except (KeyError, IndexError, TypeError):
            return None
        if not isinstance(node, (dict, list)):
            return None
    key = path[-1]
    if isinstance(node, dict) != isinstance(key, str):
        return None
    if isinstance(node, list) and key >= len(node):
        return None
    if isinstance(node, dict) and key not in node:
        return None
    return node


def _mutate(config: dict, path, delete: bool, value) -> bool:
    """Apply one mutation in place; False if an earlier one removed the path."""
    node = _holder(config, path)
    if node is None:
        return False
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return True


def _names_key(message: str, name: str) -> bool:
    """True if the message names the key, a key inside it or an object holding it."""
    parts = name.split(".")
    holders = (".".join(parts[:i]) for i in range(1, len(parts)))
    return (
        f"'{name}'" in message
        or f"'{name}." in message
        or any(f"'{holder}'" in message for holder in holders)
    )


@st.composite
def mutated_runs(draw):
    config, args = draw(st.sampled_from(CASES))
    config = json.loads(json.dumps(config))
    for (*holders, key), value in OPTIONAL.items():
        if draw(st.booleans()):
            node = config
            for holder in holders:
                node = node.setdefault(holder, {})
            node.setdefault(key, copy.deepcopy(value))
    paths = list(_paths(config))
    names = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        delete = draw(st.booleans())
        value = None if delete else draw(REPLACEMENTS)
        if _mutate(config, path, delete, value):
            names.append(_key_name(path))
    return config, args, names


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(mutated_runs())
def test_mutated_configs_exit_cleanly(run):
    config, args, names = run
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        out_path = str(Path(tmp) / "out")
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config).replace("{out}", out_path))
        argv = [a.replace("{out}", out_path) for a in args]
        argv[1:1] = ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)  # a mutated relative output path lands in the temporary directory
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        written = out.getvalue()
        target = config["output"].get("path") if isinstance(config.get("output"), dict) else None
        if code == 0 and args[0] in ("state", "filter") and isinstance(target, str):
            written = (Path(tmp) / target.replace("{out}", out_path)).read_text()
    message = err.getvalue()
    assert code in (0, 2, 3), message
    assert "Traceback" not in message
    if code == 2:
        assert any(_names_key(message, name) for name in names), (names, message)
    if code == 0 and args[0] in ("state", "filter") and written.startswith("{"):
        assert json.loads(written)["emission_weight"] > 0


def _state_documents() -> list[dict]:
    spec = sodium()
    pump = PumpConfig(
        direction=np.array([0.0, 1.0, 0.0]),
        polarization=np.array([0.0, 0.0, 1.0]),
        omega_laser=2.0 * math.pi * 508838716200000.0,
        atom_number=1.0e6,
    )
    state = build_pair_state(spec, pump, CondensateSpinor.single(2, 0), np.array([0.6, 0.0, 0.8]))
    states = (state, spectral_filter(state, 1))
    return [json.loads(json.dumps(pair_state_to_json(s, provenance={"tool": "t"}))) for s in states]


DOCUMENTS = _state_documents()
LABELS = st.one_of(
    st.sampled_from(["2:x", "x:2", "2", "2:2:2", "", ":", "4:9", "-2:0", "2:-4", "nan:1"]),
    st.text(max_size=6),
)


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc)) or [("format",)]))
        kind = draw(st.sampled_from(["delete", "replace", "relabel"]))
        if kind == "relabel":
            node, label = _holder(doc, path), draw(LABELS)
            if isinstance(node, dict):
                node[label] = node.pop(path[-1])
        else:
            _mutate(doc, path, kind == "delete", None if kind == "delete" else draw(REPLACEMENTS))
    return doc


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def test_mutated_state_documents_read_cleanly(doc):
    try:
        state = pair_state_from_json(doc)
    except InputDomainError:
        return
    assert isinstance(state, PairState)

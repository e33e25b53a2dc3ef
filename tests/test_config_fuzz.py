"""Property tests: mutated inputs never crash the program.

Each config example takes a shipped config, may first add the optional keys
it lacks, then deletes keys, replaces values (huge, NaN, +-Infinity,
retyped; at a number, mostly a value at the edge of the float range) or adds
a second spelling of a key, and runs one subcommand in-process.  Each edge
example adds every optional key and makes one change only: one boundary
number, or one respelled key.  Every run must exit 0, 2 or 3 without a
traceback, a configuration error (exit 2) must name one of the mutated keys,
two spellings of one key must exit 2, and a state that is written reports a
positive emission weight.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import raman_pairs
from raman_pairs.cli import main

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

# Optional keys, with valid values, that some shipped configs lack
OPTIONAL = {
    ("chsh", "settings_rad"): [0.0, math.pi / 4, math.pi / 8, -math.pi / 8],
    ("validity_threshold",): 100.0,
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


# The edges of the float range: zero of either sign and the subnormal
# extremes, or the numbers whose square (above 1.4e154) or double (above
# 9e307) overflows.  A hole needs one key and one of these drawn together, so
# at a path that holds a number most replacements come from here.
BOUNDARY = st.builds(
    lambda sign, magnitude: sign * magnitude,
    st.sampled_from([1, -1]),
    st.one_of(
        st.sampled_from([0, 0.0, 5e-324]),
        st.sampled_from([1e300, 9e307, 1.7976931348623157e308])
        | st.floats(1e300, 1.7976931348623157e308),
    ),
)

# Prefixes that respell a key: int() would read the same number through each,
# but an input file spells an integer in ASCII digits with an optional '-' only,
# so "0" gives a second spelling of one condensate sublevel, and "+" or " " a
# malformed condensate key; at any other key each gives an unknown key
RESPELLINGS = ["0", "+", " "]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


def _with_optional_keys(draw, config: dict, each: bool) -> dict:
    """A copy of ``config`` with every optional key it lacks, or with a drawn
    half of them unless ``each``."""
    config = json.loads(json.dumps(config))
    for (*holders, key), value in OPTIONAL.items():
        if each or draw(st.booleans()):
            node = config
            for holder in holders:
                node = node.setdefault(holder, {})
            node.setdefault(key, copy.deepcopy(value))
    return config


def _respell(draw, holder: dict, path, respelled: list, names: list) -> None:
    """Add a second spelling of ``path``'s key beside it, with the same value."""
    key = draw(st.sampled_from(RESPELLINGS)) + path[-1]
    if key not in holder:
        holder[key] = copy.deepcopy(holder[path[-1]])
        respelled.append((path[:-1], path[-1], key))
        names.append(_key_name(path[:-1] + (key,)))


@st.composite
def mutated_runs(draw):
    """A config, its subcommand, the key names its mutations touched, and the
    (holder path, key, respelled key) of each second spelling it added."""
    config, args = draw(st.sampled_from(CASES))
    config = _with_optional_keys(draw, config, each=False)
    paths = list(_paths(config))
    names, respelled = [], []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(["replace", "replace", "delete", "respell"]))
        holder = _holder(config, path)
        if holder is None:
            continue
        if kind == "respell" and isinstance(holder, dict):
            _respell(draw, holder, path, respelled, names)
            continue
        # a list index has no spelling: "respell" replaces its value there
        if kind != "delete" and _is_number(holder[path[-1]]) and draw(st.integers(0, 3)):
            value = draw(BOUNDARY)
        else:
            value = None if kind == "delete" else draw(REPLACEMENTS)
        if _mutate(config, path, kind == "delete", value):
            names.append(_key_name(path))
    return config, args, names, respelled


@st.composite
def edge_runs(draw):
    """A config with every optional key and one edge: a boundary number at a
    path that holds a number, or a second spelling of one key."""
    config, args = draw(st.sampled_from(CASES))
    config = _with_optional_keys(draw, config, each=True)
    paths = list(_paths(config))
    names, respelled = [], []
    if draw(st.booleans()):
        path = draw(st.sampled_from([p for p in paths if _is_number(_holder(config, p)[p[-1]])]))
        _mutate(config, path, False, draw(BOUNDARY))
        names.append(_key_name(path))
    else:
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        _respell(draw, _holder(config, path), path, respelled, names)
    return config, args, names, respelled


def _check_run(config: dict, args: list, names: list, respelled: list) -> None:
    """Run one subcommand in-process on ``config`` and check how it ends."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [a.replace("{out}", str(Path(tmp) / "out")) for a in args]
        argv[1:1] = ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    written, message = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), message
    assert "Traceback" not in message
    if code == 2:
        assert any(_names_key(message, name) for name in names), (names, message)
    if any(
        _holder(config, (*at, key)) is not None and _holder(config, (*at, twin)) is not None
        for at, key, twin in respelled
    ):
        # two spellings of one key: an unknown key, or one sublevel named twice
        assert code == 2, (respelled, message)
    if code == 0 and args[0] in ("state", "filter") and written.startswith("{"):
        assert json.loads(written)["emission_weight"] > 0


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(mutated_runs())
def test_mutated_configs_exit_cleanly(run):
    _check_run(*run)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(edge_runs())
def test_one_edge_in_a_full_config_exits_cleanly(run):
    # one boundary number or one respelled key, with nothing else changed: each
    # input hole closed so far needs no more than this to show
    _check_run(*run)

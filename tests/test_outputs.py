"""The output transaction: every command writes its files all or none, under
fresh temporary names, and touches no file but its outputs."""

import ast
import errno
import hashlib
import json
import os
import shutil
import stat
import sys
from pathlib import Path

import pytest

import raman_pairs
from raman_pairs import cli, config
from raman_pairs.cli import main

DATA = Path(raman_pairs.__file__).parent / "data"
PACKAGE = Path(raman_pairs.__file__).parent

# each command's argv, run in a fresh directory holding "scan.json", and the
# files it writes there, each with the flag that names it
COMMANDS = {
    "state": (
        ["state", "--config", str(DATA / "sodium_state.json"), "--output", "s.json"],
        {"s.json": "--output"},
    ),
    "filter": (
        ["filter", "--config", str(DATA / "sodium_state.json"), "--f-select", "1",
         "--output", "f.json"],
        {"f.json": "--output"},
    ),
    "scan": (
        ["scan", "--config", "../scan.json", "--output", "m"],
        {"m.csv": "--output", "m.json": "--output"},
    ),
    "chsh": (
        ["chsh", "--config", str(DATA / "sodium_chsh.json"), "--samples", "100",
         "--events-csv", "e.csv", "--output", "c.json"],
        {"c.json": "--output", "e.csv": "--events-csv"},
    ),
    "tables": (
        ["tables", "--max-doubled-j", "2", "--output", "t"],
        {"t_cg.csv": "--output", "t_3j.csv": "--output", "t_6j.csv": "--output"},
    ),
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch) -> Path:
    """An empty directory to run in; the coarse scan config sits beside it."""
    config = (DATA / "sodium_scan.json").read_text()
    coarse = config.replace('"resolution_deg": 2.0', '"resolution_deg": 30.0')
    (tmp_path / "scan.json").write_text(coarse)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    return run_dir


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def listing(directory: Path) -> dict[str, bytes | None]:
    """Every entry below ``directory``: a file's bytes, None for a directory."""
    return {
        str(p.relative_to(directory)): None if p.is_dir() else p.read_bytes()
        for p in directory.rglob("*")
    }


def expected_bytes(command, workdir, tmp_path_factory, capsys) -> dict[str, bytes]:
    """The files ``command`` writes in a directory of its own, with nothing in the way."""
    argv, files = COMMANDS[command]
    clean = tmp_path_factory.mktemp("clean")
    shutil.copy(workdir.parent / "scan.json", clean)
    (clean / "run").mkdir()
    os.chdir(clean / "run")
    try:
        assert run(argv, capsys)[0] == 0
        return {name: Path(name).read_bytes() for name in files}
    finally:
        os.chdir(workdir)


@pytest.mark.parametrize("kind", ["file", "directory"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_existing_tmp_name_is_left_alone(command, kind, workdir, capsys):
    # a user's <output>.tmp, file or directory, is neither touched nor in the
    # way: each temporary gets a name that no file has
    argv, files = COMMANDS[command]
    for name in files:
        tmp = workdir / f"{name}.tmp"
        if kind == "file":
            tmp.write_bytes(b"a user's file\n")
        else:
            tmp.mkdir()
            (tmp / "inside").write_bytes(b"a user's file\n")
    before = listing(workdir)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    after = listing(workdir)
    assert {k: v for k, v in after.items() if k not in files} == before
    assert all(after[name] for name in files)


@pytest.mark.parametrize("command", ["state", "filter"])
def test_failed_write_keeps_the_old_output(command, workdir, monkeypatch, capsys):
    # the text writer writes part of the text and then the disk is full
    argv, files = COMMANDS[command]
    (name,) = files
    (workdir / name).write_bytes(b"old output\n")

    def half_then_full(text):
        def write(path):
            path.write_text(text[: len(text) // 2], encoding="utf-8")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        return write

    monkeypatch.setattr(cli, "_text_writer", half_then_full)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"--output '{name}': {os.strerror(errno.ENOSPC)}" in err
    assert listing(workdir) == {name: b"old output\n"}


def test_directory_made_during_the_run_replaces_nothing(workdir, monkeypatch, capsys):
    # a directory that appears in the way once the temporaries exist is
    # refused before the first rename, so no output is replaced
    writer = cli._text_writer

    def write_then_block(text):
        def write(path):
            writer(text)(path)
            (workdir / "t_6j.csv").mkdir(exist_ok=True)

        return write

    monkeypatch.setattr(cli, "_text_writer", write_then_block)
    code, out, err = run(COMMANDS["tables"][0], capsys)
    assert code == 2 and out == ""
    assert f"--output 't_6j.csv': {os.strerror(errno.EISDIR)}" in err
    assert listing(workdir) == {"t_6j.csv": None}


@pytest.mark.parametrize("umask", [0o022, 0o027])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_mode_is_a_new_files_mode(command, umask, workdir, capsys):
    # 0o666 less the umask, as a file made by open() gets; not a temporary's 0600
    argv, files = COMMANDS[command]
    previous = os.umask(umask)
    try:
        code, _, err = run(argv, capsys)
    finally:
        os.umask(previous)
    assert code == 0, err
    for name in files:
        assert stat.S_IMODE((workdir / name).stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_symlinked_output_keeps_its_link(command, workdir, tmp_path_factory, capsys):
    # the link stays, and the file it names gets the new bytes
    argv, files = COMMANDS[command]
    want = expected_bytes(command, workdir, tmp_path_factory, capsys)
    real = workdir.parent / "real"
    real.mkdir()
    for name in files:
        (real / name).write_bytes(b"old target\n")
        (workdir / name).symlink_to(real / name)
    code, _, err = run(argv, capsys)
    assert code == 0, err
    for name in files:
        assert (workdir / name).is_symlink()
        assert os.readlink(workdir / name) == str(real / name)
        assert (real / name).read_bytes() == want[name]
    assert sorted(p.name for p in real.iterdir()) == sorted(files)
    assert sorted(p.name for p in workdir.iterdir()) == sorted(files)


def test_chsh_outputs_linked_to_one_file_exit_2(workdir, capsys):
    # the events CSV is a link to the JSON output: refused, both flags named
    (workdir / "c.json").write_bytes(b"old json\n")
    (workdir / "alias.csv").symlink_to("c.json")
    argv = ["chsh", "--config", str(DATA / "sodium_chsh.json"), "--samples", "10",
            "--events-csv", "alias.csv", "--output", "c.json"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "--events-csv and --output name one file: 'alias.csv'" in err
    assert (workdir / "alias.csv").is_symlink()
    assert listing(workdir) == {"c.json": b"old json\n", "alias.csv": b"old json\n"}


# each output flag that may name an input: the command, its shipped config,
# its other arguments, the flag and the suffix it adds to its path
_OVER_INPUT = {
    "state": ("state", "sodium_state.json", [], "--output", ""),
    "filter": ("filter", "sodium_state.json", ["--f-select", "1"], "--output", ""),
    "scan csv": ("scan", "sodium_scan.json", [], "--output", ".csv"),
    "scan json": ("scan", "sodium_scan.json", [], "--output", ".json"),
    "chsh": ("chsh", "sodium_chsh.json", ["--samples", "5"], "--output", ""),
    "chsh events": (
        "chsh", "sodium_chsh.json", ["--samples", "5", "--output", "c.json"], "--events-csv", ""
    ),
}


@pytest.mark.parametrize("link", ["path", "symlink", "hard link"])
@pytest.mark.parametrize(
    "case, target",
    [(case, target) for case in sorted(_OVER_INPUT) for target in ("config", "species", "builtin")
     if not (target == "builtin" and _OVER_INPUT[case][4] == ".csv")],  # a species is .json
)
def test_output_over_an_input_exits_2(case, target, link, tmp_path, monkeypatch, capsys):
    # an output that is the config or its species file, by its path or through
    # a link of either kind, is refused by flag and input, and every file keeps
    # its bytes.
    # The builtin species are a copy: no output here names the checkout's data
    command, shipped, extra, flag, suffix = _OVER_INPUT[case]
    builtin = tmp_path / "builtin"
    builtin.mkdir()
    shutil.copy(DATA / "sodium.json", builtin)
    monkeypatch.setattr(config, "_BUILTIN_DIR", builtin)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    doc = json.loads((DATA / shipped).read_text())
    if command == "scan":
        doc["detection"]["scan"]["resolution_deg"] = 30.0
    name = "in" + (suffix or ".json")
    if target == "species":
        shutil.copy(DATA / "sodium.json", run_dir / name)
        doc["atom_spec_path"] = name
    config_path = run_dir / (name if target == "config" else "config.json")
    config_path.write_text(json.dumps(doc))
    victim = builtin / "sodium.json" if target == "builtin" else run_dir / name
    if link == "path":
        victim_arg = str(victim)[: len(str(victim)) - len(suffix)]
    else:
        alias = run_dir / f"link{suffix}"
        if link == "symlink":
            alias.symlink_to(victim)
        else:
            os.link(victim, alias)
        victim_arg = str(run_dir / "link")
    argv = [command, "--config", str(config_path), *extra, flag, victim_arg]
    sha256 = hashlib.sha256(victim.read_bytes()).hexdigest()
    before = listing(tmp_path)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    input_name = "--config" if target == "config" else "'atom_spec_path'"
    assert err.startswith(f"configuration error: {flag} '")
    assert f"' is the {input_name} file '" in err
    assert "Traceback" not in err
    assert hashlib.sha256(victim.read_bytes()).hexdigest() == sha256
    assert listing(tmp_path) == before  # no output and no temporary


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_in_a_missing_directory_exits_2(command, workdir, capsys):
    # the first output's flag and path are named: a scan names its prefix
    argv, files = COMMANDS[command]
    argv = list(argv)
    out = argv.index("--output") + 1
    argv[out] = f"missing/{argv[out]}"
    flag, name = next((f, n) for n, f in files.items())
    named = argv[out] if command == "scan" else f"missing/{name}"
    if command == "chsh":  # the events CSV too: both are named on entry
        argv[argv.index("--events-csv") + 1] = "missing/e.csv"
    code, out_text, err = run(argv, capsys)
    assert code == 2 and out_text == ""
    assert f"{flag} '{named}': {os.strerror(errno.ENOENT)}" in err
    assert "Traceback" not in err
    assert listing(workdir) == {}


# each command's argv with its outputs in a missing directory, the flag and
# path the error names, and the work it must not reach, as the command calls it
_BEFORE_WORK = {
    "state": (["state", "--config", str(DATA / "sodium_state.json"), "--output", "missing/s.json"],
              "--output 'missing/s.json'", "raman_pairs.pair_state.build_pair_state"),
    "filter": (["filter", "--config", str(DATA / "sodium_state.json"), "--f-select", "1",
                "--output", "missing/f.json"], "--output 'missing/f.json'",
               "raman_pairs.pair_state.build_pair_state"),
    "chsh": (["chsh", "--config", str(DATA / "sodium_chsh.json"), "--samples", "3000000",
              "--events-csv", "missing/e.csv"], "--events-csv 'missing/e.csv'",
             "raman_pairs.bell_sim._sampled"),
    "tables": (["tables", "--max-doubled-j", "12", "--output", "missing/t"],
               "--output 'missing/t_cg.csv'", "raman_pairs.cli._tables_text"),
}


@pytest.mark.parametrize("command", sorted(_BEFORE_WORK))
def test_unwritable_output_fails_before_the_work(command, workdir, monkeypatch, capsys):
    # the outputs are opened before any work: the work is never reached
    argv, named, work = _BEFORE_WORK[command]

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before the outputs were opened")

    monkeypatch.setattr(work, never)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"{named}: {os.strerror(errno.ENOENT)}" in err
    assert listing(workdir) == {}


def _imports(path: Path) -> set[str]:
    """The modules ``path`` imports: a top-level name, or ".name" for a relative one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add("." + module if node.level else module.split(".")[0])
    return names


def test_output_module_imports_only_the_standard_library():
    # the output transaction must load without numpy, for a numpy-free tables
    imports = _imports(PACKAGE / "outputs.py")
    assert ".errors" in imports
    assert {name for name in imports if name != ".errors"} <= set(sys.stdlib_module_names)
    assert not {"errno", "contextlib"} & _imports(PACKAGE / "geometry_explorer.py")


def _load_time_imports(path: Path) -> set[str]:
    """The modules ``path`` imports as it loads, named as by ``_imports``, with
    ".name" for each name of a ``from . import``: none from a function body
    or an ``if TYPE_CHECKING:`` block."""
    names = set()
    pending = [ast.parse(path.read_text())]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
            isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        ):
            continue
        pending.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
            names.update("." + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." + node.module if node.level else node.module.split(".")[0])
    return names


def test_cli_loads_only_the_standard_library_and_the_numpy_free_modules():
    # every command imports its own work; what cli loads, tables runs on
    allowed = {".angular_momentum", ".errors", ".outputs", ".__version__"}
    imports = _load_time_imports(PACKAGE / "cli.py")
    assert allowed <= imports
    extra = imports - allowed - set(sys.stdlib_module_names)
    assert not extra, f"cli imports {sorted(extra)} as it loads"


def test_only_the_output_module_renames():
    # os.replace, the rename of a temporary onto a user's path, is in one place
    for path in PACKAGE.glob("*.py"):
        renames = path.read_text().count("os.replace(")
        assert renames == (1 if path.name == "outputs.py" else 0), path.name


def test_only_main_and_write_scan_open_the_transaction():
    # cli.main opens every command's outputs; write_scan is the library call
    def opens(node) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_all_or_none"

    calls, callers = 0, set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        calls += sum(map(opens, ast.walk(tree)))
        callers.update(
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and any(map(opens, ast.walk(node)))
        )
    assert (calls, callers) == (2, {"cli.main", "geometry_explorer.write_scan"})

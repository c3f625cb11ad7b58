"""Rules every module of the package keeps, checked on its source."""

import ast
from pathlib import Path

import citytrails

SOURCES = sorted(Path(citytrails.__file__).parent.glob("*.py"))


def test_every_text_read_and_write_names_its_encoding():
    # the platform's default encoding would make an artifact's bytes, and
    # whether it reads at all, depend on the host
    bare = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (name in ("open", "read_text", "write_text")
                    and "encoding" not in {k.arg for k in node.keywords}):
                bare.append(f"{source.name}:{node.lineno}")
    assert bare == []


def test_iso_days_are_read_through_one_helper():
    # date.fromisoformat reads 20150202 on Python 3.11 but not on 3.10, so
    # every day id goes through series.iso_date, which reads only YYYY-MM-DD
    inside, outside = [], []
    for source in SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        helper = next((fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                       and fn.name == "iso_date"), None)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "fromisoformat"
                    and getattr(node.func.value, "id", None) == "date"):
                within = (helper is not None
                          and helper.lineno <= node.lineno <= helper.end_lineno)
                (inside if within else outside).append(f"{source.name}:{node.lineno}")
    assert outside == [] and len(inside) == 1


def test_every_write_goes_through_one_helper():
    # series.write_artifact names the path that blocks a write, so no other
    # function makes a directory or opens a file for writing
    writers = set()
    for source in SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            # open(file, mode) or path.open(mode); a mode that is not a
            # constant counts as a write
            modes = [*(node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]),
                     *(k.value for k in node.keywords if k.arg == "mode")]
            if name in ("mkdir", "makedirs", "write_text", "write_bytes") or (
                    name == "open" and any(not (isinstance(m, ast.Constant)
                                                and set(m.value) <= set("rbt"))
                                           for m in modes)):
                within = [fn for fn in functions
                          if fn.lineno <= node.lineno <= fn.end_lineno]
                writers.add((source.name, within[-1].name if within else None))
    assert writers == {("series.py", "write_artifact")}


def test_only_cli_main_writes():
    # each command returns its files and main writes them all or none, so a
    # failed command leaves the output directory as it was
    source = Path(citytrails.__file__).parent / "cli.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    writers = ("write_artifact", "write_artifacts", "save_sp", "write_history_csv")
    callers = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in writers):
            within = [fn for fn in functions if fn.lineno <= node.lineno <= fn.end_lineno]
            callers.append(within[-1].name if within else None)
    assert set(callers) == {"main"}


def test_commands_read_no_file():
    # main runs a command's readers before its compute, so a bad input exits
    # before any compute starts; no cmd_* nor any function it calls may read
    tree = ast.parse((Path(citytrails.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    calls = {fn.name: {getattr(node.func, "id", getattr(node.func, "attr", None))
                       for node in ast.walk(fn) if isinstance(node, ast.Call)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, frontier = set(), [name for name in calls if name.startswith("cmd_")]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier += [c for c in calls[name] if c in calls]
    assert len([name for name in reached if name.startswith("cmd_")]) == 8
    assert sorted(name for name in reached
                  if calls[name] & {"read_artifact", "load_sp", "_load_series_dir"}) == []


def test_no_module_warns():
    # a warning prints the package's install path and a source line on
    # stderr; every fact is a return value that the CLI states in config terms
    imports = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imports += [f"{source.name}:{node.lineno}" for n in names
                        if n.split(".")[0] == "warnings"]
    assert imports == []

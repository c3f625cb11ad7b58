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

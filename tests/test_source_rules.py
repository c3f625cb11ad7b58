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

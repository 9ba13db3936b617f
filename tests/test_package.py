import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import treesat
print(" ".join(sorted(m for m in sys.modules if m.startswith("treesat."))))
import treesat.counts, treesat.bench, treesat.verify, treesat.cli
print("dataclasses" in sys.modules)
"""


def test_import_loads_only_the_engine_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    engine, dataclasses_loaded = done.stdout.splitlines()
    assert engine.split() == [
        "treesat.forge",
        "treesat.formula",
        "treesat.oracle",
        "treesat.resolution",
    ]
    # Records are named tuples: no module generates class code on import.
    assert dataclasses_loaded == "False"


def test_only_the_cli_writes_files():
    for path in sorted((SRC / "treesat").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "open", f"{path.name}:{node.lineno} calls open"
            elif isinstance(node, ast.Import):
                assert "tempfile" not in (a.name for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "tempfile", path.name


def test_numbers_are_read_only_through_parse_int():
    # `formula.parse_int` is the one reader of numbers from outside: no
    # str digit test, and no argparse `type=int`.
    for path in sorted((SRC / "treesat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"isdigit", "isdecimal", "isnumeric"}, (
                    f"{path.name}:{node.lineno} calls {node.attr}"
                )
            elif isinstance(node, ast.keyword) and node.arg == "type":
                value = node.value
                assert not (isinstance(value, ast.Name) and value.id == "int"), (
                    f"{path.name}:{node.lineno} passes type=int"
                )

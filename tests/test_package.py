import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import treesat
print(" ".join(sorted(m for m in sys.modules if m.startswith("treesat."))))
import treesat.counts, treesat.bench, treesat.verify
"""


def test_import_loads_only_the_engine_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == [
        "treesat.forge",
        "treesat.formula",
        "treesat.oracle",
        "treesat.resolution",
    ]

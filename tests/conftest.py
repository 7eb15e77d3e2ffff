"""Let the CLI subprocesses started by the tests import the uninstalled package.

`pythonpath = ["src"]` in pyproject.toml covers imports inside pytest; a
child interpreter sees only the environment, so `src` goes on PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

"""Session set-up shared by the test modules.

pytest's ``pythonpath`` setting puts ``src`` on ``sys.path`` of the test
process only; the CLI runs in child processes (criterion 9) inherit it from
``PYTHONPATH``, so ``src`` goes there too and a clean checkout needs no
environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

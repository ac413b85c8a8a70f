"""Process environment shared by the benchmark and its set-up probes.

Call ``prepare()`` before anything imports numpy: it pins BLAS to one thread
(the workloads are single-caller and use tiny matrices) and puts the
checkout's ``src/`` first on ``sys.path`` so the code under test is the
checkout's, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout of the repository."""


def prepare():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "sphererank" / "__init__.py").is_file():
        raise CheckoutError(f"no sphererank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sphererank

    if Path(sphererank.__file__).resolve().parent != SRC / "sphererank":
        raise CheckoutError(f"sphererank imported from {sphererank.__file__}, not {SRC}")

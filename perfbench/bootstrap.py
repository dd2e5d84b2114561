"""Process set-up shared by the benchmark entry points.

Pins the BLAS thread count before numpy is first imported and puts the
checkout's own ``src/`` first on ``sys.path``, so the benchmark always
measures the source tree it ships with and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout does not contain the bornexact sources."""


def prepare() -> Path:
    """Pin BLAS threads and make ``import bornexact`` load ``ROOT/src``."""
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "bornexact" / "__init__.py").is_file():
        raise MissingSource(f"no bornexact sources under {SRC}")
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT


def check_imported(module) -> None:
    """Refuse a bornexact that was imported from anywhere but ``SRC``."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSource(f"bornexact was imported from {origin}, not {SRC}")

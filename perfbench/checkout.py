"""Locate the checkout under test and import helpercache from its sources only."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "results"

# One BLAS thread, as in a single-threaded sweep; set before numpy loads.
SINGLE_THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


class ProgramMissing(RuntimeError):
    """The checkout holds no helpercache sources to benchmark."""


def use_checkout_sources() -> None:
    """Put the checkout's `src` first on the path and prove helpercache loads from it."""
    os.environ.update(SINGLE_THREAD_ENV)
    package = SRC / "helpercache" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no helpercache sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import helpercache

    loaded = Path(helpercache.__file__).resolve()
    if loaded != package.resolve():
        raise ProgramMissing(f"helpercache was loaded from {loaded}, not from {package}")

"""rdawave benchmark: pinned workloads, output checks and outside-in layer spans.

Nothing here changes a file of the program under `src/`; the traced run
wraps the program's functions from the outside while it runs.
"""
import os
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"


def pin_blas() -> None:
    """One BLAS thread.  Call before numpy loads: OpenBLAS reads this once."""
    for var in BLAS_ENV:
        os.environ[var] = "1"

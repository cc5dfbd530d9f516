"""Where the benchmarks write their ``BENCH_*.json`` results.

By default every result lands in one temporary directory per test run,
removed when the run exits, so a plain test run never rewrites the
committed ``BENCH_*.json`` files at the repository root. To keep the
results, name a directory in ``REPRO_BENCH_DIR`` (``REPRO_BENCH_DIR=.``
from the repository root rewrites the committed files)::

    REPRO_BENCH_DIR=. PYTHONPATH=src python -m pytest benchmarks/test_store.py -q -s

Each results file should record :func:`environment` next to its
numbers and repeat counts.
"""

from __future__ import annotations

import atexit
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np


def _output_dir() -> Path:
    configured = os.environ.get("REPRO_BENCH_DIR")
    if configured:
        path = Path(configured)
        path.mkdir(parents=True, exist_ok=True)
        return path
    path = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


#: The directory every benchmark of this run writes into.
BENCH_DIR = _output_dir()


def bench_path(name: str) -> Path:
    """The path a benchmark writes its results file ``name`` to."""
    return BENCH_DIR / name


def environment() -> dict:
    """Where a result was measured: CPU count, Python and numpy versions.

    The numpy version matters to exactness as well as speed: the
    vectorized learners match their oracles only while numpy keeps its
    summation order.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

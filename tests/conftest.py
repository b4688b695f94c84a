import json
import os
from pathlib import Path

import pytest

# One OpenBLAS thread, as perfbench runs: with two, the first large float32
# product of a process (the m=192 row's) can stall for over a second.
# OpenBLAS reads the variable once, when numpy loads, and pytest loads this
# file before any test module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture(scope="session")
def derived():
    """Frozen oracle values; regenerate with tests/gen_oracles.py."""
    path = Path(__file__).parent / "data" / "derived.json"
    return json.loads(path.read_text())

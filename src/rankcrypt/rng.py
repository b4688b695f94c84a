"""Seeded randomness with a pinned, counter-based generator.

Every random choice in this package flows through a numpy Generator backed
by the Philox4x64-10 bit generator keyed directly by a 64-bit integer seed.
Philox is counter-based, so the stream for a given seed is identical across
platforms and processes, which is what makes key files, ciphertexts and
attack reports bitwise reproducible. Batch runs derive independent per-item
generators as seed+index.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Return the deterministic generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for item `index` of a batch run seeded with `seed`."""
    return make_rng((seed + index) & MASK64)


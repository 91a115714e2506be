"""Deterministic random-number helpers.

Every stochastic component (workload generators, perturbation runs)
takes an explicit seed so that experiments are exactly reproducible.
``derive_seed`` gives stable, well-separated child seeds for
subcomponents without the classic "seed, seed+1, seed+2" correlation
pitfalls.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a label path.

    The derivation hashes the base seed together with the labels, so
    different label paths produce statistically independent streams and
    the same path always produces the same stream.
    """
    digest = hashlib.sha256(
        ("/".join([str(base_seed), *map(str, labels)])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(base_seed: int, *labels: object) -> random.Random:
    """A ``random.Random`` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(base_seed, *labels))

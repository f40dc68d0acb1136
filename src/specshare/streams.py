"""Named, independently seeded RNG streams.

Every generator in the simulator pulls from its own stream derived from the
master seed, so changing the draw count of one generator never perturbs the
others.
"""

import hashlib

import numpy as np


def _name_key(name) -> int:
    digest = hashlib.sha256(str(name).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def stream(seed: int, *names) -> np.random.Generator:
    """Return a Generator for the (seed, *names) stream.

    Deterministic across platforms and runs; streams with different names
    are statistically independent. The seed is a nonnegative integer, which
    SeedSequence takes as it is: every seed draws its own streams.
    """
    key = tuple(_name_key(n) for n in names)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.default_rng(ss)

"""Seeded, named random streams.

Every command takes one 64-bit seed and derives independent child streams for
each purpose by name, so adding a consumer never perturbs the draws of
another.  The generator is numpy's PCG64; the algorithm id recorded in
manifests is ``pcg64``.
"""

import numpy as np

RNG_ALGORITHM = "pcg64"

# Stable stream ids; append only, never renumber.
_STREAMS = {
    "sampling": 1,
    "init": 2,
    "data": 3,
    "directions": 4,
    "shuffle": 5,
    "theory": 6,
}


def stream(seed, name):
    """Generator for the named stream derived from the command seed."""
    try:
        key = _STREAMS[name]
    except KeyError:
        raise KeyError(f"unknown rng stream {name!r}") from None
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), key])))


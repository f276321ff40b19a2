"""Fixture: explicitly seeded randomness lints clean.

Every constructor RPL101 watches is given a seed (or a seeded bit
generator), and ``spawn`` derives children from a seeded parent.
"""

import numpy as np
from numpy.random import Generator


def seeded_generator(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def draw(rng: np.random.Generator):
    return rng.random(3)


def seeded_generator_over_pcg() -> Generator:
    return np.random.Generator(np.random.PCG64(1234))


def seeded_sequence(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed)


def spawned_child(parent: Generator) -> Generator:
    return parent.spawn(1)[0]

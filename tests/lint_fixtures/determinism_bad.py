"""Fixture: every determinism rule (RPL101-RPL104) fires here.

The laundering cases construct a fresh (OS-entropy) generator and pass
it on through an intermediate local, a constructor field and a
constant-keyed dict payload.  ``default_rng`` never appears in them:
RPL101 flags the no-argument bit-generator construction itself, on its
own line, wherever the value flows afterwards.
"""

import random  # noqa: F401  (RPL103: globally seeded stdlib random)
import time

import numpy as np
from numpy.random import Generator


def fresh_generator():
    return np.random.default_rng()  # RPL101: unseeded


def legacy_draw():
    return np.random.rand(3)  # RPL102: hidden global RandomState


def stamp():
    return time.time()  # RPL104: wall-clock read


def consume(rng: Generator) -> float:
    return float(rng.random())


def fresh_through_local() -> float:
    gen = np.random.Generator(np.random.PCG64())  # RPL101: PCG64()
    return consume(gen)


class RngHolder:
    def __init__(self, rng: Generator) -> None:
        self.rng = rng


def fresh_through_field() -> float:
    holder = RngHolder(np.random.Generator(np.random.PCG64DXSM()))  # RPL101
    return consume(holder.rng)


def fresh_through_payload() -> float:
    payload = {"rng": np.random.Generator(np.random.MT19937()), "tag": "x"}  # RPL101
    return consume(payload["rng"])


def fresh_seed_sequence():
    return np.random.SeedSequence()  # RPL101: no entropy


def fresh_bare_generator():
    return Generator()  # RPL101: no bit generator

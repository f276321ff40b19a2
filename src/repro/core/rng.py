"""Explicit RNG threading (the runtime half of repro-lint RPL101).

Seed-determinism only holds if every randomized component draws from a
generator the engine seeded.  Components therefore never fall back to
fresh OS entropy: they accept a ``np.random.Generator`` or an integer
seed, and refuse ``None`` loudly so a forgotten hand-off fails at
construction instead of as unreproducible results three figures later.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: What randomized components accept: a generator or an explicit seed.
RNGLike = Union[np.random.Generator, int, np.integer]


def resolve_rng(rng: Optional[RNGLike], *, owner: str) -> np.random.Generator:
    """Return a :class:`np.random.Generator` from an explicit source.

    Args:
        rng: A generator (used as-is, typically the engine's shared
            stream) or an integer seed (a fresh seeded generator).
        owner: Component name for the error message.

    Raises:
        ValueError: if ``rng`` is ``None`` — randomness must be threaded
            from the engine's seed (``CLITEConfig.seed``), never
            defaulted from fresh entropy.
        TypeError: if ``rng`` is neither a generator nor an integer,
            or is a bool (``True`` would silently be seed 1).
    """
    if rng is None:
        raise ValueError(
            f"{owner} requires an explicit np.random.Generator or integer "
            "seed; thread the engine's seeded rng (CLITEConfig.seed) "
            "instead of relying on fresh entropy"
        )
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"{owner}: rng must be a np.random.Generator or int seed, "
        f"got {type(rng).__name__}"
    )

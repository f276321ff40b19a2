"""Quantity aliases: the unit vocabulary of the partition math.

CLITE's control loop is arithmetic over quantities with mutually
incompatible units — discrete resource units (cores, LLC ways, membw
slices; Eqs. 5-6), normalized unit-cube coordinates in [0, 1] that the
Gaussian process optimizes over, tail latencies (seconds *and*
milliseconds), arrival/service rates, and dimensionless fractions.
This module gives each of those families a *named* ``TypeAlias`` so the
units are visible in every signature.

The aliases are documentation, not enforcement: they are plain
``float``/``int`` aliases rather than ``NewType`` wrappers, so they cost
nothing at runtime and stay assignment-compatible under mypy (the hot
path never boxes a float).  What holds the conversions in place are the
runtime tests that pin them by value (``p95_latency_ms`` against the
seconds-valued queueing model, the saturated-node fallback, and the
``p95_ms`` vs ``qos_latency_ms`` comparison behind Eq. 3).

Conventions:

* ``*_s`` names and ``Seconds`` values are wall/simulated seconds;
  ``*_ms`` names and ``Millis`` values are milliseconds.  Convert only
  through :func:`to_seconds` / :func:`to_millis` (or an explicit
  ``* 1000.0`` / ``/ 1000.0``).
* ``Cores`` / ``CacheWays`` / ``MembwUnits`` are discrete allocation
  units (Eq. 5 floors them at 1 per job).
* ``UnitCube`` values live in [0, 1]; everything entering
  ``from_unit_cube*`` must be inside the cube.
* ``Fraction`` is a dimensionless ratio in [0, 1] (load fractions,
  shares, scores); ``Rate`` is per-second (QPS, service rates).
"""

from __future__ import annotations

from typing import TypeAlias

#: Discrete allocation units of one resource (Eq. 5 floors them at 1).
Cores: TypeAlias = int
CacheWays: TypeAlias = int
MembwUnits: TypeAlias = int

#: A coordinate of the GP's normalized search cube, in [0, 1].
UnitCube: TypeAlias = float

#: Wall or simulated time in seconds.
Seconds: TypeAlias = float

#: Tail latency (and other durations) in milliseconds.
Millis: TypeAlias = float

#: Per-second rates: arrival QPS, service rates, throughputs.
Rate: TypeAlias = float

#: A dimensionless ratio in [0, 1]: load fractions, shares, Eq. 3 scores.
Fraction: TypeAlias = float

#: Explicitly unitless quantities (counts, multipliers, exponents).
Dimensionless: TypeAlias = float

#: The one sanctioned conversion factor between the two time domains.
MS_PER_S: Dimensionless = 1000.0


def to_seconds(value_ms: Millis) -> Seconds:
    """Convert milliseconds to seconds (the only sanctioned direction API)."""
    return value_ms / MS_PER_S


def to_millis(value_s: Seconds) -> Millis:
    """Convert seconds to milliseconds."""
    return value_s * MS_PER_S

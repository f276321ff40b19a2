"""Determinism rules (RPL1xx).

Seed-determinism is the reproduction's load-bearing property: two runs
with the same engine seed must take bit-identical search trajectories.
Every source of entropy therefore has to be an explicitly threaded
``np.random.Generator`` (or a seeded field); ambient randomness and
wall-clock reads are banned inside the package.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .config import LintConfig
from .model import DETERMINISM, Finding, Rule, register
from .project import Project

#: numpy.random module-level functions backed by the hidden global
#: RandomState (the legacy API); Generator methods are not in scope
#: because they are attribute calls on an explicit generator object.
_LEGACY_NP_RANDOM = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf", "RandomState",
}

#: numpy.random constructors that draw fresh OS entropy when called
#: with no arguments: ``default_rng``, ``Generator``, ``SeedSequence``
#: and the bit generators.
_ENTROPY_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _iter_calls(project: Project):
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield module, node


@register
class UnseededRng(Rule):
    rule_id = "RPL101"
    name = "unseeded-rng"
    family = DETERMINISM
    description = (
        "np.random.default_rng(), Generator(), SeedSequence() or a bit "
        "generator (PCG64, PCG64DXSM, MT19937, Philox, SFC64) constructed "
        "without a seed: it draws fresh OS entropy, so two identical runs "
        "diverge wherever the value later flows."
    )
    autofix_hint = (
        "Thread a seeded np.random.Generator (or an explicit integer "
        "seed) through the caller — e.g. the engine's rng via "
        "repro.core.rng.resolve_rng — instead of falling back to fresh "
        "entropy."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for module, call in _iter_calls(project):
            if call.args or call.keywords:
                continue
            dotted = module.resolve(call.func)
            if dotted is None:
                continue
            prefix, _, name = dotted.rpartition(".")
            if name not in _ENTROPY_CONSTRUCTORS:
                continue
            if prefix not in ("numpy.random", ""):
                continue
            yield self.finding(
                project,
                module.name,
                call,
                f"np.random.{name}() without a seed makes this "
                "component non-reproducible",
            )


@register
class LegacyGlobalNumpyRandom(Rule):
    rule_id = "RPL102"
    name = "module-level-np-random"
    family = DETERMINISM
    description = (
        "Legacy numpy.random module-level call (np.random.rand, .seed, "
        "...): these share one hidden global RandomState, which is both "
        "non-reproducible across call orders and racy under threads."
    )
    autofix_hint = (
        "Call the equivalent method on an explicitly threaded "
        "np.random.Generator instead of the numpy.random module."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for module, call in _iter_calls(project):
            dotted = module.resolve(call.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in _LEGACY_NP_RANDOM
            ):
                yield self.finding(
                    project,
                    module.name,
                    call,
                    f"numpy.random.{parts[2]} uses the hidden global "
                    "RandomState",
                )


@register
class StdlibRandom(Rule):
    rule_id = "RPL103"
    name = "stdlib-random"
    family = DETERMINISM
    description = (
        "The stdlib random module is imported: it is seeded globally and "
        "its stream is not part of the engine's seed, so any use breaks "
        "seed-determinism."
    )
    autofix_hint = (
        "Use the engine's np.random.Generator; if stdlib semantics are "
        "required, construct a random.Random(seed) instance explicitly "
        "and suppress this finding where it is created."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for module in project.modules.values():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                    if any(n == "random" or n.startswith("random.") for n in names):
                        yield self.finding(
                            project,
                            module.name,
                            node,
                            "import of the globally seeded stdlib random "
                            "module",
                        )
                elif isinstance(node, ast.ImportFrom):
                    if node.level == 0 and node.module == "random":
                        yield self.finding(
                            project,
                            module.name,
                            node,
                            "import from the globally seeded stdlib random "
                            "module",
                        )


@register
class WallClockRead(Rule):
    rule_id = "RPL104"
    name = "wall-clock-read"
    family = DETERMINISM
    description = (
        "Wall-clock read (time.time, datetime.now, ...) inside the "
        "package: simulated time must come from Node.clock_s so repeated "
        "runs observe identical timelines."
    )
    autofix_hint = (
        "Read time through an injected repro.telemetry.clock.Clock "
        "(SimulatedClock by default; WallClock is the one sanctioned "
        "boundary and carries the only suppression) or the simulated "
        "clock (Node.clock_s / Observation.time_s); ad-hoc wall-clock "
        "reads belong in benchmarks/, outside the package."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for module, call in _iter_calls(project):
            dotted = module.resolve(call.func)
            if dotted in _WALL_CLOCK:
                yield self.finding(
                    project,
                    module.name,
                    call,
                    f"wall-clock read via {dotted}",
                )

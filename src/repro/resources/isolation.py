"""Simulated resource-isolation tools.

On the paper's testbed, a partition decision is *enacted* through a
per-resource isolation interface: ``taskset`` pins cores, Intel CAT masks
LLC ways, Intel MBA throttles memory bandwidth, and cgroups/qdisc handle
capacity, disk, and network.  This module is the simulator's stand-in for
that layer: it validates and applies :class:`~repro.resources.allocation.
Configuration` objects, keeps an auditable log of tool invocations, and
accounts for the (off-critical-path) enforcement overhead the paper
measures at under 100 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.units import Seconds
from .allocation import Configuration, ConfigurationSpace
from .spec import ServerSpec


@dataclass(frozen=True)
class ToolInvocation:
    """A record of one simulated isolation-tool call."""

    tool: str
    resource: str
    allocation: Dict[int, int]  # job index -> units

    def command_line(self) -> str:
        """A human-readable rendering, e.g. for experiment logs."""
        parts = ", ".join(f"job{j}={u}" for j, u in sorted(self.allocation.items()))
        return f"{self.tool} --{self.resource} {parts}"


@dataclass
class IsolationManager:
    """Applies partitions through simulated per-resource isolation tools.

    Attributes:
        spec: The server whose resources are being partitioned.
        enforcement_latency_s: Simulated wall-clock cost of pushing one
            full partition to all tools (paper: < 100 ms, off the
            critical path).
    """

    spec: ServerSpec
    enforcement_latency_s: Seconds = 0.1
    _current: Optional[Configuration] = field(default=None, init=False)
    _log: List[ToolInvocation] = field(default_factory=list, init=False)
    _total_enforcement_s: Seconds = field(default=0.0, init=False)

    @property
    def current(self) -> Optional[Configuration]:
        """The partition currently in force, or ``None`` before the first apply."""
        return self._current

    @property
    def invocations(self) -> List[ToolInvocation]:
        """All tool calls made so far (oldest first)."""
        return list(self._log)

    @property
    def total_enforcement_seconds(self) -> Seconds:
        """Accumulated simulated enforcement time."""
        return self._total_enforcement_s

    def apply(self, config: Configuration) -> List[ToolInvocation]:
        """Enact ``config``, invoking only tools whose partition changed.

        Returns the invocations issued for this apply.  Skipping
        unchanged resources mirrors how a real controller avoids
        redundant CAT/MBA writes.
        """
        current = self._current
        if current is not None and current.units == config.units:
            # Identical partition: nothing to validate (the in-force one
            # already passed) and no tool has to be touched.
            self._current = config
            return []
        ConfigurationSpace.of(self.spec, config.n_jobs).validate(config)
        new_columns = list(zip(*config.units))
        old_columns = (
            list(zip(*current.units))
            if current is not None and current.n_jobs == config.n_jobs
            else None
        )
        issued: List[ToolInvocation] = []
        for r, resource in enumerate(self.spec.resources):
            column = new_columns[r]
            if old_columns is not None and old_columns[r] == column:
                continue
            invocation = ToolInvocation(
                tool=resource.isolation_tool,
                resource=resource.name,
                allocation=dict(enumerate(column)),
            )
            self._log.append(invocation)
            issued.append(invocation)
        if issued:
            self._total_enforcement_s += self.enforcement_latency_s
        self._current = config
        return issued

    def reset(self) -> None:
        """Forget the current partition and the invocation log."""
        self._current = None
        self._log.clear()
        self._total_enforcement_s = 0.0

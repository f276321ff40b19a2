"""Simulated co-location server: node, counters, QoS monitor, obstore."""

from .counters import DEFAULT_OBSERVATION_PERIOD_S, PerformanceCounters
from .monitor import MonitorReport, QoSMonitor, Trigger
from .node import (
    BG_ROLE,
    LC_ROLE,
    Job,
    JobObservation,
    Node,
    NodeBudget,
    Observation,
)
from .obstore import ObservationStore, StoreStats, node_fingerprint

__all__ = [
    "BG_ROLE",
    "DEFAULT_OBSERVATION_PERIOD_S",
    "Job",
    "JobObservation",
    "LC_ROLE",
    "MonitorReport",
    "Node",
    "NodeBudget",
    "Observation",
    "ObservationStore",
    "PerformanceCounters",
    "QoSMonitor",
    "StoreStats",
    "Trigger",
    "node_fingerprint",
]

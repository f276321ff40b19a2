"""Cluster state: machines, the jobs placed on them, placement outcomes.

Placement itself is :func:`repro.warehouse.service.place`, the batch
face of the warehouse's admission search.
"""

from .state import Cluster, ClusterNode, JobRequest, PlacementOutcome

__all__ = ["Cluster", "ClusterNode", "JobRequest", "PlacementOutcome"]

"""repro.warehouse — the long-lived, event-driven cluster scheduler.

Promotes CLITE's batch placement to a running service over simulated
time: deterministic event core (:mod:`.events`), admission probes
(:mod:`.admission`), QoS-driven migration with modeled cost
(:mod:`.migration`), the single-cluster service and its batch face
:func:`~.service.place` (:mod:`.service`),
sharded federation (:mod:`.federation`), scripted scenarios
(:mod:`.scenario`), and the HTTP control plane (:mod:`.api`) behind the
``repro-warehouse`` CLI (:mod:`.cli`).
"""

from .admission import (
    PLACEMENT_ENGINE,
    AdmissionProbe,
    CLITEProbe,
    QoSBlindProbe,
    QuickProbe,
    resolve_probe,
    verify_node,
)
from .api import (
    GatewayCommand,
    ServiceGateway,
    WarehouseAPIServer,
    job_from_spec,
    make_api_server,
)
from .events import (
    Arrival,
    Departure,
    EventLoop,
    EventQueue,
    Recheck,
    WarehouseJob,
)
from .federation import (
    ROUTING_POLICIES,
    RoutedEntry,
    WarehouseFederation,
    home_shard,
)
from .migration import MigrationModel, MigrationRecord
from .scenario import ScenarioConfig, ScenarioEvent, load_into, synthesize
from .service import (
    PROBE_ENGINE,
    TimelineEntry,
    WarehouseService,
    place,
    utilization_summary,
)

__all__ = [
    "AdmissionProbe",
    "Arrival",
    "CLITEProbe",
    "Departure",
    "EventLoop",
    "EventQueue",
    "GatewayCommand",
    "MigrationModel",
    "MigrationRecord",
    "PLACEMENT_ENGINE",
    "PROBE_ENGINE",
    "QoSBlindProbe",
    "QuickProbe",
    "ROUTING_POLICIES",
    "Recheck",
    "RoutedEntry",
    "ScenarioConfig",
    "ScenarioEvent",
    "ServiceGateway",
    "TimelineEntry",
    "WarehouseAPIServer",
    "WarehouseFederation",
    "WarehouseJob",
    "WarehouseService",
    "home_shard",
    "job_from_spec",
    "load_into",
    "make_api_server",
    "place",
    "resolve_probe",
    "synthesize",
    "utilization_summary",
    "verify_node",
]

"""Linter configuration: built-in defaults plus ``[tool.repro-lint]``.

The defaults encode this repository's own invariants (hot-path modules,
which constructors must carry partition contracts, every family's
registry) and are the one copy: the repository's own
``pyproject.toml`` carries no ``[tool.repro-lint]`` table.  Such a table in the nearest
``pyproject.toml`` overrides any field, so the fixture corpus and
downstream users can retarget the rules without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Tuple

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.9/3.10 fallback
    tomllib = None  # type: ignore[assignment]


@dataclass(frozen=True)
class LintConfig:
    """Everything the rules need to know about the project's shape.

    Attributes:
        select: Rule IDs to run (empty = all registered rules).
        ignore: Rule IDs to skip.
        hot_path: Module-path substrings (posix) marking the BO hot
            path; the numerics family only fires inside them.
        policy_bases: Base-class names marking node partition policies;
            their ``partition`` must carry ``@policy_contract``.
        optimizer_classes: Class names whose ``propose``/``propose_exploit``
            must carry ``@proposal_contract``.
        partition_constructors: ``Class.method`` (or bare function) names
            that construct partitions and must carry
            ``@partition_contract``.
        frozen_key_classes: Dataclass names that are used as dict/cache
            keys and therefore must be declared ``frozen=True``.
        guarded_classes: Class names whose instances are shared across
            threads *by design* and protect themselves with an internal
            lock; RPL603 requires every attribute write in their methods
            to hold a lock on all paths.
        flow_blocking_calls: The RPL802 blocking-call registry:
            ``"mod.fn"`` dotted names, ``".method"`` receiver-blind
            method names (``.result``), or ``"Class.method"`` entries
            resolved through the type oracle (physics observation).
        flow_entrypoints: Extra loop/thread entry points for the FLOW
            analyses as ``module.function`` or ``module.Class.method``
            dotted names (``Thread(target=...)`` targets are discovered
            automatically).
        flow_longlived: Class names whose instances live as long as the
            service; RPL805 tracks growth of their container attributes.
        flow_bounded_containers: ``Owner.attr`` / ``module.NAME``
            container tokens exempt from RPL805 (bounded by
            construction, with the reason documented at the allowlist).
        flow_shared_ok: Class names allowed to cross into worker
            threads without registration (RPL803) — thread-safe by
            composition.
        flow_strict_modules: Path substrings inside which RPL804
            enforces exception-safe release; tests may leak on assert
            failure by design, service code may not.
        flow_resources: Lifecycle registry as ``"Creator=rel1,rel2"``
            entries mapping resource constructors to their release
            methods.
    """

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    hot_path: Tuple[str, ...] = ("repro/core/",)
    policy_bases: Tuple[str, ...] = ("Policy",)
    optimizer_classes: Tuple[str, ...] = ("AcquisitionOptimizer",)
    partition_constructors: Tuple[str, ...] = (
        "ConfigurationSpace.equal_partition",
        "ConfigurationSpace.max_allocation",
        "ConfigurationSpace.random",
        "ConfigurationSpace.from_unit_cube",
        "ConfigurationSpace.random_batch",
        "ConfigurationSpace.from_unit_cube_batch",
    )
    frozen_key_classes: Tuple[str, ...] = (
        "Configuration",
        "DropoutDecision",
        "Resource",
        "ServerSpec",
    )
    guarded_classes: Tuple[str, ...] = (
        "MetricRegistry",
        "Counter",
        "Gauge",
        "Histogram",
        "Tracer",
        "ObservationStore",
    )
    flow_blocking_calls: Tuple[str, ...] = (
        ".result",
        ".serve_forever",
        "Node.observe",
        "Node.true_performance",
        "open",
        "os.fsync",
        "socket.create_connection",
        "subprocess.Popen",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.run",
        "time.sleep",
    )
    flow_entrypoints: Tuple[str, ...] = (
        "repro.telemetry.serve._MetricsHandler.do_GET",
        "repro.warehouse.api._WarehouseHandler.do_GET",
        "repro.warehouse.api._WarehouseHandler.do_POST",
    )
    flow_longlived: Tuple[str, ...] = (
        "MetricRegistry",
        "Node",
        "ObservationStore",
        "Tracer",
    )
    flow_bounded_containers: Tuple[str, ...] = (
        # Metric cardinality is code-determined: the set of metric
        # names/labels is a static property of the instrumented source,
        # the standard Prometheus registry model.
        "MetricRegistry._metrics",
    )
    flow_shared_ok: Tuple[str, ...] = (
        # Thread-safe by composition: an immutable facade over the
        # lock-guarded MetricRegistry/Tracer and a read-only clock.
        "Telemetry",
    )
    flow_strict_modules: Tuple[str, ...] = ("repro/",)
    flow_resources: Tuple[str, ...] = (
        "MetricsServer=server_close,shutdown",
        "ObservationStore=close",
        "WarehouseAPIServer=server_close,shutdown",
        "WarehouseFederation=close",
        "make_api_server=server_close,shutdown",
        "make_server=server_close,shutdown",
        "open=close",
        "socket.socket=close",
    )

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select and rule_id not in self.select:
            return False
        return True


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start if start.is_dir() else start.parent
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _entries(value: object, where: str) -> Tuple[str, ...]:
    """One option's TOML value (always a list) as a tuple of strings."""
    if isinstance(value, list):
        return tuple(str(v) for v in value)
    raise ValueError(f"{where} must be a list, got {type(value).__name__}")


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Defaults merged with the nearest ``[tool.repro-lint]`` table.

    Unknown keys and non-list values are rejected loudly — a typoed
    option that silently does nothing, or a bare string the rules would
    iterate character by character, is exactly the class of bug this
    tool exists to prevent.
    """
    config = LintConfig()
    if start is None or tomllib is None:
        return config
    pyproject = find_pyproject(Path(start).resolve())
    if pyproject is None:
        return config
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint", {})
    known = {f.name for f in fields(LintConfig)}
    overrides = {}
    for key, value in table.items():
        name = key.replace("-", "_")
        if name == "flow" and isinstance(value, dict):
            # [tool.repro-lint.flow]: sub-keys map onto the flow_*
            # fields.
            for sub_key, sub_value in value.items():
                sub_name = f"{name}_{sub_key.replace('-', '_')}"
                where = (
                    f"[tool.repro-lint.{key}] option {sub_key!r} "
                    f"in {pyproject}"
                )
                if sub_name not in known:
                    raise ValueError(f"unknown {where}")
                overrides[sub_name] = _entries(sub_value, where)
            continue
        where = f"[tool.repro-lint] option {key!r} in {pyproject}"
        if name not in known:
            raise ValueError(f"unknown {where}")
        overrides[name] = _entries(value, where)
    return replace(config, **overrides)

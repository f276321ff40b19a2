"""Persistent, LRU-bounded observation store.

``node.cache.*`` counters show that repeated sweeps — grid benches,
``repro.experiments`` matrices, cluster-scale re-verification — re-pay
the full observation cost on every run because the node's in-memory
truth cache dies with the :class:`~repro.server.node.Node`.  This module
is the cross-run half of the observation service: a file-backed map from
``(workload-set fingerprint, partition, LC loads)`` to the noise-free
truth of one observation window, shared by every node whose physics
match the fingerprint.

Design points:

* **Keyed by physics, not by identity.**  The fingerprint digests the
  server spec, the ordered workload set (every calibrated parameter),
  and the window length — everything :meth:`Node.true_performance`
  depends on besides the partition and the instantaneous LC load
  fractions, which form the rest of the key.  The noise seed is
  deliberately *not* part of the key: only noise-free truths are
  stored, and counter noise is drawn fresh for every window, so
  noisy-counter runs read exactly what they would without the store.
* **Append-only JSONL with atomic compaction.**  Every ``put`` appends
  one line and flushes, so truths survive a crash without an explicit
  save step.  When the file accumulates more lines than twice the LRU
  capacity, it is compacted by writing a temp file and ``os.replace``-ing
  it over the old one — readers never see a half-written store.
* **Versioned, corruption-tolerant loads.**  The first line is a schema
  header; a missing or incompatible header discards the file, and any
  individually unparsable line is counted and skipped rather than
  poisoning the load.  A discarded file's content is never read, and
  the store's first write truncates it and starts a fresh file under a
  current header, so records written after a discard survive a reopen.
  Opening a store without writing to it leaves the file as it was.
* **Thread-safe.**  A store is long-lived and its owner may share it
  across services or threads; all state transitions happen under the
  instance lock, and the store registers itself (and its entry maps)
  with ``repro-san`` so the sanitizer sees every access.
* **Verdicts ride along.**  A second record kind memoises whole CLITE
  verifications: :func:`~repro.warehouse.admission.verify_node` is a pure
  function of the node's physics, its LC loads, the seed and the engine
  configuration, so its ``(qos_met, mean BG perf, samples)`` answer is
  stored under :func:`verdict_key` and a repeated probe skips the BO
  run entirely.  Verdicts share the file, the schema version, the
  compaction and the LRU capacity (each kind holds at most
  ``max_entries`` records).  Anything that changes what the engine
  decides for a given key must bump :data:`SCHEMA_VERSION`, or stale
  verdicts would be replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.units import Seconds
from ..resources.spec import ServerSpec
from ..sanitizer.hooks import register_shared
from ..telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (node imports us)
    from .node import Job, JobObservation

#: Bump when the on-disk entry layout changes, or when the engine's
#: decisions change for a given verdict key; older files are ignored
#: (and rewritten from scratch) rather than misread.  Version 2 added
#: the verdict records.
SCHEMA_VERSION = 2

#: The header's magic string; anything else is not an observation store.
SCHEMA_KIND = "repro-obstore"

#: ``(fingerprint, flattened partition units, LC load fractions)``.
StoreKey = Tuple[str, Tuple[int, ...], Tuple[float, ...]]


def _is_int(value: Any) -> bool:
    """A JSON integer that is not a bool (``true`` loads as ``True``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """A JSON number: a non-bool integer or a float."""
    return _is_int(value) or isinstance(value, float)


class Verdict(NamedTuple):
    """One memoised CLITE verification of a node state.

    ``bg_perf`` is the mean normalised BG throughput of the chosen
    partition (``None`` without BG jobs or without a partition);
    ``samples`` is how many observation windows the original run spent.
    """

    qos_met: bool
    bg_perf: Optional[float]
    samples: int


def _workload_signature(workload: object) -> Dict[str, Any]:
    """Every calibrated parameter of one workload, as plain data."""
    return asdict(workload)  # type: ignore[call-overload]


def node_fingerprint(
    spec: ServerSpec, jobs: Sequence["Job"], window_s: Seconds
) -> str:
    """Digest of everything one node's truth depends on besides the key.

    Two nodes with equal fingerprints compute identical noise-free
    truths for any ``(partition, LC loads)`` point: same resources, same
    ordered workload set (names, roles, and every model parameter), same
    observation window (the window length enters the saturated-latency
    fallback).  Load *schedules* are deliberately excluded — the truth
    depends only on the instantaneous load fractions, which are part of
    the store key itself.
    """
    payload = {
        "version": SCHEMA_VERSION,
        "window_s": window_s,
        "resources": [[r.name, r.units] for r in spec.resources],
        "jobs": [
            {"role": job.role, "workload": _workload_signature(job.workload)}
            for job in jobs
        ],
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def verdict_key(
    fingerprint: str,
    loads: Sequence[float],
    seed: int,
    engine_digest: str,
) -> str:
    """The memo key of one verification: physics, loads, seed, engine.

    ``engine_digest`` stands for every engine setting that steers the
    search (see :func:`repro.warehouse.admission.engine_digest`); the
    schema version is folded in so a version bump retires every key.
    """
    payload = {
        "version": SCHEMA_VERSION,
        "fp": fingerprint,
        "loads": [float(load) for load in loads],
        "seed": seed,
        "engine": engine_digest,
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Telemetry counters of one store since it was opened.

    ``loaded`` counts records (truths and verdicts) recovered from disk
    at open time; ``corrupt`` counts unparsable lines skipped during
    that load.  ``hits``/``misses``/``entries`` are the truth map's;
    ``verdict_hits``/``verdicts`` are the verdict memo's.
    """

    hits: int
    misses: int
    evictions: int
    loaded: int
    corrupt: int
    entries: int
    verdict_hits: int
    verdicts: int


class ObservationStore:
    """File-backed LRU map of noise-free observation truths and verdicts.

    Args:
        path: Backing file (created, along with parent directories, on
            first use).  A file with a missing or incompatible header
            is not read; the first write truncates it.
        max_entries: LRU capacity of each record kind; the
            least-recently-used truth (or verdict) is evicted when a
            ``put`` (or ``put_verdict``) would exceed it.
        telemetry: Optional :class:`repro.telemetry.Telemetry` context;
            hit/miss/evict/load traffic is then counted on the
            ``obstore.*`` metric series.

    Usage::

        store = ObservationStore("obs/paper-mixes.jsonl")
        node = mix.build_node(seed=0, store=store)
        # ... any number of runs, services, or placement rounds ...
        store.close()
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_entries: int = 100_000,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.path = Path(path)
        self.max_entries = max_entries
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._lock = threading.RLock()
        self._entries: "OrderedDict[StoreKey, Tuple[JobObservation, ...]]" = (
            OrderedDict()
        )
        self._verdicts: "OrderedDict[str, Verdict]" = OrderedDict()
        self._fh: Optional[IO[str]] = None
        #: The file on disk was discarded at load: truncate on first write.
        self._discarded = False
        self._file_lines = 0
        self._hits = 0
        self._misses = 0
        self._verdict_hits = 0
        self._evictions = 0
        self._loaded = 0
        self._corrupt = 0
        self._load()
        register_shared(
            self,
            name=f"ObservationStore@{self.path.name}",
            container_attrs=("_entries", "_verdicts"),
        )

    # ------------------------------------------------------------------
    # Loading and persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Recover records from disk; skip anything unparsable.

        Runs in ``__init__`` only, before the store is shared; it takes
        the (reentrant) lock anyway so the helper is safe from any call
        path.
        """
        if not self.path.exists():
            return
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            with self._lock:
                self._corrupt += 1
            return
        if not lines:
            return
        header = self._parse_header(lines[0])
        with self._lock:
            if header is None:
                # Not (a compatible version of) an observation store:
                # start fresh rather than misread someone else's file.
                self._corrupt += 1
                self._discarded = True
                return
            self._file_lines = len(lines)
            for line in lines[1:]:
                record = self._parse_record(line)
                if record is None:
                    self._corrupt += 1
                    continue
                # Later lines win and refresh recency, mirroring put
                # order.
                records, key, value = record
                records.pop(key, None)
                records[key] = value
                self._loaded += 1
            self._evict()
        if self._loaded:
            self.telemetry.metrics.counter("obstore.loads").add(self._loaded)
        if self._corrupt:
            self.telemetry.metrics.counter("obstore.corrupt").add(self._corrupt)

    @staticmethod
    def _parse_header(line: str) -> Optional[Dict[str, Any]]:
        try:
            header = json.loads(line)
        except (ValueError, TypeError):
            return None
        if not isinstance(header, dict):
            return None
        if header.get("schema") != SCHEMA_KIND:
            return None
        if header.get("version") != SCHEMA_VERSION:
            return None
        return header

    def _parse_record(
        self, line: str
    ) -> Optional[Tuple["OrderedDict[Any, Any]", Any, Any]]:
        """One truth (``fp``/``cfg``/``loads``/``jobs``) or verdict line,
        as ``(the map it belongs in, key, value)``."""
        from .node import BG_ROLE, LC_ROLE, JobObservation

        try:
            raw = json.loads(line)
            if "verdict" in raw:
                vkey, qos_met = raw["verdict"], raw["qos_met"]
                bg_perf, samples = raw["bg_perf"], raw["samples"]
                if not (
                    isinstance(vkey, str)
                    and isinstance(qos_met, bool)
                    and (bg_perf is None or isinstance(bg_perf, float))
                    and _is_int(samples)
                ):
                    return None
                return self._verdicts, vkey, Verdict(qos_met, bg_perf, samples)
            fp, cfg, loads = raw["fp"], raw["cfg"], raw["loads"]
            stored_jobs = raw["jobs"]
            # Exactly what _encode_entry writes: int config units,
            # int-or-float loads, never bools (json's true is an int);
            # per job a str name, a known role and None-or-number
            # readings (missing or extra fields fail the constructor).
            if not (
                isinstance(fp, str)
                and isinstance(cfg, list)
                and all(_is_int(u) for u in cfg)
                and isinstance(loads, list)
                and all(_is_real(l) for l in loads)
                and isinstance(stored_jobs, list)
                and all(
                    isinstance(fields, dict)
                    and isinstance(fields.get("name"), str)
                    and fields.get("role") in (LC_ROLE, BG_ROLE)
                    and all(
                        value is None or _is_real(value)
                        for field, value in fields.items()
                        if field not in ("name", "role")
                    )
                    for fields in stored_jobs
                )
            ):
                return None
            key: StoreKey = (fp, tuple(cfg), tuple(float(l) for l in loads))
            jobs = tuple(JobObservation(**fields) for fields in stored_jobs)
        except (ValueError, TypeError, KeyError):
            return None
        return self._entries, key, jobs

    @staticmethod
    def _encode_entry(key: StoreKey, jobs: Tuple["JobObservation", ...]) -> str:
        record = {
            "fp": key[0],
            "cfg": list(key[1]),
            "loads": list(key[2]),
            "jobs": [asdict(job) for job in jobs],
        }
        return json.dumps(record)

    @staticmethod
    def _encode_verdict(key: str, verdict: Verdict) -> str:
        record = {
            "verdict": key,
            "qos_met": verdict.qos_met,
            "bg_perf": verdict.bg_perf,
            "samples": verdict.samples,
        }
        return json.dumps(record)

    def _header_line(self) -> str:
        return json.dumps({"schema": SCHEMA_KIND, "version": SCHEMA_VERSION})

    def _writer(self) -> IO[str]:
        """The append handle, opening (and headering) the file lazily.

        A file discarded at load is truncated here, so the records
        appended after the fresh header are not lost behind the old one.
        """
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fresh = (
                    self._discarded
                    or not self.path.exists()
                    or self.path.stat().st_size == 0
                )
                mode = "w" if self._discarded else "a"
                self._discarded = False
                # Durability by design: the append handle must open under
                # the lock so concurrent first-appends cannot double-write
                # the header.
                self._fh = open(self.path, mode, encoding="utf-8")
                if fresh:
                    self._fh.write(self._header_line() + "\n")
                    self._file_lines = 1
            return self._fh

    def _append(self, line: str) -> None:
        """Append one encoded record; compact once the log outgrows twice
        the live record count (and 64 lines)."""
        with self._lock:
            fh = self._writer()
            fh.write(line + "\n")
            fh.flush()
            self._file_lines += 1
            live = len(self._entries) + len(self._verdicts)
            if self._file_lines > max(2 * live, 64):
                self._compact()

    def _evict(self) -> None:
        """Drop least-recently-used records of either kind over capacity."""
        with self._lock:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                self.telemetry.metrics.counter("obstore.evictions").add()
            while len(self._verdicts) > self.max_entries:
                self._verdicts.popitem(last=False)
                self._evictions += 1
                self.telemetry.metrics.counter("obstore.evictions").add()

    def _compact(self) -> None:
        """Atomically rewrite the file with only the live records."""
        with self._lock:
            tmp = self.path.with_name(self.path.name + ".tmp")
            try:
                # Durability by design: compaction must snapshot the maps
                # and swap the file while no concurrent put can interleave;
                # the pause is the compaction cost in bench_perf.py.
                with open(tmp, "w", encoding="utf-8") as out:
                    out.write(self._header_line() + "\n")
                    for key, jobs in self._entries.items():
                        out.write(self._encode_entry(key, jobs) + "\n")
                    for vkey, verdict in self._verdicts.items():
                        out.write(self._encode_verdict(vkey, verdict) + "\n")
                    out.flush()
                    # Durability by design: fsync before the atomic
                    # os.replace is the crash guarantee.
                    os.fsync(out.fileno())
                if self._fh is not None:
                    self._fh.close()
                    self._fh = None
                os.replace(tmp, self.path)
            except BaseException:
                # A failed rewrite (disk full, interrupt) must not strand
                # the tmp file; the append log is still intact, so the
                # store stays consistent and simply retries later.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._file_lines = 1 + len(self._entries) + len(self._verdicts)
        self.telemetry.metrics.counter("obstore.compactions").add()

    # ------------------------------------------------------------------
    # The map interface
    # ------------------------------------------------------------------
    def get(
        self,
        fingerprint: str,
        config_units: Tuple[int, ...],
        loads: Tuple[float, ...],
    ) -> Optional[Tuple["JobObservation", ...]]:
        """The stored truth for one key, refreshing its LRU recency."""
        key: StoreKey = (fingerprint, config_units, loads)
        with self._lock:
            jobs = self._entries.get(key)
            if jobs is None:
                self._misses += 1
                self.telemetry.metrics.counter("obstore.misses").add()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self.telemetry.metrics.counter("obstore.hits").add()
            return jobs

    def put(
        self,
        fingerprint: str,
        config_units: Tuple[int, ...],
        loads: Tuple[float, ...],
        jobs: Tuple["JobObservation", ...],
    ) -> None:
        """Persist one truth (idempotent; evicts LRU entries over capacity)."""
        key: StoreKey = (fingerprint, config_units, loads)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = jobs
            self._append(self._encode_entry(key, jobs))
            self._evict()

    def get_verdict(self, key: str) -> Optional[Verdict]:
        """The memoised verdict under ``key``, refreshing its recency.

        Misses are not counted here: the caller
        (:func:`~repro.warehouse.admission.verify_node`) counts memo
        traffic on its own ``verify.memo.*`` series.
        """
        with self._lock:
            verdict = self._verdicts.get(key)
            if verdict is None:
                return None
            self._verdicts.move_to_end(key)
            self._verdict_hits += 1
            return verdict

    def put_verdict(self, key: str, verdict: Verdict) -> None:
        """Persist one verdict (idempotent; evicts LRU verdicts over capacity)."""
        with self._lock:
            if key in self._verdicts:
                self._verdicts.move_to_end(key)
                return
            self._verdicts[key] = verdict
            self._append(self._encode_verdict(key, verdict))
            self._evict()

    def __len__(self) -> int:
        """The number of stored truths (verdicts are in :meth:`stats`)."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> StoreStats:
        """Hit/miss/evict/load counters since the store was opened."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                loaded=self._loaded,
                corrupt=self._corrupt,
                entries=len(self._entries),
                verdict_hits=self._verdict_hits,
                verdicts=len(self._verdicts),
            )

    def flush(self) -> None:
        """Push buffered appends to the OS (appends already flush per put)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                # Durability by design: flush() promises the data is on
                # disk when it returns.
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush and release the append handle (the store stays usable)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "ObservationStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

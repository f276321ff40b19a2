"""repro-san: shadow instrumentation, race detection, lock order,
blocking calls under a lock, hash-order probe, and the live HTTP
control plane under the sanitizer."""

from __future__ import annotations

import dataclasses
import gc
import io
import json
import os
import socketserver
import threading
import time
import urllib.request
import warnings
from collections import OrderedDict, deque

import pytest

from repro.sanitizer import (
    ProbeError,
    Sanitizer,
    SelfDeadlockError,
    active_sanitizer,
    hash_order_probe,
    instrument,
    register_shared,
)
from repro.sanitizer.cli import control_plane_stress
from repro.sanitizer.cli import main as san_main

from lint_fixtures.sanitizer_racy import RacyAccumulator


def unwatched_exposures(server):
    """What ``server`` hands its handler threads that the race detector
    cannot see: each ``repro`` object on it (itself included) that is
    neither registered with the sanitizer nor a frozen dataclass."""
    exposed = {"server": server, **vars(server)}
    return sorted(
        attr
        for attr, value in exposed.items()
        if type(value).__module__.startswith("repro")
        and not type(value).__name__.startswith("_Sanitized")
        and not (
            dataclasses.is_dataclass(value)
            and type(value).__dataclass_params__.frozen
        )
    )


def run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ----------------------------------------------------------------------
# Shadow instrumentation on the racy toy class
# ----------------------------------------------------------------------
@pytest.mark.sanitize
class TestRaceDetection:
    def test_write_write_race_detected(self):
        racy = RacyAccumulator()
        with instrument(racy, names=("Racy",)) as san:
            run_threads(racy.bump_unguarded, racy.bump_unguarded)
            races = san.races()
        fields = {r.fld for r in races}
        assert "unguarded" in fields
        write_write = [
            r
            for r in races
            if r.fld == "unguarded"
            and r.first.kind == "write"
            and r.second.kind == "write"
        ]
        assert write_write, "write/write pair missing"
        assert write_write[0].first.lockset == frozenset()

    def test_write_read_race_detected(self):
        racy = RacyAccumulator()
        with instrument(racy, names=("Racy",)) as san:
            run_threads(racy.bump_unguarded, racy.peek_unguarded)
            races = san.races()
        kinds = {
            frozenset((r.first.kind, r.second.kind))
            for r in races
            if r.fld == "unguarded"
        }
        assert frozenset(("write", "read")) in kinds

    def test_lock_guarded_field_is_clean(self):
        racy = RacyAccumulator()
        with instrument(racy, names=("Racy",)) as san:
            run_threads(racy.bump_guarded, racy.bump_guarded)
            races = san.races()
        assert all(r.fld != "guarded" for r in races)

    def test_read_only_sharing_is_clean(self):
        racy = RacyAccumulator()
        with instrument(racy, names=("Racy",)) as san:
            run_threads(racy.read_shared, racy.read_shared)
            races = san.races()
        assert all(r.fld != "read_only" for r in races)

    def test_single_thread_never_races(self):
        racy = RacyAccumulator()
        with instrument(racy, names=("Racy",)) as san:
            racy.bump_unguarded()
            racy.peek_unguarded()
            assert san.races() == []

    def test_instrumented_values_are_exact(self):
        """Instrumentation observes; it must never perturb the data."""
        racy = RacyAccumulator()
        with instrument(racy) as san:
            racy.bump_guarded(50)
            assert san.accesses()  # something was recorded
        assert racy.guarded == 50
        assert racy.read_shared() == 7

    def test_restore_removes_shadow_class(self):
        racy = RacyAccumulator()
        original_cls = type(racy)
        with instrument(racy):
            assert type(racy).__name__.startswith("_Sanitized")
        assert type(racy) is original_cls
        # The instrumented lock wrapper is gone too.
        assert type(racy.__dict__["_lock"]) is type(threading.Lock())

    def test_double_watch_is_idempotent(self):
        racy = RacyAccumulator()
        san = Sanitizer()
        try:
            san.watch(racy, name="Racy")
            san.watch(racy, name="Racy")
            assert type(racy).__name__ == "_SanitizedRacyAccumulator"
        finally:
            san.restore()
        assert type(racy) is RacyAccumulator


class _FlaggedServer(socketserver.BaseServer):
    """A library base class whose shutdown flag is name-mangled."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), socketserver.BaseRequestHandler)
        self.shared = 0


@pytest.mark.sanitize
class TestForeignPrivates:
    def test_library_privates_are_not_recorded(self):
        """socketserver hands ``_BaseServer__shutdown_request`` over via a
        ``threading.Event`` the lockset model cannot see; such library
        privates are skipped while the subclass's own fields are not."""
        server = _FlaggedServer()
        assert "_BaseServer__shutdown_request" in vars(server)
        flag = "_BaseServer__shutdown_request"

        def bump():
            setattr(server, flag, not getattr(server, flag))
            server.shared += 1

        with instrument(server, names=("Flagged",)) as san:
            run_threads(bump, bump)
            fields = {a.fld for a in san.accesses()}
            races = {r.fld for r in san.races()}
        assert "shared" in fields and "shared" in races
        assert not any(f.startswith("_BaseServer__") for f in fields)


class TestHooks:
    def test_register_shared_is_noop_without_sanitizer(self):
        assert active_sanitizer() is None
        racy = RacyAccumulator()
        assert register_shared(racy) is racy
        assert type(racy) is RacyAccumulator

    def test_register_shared_watches_when_active(self):
        racy = RacyAccumulator()
        with instrument() as san:
            assert active_sanitizer() is san
            register_shared(racy, name="Racy")
            assert type(racy).__name__.startswith("_Sanitized")
        assert active_sanitizer() is None
        assert type(racy) is RacyAccumulator

    def test_nested_activation_rejected(self):
        with instrument():
            with pytest.raises(RuntimeError, match="already active"):
                with instrument():
                    pass  # pragma: no cover

    def test_metric_registry_self_registers(self):
        from repro.telemetry.metrics import MetricRegistry

        with instrument():
            registry = MetricRegistry()
            assert type(registry).__name__.startswith("_Sanitized")
            registry.counter("hook_check_total").add(1)
        assert type(registry) is MetricRegistry

    def test_metric_instruments_self_register(self):
        """Each instrument is shared between the driver that updates it
        and the handler that scrapes it, so the registry watches it."""
        from repro.telemetry.metrics import MetricRegistry

        with instrument() as san:
            registry = MetricRegistry()
            counter = registry.counter("hook.check", node="1")
            gauge = registry.gauge("hook.level")
            histogram = registry.histogram("hook.latency")
            for made in (counter, gauge, histogram):
                assert type(made).__name__.startswith("_Sanitized")
            counter.add(2)
            histogram.observe(0.01)
            assert (counter.value, histogram.count) == (2.0, 1)
            assert any(
                a.obj_name.startswith('hook.check{node="1"}@')
                for a in san.accesses()
            )
        assert type(counter).__name__ == "Counter"


# ----------------------------------------------------------------------
# Lock order (lockdep-style): cycles, self-deadlock, RLock re-entry
# ----------------------------------------------------------------------
class _TwoLocks:
    """Two plain locks and the nestings a caller can pick."""

    def __init__(self, reentrant=False):
        make = threading.RLock if reentrant else threading.Lock
        self._a = make()
        self._b = make()
        self.value = 0

    def a_then_b(self):
        with self._a:
            with self._b:
                self.value += 1

    def b_then_a(self):
        with self._b:
            with self._a:
                self.value += 1

    def a_maybe_b(self, take_b):
        with self._a:
            if take_b:
                with self._b:
                    self.value += 1

    def a_twice(self):
        with self._a:
            with self._a:
                self.value += 1


def run_in_thread(target):
    thread = threading.Thread(target=target)
    thread.start()
    thread.join()


@pytest.mark.sanitize
class TestLockOrder:
    def test_rlock_reentry_is_silent(self):
        """Self-guarding helpers re-taking an RLock are legal."""
        obj = _TwoLocks(reentrant=True)
        with instrument(obj, names=("Two",)) as san:
            obj.a_twice()
            obj.a_then_b()
            assert san.lock_reports() == []
        assert obj.value == 2

    def test_plain_lock_reacquire_is_reported_not_hung(self):
        """A plain Lock re-taken by its holder would block forever; the
        sanitizer reports it and raises before the acquire blocks."""
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            with pytest.raises(SelfDeadlockError, match="Two._a"):
                obj.a_twice()
            (report,) = san.lock_reports()
            assert not obj._a.locked()  # the outer hold was released
        assert report.kind == "self-deadlock"
        assert report.locks == ("Two._a",)
        assert "re-acquired" in report.describe()

    def test_one_order_conditional_nesting_is_silent(self):
        """A lock taken on only one branch still orders after the outer
        lock; one direction alone is not a deadlock."""
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            run_in_thread(lambda: obj.a_maybe_b(True))
            run_in_thread(lambda: obj.a_maybe_b(False))
            obj.a_then_b()
            assert san.lock_reports() == []

    def test_abba_across_threads_is_reported_without_deadlock(self):
        """The two orders run one after the other, so this run cannot
        deadlock; the graph still closes the cycle (lockdep's point)."""
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            run_in_thread(obj.a_then_b)
            run_in_thread(obj.b_then_a)
            reports = san.lock_reports()
        assert [r.kind for r in reports] == ["cycle"]
        assert set(reports[0].locks) == {"Two._a", "Two._b"}
        assert "lock-order cycle" in reports[0].describe()
        assert obj.value == 2

    def test_three_lock_cycle_names_every_lock(self):
        first, second = _TwoLocks(), _TwoLocks()

        def nest(outer, inner):
            with outer:
                with inner:
                    pass

        with instrument(first, second, names=("P", "Q")) as san:
            a, b, c = first._a, first._b, second._a  # the watched locks
            run_in_thread(lambda: nest(a, b))
            run_in_thread(lambda: nest(b, c))
            assert san.lock_reports() == []
            run_in_thread(lambda: nest(c, a))
            (report,) = san.lock_reports()
        assert report.kind == "cycle"
        assert set(report.locks) == {"P._a", "P._b", "Q._a"}

    def test_each_edge_is_reported_once(self):
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            for _ in range(3):
                obj.a_then_b()
                obj.b_then_a()
            assert len(san.lock_reports()) == 1

    def test_two_object_cycle_through_method_calls(self):
        """Each account holds its own lock while it calls into its peer,
        so the ABBA spans two objects and two call chains; the graph
        sees it without knowing who calls whom."""
        first, second = _Account(), _Account()
        first.peer, second.peer = second, first
        with instrument(first, second, names=("A", "B")) as san:
            run_in_thread(lambda: first.transfer(3))
            assert san.lock_reports() == []
            run_in_thread(lambda: second.transfer(1))
            (report,) = san.lock_reports()
        assert report.kind == "cycle"
        assert set(report.locks) == {"A._lock", "B._lock"}
        assert (first.balance, second.balance) == (-2, 2)

    def test_report_names_the_thread_that_closed_the_cycle(self):
        """Locks taken only on worker threads still order in the graph;
        the report describes the chain and the closing thread."""
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            for name, target in (("opener", obj.a_then_b),
                                 ("closer", obj.b_then_a)):
                thread = threading.Thread(target=target, name=name)
                thread.start()
                thread.join()
            (report,) = san.lock_reports()
        assert report.thread == "closer"
        assert report.describe() == (
            "lock-order cycle Two._b -> Two._a -> Two._b, closed on thread "
            "closer"
        )

    @pytest.mark.parametrize(
        "kwargs", [{"blocking": False}, {"timeout": 0.01}],
        ids=["nonblocking", "timed"],
    )
    def test_bounded_reacquire_of_a_held_lock_is_silent(self, kwargs):
        """A try-lock or a timed acquire cannot hang, so re-asking for a
        held plain Lock that way just fails."""
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            with obj._a:
                assert obj._a.acquire(**kwargs) is False
                assert obj._a.locked()
            assert not obj._a.locked()
            assert san.lock_reports() == []

    def test_out_of_order_release_empties_the_held_stack(self):
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            obj._a.acquire()
            obj._b.acquire()
            obj._a.release()
            obj._b.release()
            time.sleep(0)  # holds nothing: not a blocking call under a lock
            obj._a.acquire()  # depth is back at zero: no self-deadlock
            obj._a.release()
            assert san.lock_reports() == []

    def test_each_sanitizer_keeps_its_own_graph(self):
        """One order in one run and the other in a later run is no
        cycle: each sanitizer's graph starts empty."""
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as first:
            obj.a_then_b()
        with instrument(obj, names=("Two",)) as second:
            obj.b_then_a()
            assert second.lock_reports() == []
        assert first.lock_reports() == []

    def test_bare_watch_checks_lock_order(self):
        """Lock order needs no flag: any sanitizer that watches a lock
        checks it.  Only ``instrument()`` wraps the blocking calls."""
        obj = _TwoLocks()
        sleep = time.sleep
        san = Sanitizer()
        try:
            san.watch(obj, name="Two")
            obj.a_then_b()
            obj.b_then_a()
            assert [r.kind for r in san.lock_reports()] == ["cycle"]
            assert time.sleep is sleep
        finally:
            san.restore()

    def test_self_deadlock_leaves_the_lock_usable(self):
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            for _ in range(2):
                with pytest.raises(SelfDeadlockError):
                    obj.a_twice()
            run_in_thread(obj.a_then_b)  # another thread takes it fine
            assert len(san.lock_reports()) == 1
        assert obj.value == 1

    def test_reports_come_in_a_stable_order(self):
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            with pytest.raises(SelfDeadlockError):
                obj.a_twice()
            obj.b_then_a()
            obj.a_then_b()
            with obj._b:
                time.sleep(0)
            reports = san.lock_reports()
            assert san.lock_reports() == reports
        assert [r.kind for r in reports] == [
            "blocking", "cycle", "self-deadlock"
        ]


class _Account:
    """Holds its own lock while it calls into its peer."""

    def __init__(self):
        self._lock = threading.Lock()
        self.peer = None
        self.balance = 0

    def transfer(self, amount):
        with self._lock:
            self.balance -= amount
            self.peer.deposit(amount)

    def deposit(self, amount):
        with self._lock:
            self.balance += amount


@pytest.mark.sanitize
class TestBlockingUnderLock:
    def test_sleep_under_a_watched_lock_is_reported(self):
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            time.sleep(0)  # no lock held: silent
            with obj._a:
                time.sleep(0)
            (report,) = san.lock_reports()
        assert (report.kind, report.call, report.locks) == (
            "blocking", "time.sleep", ("Two._a",)
        )

    def test_open_and_fsync_under_a_lock_are_reported(self, tmp_path):
        obj = _TwoLocks()
        with instrument(obj, names=("Two",)) as san:
            with obj._a, obj._b:
                with open(tmp_path / "f", "w") as handle:
                    os.fsync(handle.fileno())
                (tmp_path / "g").write_text("x")  # pathlib goes via io.open
            calls = {r.call for r in san.lock_reports()}
            held = {r.locks for r in san.lock_reports()}
        assert calls == {"open", "os.fsync"}
        assert held == {("Two._a", "Two._b")}

    def test_wrapped_calls_are_restored(self):
        originals = (time.sleep, os.fsync, open)
        with instrument():
            assert time.sleep is not originals[0]
        assert (time.sleep, os.fsync, open) == originals

    def test_wrapped_calls_are_restored_after_an_error(self):
        originals = (time.sleep, os.fsync, open, io.open)
        with pytest.raises(KeyError):
            with instrument():
                raise KeyError("boom")
        assert (time.sleep, os.fsync, open, io.open) == originals
        assert active_sanitizer() is None

    def test_wrappers_pass_results_through(self, tmp_path):
        with instrument():
            assert (time.sleep.__name__, os.fsync.__name__) == (
                "sleep", "fsync"
            )
            with open(tmp_path / "f", "w") as handle:
                assert handle.write("payload") == 7
            with io.open(tmp_path / "f") as handle:
                assert handle.read() == "payload"
            assert time.sleep(0) is None

    def test_sleep_under_a_reentered_rlock_names_it_once(self):
        obj = _TwoLocks(reentrant=True)
        with instrument(obj, names=("Two",)) as san:
            with obj._a, obj._a:
                time.sleep(0)
            (report,) = san.lock_reports()
        assert report.locks == ("Two._a",)
        assert report.describe() == (
            f"blocking call time.sleep on thread "
            f"{threading.current_thread().name} holding Two._a"
        )

    def test_blocking_while_another_thread_holds_the_lock_is_silent(self):
        """Only the holder's blocking calls stall the lock's waiters."""
        obj = _TwoLocks()
        held, done = threading.Event(), threading.Event()

        def holder():
            with obj._a:
                held.set()
                done.wait(5.0)

        with instrument(obj, names=("Two",)) as san:
            thread = threading.Thread(target=holder)
            thread.start()
            try:
                assert held.wait(5.0)
                time.sleep(0)
            finally:
                done.set()
                thread.join()
            assert san.lock_reports() == []


# ----------------------------------------------------------------------
# The live HTTP control plane under the sanitizer
# ----------------------------------------------------------------------
@pytest.mark.sanitize
class TestRealPoolStress:
    """Concurrent HTTP clients (the server's per-request threads) against
    the driver thread that runs the scheduler."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_http_control_plane_is_race_free(self, seed):
        """The acceptance gate: live server + telemetry, zero races and
        no lock-order, self-deadlock or blocking-under-lock report, on
        the seeds CI's ``repro-san stress`` runs."""
        with instrument() as san:
            _, submits = control_plane_stress(clients=3, n_requests=6, seed=seed)
            races = san.races()
            lock_reports = san.lock_reports()
            names = {record.obj_name.split("@")[0] for record in san.accesses()}
        assert submits == 18
        assert {
            "ServiceGateway", "MetricRegistry", "WarehouseService",
            "warehouse.arrivals",
        } <= names
        assert races == [], "\n".join(r.describe() for r in races)
        assert lock_reports == [], "\n".join(
            r.describe() for r in lock_reports
        )

    @pytest.mark.parametrize("factory", ["api", "metrics"])
    def test_handlers_see_only_watched_or_immutable_objects(self, factory):
        """Whatever a server hands its handler threads must be visible
        to the race detector: a registered object, a frozen value, or
        a builtin scalar.  A plain mutable object slipped onto the
        server would be shared by every handler thread unseen."""
        from repro.telemetry import MetricRegistry
        from repro.telemetry.serve import make_server
        from repro.warehouse import ServiceGateway, make_api_server

        with instrument():
            registry = MetricRegistry()
            server = (
                make_api_server(ServiceGateway(), registry)
                if factory == "api" else make_server(registry)
            )
            try:
                assert unwatched_exposures(server) == []
            finally:
                server.server_close()

    def test_same_seed_bit_identical_under_sanitizer(self):
        """Instrumentation must not perturb the timeline: the sanitized
        HTTP run reproduces the direct, uninstrumented replay exactly."""
        plain = control_plane_stress(clients=2, n_requests=5, seed=0, via_http=False)
        with instrument():
            sanitized = control_plane_stress(clients=2, n_requests=5, seed=0)
        assert sanitized == plain

    def test_handler_threads_hold_both_control_plane_locks(self):
        """The two locks the HTTP handlers meet are instrumented and
        held by handler threads, so the order graph sees every nesting
        they could form."""
        with instrument() as san:
            control_plane_stress(clients=2, n_requests=2, seed=0)
            handler_locks = {
                f"{lock.split('@')[0]}.{lock.rsplit('.', 1)[1]}"
                for record in san.accesses()
                if record.thread != threading.main_thread().name
                for lock in record.lockset
            }
        assert {"ServiceGateway._lock", "MetricRegistry._lock"} <= (
            handler_locks
        )

    def test_scheduler_state_never_leaves_the_driver_thread(self):
        with instrument() as san:
            control_plane_stress(clients=2, n_requests=4, seed=0)
            threads = {
                record.thread
                for record in san.accesses()
                if record.obj_name.startswith("WarehouseService@")
            }
        assert threads == {threading.main_thread().name}


# ----------------------------------------------------------------------
# The runtime catchers of the retired static lock-discipline rules: each
# test applies one bug to the real control plane and shows it reported
# ----------------------------------------------------------------------
class _Serving:
    """Serve ``server`` on a thread; shut down and close it on exit."""

    def __init__(self, server):
        self.server = server
        self.thread = threading.Thread(target=server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.server

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)

    def submit(self, spec):
        request = urllib.request.Request(
            f"{self.server.url}/submit", json.dumps(spec).encode("utf-8")
        )
        with urllib.request.urlopen(request, timeout=5.0) as reply:
            return reply.status


def stress_reports(clients=2, n_requests=2, seed=0):
    """(races, lock reports) of one sanitized control-plane stress run."""
    with instrument() as san:
        control_plane_stress(clients=clients, n_requests=n_requests, seed=seed)
        return san.races(), san.lock_reports()


@pytest.mark.sanitize
class TestRetiredRuleCatchers:
    def test_gateway_registry_inversion_is_a_cycle(self, monkeypatch):
        """Lock order (was RPL801): a handler enqueues holding the
        registry lock while the driver counts holding the gateway lock.
        Publish runs before the request, so this run cannot deadlock."""
        from repro.telemetry import MetricRegistry
        from repro.warehouse import ServiceGateway, make_api_server

        enqueue, publish = ServiceGateway.enqueue, ServiceGateway.publish

        def enqueue_under_registry(self, command):
            with self.registry._lock:
                enqueue(self, command)

        def publish_counting(self, status):
            with self._lock:
                self.registry.counter("gateway.publishes").add()
            publish(self, status)

        monkeypatch.setattr(ServiceGateway, "enqueue", enqueue_under_registry)
        monkeypatch.setattr(ServiceGateway, "publish", publish_counting)
        with instrument() as san:
            registry = MetricRegistry()
            gateway = ServiceGateway()
            gateway.registry = registry
            serving = _Serving(make_api_server(gateway, registry))
            with serving:
                gateway.publish({})
                assert serving.submit({"workload": "canneal"}) == 202
            reports = san.lock_reports()
        assert [r.kind for r in reports] == ["cycle"]
        assert {lock.split("@")[0] for lock in reports[0].locks} == {
            "ServiceGateway", "MetricRegistry"
        }
        assert reports[0].thread != threading.main_thread().name

    @pytest.mark.parametrize("call", ["time.sleep", "os.fsync", "open"])
    def test_blocking_call_in_enqueue_is_reported(
        self, call, monkeypatch, tmp_path
    ):
        """Blocking under a lock (was RPL802), on a handler thread."""
        from repro.warehouse import ServiceGateway

        enqueue = ServiceGateway.enqueue
        fd = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT)

        def blocking_enqueue(self, command):
            with self._lock:
                if call == "time.sleep":
                    time.sleep(0)
                elif call == "os.fsync":
                    os.fsync(fd)
                else:
                    open(os.devnull).close()
            enqueue(self, command)

        monkeypatch.setattr(ServiceGateway, "enqueue", blocking_enqueue)
        try:
            races, reports = stress_reports()
        finally:
            os.close(fd)
        assert races == []
        assert {(r.kind, r.call) for r in reports} == {("blocking", call)}
        assert {r.locks[0].split("@")[0] for r in reports} == {
            "ServiceGateway"
        }

    @pytest.mark.parametrize("mutation", ["server-unregistered", "extra-attr"])
    def test_unwatched_object_reaching_handlers_is_named(
        self, mutation, monkeypatch
    ):
        """Handler-visible objects are watched (was RPL803): a server
        that skips its registration, or one that carries a plain mutable
        ``repro`` object, is named by the exposure check."""
        from repro.telemetry import MetricRegistry, SimulatedClock
        from repro.warehouse import ServiceGateway, api, make_api_server

        if mutation == "server-unregistered":
            register = api.register_shared
            monkeypatch.setattr(
                api, "register_shared",
                lambda obj, **kw: obj if isinstance(
                    obj, api.WarehouseAPIServer
                ) else register(obj, **kw),
            )
        else:
            init = api.WarehouseAPIServer.__init__

            def init_with_clock(self, *args, **kwargs):
                init(self, *args, **kwargs)
                self.clock = SimulatedClock()

            monkeypatch.setattr(
                api.WarehouseAPIServer, "__init__", init_with_clock
            )
        with instrument():
            server = make_api_server(ServiceGateway(), MetricRegistry())
            try:
                exposed = unwatched_exposures(server)
            finally:
                server.server_close()
        assert exposed == (
            ["server"] if mutation == "server-unregistered" else ["clock"]
        )

    def test_unguarded_enqueue_is_a_race(self, monkeypatch):
        """Lockset race (was RPL603): the unguarded enqueue that once
        shipped, handler append against the driver's guarded drain."""
        from repro.warehouse import ServiceGateway

        monkeypatch.setattr(
            ServiceGateway, "enqueue",
            lambda self, command: self._inbox.append(command),
        )
        races, reports = stress_reports()
        assert {r.fld for r in races} == {"_inbox[]"}
        assert reports == []

    def test_unguarded_counter_add_is_a_race(self, monkeypatch):
        """Lockset race (was RPL603): the driver bumps a counter without
        its lock while a handler scrapes it under the lock."""
        from repro.telemetry.metrics import Counter

        def add(self, amount=1):
            self._value += amount

        monkeypatch.setattr(Counter, "add", add)
        races, _ = stress_reports()
        assert "_value" in {r.fld for r in races}

    def test_unclosed_store_warns(self, tmp_path):
        """Resource lifetime (was RPL804): the suite turns this
        ``ResourceWarning`` into an error."""
        from repro.server import ObservationStore

        store = ObservationStore(tmp_path / "obs.jsonl")
        store.put("fp", (0, 1), (0.1,), ())  # opens the append handle
        with pytest.warns(ResourceWarning, match="obs.jsonl"):
            del store
            gc.collect()

    def test_unclosed_server_warns(self):
        """Resource lifetime (was RPL804): a bound control plane dropped
        without ``server_close()`` leaks its listening socket."""
        from repro.warehouse import ServiceGateway, make_api_server

        server = make_api_server(ServiceGateway())
        with pytest.warns(ResourceWarning, match="socket"):
            del server
            gc.collect()

    def test_resource_warnings_fail_the_suite(self):
        with pytest.raises(ResourceWarning):
            warnings.warn("leaked handle", ResourceWarning)


# ----------------------------------------------------------------------
# Hash-order probe
# ----------------------------------------------------------------------
@pytest.mark.sanitize
class TestHashOrderProbe:
    def test_ordered_target_is_deterministic(self):
        result = hash_order_probe(
            "lint_fixtures.sanitizer_racy:ordered_trajectory",
            hash_seeds=(0, 1),
        )
        assert result.deterministic, result.describe()

    def test_hash_dependent_target_is_flagged(self):
        result = hash_order_probe(
            "lint_fixtures.sanitizer_racy:hash_dependent_trajectory",
            hash_seeds=(0, 1, 2, 3),
        )
        assert not result.deterministic

    def test_crashing_target_raises(self):
        with pytest.raises(ProbeError):
            hash_order_probe("lint_fixtures.sanitizer_racy:no_such_function")

    def test_bad_target_spec_raises(self):
        with pytest.raises(ValueError, match="module:function"):
            hash_order_probe("not-a-target")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.mark.sanitize
class TestSanitizerCLI:
    def test_probe_deterministic_exits_zero(self, capsys):
        code = san_main(
            ["probe", "lint_fixtures.sanitizer_racy:ordered_trajectory"]
        )
        assert code == 0
        assert "identical output" in capsys.readouterr().out

    def test_probe_nondeterministic_exits_one(self, capsys):
        code = san_main(
            [
                "probe",
                "lint_fixtures.sanitizer_racy:hash_dependent_trajectory",
                "--hash-seeds", "0,1,2,3",
            ]
        )
        assert code == 1
        assert "DIFFERS" in capsys.readouterr().out

    def test_probe_bad_target_exits_two(self, capsys):
        code = san_main(["probe", "nonsense"])
        assert code == 2

    def test_stress_exits_one_on_a_lock_report(self, capsys, monkeypatch):
        from repro.warehouse import ServiceGateway

        enqueue = ServiceGateway.enqueue

        def sleepy_enqueue(self, command):
            with self._lock:
                time.sleep(0)
            enqueue(self, command)

        monkeypatch.setattr(ServiceGateway, "enqueue", sleepy_enqueue)
        code = san_main(["stress", "--clients", "2", "--requests", "2"])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "LOCK blocking call time.sleep" in out
        assert "1 lock report(s)" in out

    def test_stress_exits_one_on_a_race(self, capsys, monkeypatch):
        from repro.warehouse import ServiceGateway

        monkeypatch.setattr(
            ServiceGateway, "enqueue",
            lambda self, command: self._inbox.append(command),
        )
        code = san_main(["stress", "--clients", "2", "--requests", "2"])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "RACE data race on ServiceGateway@" in out
        assert "race(s) detected" in out

    def test_stress_prints_one_line_per_racy_field(self, capsys, monkeypatch):
        """The unguarded ``enqueue`` races on every pair of ``_inbox``
        access patterns; the report names the field once, with the pair
        count, while ``races()`` still lists every pair."""
        from repro.warehouse import ServiceGateway

        monkeypatch.setattr(
            ServiceGateway, "enqueue",
            lambda self, command: self._inbox.append(command),
        )
        code = san_main(["stress", "--clients", "2", "--requests", "2"])
        out = capsys.readouterr().out
        assert code == 1, out
        (line,) = [line for line in out.splitlines() if "RACE" in line]
        assert "._inbox[]: [" in line
        pairs = int(line.rsplit(" (", 1)[1].split()[0])
        assert f"{pairs} race(s) detected on 1 field(s)" in out
        assert pairs > 1

    def test_stress_exits_zero(self, capsys):
        code = san_main(["stress", "--clients", "2", "--requests", "3"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "6 submission(s) from 2 HTTP client(s)" in out
        assert "no races detected, no lock reports" in out

    @pytest.mark.parametrize("argv", [
        ["probe", "lint_fixtures.sanitizer_racy:ordered_trajectory",
         "--hash-seeds", "x,1"],
        # One universe compares nothing: it would always say identical.
        ["probe", "lint_fixtures.sanitizer_racy:ordered_trajectory",
         "--hash-seeds", "3"],
        ["probe", "lint_fixtures.sanitizer_racy:ordered_trajectory",
         "--hash-seeds", "1,1"],
        # Zero clients or requests exercise no thread at all.
        ["stress", "--clients", "0"],
        ["stress", "--requests", "0"],
        ["stress", "--clients", "two"],
        ["stress", "--clients", "-1"],
        ["stress", "--requests", "1.5"],
        ["probe", "lint_fixtures.sanitizer_racy:ordered_trajectory",
         "--hash-seeds", ""],
    ])
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            san_main(argv)
        assert exit_info.value.code == 2
        assert "error: argument" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Container (dict) mutation tracking
# ----------------------------------------------------------------------
class _DictHolder:
    """Toy shared object mutating a dict attribute, (un)guarded."""

    def __init__(self):
        self._lock = threading.Lock()
        self.table = {}

    def bump_unguarded(self, n=300):
        for i in range(n):
            self.table[i % 7] = self.table.get(i % 7, 0) + 1

    def bump_guarded(self, n=300):
        for i in range(n):
            with self._lock:
                self.table[i % 7] = self.table.get(i % 7, 0) + 1

    def read_table(self, n=300):
        total = 0
        for i in range(n):
            total += self.table.get(i % 7, 0)
        return total


@pytest.mark.sanitize
class TestContainerTracking:
    def test_unguarded_dict_mutation_race_detected(self):
        """Attribute shadowing alone only sees the fetch of the
        container; item-level tracking must catch ``d[k] = v`` races."""
        holder = _DictHolder()
        with instrument(holder, container_attrs=("table",)) as san:
            run_threads(holder.bump_unguarded, holder.bump_unguarded)
            races = san.races()
        assert any(r.fld == "table[]" for r in races)

    def test_guarded_dict_mutation_is_clean(self):
        holder = _DictHolder()
        with instrument(holder, container_attrs=("table",)) as san:
            run_threads(holder.bump_guarded, holder.bump_guarded)
            races = san.races()
        assert all(r.fld != "table[]" for r in races)

    def test_write_read_container_race_detected(self):
        holder = _DictHolder()
        with instrument(holder, container_attrs=("table",)) as san:
            run_threads(holder.bump_unguarded, holder.read_table)
            races = san.races()
        kinds = {
            frozenset((r.first.kind, r.second.kind))
            for r in races
            if r.fld == "table[]"
        }
        assert frozenset(("write", "read")) in kinds

    def test_mutations_land_on_the_real_dict(self):
        holder = _DictHolder()
        with instrument(holder, container_attrs=("table",)):
            holder.bump_guarded(n=7)
        assert sum(holder.table.values()) == 7

    def test_restore_reinstates_original_container(self):
        holder = _DictHolder()
        original = holder.table
        with instrument(holder, container_attrs=("table",)):
            assert holder.table is not original  # proxied
            holder.bump_guarded(n=3)
        assert holder.table is original
        assert sum(original.values()) == 3

    def test_sequence_attrs_dispatch_by_type(self):
        """watch() picks the proxy per container kind; unknown kinds
        are left unwrapped rather than broken."""
        import collections

        class Holder:
            def __init__(self):
                self.items = []
                self.seen = set()
                self.ring = collections.deque(maxlen=4)
                self.table = {}
                self.opaque = frozenset()

        holder = Holder()
        with instrument(
            holder,
            container_attrs=("items", "seen", "ring", "table", "opaque"),
        ):
            holder.items.append(1)
            holder.seen.add(2)
            holder.ring.append(3)
            holder.table["k"] = 4
            assert holder.opaque == frozenset()  # untouched
        assert holder.items == [1]
        assert holder.seen == {2}
        assert list(holder.ring) == [3]
        assert holder.table == {"k": 4}

    def test_observation_store_self_registers_race_free(self, tmp_path):
        """The store registers itself (entries map included) with an
        active sanitizer; its lock discipline must hold under fire.
        Its one lock is taken in no order with another, and it blocks
        under that lock only where durability asks for it: opening the
        append log and fsync-ing the compacted file."""
        from repro.server import ObservationStore

        with instrument() as san:
            store = ObservationStore(tmp_path / "obs.jsonl", max_entries=32)
            assert type(store).__name__.startswith("_Sanitized")

            def worker(base):
                for i in range(60):
                    store.put("fp", (base, i), (0.1,), ())
                    store.get("fp", (base, (i * 3) % 60), (0.1,))

            try:
                run_threads(lambda: worker(0), lambda: worker(1))
            finally:
                store.close()
            races = san.races()
            lock_reports = san.lock_reports()
        assert races == []
        assert {r.kind for r in lock_reports} == {"blocking"}
        assert {r.call for r in lock_reports} == {"open", "os.fsync"}
        assert {r.locks for r in lock_reports} == {
            ("ObservationStore@obs.jsonl._lock",)
        }


# ----------------------------------------------------------------------
# Container (list/set/deque) mutation tracking
# ----------------------------------------------------------------------
class _SeqHolder:
    """Toy shared object appending to a list attribute, (un)guarded."""

    def __init__(self):
        self._lock = threading.Lock()
        self.log = []
        self.tags = set()

    def append_unguarded(self, n=300):
        for i in range(n):
            self.log.append(i)

    def append_guarded(self, n=300):
        for i in range(n):
            with self._lock:
                self.log.append(i)

    def tag_unguarded(self, n=300):
        for i in range(n):
            self.tags.add(i % 11)

    def read_log(self, n=300):
        total = 0
        for _ in range(n):
            total += len(self.log)
        return total


@pytest.mark.sanitize
class TestSequenceTracking:
    def test_cross_thread_list_append_race_detected(self):
        """Two threads calling ``list.append`` with no common lock is
        a race the shadow sequence proxy must see."""
        holder = _SeqHolder()
        with instrument(holder, container_attrs=("log",)) as san:
            run_threads(holder.append_unguarded, holder.append_unguarded)
            races = san.races()
        assert any(r.fld == "log[]" for r in races)

    def test_guarded_list_append_is_clean(self):
        holder = _SeqHolder()
        with instrument(holder, container_attrs=("log",)) as san:
            run_threads(holder.append_guarded, holder.append_guarded)
            races = san.races()
        assert all(r.fld != "log[]" for r in races)

    def test_list_write_read_race_detected(self):
        holder = _SeqHolder()
        with instrument(holder, container_attrs=("log",)) as san:
            run_threads(holder.append_unguarded, holder.read_log)
            races = san.races()
        kinds = {
            frozenset((r.first.kind, r.second.kind))
            for r in races
            if r.fld == "log[]"
        }
        assert frozenset(("write", "read")) in kinds

    def test_set_add_race_detected(self):
        holder = _SeqHolder()
        with instrument(holder, container_attrs=("tags",)) as san:
            run_threads(holder.tag_unguarded, holder.tag_unguarded)
            races = san.races()
        assert any(r.fld == "tags[]" for r in races)

    def test_deque_operations_recorded(self):
        import collections

        class Ring:
            def __init__(self):
                self.ring = collections.deque(maxlen=8)

        ring = Ring()
        with instrument(ring, container_attrs=("ring",)) as san:
            ring.ring.append(1)
            ring.ring.appendleft(0)
            ring.ring.popleft()
            accesses = san.accesses()
        writes = [
            a for a in accesses if a.fld == "ring[]" and a.kind == "write"
        ]
        assert writes and writes[0].count == 3

    def test_set_union_reads_through_the_proxy(self):
        """``plain | proxy`` and ``proxy | plain`` both work and record a
        read (the warehouse re-check unions its dirty set this way)."""
        holder = _SeqHolder()
        holder.tags.update({1, 2})
        with instrument(holder, container_attrs=("tags",)) as san:
            assert {0} | holder.tags == {0, 1, 2}
            assert holder.tags | {3} == {1, 2, 3}
            reads = [
                a for a in san.accesses() if a.fld == "tags[]" and a.kind == "read"
            ]
        assert reads and reads[0].count == 2

    @pytest.mark.parametrize(
        "apply",
        [
            lambda a, b: a & b,
            lambda a, b: a - b,
            lambda a, b: a ^ b,
        ],
        ids=["and", "sub", "xor"],
    )
    def test_set_operators_match_the_unwrapped_set(self, apply):
        """Each binary set operator, either side, returns what the bare
        set returns and records one read per use."""
        holder = _SeqHolder()
        holder.tags.update({1, 2, 3})
        plain = {2, 3, 4}
        expected = (apply(set(holder.tags), plain), apply(plain, set(holder.tags)))
        with instrument(holder, container_attrs=("tags",)) as san:
            got = (apply(holder.tags, plain), apply(plain, holder.tags))
            reads = [
                a for a in san.accesses() if a.fld == "tags[]" and a.kind == "read"
            ]
        assert got == expected
        assert reads and reads[0].count == 2

    def test_restore_reinstates_original_list(self):
        holder = _SeqHolder()
        original = holder.log
        with instrument(holder, container_attrs=("log",)):
            assert holder.log is not original  # proxied
            holder.append_guarded(n=3)
        assert holder.log is original
        assert original == [0, 1, 2]

    def test_node_history_registers_as_sequence(self, mini_server):
        """Node now opts ``_history`` into item-level tracking; serial
        observes must stay race-free with the proxy installed."""
        from conftest import make_node

        with instrument() as san:
            node = make_node(mini_server, lc_loads=(0.4,), n_bg=1)
            node.observe(node.space.equal_partition())
            assert type(node._history).__name__ == "_ShadowSequence"
            races = san.races()
        assert races == []
        assert len(node._history) == 1


class _Holder:
    def __init__(self, container):
        self.items = container


def _seeded(make):
    return make({"a": 1, "b": 2}) if make in (dict, OrderedDict) else make(
        [3, 1, 2]
    )


@pytest.mark.sanitize
class TestProxySurface:
    """Each proxied method returns what the bare container returns,
    leaves it in the same state, and records one access of its kind."""

    @pytest.mark.parametrize("make, kind, call", [
        (dict, "write", lambda d: d.setdefault("c", 3)),
        (dict, "write", lambda d: d.pop("a")),
        (dict, "write", lambda d: d.popitem()),
        (dict, "write", lambda d: d.update(z=9)),
        (dict, "write", lambda d: d.clear()),
        (dict, "write", lambda d: d.__delitem__("a")),
        (OrderedDict, "write", lambda d: d.move_to_end("a")),
        (OrderedDict, "write", lambda d: d.popitem(last=False)),
        (dict, "read", lambda d: d.get("a")),
        (dict, "read", lambda d: sorted(d.items())),
        (dict, "read", lambda d: sorted(d.values())),
        (list, "write", lambda s: s.insert(0, 9)),
        (list, "write", lambda s: s.extend([7, 8])),
        (list, "write", lambda s: s.remove(1)),
        (list, "write", lambda s: s.pop()),
        (list, "write", lambda s: s.sort(reverse=True)),
        (list, "write", lambda s: s.reverse()),
        (list, "read", lambda s: s.index(2)),
        (list, "read", lambda s: s.count(3)),
        (set, "write", lambda s: s.discard(2)),
        (deque, "write", lambda s: s.popleft()),
        (deque, "read", lambda s: s.copy()),
    ], ids=[
        "dict-setdefault", "dict-pop", "dict-popitem", "dict-update",
        "dict-clear", "dict-delitem", "odict-move_to_end",
        "odict-popitem-first", "dict-get", "dict-items", "dict-values",
        "list-insert", "list-extend", "list-remove", "list-pop",
        "list-sort", "list-reverse", "list-index", "list-count",
        "set-discard", "deque-popleft", "deque-copy",
    ])
    def test_method_delegates_and_records(self, make, kind, call):
        plain = _seeded(make)
        expected = call(plain)
        holder = _Holder(_seeded(make))
        with instrument(holder, container_attrs=("items",)) as san:
            got = call(holder.items)
            recorded = [
                (a.kind, a.count) for a in san.accesses() if a.fld == "items[]"
            ]
        assert got == expected
        assert holder.items == plain
        assert recorded == [(kind, 1)]


@pytest.mark.sanitize
class TestReentrantLockset:
    class _Reentrant:
        """Self-guarding helpers re-take the RLock (the obstore pattern)."""

        def __init__(self):
            self._lock = threading.RLock()
            self.value = 0

        def _bump_inner(self):
            with self._lock:
                self.value += 1

        def bump(self, n=200):
            for _ in range(n):
                with self._lock:
                    self._bump_inner()
                    self.value += 1  # after the inner release

    def test_inner_release_keeps_outer_hold(self):
        """Regression: the held-set dropped an RLock token on the first
        release, so accesses between an inner and the outer release
        looked unguarded and produced false races."""
        obj = self._Reentrant()
        with instrument(obj, names=("Reentrant",)) as san:
            run_threads(obj.bump, obj.bump)
            races = san.races()
        assert all(r.fld != "value" for r in races)
        locksets = {
            rec.lockset
            for rec in san.accesses()
            if rec.fld == "value" and rec.kind == "write"
        }
        assert frozenset() not in locksets

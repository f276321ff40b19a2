"""repro-san: shadow instrumentation, race detection, hash-order probe,
and the live HTTP control plane under the sanitizer."""

from __future__ import annotations

import socketserver
import threading

import pytest

from repro.sanitizer import (
    ProbeError,
    Sanitizer,
    active_sanitizer,
    hash_order_probe,
    instrument,
    register_shared,
)
from repro.sanitizer.cli import control_plane_stress
from repro.sanitizer.cli import main as san_main

from lint_fixtures.sanitizer_racy import RacyAccumulator


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


# ----------------------------------------------------------------------
# The live HTTP control plane under the sanitizer
# ----------------------------------------------------------------------
@pytest.mark.sanitize
class TestRealPoolStress:
    """Concurrent HTTP clients (the server's per-request threads) against
    the driver thread that runs the scheduler."""

    def test_http_control_plane_is_race_free(self):
        """The acceptance gate: live server + telemetry, zero races."""
        with instrument() as san:
            _, submits = control_plane_stress(clients=3, n_requests=6, seed=0)
            races = san.races()
            names = {record.obj_name.split("@")[0] for record in san.accesses()}
        assert submits == 18
        assert {"ServiceGateway", "MetricRegistry", "WarehouseService"} <= names
        assert races == [], "\n".join(r.describe() for r in races)

    def test_same_seed_bit_identical_under_sanitizer(self):
        """Instrumentation must not perturb the timeline: the sanitized
        HTTP run reproduces the direct, uninstrumented replay exactly."""
        plain = control_plane_stress(clients=2, n_requests=5, seed=0, via_http=False)
        with instrument():
            sanitized = control_plane_stress(clients=2, n_requests=5, seed=0)
        assert sanitized == plain

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

    def test_stress_exits_zero(self, capsys):
        code = san_main(["stress", "--clients", "2", "--requests", "3"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "6 submission(s) from 2 HTTP client(s)" in out
        assert "no races detected" in out


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
        active sanitizer; its lock discipline must hold under fire."""
        from repro.server import ObservationStore

        with instrument() as san:
            store = ObservationStore(tmp_path / "obs.jsonl", max_entries=32)
            assert type(store).__name__.startswith("_Sanitized")

            def worker(base):
                for i in range(60):
                    store.put("fp", (base, i), (0.1,), ())
                    store.get("fp", (base, (i * 3) % 60), (0.1,))

            run_threads(lambda: worker(0), lambda: worker(1))
            races = san.races()
        assert races == []


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
        the race RPL803/RPL805 reason about statically; the shadow
        sequence proxy must see it dynamically too."""
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

"""Unit and integration tests for the persistent observation store."""

import json
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import make_bg, make_lc, make_node
from repro.cluster import ClusterNode, JobRequest
from repro.warehouse.admission import engine_digest, verify_node
from repro.core import CLITEConfig
from repro.core.acquisition import ExpectedImprovement
from repro.core.kernels import Matern52
from repro.resources import Resource, ServerSpec
from repro.server import ObservationStore, node_fingerprint
from repro.server.node import LC_ROLE
from repro.server.obstore import SCHEMA_KIND, SCHEMA_VERSION, Verdict
from repro.telemetry import Telemetry

#: A small engine budget for memo tests (each miss is one BO run).
MEMO_ENGINE = CLITEConfig(
    max_iterations=6,
    post_qos_iterations=2,
    refine_budget=2,
    confirm_top=1,
    n_restarts=2,
)


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "observations.jsonl"


def sweep(node, n=12, rng_seed=5):
    """Observe ``n`` distinct random configurations (replayable by seed)."""
    rng = np.random.default_rng(rng_seed)
    configs, seen = [], set()
    while len(configs) < n:
        config = node.space.random(rng)
        if config.flat() not in seen:
            seen.add(config.flat())
            configs.append(config)
    observations = [node.observe(c) for c in configs]
    return configs, observations


class TestFingerprint:
    def test_same_physics_same_fingerprint(self, mini_server):
        a = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1)
        b = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, seed=99)
        fp_a = node_fingerprint(mini_server, a.jobs, a.window_s)
        fp_b = node_fingerprint(mini_server, b.jobs, b.window_s)
        # The noise seed must NOT enter the fingerprint: truths are
        # noise-free, and noise is drawn fresh per window either way.
        assert fp_a == fp_b

    def test_window_length_changes_fingerprint(self, mini_server):
        node = make_node(mini_server)
        assert node_fingerprint(
            mini_server, node.jobs, 2.0
        ) != node_fingerprint(mini_server, node.jobs, 4.0)

    def test_workload_set_changes_fingerprint(self, mini_server):
        one_bg = make_node(mini_server, lc_loads=(0.4,), n_bg=1)
        two_bg = make_node(mini_server, lc_loads=(0.4,), n_bg=2)
        assert node_fingerprint(
            mini_server, one_bg.jobs, 2.0
        ) != node_fingerprint(mini_server, two_bg.jobs, 2.0)

    def test_storeless_node_has_no_fingerprint(self, mini_server):
        assert make_node(mini_server).fingerprint is None


class TestRoundTrip:
    def test_truths_survive_a_restart(self, mini_server, store_path):
        """A fresh store object on a fresh node replays the file for free."""
        with ObservationStore(store_path) as store:
            node = make_node(mini_server, store=store)
            configs, originals = sweep(node)
            assert node.physics_computations == len(configs)

        with ObservationStore(store_path) as warm:
            assert warm.stats().loaded == len(configs)
            replay_node = make_node(mini_server, store=warm)
            _, replays = sweep(replay_node)
            assert replay_node.physics_computations == 0
            assert warm.stats().hits == len(configs)
        # Noise-free nodes: replayed readings are bit-identical (JSON
        # round-trips floats exactly).
        for original, replay in zip(originals, replays):
            assert original.jobs == replay.jobs

    def test_noise_drawn_fresh_despite_warm_store(
        self, mini_server, store_path
    ):
        with ObservationStore(store_path) as store:
            sweep(make_node(mini_server, noise=0.01, seed=3, store=store))

        with ObservationStore(store_path) as warm:
            cold_node = make_node(mini_server, noise=0.01, seed=3)
            warm_node = make_node(mini_server, noise=0.01, seed=3, store=warm)
            _, expected = sweep(cold_node)
            _, observed = sweep(warm_node)
            assert warm_node.physics_computations == 0
        # Same seed -> same noisy readings, with or without the store.
        for want, got in zip(expected, observed):
            assert want.jobs == got.jobs

    def test_shared_across_nodes_in_one_process(self, mini_server, store_path):
        with ObservationStore(store_path) as store:
            configs, _ = sweep(make_node(mini_server, store=store))
            twin = make_node(mini_server, store=store)
            for config in configs:
                twin.observe(config)
            assert twin.physics_computations == 0

    def test_different_fingerprint_misses(self, mini_server, store_path):
        with ObservationStore(store_path) as store:
            configs, _ = sweep(make_node(mini_server, store=store))
            other = make_node(mini_server, lc_loads=(0.5,), n_bg=2, store=store)
            rng = np.random.default_rng(5)
            other.observe(other.space.random(rng))
            assert other.physics_computations == 1


class TestLRUBounds:
    def test_eviction_at_capacity(self, mini_server, store_path):
        store = ObservationStore(store_path, max_entries=5)
        node = make_node(mini_server, store=store)
        sweep(node, n=12)
        assert len(store) == 5
        assert store.stats().evictions == 12 - 5

    def test_capacity_enforced_on_reload(self, mini_server, store_path):
        with ObservationStore(store_path) as store:
            sweep(make_node(mini_server, store=store), n=12)
        small = ObservationStore(store_path, max_entries=3)
        assert len(small) == 3

    def test_get_refreshes_recency(self, store_path):
        store = ObservationStore(store_path, max_entries=2)
        store.put("fp", (1,), (0.1,), ())
        store.put("fp", (2,), (0.1,), ())
        assert store.get("fp", (1,), (0.1,)) is not None  # refresh (1,)
        store.put("fp", (3,), (0.1,), ())  # evicts (2,), not (1,)
        assert store.get("fp", (1,), (0.1,)) is not None
        assert store.get("fp", (2,), (0.1,)) is None

    def test_invalid_capacity_rejected(self, store_path):
        with pytest.raises(ValueError, match="max_entries"):
            ObservationStore(store_path, max_entries=0)


class TestCorruptionTolerance:
    def _write_valid_store(self, mini_server, store_path, n=6):
        with ObservationStore(store_path) as store:
            node = make_node(mini_server, store=store)
            configs, _ = sweep(node, n=n)
        return configs

    def test_truncated_line_skipped(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        lines = store_path.read_text().splitlines()
        lines[3] = lines[3][: len(lines[3]) // 2]
        store_path.write_text("\n".join(lines) + "\n")
        store = ObservationStore(store_path)
        assert store.stats().corrupt == 1
        assert store.stats().loaded == 5

    def test_garbage_lines_skipped(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        valid = json.loads(store_path.read_text().splitlines()[-1])
        cfg, loads = valid["cfg"], valid["loads"]
        lc_job, *other_jobs = valid["jobs"]
        assert lc_job["role"] == LC_ROLE
        with open(store_path, "a") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"fp": "x"}) + "\n")  # missing fields
            # Keys _encode_entry never writes: a float or bool config
            # unit (int() would file them under a valid record's key),
            # a bool or string load.  Then job readings it never
            # writes: a string p95 (qos_met would raise) and a role
            # that is neither LC_ROLE nor BG_ROLE (an LC job read as
            # BG, so qos_met would be silently True).
            for bad in (
                {"cfg": [cfg[0] + 0.9, *cfg[1:]]},
                {"cfg": [True, *cfg[1:]]},
                {"loads": [True] * len(loads)},
                {"loads": [str(l) for l in loads]},
                {"jobs": [{**lc_job, "p95_ms": "fast"}, *other_jobs]},
                {"jobs": [{**lc_job, "role": "lc"}, *other_jobs]},
            ):
                fh.write(json.dumps({**valid, **bad}) + "\n")
        store = ObservationStore(store_path)
        assert store.stats().corrupt == 8
        assert store.stats().loaded == 6
        # The valid record a truncating parse would have replaced.
        jobs = store.get(valid["fp"], tuple(cfg), tuple(loads))
        assert jobs is not None
        assert [asdict(job) for job in jobs] == valid["jobs"]

    def test_wrong_header_discards_file(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        lines = store_path.read_text().splitlines()
        lines[0] = json.dumps({"schema": "something-else", "version": 1})
        store_path.write_text("\n".join(lines) + "\n")
        store = ObservationStore(store_path)
        assert len(store) == 0
        assert store.stats().corrupt == 1

    def test_future_version_discards_file(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        lines = store_path.read_text().splitlines()
        lines[0] = json.dumps(
            {"schema": SCHEMA_KIND, "version": SCHEMA_VERSION + 1}
        )
        store_path.write_text("\n".join(lines) + "\n")
        assert len(ObservationStore(store_path)) == 0

    @pytest.mark.parametrize(
        "header",
        [
            {"schema": SCHEMA_KIND, "version": SCHEMA_VERSION - 1},
            {"schema": "something-else", "version": SCHEMA_VERSION},
        ],
        ids=["old-version", "foreign"],
    )
    def test_records_written_after_a_discard_survive_a_reopen(
        self, mini_server, store_path, header
    ):
        self._write_valid_store(mini_server, store_path)
        lines = store_path.read_text().splitlines()
        lines[0] = json.dumps(header)
        store_path.write_text("\n".join(lines) + "\n")
        with ObservationStore(store_path) as store:
            assert len(store) == 0 and store.stats().corrupt == 1
            for i in range(5):
                store.put_verdict(f"k{i}", Verdict(True, None, i))
        reopened = ObservationStore(store_path)
        assert reopened.stats().loaded == 5
        assert reopened.stats().corrupt == 0
        assert reopened.get_verdict("k4") == Verdict(True, None, 4)
        # The first write replaced the discarded content wholesale.
        assert len(store_path.read_text().splitlines()) == 6

    def test_discarded_file_is_untouched_until_written(
        self, mini_server, store_path
    ):
        self._write_valid_store(mini_server, store_path)
        foreign = json.dumps({"schema": "something-else"}) + "\n"
        store_path.write_text(foreign)
        ObservationStore(store_path).close()
        assert store_path.read_text() == foreign

    def test_missing_file_is_empty_store(self, store_path):
        store = ObservationStore(store_path)
        assert len(store) == 0
        assert store.stats().corrupt == 0

    def test_empty_file_is_empty_store(self, store_path):
        store_path.write_text("")
        assert len(ObservationStore(store_path)) == 0


class TestCompaction:
    def test_file_stays_bounded(self, mini_server, store_path):
        store = ObservationStore(store_path, max_entries=4)
        node = make_node(mini_server, store=store)
        sweep(node, n=40, rng_seed=1)
        sweep(make_node(mini_server, store=store), n=40, rng_seed=2)
        store.flush()
        lines = store_path.read_text().splitlines()
        # Compaction keeps the file at header + live entries, never the
        # full append history.
        assert len(lines) <= max(2 * store.max_entries, 64) + 1
        assert json.loads(lines[0])["schema"] == SCHEMA_KIND

    def test_compacted_file_reloads(self, mini_server, store_path):
        store = ObservationStore(store_path, max_entries=4)
        node = make_node(mini_server, store=store)
        sweep(node, n=80, rng_seed=1)
        store.close()
        reloaded = ObservationStore(store_path, max_entries=4)
        assert len(reloaded) == 4


class TestConcurrency:
    def test_parallel_puts_and_gets(self, store_path):
        store = ObservationStore(store_path, max_entries=64)
        errors = []

        def worker(base):
            try:
                for i in range(50):
                    store.put("fp", (base, i), (0.1,), ())
                    store.get("fp", (base, (i * 7) % 50), (0.1,))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 64


def _memo_state(spec, loads=(0.3,)):
    """A node state with one LC job per load plus one BG job."""
    state = ClusterNode(0, spec)
    for i, load in enumerate(loads):
        state = state.with_request(
            JobRequest(make_lc(f"svc-{i}"), load, name=f"svc-{i}")
        )
    return state.with_request(JobRequest(make_bg("batch"), name="batch"))


def _engine_runs(telemetry):
    return telemetry.metrics.counter("engine.runs").value


class TestVerdictMemo:
    """Whole CLITE verifications are memoised under an exact key."""

    def test_repeat_verification_skips_the_engine(
        self, mini_server, store_path
    ):
        state = _memo_state(mini_server)
        telemetry = Telemetry.enabled()
        with ObservationStore(store_path) as store:
            first = verify_node(state, MEMO_ENGINE, 0, telemetry, store)
            second = verify_node(state, MEMO_ENGINE, 0, telemetry, store)
            stats = store.stats()
        assert first == second == verify_node(state, MEMO_ENGINE, 0)
        assert _engine_runs(telemetry) == 1
        assert stats.verdicts == 1 and stats.verdict_hits == 1
        assert telemetry.metrics.counter("verify.memo.hits").value == 1
        assert telemetry.metrics.counter("verify.memo.misses").value == 1
        memo = [
            span.attributes["memo"]
            for span in telemetry.tracer.finished()
            if span.name == "cluster.verify_node"
        ]
        assert memo == [False, True]

    def test_verdicts_survive_a_restart(self, mini_server, store_path):
        state = _memo_state(mini_server)
        with ObservationStore(store_path) as store:
            cold = verify_node(state, MEMO_ENGINE, 0, store=store)
        telemetry = Telemetry.enabled()
        with ObservationStore(store_path) as reopened:
            assert reopened.stats().verdicts == 1
            warm = verify_node(state, MEMO_ENGINE, 0, telemetry, reopened)
            assert reopened.stats().verdict_hits == 1
        assert warm == cold
        assert _engine_runs(telemetry) == 0

    def test_keys_differ_across_inputs(self, mini_server, store_path):
        """Loads, seed, engine settings and the server spec each reach
        the key: every variant runs its own search."""
        bigger = ServerSpec(
            resources=tuple(
                Resource(r.name, r.units + 1) for r in mini_server.resources
            )
        )
        variants = [
            (_memo_state(mini_server), MEMO_ENGINE, 0),
            (_memo_state(mini_server, loads=(0.4,)), MEMO_ENGINE, 0),
            (_memo_state(mini_server), MEMO_ENGINE, 1),
            (_memo_state(mini_server), replace(MEMO_ENGINE, n_restarts=3), 0),
            (_memo_state(bigger), MEMO_ENGINE, 0),
        ]
        telemetry = Telemetry.enabled()
        with ObservationStore(store_path) as store:
            for state, config, seed in variants:
                verify_node(state, config, seed, telemetry, store)
            stats = store.stats()
        assert stats.verdicts == len(variants)
        assert stats.verdict_hits == 0
        assert _engine_runs(telemetry) == len(variants)

    def test_engine_digest_covers_settings_not_telemetry(self):
        assert engine_digest(MEMO_ENGINE) == engine_digest(
            replace(MEMO_ENGINE, telemetry=Telemetry.enabled())
        )
        assert engine_digest(MEMO_ENGINE) != engine_digest(
            replace(MEMO_ENGINE, zeta=0.02)
        )
        assert engine_digest(MEMO_ENGINE) != engine_digest(
            replace(MEMO_ENGINE, seed=1)
        )

    @pytest.mark.parametrize(
        "config, seed",
        [
            (MEMO_ENGINE, None),
            (replace(MEMO_ENGINE, acquisition=ExpectedImprovement()), 0),
            (replace(MEMO_ENGINE, kernel=Matern52()), 0),
        ],
        ids=["unseeded", "custom-acquisition", "custom-kernel"],
    )
    def test_unstable_inputs_bypass_the_memo(
        self, mini_server, store_path, config, seed
    ):
        state = _memo_state(mini_server)
        telemetry = Telemetry.enabled()
        with ObservationStore(store_path) as store:
            for _ in range(2):
                verify_node(state, config, seed, telemetry, store)
            stats = store.stats()
        assert stats.verdicts == 0 and stats.verdict_hits == 0
        assert _engine_runs(telemetry) == 2
        assert telemetry.metrics.counter("verify.memo.misses").value == 0

    def test_truncated_verdict_line_skipped(self, store_path):
        with ObservationStore(store_path) as store:
            for i in range(3):
                store.put_verdict(f"k{i}", Verdict(True, 0.5, 10 + i))
        lines = store_path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        lines.append(json.dumps({"verdict": "k9", "qos_met": "yes",
                                 "bg_perf": None, "samples": 1}))
        # bool is an int subclass; a true sample count is still no count.
        lines.append(json.dumps({"verdict": "k8", "qos_met": True,
                                 "bg_perf": None, "samples": True}))
        store_path.write_text("\n".join(lines) + "\n")
        reopened = ObservationStore(store_path)
        assert reopened.stats().corrupt == 3
        assert reopened.stats().verdicts == 2
        assert reopened.get_verdict("k0") == Verdict(True, 0.5, 10)
        assert reopened.get_verdict("k1") is None
        assert reopened.get_verdict("k8") is None

    def test_version_1_file_is_discarded(self, mini_server, store_path):
        with ObservationStore(store_path) as store:
            sweep(make_node(mini_server, store=store), n=4)
            store.put_verdict("k", Verdict(False, None, 7))
        lines = store_path.read_text().splitlines()
        lines[0] = json.dumps({"schema": SCHEMA_KIND, "version": 1})
        store_path.write_text("\n".join(lines) + "\n")
        old = ObservationStore(store_path)
        assert len(old) == 0
        assert old.stats().verdicts == 0
        assert old.stats().corrupt == 1

    def test_verdicts_respect_the_lru_bound(self, store_path):
        store = ObservationStore(store_path, max_entries=3)
        for i in range(5):
            store.put_verdict(f"k{i}", Verdict(True, None, i))
        assert store.stats().verdicts == 3
        assert store.stats().evictions == 2
        assert store.get_verdict("k0") is None
        assert store.get_verdict("k4") == Verdict(True, None, 4)
        store.close()
        assert ObservationStore(store_path, max_entries=2).stats().verdicts == 2

    def test_verdicts_survive_compaction(self, mini_server, store_path):
        store = ObservationStore(store_path, max_entries=4)
        store.put_verdict("kept", Verdict(True, 0.25, 12))
        sweep(make_node(mini_server, store=store), n=80, rng_seed=1)
        store.close()
        # Compaction kept the file near the live record count ...
        assert len(store_path.read_text().splitlines()) <= 64 + 1
        # ... and carried the verdict through every rewrite.
        reloaded = ObservationStore(store_path, max_entries=4)
        assert reloaded.get_verdict("kept") == Verdict(True, 0.25, 12)
        assert len(reloaded) == 4

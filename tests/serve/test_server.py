"""HTTP end-to-end: submissions, batches, cache hits, error statuses,
and the stats endpoint — against a live ``ScoutServer`` on a loopback
ephemeral port."""

import json
import urllib.error
import urllib.request

import pytest

from repro.gpu.trace_cache import configure_trace_cache
from repro.serve import ScoutServer
from repro.serve.protocol import EXIT_USAGE, strip_volatile

KERNEL = "reduction:warp"


@pytest.fixture
def server(tmp_path):
    srv = ScoutServer(workers=0, cache_dir=str(tmp_path)).start()
    yield srv
    srv.stop()
    configure_trace_cache(None)


def post(srv, path, body, timeout=120):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(srv.url + path, data=data)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def get(srv, path):
    try:
        with urllib.request.urlopen(srv.url + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["mode"] == "inline"

    def test_unknown_path_404(self, server):
        status, body = get(server, "/nope")
        assert status == 404 and body["ok"] is False
        status, _ = post(server, "/v1/nope", {"kernel": KERNEL})
        assert status == 404

    def test_analyze_cold_then_warm(self, server):
        status, cold = post(server, "/v1/analyze",
                            {"kernel": KERNEL, "size": 128})
        assert status == 200 and cold["cache"] == "cold"
        status, warm = post(server, "/v1/analyze",
                            {"kernel": KERNEL, "size": 128})
        assert status == 200 and warm["cache"] == "l3"
        assert warm["report"] == cold["report"]

    def test_front_memo_answers_without_engine(self, server):
        post(server, "/v1/analyze", {"kernel": KERNEL, "size": 128})
        cold_runs = server.runner.cold
        post(server, "/v1/analyze", {"kernel": KERNEL, "size": 128})
        assert server.l3_front_hits == 1
        assert server.runner.cold == cold_runs, \
            "warm repeat must not reach the engine"

    def test_address_memo_keeps_what_is_read(self, server):
        """The memo is an LRU, not a FIFO: a submission repeated now
        and then outlives more than a memo's worth (4096) of others
        and never reaches the engine a second time."""
        from repro.serve.cache import ReportCache

        reports = server.runner.reports = ReportCache(None, capacity=8192)
        computed = []

        def run(payload):
            address = f"address-{payload['size']}"
            computed.append(address)
            report = {"kernel": KERNEL}
            reports.put(address, report)
            return {"ok": True, "code": 0, "cache": "cold",
                    "address": address, "kernel": KERNEL,
                    "cacheable": True, "report": report}

        server.runner.run = run

        def submit(size):
            return server.handle_submission(
                {"kernel": KERNEL, "size": size})[1]["cache"]

        assert submit(1) == "cold"
        for size in range(2, 4200):
            assert submit(size) == "cold"
            if size % 512 == 0:
                assert submit(1) == "l3"
        assert submit(1) == "l3"
        assert computed.count("address-1") == 1
        memo = server.stats()["occupancy"]["memo"]
        assert memo["entries"] == 4096 and memo["evictions"] > 0

    def test_batch_preserves_order_and_reports_partial_failure(
            self, server):
        status, body = post(server, "/v1/batch", {"requests": [
            {"kernel": KERNEL, "size": 128},
            {"kernel": "bogus:kernel"},
            {"kernel": KERNEL, "size": 128, "dry_run": True},
        ]})
        assert status == 200
        assert body["ok"] is False, "one failed member flips batch ok"
        ok0, bad, ok2 = body["responses"]
        assert ok0["ok"] and ok2["ok"]
        assert bad["code"] == EXIT_USAGE
        assert ok2["report"]["mode"] == "dry-run"

    def test_batch_malformed_body(self, server):
        status, body = post(server, "/v1/batch", {"nope": []})
        assert status == 400 and body["code"] == EXIT_USAGE

    def test_invalid_json_body(self, server):
        status, body = post(server, "/v1/analyze", b"{not json")
        assert status == 400 and body["code"] == EXIT_USAGE

    def test_usage_errors_are_400(self, server):
        for payload in ({"kernel": KERNEL, "bogus": 1},
                        {"kernel": KERNEL, "size": "big"},
                        {"kernel": KERNEL, "arch": "h100"}):
            status, body = post(server, "/v1/analyze", payload)
            assert status == 400 and body["code"] == EXIT_USAGE

    def test_per_request_deadline(self, server):
        status, env = post(server, "/v1/analyze",
                           {"kernel": KERNEL, "size": 512,
                            "deadline": 1e-9})
        assert status == 200 and env["ok"]
        assert env["report"]["mode"] in ("functional", "static")
        assert env["cacheable"] is False

    @pytest.mark.parametrize("value", [b"NaN", b"Infinity", b"-1"])
    def test_deadline_must_be_finite_and_not_negative(self, server, value):
        # stdlib ``json.loads`` accepts NaN; a NaN deadline never trips,
        # so the run would be unbounded and its reply cached
        single = b'{"kernel": "%s", "size": 96, "deadline": %s}' % (
            KERNEL.encode(), value)
        status, env = post(server, "/v1/analyze", single)
        assert status == 400 and env["code"] == EXIT_USAGE
        assert "deadline" in env["message"]
        status, body = post(server, "/v1/batch",
                            b'{"requests": [%s]}' % single)
        assert status == 200 and body["ok"] is False
        member, = body["responses"]
        assert member["code"] == EXIT_USAGE and "report" not in member
        assert server.runner.cold == 0

    def test_negative_compute_iterations_is_a_usage_error(self, server):
        status, env = post(server, "/v1/analyze",
                           {"kernel": "mixbench:sp:naive", "size": 64,
                            "compute_iterations": -1})
        assert status == 400 and env["code"] == EXIT_USAGE
        assert server.runner.cold == 0

    def test_stats_shape(self, server):
        post(server, "/v1/analyze", {"kernel": KERNEL, "size": 128})
        status, stats = get(server, "/v1/stats")
        assert status == 200
        assert stats["requests"] >= 1
        assert "runner" in stats and "static" in stats["runner"]
        programs = stats["runner"]["programs"]
        assert 1 <= programs["entries"] == programs["compiles"] <= 17

    def test_identical_concurrent_requests_coalesce(self, server):
        from concurrent.futures import ThreadPoolExecutor

        body = {"kernel": KERNEL, "size": 128}
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(
                lambda _: post(server, "/v1/analyze", body), range(4)))
        assert all(status == 200 and env["ok"]
                   for status, env in results)
        reports = [env["report"] for _, env in results]
        assert all(r == reports[0] for r in reports)
        assert server.runner.cold == 1, \
            "identical concurrent submissions must compute once"
        assert server.coalesced >= 1

    def test_served_matches_cli(self, server):
        import contextlib
        import io

        from repro.cli import main as cli_main

        status, env = post(server, "/v1/analyze",
                           {"kernel": KERNEL, "size": 128})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["analyze", "--kernel", KERNEL, "--size",
                             "128", "--json", "-"]) == 0
        assert strip_volatile(env["report"]) == \
            strip_volatile(json.loads(out.getvalue()))


class TestPooledServer:
    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), -1])
    def test_bad_default_deadline_is_refused_before_the_fork(
            self, deadline, monkeypatch):
        import repro.serve.pool as pool
        from repro.serve.protocol import ProtocolError

        def forked(*args, **kwargs):
            raise AssertionError("workers forked")

        monkeypatch.setattr(pool, "WorkerPool", forked)
        with pytest.raises(ProtocolError, match="deadline"):
            ScoutServer(workers=2, deadline=deadline)

    def test_batch_fans_out_and_second_pass_hits(self, tmp_path):
        with ScoutServer(workers=2, cache_dir=str(tmp_path)).start() \
                as srv:
            reqs = {"requests": [
                {"kernel": KERNEL, "size": 128},
                {"kernel": "histogram:shared", "size": 256},
                {"kernel": KERNEL, "size": 128, "dry_run": True},
            ]}
            status, first = post(srv, "/v1/batch", reqs, timeout=300)
            assert status == 200 and first["ok"]
            workers = {r.get("worker") for r in first["responses"]}
            assert workers <= {0, 1} and None not in workers
            status, second = post(srv, "/v1/batch", reqs, timeout=300)
            assert status == 200
            assert all(r["cache"] == "l3" for r in second["responses"])
        configure_trace_cache(None)

    def test_pooled_miss_reaches_the_disk_once(self, tmp_path):
        """The worker writes the shared report store; the server keeps
        a memory copy only, and the repeat is still a front hit."""
        with ScoutServer(workers=1, cache_dir=str(tmp_path)).start() \
                as srv:
            reports = srv.runner.reports
            server_puts = []
            reports.store.put = lambda *a: server_puts.append(a)
            body = {"kernel": KERNEL, "size": 128}
            status, first = post(srv, "/v1/analyze", body, timeout=300)
            assert status == 200 and first["cache"] == "cold"
            assert first["worker"] == 0
            assert [p.stem for p in (tmp_path / "reports").glob("*.bin")] \
                == [first["address"]]
            status, second = post(srv, "/v1/analyze", body)
            assert status == 200 and second["cache"] == "l3"
            assert second["report"] == first["report"]
            assert srv.l3_front_hits == 1
            assert server_puts == []
            assert reports.disk_hits == 0 and reports.store.hits == 0
        configure_trace_cache(None)

    def test_cache_mb_caps_the_workers_stores(self, tmp_path):
        """With workers every disk put happens in a worker, so that is
        where ``--cache-mb`` has to arrive: both stores stay under the
        cap while more than the cap is written through them."""
        from repro.serve.pool import WorkerPool

        cap = 1024 * 1024
        # ~15 KB of report each; the sgemm traces are 40-400 KB apiece
        reqs = [{"kernel": "heat:naive", "size": 64 + 8 * i,
                 "max_blocks": blocks, "extended": True}
                for i in range(40) for blocks in (1, 2)]
        reqs += [{"kernel": "sgemm:naive", "size": size, "max_blocks": 2}
                 for size in range(64, 289, 32)]
        written = {"reports": {}, "traces": {}}
        with WorkerPool(1, cache_dir=str(tmp_path), cache_mb=1) as pool:
            for req in reqs:
                env = pool.submit(req, arch_key="v100", timeout=300)
                assert env["ok"], env
                for tier, ever in written.items():
                    now = {f.name: f.stat().st_size
                           for f in (tmp_path / tier).glob("*.bin")}
                    assert sum(now.values()) <= cap, (tier, req)
                    ever.update(now)
        for tier, ever in written.items():
            assert sum(ever.values()) > cap, f"{tier}: cap never binding"


@pytest.mark.parametrize("spec", ["heat:bogus", "mixbench:sp:turbo",
                                  "nope:x"])
def test_misspelt_kernel_spec_is_400_not_500(server, spec):
    status, body = post(server, "/v1/analyze", {"kernel": spec})
    assert status == 400 and body["code"] == EXIT_USAGE
    assert body["error"] == "UnknownKernelError"
    assert "mixbench:sp:naive" in body["message"]


def test_one_write_per_response(server, monkeypatch):
    """Headers and body leave in one segment: flushed apart, a
    keep-alive client waits out Nagle + delayed ACK (~40 ms) for the
    body of a 0.25 ms answer."""
    from repro.serve.server import _Handler

    writes = []

    class Recording:
        def __init__(self, raw):
            self.raw = raw

        def write(self, data):
            writes.append(bytes(data))
            return self.raw.write(data)

        def __getattr__(self, name):
            return getattr(self.raw, name)

    real_setup = _Handler.setup

    def setup(handler):
        real_setup(handler)
        handler.wfile = Recording(handler.wfile)

    monkeypatch.setattr(_Handler, "setup", setup)
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as resp:
        exchanges = [(resp.status, resp.read())]
    for status, body in (
        get(server, "/healthz"),
        post(server, "/v1/analyze", {"kernel": KERNEL, "size": 128}),
        post(server, "/v1/analyze", b"{not json"),
        post(server, "/v1/analyze", {"kernel": "nope:x"}),
        get(server, "/nope"),
    ):
        exchanges.append((status, body))
    assert [status for status, _ in exchanges] == \
        [200, 200, 200, 400, 400, 404]
    assert len(writes) == len(exchanges)
    for (status, body), sent in zip(exchanges, writes):
        head, _, payload = sent.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"Content-Length: %d" % len(payload) in head
        if isinstance(body, bytes):
            assert payload == body
        else:
            assert json.loads(payload) == body

"""Telemetry over HTTP: ``GET /metrics`` exposition, cross-worker
snapshot aggregation, enriched ``/healthz`` and ``/v1/stats``, and the
``--trace-dir`` per-request Chrome traces."""

import json
import urllib.error
import urllib.request

import pytest

from repro.gpu.trace_cache import configure_trace_cache
from repro.obs import metrics as obs_metrics
from repro.obs.chrometrace import validate_chrome_trace
from repro.serve import ScoutServer

KERNEL = "reduction:warp"


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    obs_metrics.arm(False)
    configure_trace_cache(None)


def post(srv, path, body, headers=None, timeout=300):
    req = urllib.request.Request(srv.url + path,
                                 data=json.dumps(body).encode(),
                                 headers=headers or {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp, json.loads(resp.read())


def get_text(srv, path):
    with urllib.request.urlopen(srv.url + path, timeout=30) as resp:
        return resp.status, resp.headers, resp.read().decode()


class TestMetricsEndpoint:
    def test_scrape_is_valid_and_covers_required_families(
            self, tmp_path):
        with ScoutServer(workers=0, cache_dir=str(tmp_path)).start() \
                as srv:
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            status, headers, text = get_text(srv, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert obs_metrics.validate_exposition(text) == []
        for family in ("gpuscout_http_requests_total",
                       "gpuscout_http_request_seconds",
                       "gpuscout_cache_hits_total",
                       "gpuscout_cache_misses_total",
                       "gpuscout_cache_entries",
                       "gpuscout_engine_stage_seconds",
                       "gpuscout_engine_runs_total"):
            assert f"# TYPE {family} " in text, family
        # all three cache tiers are present on one scrape
        for tier in ("l1", "l2", "l3"):
            assert f'gpuscout_cache_hits_total{{tier="{tier}"}}' \
                in text, tier

    def test_request_latency_histogram_counts_requests(self, tmp_path):
        with ScoutServer(workers=0, cache_dir=str(tmp_path)).start() \
                as srv:
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            _, _, text = get_text(srv, "/metrics")
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith('gpuscout_http_request_seconds_count'
                             '{endpoint="/v1/analyze"}'))
        assert float(line.rsplit(" ", 1)[1]) >= 1

    def test_disarmed_server_serves_empty_exposition(self, tmp_path):
        # the process-global registry may hold counts from earlier
        # tests; a disarmed server must neither add to it nor set
        # scrape-time gauges
        obs_metrics.REGISTRY.reset()
        with ScoutServer(workers=0, cache_dir=str(tmp_path),
                         metrics=False).start() as srv:
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            _, _, text = get_text(srv, "/metrics")
        assert obs_metrics.validate_exposition(text) == []
        for line in text.splitlines():
            if line.startswith("gpuscout_") and "_bucket" not in line:
                value = float(line.rsplit(" ", 1)[1])
                assert value == 0, line


class TestCrossWorkerAggregation:
    def test_counters_aggregate_across_two_workers(self, tmp_path):
        """The merge-protocol acceptance test: two forked workers each
        run distinct kernels; their engine counters must land in one
        scrape, and the pool must hold one snapshot per worker."""
        with ScoutServer(workers=2, cache_dir=str(tmp_path)).start() \
                as srv:
            _, body = post(srv, "/v1/batch", {"requests": [
                {"kernel": KERNEL, "size": 128},
                {"kernel": "histogram:shared", "size": 256},
                {"kernel": "sgemm:naive", "size": 32},
                {"kernel": "heat:naive", "size": 64},
            ]})
            assert body["ok"]
            workers = {r["worker"] for r in body["responses"]}
            assert workers == {0, 1}, \
                "batch must fan out to both workers"

            snaps = list(srv.pool._telemetry.values())
            stamped = set(srv.pool._telemetry)
            assert {w for w, _ in stamped} == {0, 1}

            per_worker = [
                snap["gpuscout_engine_runs_total"]["series"]
                ['mode="full"'] for snap in snaps]
            assert all(n >= 1 for n in per_worker), per_worker

            _, _, text = get_text(srv, "/metrics")
        assert obs_metrics.validate_exposition(text) == []
        for family in ("gpuscout_pool_inflight",
                       "gpuscout_pool_respawns_total"):
            assert f"# TYPE {family} " in text, family
        line = next(ln for ln in text.splitlines()
                    if ln.startswith(
                        'gpuscout_engine_runs_total{mode="full"}'))
        scraped = float(line.rsplit(" ", 1)[1])
        assert scraped == sum(per_worker), \
            "/metrics must equal the sum of per-worker counters"
        assert scraped >= 4

    def test_worker_snapshots_replace_not_double_count(self, tmp_path):
        """Cumulative worker snapshots REPLACE the pool's stored copy
        per (worker, generation) — running more work must not double
        previously-merged counts."""
        with ScoutServer(workers=1, cache_dir=str(tmp_path)).start() \
                as srv:
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            merged1 = srv.pool.telemetry()
            runs1 = merged1["gpuscout_engine_runs_total"]["series"][
                'mode="full"']
            post(srv, "/v1/analyze",
                 {"kernel": "histogram:shared", "size": 256})
            merged2 = srv.pool.telemetry()
            runs2 = merged2["gpuscout_engine_runs_total"]["series"][
                'mode="full"']
        assert (runs1, runs2) == (1, 2)


class TestHealthAndStats:
    def test_healthz_pooled_reports_worker_generations(self, tmp_path):
        with ScoutServer(workers=2, cache_dir=str(tmp_path)).start() \
                as srv:
            _, _, raw = get_text(srv, "/healthz")
        body = json.loads(raw)
        assert body["ok"] is True and body["mode"] == "pooled"
        pool = body["pool"]
        assert pool["workers"] == 2 and pool["alive"] == 2
        assert pool["generations"] == {"0": 0, "1": 0}
        assert pool["last_respawn"] is None
        assert pool["respawns"] == 0

    def test_healthz_reports_respawn_reason(self, tmp_path):
        with ScoutServer(workers=1, cache_dir=str(tmp_path)).start() \
                as srv:
            victim = srv.pool._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=10)
            try:
                post(srv, "/v1/analyze", {"kernel": KERNEL,
                                          "size": 128})
            except urllib.error.HTTPError:
                pass  # single-worker ring: the request may fail, but
                # dispatch must still have respawned the worker
            _, _, raw = get_text(srv, "/healthz")
        pool = json.loads(raw)["pool"]
        assert pool["respawns"] >= 1
        assert pool["generations"]["0"] >= 1
        assert pool["last_respawn"]["worker"] == 0
        assert "terminated" in pool["last_respawn"]["reason"]

    def test_stats_telemetry_quantiles_and_occupancy(self, tmp_path):
        with ScoutServer(workers=0, cache_dir=str(tmp_path)).start() \
                as srv:
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            _, _, raw = get_text(srv, "/v1/stats")
        stats = json.loads(raw)
        occ = stats["occupancy"]
        assert occ["l3"]["entries"] >= 1
        assert occ["l3"]["bytes"] > 0
        # L2 occupancy is TraceCache.stats(), eviction count included
        assert occ["l2"]["entries"] >= 1
        assert occ["l2"]["bytes"] > 0
        assert occ["l2"]["evictions"] == 0
        assert occ["l2"]["store_bytes"] >= 0
        tele = stats["telemetry"]
        hist = tele["histograms"][
            'gpuscout_http_request_seconds{endpoint="/v1/analyze"}']
        assert hist["count"] >= 2
        assert hist["p50"] is not None and hist["p99"] is not None
        assert hist["p50"] <= hist["p99"]

    def test_request_id_header_echoed(self, tmp_path):
        with ScoutServer(workers=0, cache_dir=str(tmp_path)).start() \
                as srv:
            resp, body = post(srv, "/v1/analyze",
                              {"kernel": KERNEL, "size": 128},
                              headers={"X-Request-Id": "my-rid-42"})
        assert resp.headers["X-Request-Id"] == "my-rid-42"
        assert body["request_id"] == "my-rid-42"


class TestTraceDir:
    def test_pooled_request_yields_stitched_chrome_trace(
            self, tmp_path):
        """The ISSUE acceptance test: one ``/v1/analyze`` against a
        pooled server with ``--trace-dir`` yields exactly one Chrome
        trace holding server-side spans (queue, dispatch, cache probe)
        AND worker-side engine spans under one request ID, and it
        passes ``validate_chrome_trace``."""
        trace_dir = tmp_path / "traces"
        with ScoutServer(workers=1, cache_dir=str(tmp_path / "cache"),
                         trace_dir=str(trace_dir)).start() as srv:
            resp, body = post(srv, "/v1/analyze",
                              {"kernel": KERNEL, "size": 128})
        rid = body["request_id"]
        paths = list(trace_dir.glob("*.json"))
        assert [p.stem for p in paths] == [rid]
        data = json.loads(paths[0].read_text())
        assert validate_chrome_trace(data) == []
        assert data["metadata"]["request_id"] == rid
        assert data["metadata"]["kernel"]  # resolved engine name

        slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert all(e["args"]["request_id"] == rid for e in slices)
        server_names = {e["name"] for e in slices if e["pid"] == 0}
        assert {"validate", "cache:probe", "queue",
                "dispatch"} <= server_names
        worker_names = {e["name"] for e in slices if e["pid"] != 0}
        assert worker_names, "worker engine spans must be stitched in"
        assert any("launch" in n or "parse" in n
                   for n in worker_names), worker_names
        procs = {e["args"]["name"] for e in data["traceEvents"]
                 if e["name"] == "process_name"}
        assert procs == {"server", "worker 0"}

    def test_inline_trace_has_engine_process(self, tmp_path):
        trace_dir = tmp_path / "traces"
        with ScoutServer(workers=0, cache_dir=str(tmp_path / "cache"),
                         trace_dir=str(trace_dir)).start() as srv:
            _, body = post(srv, "/v1/analyze",
                           {"kernel": KERNEL, "size": 128})
        data = json.loads(
            (trace_dir / f"{body['request_id']}.json").read_text())
        assert validate_chrome_trace(data) == []
        procs = {e["args"]["name"] for e in data["traceEvents"]
                 if e["name"] == "process_name"}
        assert "engine (inline)" in procs

    def test_warm_hits_trace_without_worker_spans(self, tmp_path):
        trace_dir = tmp_path / "traces"
        with ScoutServer(workers=0, cache_dir=str(tmp_path / "cache"),
                         trace_dir=str(trace_dir)).start() as srv:
            post(srv, "/v1/analyze", {"kernel": KERNEL, "size": 128})
            _, warm = post(srv, "/v1/analyze",
                           {"kernel": KERNEL, "size": 128})
        assert warm["cache"] == "l3"
        data = json.loads(
            (trace_dir / f"{warm['request_id']}.json").read_text())
        assert validate_chrome_trace(data) == []
        # a cached answer must not stitch in the ORIGINAL compute's
        # stale engine spans
        assert {e["pid"] for e in data["traceEvents"]} == {0}

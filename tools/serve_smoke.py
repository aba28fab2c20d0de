"""CI smoke for the serving stack: start ``gpuscout serve`` with a
pooled engine, submit the same 3-kernel batch twice over HTTP, and
assert the second pass is answered entirely from the content-addressed
L3 report cache (no member recomputed), in the stored bytes: the warm
body must be in canonical form (``dumps(loads(body), sort_keys=True)
== body``) and each report equal to the cold one after
``strip_volatile``.  One
request with a malformed ``Content-Length`` must come back as a 400,
and one whose head is over ``MAX_HEAD_BYTES`` as the JSON 400
``code 64`` envelope.  Two 200-request loops over one L3 hit print
their rates, ungated: on one keep-alive connection (a regression of
the one-write response would read as ~23/s instead of thousands) and
on a fresh connection per request (what the ``serve_hit`` harness
sends; it pays the server's per-connection cost).

``GET /metrics`` is scraped after each pass: the exposition must parse
(structural validator, same one ``tools/validate_metrics.py`` wraps),
cover every required family (request latency, all five cache
instances, pool health, engine stages), and show cache-hit counters
moving on the warm pass — which proves worker-side counts merge
through the snapshot protocol into the served exposition.

A second, inline server is then sent two sizes of one variant:
``/v1/stats`` must show two resolutions sharing one compiled program
(``runner.programs``: ``compiles == entries``, bounded by the catalog).

Exits non-zero on any protocol error, batch failure, cache miss on the
second pass, served/recomputed report divergence, non-canonical body,
unanswered malformed request, HTML or missing answer to an oversized
head, telemetry gap, or a program compiled more than once.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import pathlib
import shutil
import socket
import sys
import tempfile
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.kernels.catalog import CATALOG  # noqa: E402
from repro.obs.metrics import validate_exposition  # noqa: E402
from repro.serve import ScoutServer  # noqa: E402
from repro.serve.protocol import strip_volatile  # noqa: E402
from repro.serve.server import MAX_HEAD_BYTES  # noqa: E402

BATCH = {"requests": [
    {"kernel": "sgemm:naive", "size": 48},
    {"kernel": "histogram:shared", "size": 1024},
    {"kernel": "reduction:warp", "size": 256},
]}


#: every family /metrics must expose after one batch
REQUIRED_FAMILIES = (
    "gpuscout_http_requests_total",
    "gpuscout_http_request_seconds",
    "gpuscout_cache_hits_total",
    "gpuscout_cache_misses_total",
    "gpuscout_pool_inflight",
    "gpuscout_pool_respawns_total",
    "gpuscout_engine_stage_seconds",
)


#: the ``tier=`` label of every ``repro.cache.TieredCache`` instance
CACHE_TIERS = ("resolve", "l1", "l2", "l3", "memo")


#: requests of each hit-rate loop
RATE_HITS = 200


def _post_raw(url: str, path: str, body: dict) -> bytes:
    req = urllib.request.Request(url + path,
                                 data=json.dumps(body).encode())
    with urllib.request.urlopen(req, timeout=300) as resp:
        return resp.read()


def _post(url: str, path: str, body: dict) -> dict:
    return json.loads(_post_raw(url, path, body))


def _malformed_length_status(srv) -> int:
    """HTTP status of a POST whose ``Content-Length`` is not a number
    (0 when the server drops the connection without answering)."""
    conn = http.client.HTTPConnection(*srv.address, timeout=30)
    try:
        conn.putrequest("POST", "/v1/analyze")
        conn.putheader("Content-Length", "abc")
        conn.endheaders()
        return conn.getresponse().status
    except (OSError, http.client.HTTPException):
        return 0
    finally:
        conn.close()


def _oversized_head_reply(srv) -> tuple:
    """``(status, body)`` of a request whose head is over the server's
    limit (``(0, b"")`` when it drops the connection unanswered)."""
    raw = b""
    try:
        with socket.create_connection(srv.address, timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: "
                         + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n")
            while chunk := sock.recv(65536):
                raw += chunk
    except OSError:
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ")[1]), body
    except (IndexError, ValueError):
        return 0, b""


def _reconnecting_hits_per_s(srv, payload: dict) -> float:
    """L3 hits per second, one fresh connection each (as ``curl`` or
    the ``serve_hit`` harness make them)."""
    body = json.dumps(payload).encode()
    t0 = time.perf_counter()
    for _ in range(RATE_HITS):
        conn = http.client.HTTPConnection(*srv.address, timeout=30)
        try:
            conn.request("POST", "/v1/analyze", body=body)
            conn.getresponse().read()
        finally:
            conn.close()
    return RATE_HITS / (time.perf_counter() - t0)


def _keepalive_hits_per_s(srv, payload: dict) -> float:
    """L3 hits per second over one persistent connection."""
    body = json.dumps(payload).encode()
    conn = http.client.HTTPConnection(*srv.address, timeout=30)
    try:
        t0 = time.perf_counter()
        for _ in range(RATE_HITS):
            conn.request("POST", "/v1/analyze", body=body)
            conn.getresponse().read()
        return RATE_HITS / (time.perf_counter() - t0)
    finally:
        conn.close()


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
        return resp.read().decode()


def _counter_total(text: str, family: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family + "{") or \
                line.startswith(family + " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


def main() -> int:
    failures = []
    cache_dir = tempfile.mkdtemp(prefix="gpuscout-serve-smoke-")
    try:
        with ScoutServer(workers=2, cache_dir=cache_dir).start() as srv:
            with urllib.request.urlopen(srv.url + "/healthz",
                                        timeout=30) as resp:
                health = json.loads(resp.read())
                if health.get("ok") is not True:
                    failures.append(f"healthz did not report ok: {health}")
                pool_health = health.get("pool", {})
                if pool_health.get("workers") != 2:
                    failures.append(
                        f"healthz pool shape wrong: {health}")

            first = _post(srv.url, "/v1/batch", BATCH)
            if not first.get("ok"):
                failures.append(f"cold batch failed: {first}")
            for i, env in enumerate(first.get("responses", [])):
                if env.get("cache") != "cold":
                    failures.append(
                        f"cold member {i}: cache={env.get('cache')!r}")

            scrape1 = _scrape(srv.url)
            for p in validate_exposition(scrape1):
                failures.append(f"scrape 1 invalid: {p}")
            for family in REQUIRED_FAMILIES:
                if f"# TYPE {family} " not in scrape1:
                    failures.append(
                        f"scrape 1 missing family {family}")
            tiers = [t for t in CACHE_TIERS
                     if f'gpuscout_cache_hits_total{{tier="{t}"}}'
                     in scrape1]
            if len(tiers) != len(CACHE_TIERS):
                failures.append(
                    f"scrape 1 covers cache tiers {tiers}, "
                    f"want {CACHE_TIERS}")

            warm_body = _post_raw(srv.url, "/v1/batch", BATCH)
            second = json.loads(warm_body)
            if json.dumps(second, sort_keys=True).encode() != warm_body:
                failures.append("warm batch body is not in canonical "
                                "form (sorted keys, default separators)")
            if not second.get("ok"):
                failures.append(f"warm batch failed: {second}")
            for i, env in enumerate(second.get("responses", [])):
                if env.get("cache") != "l3":
                    failures.append(
                        f"warm member {i} missed the report cache: "
                        f"cache={env.get('cache')!r}")
            firsts = [strip_volatile(e.get("report") or {})
                      for e in first.get("responses", [])]
            seconds = [strip_volatile(e.get("report") or {})
                       for e in second.get("responses", [])]
            if firsts != seconds:
                failures.append("warm batch reports differ from cold")

            status = _malformed_length_status(srv)
            if status != 400:
                failures.append(
                    f"malformed Content-Length answered {status or 'nothing'}"
                    ", want 400")
            status, body = _oversized_head_reply(srv)
            try:
                env = json.loads(body)
            except ValueError:
                env = None
            if status != 400 or not isinstance(env, dict) or \
                    env.get("code") != 64:
                failures.append(
                    f"oversized request head answered {status or 'nothing'}"
                    f" {body[:80]!r}, want the JSON 400 code 64 envelope")
            hits_per_s = _keepalive_hits_per_s(srv, BATCH["requests"][0])
            fresh_per_s = _reconnecting_hits_per_s(srv, BATCH["requests"][0])
            print(f"L3 hits: {hits_per_s:.0f}/s keep-alive, "
                  f"{fresh_per_s:.0f}/s reconnecting, "
                  f"{RATE_HITS} requests each")

            scrape2 = _scrape(srv.url)
            for p in validate_exposition(scrape2):
                failures.append(f"scrape 2 invalid: {p}")
            hits1 = _counter_total(scrape1, "gpuscout_cache_hits_total")
            hits2 = _counter_total(scrape2, "gpuscout_cache_hits_total")
            if hits2 <= hits1:
                failures.append(
                    f"cache-hit counters did not move on the warm "
                    f"pass: {hits1} -> {hits2}")
            reqs = _counter_total(scrape2, "gpuscout_http_requests_total")
            if reqs < 2:
                failures.append(
                    f"http request counter too low: {reqs}")

            stats = json.loads(urllib.request.urlopen(
                srv.url + "/v1/stats", timeout=30).read())
            hits = stats.get("l3_front_hits", 0) + \
                stats.get("runner", {}).get("reports", {}).get("hits", 0)
            if hits < len(BATCH["requests"]):
                failures.append(
                    f"expected >= {len(BATCH['requests'])} L3 hits, "
                    f"saw {hits} (stats: {stats})")
        # inline, so the stats are those of the process that compiled
        with ScoutServer(workers=0).start() as srv:
            for size in (64, 96):
                env = _post(srv.url, "/v1/analyze",
                            {"kernel": "heat:naive", "size": size})
                if not env.get("ok"):
                    failures.append(f"heat:naive:{size} failed: {env}")
            runner = json.loads(urllib.request.urlopen(
                srv.url + "/v1/stats", timeout=30).read())["runner"]
            programs = runner.get("programs", {})
            if not (1 <= programs.get("entries", 0)
                    == programs.get("compiles") <= len(CATALOG)) \
                    or runner["resolve"]["entries"] != 2:
                failures.append(
                    "two sizes of one variant should be two resolutions "
                    f"of one program compiled once: {runner}")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    n = len(BATCH["requests"])
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"serve smoke OK: {n}-kernel batch cold then warm, "
          f"second pass all L3 hits; /metrics valid, all families "
          f"present, cache-hit counters moved; two sizes of one "
          f"variant compiled one program")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

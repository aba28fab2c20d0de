"""The stdlib HTTP/JSON front end: ``gpuscout serve``.

Endpoints (JSON unless noted):

* ``POST /v1/analyze`` — one submission (see
  :class:`~repro.serve.protocol.AnalyzeRequest`); responds with the
  envelope ``{"ok", "code", "cache", "report", "request_id", ...}``.
  Failures map the CLI stage codes onto HTTP statuses
  (:func:`~repro.serve.protocol.http_status_for`).
* ``POST /v1/batch`` — ``{"requests": [...]}``; members are fanned out
  across the worker pool (or served sequentially inline) and the
  responses returned in submission order.
* ``GET /v1/stats`` — cache hit/miss counters per tier, pool health,
  and (when telemetry is armed) histogram quantiles plus per-tier byte
  occupancy.
* ``GET /metrics`` — the merged metrics registry (server process plus
  every worker generation) in Prometheus text exposition format.
* ``GET /healthz`` — liveness plus pool health: worker generation
  counters and the last respawn reason, so orchestration can tell
  "healthy" from "respawn-looping".

The server process keeps the **L3 front cache**: a memo from request
fingerprints to content addresses plus the report store, so a repeat
submission is answered with one dict lookup (or one CRC-checked file
read) without waking any worker.  What the store holds is the report's
serialised text, and that text is what travels: every analyze reply is
the envelope's other fields rendered around it (:func:`render`), never
a parse and a second dump.  Batch members that miss are
dispatched concurrently; identical concurrent submissions coalesce
onto one computation (single-flight), and members sharing a program
land in the same worker's warm L1 via shard-ring affinity.

**The edge.**  ``HANDLER_THREADS`` reused threads serve the accepted
connections, the request head is read here under stated limits
(``MAX_HEADER_LINES``, ``MAX_HEAD_BYTES``), and every error the edge
raises itself is the JSON ``code 64`` envelope, not an HTML page.

**Request tracing.**  Every request gets an ID (``X-Request-Id``
header, or minted) that is echoed in the response envelope and header,
attached to latency-histogram buckets as an exemplar, and propagated
through the fork boundary into the worker.  With ``--trace-dir`` the
server additionally times its own side (validate, cache probe, queue
wait, dispatch), stitches the worker's engine spans back in, and drops
one Chrome trace per request — open it in Perfetto to see where a slow
request spent its time.
"""

from __future__ import annotations

import json
import queue
import re
import secrets
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from time import perf_counter
from typing import Optional

from repro.cache import TieredCache
from repro.core.request import check_deadline
from repro.gpu.trace_cache import trace_cache
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.metrics import (
    arm,
    armed,
    merge_snapshots,
    render_prometheus,
    set_exemplar,
    summarize,
)
from repro.obs.request_trace import build_request_trace, write_request_trace
from repro.obs.slog import configure as configure_logging
from repro.obs.slog import get_logger
from repro.obs.slog import mode as log_mode
from repro.obs.spans import NULL_PROFILER, Profiler, Span
from repro.serve.cache import report_text
from repro.serve.protocol import (
    AnalyzeRequest,
    ProtocolError,
    http_status_for,
    request_key,
)
from repro.serve.service import (
    KernelRunner,
    corruption_diagnostic,
    error_envelope,
    l3_head,
)

__all__ = ["ScoutServer", "new_request_id", "render"]

#: cap on concurrently-dispatched batch members per request
BATCH_FANOUT = 16
#: largest accepted request body (a raw-SASS listing fits comfortably)
MAX_BODY_BYTES = 8 * 1024 * 1024
#: handler threads, started once and reused by every connection.  A
#: connection beyond the cap waits in the accept queue for a free
#: thread; it is not refused.  Twice ``BATCH_FANOUT`` and far above the
#: two clients of the ``serve_hit`` harness, so no in-tree load queues;
#: it bounds the threads (stacks, GIL hand-offs) a flood of clients can
#: make the server hold.
HANDLER_THREADS = 32
#: seconds a connection may sit silent, between requests or inside
#: one, before the server closes it: an idle keep-alive client must not
#: hold one of the ``HANDLER_THREADS`` for long.  Apache's and Node's
#: default, far above the gap between a client's keep-alive requests.
IDLE_TIMEOUT_S = 5.0
#: header lines one request may carry; clients send 4 to 15
MAX_HEADER_LINES = 64
#: bytes of one request head, request line included (Node's limit); it
#: admits a 5 000-character ``X-Request-Id``
MAX_HEAD_BYTES = 16 * 1024
#: the headers the API reads; every other header line is checked for
#: form and dropped
_KEPT_HEADERS = frozenset({"content-length", "content-type",
                           "x-request-id", "connection", "expect"})
#: what a kept header value may not hold: control characters but HTAB
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")

#: endpoint label values are bounded to the known routes — anything
#: else (scanners, typos) collapses into "other" so label cardinality
#: cannot be driven by request paths
_KNOWN_ENDPOINTS = frozenset(
    {"/healthz", "/metrics", "/v1/stats", "/v1/analyze", "/v1/batch"})

_log = get_logger("serve.http")


def new_request_id() -> str:
    """A fresh request ID (16 hex chars)."""
    return secrets.token_hex(8)


def render(fields: dict, key: str = "", text: Optional[str] = None) -> str:
    """``json.dumps({**fields, key: json.loads(text)}, sort_keys=True)``
    without the parse: ``text`` (already in that form) is spliced in
    at ``key``'s sorted position.  Everything else — a client's
    ``X-Request-Id`` included — goes through ``json.dumps``."""
    if text is None:
        return json.dumps(fields, sort_keys=True)
    head = json.dumps({k: v for k, v in fields.items() if k < key},
                      sort_keys=True)[:-1]
    tail = json.dumps({k: v for k, v in fields.items() if k > key},
                      sort_keys=True)[1:]
    return "".join((head, ", " if len(head) > 1 else "", f'"{key}": ',
                    text, ", " if len(tail) > 1 else "", tail))


def render_batch(fields: dict, members: Optional[list]) -> str:
    """A batch body: the members' bodies joined the way ``json.dumps``
    joins a list, spliced in under ``responses``."""
    return render(fields, "responses", None if members is None
                  else "[%s]" % ", ".join(
                      render(member, "report", blob)
                      for member, blob in members))


def _with_report(env: dict, blob: Optional[str]) -> dict:
    """The dict ``render(env, "report", blob)`` is the dump of."""
    return env if blob is None else {**env, "report": json.loads(blob)}


class ScoutServer:
    """A long-lived analysis service around one cache directory."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0, cache_dir: Optional[str] = None,
                 deadline: Optional[float] = None,
                 cache_mb: int = 256,
                 metrics: bool = True,
                 access_log: bool = False,
                 trace_dir: Optional[str] = None):
        # every request without its own deadline takes this one: a bad
        # value is the operator's error, refused before the pool forks
        check_deadline(deadline)
        self.trace_dir = trace_dir
        if metrics:
            # arm BEFORE forking the pool so workers inherit the flag
            arm(True)
        if access_log and log_mode() == "off":
            configure_logging(mode="text", level="debug")
        self.access_log = access_log
        self.pool = None
        if workers > 0:
            from repro.serve.pool import WorkerPool

            self.pool = WorkerPool(workers, cache_dir=cache_dir,
                                   deadline=deadline, cache_mb=cache_mb)
        #: the inline runner doubles as the server-side L3 front cache
        #: (its ReportCache shares the disk tier with the workers)
        self.runner = KernelRunner(cache_dir=cache_dir, deadline=deadline,
                                   cache_mb=cache_mb)
        #: request-fingerprint -> content-address memo: lets the server
        #: answer repeats from L3 without resolving (= compiling) the
        #: kernel itself
        self._address_memo = TieredCache("memo", 4096)
        #: single-flight table: request fingerprints currently being
        #: computed; identical concurrent submissions (batch duplicates,
        #: racing clients) wait for the leader instead of recomputing
        self._inflight: dict = {}
        self._inflight_lock = threading.Lock()
        self.requests = 0
        self.l3_front_hits = 0
        self.coalesced = 0
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.scout = self
        self._serving = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ScoutServer":
        """Serve in a background thread (tests, embedding)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="gpuscout-serve",
            daemon=True,
        )
        self._thread.start()
        _log.info("server.start", url=self.url,
                  workers=0 if self.pool is None
                  else len(self.pool._workers))
        return self

    def serve_forever(self) -> None:
        self._serving = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        # ``shutdown`` waits for a serve loop to end: one that never
        # began would never end
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.pool is not None:
            self.pool.close()
        _log.info("server.stop", requests=self.requests)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- request handling ------------------------------------------------
    # A reply is ``(status, envelope without its report, report text)``
    # all the way to the socket; ``handle_*`` parse the text for
    # callers that want a dict.
    def _front_hit(self, rkey: str) -> tuple[Optional[dict],
                                             Optional[str], bool]:
        """L3 front lookup: ``(envelope | None, report text,
        corrupted)``."""
        known, _ = self._address_memo.get(rkey)
        if known is None or self.runner.reports is None:
            return None, None, False
        address, kernel = known
        blob, corrupted = self.runner.reports.text(address)
        if blob is None:
            return None, None, corrupted
        return l3_head(address, kernel), blob, False

    def handle_submission(self, payload,
                          request_id: Optional[str] = None
                          ) -> tuple[int, dict]:
        """Serve one submission; returns (HTTP status, envelope).  The
        envelope always carries ``request_id``."""
        status, env, blob = self.answer(payload, request_id)
        return status, _with_report(env, blob)

    def answer(self, payload, request_id: Optional[str] = None
               ) -> tuple[int, dict, Optional[str]]:
        """:meth:`handle_submission` with the report still serialised
        beside its envelope (``None`` beside an error)."""
        self.requests += 1
        request_id = request_id or new_request_id()
        prof = Profiler() if self.trace_dir else NULL_PROFILER
        set_exemplar(request_id)
        try:
            status, env, blob = self._handle(payload, request_id, prof)
        finally:
            set_exemplar(None)
        # worker-side plumbing that must not leak to clients
        queue_ns = env.pop("_queue_ns", None)
        env["request_id"] = request_id
        if prof.enabled:
            self._write_trace(request_id, prof, env, blob, queue_ns)
        return status, env, blob

    def _handle(self, payload, request_id: str, prof: Profiler
                ) -> tuple[int, dict, Optional[str]]:
        with prof.span("validate"):
            try:
                req = AnalyzeRequest.from_dict(payload)
            except ProtocolError as exc:
                env = error_envelope(exc)
                return http_status_for(env["code"]), env, None
            rkey = request_key(req)

        with prof.span("cache:probe"):
            env, blob, corrupted = self._front_hit(rkey)
        if env is not None:
            self.l3_front_hits += 1
            return 200, env, blob

        # single-flight: if an identical submission is already being
        # computed, wait for its result instead of computing it again
        while True:
            with self._inflight_lock:
                leader_done = self._inflight.get(rkey)
                if leader_done is None:
                    self._inflight[rkey] = threading.Event()
                    break
            with prof.span("coalesce:wait"):
                leader_done.wait(timeout=600.0)
            env, blob, corrupted = self._front_hit(rkey)
            if env is not None:
                self.coalesced += 1
                return 200, env, blob
            # leader failed or its result was uncacheable: loop to
            # either become the new leader or wait on one

        try:
            if self.pool is not None:
                with prof.span("dispatch"):
                    env = self.pool.submit(
                        payload, arch_key=req.arch,
                        meta={"request_id": request_id})
            else:
                with prof.span("compute"):
                    env = self.runner.run(payload)
            # dumped once: for the memory tier and for the wire
            report = env.pop("report", None)
            blob = None if report is None else report_text(report)
            if env.get("ok") and env.get("cacheable"):
                self._address_memo.put(
                    rkey, (env["address"], env.get("kernel")))
                # the worker already wrote the shared disk tier; the
                # server keeps a memory copy so repeats cost no disk I/O
                if self.pool is not None and \
                        self.runner.reports is not None:
                    self.runner.reports.remember(env["address"], blob)
        finally:
            with self._inflight_lock:
                done = self._inflight.pop(rkey, None)
            if done is not None:
                done.set()
        if corrupted and env.get("ok"):
            report.setdefault("diagnostics", []).append(
                corruption_diagnostic("report"))
            blob = report_text(report)
        return http_status_for(env.get("code", 70)), env, blob

    def _write_trace(self, request_id: str, prof: Profiler, env: dict,
                     blob: Optional[str], queue_ns) -> None:
        """Dump one per-request Chrome trace (server-side spans plus
        the worker's engine spans when this request computed fresh).
        Tracing failures never break serving."""
        try:
            spans = list(prof.spans)
            if queue_ns is not None:
                # fork shares CLOCK_MONOTONIC, so the worker's dequeue
                # stamp pairs directly with our enqueue stamp
                spans.append(Span(name="queue", start_ns=queue_ns[0],
                                  end_ns=queue_ns[1], depth=1))
            wspans = []
            if env.get("cache") in ("cold", "l1") and blob is not None:
                report = json.loads(blob)
                wspans = (report.get("profile") or {}).get("spans", [])
            data = build_request_trace(
                request_id, spans, wspans,
                worker_id=env.get("worker"),
                endpoint="/v1/analyze",
                kernel=env.get("kernel") or "")
            write_request_trace(self.trace_dir, request_id, data)
        except Exception:
            _log.warning("trace.write_failed", request_id=request_id)

    def handle_batch(self, payload,
                     request_id: Optional[str] = None
                     ) -> tuple[int, dict]:
        """Serve a batch: ``{"requests": [...]}`` in order.  Member
        envelopes carry derived request IDs (``<batch id>-<index>``)."""
        status, env, members = self.answer_batch(payload, request_id)
        if members is not None:
            env["responses"] = [_with_report(member, blob)
                                for member, blob in members]
        return status, env

    def answer_batch(self, payload, request_id: Optional[str] = None
                     ) -> tuple[int, dict, Optional[list]]:
        """:meth:`handle_batch` with ``responses`` beside the envelope
        as ``[(member envelope, report text)]`` (``None`` beside an
        error)."""
        request_id = request_id or new_request_id()
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("requests"), list):
            env = error_envelope(ProtocolError(
                "batch body must be {'requests': [...]}"))
            return http_status_for(env["code"]), env, None
        items = payload["requests"]
        members: list = []
        if items:
            fanout = min(BATCH_FANOUT, len(items))
            with ThreadPoolExecutor(max_workers=fanout) as pool:
                members = [reply[1:] for reply in pool.map(
                    lambda pair: self.answer(
                        pair[1], request_id=f"{request_id}-{pair[0]}"),
                    enumerate(items))]
        return 200, {
            "ok": all(member.get("ok") for member, _ in members),
            "request_id": request_id,
        }, members

    # -- telemetry -------------------------------------------------------
    def observe_request(self, endpoint: str, status: int,
                        seconds: float,
                        request_id: Optional[str] = None) -> None:
        """Record one served HTTP request into the registry."""
        if not armed():
            return
        ep = endpoint if endpoint in _KNOWN_ENDPOINTS else "other"
        _METRICS.counter(
            "gpuscout_http_requests_total", "HTTP requests served",
            endpoint=ep, status=str(status)).inc()
        _METRICS.histogram(
            "gpuscout_http_request_seconds",
            "HTTP request latency in seconds", endpoint=ep,
        ).observe(seconds, exemplar=request_id)

    def occupancy(self) -> dict:
        """Every cache instance's ``stats()`` under its tier label
        (a tiered one's store folded into ``store_bytes``)."""
        runner = self.runner
        out: dict = {}
        for cache in (runner.resolved, runner.static, trace_cache(),
                      runner.reports, self._address_memo):
            if cache is None:
                continue
            stats = cache.stats()
            store = stats.pop("store", None)
            if store is not None:
                stats["store_bytes"] = store["bytes"]
            out[cache.tier] = stats
        return out

    def _set_occupancy_gauges(self) -> None:
        """Refresh the scrape-time occupancy gauges.  Only the serving
        process sets these (workers never create the series), so the
        shared disk tiers are counted exactly once after the merge."""
        occ = self.occupancy()
        for tier, vals in occ.items():
            _METRICS.gauge(
                "gpuscout_cache_entries",
                "Entries held by the in-memory cache tier",
                tier=tier).set(vals.get("entries", 0))
            if "bytes" in vals:
                _METRICS.gauge(
                    "gpuscout_cache_bytes",
                    "Bytes held by the in-memory cache tier",
                    tier=tier).set(vals["bytes"])
        store_names = {"l2": "traces", "l3": "reports"}
        for tier, store in store_names.items():
            vals = occ.get(tier) or {}
            if "store_bytes" in vals:
                _METRICS.gauge(
                    "gpuscout_store_bytes",
                    "Bytes held by the shared on-disk store",
                    store=store).set(vals["store_bytes"])

    def merged_snapshot(self) -> dict:
        """The registry snapshot for this process merged with the
        latest snapshot of every worker generation."""
        self._set_occupancy_gauges()
        snaps = [_METRICS.snapshot()]
        if self.pool is not None:
            snaps.append(self.pool.telemetry())
        return merge_snapshots(snaps)

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition)."""
        return render_prometheus(self.merged_snapshot())

    def health(self) -> dict:
        """The ``GET /healthz`` body: liveness plus pool generation
        counters and the last respawn reason."""
        out: dict = {"ok": True}
        if self.pool is None:
            out["mode"] = "inline"
        else:
            out["mode"] = "pooled"
            ps = self.pool.stats()
            out["pool"] = {
                "workers": ps["workers"],
                "alive": ps["alive"],
                "inflight": ps["inflight"],
                "retries": ps["retries"],
                "respawns": ps["respawns"],
                "generations": ps["generations"],
                "last_respawn": ps["last_respawn"],
            }
        return out

    def stats(self) -> dict:
        out = {
            "requests": self.requests,
            "l3_front_hits": self.l3_front_hits,
            "coalesced": self.coalesced,
            "runner": self.runner.stats(),
            "occupancy": self.occupancy(),
        }
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        if armed():
            out["telemetry"] = summarize(self.merged_snapshot())
        return out


class _HTTPServer(HTTPServer):
    """An ``HTTPServer`` whose accepted connections wait in one queue
    for ``HANDLER_THREADS`` reused daemon threads, instead of starting
    a thread per connection (~180 µs of a reconnecting hit)."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        #: ``(second, Date header)``: formatted at most once a second
        self.date = (0, "")
        self._accepted: queue.SimpleQueue = queue.SimpleQueue()
        #: connections a handler thread holds; ``None`` once closed
        self._held: Optional[set] = set()
        self._held_lock = threading.Lock()
        for i in range(HANDLER_THREADS):
            threading.Thread(target=self._serve_connections,
                             name=f"gpuscout-http-{i}", daemon=True).start()

    def process_request(self, request, client_address):
        self._accepted.put((request, client_address))

    def _serve_connections(self) -> None:
        while (accepted := self._accepted.get()) is not None:
            request, client_address = accepted
            with self._held_lock:
                closed = self._held is None
                if not closed:
                    self._held.add(request)
            try:
                if not closed:
                    self.finish_request(request, client_address)
            except (ConnectionError, TimeoutError):
                pass  # the client left or stopped reading: not our fault
            except Exception:
                self.handle_error(request, client_address)
            finally:
                with self._held_lock:
                    if self._held is not None:
                        self._held.discard(request)
                self.shutdown_request(request)

    def server_close(self):
        """Close the listener, end the reads of every held connection
        (an idle keep-alive one would park its thread for up to
        ``IDLE_TIMEOUT_S``) and stop the handler threads."""
        super().server_close()
        with self._held_lock:
            held, self._held = self._held or set(), None
        for request in held:
            try:
                # EOF for a parked read; a response being written
                # still goes out
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for _ in range(HANDLER_THREADS):
            self._accepted.put(None)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the owning :class:`ScoutServer`.

    The request head is read here, not by ``http.client`` (whose
    ``email`` parser cost ~80 µs a request): only ``_KEPT_HEADERS``
    are kept, in a dict under lower-case names, and every violation is
    the JSON ``code 64`` envelope of :meth:`send_error`."""

    server_version = "gpuscout-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def scout(self) -> ScoutServer:
        return self.server.scout

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def handle_one_request(self) -> None:
        self.requestline = ""
        self.request_version = self.protocol_version
        self.close_connection = True
        try:
            self.raw_requestline = self.rfile.readline(MAX_HEAD_BYTES + 1)
        except TimeoutError:
            return  # silent between requests: close quietly
        if self.raw_requestline and self.parse_request():
            getattr(self, "do_" + self.command)()

    def parse_request(self) -> bool:
        """Read the head after ``raw_requestline``; ``False`` once a
        violation has been answered."""
        try:
            self.command, self.path, self.request_version, self.headers = \
                self._read_head()
        except ProtocolError as exc:
            self.send_error(400, str(exc))
            return False
        conntype = self.headers.get("connection", "").lower()
        self.close_connection = conntype == "close" or (
            self.request_version == "HTTP/1.0" and conntype != "keep-alive")
        if self.headers.get("expect", "").lower() == "100-continue" and \
                self.request_version == "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _read_head(self) -> tuple[str, str, str, dict]:
        """``(method, target, version, kept headers)``, or a
        ``ProtocolError`` naming the violation."""
        lines: list = []
        size = 0
        line = self.raw_requestline
        try:
            while line not in (b"\r\n", b"\n"):
                size += len(line)
                if size > MAX_HEAD_BYTES:
                    raise ProtocolError(
                        f"request head over {MAX_HEAD_BYTES} bytes")
                if not line.endswith(b"\n"):
                    raise ProtocolError("request head cut short")
                if len(lines) > MAX_HEADER_LINES:
                    raise ProtocolError(
                        f"more than {MAX_HEADER_LINES} header lines")
                lines.append(line.rstrip(b"\r\n"))
                line = self.rfile.readline(MAX_HEAD_BYTES - size + 1)
        except TimeoutError:
            raise ProtocolError("request head timed out") from None
        self.requestline = lines[0].decode("latin-1") if lines else ""
        words = self.requestline.split(" ")
        if len(words) != 3:
            raise ProtocolError(f"bad request line {self.requestline!r}")
        method, target, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise ProtocolError(f"unsupported HTTP version {version!r}")
        if not hasattr(self, "do_" + method):
            raise ProtocolError(f"unsupported method {method!r}")
        headers: dict = {}
        for raw in lines[1:]:
            name, colon, value = raw.decode("latin-1").partition(":")
            # an obs-fold line starts with whitespace, so it lands here
            if not colon or not name or name != name.strip():
                raise ProtocolError(f"malformed header line {raw[:64]!r}")
            name = name.lower()
            if name in _KEPT_HEADERS:
                value = value.strip(" \t")
                # a lone CR would split an echoed X-Request-Id in two
                if _CONTROL.search(value):
                    raise ProtocolError(f"control character in {name}")
                if headers.setdefault(name, value) != value and \
                        name == "content-length":
                    raise ProtocolError("conflicting Content-Length headers")
        return method, target, version, headers

    def send_error(self, code, message=None, explain=None) -> None:
        """Every error the edge raises itself is the JSON ``code 64``
        envelope (not the stdlib's HTML page) and closes the
        connection."""
        self.close_connection = True
        self._send(code, error_envelope(ProtocolError(
            message or f"HTTP {code}")))

    def date_time_string(self, timestamp=None) -> str:
        if timestamp is not None:
            return super().date_time_string(timestamp)
        now = int(time.time())
        if self.server.date[0] != now:
            self.server.date = (now, super().date_time_string(now))
        return self.server.date[1]

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        # http.server's own notices (404 paths, bad methods, protocol
        # errors) flow to the structured logger at DEBUG instead of
        # being discarded — `--access-log` / REPRO_LOG make them
        # visible, analysis output streams stay clean
        if _log.enabled("debug"):
            _log.debug("http.server", message=format % args,
                       client=self.address_string())

    def _request_id(self) -> str:
        return self.headers.get("x-request-id") or new_request_id()

    def _send(self, status: int, body: dict,
              request_id: Optional[str] = None) -> None:
        self._send_json(status, render(body), request_id)

    def _send_json(self, status: int, text: str,
                   request_id: Optional[str] = None) -> None:
        self._respond(status, text.encode(), "application/json",
                      request_id)

    def _send_text(self, status: int, text: str) -> None:
        self._respond(status, text.encode(),
                      "text/plain; version=0.0.4; charset=utf-8")

    def _respond(self, status: int, blob: bytes, content_type: str,
                 request_id: Optional[str] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        # not end_headers(): it flushes the headers as one segment and
        # the body would follow as a second, which a keep-alive client
        # waits ~40 ms for (Nagle holds it for the delayed ACK)
        self._headers_buffer += [b"\r\n", blob]
        self.flush_headers()

    def _read_json(self):
        try:
            length = int(self.headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            # whatever follows the headers was not read: this
            # connection cannot be parsed for a next request
            self.close_connection = True
            raise ProtocolError("missing or oversized request body")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            raise ProtocolError("request body timed out") from None
        try:
            return json.loads(raw.decode())
        except Exception:
            raise ProtocolError("request body is not valid JSON") from None

    def _access(self, method: str, status: int, elapsed: float,
                request_id: str, **fields) -> None:
        self.scout.observe_request(self.path, status, elapsed,
                                   request_id)
        if _log.enabled("info"):
            _log.info("http.access", method=method, path=self.path,
                      status=status, elapsed_ms=round(elapsed * 1e3, 3),
                      request_id=request_id,
                      client=self.address_string(), **fields)

    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        t0 = perf_counter()
        rid = self._request_id()
        if self.path == "/healthz":
            status = 200
            self._send(status, self.scout.health(), request_id=rid)
        elif self.path == "/v1/stats":
            status = 200
            self._send(status, self.scout.stats(), request_id=rid)
        elif self.path == "/metrics":
            status = 200
            self._send_text(status, self.scout.metrics_text())
        else:
            status = 404
            self._send(status, {"ok": False, "error": "NotFound",
                                "message": self.path}, request_id=rid)
        self._access("GET", status, perf_counter() - t0, rid)

    def do_POST(self) -> None:  # noqa: N802 — stdlib casing
        t0 = perf_counter()
        rid = self._request_id()
        try:
            payload = self._read_json()
        except ProtocolError as exc:
            env = error_envelope(exc)
            status = http_status_for(env["code"])
            self._send(status, env, request_id=rid)
            self._access("POST", status, perf_counter() - t0, rid)
            return
        if self.path == "/v1/analyze":
            status, env, blob = self.scout.answer(payload, rid)
            body = render(env, "report", blob)
        elif self.path == "/v1/batch":
            status, env, members = self.scout.answer_batch(payload, rid)
            body = render_batch(env, members)
        else:
            status, env = 404, {"ok": False, "error": "NotFound",
                                "message": self.path}
            body = render(env)
        self._send_json(status, body, request_id=rid)
        self._access("POST", status, perf_counter() - t0, rid,
                     cache=env.get("cache"))

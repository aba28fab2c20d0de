"""Process-local metrics registry for production telemetry.

The serving stack (and the CLI under ``--profile``) records its
operational signals — request latencies, cache hits per tier, worker
respawns, engine stage durations — through one dependency-free
registry.  Three instrument kinds, deliberately Prometheus-shaped:

* :class:`Counter` — monotonic, ``_total``-suffixed by convention;
* :class:`Gauge` — settable level (inflight requests, cache bytes);
* :class:`Histogram` — fixed upper-bound buckets plus sum/count, with
  an optional *exemplar* (the request ID that landed in a bucket last)
  so a latency outlier can be traced back to one request.

**Armed vs. disarmed.**  Instrument methods check one module-global
flag first and return immediately when telemetry is disarmed — the
bit-identity equivalence suites run with the registry disarmed and pay
one attribute load per call site.  ``gpuscout serve`` arms the
registry; ``REPRO_METRICS=1``/``0`` forces it on/off globally.

**Snapshot/merge protocol.**  :meth:`MetricsRegistry.snapshot` returns
a plain-dict, pickle- and JSON-safe image of every series; snapshots
from several processes (the fork-based worker pool ships one on every
result envelope) combine via :func:`merge_snapshots` — counters and
histogram buckets add, gauges add (per-process levels aggregate to the
fleet level).  Merging is associative and commutative and a merged
snapshot equals serial observation — a Hypothesis property pins this,
pickled round-trips included.  Workers *replace* their previous
snapshot keyed by ``(worker, generation)``, so resending is idempotent
and a respawned worker's fresh zeroes never erase its predecessor's
counts.

:func:`render_prometheus` serializes a snapshot in the Prometheus text
exposition format (served at ``GET /metrics``);
:func:`validate_exposition` is the structural validator CI pipes the
scrape through; :func:`summarize` derives histogram quantiles for the
enriched ``/v1/stats``.
"""

from __future__ import annotations

import bisect
import math
import os
import re
import threading
from typing import Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RATE_BUCKETS",
    "REGISTRY",
    "arm",
    "armed",
    "merge_snapshots",
    "quantile",
    "render_footer",
    "render_prometheus",
    "set_exemplar",
    "summarize",
    "validate_exposition",
]

#: wall-clock seconds buckets: request latencies and engine stages
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)
#: events-per-second buckets: simulated-instruction throughput
RATE_BUCKETS = (1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8)

#: ``None`` until the first :func:`armed` / :func:`arm` call reads
#: ``REPRO_METRICS`` — not at import, which lazy package roots would
#: turn into "whenever this module first happens to load"
_armed: Optional[bool] = None
_exemplar_ctx = threading.local()


def arm(on: bool = True) -> None:
    """Globally arm or disarm telemetry recording.

    ``REPRO_METRICS=0`` wins: it pins telemetry off no matter who asks
    (the overhead-bench baseline and the bit-identity suites rely on
    disarmed meaning *disarmed*)."""
    global _armed
    if on and os.environ.get("REPRO_METRICS", "") == "0":
        return
    _armed = bool(on)


def armed() -> bool:
    """Whether instruments currently record (``REPRO_METRICS=1`` arms
    a process nobody armed by call)."""
    global _armed
    if _armed is None:
        _armed = os.environ.get("REPRO_METRICS", "") == "1"
    return _armed


def set_exemplar(request_id: Optional[str]) -> None:
    """Set (or clear, with ``None``) the thread's current exemplar: a
    request ID that histogram observations on this thread attach to
    their bucket when no explicit exemplar is given."""
    _exemplar_ctx.value = request_id


def _current_exemplar() -> Optional[str]:
    return getattr(_exemplar_ctx, "value", None)


class Counter:
    """Monotonically increasing count (name ends ``_total``)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if not armed():
            return
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A level that can go up and down (inflight requests, bytes)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v: float) -> None:
        if not armed():
            return
        self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        if not armed():
            return
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)


class Histogram:
    """Fixed-bucket histogram with per-bucket last-exemplar.

    ``buckets`` are finite upper bounds; an implicit ``+Inf`` bucket
    catches the tail.  ``counts`` are per-bucket (not cumulative —
    cumulation happens at exposition time), which is what makes
    merging a plain element-wise add."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum",
                 "exemplars")

    def __init__(self, name: str, labels: tuple, buckets: tuple):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        #: bucket index -> most recent exemplar (e.g. a request ID)
        self.exemplars: dict[int, str] = {}

    def observe(self, v: float, exemplar: Optional[str] = None) -> None:
        if not armed():
            return
        idx = bisect.bisect_left(self.buckets, v)
        self.counts[idx] += 1
        self.sum += v
        ex = exemplar if exemplar is not None else _current_exemplar()
        if ex is not None:
            self.exemplars[idx] = ex

    @property
    def count(self) -> int:
        return sum(self.counts)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All series of one metric name: kind, help text, children keyed
    by their sorted label items."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name, kind, help_text, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: dict[tuple, object] = {}


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class MetricsRegistry:
    """Process-local, thread-safe instrument factory and store.

    ``counter``/``gauge``/``histogram`` get-or-create: the first call
    for a (name, labels) pair creates the series, later calls return
    the same instrument, so call sites need no caching discipline (but
    hot call sites may keep the reference)."""

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- instrument factories -------------------------------------------
    def _series(self, kind: str, name: str, help_text: str,
                labels: dict, buckets: Optional[tuple] = None):
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if kind == "counter" and not name.endswith("_total"):
            raise ValueError(
                f"counter {name!r} must end with '_total'")
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, kind, help_text, buckets)
                self._families[name] = fam
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}")
            child = fam.children.get(key)
            if child is None:
                if kind == "histogram":
                    child = Histogram(name, key,
                                      buckets or fam.buckets
                                      or LATENCY_BUCKETS)
                else:
                    child = _KINDS[kind](name, key)
                fam.children[key] = child
            return child

    def counter(self, name: str, help_text: str = "",
                **labels) -> Counter:
        return self._series("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._series("gauge", name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple = LATENCY_BUCKETS,
                  **labels) -> Histogram:
        return self._series("histogram", name, help_text, labels,
                            buckets=tuple(buckets))

    # -- snapshot / reset ------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict (pickle/JSON-safe) image of every series."""
        out: dict = {}
        with self._lock:
            for name, fam in self._families.items():
                series = {}
                for key, child in fam.children.items():
                    label_str = ",".join(
                        f'{k}="{_escape_label(v)}"' for k, v in key)
                    if fam.kind == "histogram":
                        series[label_str] = {
                            "buckets": list(child.buckets),
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "exemplars": {
                                str(i): ex
                                for i, ex in child.exemplars.items()
                            },
                        }
                    else:
                        series[label_str] = child.value
                out[name] = {
                    "type": fam.kind,
                    "help": fam.help,
                    "series": series,
                }
        return out

    def reset(self) -> None:
        """Zero every series *in place* — existing instrument
        references held by call sites stay valid.  A forked worker
        calls this at startup so the parent's counts are not
        double-reported through its snapshots."""
        with self._lock:
            for fam in self._families.values():
                for child in fam.children.values():
                    if isinstance(child, Histogram):
                        child.counts = [0] * (len(child.buckets) + 1)
                        child.sum = 0.0
                        child.exemplars = {}
                    else:
                        child.value = 0.0


#: the process-wide registry every call site records through
REGISTRY = MetricsRegistry()


# ---------------------------------------------------------------------------
# snapshot merging
# ---------------------------------------------------------------------------

def merge_snapshots(snaps: list) -> dict:
    """Combine snapshots from several processes into one.

    Counters and histogram bucket counts/sums add; gauges add too
    (each process reports its own level, the merge is the fleet
    total).  Exemplars keep the last one seen per bucket.  The
    operation is associative and commutative; an empty list merges to
    an empty snapshot."""
    out: dict = {}
    for snap in snaps:
        for name, fam in snap.items():
            ofam = out.get(name)
            if ofam is None:
                ofam = {"type": fam["type"], "help": fam["help"],
                        "series": {}}
                out[name] = ofam
            for label_str, value in fam["series"].items():
                prev = ofam["series"].get(label_str)
                if prev is None:
                    if isinstance(value, dict):
                        ofam["series"][label_str] = {
                            "buckets": list(value["buckets"]),
                            "counts": list(value["counts"]),
                            "sum": value["sum"],
                            "exemplars": dict(value.get("exemplars",
                                                        {})),
                        }
                    else:
                        ofam["series"][label_str] = value
                elif isinstance(value, dict):
                    prev["counts"] = [
                        a + b for a, b in zip(prev["counts"],
                                              value["counts"])
                    ]
                    prev["sum"] += value["sum"]
                    prev["exemplars"].update(value.get("exemplars", {}))
                else:
                    ofam["series"][label_str] = prev + value
    return out


# ---------------------------------------------------------------------------
# quantiles / summaries
# ---------------------------------------------------------------------------

def quantile(hist: dict, q: float) -> Optional[float]:
    """Estimated ``q``-quantile (0..1) of a snapshot histogram series,
    linearly interpolated inside the landing bucket.  ``None`` for an
    empty histogram; the top bucket clamps to its lower bound (the
    +Inf bucket has no finite upper edge to interpolate towards)."""
    counts = hist["counts"]
    total = sum(counts)
    if total == 0:
        return None
    bounds = hist["buckets"]
    target = q * total
    cum = 0.0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        lo = bounds[i - 1] if i > 0 else 0.0
        if i < len(bounds):
            hi = bounds[i]
        else:
            return lo  # +Inf bucket: report its lower edge
        if cum + c >= target:
            frac = (target - cum) / c
            return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        cum += c
    return bounds[-1]


def summarize(snapshot: dict) -> dict:
    """Digest for ``/v1/stats``: every histogram's count/sum/mean and
    p50/p90/p99 plus exemplars, every counter and gauge verbatim."""
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, fam in sorted(snapshot.items()):
        for label_str, value in sorted(fam["series"].items()):
            series = f"{name}{{{label_str}}}" if label_str else name
            if fam["type"] == "histogram":
                count = sum(value["counts"])
                entry = {
                    "count": count,
                    "sum": round(value["sum"], 9),
                    "mean": round(value["sum"] / count, 9)
                    if count else None,
                    "p50": quantile(value, 0.50),
                    "p90": quantile(value, 0.90),
                    "p99": quantile(value, 0.99),
                }
                if value.get("exemplars"):
                    entry["exemplars"] = dict(value["exemplars"])
                out["histograms"][series] = entry
            elif fam["type"] == "counter":
                out["counters"][series] = value
            else:
                out["gauges"][series] = value
    return out


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _escape_label(v: str) -> str:
    return str(v).replace("\\", r"\\").replace('"', r"\"") \
        .replace("\n", r"\n")


def _escape_help(v: str) -> str:
    return v.replace("\\", r"\\").replace("\n", r"\n")


def _fmt(v: float) -> str:
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _with_le(label_str: str, le: str) -> str:
    extra = f'le="{le}"'
    return f"{label_str},{extra}" if label_str else extra


def render_prometheus(snapshot: dict) -> str:
    """The Prometheus text exposition format of a snapshot: one
    ``# HELP``/``# TYPE`` pair per family, then all its samples
    (histograms expand to cumulative ``_bucket`` series plus ``_sum``
    and ``_count``)."""
    lines: list[str] = []
    for name in sorted(snapshot):
        fam = snapshot[name]
        help_text = fam.get("help") or name
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {fam['type']}")
        for label_str in sorted(fam["series"]):
            value = fam["series"][label_str]
            if fam["type"] == "histogram":
                cum = 0
                for bound, c in zip(value["buckets"], value["counts"]):
                    cum += c
                    lines.append(
                        f"{name}_bucket"
                        f"{{{_with_le(label_str, _fmt(float(bound)))}}}"
                        f" {cum}")
                cum += value["counts"][-1]
                lines.append(
                    f"{name}_bucket{{{_with_le(label_str, '+Inf')}}}"
                    f" {cum}")
                suffix = f"{{{label_str}}}" if label_str else ""
                lines.append(f"{name}_sum{suffix} {_fmt(value['sum'])}")
                lines.append(f"{name}_count{suffix} {cum}")
            else:
                suffix = f"{{{label_str}}}" if label_str else ""
                lines.append(f"{name}{suffix} {_fmt(float(value))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exposition validator (the CI smoke pipes scrapes through this)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{([^}]*)\})?"                       # optional labels
    r" ([^ ]+)"                               # value
    r"(?: (-?\d+))?$"                         # optional timestamp
)
_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_labels(raw: str) -> Optional[dict]:
    """Label dict of a ``k="v",...`` body, or None when malformed."""
    if not raw:
        return {}
    out = {}
    rest = raw
    while rest:
        m = _LABEL_RE.match(rest)
        if not m:
            return None
        out[m.group(1)] = m.group(2)
        rest = rest[m.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            return None
    return out


def _base_name(name: str, types: dict) -> str:
    """The family a sample belongs to (histogram samples carry
    ``_bucket``/``_sum``/``_count`` suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) in ("histogram", "summary"):
                return base
    return name


def validate_exposition(text: str) -> list[str]:
    """Structural validation of Prometheus text exposition format.

    Returns a list of problems (empty == valid):

    * every non-comment line parses as ``name{labels} value``;
    * ``# TYPE`` declares a known type, at most once per family,
      before the family's first sample; family samples are contiguous;
    * counters end ``_total`` and are non-negative;
    * every histogram labelset has ascending ``le`` buckets with
      non-decreasing cumulative counts, a ``+Inf`` bucket, and
      matching ``_count``/``_sum`` samples (+Inf == count).
    """
    problems: list[str] = []
    types: dict[str, str] = {}
    seen_families: list[str] = []
    closed: set[str] = set()
    # histogram state: (family, labels-minus-le) -> bucket/count info
    hist: dict[tuple, dict] = {}

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if not _NAME_RE.match(name):
                    problems.append(
                        f"line {lineno}: bad metric name {name!r}")
                if parts[1] == "TYPE":
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in _TYPES:
                        problems.append(
                            f"line {lineno}: unknown type {kind!r}")
                    if name in types:
                        problems.append(
                            f"line {lineno}: duplicate TYPE for {name}")
                    types[name] = kind
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparsable sample {line!r}")
            continue
        name, raw_labels, raw_value = m.group(1), m.group(2), m.group(3)
        labels = _parse_labels(raw_labels or "")
        if labels is None:
            problems.append(
                f"line {lineno}: malformed labels {raw_labels!r}")
            continue
        try:
            value = float(raw_value)
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value {raw_value!r}")
            continue
        family = _base_name(name, types)
        kind = types.get(family)
        if kind is None:
            problems.append(
                f"line {lineno}: sample {name} before its TYPE")
            kind = "untyped"
            types[family] = kind
        if family in closed:
            problems.append(
                f"line {lineno}: family {family} samples not contiguous")
        if not seen_families or seen_families[-1] != family:
            if seen_families:
                closed.add(seen_families[-1])
            seen_families.append(family)
        if kind == "counter":
            if not family.endswith("_total"):
                problems.append(
                    f"line {lineno}: counter {family} lacks _total")
            if value < 0:
                problems.append(
                    f"line {lineno}: negative counter {family}")
        if kind == "histogram":
            key = (family, tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le")))
            st = hist.setdefault(key, {
                "buckets": [], "count": None, "sum": None})
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    problems.append(
                        f"line {lineno}: {family} bucket without le")
                else:
                    bound = math.inf if le == "+Inf" else None
                    if bound is None:
                        try:
                            bound = float(le)
                        except ValueError:
                            problems.append(
                                f"line {lineno}: bad le {le!r}")
                            bound = math.nan
                    st["buckets"].append((lineno, bound, value))
            elif name.endswith("_count"):
                st["count"] = (lineno, value)
            elif name.endswith("_sum"):
                st["sum"] = (lineno, value)
    for (family, labels), st in hist.items():
        prev_bound, prev_cum = -math.inf, -1.0
        has_inf = False
        for lineno, bound, cum in st["buckets"]:
            if bound != bound:  # NaN from a bad le
                continue
            if bound <= prev_bound:
                problems.append(
                    f"line {lineno}: {family} le {bound} out of order")
            if cum < prev_cum:
                problems.append(
                    f"line {lineno}: {family} cumulative count drops")
            prev_bound, prev_cum = bound, cum
            if bound == math.inf:
                has_inf = True
        if not has_inf:
            problems.append(f"{family}{dict(labels)}: no +Inf bucket")
        if st["count"] is None:
            problems.append(f"{family}{dict(labels)}: missing _count")
        elif st["buckets"] and has_inf and \
                st["buckets"][-1][1] == math.inf and \
                st["count"][1] != st["buckets"][-1][2]:
            problems.append(
                f"{family}{dict(labels)}: +Inf bucket "
                f"{st['buckets'][-1][2]} != count {st['count'][1]}")
        if st["sum"] is None:
            problems.append(f"{family}{dict(labels)}: missing _sum")
    return problems


# ---------------------------------------------------------------------------
# terminal footer ([metrics] under `analyze --profile`)
# ---------------------------------------------------------------------------

def render_footer(snapshot: Optional[dict] = None,
                  max_lines: int = 14) -> list[str]:
    """The ``[metrics]`` terminal footer: non-zero counters and gauges
    verbatim, histograms as ``count/mean/p99``.  Empty when telemetry
    is disarmed or nothing was recorded."""
    if snapshot is None:
        if not armed():
            return []
        snapshot = REGISTRY.snapshot()
    digest = summarize(snapshot)
    rows: list[str] = []
    for series, value in digest["counters"].items():
        if value:
            rows.append(f"  {series} {_fmt(float(value))}")
    for series, value in digest["gauges"].items():
        if value:
            rows.append(f"  {series} {_fmt(float(value))}")
    for series, h in digest["histograms"].items():
        if not h["count"]:
            continue
        mean = h["mean"] or 0.0
        p99 = h["p99"] if h["p99"] is not None else 0.0
        rows.append(
            f"  {series} n={h['count']} mean={mean:.4g} p99={p99:.4g}")
    if not rows:
        return []
    lines = ["", "[metrics] telemetry registry "
                 f"({len(rows)} active series)"]
    lines.extend(rows[:max_lines])
    if len(rows) > max_lines:
        lines.append(f"  ... and {len(rows) - max_lines} more")
    return lines

"""Process-level plumbing: scrubbed child environments, the served
subprocess, HTTP round trips, resident-set sizes and the calibration
loop.  Everything the benchmark writes stays under ``out/``."""

from __future__ import annotations

import http.client
import os
import pathlib
import re
import resource
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"


def child_env(tmp) -> dict:
    """Environment for every process the benchmark starts: no
    ``REPRO_*`` toggle leaks in, byte-code caching is on as it is for
    users, and temp files land in the run's own directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["TMPDIR"] = str(tmp)
    return env


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "repro.cli", *args]


def analyze_argv(o: dict) -> list:
    """The one-shot command line of an op class."""
    argv = cli_argv("analyze", "--kernel", o["kernel"], "--size", str(o["size"]),
                    "--json", "-")
    if o["max_blocks"] != 8:
        argv += ["--max-blocks", str(o["max_blocks"])]
    if o.get("dry_run"):
        argv.append("--dry-run")
    return argv


def request_body(o: dict) -> dict:
    """The ``/v1/analyze`` submission of an op class."""
    body = {"kernel": o["kernel"], "size": o["size"], "max_blocks": o["max_blocks"]}
    if o.get("dry_run"):
        body["dry_run"] = True
    return body


def timed_run(argv: list, env: dict) -> tuple:
    """``(seconds, returncode, stdout)`` of one child process."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0, done.returncode, done.stdout


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest resident set among the children waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _children(pid: int) -> list:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


class Server:
    """``gpuscout serve`` as a subprocess with shipped defaults."""

    _LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

    def __init__(self, cache_dir, env: dict, workers: int = 2):
        self._log_path = pathlib.Path(cache_dir) / "serve.stderr"
        # stderr goes to a file, not a pipe: nothing can block on it
        with open(self._log_path, "w") as log:
            self.proc = subprocess.Popen(
                cli_argv("serve", "--port", "0", "--workers", str(workers),
                         "--cache-dir", str(cache_dir)),
                env=env, cwd=REPO, stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float = 30.0) -> tuple:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = self._LISTENING.search(self._log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("gpuscout serve did not start: "
                           + self._log_path.read_text()[-400:])

    def request(self, method: str, path: str, body: bytes = None) -> tuple:
        """One round trip on a fresh connection, as ``curl`` or
        ``urllib`` make it; returns ``(status, body bytes)``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def rss_mb(self) -> float:
        """High-water resident set of the server plus its workers."""
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return sum(_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL for the server and any worker left."""
        workers = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in workers:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    orphan = b"repro.cli" in fh.read()
                if orphan:
                    os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # already gone

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def host_probe(iterations: int = 50_000) -> float:
    """Seconds of a fixed pure-Python loop (~3.5 ms).  A neighbour that
    takes a share of the core stretches the loop as it stretches the
    program; the run's fastest probe is the host at its quietest."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python plus numpy loop (best of five,
    so first-touch page faults do not count); timed before and after a
    workload, its relative change is ``host.drift_share``."""
    import numpy as np

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += (i * i) % 7
        field = np.arange(200_000, dtype=np.float64)
        for _ in range(40):
            field = np.sqrt(field * field + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best

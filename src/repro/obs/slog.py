"""Structured logging: one JSON object per line, stdlib-only.

The serve stack emits machine-parseable events (``http.access``,
``pool.respawn``, ``server.start`` …) through a tiny logger facade
rather than the stdlib :mod:`logging` tree — no handler/formatter
configuration can leak in from the host process, and the off mode is a
single integer comparison per call.

Three output modes, selected by ``REPRO_LOG`` (or programmatically via
:func:`configure`):

* ``off`` — the default; every call returns immediately;
* ``json`` — one compact JSON object per line on stderr:
  ``{"ts": ..., "level": "info", "logger": "serve.http",
  "event": "http.access", ...fields}``;
* ``text`` — the same record rendered ``LEVEL logger event k=v ...``
  for humans tailing a terminal.

``gpuscout serve --access-log`` turns the logger on (text mode at
DEBUG unless ``REPRO_LOG`` already chose a mode) so request lines and
the previously-suppressed :class:`http.server` notices become
visible."""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Optional, TextIO

__all__ = ["Logger", "configure", "get_logger", "mode"]

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_state_lock = threading.Lock()
_mode = "off"
_level = _LEVELS["info"]
_stream: Optional[TextIO] = None


def _init_from_env() -> None:
    global _mode, _level
    raw = os.environ.get("REPRO_LOG", "off").strip().lower()
    if raw in ("json", "text", "off"):
        _mode = raw
    lvl = os.environ.get("REPRO_LOG_LEVEL", "").strip().lower()
    if lvl in _LEVELS:
        _level = _LEVELS[lvl]


_init_from_env()


def configure(mode: Optional[str] = None, level: Optional[str] = None,
              stream: Optional[TextIO] = None) -> None:
    """Set output mode (``json``/``text``/``off``), minimum level, and
    destination stream (default: current ``sys.stderr``).  ``None``
    arguments leave the corresponding setting untouched."""
    global _mode, _level, _stream
    with _state_lock:
        if mode is not None:
            if mode not in ("json", "text", "off"):
                raise ValueError(f"bad log mode {mode!r}")
            _mode = mode
        if level is not None:
            if level not in _LEVELS:
                raise ValueError(f"bad log level {level!r}")
            _level = _LEVELS[level]
        if stream is not None:
            _stream = stream


def mode() -> str:
    """The active output mode."""
    return _mode


class Logger:
    """A named event emitter; obtain via :func:`get_logger`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def enabled(self, level: str) -> bool:
        """Whether a record at ``level`` would be written — lets a hot
        caller skip building fields nobody will read."""
        return _mode != "off" and _LEVELS[level] >= _level

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if not self.enabled(level):
            return
        stream = _stream or sys.stderr
        if _mode == "json":
            rec = {"ts": round(time.time(), 6), "level": level,
                   "logger": self.name, "event": event}
            rec.update(fields)
            line = json.dumps(rec, separators=(",", ":"),
                              default=str)
        else:
            kv = " ".join(f"{k}={v}" for k, v in fields.items())
            line = (f"{level.upper():7s} {self.name} {event}"
                    + (f" {kv}" if kv else ""))
        with _state_lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (ValueError, OSError):
                pass  # stream closed mid-shutdown: drop the record

    def debug(self, event: str, **fields) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields) -> None:
        self._emit("error", event, fields)


_loggers: dict[str, Logger] = {}


def get_logger(name: str) -> Logger:
    """The (cached) logger for a dotted component name."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers.setdefault(name, Logger(name))
    return logger

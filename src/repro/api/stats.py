"""Serving-side metrics primitives: latency windows and request counters.

Both serving modes (the in-process dispatcher of :mod:`repro.api.http` and
the sharded multi-process one in :mod:`repro.api.sharded`) surface the same
observability payload through ``GET /v1/stats``: how many requests were
served, rejected or coalesced, the recent latency percentiles, and the
derived throughput.  This module holds the two thread-safe building blocks
they share:

* :class:`LatencyWindow` — a bounded ring of recent request latencies with
  p50/p95/p99 snapshots (bounded so a long-lived server's memory stays
  constant under load, per the ROADMAP's "millions of users" axis);
* :class:`ServingCounters` — monotonic request/outcome counters plus the
  uptime needed to derive QPS.

The wire encoding of the aggregate payload lives in
:func:`repro.wire.payloads.serving_stats_to_json`.
"""

from __future__ import annotations

import threading
import time


def percentile(sorted_values: "list[float]", q: float) -> float:
    """The *q*-quantile (0 ≤ q ≤ 1) of an ascending-sorted non-empty list.

    Uses the nearest-rank method, so the result is always an observed
    value — appropriate for latency reporting where interpolation between
    two real requests has no physical meaning.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty window")
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class LatencyWindow:
    """A bounded, thread-safe ring buffer of request latencies (seconds).

    ``record`` is O(1); ``snapshot`` sorts a copy of the window (bounded by
    ``capacity``) and reports millisecond percentiles.  ``count`` keeps the
    lifetime total even after old samples rotate out of the ring.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._samples: "list[float]" = []
        self._next = 0
        self._count = 0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Add one latency sample, evicting the oldest when full."""
        with self._lock:
            if len(self._samples) < self.capacity:
                self._samples.append(seconds)
            else:
                self._samples[self._next] = seconds
                self._next = (self._next + 1) % self.capacity
            self._count += 1

    def snapshot(self) -> dict:
        """Percentiles of the current window: ``{count, p50_ms, p95_ms, p99_ms}``.

        ``count`` is the lifetime sample count; the percentiles describe the
        most recent ``capacity`` samples.  An empty window reports ``None``
        percentiles rather than inventing numbers.
        """
        with self._lock:
            window = sorted(self._samples)
            count = self._count
        if not window:
            return {"count": 0, "p50_ms": None, "p95_ms": None, "p99_ms": None}
        return {
            "count": count,
            "p50_ms": percentile(window, 0.50) * 1000.0,
            "p95_ms": percentile(window, 0.95) * 1000.0,
            "p99_ms": percentile(window, 0.99) * 1000.0,
        }


class ServingCounters:
    """Monotonic serving counters, one set per dispatcher.

    Tracks request outcomes (``completed`` 2xx, ``errors`` 4xx/5xx computed
    by a worker, ``rejected`` backpressure 503s, ``timeouts``, ``coalesced``
    duplicates that shared an in-flight computation) and derives QPS from
    completions over uptime.  All mutation methods are thread-safe.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests = 0
        self.completed = 0
        self.errors = 0
        self.rejected = 0
        self.coalesced = 0
        self.timeouts = 0
        self.latency = LatencyWindow()

    def record_outcome(self, status: int, seconds: float) -> None:
        """Count one finished request (any status) and its latency."""
        with self._lock:
            self.requests += 1
            if 200 <= status < 300:
                self.completed += 1
            else:
                self.errors += 1
        self.latency.record(seconds)

    def record_rejected(self) -> None:
        """Count one request shed by backpressure (503 + ``Retry-After``)."""
        with self._lock:
            self.requests += 1
            self.rejected += 1

    def record_coalesced(self) -> None:
        """Count one duplicate request that attached to an in-flight leader.

        The duplicate is a real request (it counts in ``requests``) but not
        a computation: ``completed``/``errors`` and the latency window track
        leader computations only, so QPS measures distinct work done.
        """
        with self._lock:
            self.requests += 1
            self.coalesced += 1

    def record_timeout(self) -> None:
        """Count one request that timed out waiting for its worker."""
        with self._lock:
            self.timeouts += 1

    def snapshot(self) -> dict:
        """One JSON-ready dict of every counter plus uptime, QPS and latency."""
        with self._lock:
            uptime = time.monotonic() - self.started
            completed = self.completed
            data = {
                "uptime_s": uptime,
                "requests": self.requests,
                "completed": completed,
                "errors": self.errors,
                "rejected": self.rejected,
                "coalesced": self.coalesced,
                "timeouts": self.timeouts,
            }
        data["qps"] = completed / uptime if uptime > 0 else 0.0
        data["latency_ms"] = self.latency.snapshot()
        return data

"""Metrics registry (counters / gauges / histograms) + wall-clock store.

The registry is the out-of-band sink the layers report into when an
observer is active: per-phase bits and rounds from the transcript
ledger, Color-Sample fan-out counters from :mod:`repro.comm.telemetry`,
retry and merge counters from the dispatcher, wall-time distributions
from the runner.  ``snapshot()`` is deterministic (sorted keys throughout) and
``write()`` emits one pretty-printed JSON document — never anything the
canonical ``sweep.json`` path reads, which is what keeps observability
strictly out-of-band.

:class:`WallClock` is the one always-on piece.  PR 4 established that
``wall_time_s`` must never enter canonical records (it made merges
non-deterministic); this store is where the timing now lives instead.
:func:`repro.engine.run_scenario` records into the module-level
:data:`WALL_CLOCK` unconditionally — a dict update per scenario run,
nowhere near any hot loop — and the console/markdown tables read from
it.  It is per-process; pool sweeps re-home worker timings on the
coordinator via the elapsed value each rep task returns.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WALL_CLOCK",
    "WallClock",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values (count/total/min/max/mean).

    Deliberately bucket-free: the engine's distributions (wall times,
    shard sizes) are low-volume, and the summary stays deterministic
    and tiny regardless of how many values stream in.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0}
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.total / self.count, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms with a deterministic dump."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Free-form extra sections merged into the snapshot (e.g. the
        #: comm telemetry counters, the wall-clock table).
        self.extra: dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def snapshot(self) -> dict[str, Any]:
        """The registry as one sorted, JSON-ready document."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
            **{key: self.extra[key] for key in sorted(self.extra)},
        }

    def write(self, path: str | Path) -> Path:
        """Serialize :meth:`snapshot` to ``path`` (parents created)."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"
        )
        return out


class WallClock:
    """Per-scenario wall-time accumulator (the single source of truth).

    Keyed by scenario name; each :meth:`record` adds one run's elapsed
    seconds.  Replicated scenarios accumulate one sample per rep, so
    :meth:`total` is the scenario's summed wall time — exactly the
    number the old in-record ``wall_time_s`` summing produced, now held
    out-of-band where it can never perturb canonical documents.
    """

    def __init__(self) -> None:
        self._total: dict[str, float] = {}
        self._count: dict[str, int] = {}
        self._last: dict[str, float] = {}

    def record(self, name: str, elapsed: float) -> None:
        """Add one run's elapsed seconds under ``name``."""
        self._total[name] = self._total.get(name, 0.0) + elapsed
        self._count[name] = self._count.get(name, 0) + 1
        self._last[name] = elapsed

    def total(self, name: str) -> float | None:
        """Summed seconds across recorded runs (None if never recorded)."""
        total = self._total.get(name)
        return None if total is None else round(total, 6)

    def count(self, name: str) -> int:
        return self._count.get(name, 0)

    def last(self, name: str) -> float | None:
        """The most recent single-run elapsed under ``name``."""
        last = self._last.get(name)
        return None if last is None else round(last, 6)

    def discard(self, names: Iterable[str]) -> None:
        """Forget accumulated samples for ``names`` (a sweep starting).

        Called at the top of every sweep for the scenarios it is about
        to run, so a process that sweeps twice (tests, notebooks)
        reports each sweep's own timings rather than a running total.
        """
        for name in names:
            self._total.pop(name, None)
            self._count.pop(name, None)
            self._last.pop(name, None)

    def clear(self) -> None:
        self._total.clear()
        self._count.clear()
        self._last.clear()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """All timings as a sorted JSON-ready table."""
        return {
            name: {
                "count": self._count[name],
                "total_s": round(self._total[name], 6),
                "mean_s": round(self._total[name] / self._count[name], 6),
            }
            for name in sorted(self._total)
        }


#: Process-global wall-clock store the runner records into and the table
#: renderers read from.  Always on (it is one dict update per scenario
#: run); never serialized into canonical documents.
WALL_CLOCK = WallClock()

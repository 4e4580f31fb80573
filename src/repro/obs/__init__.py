"""Out-of-band observability: tracing + metrics with a no-op default.

The contract, in order of importance:

1. **Canonical artifacts never change.**  Observers write only to their
   own trace/metrics files; no record, journal entry, or ``sweep.json``
   byte depends on whether observability is on.  The integration tests
   pin ``sweep.json`` byte-identical traced vs untraced, for serial
   sweeps and for dispatch runs with injected worker kills.
2. **Disabled is (almost) free.**  The default observer is
   :data:`NULL_OBSERVER` (``enabled = False``); the engine's
   instrumentation points live on per-scenario cold paths, and the
   comm hot-path site goes through :mod:`repro.comm.telemetry`'s single
   module-flag branch.  The benchmark's A/B against the parent commit
   runs every workload with the observer off, so an off-path cost
   shows as an end-to-end regression; ``bench --max-obs-overhead``
   caps the enabled path.
3. **One switch.**  :func:`observing` installs an :class:`Observer`
   (tracer and/or metrics registry), enables the comm telemetry
   counters, and on exit folds telemetry + wall-clock into the metrics
   document, writes it, and restores the previous observer.

Layering: ``obs`` imports only the stdlib and
:mod:`repro.comm.telemetry`; the engine and dispatcher call
:func:`get_observer` at their instrumentation points.  Nothing anywhere
imports ``obs`` inside a per-round loop.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, ContextManager, Iterator

from ..comm import telemetry
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WALL_CLOCK,
    WallClock,
)
from .trace import (
    Tracer,
    read_trace,
    summarize_phases,
    summarize_spans,
    to_chrome,
    trace_spans,
    validate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "Tracer",
    "WALL_CLOCK",
    "WallClock",
    "get_observer",
    "observing",
    "read_trace",
    "set_observer",
    "summarize_phases",
    "summarize_spans",
    "to_chrome",
    "trace_spans",
    "validate_trace",
]

#: Shared no-op context so the disabled ``span`` path allocates nothing.
_NULL_CTX: ContextManager[None] = nullcontext()


class NullObserver:
    """The default observer: every operation is an allocation-free no-op.

    Instrumentation sites that do real work (building attr dicts,
    reading transcript phases) guard on :attr:`enabled` first, so the
    off path costs one attribute load and a branch per *scenario-level*
    operation — and nothing at all per round.
    """

    enabled = False
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None

    def span(self, name: str, **attrs: Any) -> ContextManager[None]:
        return _NULL_CTX

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def record_transcript(self, protocol: str, transcript: Any) -> None:
        pass


class Observer(NullObserver):
    """An active observer feeding a tracer and/or a metrics registry."""

    enabled = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics

    def span(self, name: str, **attrs: Any) -> ContextManager[None]:
        if self.tracer is None:
            return _NULL_CTX
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    def count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def record_transcript(self, protocol: str, transcript: Any) -> None:
        """Report one finished run's ledger: totals plus per-phase stats.

        Runs *after* the protocol returns, reading the transcript the
        run produced anyway — zero cost inside the protocol loops.
        Counters aggregate across the sweep; the tracer gets one
        ``phase`` instant per transcript phase, attributed to the
        enclosing protocol span.
        """
        summary = transcript.summary()
        if self.metrics is not None:
            prefix = f"protocol.{protocol}"
            self.count(f"{prefix}.runs")
            self.count(f"{prefix}.total_bits", summary["total_bits"])
            self.count(f"{prefix}.rounds", summary["rounds"])
            self.count(f"{prefix}.messages", summary["messages"])
            for phase, stats in sorted(transcript.phases.items()):
                self.count(f"{prefix}.phase.{phase}.bits", stats.total_bits)
                self.count(f"{prefix}.phase.{phase}.rounds", stats.rounds)
        if self.tracer is not None:
            for phase, stats in sorted(transcript.phases.items()):
                self.tracer.event(
                    "phase",
                    protocol=protocol,
                    phase=phase,
                    bits=stats.total_bits,
                    rounds=stats.rounds,
                )


#: The module-wide default: observability off.
NULL_OBSERVER = NullObserver()

_observer: NullObserver = NULL_OBSERVER


def get_observer() -> NullObserver:
    """The currently installed observer (the null one by default)."""
    return _observer


def set_observer(observer: NullObserver) -> NullObserver:
    """Install ``observer`` as current; returns the one it replaced.

    Also toggles the comm telemetry flag to match, so the gated
    hot-path counters are live exactly while a real observer is.
    """
    global _observer
    previous = _observer
    _observer = observer
    if observer.enabled:
        telemetry.enable()
    else:
        telemetry.disable()
    return previous


@contextmanager
def observing(
    trace: str | Path | None = None,
    metrics: str | Path | None = None,
) -> Iterator[Observer]:
    """Install an observer for the block; write its outputs on exit.

    ``trace`` names the JSONL trace file (created immediately, flushed
    per event); ``metrics`` names the metrics JSON document (written on
    exit, with the comm telemetry snapshot and the wall-clock table
    folded in).  Either may be omitted.  Comm telemetry counters are
    reset on entry so the document describes this block alone; the
    previous observer is restored on every exit path.
    """
    tracer = Tracer(trace) if trace is not None else None
    registry = MetricsRegistry() if metrics is not None else None
    observer = Observer(tracer=tracer, metrics=registry)
    telemetry.reset()
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
        if registry is not None:
            registry.extra["comm"] = telemetry.snapshot()
            registry.extra["wall_time_s"] = WALL_CLOCK.snapshot()
            registry.write(Path(metrics))
        if tracer is not None:
            tracer.close()

"""Gated hot-path counters for the comm layer.

The comm hot loop (the pooled ``parallel`` driver) is a path the bench
guards protect, so it cannot afford observer indirection — not even a
method call — per event.  This module is the compromise: a couple of
bare module-level integers behind a single ``enabled`` flag.  The
instrumented site reads ``telemetry.enabled`` (one attribute load and a
branch) and, only when observability is on, bumps the counters in place.
Disabled, the added cost is that one predictable branch; nothing is
allocated either way.

``repro.obs`` owns the lifecycle: :func:`repro.obs.observing` calls
:func:`reset` + :func:`enable` on entry and folds :func:`snapshot` into
the metrics document on exit.  This module deliberately imports nothing
from :mod:`repro.obs` (or anywhere else), so the comm layer stays
dependency-free and import-light.

The counters are per-process.  Sweep worker processes bump their own
copies, which die with the worker — by design: observability documents
describe the observing (coordinator) process, and canonical artifacts
never read these values at all.
"""

from __future__ import annotations

__all__ = ["disable", "enable", "enabled", "reset", "snapshot"]

#: Master switch read inline by the instrumented comm site.
enabled = False

#: ``parallel`` batch buffers checked out of a channel's freelist.
pool_reused = 0
#: ``parallel`` batch buffers freshly allocated (freelist empty/short).
pool_allocated = 0


def enable() -> None:
    """Turn the comm counters on (idempotent)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn the comm counters off (idempotent); values are kept."""
    global enabled
    enabled = False


def reset() -> None:
    """Zero every counter (does not touch ``enabled``)."""
    global pool_reused, pool_allocated
    pool_reused = 0
    pool_allocated = 0


def snapshot() -> dict[str, float]:
    """The counters as a plain dict."""
    return {"pool_reused": pool_reused, "pool_allocated": pool_allocated}

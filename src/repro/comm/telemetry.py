"""Gated hot-path counters for the comm layer.

The comm hot loops (the pooled ``parallel`` driver and the batched
Color-Sample fan-out) are paths the bench guards protect, so they
cannot afford observer indirection — not even a method call — per
event.  This module is the compromise: a few bare module-level
integers behind a single ``enabled`` flag.  Each instrumented site
reads ``telemetry.enabled`` (one attribute load and a branch) and, only
when observability is on, bumps the counters in place.
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
#: Color-Sample fan-outs run (one per ``color_sample_batch_proto`` call,
#: per party: a two-party run counts each fan-out twice).
color_sample_fanouts = 0
#: Color-Sample instances across those fan-outs.
color_sample_instances = 0
#: Fan-outs that ran as the numpy lockstep kernel rather than falling
#: back to one ``color_sample_proto`` generator per instance.
color_sample_kernel_fanouts = 0


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
    global color_sample_fanouts, color_sample_instances, color_sample_kernel_fanouts
    pool_reused = 0
    pool_allocated = 0
    color_sample_fanouts = 0
    color_sample_instances = 0
    color_sample_kernel_fanouts = 0


def snapshot() -> dict[str, float]:
    """The counters as a plain dict."""
    return {
        "pool_reused": pool_reused,
        "pool_allocated": pool_allocated,
        "color_sample_fanouts": color_sample_fanouts,
        "color_sample_instances": color_sample_instances,
        "color_sample_kernel_fanouts": color_sample_kernel_fanouts,
    }

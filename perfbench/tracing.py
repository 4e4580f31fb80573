"""In-memory layer tracing for the benchmark's traced run.

The untraced runs execute the repository's code unmodified.  A traced
run wraps the public functions of each layer by replacing module and
class attributes from here (:meth:`Recorder.solving` installs the wraps
for the duration of one driver call and restores them afterwards), and
the harness opens spans around workload generation, partitioning and
validation.  A generator protocol's span is one resume: its inclusive
time is summed over resumes, which is the time that party's code ran.

Every frame adds its duration to its layer's inclusive time (outermost
frame of that layer only) and its self time (duration minus the time
its child frames cover).  Coarse layers are also kept as spans; they are
written at the end in the JSONL schema of :mod:`repro.obs.trace`, so
``repro trace FILE --check`` and ``--chrome`` read them unchanged.
Fine-grained layers (Color-Sample, rand) run hundreds of thousands of
times per instance and are reported as per-layer ``layer`` instants
instead of individual spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Recorder", "SELF_LAYERS", "self_time_rows"]

#: Layers kept as individual spans in the trace file.
SPANNED = frozenset(
    {
        "run",
        "instance",
        "setup",
        "graphs.generate",
        "graphs.partition",
        "solve",
        "graphs.validate",
        "comm.party",
        "rct",
        "probes.confirmation",
        "d1lc",
        "d1lc.surviving",
        "d1lc.solve",
        "d1lc.greedy",
        "edge.defer",
        "edge.matching",
        "edge.palette_color",
        "edge.peel",
        "cover.build",
        "cover.decode",
    }
)

#: Layers whose self time is reported as a ``self.<layer>_s`` metric.
#: ``solve``'s self time is the transport loop: solve minus party code.
SELF_LAYERS = (
    "graphs.generate",
    "graphs.partition",
    "graphs.validate",
    "solve",
    "comm.party",
    "rct",
    "color_sample",
    "rand.permutation",
    "rand.batch",
    "rand.kernel",
    "probes.confirmation",
    "d1lc",
    "d1lc.surviving",
    "d1lc.solve",
    "d1lc.greedy",
    "edge.defer",
    "edge.matching",
    "edge.palette_color",
    "edge.peel",
    "cover.build",
    "cover.decode",
)

# (module, attribute, layer, is_generator_function) for module functions.
_FUNCTIONS = (
    ("repro.core.vertex_coloring", "vertex_coloring_proto", "comm.party", True),
    ("repro.core.edge_coloring", "edge_coloring_proto", "comm.party", True),
    ("repro.core.edge_coloring", "zero_comm_edge_coloring_party", "comm.party", False),
    ("repro.core.random_color_trial", "random_color_trial_proto", "rct", True),
    ("repro.core.color_sample", "color_sample_proto", "color_sample", True),
    ("repro.core.probes", "confirmation_bits", "probes.confirmation", False),
    ("repro.core.probes", "surviving_edges", "d1lc.surviving", False),
    ("repro.core.d1lc", "d1lc_proto", "d1lc", True),
    ("repro.coloring.list_coloring", "solve_list_coloring", "d1lc.solve", False),
    ("repro.coloring.greedy", "greedy_d1lc_coloring", "d1lc.greedy", False),
    ("repro.core.edge_coloring", "defer_heavy_edges", "edge.defer", False),
    ("repro.graphs.matching", "delta_perfect_matching", "edge.matching", False),
    ("repro.core.edge_coloring", "color_with_own_palette", "edge.palette_color", False),
    ("repro.core.edge_coloring", "peel_heavy_matching", "edge.peel", False),
    ("repro.core.cover_colors", "build_cover_message", "cover.build", False),
    ("repro.core.cover_colors", "decode_cover_message", "cover.decode", False),
    ("repro.rand.kernels", "fair_coins", "rand.kernel", False),
    ("repro.rand.kernels", "biased_coins", "rand.kernel", False),
    ("repro.rand.kernels", "ints", "rand.kernel", False),
    ("repro.rand.kernels", "geometric", "rand.kernel", False),
    ("repro.rand.kernels", "dense_mask", "rand.kernel", False),
    ("repro.rand.kernels", "feistel_batch", "rand.kernel", False),
)

_STREAM_BATCH = ("coins", "ints", "sample_indices", "sample_mask")
_PERM_LOOKUPS = ("__getitem__", "index_of", "batch", "index_of_batch", "materialize")


class Recorder:
    """Spans, per-layer times and counts of one traced instance, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        self._stack: list[list[Any]] = []  # [layer, start, child_time, span_id]
        self._spans: list[int] = []  # ids of the open recorded spans
        self._next_id = 1
        self.open: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.entries: list[dict[str, Any]] = []

    # -- frames ------------------------------------------------------------

    def _ts(self, t: float) -> float:
        return round(t - self._t0, 6)

    def enter(self, layer: str) -> None:
        span_id = None
        if layer in SPANNED:
            span_id = self._next_id
            self._next_id += 1
            begin = {"ev": "B", "id": span_id, "name": layer,
                     "ts": self._ts(self._clock())}
            if self._spans:
                begin["parent"] = self._spans[-1]
            self.entries.append(begin)
            self._spans.append(span_id)
        self.open[layer] += 1
        self._stack.append([layer, self._clock(), 0.0, span_id])

    def exit(self) -> None:
        end = self._clock()
        layer, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_time[layer] += duration - child
        self.open[layer] -= 1
        if not self.open[layer]:
            self.inclusive[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self._spans.pop()
            self.entries.append(
                {"ev": "E", "id": span_id, "name": layer, "ts": self._ts(end)}
            )

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A harness-side span around one step of an instance."""
        self.calls[layer] += 1
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def event(self, name: str, **attrs: Any) -> None:
        """An instant event attributed to the innermost open span."""
        entry: dict[str, Any] = {"ev": "I", "name": name,
                                 "ts": self._ts(self._clock())}
        if self._spans:
            entry["parent"] = self._spans[-1]
        if attrs:
            entry["attrs"] = attrs
        self.entries.append(entry)

    def write(self, path: str | Path) -> None:
        """Write the recorded entries as a flushed-JSONL trace file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for entry in self.entries:
                out.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
                out.write("\n")

    # -- wrapping ----------------------------------------------------------

    def wrap_call(self, fn: Callable, layer: str,
                  on_result: Callable[[Any], None] | None = None) -> Callable:
        open_ = self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[layer]:
                # Nested call within the same layer: already inside the
                # outer frame's inclusive and self time.
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_generator(self, fn: Callable, layer: str,
                       on_call: Callable[[], None] | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if on_call is not None:
                on_call()
            return self._drive(fn(*args, **kwargs), layer)

        return wrapper

    def _drive(self, gen, layer: str):
        """Re-yield ``gen``'s items, timing each resume as one frame."""
        value = None
        while True:
            self.enter(layer)
            try:
                item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            value = yield item

    @contextmanager
    def solving(self) -> Iterator[None]:
        """Install the layer wraps around one driver call (span ``solve``)."""
        restore: list[tuple[Any, str, Any]] = []
        try:
            self._install(restore)
            with self.span("solve"):
                yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _install(self, restore: list[tuple[Any, str, Any]]) -> None:
        """Wrap every layer function, appending ``(owner, attr, original)``.

        A function the measured tree does not have (an older checkout) is
        skipped; its layer then reads zero.
        """
        from repro.rand.core import Stream
        from repro.rand.perm import FeistelPermutation, Permutation, SmallPermutation

        counts = self.counts
        open_ = self.open
        modules = [m for name, m in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]

        def color_sample_started() -> None:
            if open_["d1lc"]:
                counts["d1lc.samples"] += 1
            elif open_["rct"]:
                counts["rct.samples"] += 1

        def confirmation_done(_result) -> None:
            if open_["rct"]:
                counts["rct.confirmations"] += 1

        def kernel_done(_result) -> None:
            if open_["rand.batch"]:
                counts["rand.batch_kernels"] += 1

        def count_len(key: str, pick: Callable[[Any], Any]):
            def hook(result) -> None:
                counts[key] += len(pick(result))
            return hook

        def cover_built(message) -> None:
            counts["cover.picks"] += len(message.colors)
            counts["cover.bits"] += message.nbits

        result_hooks = {
            "probes.confirmation": confirmation_done,
            "d1lc.surviving": count_len("d1lc.surviving_edges", lambda r: r),
            "edge.defer": count_len("edge.deferred_edges", lambda r: r[1]),
            "cover.build": cover_built,
            "rand.kernel": kernel_done,
        }
        for module_name, attr, layer, is_gen in _FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            if is_gen:
                hook = color_sample_started if layer == "color_sample" else None
                wrapped = self.wrap_generator(original, layer, hook)
            else:
                wrapped = self.wrap_call(original, layer, result_hooks.get(layer))
            # Rebind every module-level reference (``from x import f``
            # copies included), so call sites resolve to the wrap.
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        restore.append((module, name, original))

        def permutation_made(_result) -> None:
            counts["rand.permutation_calls"] += 1

        methods = [(Stream, "permutation", "rand.permutation", permutation_made)]
        methods += [(Stream, name, "rand.batch", None) for name in _STREAM_BATCH]
        methods += [
            (cls, name, "rand.permutation", None)
            for cls in (Permutation, SmallPermutation, FeistelPermutation)
            for name in _PERM_LOOKUPS
            if name in vars(cls)
        ]
        for cls, name, layer, hook in methods:
            original = vars(cls).get(name)
            if original is None:
                continue
            setattr(cls, name, self.wrap_call(original, layer, hook))
            restore.append((cls, name, original))


def self_time_rows(recorder: Recorder) -> list[dict[str, Any]]:
    """Per-layer self/inclusive time and calls, largest self time first."""
    layers = set(recorder.self_time) | set(recorder.inclusive)
    rows = [
        {
            "layer": layer,
            "self_s": recorder.self_time.get(layer, 0.0),
            "inclusive_s": recorder.inclusive.get(layer, 0.0),
            "calls": recorder.calls.get(layer, 0),
        }
        for layer in layers
    ]
    rows.sort(key=lambda row: (-row["self_s"], row["layer"]))
    return rows

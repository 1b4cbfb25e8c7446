"""Layer-boundary tracing from outside the package.

The tracer rebinds names that one means_lab module imported from another,
so every call that crosses a layer boundary passes through a wrapper kept
here; nothing under src/ changes.  Calls into ``cli`` and ``certify`` become
spans (name, start, end, parent) kept in memory.  The hot leaves (``means``,
``ratios``, ``series``) see millions of calls per pass, so they are only
aggregated: a call count plus busy time per enclosing span, which keeps
memory bounded.

Self time of a span or leaf is its duration minus the time covered by the
calls it made across a traced boundary.  The calls are sequential on one
thread, so the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("cli", "certify", "ratios", "series", "means")

# (module whose global is rebound, name, layer of the callee); the module
# is the caller, so a rebinding only intercepts that caller's calls.
BOUNDARIES = (
    ("means_lab.cli", "verify_bound", "certify"),
    ("means_lab.cli", "verify_chain", "certify"),
    ("means_lab.cli", "verify_corpus", "certify"),
    ("means_lab.cli", "sharpness_probe", "certify"),
    ("means_lab.cli", "recover_constant", "certify"),
    ("means_lab.cli", "theorem_claims", "certify"),
    ("means_lab.cli", "sharp_constants", "ratios"),
    ("means_lab.cli", "ratio_sequence_verdict", "series"),
    ("means_lab.cli", "coefficient_exact", "series"),
    ("means_lab.certify", "mean_shape", "means"),
    ("means_lab.certify", "evaluate_mean", "means"),
    ("means_lab.certify", "pair_from_gap", "means"),
    ("means_lab.certify", "PositivePair", "means"),
    ("means_lab.certify", "evaluate_ratio_function", "ratios"),
    ("means_lab.certify", "endpoint_value", "ratios"),
    ("means_lab.certify", "sharp_constants", "ratios"),
    ("means_lab.ratios", "stable_asinh", "means"),
    ("means_lab.ratios", "truncated_quotient", "series"),
    ("means_lab.ratios", "solve_p0", "series"),
)

# layers whose calls are recorded one span each; the rest are aggregated
SPAN_LAYERS = frozenset({"cli", "certify"})


class Tracer:
    """Collects spans and per-layer totals for one process.

    Spans are dicts with ``name``, ``start``, ``end``, ``parent`` (the
    parent's index in ``spans``) and ``leaves``: the count and busy time of
    each leaf function called directly under the span.  Frames on the stack
    are lists ``[child_time, layer, span_index]``; ``span_index`` is the
    nearest enclosing span, to which leaf totals are charged.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[dict] = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        # time in ratios, and in series called directly from ratios
        self.ratios_busy = 0.0
        self.ratios_in_series = 0.0
        self._stack: list[list] = [[0.0, "root", None]]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _close(self, frame: list, layer: str, elapsed: float) -> None:
        parent = self._stack[-1]
        parent[0] += elapsed
        self.calls[layer] += 1
        self.self_time[layer] += elapsed - frame[0]
        if layer == "ratios":
            self.ratios_busy += elapsed
        elif layer == "series" and parent[1] == "ratios":
            self.ratios_in_series += elapsed

    def span(self, layer: str, name: str, fn):
        """Wrap fn so that each call is recorded as one span."""
        clock, stack, spans = self.clock, self._stack, self.spans

        def traced(*args, **kwargs):
            record = {"name": f"{layer}.{name}", "parent": stack[-1][2],
                      "start": 0.0, "end": 0.0, "leaves": {}}
            frame = [0.0, layer, len(spans)]
            spans.append(record)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record["start"] = start - self.origin
                record["end"] = end - self.origin
                self._close(frame, layer, end - start)

        return traced

    def leaf(self, layer: str, name: str, fn):
        """Wrap fn so that its calls are counted and timed per enclosing span."""
        clock, stack, spans = self.clock, self._stack, self.spans
        close = self._close
        key = f"{layer}.{name}"

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(frame, layer, elapsed)
                if frame[2] is not None:
                    leaves = spans[frame[2]]["leaves"]
                    stats = leaves.get(key)
                    if stats is None:
                        leaves[key] = [1, elapsed]
                    else:
                        stats[0] += 1
                        stats[1] += elapsed

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every name in BOUNDARIES to its traced wrapper."""
        for module_name, name, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            wrap = self.span if layer in SPAN_LAYERS else self.leaf
            setattr(module, name, wrap(layer, name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s`` and ``ratios.series_share``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        busy = self.ratios_busy
        out["ratios.series_share"] = self.ratios_in_series / busy if busy > 0.0 else 0.0
        return out

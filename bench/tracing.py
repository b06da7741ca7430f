"""Outside-in tracing of fieldscope's layers.

Each public function is wrapped where its caller looks it up (a name bound
in ``fieldscope.cli`` is a different reference from the one in its home
module), so nested calls are seen without changing fieldscope. The layer of
a span is the module that defines the function: cli, parsing, arch, fields,
oracle, report, plus ``import`` for the package import itself.

Spans live in memory as lists ``[name, command, parent, start_ns, end_ns]``
and are written out by the caller when the run ends. In memory mode each
span boundary also samples tracemalloc, giving the allocation peak of each
layer's outermost span; that mode is never used for timing.
"""

from __future__ import annotations

import functools
from collections import Counter
import sys
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter_ns
from types import ModuleType

LAYERS = ("import", "cli", "parsing", "arch", "fields", "oracle", "report")

# (module, attribute, span name). One span name may be bound in two modules.
TRACEPOINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "validate", "arch.validate"),
    ("cli", "load_network", "parsing.load_network"),
    ("cli", "rf_top_down", "fields.rf_top_down"),
    ("cli", "deconv_view", "fields.deconv_view"),
    ("cli", "check_equivalence", "oracle.check_equivalence"),
    ("cli", "random_network", "oracle.random_network"),
    ("arch", "validate", "arch.validate"),
    ("parsing", "parse_dsl", "parsing.parse_dsl"),
    ("parsing", "parse_manifest", "parsing.parse_manifest"),
    ("fields", "erf_bottom_up", "fields.erf_bottom_up"),
    ("fields", "rf_top_down", "fields.rf_top_down"),
    ("fields", "pf_size_set", "fields.pf_size_set"),
    ("oracle", "pf_counts_oracle", "oracle.pf_counts_oracle"),
    ("report", "build_analysis", "report.build_analysis"),
    ("report", "render_analysis_table", "report.render_analysis_table"),
    ("report", "render_analysis_json", "report.render_analysis_json"),
    ("report", "render_topdown_table", "report.render_topdown_table"),
    ("report", "render_topdown_json", "report.render_topdown_json"),
    ("report", "render_equivalence", "report.render_equivalence"),
    ("report", "render_footprint", "report.render_footprint"),
)

RENDERERS = tuple(span for _, attr, span in TRACEPOINTS if attr.startswith("render_"))

# Counter metrics and the spans they read; a metric whose span could not be
# bound at all is reported absent rather than as a misleading zero.
COUNTER_SOURCES = {
    "arch.validate.calls": ("arch.validate",),
    "arch.validate.layers": ("arch.validate",),
    "arch.validate.calls_per_network": ("arch.validate", "parsing.load_network", "oracle.random_network"),
    "fields.rf_top_down.steps": ("fields.rf_top_down",),
    "parsing.bytes_per_s": ("parsing.parse_dsl", "parsing.parse_manifest"),
    "oracle.check_equivalence.calls": ("oracle.check_equivalence",),
    "oracle.pf_counts_oracle.calls": ("oracle.pf_counts_oracle",),
    "oracle.random_network.self_s": ("oracle.random_network",),
    "oracle.influence_elems": ("oracle.check_equivalence",),
    "oracle.span_bits": ("oracle.check_equivalence",),
    "oracle.density": ("oracle.check_equivalence",),
    "report.bytes_out": RENDERERS,
}

NAME, COMMAND, PARENT, START, END = range(5)


def _count_validate(counts, args, result):
    counts["validate_layers"] += len(args[0].layers)


def _count_network(counts, args, result):
    counts["networks"] += 1


def _count_parse(counts, args, result):
    counts["parse_bytes"] += len(args[0].encode())


def _count_topdown(counts, args, result):
    counts["topdown_steps"] += args[1]


def _count_oracle(counts, args, result):
    for row in result.erf_rows:
        counts["influence_elems"] += sum(row.oracle_cardinality)
        counts["span_bits"] += sum(row.oracle_span)


def _count_render(counts, args, result):
    counts["bytes_out"] += len(result.encode())


OBSERVERS = {
    "arch.validate": _count_validate,
    "parsing.load_network": _count_network,
    "oracle.random_network": _count_network,
    "parsing.parse_dsl": _count_parse,
    "parsing.parse_manifest": _count_parse,
    "fields.rf_top_down": _count_topdown,
    "oracle.check_equivalence": _count_oracle,
    **{name: _count_render for name in RENDERERS},
}


@dataclass
class _OpenPeak:
    base: int
    peak: int


@dataclass
class Tracer:
    """Span recorder. ``install`` wraps every tracepoint; ``uninstall`` restores."""

    memory: bool = False
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    command: int = 0
    missing: list = field(default_factory=list)
    peak_alloc: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _open_peaks: dict = field(default_factory=dict)
    _depth: dict = field(default_factory=dict)
    _saved: list = field(default_factory=list)

    def install(self, package: dict[str, ModuleType]) -> None:
        """Wrap each tracepoint found in package (short module name -> module)."""
        self.spans = []
        self.counts = Counter()
        self.missing = []
        for module_name, attr, span_name in TRACEPOINTS:
            module = package.get(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        for name in self.missing:
            print(f"bench: warning: fieldscope.{name} not found; its metrics are absent", file=sys.stderr)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def bound_spans(self) -> set[str]:
        return {name for (mod, attr, name) in TRACEPOINTS if f"{mod}.{attr}" not in self.missing}

    def _wrap(self, function, span_name: str):
        layer = span_name.split(".", 1)[0]
        if self.memory:
            # No span records here: they would count as the layers' allocations.
            @functools.wraps(function)
            def measured(*args, **kwargs):
                self._enter_memory(layer)
                try:
                    return function(*args, **kwargs)
                finally:
                    self._exit_memory(layer)

            return measured

        observe = OBSERVERS.get(span_name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = [span_name, self.command, self._stack[-1] if self._stack else -1, 0, 0]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            record[START] = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def _sample(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for open_peak in self._open_peaks.values():
            open_peak.peak = max(open_peak.peak, peak)
        return current

    def _enter_memory(self, layer: str) -> None:
        current = self._sample()
        depth = self._depth.get(layer, 0)
        if depth == 0:
            self._open_peaks[layer] = _OpenPeak(base=current, peak=current)
        self._depth[layer] = depth + 1

    def _exit_memory(self, layer: str) -> None:
        self._sample()
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            open_peak = self._open_peaks.pop(layer)
            grown = open_peak.peak - open_peak.base
            self.peak_alloc[layer] = max(self.peak_alloc.get(layer, 0), grown)


def absent_metrics(bound: set[str]) -> set[str]:
    """Counter metrics none of whose spans could be bound."""
    return {
        metric
        for metric, sources in COUNTER_SOURCES.items()
        if not any(source in bound for source in sources)
    }


def self_times(spans: list) -> dict[str, float]:
    """Seconds per layer spent in its own spans, child spans excluded."""
    child_ns = [0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_ns[record[PARENT]] += record[END] - record[START]
    per_layer = dict.fromkeys(LAYERS[1:], 0)
    per_name: dict[str, int] = {}
    for record, children in zip(spans, child_ns):
        own = record[END] - record[START] - children
        layer = record[NAME].split(".", 1)[0]
        per_layer[layer] += own
        per_name[record[NAME]] = per_name.get(record[NAME], 0) + own
    result = {layer: ns / 1e9 for layer, ns in per_layer.items()}
    result.update({name: ns / 1e9 for name, ns in per_name.items()})
    return result

"""Report assembly and rendering: aligned tables, stable JSON, footprints."""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import fields, oracle
from .arch import Direction, NetworkSpec
from .fields import ErfTrace, Pair


@dataclass(frozen=True)
class AnalysisReport:
    network: NetworkSpec
    trace: ErfTrace
    pf: tuple[tuple[Pair, ...], ...]  # entry k: boundary k's sizes, ascending (h, w)


def build_analysis(network: NetworkSpec) -> AnalysisReport:
    trace = fields.erf_bottom_up(network)
    pf = tuple(tuple(sorted(fields.pf_size_set(network, k))) for k in range(len(network.layers)))
    return AnalysisReport(network=network, trace=trace, pf=pf)


def _cell(pair: Pair) -> str:
    return f"{pair[0]}x{pair[1]}"


def _pf_sizes_cell(sizes: tuple[Pair, ...], depth: int | None) -> str:
    """depth is channels_out of the layer being fed, when the file gives one."""
    if depth is not None:
        return ", ".join(f"{h}x{w}x{depth}" for h, w in sizes)
    return ", ".join(_cell(size) for size in sizes)


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return lines


def render_analysis_table(report: AnalysisReport) -> str:
    network = report.network
    deconv = network.direction is Direction.DECONV
    # Mirrored reading: a deconv chain's forward extent is a projective field
    # and its per-boundary sizes are receptive fields.
    extent_label = "pf extent" if deconv else "erf"
    pf_title = "effective receptive field sizes" if deconv else "projective field sizes"

    lines = [f"network {network.name or '(unnamed)'} ({network.direction.value})", ""]
    rows = []
    for i, layer in enumerate(network.layers, start=1):
        rows.append(
            [
                str(i),
                layer.kind.value,
                _cell(layer.filter),
                _cell(layer.stride),
                _cell(report.trace.cumulative_strides[i - 1]),
                _cell(report.trace.increments[i - 1]),
                _cell(report.trace.values[i]),
            ]
        )
    lines += _table(
        ["layer", "kind", "filter", "stride", "cum-stride", "increment", extent_label],
        rows,
    )
    lines += ["", f"{pf_title} (boundary k feeds layer k+1)"]
    pf_rows = [
        [str(k), _pf_sizes_cell(sizes, layer.channels_out), "yes" if len(sizes) == 1 else "no"]
        for k, (sizes, layer) in enumerate(zip(report.pf, network.layers))
    ]
    lines += _table(["boundary", "sizes", "uniform"], pf_rows)
    return "\n".join(lines) + "\n"


def render_analysis_json(report: AnalysisReport) -> str:
    network = report.network
    payload = {
        "name": network.name,
        "direction": network.direction.value,
        "layers": [
            {
                "index": i,
                "kind": layer.kind.value,
                "filter": list(layer.filter),
                "stride": list(layer.stride),
                "cum_stride": list(report.trace.cumulative_strides[i - 1]),
                "increment": list(report.trace.increments[i - 1]),
                "erf": list(report.trace.values[i]),
            }
            for i, layer in enumerate(network.layers, start=1)
        ],
        "pf": [
            {
                "boundary": k,
                "sizes": [list(size) for size in sizes],
                "uniform": len(sizes) == 1,
            }
            for k, sizes in enumerate(report.pf)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_topdown_table(network: NetworkSpec, projection: tuple[Pair, ...]) -> str:
    """projection is rf_top_down's windows, layer k first."""
    k = len(projection) - 1
    width = max(len("layer"), len(str(k)))  # labels run k..0; rf, the last column, is unpadded
    lines = [
        f"top-down projection of layer {k} (network {network.name or '(unnamed)'})",
        "layer".ljust(width) + "  rf",
    ]
    lines += [f"{str(k - i).ljust(width)}  {h}x{w}" for i, (h, w) in enumerate(projection)]
    return "\n".join(lines) + "\n"


def render_topdown_json(network: NetworkSpec, projection: tuple[Pair, ...]) -> str:
    k = len(projection) - 1
    payload = {
        "name": network.name,
        "target_layer": k,
        "values": [{"layer": k - i, "rf": list(pair)} for i, pair in enumerate(projection)],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_equivalence(report: oracle.EquivalenceReport) -> str:
    lines = [f"equivalence check: {report.network_name or '(unnamed)'}"]
    rows = [
        [
            str(layer),
            _cell(row.bottom_up),
            _cell(row.top_down),
            _cell(row.oracle_span),
            _cell(row.oracle_cardinality),
            "ok" if row.matches else "MISMATCH",
        ]
        for layer, row in enumerate(report.erf_rows)
    ]
    lines += _table(
        ["layer", "bottom-up", "top-down", "oracle-span", "oracle-card", "match"], rows
    )
    lines += [
        f"note: layer {layer} influence has coverage gaps "
        f"(cardinality {_cell(row.oracle_cardinality)} < span {_cell(row.oracle_span)})"
        for layer, row in enumerate(report.erf_rows)
        if row.has_coverage_gaps
    ]
    if report.pf_rows:
        lines.append("")
        pf_rows = [
            [
                str(boundary),
                ", ".join(_cell(s) for s in sorted(row.closed_form)),
                ", ".join(_cell(s) for s in sorted(row.oracle)),
                "ok" if row.matches else "MISMATCH",
            ]
            for boundary, row in enumerate(report.pf_rows)
        ]
        lines += _table(["pf-boundary", "closed-form", "oracle", "match"], pf_rows)
    lines.append("")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_footprint(
    network: NetworkSpec, projection: tuple[Pair, ...], max_width: int = 120
) -> str:
    """One centered bar per layer, widest at the input; numeric fallback when
    the input-level extent exceeds max_width columns."""
    k = len(projection) - 1
    heights = [pair[0] for pair in projection]
    widths = [pair[1] for pair in projection]
    lines = [f"footprint of layer {k}, height axis (network {network.name or '(unnamed)'})"]
    if heights != widths:
        lines.append("note: width axis differs from height axis; drawing heights only")
    full = heights[-1]
    if full > max_width:
        lines.append(f"extent {full} exceeds max width {max_width}; printing values only")
        for i, extent in enumerate(heights):
            lines.append(f"layer {k - i}: {extent}")
        return "\n".join(lines) + "\n"
    label_width = len(str(k))
    extent_width = len(str(full))
    for i, extent in enumerate(heights):
        left = (full - extent) // 2
        bar = " " * left + "#" * extent + " " * (full - extent - left)
        lines.append(
            f"layer {k - i:>{label_width}}  extent {extent:>{extent_width}}  |{bar}|"
        )
    return "\n".join(lines) + "\n"

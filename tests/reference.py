"""Straightforward references that the library's faster code is
property-checked against.

backward_influence is the naive per-position wiring expansion behind the
oracle's sweep: starting from position 0 at layer k, each layer-j position p
becomes the layer j-1 positions p*s_j .. p*s_j + f_j - 1; unions of those
windows are taken all the way down to the input. Pure connectivity, no
shortcuts.

validate_reference walks every axis of every layer, with no fast path for a
clean layer.

topdown_table_reference lays the top-down table out in two passes: every
column padded to its widest cell, each line right-stripped.

random_network_reference draws random_network's chain through the public
randint, choice and random, in the order random_network documents.
"""

from __future__ import annotations

import random

from fieldscope import Direction, LayerKind, LayerSpec, NetworkSpec, ValidationReport


def backward_influence(network: NetworkSpec, k: int, axis: int) -> tuple[int, ...]:
    """Sorted input positions wired to one layer-k neuron along one axis."""
    positions = {0}
    for layer in reversed(network.layers[:k]):
        f, s = layer.filter[axis], layer.stride[axis]
        positions = {p * s + t for p in positions for t in range(f)}
    return tuple(sorted(positions))


def span_and_cardinality(network: NetworkSpec, k: int, axis: int) -> tuple[int, int]:
    positions = backward_influence(network, k, axis)
    return positions[-1] - positions[0] + 1, len(positions)


def validate_reference(network: NetworkSpec) -> ValidationReport:
    """The findings validate() must report, in the order it must report them."""
    errors: list[tuple[int, str]] = []
    warnings: list[tuple[int, str]] = []
    if not network.layers:
        errors.append((0, "network has no layers"))
    for position, layer in enumerate(network.layers, start=1):
        for axis_name, f, s in zip(("height", "width"), layer.filter, layer.stride):
            if f < 1:
                errors.append((position, f"{axis_name} filter must be >= 1 (got {f})"))
            if s < 1:
                errors.append((position, f"{axis_name} stride must be >= 1 (got {s})"))
            elif f >= 1 and s > f:
                warnings.append(
                    (position, f"stride exceeds filter on {axis_name} axis: coverage gaps")
                )
        if layer.channels_out is not None and layer.channels_out < 1:
            errors.append(
                (position, f"channels_out must be >= 1 (got {layer.channels_out})")
            )
    return ValidationReport(tuple(errors), tuple(warnings))


def topdown_table_reference(
    network: NetworkSpec, projection: tuple[tuple[int, int], ...]
) -> str:
    k = len(projection) - 1
    rows = [["layer", "rf"]]
    rows += [[str(k - i), f"{h}x{w}"] for i, (h, w) in enumerate(projection)]
    widths = [max(len(row[column]) for row in rows) for column in range(2)]
    lines = [f"top-down projection of layer {k} (network {network.name or '(unnamed)'})"]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def random_network_reference(rng: random.Random) -> NetworkSpec:
    """Per layer: kind, height and width filter, height and width stride, the
    channels coin, and a channel count when the coin lands under 0.2."""
    layers = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice((LayerKind.CONV, LayerKind.POOL))
        f = (rng.randint(1, 11), rng.randint(1, 11))
        s = (rng.randint(1, 4), rng.randint(1, 4))
        channels = rng.randint(1, 128) if rng.random() < 0.2 else None
        layers.append(LayerSpec(kind=kind, filter=f, stride=s, channels_out=channels))
    return NetworkSpec(name="", direction=Direction.CONV, layers=tuple(layers))

"""Naive per-position wiring expansion, the reference the oracle's sweep is
property-checked against.

Starting from position 0 at layer k, each layer-j position p becomes the
layer j-1 positions p*s_j .. p*s_j + f_j - 1; unions of those windows are
taken all the way down to the input. Pure connectivity, no shortcuts.
"""

from __future__ import annotations

from fieldscope import NetworkSpec


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

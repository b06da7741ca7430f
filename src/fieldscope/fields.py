"""Closed-form field arithmetic for layer chains.

Three quantities, all separable per axis and all in integer pixels:

* effective receptive field (ERF): how much of the input image can reach a
  neuron; grows layer by layer as each filter adds (f - 1) placements, each
  worth the product of all lower strides in input pixels.
* receptive field projection: the window a single layer-k neuron casts onto
  each lower layer, unrolled one layer at a time down to the input.
* projective field (PF): how many next-layer neurons one output feeds; a
  floor/ceil set of the next layer's filter-to-stride ratio.

Each is computed by a private 1-D function over one axis's (filters,
strides) int lists; the public 2-D functions run it on the height axis,
then the width axis, and zip the two results.
"""

from __future__ import annotations

from typing import NamedTuple

from .arch import Direction, NetworkSpec, LayerRangeError, axis_chains, require_valid

Pair = tuple[int, int]

# Values and cumulative strides are capped so runaway chains fail loudly
# instead of producing reports nobody can mean.
MAX_FIELD_VALUE = 2**63 - 1


class FieldOverflowError(OverflowError):
    """A field value or cumulative stride exceeded MAX_FIELD_VALUE."""


class ErfTrace(NamedTuple):
    """Per-layer ERF results from one forward sweep.

    values has n+1 entries (input layer 0 first), increments and
    cumulative_strides have one entry per explicit layer 1..n.
    """

    values: tuple[Pair, ...]
    increments: tuple[Pair, ...]
    cumulative_strides: tuple[Pair, ...]

    @property
    def final(self) -> Pair:
        return self.values[-1]


def _erf_1d(filters: list[int], strides: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Bottom-up ERF along one axis: values (n+1), increments, cumulative strides."""
    values = [1]
    increments = []
    cumulative = []
    jump = 1
    last = len(filters)
    for index, (f, s) in enumerate(zip(filters, strides), start=1):
        cumulative.append(jump)
        added = (f - 1) * jump
        grown = values[-1] + added
        if grown > MAX_FIELD_VALUE:
            raise FieldOverflowError(f"ERF exceeds {MAX_FIELD_VALUE} at layer {index}")
        increments.append(added)
        values.append(grown)
        jump *= s
        if jump > MAX_FIELD_VALUE and index < last:
            raise FieldOverflowError(
                f"cumulative stride exceeds {MAX_FIELD_VALUE} above layer {index}"
            )
    return values, increments, cumulative


def _top_down_1d(filters: list[int], strides: list[int]) -> list[int]:
    """Widen one top-layer unit down to the input along one axis: r -> (r - 1) * s + f."""
    values = [1]
    for j in range(len(filters) - 1, -1, -1):
        widened = (values[-1] - 1) * strides[j] + filters[j]
        if widened > MAX_FIELD_VALUE:
            raise FieldOverflowError(f"projection exceeds {MAX_FIELD_VALUE} at layer {j + 1}")
        values.append(widened)
    return values


def _erf_top_down_1d(filters: list[int], strides: list[int]) -> list[int]:
    """Top-down ERF of every layer 0..n along one axis, in one scan.

    Each top-down step r -> (r - 1) * s + f = s * r + (f - s) is affine, so
    the steps from layer k down to the input compose to r -> a * r + b.
    Crossing one more layer on top gives b += a * (f - s), a *= s, and the
    ERF of layer k is that map applied to the single unit r = 1.
    """
    values = [1]
    a, b = 1, 0
    for index, (f, s) in enumerate(zip(filters, strides), start=1):
        b += a * (f - s)
        a *= s
        if a + b > MAX_FIELD_VALUE:
            raise FieldOverflowError(f"projection of layer {index} exceeds {MAX_FIELD_VALUE}")
        values.append(a + b)
    return values


def _pf_1d(f: int, s: int) -> set[int]:
    """Next-layer windows one output falls in along one axis: floor and ceil of f/s."""
    return {f // s, -(-f // s)}


def _pf_2d(filter: Pair, stride: Pair) -> frozenset[Pair]:
    """PF sizes of one next layer as (height, width) pairs: the product of its axis sets."""
    heights = _pf_1d(filter[0], stride[0])
    widths = _pf_1d(filter[1], stride[1])
    return frozenset((h, w) for h in heights for w in widths)


def erf_bottom_up(network: NetworkSpec) -> ErfTrace:
    """Compute the ERF of every layer in a single forward sweep."""
    require_valid(network)
    height, width = axis_chains(network.layers)
    values, increments, cumulative = (
        tuple(zip(h, w)) for h, w in zip(_erf_1d(*height), _erf_1d(*width))
    )
    return ErfTrace(values=values, increments=increments, cumulative_strides=cumulative)


def rf_top_down(network: NetworkSpec, k: int) -> tuple[Pair, ...]:
    """Windows one layer-k neuron casts onto layers k, k-1, .., 0, in that order.

    Each step widens the current window r to (r - 1) * stride + filter of
    the layer being crossed. The value at layer 0 is the ERF of layer k;
    intermediate values are receptive fields onto intermediate layers.
    """
    require_valid(network)
    if not 0 <= k <= len(network.layers):
        raise LayerRangeError(f"layer index {k} out of range 0..{len(network.layers)}")
    height, width = axis_chains(network.layers[:k])
    return tuple(zip(_top_down_1d(*height), _top_down_1d(*width)))


def erf_top_down(network: NetworkSpec) -> tuple[Pair, ...]:
    """Top-down ERF of every layer 0..n, from one affine prefix scan per axis.

    Entry k equals rf_top_down(network, k)[-1], without the n + 1
    separate projections.
    """
    require_valid(network)
    height, width = axis_chains(network.layers)
    return tuple(zip(_erf_top_down_1d(*height), _erf_top_down_1d(*width)))


def pf_size_set(network: NetworkSpec, k: int) -> frozenset[Pair]:
    """Distinct PF sizes of layer-k outputs feeding layer k+1.

    Interior positions only (borders are clipped in reality but the chain is
    treated as zero padded). Per axis the count is floor(f/s) or ceil(f/s)
    of the next layer, depending on where the neuron sits in the stride
    phase; one size (uniform) exactly when the stride divides the filter on
    both axes.
    """
    require_valid(network)
    if k == len(network.layers):
        raise LayerRangeError(f"layer {k} has no successor layer")
    if not 0 <= k < len(network.layers):
        raise LayerRangeError(
            f"layer index {k} out of range 0..{len(network.layers) - 1}"
        )
    nxt = network.layers[k]
    return _pf_2d(nxt.filter, nxt.stride)


def deconv_view(network: NetworkSpec) -> NetworkSpec:
    """Toggle the network's direction; numbers are unchanged, labels swap.

    A deconvolutional chain is the mirrored reading of a convolutional one:
    what the forward sweep measures as ERF extent is its projective field
    extent, and the per-boundary PF sizes are its ERF sizes.
    """
    require_valid(network)
    flipped = Direction.DECONV if network.direction is Direction.CONV else Direction.CONV
    return NetworkSpec(network.name, flipped, network.layers)

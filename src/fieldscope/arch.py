"""Architecture model: linear chains of convolution and pooling layers.

The input image is the implicit layer 0 and is never represented as a
LayerSpec; explicit layers are numbered 1..n by their position in the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

AXIS_NAMES = ("height", "width")

# One axis of a chain: (filters, strides), entry j - 1 belonging to layer j.
Chain1d = tuple[list[int], list[int]]


class LayerKind(Enum):
    CONV = "conv"
    POOL = "pool"


class Direction(Enum):
    CONV = "conv"
    DECONV = "deconv"


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the chain.

    filter and stride are (height, width) pairs in pixels. channels_out is
    reporting-only metadata (depth multiplier); it never enters any field
    computation. A layer's number is its position in NetworkSpec.layers, so
    one immutable record can stand for every repeat of the same layer.
    """

    kind: LayerKind
    filter: tuple[int, int]
    stride: tuple[int, int]
    channels_out: int | None = None


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer chain plus metadata."""

    name: str
    direction: Direction
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class ValidationReport:
    """Findings from validate(): (layer position, message) pairs."""

    errors: tuple[tuple[int, str], ...]
    warnings: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.errors


class LayerRangeError(IndexError):
    """A layer index fell outside the chain."""


class InvalidNetworkError(ValueError):
    """A calculator was handed a network that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        detail = "; ".join(f"layer {idx}: {msg}" for idx, msg in report.errors)
        super().__init__(f"invalid network: {detail}")


def validate(network: NetworkSpec) -> ValidationReport:
    """Check every structural invariant; all findings land in the report.

    Coverage gaps (stride exceeding filter on an axis) are warnings, not
    errors: extent arithmetic stays well defined, the influenced pixel set
    merely has holes.
    """
    errors: list[tuple[int, str]] = []
    warnings: list[tuple[int, str]] = []
    if not network.layers:
        errors.append((0, "network has no layers"))
    for position, layer in enumerate(network.layers, start=1):
        size, step, channels = layer.filter, layer.stride, layer.channels_out
        # Nearly every layer is clean, so clear it with one chained
        # comparison; only a layer with a finding walks the per-axis detail
        # below, which fixes the text and order of every finding.
        if (
            size[0] >= step[0] >= 1
            and size[1] >= step[1] >= 1
            and (channels is None or channels >= 1)
        ):
            continue
        for axis_name, f, s in zip(AXIS_NAMES, size, step):
            if f < 1:
                errors.append((position, f"{axis_name} filter must be >= 1 (got {f})"))
            if s < 1:
                errors.append((position, f"{axis_name} stride must be >= 1 (got {s})"))
            elif f >= 1 and s > f:
                warnings.append(
                    (position, f"stride exceeds filter on {axis_name} axis: coverage gaps")
                )
        if channels is not None and channels < 1:
            errors.append((position, f"channels_out must be >= 1 (got {channels})"))
    return ValidationReport(tuple(errors), tuple(warnings))


def axis_chains(layers: Sequence[LayerSpec]) -> tuple[Chain1d, Chain1d]:
    """The layers as two 1-D chains, height then width: every field is separable."""
    height = ([layer.filter[0] for layer in layers], [layer.stride[0] for layer in layers])
    width = ([layer.filter[1] for layer in layers], [layer.stride[1] for layer in layers])
    return height, width


def require_valid(network: NetworkSpec) -> None:
    """Raise InvalidNetworkError unless validate() reports no errors."""
    report = validate(network)
    if not report.ok:
        raise InvalidNetworkError(report)

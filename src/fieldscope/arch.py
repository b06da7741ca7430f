"""Architecture model: linear chains of convolution and pooling layers.

The input image is the implicit layer 0 and is never represented as a
LayerSpec; explicit layers are numbered 1..n by their position in the chain.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

AXIS_NAMES = ("height", "width")

# One axis of a chain: (filters, strides), entry j - 1 belonging to layer j.
Chain1d = tuple[list[int], list[int]]


class LayerKind(Enum):
    CONV = "conv"
    POOL = "pool"


class Direction(Enum):
    CONV = "conv"
    DECONV = "deconv"


_set_field = object.__setattr__


class _Value:
    """An immutable record whose fields are its __slots__: equal and hashed
    by value, with a repr that names every field. Subclasses set their
    fields in __init__ through _set_field, since plain assignment raises."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class LayerSpec(_Value):
    """One layer of the chain.

    filter and stride are (height, width) pairs in pixels. channels_out is
    reporting-only metadata (depth multiplier); it never enters any field
    computation. A layer's number is its position in NetworkSpec.layers, so
    one immutable record can stand for every repeat of the same layer.
    """

    # Slots, not a NamedTuple: validate() reads these fields for every layer,
    # and a slot read is faster than a tuple field's descriptor.
    __slots__ = ("kind", "filter", "stride", "channels_out")

    def __init__(
        self,
        kind: LayerKind,
        filter: tuple[int, int],
        stride: tuple[int, int],
        channels_out: int | None = None,
    ) -> None:
        _set_field(self, "kind", kind)
        _set_field(self, "filter", filter)
        _set_field(self, "stride", stride)
        _set_field(self, "channels_out", channels_out)


class NetworkSpec(_Value):
    """Ordered layer chain plus metadata."""

    __slots__ = ("name", "direction", "layers")

    def __init__(self, name: str, direction: Direction, layers: tuple[LayerSpec, ...]) -> None:
        _set_field(self, "name", name)
        _set_field(self, "direction", direction)
        _set_field(self, "layers", layers)


class ValidationReport(NamedTuple):
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

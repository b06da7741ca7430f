from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from fieldscope import Direction, LayerKind, LayerSpec, NetworkSpec, check_equivalence, parse_dsl

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"

CHAIN11_ERF = [1, 9, 10, 26, 28, 60, 64, 96, 160, 240, 320, 400]
CHAIN11_TOPDOWN = [1, 11, 21, 31, 39, 43, 86, 94, 188, 196, 392, 400]


def make_network(*layers, name="", direction=Direction.CONV):
    """Build a NetworkSpec from (kind, filter, stride) triples.

    Scalars fill both axes; pass (h, w) tuples for anisotropic layers.
    """
    specs = tuple(_layer(kind, size, stride) for kind, size, stride in layers)
    return NetworkSpec(name=name, direction=direction, layers=specs)


def insert_layer(network, position, kind, size, stride):
    """Insert a layer so it becomes layer `position`."""
    layers = list(network.layers)
    layers.insert(position - 1, _layer(kind, size, stride))
    return NetworkSpec(name=network.name, direction=network.direction, layers=tuple(layers))


def with_column_entry(report, axis, column, index, value):
    """report with entry index of one AxisCheck column replaced by value."""
    check = getattr(report, axis)
    entries = list(getattr(check, column))
    entries[index] = value
    return report._replace(**{axis: check._replace(**{column: entries})})


def off_by_one_oracle(network):
    """check_equivalence with the oracle's layer-1 height span one too wide,
    the forced mismatch the CLI tests print; the real routes never disagree."""
    report = check_equivalence(network)
    span, cardinality = report.height.swept[1]
    return with_column_entry(report, "height", "swept", 1, (span + 1, cardinality))


def _layer(kind, size, stride):
    size = size if isinstance(size, tuple) else (size, size)
    stride = stride if isinstance(stride, tuple) else (stride, stride)
    return LayerSpec(kind=LayerKind(kind), filter=size, stride=stride)


@pytest.fixture(scope="session")
def chain11() -> NetworkSpec:
    return parse_dsl((DATA / "chain11.net").read_text(encoding="utf-8"))

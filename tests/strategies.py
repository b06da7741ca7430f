"""Hypothesis strategies and a seeded sampler shared by the tests."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from fieldscope import Direction, LayerKind, LayerSpec, NetworkSpec

names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12)


@st.composite
def networks(
    draw,
    max_layers: int = 6,
    max_filter: int = 11,
    max_stride: int = 4,
    covered_only: bool = False,
    named: bool = False,
):
    """Valid layer chains within the randomized-suite bounds.

    covered_only keeps stride <= filter on every axis. named also draws a
    name, direction, and per-layer channel counts (for round-trip tests).
    """
    n = draw(st.integers(1, max_layers))
    layers = []
    for _ in range(n):
        kind = draw(st.sampled_from((LayerKind.CONV, LayerKind.POOL)))
        fh = draw(st.integers(1, max_filter))
        fw = draw(st.integers(1, max_filter))
        sh = draw(st.integers(1, min(max_stride, fh) if covered_only else max_stride))
        sw = draw(st.integers(1, min(max_stride, fw) if covered_only else max_stride))
        channels = draw(st.none() | st.integers(1, 64)) if named else None
        layers.append(
            LayerSpec(kind=kind, filter=(fh, fw), stride=(sh, sw), channels_out=channels)
        )
    name = draw(st.just("") | names) if named else ""
    direction = (
        draw(st.sampled_from((Direction.CONV, Direction.DECONV)))
        if named
        else Direction.CONV
    )
    return NetworkSpec(name=name, direction=direction, layers=tuple(layers))


def covered_network(rng: random.Random) -> NetworkSpec:
    """random_network's draws, in its order, with each stride capped at its
    filter so the windows tile without gaps: cardinality equals span."""
    layers = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice((LayerKind.CONV, LayerKind.POOL))
        f = (rng.randint(1, 11), rng.randint(1, 11))
        s = (rng.randint(1, min(4, f[0])), rng.randint(1, min(4, f[1])))
        channels = rng.randint(1, 128) if rng.random() < 0.2 else None
        layers.append(LayerSpec(kind=kind, filter=f, stride=s, channels_out=channels))
    return NetworkSpec(name="", direction=Direction.CONV, layers=tuple(layers))

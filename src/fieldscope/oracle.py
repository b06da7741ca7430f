"""Brute-force connectivity oracle.

Everything here materializes actual neuron-to-neuron wiring on discrete 1D
grids (2D results are axis products) and measures the resulting sets. No
field formula from fields.py enters any computation, which is what makes
these results an independent check of the closed forms.

Coordinates are window-start aligned: output position p of a layer with
filter f and stride s reads input positions p*s .. p*s + f - 1. Any
consistent origin convention yields the same spans; this one keeps all
positions non-negative.

An influence set is a bitset held in one Python int (bit x set when input
position x is wired), so its cost follows the span in bits, not one Python
object per wired position. check_equivalence refuses a network whose ERF
exceeds SPAN_BUDGET bits on either axis before the oracle allocates
anything, raising SpanBudgetError.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import fields
from .arch import Direction, LayerKind, LayerSpec, NetworkSpec, axis_chains, require_valid
from .fields import Pair

# Widest influence bitset the oracle builds, in bits (32 MiB per int).
SPAN_BUDGET = 2**28


class SpanBudgetError(ValueError):
    """A network's influence span exceeds SPAN_BUDGET bits on some axis."""


class PfCountField(NamedTuple):
    """Window-coverage counts over one stride period of interior positions.

    counts_h maps each coverage count to the number of interior offsets x
    (0 <= x < stride) along the height axis that exactly that many next-layer
    windows cover; counts_w likewise. A 2D position inherits the pair of its
    axis counts.
    """

    counts_h: dict[int, int]
    counts_w: dict[int, int]

    @property
    def size_pairs(self) -> frozenset[Pair]:
        """Distinct (height, width) PF sizes observed while sliding."""
        return frozenset((h, w) for h in self.counts_h for w in self.counts_w)


def _influence_1d(filters: list[int], strides: list[int]) -> list[tuple[int, int]]:
    """(span, cardinality) of the layer-k influence set for every k, one axis.

    Influence sets are translation covariant: position p at layer j maps to
    p * jump_j + (set for position 0), where jump_j is the product of the
    strides up to layer j. So one bottom-up sweep of window unions yields
    the position-0 set for every layer without re-expanding from scratch.
    The set is a bitset int with bit 0 always set, so its span is
    bit_length() and its cardinality bit_count(). The test suite checks it
    against a naive per-position expansion.
    """
    measures = [(1, 1)]
    base = 1
    jump = 1
    for f, s in zip(filters, strides):
        base = _tile(base, f, jump)
        measures.append((base.bit_length(), base.bit_count()))
        jump *= s
    return measures


def _tile(bits: int, copies: int, step: int) -> int:
    """OR of bits << (t * step) for t < copies, in O(log copies) shift-ORs.

    block holds the first width copies and doubles itself each round; at
    every set bit of copies it is ORed in after the copies placed so far.
    """
    tiled = 0
    placed = 0
    block = bits
    width = 1
    while True:
        if copies & 1:
            tiled |= block << (placed * step)
            placed += width
        copies >>= 1
        if not copies:
            return tiled
        block |= block << (width * step)
        width *= 2


def _coverage_1d(f: int, s: int) -> dict[int, int]:
    """Coverage count -> number of offsets with it over one stride period, one axis.

    Window p reads positions p*s .. p*s + f - 1, so an interior position x
    (one far enough from the origin that every window which could cover it
    exists) is read by tap t of exactly one window for each tap t < f with
    t = x (mod s). One pass over the taps therefore tallies the coverage of
    every offset of the period by residue. Counts repeat with period s, so
    one period tells all. At most f offsets are covered, so the cost grows
    with the filter and not with the stride; the rest of the period has 0.
    """
    if f < 1 or s < 1:
        raise ValueError(f"filter and stride must be >= 1, got f={f} s={s}")
    covered: dict[int, int] = {}
    for t in range(f):
        residue = t % s
        covered[residue] = covered.get(residue, 0) + 1
    counts: dict[int, int] = {}
    for c in covered.values():
        counts[c] = counts.get(c, 0) + 1
    if len(covered) < s:
        counts[0] = s - len(covered)
    return counts


def pf_counts_oracle(filter: Pair, stride: Pair) -> PfCountField:
    """Slide next-layer windows along each axis and count coverage."""
    return PfCountField(
        counts_h=_coverage_1d(filter[0], stride[0]),
        counts_w=_coverage_1d(filter[1], stride[1]),
    )


class ErfAgreementRow(NamedTuple):
    """Three routes to the same per-layer answer, side by side."""

    bottom_up: Pair
    top_down: Pair
    oracle_span: Pair
    oracle_cardinality: Pair

    @property
    def matches(self) -> bool:
        return self.bottom_up == self.top_down == self.oracle_span

    @property
    def has_coverage_gaps(self) -> bool:
        return self.oracle_cardinality != self.oracle_span


class PfAgreementRow(NamedTuple):
    closed_form: frozenset[Pair]
    oracle: frozenset[Pair]

    @property
    def matches(self) -> bool:
        return self.closed_form == self.oracle


class EquivalenceReport(NamedTuple):
    """Formula-vs-oracle comparison for one network."""

    network_name: str
    erf_rows: tuple[ErfAgreementRow, ...]  # entry k is layer k, input first
    pf_rows: tuple[PfAgreementRow, ...]  # entry k is boundary k

    @property
    def passed(self) -> bool:
        return all(r.matches for r in self.erf_rows) and all(
            r.matches for r in self.pf_rows
        )


def check_equivalence(network: NetworkSpec) -> EquivalenceReport:
    """Compare bottom-up, top-down, and oracle answers for every layer, and
    closed-form against counted PF sizes for every boundary.

    Validates once (InvalidNetworkError) and splits the axes once: the
    closed forms come from fields.py's private 1-D cores, not from the
    public calculators, each of which would validate the chain again.
    Raises SpanBudgetError, before the oracle allocates anything, when the
    ERF exceeds SPAN_BUDGET bits on either axis.
    """
    require_valid(network)
    height, width = axis_chains(network.layers)
    up_h, up_w = fields._erf_1d(*height)[0], fields._erf_1d(*width)[0]
    if max(up_h[-1], up_w[-1]) > SPAN_BUDGET:
        raise SpanBudgetError(
            f"influence span {up_h[-1]}x{up_w[-1]} exceeds the "
            f"{SPAN_BUDGET}-bit oracle budget: too large to enumerate"
        )
    down_h, down_w = fields._erf_top_down_1d(*height), fields._erf_top_down_1d(*width)
    # The sweep is the one step whose cost follows span bits; when both axes
    # are the same chain, as in every square-kernel network, they are wired
    # alike, so the height measures serve the width axis too.
    swept_h = _influence_1d(*height)
    swept_w = swept_h if width == height else _influence_1d(*width)
    erf_rows = tuple(
        ErfAgreementRow(
            bottom_up=(uh, uw),
            top_down=(dh, dw),
            oracle_span=(sh, sw),
            oracle_cardinality=(ch, cw),
        )
        for uh, uw, dh, dw, (sh, ch), (sw, cw) in zip(
            up_h, up_w, down_h, down_w, swept_h, swept_w
        )
    )
    pf_rows = tuple(
        PfAgreementRow(
            closed_form=fields._pf_2d(nxt.filter, nxt.stride),
            oracle=pf_counts_oracle(nxt.filter, nxt.stride).size_pairs,
        )
        for nxt in network.layers
    )
    return EquivalenceReport(network_name=network.name, erf_rows=erf_rows, pf_rows=pf_rows)


def random_network(rng: random.Random, *, name: str = "") -> NetworkSpec:
    """Sample a chain of 1..8 layers, filters 1..11 and strides 1..4 per axis."""
    layers = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice((LayerKind.CONV, LayerKind.POOL))
        f = (rng.randint(1, 11), rng.randint(1, 11))
        s = (rng.randint(1, 4), rng.randint(1, 4))
        channels = rng.randint(1, 128) if rng.random() < 0.2 else None
        layers.append(LayerSpec(kind=kind, filter=f, stride=s, channels_out=channels))
    return NetworkSpec(name=name, direction=Direction.CONV, layers=tuple(layers))

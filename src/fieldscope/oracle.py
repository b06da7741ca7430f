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
        return _product(self.counts_h, self.counts_w)


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
    t = x (mod s): the taps range(x, f, s) for offset x of the period. Counts
    repeat with period s, so one period tells all. Offset x + 1 is read by
    the same taps moved up by one, less any that pass f, so the count never
    rises as x grows: offsets below min(f, s) fall into runs of equal count,
    and bisection finds where each run ends. The s - f offsets past the last
    tap, when f < s, have 0. The cost follows the number of runs and log s,
    not the filter or the stride.
    """
    if f < 1 or s < 1:
        raise ValueError(f"filter and stride must be >= 1, got f={f} s={s}")
    counts: dict[int, int] = {}
    x, end = 0, min(f, s)
    while x < end:
        covering = len(range(x, f, s))
        lo, hi = x + 1, end  # the run ends at the first offset in lo..hi read by fewer taps
        while lo < hi:
            mid = (lo + hi) >> 1
            if len(range(mid, f, s)) < covering:
                hi = mid
            else:
                lo = mid + 1
        counts[covering] = lo - x
        x = lo
    if f < s:
        counts[0] = s - f
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


class AxisCheck(NamedTuple):
    """The columns verify compares on one axis: three ERF routes per layer 0..n
    (swept is the oracle's (span, cardinality)), two PF size sets per boundary."""

    bottom_up: list[int]
    top_down: list[int]
    swept: list[tuple[int, int]]
    pf_closed: list[set[int]]
    pf_oracle: list[set[int]]

    @property
    def passed(self) -> bool:
        spans = [span for span, _ in self.swept]
        return self.bottom_up == self.top_down == spans and self.pf_closed == self.pf_oracle


class EquivalenceReport(NamedTuple):
    """Formula-vs-oracle comparison for one network, decided axis by axis.

    A 2-D row pairs its axis entries and a 2-D PF set is the product of two
    non-empty axis sets, so the rows, built when read, agree when the columns do."""

    network_name: str
    height: AxisCheck
    width: AxisCheck

    @property
    def passed(self) -> bool:
        return self.height.passed and self.width.passed

    @property
    def erf_rows(self) -> tuple[ErfAgreementRow, ...]:  # entry k is layer k, input first
        h, w = self.height, self.width
        columns = zip(h.bottom_up, w.bottom_up, h.top_down, w.top_down, h.swept, w.swept)
        return tuple(
            ErfAgreementRow((uh, uw), (dh, dw), (sh, sw), (ch, cw))
            for uh, uw, dh, dw, (sh, ch), (sw, cw) in columns
        )

    @property
    def pf_rows(self) -> tuple[PfAgreementRow, ...]:  # entry k is boundary k
        h, w = self.height, self.width
        closed = map(_product, h.pf_closed, w.pf_closed)
        return tuple(map(PfAgreementRow, closed, map(_product, h.pf_oracle, w.pf_oracle)))


def _product(heights, widths) -> frozenset[Pair]:
    return frozenset((h, w) for h in heights for w in widths)


def _check_axis(filters: list[int], strides: list[int], bottom_up: list[int]) -> AxisCheck:
    return AxisCheck(
        bottom_up,
        fields._erf_top_down_1d(filters, strides),
        _influence_1d(filters, strides),
        list(map(fields._pf_1d, filters, strides)),
        list(map(set, map(_coverage_1d, filters, strides))),
    )


def check_equivalence(network: NetworkSpec) -> EquivalenceReport:
    """Compare bottom-up, top-down, and oracle answers for every layer, and
    closed-form against counted PF sizes for every boundary, axis by axis.

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
    # The sweep's cost follows span bits; in a square-kernel network both axes
    # are one chain, wired alike, so the height record serves the width too.
    checked_h = _check_axis(*height, up_h)
    checked_w = checked_h if width == height else _check_axis(*width, up_w)
    return EquivalenceReport(network.name, checked_h, checked_w)


def random_network(rng: random.Random, *, name: str = "") -> NetworkSpec:
    """Sample a chain of 1..8 layers, filters 1..11 and strides 1..4 per axis.

    Draws the numbers rng.randint and rng.choice would, in the same order,
    through one bound getrandbits, so a seed gives the same chains either way.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        # CPython's rule for randint and choice: n.bit_length() random bits,
        # drawn again while they reach n
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    kinds = (LayerKind.CONV, LayerKind.POOL)
    layers = []
    for _ in range(1 + below(8)):
        kind = kinds[below(2)]
        f = (1 + below(11), 1 + below(11))
        s = (1 + below(4), 1 + below(4))
        channels = 1 + below(128) if rng.random() < 0.2 else None
        # positional, since keyword arguments took a sixth of this loop's time
        layers.append(LayerSpec(kind, f, s, channels))
    return NetworkSpec(name, Direction.CONV, tuple(layers))

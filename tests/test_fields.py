from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import CHAIN11_ERF, CHAIN11_TOPDOWN, insert_layer, make_network
from reference import backward_influence, span_and_cardinality
from strategies import networks

from fieldscope import (
    Direction,
    FieldOverflowError,
    LayerRangeError,
    MAX_FIELD_VALUE,
    NetworkSpec,
    build_analysis,
    check_equivalence,
    deconv_view,
    erf_bottom_up,
    erf_top_down,
    pf_size_set,
    render_analysis_json,
    rf_top_down,
)


def heights(pairs):
    return [pair[0] for pair in pairs]


class TestLayerIncrement:
    """Layer k's increment is erf_bottom_up(...).increments[k - 1]."""

    def test_first_layer_of_fixture(self, chain11):
        assert erf_bottom_up(chain11).increments[0] == (8, 8)

    def test_unit_filter_adds_nothing(self):
        network = make_network(("pool", 2, 2), ("conv", 1, 1))
        assert erf_bottom_up(network).increments[1] == (0, 0)

    def test_deep_layer_scales_by_stride_product(self, chain11):
        # three stride-2 pools sit below layer 8
        assert erf_bottom_up(chain11).increments[7] == (64, 64)

    def test_out_of_range(self, chain11):
        # one increment per explicit layer 1..n; the input layer adds none
        trace = erf_bottom_up(chain11)
        assert len(trace.increments) == len(trace.values) - 1 == 11
        with pytest.raises(IndexError):
            trace.increments[11]


class TestErfBottomUp:
    def test_fixture_trace_matches_pinned_values(self, chain11):
        trace = erf_bottom_up(chain11)
        assert heights(trace.values) == CHAIN11_ERF
        assert [pair[1] for pair in trace.values] == CHAIN11_ERF

    def test_unit_filter_chain(self):
        trace = erf_bottom_up(make_network(("conv", 1, 1)))
        assert heights(trace.values) == [1, 1]

    def test_two_small_convs_match_connectivity_enumeration(self):
        # independent expectation: window-of-windows enumeration gives {0..4}
        network = make_network(("conv", 3, 1), ("conv", 3, 1))
        trace = erf_bottom_up(network)
        assert heights(trace.values) == [1, 3, 5]
        assert backward_influence(network, 2, 0) == (0, 1, 2, 3, 4)

    def test_trace_bookkeeping(self, chain11):
        trace = erf_bottom_up(chain11)
        assert heights(trace.cumulative_strides) == [1, 1, 2, 2, 4, 4, 8, 8, 8, 8, 8]
        for k in range(1, 12):
            h, w = trace.values[k]
            assert (h, w) == (
                trace.values[k - 1][0] + trace.increments[k - 1][0],
                trace.values[k - 1][1] + trace.increments[k - 1][1],
            )
        assert trace.final == (400, 400)


class TestRfTopDown:
    def test_fixture_projection_matches_pinned_values(self, chain11):
        projection = rf_top_down(chain11, 11)
        assert heights(projection) == CHAIN11_TOPDOWN
        assert projection[-1] == (400, 400)
        assert projection[0] == (1, 1)

    def test_projection_onto_itself(self, chain11):
        assert rf_top_down(chain11, 0) == ((1, 1),)

    def test_stride_two_pools_double_each_step(self):
        network = make_network(("pool", 2, 2), ("pool", 2, 2))
        assert heights(rf_top_down(network, 2)) == [1, 2, 4]

    def test_out_of_range(self, chain11):
        with pytest.raises(LayerRangeError):
            rf_top_down(chain11, -1)
        with pytest.raises(LayerRangeError):
            rf_top_down(chain11, 12)


class TestErfTopDown:
    def test_fixture_scan_matches_pinned_values(self, chain11):
        assert heights(erf_top_down(chain11)) == CHAIN11_ERF

    def test_gapped_layers_shrink_the_offset(self):
        # stride 3 over filter 2 gives f - s = -1: b goes negative, a + b stays 5
        network = make_network(("conv", 2, 3), ("conv", 2, 1))
        assert erf_top_down(network) == ((1, 1), (2, 2), (5, 5))


class TestPfSizeSet:
    def test_overlapping_windows_give_four_sizes(self):
        network = make_network(("conv", 5, 2), ("conv", 5, 2))
        result = pf_size_set(network, 0)
        assert result == {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert len(result) != 1

    def test_stride_one_gives_filter_sized_projection(self):
        result = pf_size_set(make_network(("conv", 3, 1)), 0)
        assert result == {(3, 3)}
        assert len(result) == 1

    def test_partitioning_windows(self):
        result = pf_size_set(make_network(("pool", 2, 2)), 0)
        assert result == {(1, 1)}
        assert len(result) == 1

    def test_divisible_overlap(self):
        # verified against the sliding-count oracle in test_oracle
        result = pf_size_set(make_network(("conv", 4, 2)), 0)
        assert result == {(2, 2)}
        assert len(result) == 1

    def test_no_successor_layer(self, chain11):
        with pytest.raises(LayerRangeError, match="no successor"):
            pf_size_set(chain11, 11)
        with pytest.raises(LayerRangeError):
            pf_size_set(chain11, -1)


class TestDeconvView:
    def test_direction_toggles_and_layers_stay(self, chain11):
        mirrored = deconv_view(chain11)
        assert mirrored.direction is Direction.DECONV
        assert mirrored.layers == chain11.layers
        assert deconv_view(mirrored) == chain11

    def test_numbers_are_unchanged(self, chain11):
        assert erf_bottom_up(deconv_view(chain11)).final == (400, 400)


class TestOverflow:
    def test_bottom_up_overflow_is_explicit(self):
        runaway = make_network(*[("conv", 3, 4)] * 40)
        with pytest.raises(FieldOverflowError):
            erf_bottom_up(runaway)

    def test_top_down_overflow_is_explicit(self):
        runaway = make_network(*[("conv", 3, 4)] * 40)
        with pytest.raises(FieldOverflowError):
            rf_top_down(runaway, 40)

    def test_scan_overflow_is_explicit(self):
        runaway = make_network(*[("conv", 3, 4)] * 40)
        with pytest.raises(FieldOverflowError, match="projection of layer 32"):
            erf_top_down(runaway)

    def test_increment_overflow_is_explicit(self):
        # 31 unit pools keep the ERF at 1 but scale the next increment to 2 * 4**31
        runaway = make_network(*[("pool", 1, 4)] * 31, ("conv", 3, 1))
        with pytest.raises(FieldOverflowError, match="at layer 32"):
            erf_bottom_up(runaway)


@given(st.integers(1, 10**9), st.integers(1, 10**9), st.integers(1, 10**9))
def test_overlap_subtraction_equals_stride_form(r, f, s):
    # the two ways of discounting window overlap are the same polynomial
    assert r * f - (r - 1) * (f - s) == (r - 1) * s + f


@given(networks())
def test_bottom_up_and_top_down_agree_everywhere(network):
    trace = erf_bottom_up(network)
    for k in range(len(network.layers) + 1):
        assert rf_top_down(network, k)[-1] == trace.values[k]


@given(networks())
def test_scan_matches_every_per_layer_projection(network):
    expected = tuple(rf_top_down(network, k)[-1] for k in range(len(network.layers) + 1))
    assert erf_top_down(network) == expected


def _raises_overflow(compute) -> bool:
    try:
        compute()
    except FieldOverflowError:
        return True
    return False


@st.composite
def cap_crossing_networks(draw):
    """Chains whose ERFs land on either side of MAX_FIELD_VALUE, axes apart."""
    sizes = st.integers(1, 2**32)
    layers = [
        ("conv", (draw(sizes), draw(sizes)), (draw(sizes), draw(sizes)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return make_network(*layers)


@given(cap_crossing_networks())
@example(make_network(("conv", MAX_FIELD_VALUE, 1)))
@example(make_network(("conv", 2, 2**62), ("conv", 2, 1)))
@example(make_network(("conv", 2, 2**62), ("conv", 3, 1)))
@example(make_network(*[("pool", 1, 4)] * 40, ("conv", 1, 1)))
def test_scan_overflows_exactly_when_a_projection_does(network):
    layers = range(len(network.layers) + 1)
    projected = any(_raises_overflow(lambda: rf_top_down(network, k)) for k in layers)
    assert _raises_overflow(lambda: erf_top_down(network)) == projected


@given(networks(), st.data())
def test_unit_layer_never_changes_downstream_erf(network, data):
    position = data.draw(st.integers(1, len(network.layers) + 1))
    padded = insert_layer(network, position, "conv", 1, 1)
    before = erf_bottom_up(network).values
    after = erf_bottom_up(padded).values
    assert after[position] == before[position - 1]
    assert list(after[:position]) == list(before[:position])
    assert list(after[position + 1 :]) == list(before[position:])


@given(networks())
def test_erf_is_monotone_and_strict_under_real_filters(network):
    trace = erf_bottom_up(network)
    for axis in (0, 1):
        for k, layer in enumerate(network.layers, start=1):
            step = trace.values[k][axis] - trace.values[k - 1][axis]
            assert step >= 0
            assert (step > 0) == (layer.filter[axis] > 1)


@given(networks(max_stride=1))
def test_stride_one_chains_sum_their_filters(network):
    trace = erf_bottom_up(network)
    for axis in (0, 1):
        expected = 1 + sum(layer.filter[axis] - 1 for layer in network.layers)
        assert trace.values[-1][axis] == expected
        span, cardinality = span_and_cardinality(network, len(network.layers), axis)
        assert span == cardinality == expected


@given(networks())
def test_pf_size_set_cardinality_tracks_divisibility(network):
    # the JSON report derives each boundary's number and uniform flag on its own
    rows = json.loads(render_analysis_json(build_analysis(network)))["pf"]
    assert len(rows) == len(network.layers)
    for k, (layer, row) in enumerate(zip(network.layers, rows)):
        result = pf_size_set(network, k)
        divisible = [layer.filter[a] % layer.stride[a] == 0 for a in (0, 1)]
        assert len(result) == {2: 1, 1: 2, 0: 4}[sum(divisible)]
        assert (len(result) == 1) == all(divisible)
        assert row["boundary"] == k
        assert row["uniform"] == all(divisible)
        assert row["sizes"] == [list(size) for size in sorted(result)]


@given(networks())
def test_axes_are_independent(network):
    squared = make_network(
        *[
            (layer.kind.value, layer.filter[0], layer.stride[0])
            for layer in network.layers
        ]
    )
    trace = erf_bottom_up(network)
    squared_trace = erf_bottom_up(squared)
    assert heights(trace.values) == heights(squared_trace.values)
    assert [pair[1] for pair in squared_trace.values] == heights(squared_trace.values)


def concatenate(first: NetworkSpec, second: NetworkSpec) -> NetworkSpec:
    """first's layers, then second's on top of them."""
    return NetworkSpec(first.name, first.direction, first.layers + second.layers)


@given(
    networks(max_layers=4, max_filter=6, max_stride=3),
    networks(max_layers=4, max_filter=6, max_stride=3),
)
def test_concatenation_law_holds_on_every_route(first, second):
    # per axis, ERF(A + B) = ERF(A) + (ERF(B) - 1) * S(A), S(A) the product of A's strides
    joined = concatenate(first, second)
    strides = zip(*(layer.stride for layer in first.layers))
    expected = tuple(
        a + (b - 1) * math.prod(s)
        for a, b, s in zip(erf_bottom_up(first).final, erf_bottom_up(second).final, strides)
    )
    top = len(joined.layers)
    assert erf_bottom_up(joined).final == expected
    assert rf_top_down(joined, top)[-1] == expected
    assert erf_top_down(joined)[top] == expected
    assert check_equivalence(joined).erf_rows[top].oracle_span == expected

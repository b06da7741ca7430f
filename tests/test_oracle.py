from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CHAIN11_ERF, DATA, make_network
from reference import backward_influence, span_and_cardinality
from strategies import covered_network, networks

import fieldscope.arch as arch
import fieldscope.cli as cli
import fieldscope.oracle as oracle
from fieldscope import (
    LayerSpec,
    NetworkSpec,
    SpanBudgetError,
    check_equivalence,
    erf_bottom_up,
    erf_top_down,
    pf_counts_oracle,
    pf_size_set,
    random_network,
    serialize_dsl,
)


class TestBackwardInfluence:
    """The naive reference expansion, and the library sweep on the same cases."""

    def test_two_convs_reach_a_dense_window(self):
        network = make_network(("conv", 3, 1), ("conv", 3, 1))
        assert backward_influence(network, 2, 0) == tuple(range(5))
        row = check_equivalence(network).erf_rows[2]
        assert row.oracle_span == row.oracle_cardinality == (5, 5)

    def test_layer_zero_is_the_unit_anchor(self):
        network = make_network(("conv", 3, 1))
        assert backward_influence(network, 0, 0) == (0,)
        row = check_equivalence(network).erf_rows[0]
        assert row.oracle_span == row.oracle_cardinality == (1, 1)

    def test_fixture_full_depth_span(self, chain11):
        assert span_and_cardinality(chain11, 11, 0) == (400, 400)
        row = check_equivalence(chain11).erf_rows[11]
        assert row.oracle_span == row.oracle_cardinality == (400, 400)


class TestErfOracle:
    """The oracle's per-layer span and cardinality, read from check_equivalence."""

    def test_fixture_midpoint(self, chain11):
        assert check_equivalence(chain11).erf_rows[5].oracle_span == (60, 60)

    def test_unit_network(self):
        row = check_equivalence(make_network(("conv", 1, 1))).erf_rows[1]
        assert row.oracle_span == (1, 1)
        assert row.oracle_cardinality == (1, 1)

    def test_gapped_chain_has_fewer_cells_than_span(self):
        # stride 3 with filter 2 leaves every third input untouched
        network = make_network(("conv", 2, 3), ("conv", 2, 1))
        assert backward_influence(network, 2, 0) == (0, 1, 3, 4)
        row = check_equivalence(network).erf_rows[2]
        assert row.oracle_span == (5, 5)
        assert row.oracle_cardinality == (4, 4)
        assert erf_bottom_up(network).values[2] == (5, 5)


class TestPfCountsOracle:
    def test_overlapping_windows(self):
        field = pf_counts_oracle((5, 5), (2, 2))
        assert field.size_pairs == frozenset({(2, 2), (2, 3), (3, 2), (3, 3)})

    def test_partition_counts_every_cell_once(self):
        field = pf_counts_oracle((2, 2), (2, 2))
        assert set(field.counts_h) == {1}
        assert set(field.counts_w) == {1}

    def test_gappy_layer_reports_untouched_cells(self):
        field = pf_counts_oracle((3, 3), (4, 4))
        assert 0 in field.counts_h

    def test_a_huge_stride_costs_the_filter_not_the_stride(self):
        # only the covered offsets are tallied; one slot per offset of this
        # period could never be built
        field = pf_counts_oracle((3, 3), (2**63 - 1, 1))
        assert field.counts_h == {1: 3, 0: 2**63 - 4}
        assert field.counts_w == {3: 1}
        assert field.size_pairs == frozenset({(0, 3), (1, 3)})

    @given(st.integers(1, 40), st.integers(1, 12))
    def test_counts_agree_with_a_wide_sliding_simulation(self, f, s):
        field = pf_counts_oracle((f, f), (s, s))
        # lay enough windows over a long row that the middle is saturated,
        # then read one full period from it; the windows covering the
        # checked stretch start .. start + 5s - 1 are numbered at most
        # f // s + 6
        windows = f // s + 8
        width = (windows - 1) * s + f
        hits = [0] * width
        for p in range(windows):
            for t in range(f):
                hits[p * s + t] += 1
        start = max(f, 2 * s)
        period = hits[start : start + s]
        assert Counter(period) == field.counts_h
        for x in range(start, start + 4 * s):
            assert hits[x] == hits[x + s]

    @given(st.integers(1, 12), st.data())
    def test_covered_layers_hit_floor_and_ceil(self, s, data):
        f = data.draw(st.integers(s, 16))
        field = pf_counts_oracle((f, f), (s, s))
        assert set(field.counts_h) == {f // s, -(-f // s)}


@given(networks(max_layers=4, max_filter=11, max_stride=3))
def test_sweep_matches_naive_expansion(network):
    for layer, row in enumerate(check_equivalence(network).erf_rows):
        naive = [span_and_cardinality(network, layer, axis) for axis in (0, 1)]
        assert row.oracle_span == (naive[0][0], naive[1][0])
        assert row.oracle_cardinality == (naive[0][1], naive[1][1])


@given(networks())
def test_influence_cardinality_never_exceeds_span(network):
    for row in check_equivalence(network).erf_rows:
        for axis in (0, 1):
            assert 1 <= row.oracle_cardinality[axis] <= row.oracle_span[axis]


@given(networks(covered_only=True))
def test_covered_networks_have_no_holes(network):
    for row in check_equivalence(network).erf_rows:
        assert row.oracle_cardinality == row.oracle_span


class TestCheckEquivalence:
    def test_fixture_agrees_everywhere(self, chain11):
        report = check_equivalence(chain11)
        assert report.passed
        assert len(report.erf_rows) == 12
        assert all(row.matches for row in report.erf_rows)
        assert not any(row.has_coverage_gaps for row in report.erf_rows)
        assert len(report.pf_rows) == 11
        assert all(row.matches for row in report.pf_rows)

    def test_top_down_comes_from_one_scan_not_per_layer_projections(self, chain11, monkeypatch):
        monkeypatch.setattr(oracle.fields, "rf_top_down", lambda *args: pytest.fail("projected"))
        report = check_equivalence(chain11)
        assert [row.top_down[0] for row in report.erf_rows] == CHAIN11_ERF
        assert report.passed

    def test_gaps_are_reported_but_spans_still_match(self):
        network = make_network(("conv", 2, 3), ("conv", 2, 1))
        report = check_equivalence(network)
        assert report.passed
        assert report.erf_rows[2].has_coverage_gaps
        # boundary 0 pairs stride 3 against filter 2: one offset in three is
        # covered by no window, and the closed form's floor(2/3) = 0 says so
        assert len(report.pf_rows) == 2
        assert report.pf_rows[0].closed_form == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert report.pf_rows[0].matches


class TestWorkCounts:
    """check_equivalence validates once and sweeps each distinct axis chain once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, function):
            def counting(*args):
                calls[name] += 1
                return function(*args)

            return counting

        monkeypatch.setattr(arch, "validate", counted("validate", arch.validate))
        monkeypatch.setattr(cli, "validate", counted("validate", cli.validate))
        monkeypatch.setattr(oracle, "_influence_1d", counted("sweep", oracle._influence_1d))
        return calls

    def test_a_square_chain_is_validated_once_and_swept_once(self, chain11, calls):
        assert check_equivalence(chain11).passed
        assert calls == {"validate": 1, "sweep": 1}

    def test_unequal_axes_are_swept_one_each(self, calls):
        network = make_network(("conv", 3, 1), ("pool", (2, 3), (2, 1)))
        assert check_equivalence(network).passed
        assert calls == {"validate": 1, "sweep": 2}

    def test_verify_validates_at_load_and_in_the_calculator_only(self, calls, capsys):
        assert cli.main(["verify", str(DATA / "chain11.net")]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert calls == {"validate": 2, "sweep": 1}


@given(networks())
def test_verify_compares_what_the_public_calculators_print(network):
    report = check_equivalence(network)
    bottom_up = erf_bottom_up(network).values
    top_down = erf_top_down(network)
    assert len(report.erf_rows) == len(bottom_up) == len(top_down)
    for k, row in enumerate(report.erf_rows):
        assert row.bottom_up == bottom_up[k]
        assert row.top_down == top_down[k]
    assert len(report.pf_rows) == len(network.layers)
    for k, row in enumerate(report.pf_rows):
        assert row.closed_form == pf_size_set(network, k)


def _transposed(network):
    layers = tuple(
        LayerSpec(layer.kind, layer.filter[::-1], layer.stride[::-1], layer.channels_out)
        for layer in network.layers
    )
    return NetworkSpec(network.name, network.direction, layers)


@given(networks())
def test_transposing_every_layer_transposes_every_row(network):
    # guards the sweep reuse on square chains: reading the width column
    # from the height sweep when the axes differ breaks the symmetry
    report, flipped = check_equivalence(network), check_equivalence(_transposed(network))
    assert [tuple(row) for row in flipped.erf_rows] == [
        tuple(pair[::-1] for pair in row) for row in report.erf_rows
    ]
    assert [(row.closed_form, row.oracle) for row in flipped.pf_rows] == [
        ({p[::-1] for p in row.closed_form}, {p[::-1] for p in row.oracle})
        for row in report.pf_rows
    ]


class TestSpanBudget:
    def test_a_span_past_the_budget_is_refused_before_the_sweep(self, monkeypatch):
        monkeypatch.setattr(oracle, "_influence_1d", lambda *chain: pytest.fail("swept"))
        monkeypatch.setattr(oracle, "pf_counts_oracle", lambda *layer: pytest.fail("counted"))
        network = make_network(*[("conv", 2, 2)] * 40)
        with pytest.raises(SpanBudgetError, match="too large to enumerate"):
            check_equivalence(network)

    def test_the_budget_bounds_the_erf_on_either_axis(self, monkeypatch):
        monkeypatch.setattr(oracle, "SPAN_BUDGET", 9)
        assert check_equivalence(make_network(("conv", 9, 1))).passed
        with pytest.raises(SpanBudgetError, match="1x10 exceeds the 9-bit"):
            check_equivalence(make_network(("conv", (1, 10), 1)))


# The first 20 networks of random_network(random.Random(5)), as DSL text.
SEED_5_STREAM = (
    "pool 11x9 s1x4\nconv 11x1 s2x1\nconv 7x9 s1x2 c56\npool 5x3 s4x2\nconv 3x10 s4x2 c2\n",
    "conv 3 s3\nconv 3x4 s4x3 c107\nconv 3x5 s1x3\nconv 10x11 s3x1\n",
    "pool 6x3 s4\nconv 5x1 s3x4 c108\npool 7x10 s1x4 c47\nconv 2x4 s4x3\npool 8x2 s3 c24\n",
    "pool 9x10 s3x2\nconv 5x11 s3 c21\nconv 5x8 s2x1 c104\nconv 4x10 s3\n",
    "conv 1x11 s1x4\nconv 3x10 s2x4 c112\npool 3x1 s4x3 c44\npool 8x6 s4x3\npool 3x2 s4x2\npool 6x3 s1x4\npool 2x6 s1x3\n",
    "pool 5 s3x2\nconv 8x9 s3\npool 5x9 s3\npool 7x6 s2x4\npool 9x3 s2\n",
    "pool 2x11 s4x2\npool 5x10 s3x1 c113\nconv 4x11 s2x1\nconv 3x1 s2x1\nconv 8x4 s1x4\npool 11x10 s1x2\npool 1x6 s4x3\nconv 9x6 s1x3 c87\n",
    "pool 3x7 s4x3\nconv 10x7 s4x2\nconv 6x11 s1x4 c37\npool 11x10 s4\nconv 8x5 s4\n",
    "pool 5x8 s3x4 c79\npool 5x3 s4x1 c114\nconv 5x1 s2x4 c71\n",
    "pool 1x4 s4x3\npool 5x8 s4x1 c33\npool 5x9 s3\nconv 8x6 s3x2 c65\n",
    "conv 11x9 s2x1\npool 10 s4\nconv 5x8 s1x3\npool 10x5 s4x3 c123\npool 6x9 s2x4\nconv 2x4 s3x1\nconv 6x7 s1x4\nconv 2 s2x1\n",
    "pool 8x3 s2\nconv 2x10 s2x1\npool 2x5 s1\n",
    "conv 7x2 s3x4\npool 1x3 s3x2\npool 9 s2x3 c61\n",
    "pool 9x3 s2x3\npool 3 s1x3 c10\nconv 2x9 s4x2\npool 8x6 s1\npool 1x3 s4x2\n",
    "pool 4x3 s4x3\npool 6x10 s3x4\n",
    "pool 11x7 s3x1\nconv 3x7 s1 c48\nconv 4x1 s4\npool 1x7 s4x3\npool 6x8 s4x1 c41\nconv 6x7 s4x2\n",
    "pool 3x5 s2x1\nconv 6 s3x1\n",
    "pool 3x2 s3\nconv 3x1 s2x1\nconv 10x7 s3 c93\npool 2x8 s2 c54\nconv 11x10 s4x3 c16\npool 11x7 s2x1 c90\nconv 2x4 s4x1\nconv 11x4 s1x4\n",
    "conv 5x7 s4x3\n",
    "conv 3x9 s4x2\n",
)


class TestRandomNetwork:
    def test_same_seed_same_stream(self):
        first = [random_network(random.Random(5)) for _ in range(20)]
        second = [random_network(random.Random(5)) for _ in range(20)]
        assert first == second

    def test_the_seeded_stream_is_pinned(self):
        rng = random.Random(5)
        assert tuple(serialize_dsl(random_network(rng)) for _ in range(20)) == SEED_5_STREAM

    def test_respects_bounds(self):
        rng = random.Random(11)
        for _ in range(200):
            network = random_network(rng)
            assert 1 <= len(network.layers) <= 8
            for layer in network.layers:
                assert all(1 <= f <= 11 for f in layer.filter)
                assert all(1 <= s <= 4 for s in layer.stride)

    def test_covered_only_keeps_stride_under_filter(self):
        rng = random.Random(11)
        for _ in range(200):
            network = covered_network(rng)
            for layer in network.layers:
                assert layer.stride[0] <= layer.filter[0]
                assert layer.stride[1] <= layer.filter[1]


def test_pf_closed_form_matches_counts_for_fixture(chain11):
    for k in range(11):
        nxt = chain11.layers[k]
        field = pf_counts_oracle(nxt.filter, nxt.stride)
        assert pf_size_set(chain11, k) == field.size_pairs

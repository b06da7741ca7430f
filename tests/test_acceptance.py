"""End-to-end acceptance gate.

One test per contract item: the pinned 11-layer traces, the randomized
method-agreement and oracle-agreement sweeps with their runtime budgets,
the projection-size disparity cases, unit-layer invariance, serializer
round-trips, and the CLI exit-code and golden-file contract. Everything is
exact integer comparison; the only tolerances are wall-clock budgets.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import (
    CHAIN11_ERF,
    CHAIN11_TOPDOWN,
    DATA,
    insert_layer,
    make_network,
    off_by_one_oracle,
)
from reference import span_and_cardinality
from strategies import covered_network

import fieldscope.cli as cli
from fieldscope import (
    check_equivalence,
    deconv_view,
    erf_bottom_up,
    parse_dsl,
    pf_counts_oracle,
    pf_size_set,
    random_network,
    rf_top_down,
    serialize_dsl,
)
from fieldscope.cli import main

CHAIN11 = str(DATA / "chain11.net")


def seeded_chains(count=1000, sample=random_network):
    rng = random.Random(42)
    return [sample(rng) for _ in range(count)]


def heights(pairs):
    return [pair[0] for pair in pairs]


def test_criterion_1_bottom_up_trace_on_the_case_study(chain11):
    best = min(
        _timed(lambda: erf_bottom_up(chain11))[0] for _ in range(5)
    )
    trace = erf_bottom_up(chain11)
    assert heights(trace.values) == CHAIN11_ERF
    assert [pair[1] for pair in trace.values] == CHAIN11_ERF
    assert best < 0.001, f"bottom-up pass took {best * 1e3:.3f} ms"
    print(f"criterion 1: PASS - trace {CHAIN11_ERF[-1]} in {best * 1e6:.0f} us")


def test_criterion_2_top_down_projection_of_layer_11(chain11, capsys):
    projection = rf_top_down(chain11, 11)
    assert heights(projection) == CHAIN11_TOPDOWN
    assert [pair[1] for pair in projection] == CHAIN11_TOPDOWN
    assert main(["topdown", CHAIN11, "--layer", "11", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["rf"] for row in payload["values"]] == [
        [v, v] for v in CHAIN11_TOPDOWN
    ]
    print(f"criterion 2: PASS - projection reaches {CHAIN11_TOPDOWN[-1]}")


def test_criterion_3_methods_agree_on_1000_seeded_chains():
    chains = seeded_chains()
    started = time.perf_counter()
    for network in chains:
        trace = erf_bottom_up(network)
        for k in range(len(network.layers) + 1):
            assert rf_top_down(network, k)[-1] == trace.values[k]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"method agreement took {elapsed:.2f} s"
    print(f"criterion 3: PASS - 1000 chains in {elapsed:.2f} s")


def test_criterion_4_oracle_agrees_on_1000_seeded_chains():
    started = time.perf_counter()

    # the same generator stream as criterion 3; spans and projection sets
    # must match everywhere, gapped boundaries included
    compared_pf = 0
    for network in seeded_chains():
        trace = erf_bottom_up(network)
        covered = all(
            layer.stride[a] <= layer.filter[a]
            for layer in network.layers
            for a in (0, 1)
        )
        for layer, row in enumerate(check_equivalence(network).erf_rows):
            assert row.oracle_span == trace.values[layer]
            if covered:
                assert row.oracle_cardinality == row.oracle_span
            # the sweep against the naive per-position expansion
            naive = [span_and_cardinality(network, layer, axis) for axis in (0, 1)]
            assert row.oracle_span == (naive[0][0], naive[1][0])
            assert row.oracle_cardinality == (naive[0][1], naive[1][1])
        for k, nxt in enumerate(network.layers):
            counted = pf_counts_oracle(nxt.filter, nxt.stride)
            assert counted.size_pairs == pf_size_set(network, k)
            compared_pf += 1
    assert compared_pf > 1000

    # and a stream drawn under the restriction itself, checked in full
    for network in seeded_chains(sample=covered_network):
        trace = erf_bottom_up(network)
        for layer, row in enumerate(check_equivalence(network).erf_rows):
            assert row.oracle_span == trace.values[layer]
            assert row.oracle_cardinality == row.oracle_span
        for k, nxt in enumerate(network.layers):
            counted = pf_counts_oracle(nxt.filter, nxt.stride)
            assert counted.size_pairs == pf_size_set(network, k)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle agreement took {elapsed:.2f} s"
    print(f"criterion 4: PASS - both streams in {elapsed:.2f} s")


def test_criterion_5_projection_size_disparity_cases():
    overlapping = pf_size_set(make_network(("conv", 5, 2)), 0)
    assert overlapping == {(2, 2), (2, 3), (3, 2), (3, 3)}
    assert len(overlapping) != 1

    dense = pf_size_set(make_network(("conv", 3, 1)), 0)
    assert dense == {(3, 3)}
    assert len(dense) == 1

    for f, s in [(2, 2), (4, 2), (6, 3), (9, 3), (12, 4)]:
        divisible = pf_size_set(make_network(("conv", f, s)), 0)
        assert divisible == {(f // s, f // s)}
        assert len(divisible) == 1
    anisotropic = pf_size_set(make_network(("conv", (6, 4), (3, 2))), 0)
    assert anisotropic == {(2, 2)}
    assert len(anisotropic) == 1
    print("criterion 5: PASS - disparity and divisibility cases exact")


def test_criterion_6_unit_layers_change_nothing_downstream():
    rng = random.Random(42)
    for _ in range(100):
        network = random_network(rng)
        before = erf_bottom_up(network).values
        for position in range(1, len(network.layers) + 2):
            padded = insert_layer(network, position, "conv", 1, 1)
            after = erf_bottom_up(padded).values
            assert after[position] == before[position - 1]
            assert list(after[:position]) == list(before[:position])
            assert list(after[position + 1 :]) == list(before[position:])
    print("criterion 6: PASS - 100 chains, every insertion point")


def test_criterion_7_round_trip_identity(chain11):
    rng = random.Random(42)
    for i in range(100):
        network = random_network(rng, name=f"rt-{i}")
        if i % 2:
            network = deconv_view(network)
        assert parse_dsl(serialize_dsl(network)) == network
    assert parse_dsl(serialize_dsl(chain11)) == chain11
    print("criterion 7: PASS - 100 networks and the fixture survive round trips")


def test_criterion_8_exit_codes_and_golden_bytes(tmp_path, capsys, monkeypatch):
    # exit 0: clean analysis
    assert main(["analyze", CHAIN11]) == 0
    capsys.readouterr()

    # byte-stable JSON, equal to the checked-in golden
    assert main(["analyze", CHAIN11, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", CHAIN11, "--format", "json"]) == 0
    assert capsys.readouterr().out == first
    assert first == (DATA / "chain11_analysis.json").read_text()

    # exit 2: unparseable and missing inputs
    bad = tmp_path / "bad.net"
    bad.write_text("conv nine s1\n")
    assert main(["analyze", str(bad)]) == 2
    assert main(["analyze", str(tmp_path / "absent.net")]) == 2

    # exit 3: field arithmetic past the 64-bit cap
    runaway = tmp_path / "runaway.net"
    runaway.write_text("conv 3 s4\n" * 40)
    assert main(["analyze", str(runaway)]) == 3
    capsys.readouterr()

    # exit 1: verification mismatch (forced; the real checks never disagree)
    monkeypatch.setattr(cli, "check_equivalence", off_by_one_oracle)
    assert main(["verify", CHAIN11]) == 1
    assert capsys.readouterr().out.endswith("overall: FAIL\n")
    monkeypatch.undo()
    assert main(["verify", CHAIN11]) == 0
    assert capsys.readouterr().out == (DATA / "chain11_verify.txt").read_text()
    print("criterion 8: PASS - exit codes 0/1/2/3 and golden bytes hold")


def test_parsing_a_30000_layer_chain_stays_within_budget():
    # a seeded stride-1 chain like the benchmark's long-topdown input
    rng = random.Random(1)
    lines = [
        f"{rng.choice(('conv', 'pool'))} {rng.randint(1, 5)}x{rng.randint(1, 5)} s1"
        for _ in range(30000)
    ]
    text = "\n".join(["network long"] + lines) + "\n"
    best = min(_timed(lambda: parse_dsl(text))[0] for _ in range(3))
    assert len(parse_dsl(text).layers) == 30000
    assert best < 0.05, f"parse_dsl took {best * 1e3:.1f} ms"


def test_verify_on_a_30000_layer_chain_stays_within_budget(tmp_path, capsys):
    # one validation and one sweep per distinct axis keep verify linear in
    # depth; validating per boundary took minutes on this file
    path = tmp_path / "deep.net"
    path.write_text("conv 3 s1\n" * 30000)
    elapsed, code = _timed(lambda: main(["verify", str(path)]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("overall: PASS\n")
    assert elapsed < 3.0, f"verify took {elapsed:.2f} s"


HUGE_FILTER_ERF = (
    "equivalence check: (unnamed)\n"
    "layer  bottom-up          top-down           oracle-span        oracle-card        match\n"
    "0      1x1                1x1                1x1                1x1                ok\n"
    "1      16777216x16777216  16777216x16777216  16777216x16777216  16777216x16777216  ok\n"
    "\n"
)


@pytest.mark.parametrize(
    "stride, pf_table",
    [
        (
            "1",
            "pf-boundary  closed-form        oracle             match\n"
            "0            16777216x16777216  16777216x16777216  ok\n",
        ),
        (
            "16777216",
            "pf-boundary  closed-form  oracle  match\n"
            "0            1x1          1x1     ok\n",
        ),
    ],
    ids=["s1", "s16777216"],
)
def test_verify_on_a_huge_filter_stays_within_budget(stride, pf_table, tmp_path, capsys):
    # the PF oracle counts runs of offsets, not taps: one tap at a time took
    # seconds on a filter of 2**24
    path = tmp_path / "huge.net"
    path.write_text(f"conv 16777216 s{stride}\n")
    elapsed, code = _timed(lambda: main(["verify", str(path)]))
    assert code == 0
    assert capsys.readouterr().out == HUGE_FILTER_ERF + pf_table + "\noverall: PASS\n"
    assert elapsed < 1.0, f"verify took {elapsed:.2f} s"


def test_full_equivalence_sweep_stays_green():
    # not a numbered requirement on its own, but the cheapest whole-system
    # smoke check: every route through the code agrees on fresh networks
    rng = random.Random(2024)
    for _ in range(50):
        assert check_equivalence(random_network(rng)).passed


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result

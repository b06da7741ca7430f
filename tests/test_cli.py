from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA, make_network, off_by_one_oracle
from reference import topdown_table_reference

import fieldscope.cli as cli
import fieldscope.oracle as oracle
from fieldscope import render_topdown_table, rf_top_down
from fieldscope.cli import main

CHAIN11 = str(DATA / "chain11.net")
CHAIN11_TOML = str(DATA / "chain11.toml")


def write_net(tmp_path, text, name="net.net"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _child_env(**extra):
    """The environment for a child fieldscope process, with src on its path;
    output is buffered unless extra sets PYTHONUNBUFFERED."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


def verify_in_a_child(path, address_space=800 * 2**20):
    """Run `python -m fieldscope verify path` with the child's address space capped."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "fieldscope", "verify", path],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=cap,
        timeout=120,
    )


class TestAnalyze:
    def test_table_on_the_fixture(self, capsys):
        assert main(["analyze", CHAIN11]) == 0
        out = capsys.readouterr().out
        assert out.startswith("network chain11 (conv)")
        assert "400x400" in out
        assert "projective field sizes" in out
        assert out.count("\n") > 15

    def test_json_for_a_unit_network(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 1 s1\n")
        assert main(["analyze", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["direction"] == "conv"
        assert payload["layers"][0]["erf"] == [1, 1]
        assert payload["pf"] == [{"boundary": 0, "sizes": [[1, 1]], "uniform": True}]

    def test_json_is_byte_stable_and_matches_the_golden(self, capsys):
        assert main(["analyze", CHAIN11, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", CHAIN11, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        golden = (DATA / "chain11_analysis.json").read_text()
        assert first == golden

    def test_both_input_formats_render_identically(self, capsys):
        assert main(["analyze", CHAIN11, "--format", "json"]) == 0
        from_dsl = capsys.readouterr().out
        assert main(["analyze", CHAIN11_TOML, "--format", "json"]) == 0
        from_manifest = capsys.readouterr().out
        assert from_dsl == from_manifest

    def test_deconv_swaps_the_labels(self, capsys):
        assert main(["analyze", CHAIN11, "--deconv"]) == 0
        out = capsys.readouterr().out
        assert "(deconv)" in out
        assert "pf extent" in out
        assert "effective receptive field sizes" in out
        assert "400x400" in out  # numbers do not move

    def test_parse_failure_exits_2_with_position(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv nine s1\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "integer expected" in err

    def test_invalid_network_exits_2(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 0 s1\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "layer 1" in err
        assert "filter must be >= 1" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.net")]) == 2
        assert "error" in capsys.readouterr().err

    def test_too_long_literal_exits_2_with_position(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 3 s1\nconv " + "9" * 5000 + " s1\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err == (
            "fieldscope: error: line 2, column 6: filter: integer too long (5000 digits)\n"
        )

    @pytest.mark.parametrize("name", ["net.net", "net.toml"])
    def test_non_utf8_file_exits_2_with_position(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"# caf\xc3\xa9\n# \xff\n")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "fieldscope: error: line 2, column 3: not valid UTF-8 (byte 0xff)\n"

    def test_overflow_exits_3(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 3 s4\n" * 40)
        assert main(["analyze", path]) == 3
        assert "exceeds" in capsys.readouterr().err

    def test_manifest_warnings_reach_stderr(self, tmp_path, capsys):
        path = tmp_path / "net.toml"
        path.write_text('[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\npad = 1\n')
        assert main(["analyze", str(path)]) == 0
        assert "pad" in capsys.readouterr().err

    def test_coverage_gap_warning_reaches_stderr(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 2 s3\n")
        assert main(["analyze", path]) == 0
        assert "stride exceeds filter" in capsys.readouterr().err


class TestTopdown:
    def test_fixture_projection(self, capsys):
        assert main(["topdown", CHAIN11, "--layer", "11"]) == 0
        out = capsys.readouterr().out
        assert "top-down projection of layer 11" in out
        assert "392x392" in out
        assert out.rstrip().endswith("400x400")

    def test_layer_zero_is_a_single_unit_row(self, capsys):
        assert main(["topdown", CHAIN11, "--layer", "0"]) == 0
        out = capsys.readouterr().out
        body = [line for line in out.splitlines() if line and "layer" not in line]
        assert body == ["0      1x1"]

    def test_json_shape(self, capsys):
        assert main(["topdown", CHAIN11, "--layer", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_layer"] == 2
        assert payload["values"][0] == {"layer": 2, "rf": [1, 1]}
        assert payload["values"][-1] == {"layer": 0, "rf": [10, 10]}

    def test_out_of_range_layer_exits_2(self, capsys):
        assert main(["topdown", CHAIN11, "--layer", "12"]) == 2
        assert "out of range" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mixed_chain():
    """99999 stride-1 layers with mixed anisotropic filters."""
    layers = (("conv", (j % 5 + 1, j % 3 + 1), 1) for j in range(99999))
    return make_network(*layers, name="mixed")


@pytest.mark.parametrize("k", [0, 9, 10, 99999])
def test_topdown_table_matches_the_two_pass_layout(mixed_chain, k):
    projection = rf_top_down(mixed_chain, k)
    expected = topdown_table_reference(mixed_chain, projection)
    assert render_topdown_table(mixed_chain, projection) == expected


def test_topdown_table_label_column_outgrows_its_header():
    network = make_network(*[("conv", 1, 1)] * 100000)
    projection = rf_top_down(network, 100000)
    text = render_topdown_table(network, projection)
    assert text == topdown_table_reference(network, projection)
    assert text.splitlines()[1:3] == ["layer   rf", "100000  1x1"]


class TestVerify:
    def test_fixture_passes(self, capsys):
        assert main(["verify", CHAIN11]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "MISMATCH" not in out

    def test_random_stream_passes(self, capsys):
        assert main(["verify", "--random", "--trials", "50", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "50 random networks verified (seed 42): PASS" in out

    @pytest.mark.parametrize("name", ["chain11", "gapped"])
    def test_prints_the_golden_bytes(self, name, capsys):
        assert main(["verify", str(DATA / f"{name}.net")]) == 0
        assert capsys.readouterr().out.encode() == (DATA / f"{name}_verify.txt").read_bytes()

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_equivalence", off_by_one_oracle)
        assert main(["verify", CHAIN11]) == 1
        out = capsys.readouterr().out
        assert "1      9x9        9x9       10x9         9x9          MISMATCH" in out
        assert out.count("MISMATCH") == 1
        assert "overall: FAIL" in out

    def test_random_mismatch_exits_1_and_names_the_trial(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_equivalence", off_by_one_oracle)
        assert main(["verify", "--random", "--trials", "3", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("mismatch at trial 0 (seed 7):\nequivalence check: trial-0\n")
        assert out.count("MISMATCH") == 1
        assert out.endswith("overall: FAIL\n")

    def test_file_and_random_together_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", CHAIN11, "--random"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fieldscope verify ")

    def test_neither_file_nor_random_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fieldscope verify ")

    def test_gapped_network_still_passes_with_notes(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 2 s3\nconv 2 s1\n")
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "coverage gaps" in out
        assert "skipped" not in out
        # boundary 0 (stride 3 over filter 2) is compared like every other
        assert "0            0x0, 0x1, 1x0, 1x1  0x0, 0x1, 1x0, 1x1  ok" in out
        assert "overall: PASS" in out

    def test_a_stride_at_the_64_bit_cap_is_compared_without_a_per_offset_table(
        self, tmp_path, capsys
    ):
        # the PF oracle's cost follows the filter; a table with one slot per
        # offset of this stride period would fail at once with MemoryError
        path = write_net(tmp_path, "conv 3 s9223372036854775807\n")
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "0            0x0, 0x1, 1x0, 1x1  0x0, 0x1, 1x0, 1x1  ok" in out
        assert "overall: PASS" in out

    def test_a_span_past_the_budget_exits_2_in_one_line(self, tmp_path, capsys):
        # a sparse chain: 2 wired positions, 2**40 apart, so 2**40 + 1 bits of span
        path = write_net(tmp_path, "conv 1 s1099511627776\nconv 2 s1\n")
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [
            "fieldscope: error: influence span 1099511627777x1099511627777 exceeds "
            "the 268435456-bit oracle budget: too large to enumerate"
        ]

    def test_a_refused_random_trial_names_its_trial_and_seed(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "SPAN_BUDGET", 1)
        assert main(["verify", "--random", "--trials", "3", "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fieldscope: error: trial 0 (seed 7): influence span ")
        assert captured.err.endswith("too large to enumerate\n")
        assert captured.err.count("\n") == 1

    def test_a_50_layer_chain_passes_in_bounded_memory(self, tmp_path):
        rng = random.Random(3)
        layers = []
        for _ in range(50):
            f = rng.randint(1, 5)
            s = rng.randint(1, 2)
            layers.append(f"conv {f} s{s}\n")
        proc = verify_in_a_child(write_net(tmp_path, "".join(layers)))
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout

    def test_a_span_of_2_to_the_40_is_refused_without_allocating_it(self, tmp_path):
        proc = verify_in_a_child(write_net(tmp_path, "conv 2 s2\n" * 40))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("fieldscope:") == 1
        assert proc.stderr.endswith("too large to enumerate\n")


class TestFootprint:
    def test_doubling_pools_draw_nested_bars(self, tmp_path, capsys):
        path = write_net(tmp_path, "pool 2 s2\npool 2 s2\n")
        assert main(["footprint", path, "--layer", "2"]) == 0
        out = capsys.readouterr().out
        assert "layer 2  extent 1  | #  |" in out
        assert "layer 1  extent 2  | ## |" in out
        assert "layer 0  extent 4  |####|" in out

    def test_layer_zero(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 3 s1\n")
        assert main(["footprint", path, "--layer", "0"]) == 0
        assert "layer 0  extent 1  |#|" in capsys.readouterr().out

    def test_wide_extents_fall_back_to_numbers(self, capsys):
        assert main(["footprint", CHAIN11, "--layer", "11"]) == 0
        out = capsys.readouterr().out
        assert "extent 400 exceeds max width 120; printing values only" in out
        assert "layer 11: 1" in out
        assert "layer 0: 400" in out
        assert "#" not in out

    def test_max_width_raises_the_bar_budget(self, capsys):
        assert main(["footprint", CHAIN11, "--layer", "11", "--max-width", "400"]) == 0
        out = capsys.readouterr().out
        assert "|" + "#" * 400 + "|" in out

    @pytest.mark.parametrize("width", ["-5", "0", str(10**12)])
    def test_max_width_outside_1_to_1000_is_a_usage_error(self, capsys, monkeypatch, width):
        # refused while parsing arguments, before any network is loaded or drawn
        monkeypatch.setattr(cli, "load_network", lambda path: pytest.fail("loaded"))
        with pytest.raises(SystemExit) as excinfo:
            main(["footprint", CHAIN11, "--layer", "11", "--max-width", width])
        assert excinfo.value.code == 2
        assert "--max-width: must be an integer in 1..1000" in capsys.readouterr().err

    def test_anisotropic_networks_note_the_height_only_view(self, tmp_path, capsys):
        path = write_net(tmp_path, "conv 5x3 s1\n")
        assert main(["footprint", path, "--layer", "1"]) == 0
        out = capsys.readouterr().out
        assert "width axis differs from height axis" in out
        assert "layer 0  extent 5  |#####|" in out


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fieldscope", "analyze", CHAIN11],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "400x400" in proc.stdout


BROKEN_PIPE = rb"fieldscope: error: \[Errno 32\] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["verify", "--random", "--trials", "50"], 2, BROKEN_PIPE),
        (["analyze", CHAIN11], 2, BROKEN_PIPE),
        (["--help"], 0, rb""),
        (
            ["verify"],
            2,
            rb"usage: fieldscope verify .*\nfieldscope verify: error: a file is required .*\n",
        ),
    ],
    ids=["verify", "analyze", "help", "usage"],
)
def test_a_closed_pipe_exits_2_without_a_traceback(argv, code, err, unbuffered):
    # stdout, then also stderr, on a pipe whose reader has gone, as in
    # `fieldscope ... | head -c 0` and `fieldscope ... 2>&1 | head -c 0`;
    # argparse's help and usage errors keep their own codes
    env = _child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "fieldscope", *argv],
                stdout=write_end,
                stderr=stderr,
                env=env,
                timeout=60,
            )
            for stderr in (subprocess.PIPE, write_end)
        ]
    finally:
        os.close(write_end)
    assert [run.returncode for run in runs] == [code, code]
    assert re.fullmatch(err, runs[0].stderr, re.S)


def test_importing_the_cli_loads_none_of_dataclasses_inspect_json_tomllib_or_pathlib():
    # -S keeps site-packages' .pth files, which may import anything, out of the result.
    modules = "{'dataclasses', 'inspect', 'json', 'tomllib', 'pathlib'}"
    code = f"import sys, fieldscope.cli; print(sorted({modules} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

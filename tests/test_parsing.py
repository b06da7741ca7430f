from __future__ import annotations

import random
import re
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import DATA, make_network
from strategies import networks

import fieldscope.parsing as parsing
from fieldscope import (
    Direction,
    LayerKind,
    ManifestWarning,
    NetworkSpec,
    ParseError,
    load_network,
    parse_dsl,
    parse_manifest,
    serialize_dsl,
)
from fieldscope.cli import main


class TestParseDsl:
    def test_two_plain_layers(self):
        network = parse_dsl("conv 9 s1\npool 2 s2")
        assert network.direction is Direction.CONV
        assert network == make_network(("conv", 9, 1), ("pool", 2, 2))

    def test_per_axis_sizes(self):
        network = parse_dsl("conv 5x3 s2x1")
        (layer,) = network.layers
        assert layer.filter == (5, 3)
        assert layer.stride == (2, 1)

    def test_non_integer_filter_is_positioned_diagnostic(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dsl("conv nine s1")
        (diagnostic,) = excinfo.value.diagnostics
        assert diagnostic.line == 1
        assert diagnostic.column == 6
        assert "integer expected" in diagnostic.message

    def test_header_and_directive(self):
        network = parse_dsl("network fancy-net\ndeconv\nconv 3 s1\n")
        assert network.name == "fancy-net"
        assert network.direction is Direction.DECONV

    def test_comments_blank_lines_and_crlf(self):
        text = "# top comment\r\n\r\nconv 3 s1  # trailing\r\npool 2 s2\r\n"
        network = parse_dsl(text)
        assert len(network.layers) == 2

    def test_channels_suffix(self):
        (layer,) = parse_dsl("conv 9 s1 c64").layers
        assert layer.channels_out == 64

    def test_missing_stride(self):
        with pytest.raises(ParseError, match="missing stride"):
            parse_dsl("conv 9")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown layer kind 'norm'"):
            parse_dsl("norm 3 s1")

    def test_empty_input_reports_no_layers(self):
        with pytest.raises(ParseError, match="no layers"):
            parse_dsl("")
        with pytest.raises(ParseError, match="no layers"):
            parse_dsl("# only a comment\n")

    def test_header_after_layers_is_rejected(self):
        with pytest.raises(ParseError, match="first line"):
            parse_dsl("conv 3 s1\nnetwork late")

    def test_directive_after_layers_is_rejected(self):
        with pytest.raises(ParseError, match="precede"):
            parse_dsl("conv 3 s1\ndeconv")

    def test_every_bad_line_gets_its_own_diagnostic(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dsl("conv a s1\npool 2 sx\nrelu 1 s1")
        assert len(excinfo.value.diagnostics) == 3
        assert [d.line for d in excinfo.value.diagnostics] == [1, 2, 3]


# tomllib's messages for a newline inside a string and for text after a value
OPEN_STRING = "Illegal character '\\n'"
AFTER_VALUE = "Expected newline or end of document after a statement"


class TestParseManifest:
    def test_scalar_layer_matches_dsl(self):
        manifest = 'name = ""\n\n[[layer]]\nkind = "conv"\nfilter = 9\nstride = 1\n'
        assert parse_manifest(manifest) == parse_dsl("conv 9 s1")

    def test_list_valued_filter_and_stride(self):
        manifest = '[[layer]]\nkind = "conv"\nfilter = [5, 3]\nstride = [2, 1]\n'
        (layer,) = parse_manifest(manifest).layers
        assert layer.filter == (5, 3)
        assert layer.stride == (2, 1)

    def test_unknown_layer_kind(self):
        manifest = '[[layer]]\nkind = "norm"\nfilter = 3\nstride = 1\n'
        with pytest.raises(ParseError, match="unknown layer kind 'norm'"):
            parse_manifest(manifest)

    def test_unknown_key_warns_but_parses(self):
        manifest = 'pad = 1\n\n[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\nbias = 0\n'
        manifest += "\n[foo]\nx = 1\n\n[[bar]]\ny = 2\n"
        with pytest.warns(ManifestWarning) as caught:
            network = parse_manifest(manifest)
        assert network == parse_dsl("conv 3 s1")
        messages = [str(w.message) for w in caught]
        for key in ("pad", "bias", "foo", "bar"):
            assert any(f"unknown key '{key}'" in m for m in messages)

    def test_missing_key_points_at_section(self):
        # tomllib keeps no positions: the finding names its section by number
        manifest = "# leading comment\n[[layer]]\nkind = \"conv\"\nstride = 1\n"
        with pytest.raises(ParseError) as excinfo:
            parse_manifest(manifest)
        assert excinfo.value.diagnostics == ((1, 1, "layer 1: missing key 'filter'", "error"),)

    def test_a_layer_finding_names_its_layer_however_it_is_spelled(self):
        manifest = (
            '[[layer]]\r\nkind = "conv"\r\nfilter = 3\r\nstride = 1\r\n\r\n'
            '  [[ "layer" ]]  # second\r\nkind = "pool"\r\nstride = 1\r\n'
        )
        with pytest.raises(ParseError) as excinfo:
            parse_manifest(manifest)
        assert excinfo.value.diagnostics == ((1, 1, "layer 2: missing key 'filter'", "error"),)

    def test_an_inline_array_of_layer_tables_is_the_same_network(self):
        sections = _layer() + _layer(kind='"pool"', filter="[2, 3]", stride="2", channels_out="8")
        inline = (
            'layer = [\n  {kind = "conv", filter = 3, stride = 1},\n'
            '  {kind = "pool", filter = [2, 3], stride = 2, channels_out = 8},\n]\n'
        )
        network = parse_dsl("conv 3 s1\npool 2x3 s2 c8")
        assert parse_manifest(inline) == parse_manifest(sections) == network
        with pytest.raises(ParseError) as excinfo:
            parse_manifest('layer = [{kind = "conv", filter = 3, stride = 1}, {kind = "conv"}]\n')
        assert excinfo.value.diagnostics == (
            (1, 1, "layer 2: missing key 'filter'", "error"),
            (1, 1, "layer 2: missing key 'stride'", "error"),
        )

    def test_a_header_line_inside_a_string_is_no_layer(self):
        manifest = 'name = """\n[[layer]]\n"""\n\n[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\n'
        network = parse_manifest(manifest)
        assert network.name == "[[layer]]\n"
        assert network.layers == parse_dsl("conv 3 s1").layers

    @pytest.mark.parametrize("case", ["single-table", "inline-table", "mixed-array"])
    def test_layer_must_be_an_array_of_tables(self, case):
        with pytest.raises(ParseError) as excinfo:
            parse_manifest(BAD_MANIFESTS[case])
        message = "'layer' must be an array of tables"
        assert excinfo.value.diagnostics == ((1, 1, message, "error"),)

    def test_ill_typed_value(self):
        manifest = '[[layer]]\nkind = "conv"\nfilter = [1, 2, 3]\nstride = 1\n'
        with pytest.raises(ParseError, match="two-integer list"):
            parse_manifest(manifest)

    def test_direction_and_name(self):
        manifest = 'name = "mirror"\ndirection = "deconv"\n\n[[layer]]\nkind = "pool"\nfilter = 2\nstride = 2\n'
        network = parse_manifest(manifest)
        assert network.name == "mirror"
        assert network.direction is Direction.DECONV

    def test_bad_direction(self):
        manifest = 'direction = "sideways"\n[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\n'
        with pytest.raises(ParseError, match="conv"):
            parse_manifest(manifest)

    def test_channels_out(self):
        manifest = '[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\nchannels_out = 10\n'
        (layer,) = parse_manifest(manifest).layers
        assert layer.channels_out == 10

    def test_no_layer_sections(self):
        with pytest.raises(ParseError, match="no layers"):
            parse_manifest('name = "empty"\n')

    def test_duplicate_key(self):
        manifest = '[[layer]]\nkind = "conv"\nkind = "pool"\nfilter = 3\nstride = 1\n'
        with pytest.raises(ParseError) as excinfo:
            parse_manifest(manifest)
        assert excinfo.value.diagnostics == ((3, 14, "Cannot overwrite a value", "error"),)

    def test_hash_inside_a_string_is_not_a_comment(self):
        manifest = 'name = "net#1"  # trailing\n[[layer]]\nkind = "conv" # "c\nfilter = 3\nstride = 1\n'
        network = parse_manifest(manifest)
        assert network.name == "net#1"
        assert network.layers == parse_dsl("conv 3 s1").layers

    # tomllib stops at the first error and places it; a string left open ends
    # at the newline it may not contain.
    @pytest.mark.parametrize(
        "top, kind, line, column, message",
        [
            ('name = "net', "conv", 1, 12, OPEN_STRING),
            ('name = "net # tail', "conv", 1, 19, OPEN_STRING),
            ('name = "a" "b', "conv", 1, 12, AFTER_VALUE),
            ('direction = "deconv', "conv", 1, 20, OPEN_STRING),
            ("", '"conv', 3, 13, OPEN_STRING),
            ("", '"conv  # tail', 3, 21, OPEN_STRING),
        ],
    )
    def test_unterminated_string_is_a_positioned_error(self, top, kind, line, column, message):
        manifest = f"{top}\n[[layer]]\nkind = {kind}\nfilter = 3\nstride = 1\n"
        with pytest.raises(ParseError) as excinfo:
            parse_manifest(manifest)
        assert excinfo.value.diagnostics == ((line, column, message, "error"),)

    @pytest.mark.parametrize("value, column", [('"a" x', 12), ('"a""b"', 11), ('"a" "b"', 12)])
    def test_a_name_that_opens_a_string_must_be_exactly_that_string(
        self, value, column, tmp_path, capsys
    ):
        manifest = f'name = {value}\n[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\n'
        with pytest.raises(ParseError) as excinfo:
            parse_manifest(manifest)
        (diagnostic,) = excinfo.value.diagnostics
        assert diagnostic == (1, column, AFTER_VALUE, "error")
        path = tmp_path / "net.toml"
        path.write_text(manifest)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fieldscope: error: {diagnostic}\n"

    @pytest.mark.parametrize(
        "manifest, line",
        [
            ('name = chain11\n[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\n', 1),
            ("[[layer]]\nkind = conv\nfilter = 3\nstride = 1\n", 2),
        ],
        ids=["name", "kind"],
    )
    def test_an_unquoted_value_is_an_error(self, manifest, line, tmp_path, capsys):
        path = tmp_path / "net.toml"
        path.write_text(manifest)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fieldscope: error: line {line}, column 8: Invalid value\n"

    def test_cli_prints_a_quoted_hash_and_exits_2_on_an_open_string(self, tmp_path, capsys):
        layer = '\n[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\n'
        path = tmp_path / "net.toml"
        path.write_text('name = "net#1"' + layer)
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out.startswith("network net#1 (conv)\n")
        path.write_text('name = "net' + layer)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fieldscope: error: line 1, column 12: {OPEN_STRING}\n"


class TestSerializeDsl:
    def test_square_layer_prints_scalar_form(self):
        assert serialize_dsl(make_network(("conv", 9, 1))) == "conv 9 s1\n"

    def test_deconv_direction_prints_directive_first(self):
        text = serialize_dsl(make_network(("conv", 3, 1), direction=Direction.DECONV))
        assert text.startswith("deconv\n")

    def test_anisotropic_layer_prints_pair_form(self):
        assert serialize_dsl(make_network(("pool", (5, 3), (2, 1)))) == "pool 5x3 s2x1\n"

    def test_unprintable_name_is_rejected(self):
        with pytest.raises(ValueError, match="not representable"):
            serialize_dsl(make_network(("conv", 3, 1), name="bad#name"))

    def test_fixture_round_trips(self, chain11):
        assert parse_dsl(serialize_dsl(chain11)) == chain11


def test_both_formats_agree_on_the_fixture(chain11):
    assert load_network(DATA / "chain11.net") == load_network(DATA / "chain11.toml")
    assert load_network(DATA / "chain11.net") == chain11


@given(networks(named=True))
def test_round_trip_identity(network):
    assert parse_dsl(serialize_dsl(network)) == network


def _toml_string(text):
    """text as a TOML basic string: quote, backslash, control characters
    other than tab, and DEL are escaped."""
    return '"' + "".join(
        f"\\u{ord(ch):04x}" if ch in '"\\\x7f' or (ch < " " and ch != "\t") else ch
        for ch in text
    ) + '"'


def _toml_pair(value):
    return str(value[0]) if value[0] == value[1] else f"[{value[0]}, {value[1]}]"


def write_manifest(network):
    """network as a manifest with one [[layer]] section per layer."""
    lines = [f"name = {_toml_string(network.name)}", f'direction = "{network.direction.value}"']
    for layer in network.layers:
        lines += ["", "[[layer]]", f'kind = "{layer.kind.value}"']
        lines += [f"filter = {_toml_pair(layer.filter)}", f"stride = {_toml_pair(layer.stride)}"]
        if layer.channels_out is not None:
            lines.append(f"channels_out = {layer.channels_out}")
    return "\n".join(lines) + "\n"


@given(networks(named=True), st.text())
@example(make_network(("conv", 3, 1)), '\x00\x1f\x7f\t"\\\n\r\u2028 #[[layer]]')
def test_any_network_survives_the_manifest_format(network, name):
    network = NetworkSpec(name=name, direction=network.direction, layers=network.layers)
    assert parse_manifest(write_manifest(network)) == network


# a literal past int()'s digit limit (sys.get_int_max_str_digits)
LONG_LITERAL = "9" * 5000


@given(st.text())
@example(f"conv {LONG_LITERAL} s1")
@example(f"conv 3x{LONG_LITERAL} s1x{LONG_LITERAL} c{LONG_LITERAL}")
def test_dsl_parsing_is_total(text):
    try:
        parse_dsl(text)
    except ParseError as exc:
        lines = text.split("\n")
        for diagnostic in exc.diagnostics:
            assert 1 <= diagnostic.line <= max(1, len(lines))
            assert diagnostic.column >= 1
            assert diagnostic.column <= len(lines[diagnostic.line - 1]) + 1


def _layer(**values):
    """One [[layer]] section of conv 3 s1, with values given as TOML text."""
    keys = {"kind": '"conv"', "filter": "3", "stride": "1", **values}
    return "[[layer]]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())


# Manifests that are TOML but no network, or hold a literal too long to decode.
BAD_MANIFESTS = {
    "bool-filter": _layer(filter="true"),
    "float-filter": _layer(filter="3.0"),
    "string-filter": _layer(filter='"3"'),
    "three-filters": _layer(filter="[1, 2, 3]"),
    "int-kind": _layer(kind="1"),
    "int-name": "name = 5\n" + _layer(),
    "single-table": _layer().replace("[[layer]]", "[layer]"),
    "inline-table": 'layer = {kind = "conv", filter = 3, stride = 1}\n',
    "mixed-array": 'layer = [{kind = "conv", filter = 3, stride = 1}, 3]\n',
    "long-filter": _layer(filter="_".join(LONG_LITERAL)),
    "deep-array": "x = " + "[" * 2000,
    "deep-inline-table": "x = " + "{a = " * 2000,
}


def examples(texts):
    """@example for each text."""

    def apply(test):
        for text in texts:
            test = example(text)(test)
        return test

    return apply


@given(st.text())
@example(f'[[layer]]\nkind = "conv"\nfilter = {LONG_LITERAL}\nstride = 1\n')
@example(
    f'[[layer]]\nkind = "conv"\nfilter = [3, {LONG_LITERAL}]\nstride = 1\n'
    f"channels_out = {LONG_LITERAL}\n"
)
@examples(BAD_MANIFESTS.values())
def test_manifest_parsing_is_total(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ManifestWarning)
        try:
            parse_manifest(text)
        except ParseError as exc:
            lines = text.split("\n")
            for diagnostic in exc.diagnostics:
                assert 1 <= diagnostic.line <= max(1, len(lines))
                assert diagnostic.column >= 1
                assert diagnostic.column <= len(lines[diagnostic.line - 1]) + 1


@pytest.mark.parametrize("text", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
def test_a_bad_manifest_exits_2_with_one_line_findings(text, tmp_path, capsys):
    path = tmp_path / "net.toml"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("fieldscope: error: ") for line in lines)


def test_a_too_long_literal_is_placed_past_digits_in_comments_strings_and_floats():
    manifest = (
        f'# {LONG_LITERAL}\nname = "{LONG_LITERAL}"\nx = {LONG_LITERAL}.5\n'
        + _layer(filter=f"[3, {LONG_LITERAL}]")
    )
    with pytest.raises(ParseError) as excinfo:
        parse_manifest(manifest)
    assert excinfo.value.diagnostics == ((6, 14, "integer too long (5000 digits)", "error"),)


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError) as excinfo:
        parse_manifest(BAD_MANIFESTS["deep-array"])
    assert excinfo.value.diagnostics == ((1, 1, "nesting too deep", "error"),)


def _parse_outcome(text):
    """parse_dsl's network, or the diagnostics it raised."""
    try:
        return parse_dsl(text)
    except ParseError as exc:
        return exc.diagnostics


# Words for each field of a layer line: those a layer line allows, then
# broken ones. An empty word drops its field; an empty gap glues two words.
DSL_FIELDS = (
    (("conv", "pool"), ("deconv", "network", "relu", "")),
    (("3", "12", "0", "\u0663", "3x4", "4x3"), ("3x", "x3", "", LONG_LITERAL)),
    (("s1", "s2", "s2x3"), ("s", "sx1", "s1c4", "", "s" + LONG_LITERAL)),
    (("", "c4", "c0"), ("c", "s1", "c" + LONG_LITERAL)),
    (("", "#", "# note"), ("extra",)),
)
DSL_GAPS = ("", " ", "  ", "\t", "\r", "\x0b", "\x1c", "\u3000")


def _dsl_line(fields):
    gap = st.sampled_from(DSL_GAPS)
    return st.tuples(*(st.tuples(gap, st.sampled_from(words)) for words in fields), gap).map(
        lambda drawn: "".join(g + word for g, word in drawn[:-1]) + drawn[-1]
    )


# Half the lines draw only allowed words, so most of those are layer lines.
dsl_lines = _dsl_line([good for good, _ in DSL_FIELDS]) | _dsl_line(
    [good + bad for good, bad in DSL_FIELDS]
)
# Lines come from a small pool, so most texts repeat some line.
dsl_texts = st.tuples(
    st.lists(dsl_lines, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=12)
    ),
    st.sampled_from(("\n", "\r\n")),
).map(lambda drawn: drawn[1].join(drawn[0]))


@given(dsl_texts)
@example("conv3 s1")
@example("conv 3 s1c4")
@example("conv 3x s1")
@example("conv \u0663 s1")
@example("conv 3x4 s2x1 c8")
@example("conv\x0b3\x1cs1\u3000c4")
@example("network n\r\nconv 3 s1\r\npool 2x3 s2 # tail\r\n")
@example(f"conv {LONG_LITERAL} s1")
@example("conv 3 s1\ndeconv")
@example("conv 3 s1\nconv 3 s1 # again\nconv 3 s1  \n  conv 3 s1\tc2\nconv 3 s1")
@example("conv 3 s1\nnetwork late\nconv 3 s1\ndeconv\nconv 3 s1")
@example(f"conv {LONG_LITERAL} s1\nconv 3 s1\nconv {LONG_LITERAL} s1")
def test_layer_line_fast_path_matches_the_tokenizer(text):
    fast = _parse_outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parsing, "_LAYER_LINE", re.compile(r"(?!)"))
        slow = _parse_outcome(text)
    assert fast == slow


def test_a_repeated_layer_line_is_one_shared_record():
    rng = random.Random(7)
    pool = ["conv 3 s1", "pool 2 s2", "conv 5x3 s1x2 c64", "pool 3 s1  # tail", "conv 1 s1"]
    text = "\n".join(rng.choice(pool) for _ in range(30000)) + "\n"
    layers = parse_dsl(text).layers
    assert len(layers) == 30000
    assert len({id(layer) for layer in layers}) == len(pool)


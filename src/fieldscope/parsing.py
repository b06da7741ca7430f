"""Parsers and serializer for the two architecture text formats.

DSL (.net files, UTF-8, LF or CRLF), one layer per line:

    network <name>          optional header, must be the first line
    deconv                  optional directive, before any layer
    conv 9 s1               square filter 9x9, stride 1x1
    pool 2x3 s2x1           per-axis filter and stride
    conv 9 s1 c64           optional trailing channel count
    # comment to end of line; blank lines are fine

Manifest (.toml files), a small key-value subset with repeated layer
sections; scalar filter/stride fill both axes:

    name = "chain11"
    direction = "conv"      # or "deconv"

    [[layer]]
    kind = "conv"
    filter = 9              # or [9, 9]
    stride = 1              # or [1, 1]
    channels_out = 64       # optional

A '#' inside a "..." string is text, not a comment; a string left open, or
a value that opens a string and goes on past its close, is an error.
Unknown manifest keys warn (ManifestWarning) but do not fail. Every hard
failure raises ParseError carrying positioned diagnostics; no input text
crashes the parsers.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path
from typing import NamedTuple

from .arch import Direction, LayerKind, LayerSpec, NetworkSpec, require_valid


class ParseDiagnostic(NamedTuple):
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseError(ValueError):
    """Input text rejected; diagnostics carry every finding with positions."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = tuple(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        super().__init__("; ".join(str(d) for d in errors))


class ManifestWarning(UserWarning):
    """Non-fatal manifest finding, e.g. an unknown key."""


# A whole canonical layer line, tried before tokenizing. Any other line takes
# the tokenizer, which owns every diagnostic and would build the same layer.
_LAYER_LINE = re.compile(r"\s*(conv|pool)\s+(\d+)(?:x(\d+))?\s+s(\d+)(?:x(\d+))?(?:\s+c(\d+))?\s*")
_KINDS = {kind.value: kind for kind in LayerKind}  # a dict hit costs far less than LayerKind()
_TOKEN = re.compile(r"\S+")
_SIZE = re.compile(r"(\d+)(?:x(\d+))?")
_STRIDE = re.compile(r"s(\d+)(?:x(\d+))?")
_CHANNELS = re.compile(r"c(\d+)")


def _lines(text: str) -> list[str]:
    return [line.rstrip("\r") for line in text.split("\n")]


def _int(
    digits: str, lineno: int, column: int, what: str, diagnostics: list[ParseDiagnostic]
) -> int | None:
    """int(digits), or None plus a positioned diagnostic when the literal is
    longer than the interpreter converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        diagnostics.append(
            ParseDiagnostic(lineno, column, f"{what}: integer too long ({len(digits)} digits)")
        )
        return None


def _pair(
    first: str,
    second: str | None,
    lineno: int,
    column: int,
    what: str,
    diagnostics: list[ParseDiagnostic],
) -> tuple[int, int] | None:
    """(h, w) from one or two digit strings, one filling both axes; None after
    a diagnostic."""
    h = _int(first, lineno, column, what, diagnostics)
    w = h if second is None else _int(second, lineno, column, what, diagnostics)
    return None if h is None or w is None else (h, w)


def parse_dsl(text: str) -> NetworkSpec:
    """Parse DSL text into a NetworkSpec; raises ParseError on any bad line."""
    diagnostics: list[ParseDiagnostic] = []
    layers: list[LayerSpec] = []
    name = ""
    direction = Direction.CONV
    first_significant = True
    # Layer lines the regex accepted, mapped to the record built for each:
    # a repeated line reuses its immutable LayerSpec.
    seen: dict[str, LayerSpec] = {}

    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0]
        layer = seen.get(line)
        if layer is None and (match := _LAYER_LINE.fullmatch(line)) is not None:
            kind, fh, fw, sh, sw, channels = match.groups()
            try:
                h, s = int(fh), int(sh)
                layer = seen[line] = LayerSpec(
                    kind=_KINDS[kind],
                    filter=(h, h if fw is None else int(fw)),
                    stride=(s, s if sw is None else int(sw)),
                    channels_out=None if channels is None else int(channels),
                )
            except ValueError:
                pass  # a literal past int()'s digit limit; the tokenizer reports it
        if layer is not None:
            layers.append(layer)
            first_significant = False
            continue
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        word, column = tokens[0]

        if word == "network":
            if not first_significant:
                diagnostics.append(
                    ParseDiagnostic(lineno, column, "network header must be the first line")
                )
            elif len(tokens) < 2:
                diagnostics.append(
                    ParseDiagnostic(lineno, column + len(word), "missing network name")
                )
            else:
                name = line[tokens[1][1] - 1 :].strip()
            first_significant = False
            continue
        first_significant = False

        if word == "deconv":
            if len(tokens) > 1:
                diagnostics.append(
                    ParseDiagnostic(lineno, tokens[1][1], "unexpected token after 'deconv'")
                )
            elif layers:
                diagnostics.append(
                    ParseDiagnostic(lineno, column, "deconv directive must precede layers")
                )
            else:
                direction = Direction.DECONV
            continue

        if word not in ("conv", "pool"):
            diagnostics.append(
                ParseDiagnostic(lineno, column, f"unknown layer kind {word!r}")
            )
            continue

        layer = _parse_dsl_layer(tokens, lineno, diagnostics)
        if layer is not None:
            layers.append(layer)

    if not layers and not any(d.severity == "error" for d in diagnostics):
        diagnostics.append(ParseDiagnostic(1, 1, "no layers defined"))
    if any(d.severity == "error" for d in diagnostics):
        raise ParseError(diagnostics)
    return NetworkSpec(name=name, direction=direction, layers=tuple(layers))


def _parse_dsl_layer(
    tokens: list[tuple[str, int]],
    lineno: int,
    diagnostics: list[ParseDiagnostic],
) -> LayerSpec | None:
    kind = LayerKind(tokens[0][0])
    if len(tokens) < 2:
        diagnostics.append(
            ParseDiagnostic(lineno, tokens[0][1] + len(tokens[0][0]), "missing filter size")
        )
        return None
    size_token, size_col = tokens[1]
    size_match = _SIZE.fullmatch(size_token)
    if size_match is None:
        diagnostics.append(
            ParseDiagnostic(
                lineno, size_col, f"filter: integer expected, got {size_token!r}"
            )
        )
        return None
    if len(tokens) < 3:
        diagnostics.append(
            ParseDiagnostic(lineno, size_col + len(size_token), "missing stride")
        )
        return None
    stride_token, stride_col = tokens[2]
    stride_match = _STRIDE.fullmatch(stride_token)
    if stride_match is None:
        diagnostics.append(
            ParseDiagnostic(
                lineno,
                stride_col,
                f"stride must look like s2 or s2x1, got {stride_token!r}",
            )
        )
        return None
    channel_match = None
    if len(tokens) > 3:
        channel_token, channel_col = tokens[3]
        channel_match = _CHANNELS.fullmatch(channel_token)
        if channel_match is None:
            diagnostics.append(
                ParseDiagnostic(
                    lineno, channel_col, f"unexpected token {channel_token!r}"
                )
            )
            return None
    if len(tokens) > 4:
        diagnostics.append(
            ParseDiagnostic(lineno, tokens[4][1], f"unexpected token {tokens[4][0]!r}")
        )
        return None
    size = _pair(*size_match.groups(), lineno, size_col, "filter", diagnostics)
    stride = _pair(*stride_match.groups(), lineno, stride_col, "stride", diagnostics)
    channels = None
    if channel_match is not None:
        channels = _int(channel_match.group(1), lineno, channel_col, "channels", diagnostics)
        if channels is None:
            return None
    if size is None or stride is None:
        return None
    return LayerSpec(kind=kind, filter=size, stride=stride, channels_out=channels)


_KEY_VALUE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)")
_SECTION = re.compile(r"\[\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*\]\]")
_INT = re.compile(r"\d+")
_INT_LIST = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]")
_QUOTED = re.compile(r'"([^"]*)"')
# A manifest line up to its comment: '#' inside a "..." string is text, and a
# string left open runs to the end of the line.
_CONTENT = re.compile(r'[^"#]*(?:"[^"]*"?[^"#]*)*')

# A manifest value with the line and column of its key; None marks a value
# already reported as an unterminated string.
_Entry = tuple[str | None, int, int]

_TOP_KEYS = ("name", "direction")
_LAYER_KEYS = ("kind", "filter", "stride", "channels_out")


def parse_manifest(text: str) -> NetworkSpec:
    """Parse manifest text into a NetworkSpec.

    Raises ParseError on missing or ill-typed keys; unknown keys only emit
    ManifestWarning.
    """
    diagnostics: list[ParseDiagnostic] = []
    top: dict[str, _Entry] = {}
    sections: list[tuple[int, dict[str, _Entry]]] = []
    current: dict[str, _Entry] | None = None

    for lineno, raw in enumerate(_lines(text), start=1):
        content = _CONTENT.match(raw).group()
        line = content.strip()
        if not line:
            continue
        column = len(raw) - len(raw.lstrip()) + 1
        unterminated = content.count('"') % 2
        if unterminated:
            diagnostics.append(
                ParseDiagnostic(lineno, content.rfind('"') + 1, "unterminated string")
            )
        if line.startswith("[") and not unterminated:
            section = _SECTION.fullmatch(line)
            if section is None:
                diagnostics.append(
                    ParseDiagnostic(lineno, column, "malformed section header, expected [[layer]]")
                )
            elif section.group(1) != "layer":
                diagnostics.append(
                    ParseDiagnostic(lineno, column, f"unknown section {section.group(1)!r}")
                )
            else:
                current = {}
                sections.append((lineno, current))
            continue
        pair = _KEY_VALUE.fullmatch(line)
        if pair is None:
            if not unterminated:
                diagnostics.append(
                    ParseDiagnostic(lineno, column, "expected 'key = value' or [[layer]]")
                )
            continue
        # An unterminated value is kept as None, already reported, so the key
        # still counts as present and no second error follows from it.
        key, value = pair.group(1), None if unterminated else pair.group(2).strip()
        known = _LAYER_KEYS if current is not None else _TOP_KEYS
        scope = current if current is not None else top
        if key not in known:
            diagnostics.append(
                ParseDiagnostic(lineno, column, f"unknown key {key!r}", severity="warning")
            )
            continue
        if key in scope:
            diagnostics.append(ParseDiagnostic(lineno, column, f"duplicate key {key!r}"))
            continue
        scope[key] = (value, lineno, column)

    name = ""
    value, lineno, column = top.get("name", (None, 0, 0))
    if value is not None:
        # An unquoted name is taken as is; one that opens a string must be
        # exactly that string, or trailing text would become part of it.
        if value.startswith('"') and _QUOTED.fullmatch(value) is None:
            diagnostics.append(
                ParseDiagnostic(lineno, column, f"name must be one quoted string, got {value!r}")
            )
        name = _unquote(value)
    direction = Direction.CONV
    value, lineno, column = top.get("direction", (None, 0, 0))
    if value is not None:
        label = _unquote(value)
        if label in ("conv", "deconv"):
            direction = Direction(label)
        else:
            diagnostics.append(
                ParseDiagnostic(lineno, column, f"direction must be 'conv' or 'deconv', got {label!r}")
            )

    layers = []
    for position, (header_line, keys) in enumerate(sections, start=1):
        layer = _build_manifest_layer(position, header_line, keys, diagnostics)
        if layer is not None:
            layers.append(layer)

    if not sections and not any(d.severity == "error" for d in diagnostics):
        diagnostics.append(ParseDiagnostic(1, 1, "no layers defined"))
    if any(d.severity == "error" for d in diagnostics):
        raise ParseError(diagnostics)
    for diagnostic in diagnostics:
        warnings.warn(f"{diagnostic}", ManifestWarning, stacklevel=2)
    return NetworkSpec(name=name, direction=direction, layers=tuple(layers))


def _unquote(value: str) -> str:
    quoted = _QUOTED.fullmatch(value)
    return quoted.group(1) if quoted else value


def _build_manifest_layer(
    position: int,
    header_line: int,
    keys: dict[str, _Entry],
    diagnostics: list[ParseDiagnostic],
) -> LayerSpec | None:
    bad = False
    for required in ("kind", "filter", "stride"):
        if required not in keys:
            diagnostics.append(
                ParseDiagnostic(header_line, 1, f"layer {position} is missing key {required!r}")
            )
            bad = True
    if bad or any(value is None for value, _, _ in keys.values()):
        return None

    kind_text, kind_line, kind_col = keys["kind"]
    kind_label = _unquote(kind_text)
    try:
        kind = LayerKind(kind_label)
    except ValueError:
        diagnostics.append(
            ParseDiagnostic(kind_line, kind_col, f"unknown layer kind {kind_label!r}")
        )
        return None

    def int_pair(key: str) -> tuple[int, int] | None:
        value, lineno, column = keys[key]
        if _INT.fullmatch(value):
            return _pair(value, None, lineno, column, key, diagnostics)
        pair = _INT_LIST.fullmatch(value)
        if pair:
            return _pair(*pair.groups(), lineno, column, key, diagnostics)
        diagnostics.append(
            ParseDiagnostic(
                lineno, column, f"{key!r} must be an integer or a two-integer list, got {value!r}"
            )
        )
        return None

    size = int_pair("filter")
    stride = int_pair("stride")
    channels = None
    if "channels_out" in keys:
        value, lineno, column = keys["channels_out"]
        if _INT.fullmatch(value):
            channels = _int(value, lineno, column, "channels_out", diagnostics)
            if channels is None:
                return None
        else:
            diagnostics.append(
                ParseDiagnostic(lineno, column, f"'channels_out' must be an integer, got {value!r}")
            )
            return None
    if size is None or stride is None:
        return None
    return LayerSpec(kind=kind, filter=size, stride=stride, channels_out=channels)


def serialize_dsl(network: NetworkSpec) -> str:
    """Render the canonical DSL text; parse_dsl() of the result round-trips."""
    require_valid(network)
    if any(ch in network.name for ch in "#\r\n") or network.name != network.name.strip():
        raise ValueError(f"network name not representable in the DSL: {network.name!r}")
    lines = []
    if network.name:
        lines.append(f"network {network.name}")
    if network.direction is Direction.DECONV:
        lines.append("deconv")
    for layer in network.layers:
        parts = [layer.kind.value, _scalar_or_pair(layer.filter), f"s{_scalar_or_pair(layer.stride)}"]
        if layer.channels_out is not None:
            parts.append(f"c{layer.channels_out}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _scalar_or_pair(value: tuple[int, int]) -> str:
    return str(value[0]) if value[0] == value[1] else f"{value[0]}x{value[1]}"


def load_network(path: str | Path) -> NetworkSpec:
    """Read an architecture file, dispatching on extension (.toml = manifest)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError([_undecodable(exc.object, exc.start)]) from None
    if path.suffix == ".toml":
        return parse_manifest(text)
    return parse_dsl(text)


def _undecodable(data: bytes, start: int) -> ParseDiagnostic:
    """Point at data[start], the first byte that is not valid UTF-8."""
    line_start = data.rfind(b"\n", 0, start) + 1
    column = len(data[line_start:start].decode("utf-8", "replace")) + 1
    message = f"not valid UTF-8 (byte 0x{data[start]:02x})"
    return ParseDiagnostic(data.count(b"\n", 0, start) + 1, column, message)

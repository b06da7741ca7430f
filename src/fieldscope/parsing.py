"""Parsers and serializer for the two architecture text formats.

DSL (.net files, UTF-8, LF or CRLF), one layer per line:

    network <name>          optional header, must be the first line
    deconv                  optional directive, before any layer
    conv 9 s1               square filter 9x9, stride 1x1
    pool 2x3 s2x1           per-axis filter and stride
    conv 9 s1 c64           optional trailing channel count
    # comment to end of line; blank lines are fine

Manifest (.toml files), TOML read by the standard library's tomllib, an
array of layer tables, as [[layer]] sections or inline; scalar filter/stride
fill both axes:

    name = "chain11"
    direction = "conv"      # or "deconv"

    [[layer]]
    kind = "conv"
    filter = 9              # or [9, 9]
    stride = 1              # or [1, 1]
    channels_out = 64       # optional

Unknown manifest keys and tables warn (ManifestWarning) but do not fail. A
TOML syntax error is placed at tomllib's line and column; any other manifest
finding points at line 1, and one about a layer names it ("layer 2: ...").
Every hard failure raises ParseError carrying positioned diagnostics; no
input text crashes the parsers.
"""

from __future__ import annotations

import os
import re
import sys
import warnings
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


_KINDS = {kind.value: kind for kind in LayerKind}  # the one kind lookup of both parsers
_TOKEN = re.compile(r"\S+")
_SIZE = re.compile(r"(\d+)(?:x(\d+))?")
_STRIDE = re.compile(r"s(\d+)(?:x(\d+))?")
_CHANNELS = re.compile(r"c(\d+)")


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
    # Layer lines (comment stripped) mapped to the record built for each: a
    # repeated line reuses its immutable LayerSpec. A line that yields a layer
    # yields no diagnostic, so a repeat skipped here hides none.
    seen: dict[str, LayerSpec] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip("\r")
        layer = seen.get(line)
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

        if word not in _KINDS:
            diagnostics.append(
                ParseDiagnostic(lineno, column, f"unknown layer kind {word!r}")
            )
            continue

        layer = _parse_dsl_layer(tokens, lineno, diagnostics)
        if layer is not None:
            layers.append(layer)
            seen[line] = layer

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
    kind = _KINDS[tokens[0][0]]
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


_LAYER_KEYS = ("kind", "filter", "stride", "channels_out")  # all but the last required


def parse_manifest(text: str) -> NetworkSpec:
    """Parse manifest text into a NetworkSpec; raises ParseError on a TOML
    syntax error or a missing or ill-typed key. Unknown keys only warn."""
    import tomllib  # only manifests need it, so it stays off the start-up path

    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        # The message ends "(at line L, column C)" or "(at end of document)".
        message, _, where = str(exc).rpartition(" (at ")
        line, column = text.count("\n") + 1, len(text) - text.rfind("\n")
        if where.startswith("line "):
            line, column = (int(part.split()[-1]) for part in where.rstrip(")").split(","))
        raise ParseError([ParseDiagnostic(line, column, message)]) from None
    except ValueError:  # a decimal literal past int()'s digit limit
        raise ParseError([_too_long(text, tomllib)]) from None
    except RecursionError:  # tomllib recurses once per nested array or inline table
        raise ParseError([ParseDiagnostic(1, 1, "nesting too deep")]) from None

    # The parsed document keeps no positions, so every finding below points
    # at line 1; one about a layer names it by its number.
    unknown = [key for key in document if key not in ("name", "direction", "layer")]
    found = [ParseDiagnostic(1, 1, f"unknown key {key!r}", "warning") for key in unknown]
    name = document.get("name", "")
    if type(name) is not str:
        found.append(ParseDiagnostic(1, 1, f"name must be a string, got {name!r}"))
    label = document.get("direction", "conv")
    if label not in ("conv", "deconv"):
        found.append(ParseDiagnostic(1, 1, f"direction must be 'conv' or 'deconv', got {label!r}"))
    tables = document.get("layer", [])
    if type(tables) is not list or any(type(table) is not dict for table in tables):
        found.append(ParseDiagnostic(1, 1, "'layer' must be an array of tables"))
        tables = []

    layers = []
    for position, table in enumerate(tables, start=1):
        unknown = [f"unknown key {key!r}" for key in table if key not in _LAYER_KEYS]
        problems = [f"missing key {key!r}" for key in _LAYER_KEYS[:3] if key not in table]
        kind = table.get("kind", "conv")
        if kind not in ("conv", "pool"):
            problems.append(f"unknown layer kind {kind!r}")
        size, stride = _int_pair(table.get("filter", 1)), _int_pair(table.get("stride", 1))
        problems += [
            f"{key!r} must be an integer or a two-integer list, got {table[key]!r}"
            for key, pair in (("filter", size), ("stride", stride))
            if pair is None
        ]
        channels = table.get("channels_out")
        if channels is not None and type(channels) is not int:
            problems.append(f"'channels_out' must be an integer, got {channels!r}")
        for level, messages in (("warning", unknown), ("error", problems)):
            found += [ParseDiagnostic(1, 1, f"layer {position}: {m}", level) for m in messages]
        if not problems:
            layers.append(LayerSpec(_KINDS[kind], size, stride, channels))

    if not layers and not any(d.severity == "error" for d in found):
        found.append(ParseDiagnostic(1, 1, "no layers defined"))
    if any(d.severity == "error" for d in found):
        raise ParseError(found)
    for diagnostic in found:
        warnings.warn(f"{diagnostic}", ManifestWarning, stacklevel=2)
    return NetworkSpec(name=name, direction=Direction(label), layers=tuple(layers))


def _int_pair(value: object) -> tuple[int, int] | None:
    # bool is an int subclass, so types are matched exactly
    if type(value) is int:
        return value, value
    if type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is int:
        return value[0], value[1]
    return None


def _too_long(text: str, tomllib) -> ParseDiagnostic:
    """The over-long decimal literal that stopped tomllib: the first run of too
    many digits that still fails so when the text is cut just after it."""
    for run in re.finditer(r"(?<![0-9_])[0-9][0-9_]*(?![0-9_.eE])", text):
        digits = len(run.group().replace("_", ""))
        if digits > sys.get_int_max_str_digits():
            try:
                tomllib.loads(text[: run.end()])
            except (tomllib.TOMLDecodeError, RecursionError):
                pass
            except ValueError:
                start = run.start()
                line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
                return ParseDiagnostic(line, column, f"integer too long ({digits} digits)")
    return ParseDiagnostic(1, 1, "integer too long")


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


def load_network(path: str | os.PathLike[str]) -> NetworkSpec:
    """Read an architecture file, dispatching on extension (.toml = manifest)."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as exc:
        raise ParseError([_undecodable(exc.object, exc.start)]) from None
    if os.path.splitext(path)[1] == ".toml":
        return parse_manifest(text)
    return parse_dsl(text)


def _undecodable(data: bytes, start: int) -> ParseDiagnostic:
    """Point at data[start], the first byte that is not valid UTF-8."""
    line_start = data.rfind(b"\n", 0, start) + 1
    column = len(data[line_start:start].decode("utf-8", "replace")) + 1
    message = f"not valid UTF-8 (byte 0x{data[start]:02x})"
    return ParseDiagnostic(data.count(b"\n", 0, start) + 1, column, message)

"""Benchmark workloads: seeded input files, the fieldscope argv lists run on
them, and a check of every output against reference answers computed here.

The references are written out from the paper's arithmetic and never call
fieldscope, so a change that breaks a calculator or the oracle shows up as a
failed operation instead of as a faster run. Checks read result values only
(numbers, the PASS/FAIL verdict, the exit code), never warning or note text.

Why each workload exists:

* deep-chain: 3000 stride-1 layers on the closed-form path (analyze, topdown,
  footprint). The oracle is never called; validation, parsing and rendering
  carry the cost, and every value stays far below the 64-bit cap.
* long-topdown: topdown and footprint at the top of a 30000-layer stride-1
  chain. Validation runs twice per command here, so parsing, the top-down
  recurrence and rendering carry the cost that deep-chain's analyze hides.
* random-stream: sixteen `verify --random` streams of 1250 short chains
  each, generated inside fieldscope and never parsed, so the fixed cost per
  network dominates. A process's peak RSS follows the largest chain it
  draws, so the run reports the median over many short streams.
* dense-span: 10 x conv 11 s4, whose influence sets have no gaps, so the
  oracle's cardinality equals its span (3.5e6 per axis).
* gapped-span: 13 x conv 3 s4, where stride exceeds filter: the span is
  4.5e7 but only 1.6e6 positions are wired. Set-based oracle cost follows
  cardinality and bitset cost follows span, so this separates the two from
  dense-span.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Returns None when the output is right, otherwise what is wrong with it.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Command:
    """One fieldscope invocation: subcommand name, argv after the program, check."""

    kind: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    """A named set of commands. The last one also runs once under
    tracemalloc, so it is a cheap one that crosses every layer the
    workload exercises."""

    name: str
    commands: tuple[Command, ...]
    sizes: dict[str, int]


DEEP_LAYERS = 3000
DEEP_MAX_FILTER = 5
LONG_LAYERS = 30000
RANDOM_TRIALS = 1250
RANDOM_STREAMS = 16
DENSE = (10, 11, 4)  # layers, filter, stride
GAPPED = (13, 3, 4)


def _reference_erfs(filters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Stride-1 ERF per layer, 1 + sum of (f - 1), for layers 1..n."""
    erfs = []
    h = w = 1
    for fh, fw in filters:
        h += fh - 1
        w += fw - 1
        erfs.append((h, w))
    return erfs


def _reference_topdown(filters: list[tuple[int, int]]) -> tuple[int, int]:
    """Window of one top-layer neuron on the input, widened layer by layer
    from the top with r -> (r - 1) * s + f (s = 1 here)."""
    h = w = 1
    for fh, fw in reversed(filters):
        h = (h - 1) + fh
        w = (w - 1) + fw
    return (h, w)


def _cell(pair: tuple[int, int]) -> str:
    return f"{pair[0]}x{pair[1]}"


def _exit_zero(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}, expected 0"


def _table_rows(text: str, first_header: str) -> list[list[str]]:
    """Whitespace-split rows of the first table whose header starts with
    first_header, up to the next blank line."""
    lines = text.splitlines()
    for start, line in enumerate(lines):
        if line.split()[:1] == [first_header]:
            rows = []
            for row in lines[start + 1 :]:
                if not row.strip():
                    break
                rows.append(row.split())
            return rows
    return []


def _check_analyze_json(filters: list[tuple[int, int]]) -> Check:
    erfs = [list(pair) for pair in _reference_erfs(filters)]
    # Boundary k feeds layer k + 1; with stride 1 its only PF size is that filter.
    pf_sizes = [[list(pair)] for pair in filters]

    def check(code: int, out: str) -> str | None:
        if problem := _exit_zero(code):
            return problem
        try:
            payload = json.loads(out)
            got_erfs = [layer["erf"] for layer in payload["layers"]]
            got_pf = [row["sizes"] for row in payload["pf"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable analyze JSON: {exc!r}"
        if got_erfs != erfs:
            return "analyze --format json: ERF column differs from 1 + sum(f - 1)"
        if got_pf != pf_sizes:
            return "analyze --format json: PF sizes differ from the next layer's filter"
        return None

    return check


def _check_analyze_table(filters: list[tuple[int, int]]) -> Check:
    erfs = [_cell(pair) for pair in _reference_erfs(filters)]

    def check(code: int, out: str) -> str | None:
        if problem := _exit_zero(code):
            return problem
        got = [row[-1] for row in _table_rows(out, "layer")]
        if got != erfs:
            return "analyze table: extent column differs from 1 + sum(f - 1)"
        return None

    return check


def _check_topdown(filters: list[tuple[int, int]]) -> Check:
    expected = ["0", _cell(_reference_topdown(filters))]

    def check(code: int, out: str) -> str | None:
        if problem := _exit_zero(code):
            return problem
        rows = _table_rows(out, "layer")
        if not rows or rows[-1] != expected:
            return f"topdown: final row {rows[-1:]}, expected {expected}"
        return None

    return check


def _check_footprint(filters: list[tuple[int, int]]) -> Check:
    expected = str(_reference_erfs(filters)[-1][0])

    def check(code: int, out: str) -> str | None:
        if problem := _exit_zero(code):
            return problem
        lines = out.split()
        if not lines or lines[-1] != expected:
            return f"footprint: input-level height {lines[-1:]}, expected {expected}"
        return None

    return check


def _check_pass(code: int, out: str) -> str | None:
    if problem := _exit_zero(code):
        return problem
    tokens = out.split()
    if not tokens or tokens[-1] != "PASS":
        return f"verdict {tokens[-1:]}, expected PASS"
    return None


def _check_span_verify(layers: int, span: int, cardinality: int) -> Check:
    def check(code: int, out: str) -> str | None:
        if problem := _check_pass(code, out):
            return problem
        rows = {row[0]: row for row in _table_rows(out, "layer")}
        row = rows.get(str(layers))
        # layer, bottom-up, top-down, oracle-span, oracle-card, match
        want = [str(layers)] + [_cell((span, span))] * 3 + [_cell((cardinality, cardinality))]
        if row is None or row[:5] != want:
            return f"verify: layer {layers} row {row}, expected {want}"
        return None

    return check


def _stride1_chain(name: str, layers: int, seed: int, directory: Path):
    """Seeded stride-1 chain: (kinds, filters, path of its .net file)."""
    rng = random.Random(seed)
    kinds = [rng.choice(("conv", "pool")) for _ in range(layers)]
    filters = [(rng.randint(1, DEEP_MAX_FILTER), rng.randint(1, DEEP_MAX_FILTER)) for _ in range(layers)]
    dsl = [f"network {name}"] + [f"{k} {_cell(f)} s1" for k, f in zip(kinds, filters)]
    net = directory / f"{name}.net"
    net.write_text("\n".join(dsl) + "\n")
    return kinds, filters, net


def _closed_form_commands(net: Path, layers: int, filters: list[tuple[int, int]]) -> tuple[Command, ...]:
    top = str(layers)
    return (
        Command("topdown", ("topdown", str(net), "--layer", top), _check_topdown(filters)),
        Command("footprint", ("footprint", str(net), "--layer", top), _check_footprint(filters)),
    )


def _deep_chain(seed: int, directory: Path) -> Workload:
    kinds, filters, net = _stride1_chain("deep-chain", DEEP_LAYERS, seed, directory)
    manifest = ['name = "deep-chain"', 'direction = "conv"']
    for kind, (fh, fw) in zip(kinds, filters):
        manifest += ["", "[[layer]]", f'kind = "{kind}"', f"filter = [{fh}, {fw}]", "stride = 1"]
    toml = directory / "deep-chain.toml"
    toml.write_text("\n".join(manifest) + "\n")
    return Workload(
        name="deep-chain",
        commands=(
            Command("analyze", ("analyze", str(net), "--format", "json"), _check_analyze_json(filters)),
            Command("analyze", ("analyze", str(toml), "--deconv"), _check_analyze_table(filters)),
            *_closed_form_commands(net, DEEP_LAYERS, filters),
        ),
        sizes={
            "layers": DEEP_LAYERS,
            "net_bytes": net.stat().st_size,
            "toml_bytes": toml.stat().st_size,
        },
    )


def _long_topdown(seed: int, directory: Path) -> Workload:
    _, filters, net = _stride1_chain("long-topdown", LONG_LAYERS, seed, directory)
    return Workload(
        name="long-topdown",
        commands=_closed_form_commands(net, LONG_LAYERS, filters),
        sizes={"layers": LONG_LAYERS, "net_bytes": net.stat().st_size},
    )


def _random_stream(seed: int, directory: Path) -> Workload:
    streams = range(seed * RANDOM_STREAMS, (seed + 1) * RANDOM_STREAMS)
    return Workload(
        name="random-stream",
        commands=tuple(
            Command("verify", ("verify", "--random", "--trials", str(RANDOM_TRIALS), "--seed", str(s)), _check_pass)
            for s in streams
        ),
        sizes={"streams": RANDOM_STREAMS, "trials": RANDOM_TRIALS},
    )


def _span_chain(name: str, shape: tuple[int, int, int], gapped: bool):
    layers, f, s = shape
    span = 1 + (f - 1) * (s**layers - 1) // (s - 1)
    # With stride > filter the windows never overlap: f**n wired positions.
    cardinality = f**layers if gapped else span

    def build(seed: int, directory: Path) -> Workload:
        rng = random.Random(seed)
        lines = [f"network {name}"]
        lines += [f"{rng.choice(('conv', 'pool'))} {f} s{s}" for _ in range(layers)]
        path = directory / f"{name}.net"
        path.write_text("\n".join(lines) + "\n")
        return Workload(
            name=name,
            commands=(Command("verify", ("verify", str(path)), _check_span_verify(layers, span, cardinality)),),
            sizes={"layers": layers, "span": span, "cardinality": cardinality},
        )

    return build


BUILDERS = {
    "deep-chain": _deep_chain,
    "long-topdown": _long_topdown,
    "random-stream": _random_stream,
    "dense-span": _span_chain("dense-span", DENSE, gapped=False),
    "gapped-span": _span_chain("gapped-span", GAPPED, gapped=True),
}


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the workload's input files under directory and describe its commands."""
    directory.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, directory)

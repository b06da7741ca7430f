"""fieldscope command line interface.

Exit codes: 0 success or verification pass, 1 verification mismatch,
2 input/parse/usage error, a network too large for the oracle, or output
to a pipe whose reader has gone, 3 arithmetic overflow.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import warnings
from typing import Sequence, TextIO

from . import report
from .arch import InvalidNetworkError, LayerRangeError, NetworkSpec, validate
from .fields import FieldOverflowError, deconv_view, rf_top_down
from .oracle import SpanBudgetError, check_equivalence, random_network
from .parsing import ManifestWarning, ParseError, load_network

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_OVERFLOW = 3

# Widest footprint bar drawn; wider extents print as numbers.
MAX_BAR_WIDTH = 1000


def _fail(message: str) -> None:
    try:
        print(f"fieldscope: {message}", file=sys.stderr)
    except BrokenPipeError:
        _discard(sys.stderr)  # nobody reads stderr any more; the exit code still tells


def _discard(stream: TextIO) -> None:
    """Point a stream whose reader has gone at os.devnull, so that the
    interpreter's flush at exit cannot fail and turn the exit code into 120."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _load_checked(path: str) -> NetworkSpec:
    """Load, surface parse warnings on stderr, and enforce validation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ManifestWarning)
        network = load_network(path)
    for item in caught:
        _fail(f"warning: {item.message}")
    checked = validate(network)
    for index, message in checked.warnings:
        _fail(f"warning: layer {index}: {message}")
    if not checked.ok:
        for index, message in checked.errors:
            _fail(f"error: layer {index}: {message}")
        raise InvalidNetworkError(checked)
    return network


def cmd_analyze(args: argparse.Namespace) -> int:
    network = _load_checked(args.file)
    if args.deconv:
        network = deconv_view(network)
    analysis = report.build_analysis(network)
    if args.format == "json":
        sys.stdout.write(report.render_analysis_json(analysis))
    else:
        sys.stdout.write(report.render_analysis_table(analysis))
    return EXIT_OK


def cmd_topdown(args: argparse.Namespace) -> int:
    network = _load_checked(args.file)
    projection = rf_top_down(network, args.layer)
    if args.format == "json":
        sys.stdout.write(report.render_topdown_json(network, projection))
    else:
        sys.stdout.write(report.render_topdown_table(network, projection))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.random:
        rng = random.Random(args.seed)
        for trial in range(args.trials):
            network = random_network(rng, name=f"trial-{trial}")
            try:
                outcome = check_equivalence(network)
            except SpanBudgetError as exc:
                _fail(f"error: trial {trial} (seed {args.seed}): {exc}")
                return EXIT_INPUT
            if not outcome.passed:
                print(f"mismatch at trial {trial} (seed {args.seed}):")
                sys.stdout.write(report.render_equivalence(outcome))
                return EXIT_MISMATCH
        print(f"{args.trials} random networks verified (seed {args.seed}): PASS")
        return EXIT_OK
    network = _load_checked(args.file)
    outcome = check_equivalence(network)
    sys.stdout.write(report.render_equivalence(outcome))
    return EXIT_OK if outcome.passed else EXIT_MISMATCH


def cmd_footprint(args: argparse.Namespace) -> int:
    network = _load_checked(args.file)
    projection = rf_top_down(network, args.layer)
    sys.stdout.write(report.render_footprint(network, projection, args.max_width))
    return EXIT_OK


def _bar_width(text: str) -> int:
    try:
        width = int(text)
    except ValueError:
        width = 0
    if not 1 <= width <= MAX_BAR_WIDTH:
        raise argparse.ArgumentTypeError(
            f"must be an integer in 1..{MAX_BAR_WIDTH}, got {text[:20]!r}"
        )
    return width


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldscope",
        description="Receptive, effective receptive, and projective field analysis "
        "of convolutional layer chains.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="per-layer field report for a network file")
    analyze.add_argument("file", help="architecture file (.net DSL or .toml manifest)")
    analyze.add_argument("--format", choices=("table", "json"), default="table")
    analyze.add_argument(
        "--deconv", action="store_true", help="analyze the mirrored (deconv) reading"
    )
    analyze.set_defaults(func=cmd_analyze)

    topdown = commands.add_parser(
        "topdown", help="project one layer's window back to the input, layer by layer"
    )
    topdown.add_argument("file")
    topdown.add_argument("--layer", type=int, required=True, metavar="K")
    topdown.add_argument("--format", choices=("table", "json"), default="table")
    topdown.set_defaults(func=cmd_topdown)

    verify = commands.add_parser(
        "verify", help="cross-check closed forms against the connectivity oracle"
    )
    verify.add_argument("file", nargs="?", default=None)
    verify.add_argument("--random", action="store_true", help="verify random networks instead of a file")
    verify.add_argument("--trials", type=int, default=100, metavar="N")
    verify.add_argument("--seed", type=int, default=0, metavar="S")
    verify.set_defaults(func=cmd_verify, usage_error=verify.error)

    footprint = commands.add_parser(
        "footprint", help="ASCII diagram of a layer's projection onto each lower layer"
    )
    footprint.add_argument("file")
    footprint.add_argument("--layer", type=int, required=True, metavar="K")
    footprint.add_argument("--max-width", type=_bar_width, default=120, metavar="W")
    footprint.set_defaults(func=cmd_footprint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            if args.random and args.file is not None:
                args.usage_error("give either a file or --random, not both")
            if not args.random and args.file is None:
                args.usage_error("a file is required unless --random is set")
            if args.random and args.trials < 1:
                args.usage_error("--trials must be >= 1")
    except SystemExit:
        # argparse ignores a failed write of its help or usage text, so a
        # reader that has gone surfaces here, not in the flush at exit
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                _discard(stream)
        raise
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone raises here, not at exit
        return code
    except ParseError as exc:
        for diagnostic in exc.diagnostics:
            if diagnostic.severity == "error":
                _fail(f"error: {diagnostic}")
        return EXIT_INPUT
    except InvalidNetworkError:
        return EXIT_INPUT  # findings already printed by _load_checked
    except LayerRangeError as exc:
        _fail(f"error: {exc}")
        return EXIT_INPUT
    except FieldOverflowError as exc:
        _fail(f"error: {exc}")
        return EXIT_OVERFLOW
    except SpanBudgetError as exc:
        _fail(f"error: {exc}")
        return EXIT_INPUT
    except BrokenPipeError as exc:
        # stdout's reader has gone: every stderr write goes through _fail
        _discard(sys.stdout)
        _fail(f"error: {exc}")
        return EXIT_INPUT
    except OSError as exc:
        _fail(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

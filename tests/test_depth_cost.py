"""Growth of cost with network depth, as a tested property.

Cost is the number of executed lines of fieldscope's own code, counted with
sys.settrace. Wall time drifts too much from host to host to show a trend,
and a line count is exact and repeatable. Only the ratio per doubling is
asserted, never a count, so the different line events of another Python
version do not matter: a linear operation doubles, a quadratic one
quadruples.
"""

from __future__ import annotations

import os
import sys

import pytest

import fieldscope
from fieldscope import (
    NetworkSpec,
    build_analysis,
    check_equivalence,
    erf_bottom_up,
    erf_top_down,
    parse_dsl,
    parse_manifest,
    render_analysis_table,
    render_footprint,
    render_topdown_table,
    rf_top_down,
    validate,
)

SOURCE = os.path.dirname(fieldscope.__file__) + os.sep
DEPTHS = (200, 400, 800)
CHAIN_LINES = ("conv 3 s1", "conv 3x5 s1x1 c8")


def executed_lines(call) -> int:
    """Lines of fieldscope's own code executed by call()."""
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return count_lines

    def enter(frame, event, arg):
        return count_lines if frame.f_code.co_filename.startswith(SOURCE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def _text(n: int) -> tuple[str]:
    return ("\n".join(CHAIN_LINES[i % 2] for i in range(n)) + "\n",)


def _distinct_text(n: int) -> tuple[str]:
    return ("\n".join(f"conv 3 s1 c{i}" for i in range(1, n + 1)) + "\n",)


def _manifest(n: int) -> tuple[str]:
    tables = ['[[layer]]\nkind = "conv"\nfilter = 3\nstride = 1\n'] * n
    return ('name = "deep"\n\n' + "\n".join(tables),)


def _chain(n: int) -> tuple[NetworkSpec]:
    return (parse_dsl(*_text(n)),)


def _top(n: int) -> tuple[NetworkSpec, int]:
    return _chain(n) + (n,)


def _projection(n: int) -> tuple[NetworkSpec, tuple]:
    network, k = _top(n)
    return network, rf_top_down(network, k)


def _report(n: int) -> tuple:
    return (build_analysis(*_chain(n)),)


# operation: (its arguments at depth n, built outside the count; the operation)
OPERATIONS = {
    "parse_dsl-distinct-lines": (_distinct_text, parse_dsl),
    "parse_dsl-repeated-lines": (_text, parse_dsl),
    "parse_manifest": (_manifest, parse_manifest),
    "validate": (_chain, validate),
    "erf_bottom_up": (_chain, erf_bottom_up),
    "erf_top_down": (_chain, erf_top_down),
    "rf_top_down": (_top, rf_top_down),
    "render_topdown_table": (_projection, render_topdown_table),
    "render_footprint": (_projection, render_footprint),
    "render_analysis_table": (_report, render_analysis_table),
    "check_equivalence": (_chain, check_equivalence),
}


def _ratios(counts: list[int]) -> list[float]:
    return [later / earlier for earlier, later in zip(counts, counts[1:])]


@pytest.mark.parametrize(("arguments", "operation"), OPERATIONS.values(), ids=OPERATIONS.keys())
def test_executed_lines_at_most_double_when_the_depth_doubles(arguments, operation):
    counts = []
    for n in DEPTHS:
        args = arguments(n)
        counts.append(executed_lines(lambda: operation(*args)))
    assert all(ratio <= 2.1 for ratio in _ratios(counts)), counts


def test_verify_cost_does_not_grow_with_the_filter():
    networks = [parse_dsl(f"conv {f} s1") for f in (1000, 2000, 4000)]
    counts = [executed_lines(lambda: check_equivalence(network)) for network in networks]
    assert all(ratio <= 1.05 for ratio in _ratios(counts)), counts

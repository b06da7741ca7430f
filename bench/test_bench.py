"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import contextlib
import io

import pytest

import run
import tracing
import workloads


@pytest.fixture(scope="module")
def modules():
    return run.import_fieldscope()[0]


def test_every_tracepoint_resolves_to_the_function_its_span_names(modules):
    for module_name, attr, span_name in tracing.TRACEPOINTS:
        function = getattr(modules[module_name], attr)
        layer, name = span_name.split(".", 1)
        assert function.__module__ == f"fieldscope.{layer}", (module_name, attr)
        assert function.__name__ == name, (module_name, attr)


def _traced_counts(modules, argv: list[str]) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert modules["cli"].main(argv) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    return tracer


def test_seed_validation_counts_on_the_deep_chain(modules, tmp_path):
    workload = workloads.build("deep-chain", 1, tmp_path)
    net = str(tmp_path / "deep-chain.net")
    layers = str(workloads.DEEP_LAYERS)
    for argv, calls in (
        (["analyze", net, "--format", "json"], workloads.DEEP_LAYERS + 2),
        (["topdown", net, "--layer", layers], 2),
    ):
        tracer = _traced_counts(modules, argv)
        validated = [r for r in tracer.spans if r[tracing.NAME] == "arch.validate"]
        assert len(validated) == calls, argv
        assert tracer.counts["validate_layers"] == calls * workloads.DEEP_LAYERS
    assert tracer.counts["topdown_steps"] == workloads.DEEP_LAYERS
    assert workload.sizes["layers"] == workloads.DEEP_LAYERS


def test_uninstall_restores_every_binding(modules):
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.TRACEPOINTS}
    tracer = tracing.Tracer()
    tracer.install(modules)
    tracer.uninstall()
    assert before == {(m, a): getattr(modules[m], a) for m, a, _ in tracing.TRACEPOINTS}


def test_a_missing_name_makes_its_metrics_absent(modules, capsys):
    tracer = tracing.Tracer()
    tracer.install({**modules, "oracle": None})
    tracer.uninstall()
    assert tracer.missing == ["oracle.pf_counts_oracle"]
    assert "oracle.pf_counts_oracle" in capsys.readouterr().err
    assert tracing.absent_metrics(tracer.bound_spans()) == {"oracle.pf_counts_oracle.calls"}


def test_self_times_subtract_children():
    spans = [
        ["cli.main", 0, -1, 0, 100],
        ["arch.validate", 0, 0, 10, 40],
        ["oracle.check_equivalence", 0, 0, 50, 90],
        ["oracle.pf_counts_oracle", 0, 2, 60, 70],
    ]
    seconds = tracing.self_times(spans)
    assert seconds["cli"] == pytest.approx(30e-9)
    assert seconds["arch"] == pytest.approx(30e-9)
    assert seconds["oracle"] == pytest.approx(40e-9)
    assert seconds["oracle.pf_counts_oracle"] == pytest.approx(10e-9)


def test_span_check_rejects_a_cardinality_that_is_not_enumerated(tmp_path):
    workload = workloads.build("gapped-span", 1, tmp_path)
    layers, f, s = workloads.GAPPED
    span = 1 + (f - 1) * (s**layers - 1) // (s - 1)
    row = f"{layers}  {span}x{span}  {span}x{span}  {span}x{span}  {{card}}  ok"
    output = "layer  bottom-up  top-down  oracle-span  oracle-card  match\n{row}\n\noverall: PASS\n"
    check = workload.commands[0].check
    enumerated = f"{f**layers}x{f**layers}"
    assert check(0, output.format(row=row.format(card=enumerated))) is None
    assert check(0, output.format(row=row.format(card=f"{span}x{span}"))) is not None
    assert check(1, output.format(row=row.format(card=enumerated))) is not None

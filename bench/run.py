#!/usr/bin/env python3
"""fieldscope benchmark.

    python3 bench/run.py --workload deep-chain --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's fieldscope commands run as real CLI
processes (``python -m fieldscope`` with this checkout's ``src`` on the
path), one at a time, in passes until ``--seconds`` is used up. It reports
the wall time of the fastest pass, the mean over the workload's commands of
each command's median peak RSS (from each process's own ``wait4`` rusage),
and the median start-up time of a process that only imports
``fieldscope.cli``. Interference from other work on the machine only adds
time, so the fastest pass is the steadier estimate of the program's own
cost: on a shared 2-vCPU host the median pass moved about twice as much
between back-to-back runs as the fastest one. Every command feeds the RSS
mean; a maximum would follow the single largest random network that
random-stream draws, which varies too much from seed to seed.

With ``--trace 1`` the same argv lists go to ``fieldscope.cli.main`` in this
process: untraced and traced passes alternate for half of ``--seconds``,
then the workload's last command runs once more under tracemalloc. It reports
per-layer self times, counts and allocation peaks (see tracing.py); the
spans of the first traced pass are written to bench/out/.

Every output is checked against references computed in workloads.py. The
last line of stdout is the JSON result. The first line gives the run's
context (seed, commit, source digest, Python version, nproc, input sizes);
untraced runs add a line with the fastest wall time of each subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 21  # fewest import-only processes; setup_s is their median
MIN_PASSES = 3


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def source_digest() -> str:
    """sha256 over the package sources, naming the code under test even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fieldscope").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """The checkout's git commit, or None where it is not a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def context(workload: workloads.Workload, args: argparse.Namespace) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sizes": workload.sizes,
    }


def run_child(argv: list[str]) -> tuple[float, int, str, float]:
    """Run one process with SRC on its path: (wall s, exit code, stdout, peak RSS MB)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            # wait4, not RUSAGE_CHILDREN: the latter is a running maximum
            # over every child this process has ever reaped.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, proc.returncode, out.read().decode(errors="replace"), usage.ru_maxrss / 1024


def timed_run(workload: workloads.Workload, seconds: float) -> dict:
    attempted = failed = 0
    setup: list[float] = []

    def import_only() -> None:
        nonlocal attempted, failed
        wall, code, _, _ = run_child([sys.executable, "-c", "import fieldscope.cli"])
        attempted += 1
        if code != 0:
            failed += 1
            print(f"bench: import-only process exited {code}", file=sys.stderr)
        setup.append(wall)

    passes: list[float] = []
    laps: list[float] = []
    per_kind: dict[str, list[float]] = {}
    peak_rss: list[list[float]] = [[] for _ in workload.commands]
    started = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - started + _median(laps) <= seconds:
        lap_start = perf_counter()
        pass_wall = 0.0
        kind_wall: dict[str, float] = {}
        for command, rss_runs in zip(workload.commands, peak_rss):
            # Import-only processes are spread over the whole run, so that
            # setup_s samples the same host conditions as the passes do.
            import_only()
            wall, code, out, rss = run_child([sys.executable, "-m", "fieldscope", *command.argv])
            attempted += 1
            if problem := command.check(code, out):
                failed += 1
                print(f"bench: {' '.join(command.argv)}: {problem}", file=sys.stderr)
            pass_wall += wall
            kind_wall[command.kind] = kind_wall.get(command.kind, 0.0) + wall
            rss_runs.append(rss)
        passes.append(pass_wall)
        laps.append(perf_counter() - lap_start)
        for kind, wall in kind_wall.items():
            per_kind.setdefault(kind, []).append(wall)
    while len(setup) < SETUP_RUNS:
        import_only()

    print(json.dumps({"passes": len(passes), "fastest_s": {k: min(v) for k, v in per_kind.items()}}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": min(passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.fmean(map(_median, peak_rss)), "unit": "MB"},
            "setup_s": {"value": _median(setup), "unit": "s"},
        },
    }


def import_fieldscope() -> tuple[dict, list]:
    """Import the package from SRC under an ``import`` span.

    Returns its layer modules by short name, and the span.
    """
    sys.path.insert(0, str(SRC))
    start = perf_counter_ns()
    import fieldscope.cli  # noqa: F401

    span = ["import.fieldscope", -1, -1, start, perf_counter_ns()]
    if not Path(fieldscope.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported fieldscope from {fieldscope.__file__}, not {SRC}")
    return {name: sys.modules.get(f"fieldscope.{name}") for name in tracing.LAYERS[1:]}, span


def _in_process_pass(commands, tracer: tracing.Tracer, cli) -> tuple[float, int]:
    """Run each command through cli.main; (seconds inside main, failed checks)."""
    failed = 0
    wall = 0.0
    for number, command in enumerate(commands):
        tracer.command = number
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = perf_counter()
            code = cli.main(list(command.argv))
            wall += perf_counter() - started
        if problem := command.check(code, out.getvalue()):
            failed += 1
            print(f"bench: in-process {' '.join(command.argv)}: {problem}", file=sys.stderr)
    return wall, failed


def traced_run(workload: workloads.Workload, seconds: float, spans_path: Path) -> dict:
    modules, import_span = import_fieldscope()
    cli = modules["cli"]
    import_s = (import_span[tracing.END] - import_span[tracing.START]) / 1e9
    tracer = tracing.Tracer()
    attempted = failed = 0
    untraced, traced, self_s, first = [], [], {}, None
    started = perf_counter()
    # Half of the time goes to timing pairs. The memory pass below comes on
    # top; it is longest on dense-span, about 10 s.
    while not traced or perf_counter() - started + untraced[-1] + traced[-1] <= seconds / 2:
        wall, bad = _in_process_pass(workload.commands, tracer, cli)
        untraced.append(wall)
        tracer.install(modules)
        try:
            wall, more_bad = _in_process_pass(workload.commands, tracer, cli)
        finally:
            tracer.uninstall()
        traced.append(wall)
        attempted += 2 * len(workload.commands)
        failed += bad + more_bad
        for name, value in tracing.self_times(tracer.spans).items():
            self_s.setdefault(name, []).append(value)
        if first is None:
            first = (tracer.spans, tracer.counts, tracer.bound_spans())
    spans, counts, bound = first

    # The import span plus every layer's self time must account for the
    # traced wall time; a gap means spans are missing or misnested.
    traced_wall = import_s + traced[0]
    accounted = import_s + sum(self_s[layer][0] for layer in tracing.LAYERS[1:])
    if abs(traced_wall - accounted) > 0.05 * traced_wall:
        failed += 1
        print(f"bench: spans account for {accounted:.4f} s of {traced_wall:.4f} s traced", file=sys.stderr)

    # tracemalloc slows allocation-heavy code about tenfold, so the memory
    # pass runs only the workload's last command, a cheap one that crosses
    # each layer the workload exercises.
    memory = tracing.Tracer(memory=True)
    tracemalloc.start()
    memory.install(modules)
    try:
        _, bad = _in_process_pass(workload.commands[-1:], memory, cli)
    finally:
        memory.uninstall()
        tracemalloc.stop()
    attempted += 1
    failed += bad

    spans_path.write_text(
        json.dumps(
            {
                "fields": ["name", "command", "parent", "start_ns", "end_ns"],
                "commands": [list(c.argv) for c in workload.commands],
                "spans": [import_span] + spans,
            },
            separators=(",", ":"),
        )
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _layer_metrics(import_s, self_s, counts, bound, spans, memory.peak_alloc, untraced, traced),
    }


def _layer_metrics(import_s, self_s, counts, bound, spans, peak_alloc, untraced, traced) -> dict:
    def med(name: str) -> float:
        return _median(self_s.get(name, []))

    def calls(name: str) -> int:
        return sum(1 for record in spans if record[tracing.NAME] == name)

    validate_calls = calls("arch.validate")
    influence = counts["influence_elems"]
    parse_s = med("parsing")
    values = {
        "import.s": (import_s, "s"),
        "cli.self_s": (med("cli"), "s"),
        "parsing.self_s": (parse_s, "s"),
        "parsing.bytes_per_s": (counts["parse_bytes"] / parse_s if parse_s else 0.0, "B/s"),
        "arch.self_s": (med("arch"), "s"),
        "arch.validate.calls": (validate_calls, "count"),
        "arch.validate.layers": (counts["validate_layers"], "count"),
        "arch.validate.calls_per_network": (
            validate_calls / counts["networks"] if counts["networks"] else 0.0,
            "calls/network",
        ),
        "fields.self_s": (med("fields"), "s"),
        "fields.calls": (sum(1 for r in spans if r[tracing.NAME].startswith("fields.")), "count"),
        "fields.rf_top_down.steps": (counts["topdown_steps"], "count"),
        "oracle.self_s": (med("oracle"), "s"),
        "oracle.check_equivalence.calls": (calls("oracle.check_equivalence"), "count"),
        "oracle.pf_counts_oracle.calls": (calls("oracle.pf_counts_oracle"), "count"),
        "oracle.random_network.self_s": (med("oracle.random_network"), "s"),
        "oracle.influence_elems": (influence, "count"),
        "oracle.span_bits": (counts["span_bits"], "count"),
        "oracle.density": (influence / counts["span_bits"] if counts["span_bits"] else 0.0, "ratio"),
        "report.self_s": (med("report"), "s"),
        "report.bytes_out": (counts["bytes_out"], "B"),
        "trace.overhead_s": (_median([t - u for t, u in zip(traced, untraced)]), "s"),
    }
    for layer in tracing.LAYERS[1:]:
        values[f"{layer}.peak_alloc_mb"] = (peak_alloc.get(layer, 0) / 2**20, "MB")
    absent = tracing.absent_metrics(bound)
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
        if name not in absent
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fieldscope benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fieldscope" / "cli.py").is_file():
        print(f"bench: no fieldscope sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT / "inputs")
    print(json.dumps({"context": context(workload, args)}))
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}.json"
        result = traced_run(workload, args.seconds, spans_path)
    else:
        result = timed_run(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

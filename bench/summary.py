#!/usr/bin/env python3
"""Run every workload once untraced and once traced, and print one row per
workload with every end-to-end metric by name and unit, the failed share,
the per-command wall times and each layer's share of traced self time.

    python3 bench/summary.py --seed 1 [--write bench/trajectory/NN-label.json]

--write stores the rows with the seed, commit, source digest, Python
version, nproc and input sizes: one entry of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _invoke(name: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """(context, info, result) lines of one run.py invocation."""
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    info = lines[1] if len(lines) == 3 else {}
    return lines[0]["context"], info, lines[-1]


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(line[i]) for line in [header] + rows) for i in range(len(header))]
    for line in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    rows = {}
    for workload in SPEC["workloads"]:
        name = workload["name"]
        context, info, timed = _invoke(name, args.seed, trace=0)
        _, _, traced = _invoke(name, args.seed, trace=1)
        layer_s = {layer: traced["metrics"][f"{layer}.self_s"]["value"] for layer in tracing.LAYERS[1:]}
        layer_s["import"] = traced["metrics"]["import.s"]["value"]
        total = sum(layer_s.values())
        rows[name] = {
            "sizes": context["sizes"],
            "end_to_end": timed["metrics"],
            "failed_ops": (timed["failed"] + traced["failed"]) / (timed["attempted"] + traced["attempted"]),
            "passes": info["passes"],
            "commands_s": info["fastest_s"],
            "self_share": {layer: value / total for layer, value in layer_s.items()},
            "per_layer": traced["metrics"],
        }

    metrics = [m["name"] for m in SPEC["end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    _print_table(
        ["workload"] + [f"{m} ({units[m]})" for m in metrics] + ["failed_ops", "commands (s)"],
        [
            [name]
            + [f"{row['end_to_end'][m]['value']:.4f}" for m in metrics]
            + [f"{row['failed_ops']:.3f}", " ".join(f"{k}={v:.3f}" for k, v in row["commands_s"].items())]
            for name, row in rows.items()
        ],
    )
    print()
    _print_table(
        ["self-time share"] + list(tracing.LAYERS) + ["oracle.density"],
        [
            [name]
            + [f"{row['self_share'][layer]:.1%}" for layer in tracing.LAYERS]
            + [f"{row['per_layer'].get('oracle.density', {}).get('value', float('nan')):.4f}"]
            for name, row in rows.items()
        ],
    )

    if args.write:
        entry = {
            "seed": args.seed,
            "seconds": SPEC["run_seconds"],
            "commit": context["commit"],
            "source_sha256": context["source_sha256"],
            "python": context["python"],
            "nproc": context["nproc"],
            "workloads": rows,
        }
        args.write.write_text(json.dumps(entry, indent=1) + "\n")
    failed = any(row["failed_ops"] for row in rows.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

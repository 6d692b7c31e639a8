#!/usr/bin/env python3
"""Benchmark one rdawave workload from the root of a source checkout.

    python3 benchmarks/run.py --workload accept-1d --seed 0 --seconds 30 --trace 0

Runs the workload's `rda-wave` subcommands in a closed loop (one client,
BLAS pinned to one thread) for `--seconds`, checks every invocation's
outputs, prints a table of metrics with run facts, and ends with one JSON
line: `correct`, `attempted`, `failed` and the metrics BENCHMARK.json lists
(`end_to_end` with `--trace 0`, `per_layer` with `--trace 1`).
Exit codes: 0 ran (see `correct`), 2 usage error or no program sources.
"""
import argparse
import json
import sys
from pathlib import Path

from rdabench import ROOT, SRC, WORK_DIR, pin_blas

# One closed-loop client on a small box: library threads would only add
# contention noise.
pin_blas()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the full result (all metrics, samples, facts) here")
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rdawave" / "cli.py").is_file():
        sys.stderr.write(f"no rdawave sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from rdabench import checks, runner
    from rdabench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("--seed must be >= 0: it picks nonnegative path seeds\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    spans = WORK_DIR / "spans" / f"{workload.name}.npz"  # the last traced run's
    result = runner.run(workload, args.seed, args.seconds, bool(args.trace),
                        checks.load_references(workload.name), spans_out=spans)

    e2e = runner.end_to_end(result)
    layers = runner.per_layer(result) if result.trace else {}
    repeat = runner.counts_repeat(result) if result.trace else True
    out = sys.stdout
    out.write(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
              f"{len(result.run_s) + len(result.traced_run_s)} sequences, "
              f"{result.attempted} invocations, {result.failed_invocations} failed\n")
    for key, value in result.facts.items():
        out.write(f"  fact {key} = {value}\n")
    out.write(f"  {'metric':<36} {'median':>12} {'tail':>20} {'n':>4}  unit\n")
    for name, m in e2e.items():
        tail = "n/a" if m["tail"] is None else f"p{m['tail'][0]:.0f}={m['tail'][1]:.6g}"
        out.write(f"  {name:<36} {_fmt(m['value']):>12} {tail:>20} {m['n']:>4}  {m['unit']}\n")
    for name, m in layers.items():
        out.write(f"  {name:<36} {_fmt(m['value']):>12} {'':>20} {'':>4}  {m['unit']}\n")
    for target in result.missing_targets:
        out.write(f"  problem: trace target {target} not found in the program\n")
    if not repeat:
        out.write("  problem: per-layer counts differ between traced sequences\n")
    for problem in result.problems:
        out.write(f"  problem: {problem}\n")

    wanted = bench["per_layer"] if result.trace else bench["end_to_end"]
    chosen = layers if result.trace else e2e
    line = {"correct": result.correct and repeat,
            "attempted": result.attempted,
            "failed": result.failed_invocations,
            "metrics": {m["name"]: {"value": chosen[m["name"]]["value"],
                                    "unit": chosen[m["name"]]["unit"]} for m in wanted}}
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "facts": result.facts, "result": line,
            "end_to_end": e2e, "per_layer": layers,
            "samples": {"run_s": result.run_s, "traced_run_s": result.traced_run_s,
                        "setup_s": result.setup_s, **result.samples},
            "problems": result.problems, "missing_trace_targets": result.missing_targets,
        }, indent=1, sort_keys=True) + "\n")
    out.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

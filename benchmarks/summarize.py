#!/usr/bin/env python3
"""Run every workload over several seeds and write `benchmarks/results/BENCH_<label>.json`.

    python3 benchmarks/summarize.py --label seed --runs 10 --traced-runs 2

Run i of every workload uses seed i and BENCHMARK.json's `run_seconds`.
Each run is a fresh `benchmarks/run.py` process; runs of different workloads
are interleaved so a slow stretch of the host hits all of them alike.  For
every metric the file holds the per-run values, their median and quartiles,
and the quartile spread as a share of the median; the printed table marks a
spread above a third of the metric's bound in BENCHMARK.json.  Traced runs,
all on seed 0, give the per-layer medians; their counts must repeat
exactly (some, such as CG iterations and bytes written, depend on the seed).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "run.py"


def _stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _run(workload, seed, seconds, trace, record):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(record.read_text())


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=2)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = ROOT / ".bench_out" / "runs" / args.label
    records.mkdir(parents=True, exist_ok=True)

    runs = {name: {"untraced": [], "traced": []} for name in names}
    for seed in range(args.runs):
        for name in names:
            runs[name]["untraced"].append(
                _run(name, seed, seconds, 0, records / f"{name}-seed{seed}-trace0.json"))
            print(f"{name} seed {seed}: {runs[name]['untraced'][-1]['result']}", flush=True)
    for i in range(args.traced_runs):  # one seed, so every count must repeat exactly
        for name in names:
            runs[name]["traced"].append(_run(name, 0, seconds, 1,
                                             records / f"{name}-trace1-{i}.json"))

    summary = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        untraced, traced = runs[name]["untraced"], runs[name]["traced"]
        e2e = {}
        for metric in untraced[0]["end_to_end"]:
            e2e[metric] = _stats([r["end_to_end"][metric]["value"] for r in untraced])
            e2e[metric]["unit"] = untraced[0]["end_to_end"][metric]["unit"]
            e2e[metric]["samples_per_run"] = [r["end_to_end"][metric]["n"] for r in untraced]
        layers = {}
        for metric in traced[0]["per_layer"] if traced else ():
            values = [r["per_layer"][metric]["value"] for r in traced]
            unit = traced[0]["per_layer"][metric]["unit"]
            layers[metric] = {"median": statistics.median(values), "values": values, "unit": unit}
        counts_repeat = all(
            len({json.dumps(v) for v in layers[m]["values"]}) == 1
            for m in layers if layers[m]["unit"] in ("count", "B"))
        failed = sum(r["result"]["failed"] for r in untraced + traced)
        attempted = sum(r["result"]["attempted"] for r in untraced + traced)
        summary["workloads"][name] = {
            "facts": untraced[0]["facts"], "seeds": [r["seed"] for r in untraced],
            "end_to_end": e2e, "per_layer": layers,
            "traced_counts_repeat": counts_repeat, "attempted": attempted, "failed": failed,
            "problems": sorted({p for r in untraced + traced for p in r["problems"]}),
        }
        ok &= all(r["result"]["correct"] for r in untraced + traced) and counts_repeat
        print(f"\n{name}: {attempted} invocations, {failed} failed, "
              f"traced counts repeat: {counts_repeat}")
        print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  unit")
        for metric, s in e2e.items():
            bound = bounds.get(metric)
            mark = " <-- above bound/3" if bound and metric != "setup_s" \
                and s["spread"] > bound / 3 else ""
            print(f"  {metric:<24} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.3f} {bound if bound else '':>6}  {s['unit']}{mark}")

    out = ROOT / "benchmarks" / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

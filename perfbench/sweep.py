"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/sweep.py --seeds 0-9 --save perfbench/out/sweep.json

A sweep runs perfbench/run.py once per (workload, seed), one run at a time,
and prints each end-to-end metric's median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. A run that exits non-zero or reports a failed check stops the
sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def sweep(spec: dict, workloads: list[str], seeds: list[int], trace: int) -> dict:
    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed its checks:\n{done.stdout}")
            result["seed"] = seed
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    return runs


def summarize(spec: dict, runs: dict) -> None:
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, spr = spread(values)
            bound = next((m["bound"] for m in spec["end_to_end"] if m["name"] == name), None)
            note = "" if bound is None else f"  bound {bound:.2f}  spread/bound {spr / bound:.2f}"
            print(f"  {name:<20} median {med:12.6g}  spread {spr:6.3f}{note}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the collected run results here")
    args = parser.parse_args()
    runs = sweep(spec, args.workloads.split(","), _seeds(args.seeds), args.trace)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    summarize(spec, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

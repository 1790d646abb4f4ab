"""Record the benchmark's gated metrics in BENCH_<label>.json at the repository root.

    python3 scripts/bench_record.py --label 13 --seeds 0,1,2

For every workload of BENCHMARK.json and each seed, one run at a time, it runs
`python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0`
(command and run length from BENCHMARK.json, through perfbench/sweep.py) and
writes each gated end-to-end metric's per-run values and median, with the
environment the runs recorded in their detail files under perfbench/out/:
cores, Python, numpy and its BLAS, and the git commit. A run that exits
non-zero or fails its checks, or runs whose environments differ, stop the
recording before anything is written. A perf change compares its medians with
the previous BENCH file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import sweep  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def record(spec: dict, runs: dict[str, list[dict]]) -> dict:
    """Per workload, each gated metric's unit, per-run values (in seed order)
    and median, from sweep.sweep's run results."""
    workloads = {}
    for workload, results in runs.items():
        entry = {"seeds": [r["seed"] for r in results]}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry[metric["name"]] = {
                "unit": metric["unit"], "runs": values, "median": statistics.median(values)
            }
        entry["cpu_speed_vs_reference"] = [r.get("cpu_speed_vs_reference") for r in results]
        workloads[workload] = entry
    return {"run_seconds": spec["run_seconds"], "workloads": workloads}


def environment(details: list[dict]) -> dict:
    """The environment block that every run's detail file holds, less its seed."""
    envs = [{k: v for k, v in d["environment"].items() if k != "seed"} for d in details]
    for env in envs[1:]:
        if env != envs[0]:
            raise SystemExit(f"the runs' environments differ: {envs[0]} and {env}")
    return envs[0]


def diff_sha256() -> str | None:
    """The sha256 of `git diff HEAD --binary` in the repository, None when empty."""
    git = subprocess.run(
        ["git", "-C", str(ROOT), "diff", "HEAD", "--binary"], capture_output=True, timeout=60
    )
    if git.returncode:
        raise SystemExit(f"git diff failed: {git.stderr.decode(errors='replace').strip()}")
    return hashlib.sha256(git.stdout).hexdigest() if git.stdout else None


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--seeds", default="0", help="e.g. 0,1,2 or 0-2")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error(f"--label must be letters, digits, '_', '.' or '-', got {args.label!r}")
    workloads = [w["name"] for w in spec["workloads"]]
    runs = sweep.sweep(spec, workloads, sweep._seeds(args.seeds), trace=0)
    details = []
    for workload, results in runs.items():
        for result in results:  # each (workload, seed) ran once, so its detail file is its own
            path = OUT / f"{workload}-seed{result['seed']}-trace0.json"
            details.append(json.loads(path.read_text(encoding="utf-8")))
            result["cpu_speed_vs_reference"] = details[-1]["samples"]["cpu_speed_vs_reference"]
    env = {**environment(details), "git_diff_sha256": diff_sha256()}
    doc = {"label": args.label, "environment": env, **record(spec, runs)}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

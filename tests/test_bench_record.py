"""scripts/bench_record.py on canned benchmark result lines; no benchmark runs."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GATED = [m["name"] for m in SPEC["end_to_end"]]


def _line(value, failed=0):
    """A run.py result line whose every gated metric reads value."""
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return json.dumps({"correct": not failed, "attempted": 9, "failed": failed, "metrics": metrics})


def _fake_runs(monkeypatch, lines):
    """Answer each run.py command with lines[(workload, seed)]; returns the commands."""
    commands = []

    def run(cmd, **kwargs):
        commands.append(cmd)
        key = cmd[cmd.index("--workload") + 1], int(cmd[cmd.index("--seed") + 1])
        return subprocess.CompletedProcess(cmd, 0, stdout=f"report\n{lines[key]}\n", stderr="")

    monkeypatch.setattr(bench_record.sweep.subprocess, "run", run)
    return commands


def test_record_keeps_every_runs_value_and_the_median(monkeypatch):
    values = {("score_files", 0): 4300.0, ("score_files", 1): 4400.0,
              ("score_files", 2): 4350.0, ("doc_mrt", 0): 85.0, ("doc_mrt", 1): 83.0}
    commands = _fake_runs(monkeypatch, {key: _line(v) for key, v in values.items()})
    runs = bench_record.sweep.sweep(SPEC, ["score_files"], [0, 1, 2], trace=0)
    runs.update(bench_record.sweep.sweep(SPEC, ["doc_mrt"], [1, 0], trace=0))
    doc = bench_record.record(SPEC, runs)
    assert doc["run_seconds"] == SPEC["run_seconds"] == 30
    score_files, doc_mrt = doc["workloads"]["score_files"], doc["workloads"]["doc_mrt"]
    assert set(score_files) == {"seeds", "cpu_speed_vs_reference", *GATED}
    assert score_files["seeds"] == [0, 1, 2] and doc_mrt["seeds"] == [1, 0]
    assert score_files["work_per_s"] == {
        "unit": "1/s", "runs": [4300.0, 4400.0, 4350.0], "median": 4350.0
    }
    assert doc_mrt["work_ms_p90"] == {"unit": "ms", "runs": [83.0, 85.0], "median": 84.0}
    for cmd in commands:
        assert cmd[: len(SPEC["command"])] == SPEC["command"]
        assert cmd[cmd.index("--seconds") + 1] == "30" and cmd[cmd.index("--trace") + 1] == "0"


def test_a_failed_run_stops_the_recording_before_anything_is_written(monkeypatch):
    first = SPEC["workloads"][0]["name"]  # the sweep's first run fails
    _fake_runs(monkeypatch, {(first, 0): _line(4300.0, failed=1)})
    with pytest.raises(SystemExit, match="failed its checks"):
        bench_record.main(["--label", "failed-run-check"])
    assert not (ROOT / "BENCH_failed-run-check.json").exists()
    with pytest.raises(SystemExit):  # a label that is not a plain file-name part
        bench_record.main(["--label", "../x"])


def test_the_environment_is_the_runs_own_and_must_agree():
    env = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3", "git_sha": "abc"}
    details = [{"environment": {**env, "seed": seed}} for seed in (0, 1, 2)]
    assert bench_record.environment(details) == env
    details[2]["environment"]["numpy"] = "2.5.0"
    with pytest.raises(SystemExit, match="environments differ"):
        bench_record.environment(details)


def test_the_tree_is_named_by_the_sha256_of_its_diff(monkeypatch):
    answers, commands = {"dirty": b"diff --git a/x b/x\n+1\n", "clean": b""}, []

    def git(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=answers[state], stderr=b"")

    monkeypatch.setattr(bench_record.subprocess, "run", git)
    state = "dirty"
    assert bench_record.diff_sha256() == hashlib.sha256(answers["dirty"]).hexdigest()
    state = "clean"
    assert bench_record.diff_sha256() is None
    assert all(cmd[-3:] == ["diff", "HEAD", "--binary"] for cmd in commands)
    monkeypatch.setattr(
        bench_record.subprocess, "run",
        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 128, stdout=b"", stderr=b"not a git repository"),
    )
    with pytest.raises(SystemExit, match="git diff failed: not a git repository"):
        bench_record.diff_sha256()

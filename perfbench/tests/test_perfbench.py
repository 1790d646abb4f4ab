"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import docmrt  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_untraced(name, tmp_path):
    result, detail = bench.run_workload(name, 3, 0.0, False, workloads.TINY, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = bench.json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert detail["metrics"]["failed_ratio"][0] == 0
    assert detail["environment"]["seed"] == 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_traced(name, tmp_path):
    result, detail = bench.run_workload(name, 3, 0.0, True, workloads.TINY, tmp_path)
    assert result["correct"], detail["problems"]
    names = {m["name"] for m in bench.json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == names
    summary = detail["summary"]
    assert summary["nesting_problems"] == []
    assert (tmp_path / f"spans-{name}.tsv").is_file()
    if name == "score_files":
        assert result["metrics"]["model.Decoder.calls"]["value"] == 0
        assert result["metrics"]["sampling.draw_sample_set.calls"]["value"] == 0
        assert result["metrics"]["cli.main.calls"]["value"] > 0


def test_traced_and_untraced_runs_agree_on_heldout_scores(tmp_path):
    _, plain = bench.run_workload("doc_mrt", 5, 0.0, False, workloads.TINY, tmp_path)
    _, traced = bench.run_workload("doc_mrt", 5, 0.0, True, workloads.TINY, tmp_path)
    assert traced["heldout"]["heldout_doc_bleu"] == plain["metrics"]["heldout_doc_bleu"][0]
    assert traced["heldout"]["heldout_doc_ter"] == plain["metrics"]["heldout_doc_ter"][0]


def test_doc_mrt_baselines_are_one_pool_that_every_round_covers(tmp_path):
    sizes = dataclasses.replace(workloads.TINY, setup_repeats=2)
    pools = []
    for seed in (1, 2):
        wl = workloads.make_workload("doc_mrt", seed, sizes, tmp_path)
        for _ in range(sizes.setup_repeats):
            wl.setup()
        pools.append(wl.tasks)
        names = [phase.name for phase in wl.phases()]
        assert [n.split(":")[0] for n in names] == ["b0"] * 3 + ["b1"] * 3
    for k in (0, 1):
        assert (pools[0][k][0].theta == pools[1][k][0].theta).all()
    assert not (pools[0][0][0].theta == pools[0][1][0].theta).all()


def test_child_spans_never_exceed_their_parent(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(tracing.layer_targets(docmrt))
    try:
        wl = workloads.make_workload("doc_mrt", 1, workloads.TINY, tmp_path)
        rec = workloads.Recorder(tracer)
        wl.setup()
        workloads.run_round(rec, wl.phases(), 0)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert tracing.check_nesting(tracer.spans) == []
    assert all(s >= -1e-9 for s in tracing.self_times(tracer.spans))
    assert {s[5] for s in tracer.spans} >= {-1, 0}  # set-up and update requests
    assert not hasattr(docmrt.mrt.finetune, "__wrapped__")  # uninstalled


def test_check_nesting_flags_children_longer_than_parent():
    spans = [
        (0, -1, "mrt.finetune", 0.0, 1.0, 0),
        (1, 0, "model.log_prob_grad", 0.1, 0.7, 0),
        (2, 0, "model.log_prob_grad", 0.45, 0.95, 0),  # overlaps its sibling
        (3, -1, "cli.main", 2.0, 3.0, 1),
        (4, 3, "harness.score_corpus", 1.5, 2.5, 1),  # starts before its parent
    ]
    problems = tracing.check_nesting(spans)
    assert any("children of span 0" in p for p in problems)
    assert any("span 4" in p for p in problems)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4], which holds b [2, 3], then b [5, 6]
    tracer = tracing.Tracer(clock=iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0]).__next__)
    inner = tracer.wrap("b", lambda: None)
    middle = tracer.wrap("a", lambda: inner())
    outer = tracer.wrap("root", lambda: (middle(), inner()))
    outer()
    assert dict(tracer.calls) == {"root": 1, "a": 1, "b": 2}
    assert dict(tracer.self_s) == {"root": 6.0, "a": 2.0, "b": 2.0}
    assert sorted(tracing.self_times(tracer.spans)) == [1.0, 1.0, 2.0, 6.0]


def test_nan_risk_is_counted_as_a_failure(tmp_path, monkeypatch):
    original = docmrt.model.mle_loss_grad
    calls = {"n": 0}

    def faulty(params, batch, max_len):
        loss, grad = original(params, batch, max_len)
        calls["n"] += 1
        return (float("nan") if calls["n"] == 4 else loss), grad

    monkeypatch.setattr(docmrt.model, "mle_loss_grad", faulty)
    result, detail = bench.run_workload("mle_train", 0, 0.0, False, workloads.TINY, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("non-finite risk" in p for p in detail["problems"])
    assert detail["metrics"]["failed_ratio"][0] == pytest.approx(1 / result["attempted"])


@pytest.mark.parametrize("target, error", [("harness", ValueError), ("cli", RuntimeError)])
def test_failing_score_invocations_are_counted_not_fatal(tmp_path, monkeypatch, target, error):
    def broken(*args, **kwargs):
        raise error("injected")

    wl = workloads.make_workload("score_files", 0, workloads.TINY, tmp_path)
    rec = workloads.Recorder()
    wl.setup()
    # cli.main turns a ValueError from score_corpus into exit code 2; any
    # other exception escapes cli.main and is caught by run_round
    if target == "harness":
        monkeypatch.setattr(docmrt.harness, "score_corpus", broken)
    else:
        monkeypatch.setattr(docmrt.cli, "main", broken)
    workloads.run_round(rec, wl.phases(), 0)
    assert rec.failed == len(wl.METRICS) == rec.attempted


def test_score_files_are_seeded_and_aligned(tmp_path):
    a = workloads.generate_score_files(7, 20, 50, tmp_path / "a")
    b = workloads.generate_score_files(7, 20, 50, tmp_path / "b")
    c = workloads.generate_score_files(8, 20, 50, tmp_path / "c")
    for key in a:
        assert a[key].read_text() == b[key].read_text()
    assert a["hyp"].read_text() != c["hyp"].read_text()
    rows = {k: a[k].read_text().splitlines() for k in a}
    assert len({len(v) for v in rows.values()}) == 1
    assert len(set(rows["docid"])) == 20
    lengths = sorted(len(r.split()) for r in rows["ref"])
    assert lengths == sorted(len(r.split()) for r in c["ref"].read_text().splitlines())
    assert lengths[0] == workloads.SCORE_MIN_LEN and lengths[-1] == workloads.SCORE_MAX_LEN


def test_rounds_and_phases_get_distinct_seeds(tmp_path):
    seeds = {workloads.variant_seed(0, r, k) for r in range(-1, 20) for k in range(3)}
    assert len(seeds) == 21 * 3
    assert workloads.variant_seed(0, 2, 1) == workloads.variant_seed(0, 2, 1)
    wl = workloads.make_workload("score_files", 0, workloads.TINY, tmp_path)
    first = wl._files(0, 2)["hyp"].read_text()
    assert wl._files(1, 2)["hyp"].read_text() != first
    assert wl._files(0, 2)["hyp"].read_text() == first


def test_probing_inside_a_call_is_subtracted_and_undone(monkeypatch):
    rec = workloads.Recorder()
    monkeypatch.setattr(workloads, "probe_seconds", lambda: 0.25)
    original = docmrt.metrics.doc_ter
    hyps = [[1, 2, 3], [4, 5]]
    with rec.probing([(docmrt.metrics, "doc_ter")]) as probe_s:
        scores = [docmrt.metrics.doc_ter(hyps, hyps).value for _ in range(25)]
        assert probe_s() == 2 * 0.25  # after the 10th and the 20th call
    assert scores == [0.0] * 25
    assert docmrt.metrics.doc_ter is original
    assert rec.probes[(0, "")] == [0.25, 0.25]
    traced = workloads.Recorder(tracing.Tracer())
    with traced.probing([(docmrt.metrics, "doc_ter")]) as probe_s:
        assert docmrt.metrics.doc_ter is original  # no probes in a traced run
        assert probe_s() == 0.0


def test_times_are_scaled_by_the_probes_of_their_phase():
    rec = workloads.Recorder()
    rec.ops = [("update", 0, "a", 1.0, 0), ("update", 0, "b", 1.0, 0)]
    rec.probes = {(0, "a"): [bench.PROBE_REF_S] * 3, (0, "b"): [2 * bench.PROBE_REF_S] * 3}
    assert [op[3] for op in bench.scaled_ops(rec)] == [1.0, 0.5]
    assert [op[3] for op in bench.scaled_ops(rec, scale=False)] == [1.0, 1.0]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    for var in bench.THREAD_VARS:  # main() pins these; restore them afterwards
        monkeypatch.setenv(var, "1")
    code = bench.main(["--workload", "mle_train", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

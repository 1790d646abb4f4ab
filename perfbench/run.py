"""docmrt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mle_train --seed 0 --seconds 30 --trace 0

Run from the root of a docmrt source tree; the package is imported from its
`src/` directory. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run. Everything above that line is a human-readable report, and the
full result (environment block, checks, sample counts, the workload-specific
metric names) is written to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
TRACE_PAIRS = 3  # untraced/traced round pairs in a traced run
# Usual median time of workloads.probe_seconds() on the reference host, a
# shared 2-core Intel Xeon VM (Python 3.11, numpy 2.4 with OpenBLAS). Reported
# times are scaled to this CPU speed; see scaled_ops().
PROBE_REF_S = 2.5e-3
NOT_APPLICABLE_WAITING = (
    "not applicable: the program is single-threaded and has no queues, "
    "so no work waits for a layer"
)


def import_docmrt():
    """Import docmrt from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "docmrt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no docmrt sources under {src}")
    sys.path.insert(0, str(src))
    import docmrt

    if Path(docmrt.__file__).resolve().parent != (src / "docmrt").resolve():
        raise ImportError(f"docmrt was imported from {docmrt.__file__}, not {src}")
    return docmrt


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "seed": seed,
    }


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_ops(rec, scale: bool = True) -> list[tuple]:
    """rec.ops with every time scaled to the reference CPU speed.

    On a shared host the CPU's speed drifts by tens of percent within
    seconds. A fixed reference loop, timed before, during and after every
    phase, slows down with the host but not with the program; each time is
    multiplied by PROBE_REF_S / (mean probe time of its phase).

    The mean, not the median: the host switches between fast and slow
    stretches of a few tenths of a second, and a phase's work slows down in
    proportion to the share of its time spent in slow stretches. The mean of
    short probes tracks that share; their median jumps from one speed to the
    other once slow stretches pass half of the phase, and overcorrects.
    """
    factor = {key: PROBE_REF_S / statistics.fmean(t) for key, t in rec.probes.items()}
    return [
        (kind, r, phase, seconds * (factor[(r, phase)] if scale else 1.0), lines)
        for kind, r, phase, seconds, lines in rec.ops
    ]


def _rate(ops, kinds: tuple[str, ...], per_line: bool) -> float:
    """Median over rounds of one round's operations (or lines) per second."""
    count: dict[int, float] = {}
    seconds: dict[int, float] = {}
    for kind, r, phase, s, lines in ops:
        if kind in kinds:
            count[r] = count.get(r, 0) + (lines if per_line else 1)
            seconds[r] = seconds.get(r, 0.0) + s
    return statistics.median(count[r] / seconds[r] for r in count)


def _timings(wl, ops) -> dict[str, tuple[float, str]]:
    setup = [s for kind, *_, s, _ in ops if kind == "setup"]
    if wl.name == "score_files":
        # latency samples are the invocations: p50 falls on an n-gram metric,
        # p90 on TER
        latency = [s for kind, *_, s, _ in ops if kind == "score"]
        work = _rate(ops, ("score",), per_line=True)
        ngram = [o for o in ops if o[0] == "score" and o[2] != "ter"]
        eval_rate = _rate(ngram, ("score",), per_line=True)
    else:
        latency = [s for kind, *_, s, _ in ops if kind == "update"]
        work = _rate(ops, ("update",), per_line=False)
        eval_rate = _rate(ops, ("eval",), per_line=True)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (work, "1/s"),
        "work_ms_p50": (1000 * statistics.median(latency), "ms"),
        "work_ms_p90": (1000 * _quantile(latency, 90), "ms"),
        "eval_lines_per_s": (eval_rate, "1/s"),
        "latency_samples": (len(latency), "count"),
    }


def end_to_end(wl, rec) -> tuple[dict, dict]:
    """(gated metrics, workload-specific metrics with units and sample counts).

    Times are per operation, at the reference CPU speed (see scaled_ops);
    rates are medians over rounds and latencies are percentiles over every
    operation of the run. The unscaled values are kept in the full result.
    """
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = _timings(wl, scaled_ops(rec))
    raw = _timings(wl, scaled_ops(rec, scale=False))
    # eval_lines_per_s is not gated: how soon beam search finishes depends on
    # the seed's trained model, so its spread over ten seeds of doc_mrt is 0.14.
    gated = {name: scaled[name] for name in ("setup_s", "work_per_s", "work_ms_p50", "work_ms_p90")}
    gated["peak_rss_mb"] = (rss_mb, "MB")
    named = {"setup_s": gated["setup_s"], "peak_rss_mb": gated["peak_rss_mb"]}
    if wl.name == "score_files":
        named["lines_per_s"] = gated["work_per_s"]
        named["ngram_lines_per_s"] = scaled["eval_lines_per_s"]
        named["invocation_ms_p50"] = gated["work_ms_p50"]
        named["invocation_ms_p90"] = gated["work_ms_p90"]
    else:
        named["updates_per_s"] = gated["work_per_s"]
        named["update_ms_p50"] = gated["work_ms_p50"]
        named["update_ms_p90"] = gated["work_ms_p90"]
        named["eval_sents_per_s"] = scaled["eval_lines_per_s"]
    first = rec.heldout_scores.get(0, {})  # round 0: the same for every run of a seed
    if "heldout_doc_bleu" in first:
        named["heldout_doc_bleu"] = (first["heldout_doc_bleu"], "BLEU")
    if "heldout_doc_ter" in first:
        named["heldout_doc_ter"] = (first["heldout_doc_ter"], "TER")
    named["failed_ratio"] = (rec.failed / max(rec.attempted, 1), "ratio")
    probes = [t for times in rec.probes.values() for t in times]
    samples = {
        "cpu_speed_vs_reference": PROBE_REF_S / statistics.median(probes),
        "probes": len(probes),
        "unscaled": raw,
        "rounds": rec.rounds,
        "timed_operations": len(rec.ops),
        "latency_samples": scaled["latency_samples"][0],
        "setups": sum(1 for op in rec.ops if op[0] == "setup"),
    }
    return gated, {"metrics": named, "samples": samples}


# Per-layer metrics reported by a traced run; (function, count or statistic).
PER_LAYER = {
    "model.mle_loss_grad": ("calls", "self_s", "sentences"),
    "model.log_prob_grad": ("calls", "self_s"),
    "model.Decoder": ("calls", "self_s"),
    "model.Decoder.sample": ("calls", "self_s"),
    "model.beam_decode": ("calls", "self_s", "sentences"),
    "sampling.draw_sample_set": ("calls", "self_s", "samples", "distinct_ratio"),
    "sampling.order_samples": ("self_s",),
    "sampling.build_documents_ordered": ("calls", "self_s"),
    "sampling.build_documents_random": ("calls", "self_s"),
    "metrics.seq_cost": ("calls", "self_s"),
    "metrics.sentence_bleu_smoothed": ("calls", "self_s"),
    "metrics.doc_cost": ("calls", "self_s"),
    "metrics.corpus_bleu": ("calls", "self_s", "pairs"),
    "metrics.ter": ("calls", "self_s"),
    "metrics.doc_ter": ("calls", "self_s", "pairs"),
    "metrics.gleu": ("calls", "self_s", "pairs"),
    "mrt.finetune": ("calls", "self_s"),
    "mrt.doc_mrt_grad": ("calls", "self_s"),
    "harness.make_batches": ("calls", "self_s"),
    "harness.evaluate_corpus": ("calls", "self_s"),
    "harness.decode_corpus": ("self_s",),
    "harness.generate_synthetic_corpus": ("self_s",),
    "harness.train_mle_baseline": ("self_s",),
    "harness.score_corpus": ("calls", "self_s"),
    "textcore.read_document_corpus": ("self_s",),
    "textcore.build_vocab": ("self_s",),
    "cli.main": ("calls", "self_s"),
}


def per_layer(tracer, overhead_s: float, overhead_pct: float) -> dict:
    from tracing import LAYERS

    out = {}
    for name, stats in PER_LAYER.items():
        calls = tracer.calls.get(name, 0)
        for stat in stats:
            if stat == "calls":
                out[f"{name}.calls"] = (calls, "count")
            elif stat == "self_s":
                out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
            elif stat == "distinct_ratio":
                value = tracer.extras.get(f"{name}.{stat}", 0.0) / calls if calls else 0.0
                out[f"{name}.{stat}"] = (value, "ratio")
            else:
                out[f"{name}.{stat}"] = (tracer.extras.get(f"{name}.{stat}", 0), "count")
    layer_s = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (layer_s[layer], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def _phase_of(phase_requests):
    def lookup(request: int) -> str:
        if request < 0:
            return "setup"
        for name, first, last in phase_requests:
            if first <= request <= last:
                return name
        return "unknown"

    return lookup


def prediction(workload: str, by_phase: dict[str, dict[str, float]]) -> list[dict]:
    """Compare the traced attribution with the split the benchmark predicts."""

    def shares(phases):
        total: dict[str, float] = {}
        for phase in phases:
            for name, s in by_phase.get(phase, {}).items():
                total[name] = total.get(name, 0.0) + s
        whole = sum(total.values()) or 1.0
        return {name: s / whole for name, s in total.items()}, total

    checks = []
    if workload == "mle_train":
        share, _ = shares(["mle"])
        top = max(share, key=share.get)
        checks.append({
            "claim": "model.mle_loss_grad dominates mle_train updates",
            "observed": {"model.mle_loss_grad": share.get("model.mle_loss_grad", 0.0),
                         "largest": top},
            "holds": top == "model.mle_loss_grad" and share[top] > 0.5,
        })
    elif workload == "doc_mrt":
        bleu = [p for p in by_phase if p.endswith("one_minus_docbleu")]
        share, _ = shares(bleu)
        bleu_metrics = sum(
            share.get(n, 0.0)
            for n in ("metrics.sentence_bleu_smoothed", "metrics.corpus_bleu",
                      "metrics.seq_cost", "metrics.doc_cost")
        )
        grad = share.get("model.log_prob_grad", 0.0)
        checks.append({
            "claim": "model.log_prob_grad and the metrics BLEU spans share most of "
                     "doc_mrt BLEU updates",
            "observed": {"model.log_prob_grad": grad, "metrics BLEU spans": bleu_metrics},
            "holds": grad + bleu_metrics > 0.5,
        })
        ter = [p for p in by_phase if p.endswith("doc_ter")]
        share, _ = shares(ter)
        ter_share = share.get("metrics.ter", 0.0) + share.get("metrics.doc_ter", 0.0)
        checks.append({
            "claim": "TER dominates doc_mrt TER updates",
            "observed": {"metrics.ter + metrics.doc_ter": ter_share},
            "holds": ter_share > 0.5,
        })
    else:
        share, total = shares([p for p in by_phase if p != "setup"])
        top = max(share, key=share.get)
        modelish = sorted(n for n in total if n.startswith(("model.", "sampling.")))
        checks.append({
            "claim": "metrics.doc_ter dominates score_files",
            "observed": {"metrics.doc_ter": share.get("metrics.doc_ter", 0.0), "largest": top},
            "holds": top == "metrics.doc_ter",
        })
        checks.append({
            "claim": "score_files makes no model or sampling spans",
            "observed": {"model and sampling span names": modelish},
            "holds": not modelish,
        })
    return checks


def trace_summary(workload, tracer, rec, traced_s, untraced_s) -> dict:
    from tracing import check_nesting, self_times

    phase_of = _phase_of(rec.phase_requests)
    by_phase: dict[str, dict[str, float]] = {}
    for (span, self_s) in zip(tracer.spans, self_times(tracer.spans)):
        phase = by_phase.setdefault(phase_of(span[5]), {})
        phase[span[2]] = phase.get(span[2], 0.0) + self_s
    layer_s = tracer.layer_self_s()
    spanned = sum(layer_s.values()) or 1.0
    functions = {
        name: {"calls": tracer.calls[name], "self_s": s, "share": s / spanned}
        for name, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    }
    return {
        "workload": workload,
        "traced_round_s": traced_s,
        "untraced_round_s": untraced_s,
        "overhead_s": traced_s - untraced_s,
        "overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "spans": len(tracer.spans),
        "nesting_problems": check_nesting(tracer.spans)[:10],
        "waiting_time": NOT_APPLICABLE_WAITING,
        "layer_share_of_self_time": {k: v / spanned for k, v in layer_s.items()},
        "layer_self_s": layer_s,
        "functions": functions,
        "self_s_by_phase": by_phase,
        "predicted_split": prediction(workload, by_phase),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes, out_dir: Path):
    """Run one workload; returns (last-line result, full result document)."""
    import docmrt
    import tracing
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make_workload(name, seed, sizes, out_dir / f"work-{name}")
    env = environment(seed)
    if not trace:
        rec = workloads.Recorder()
        # cheap set-ups repeat for a few seconds, so that their median spans
        # more than one fast or slow phase of a shared CPU
        setups = 0
        while setups < sizes.setup_repeats or sum(op[3] for op in rec.ops) < sizes.setup_seconds:
            workloads.run_setup(rec, wl, setups)
            setups += 1
        phases = wl.phases()
        deadline = time.perf_counter() + seconds
        workloads.run_round(rec, phases, 0)
        while time.perf_counter() < deadline:
            workloads.run_round(rec, phases, rec.rounds)
        gated, named = end_to_end(wl, rec)
        detail = {"workload": name, "trace": 0, "environment": env, **named}
    else:
        tracer = tracing.Tracer(clock=workloads.CLOCK)
        rec = workloads.Recorder(tracer)
        tracer.install(tracing.layer_targets(docmrt))
        try:
            workloads.run_setup(rec, wl, 0)
        finally:
            tracer.uninstall()
        phases = wl.phases()
        # Each round runs twice, untraced and then traced, with the same
        # seeds; the overhead is the median difference between the two.
        plain = workloads.Recorder()
        plain.probe_inside = False  # as in the traced rounds
        overheads, untraced_s = [], []
        for index in range(TRACE_PAIRS):
            start = workloads.CLOCK()
            workloads.run_round(plain, phases, index)
            untraced_s.append(workloads.CLOCK() - start)
            tracer.install(tracing.layer_targets(docmrt))
            try:
                start = workloads.CLOCK()
                workloads.run_round(rec, phases, index)
                overheads.append(workloads.CLOCK() - start - untraced_s[-1])
            finally:
                tracer.uninstall()
        rec.attempted += plain.attempted
        rec.failed += plain.failed
        rec.problems += plain.problems
        if plain.heldout_scores != rec.heldout_scores:
            rec.fail(
                f"traced held-out scores {dict(rec.heldout_scores)} differ from "
                f"untraced {dict(plain.heldout_scores)}"
            )
        untraced = statistics.median(untraced_s)
        summary = trace_summary(name, tracer, rec, untraced + statistics.median(overheads), untraced)
        if summary["nesting_problems"]:
            rec.fail(f"span nesting: {summary['nesting_problems'][0]}")
        tracer.write_spans(out_dir / f"spans-{name}.tsv")
        gated = per_layer(tracer, summary["overhead_s"], summary["overhead_pct"])
        detail = {"workload": name, "trace": 1, "environment": env,
                  "heldout": rec.heldout_scores.get(0, {}), "summary": summary}
    detail["attempted"], detail["failed"] = rec.attempted, rec.failed
    detail["attempted_base"] = "optimizer updates + held-out evaluations + score invocations"
    detail["problems"] = rec.problems
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }
    detail["result"] = result
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result, detail


def report(detail: dict) -> str:
    lines = [f"workload {detail['workload']}  trace {detail['trace']}"]
    lines.append("environment " + json.dumps(detail["environment"], sort_keys=True))
    if detail["trace"]:
        s = detail["summary"]
        lines.append(f"tracing overhead {s['overhead_s']:.3f} s ({s['overhead_pct']:.1f} %)")
        for layer, share in sorted(s["layer_share_of_self_time"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<10} {100 * share:6.2f} % of spanned self time")
        for check in s["predicted_split"]:
            verdict = "holds" if check["holds"] else "DEVIATES"
            lines.append(f"  prediction {verdict}: {check['claim']} {check['observed']}")
    else:
        for name, (value, unit) in detail["metrics"].items():
            lines.append(f"  {name:<18} {value:>14.6g} {unit}")
    lines.append(
        f"  failed {detail['failed']} of {detail['attempted']} attempted "
        f"({detail['attempted_base']})"
    )
    lines.extend(f"  problem: {p}" for p in detail["problems"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # one thread; must precede the first numpy import
        os.environ[var] = "1"
    try:
        import_docmrt()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, OUT
    )
    print(report(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

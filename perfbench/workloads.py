"""The three benchmark workloads, driven through docmrt's public API.

Every workload has a set-up step, which builds its inputs from the seed, and
a round: a fixed list of phases. A phase is one `mrt.finetune` call followed
by a held-out evaluation, or one `docmrt score` invocation. Each phase of
each round draws its own seed from (workload seed, round, phase), so rounds
do work of the same shape but never repeat the same samples or files: a
cache inside the library only gains what it would gain on fresh input.
Every operation (an update, an evaluation, a score invocation) is timed from
outside, and the reference probe is timed during every phase. Rounds repeat
until the time budget is spent.

Library functions are always looked up through their module (`mrt.finetune`,
not a local alias) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from docmrt import cli, harness, metrics, model, mrt
from docmrt.metrics import CostKind

WORKLOADS = ("mle_train", "doc_mrt", "score_files")
EVAL_BEAM = 4
DEFAULTS = harness.EXPERIMENT_DEFAULTS
PROBE_GAP_S = 0.02  # update time between reference probes during training
PROBES_AROUND = 3  # reference probes before and after every phase and set-up
PROBE_CALLS = 10  # calls of a probed function between probes inside one operation
# Operations and probes are timed in the process's CPU time, not wall time.
# The measured program runs on one thread and never waits, so its CPU time is
# its wall time minus the stretches in which it was not running: preemption by
# other processes on a shared host and time stolen by the hypervisor. Timed
# with the wall clock, those stretches land on random operations and make the
# latency tail measure the scheduler. CPU time counts every thread of the
# process and kernel time (page faults, file reads), so it hides no work.
CLOCK = time.process_time


@dataclass(frozen=True)
class Sizes:
    """Work per round and input sizes; FULL is the benchmark, TINY the smoke test."""

    train_documents: int  # MLE task, both training workloads
    mle_updates: int  # mle_train: updates per round
    mle_eval_every: int  # mle_train: held-out evaluation cadence, in updates
    baseline_updates: int  # doc_mrt set-up: MLE baseline budget
    baseline_eval_every: int
    finetune_documents: int  # doc_mrt: shifted fine-tuning split
    mrt_updates: int  # doc_mrt: updates per phase (three phases per baseline and round)
    score_documents: int  # score_files: documents in the generated files
    score_lines: int  # score_files: lines in the generated files
    setup_repeats: int  # at least this many set-ups per run (doc_mrt: baselines) ...
    setup_seconds: float  # ... and at least this long; setup_s is their median


FULL = Sizes(
    train_documents=DEFAULTS["train_documents"],
    mle_updates=200,
    mle_eval_every=50,
    baseline_updates=400,
    baseline_eval_every=200,
    finetune_documents=DEFAULTS["finetune_documents"],
    mrt_updates=12,
    score_documents=200,
    score_lines=224,
    setup_repeats=3,
    setup_seconds=3.0,
)

TINY = Sizes(
    train_documents=40,
    mle_updates=6,
    mle_eval_every=3,
    baseline_updates=4,
    baseline_eval_every=2,
    finetune_documents=8,
    mrt_updates=2,
    score_documents=6,
    score_lines=12,
    setup_repeats=1,
    setup_seconds=0.0,
)


class Recorder:
    """Timings, operation counts and failures of one run, kept outside the library."""

    def __init__(self, tracer=None):
        self.clock = CLOCK
        self.tracer = tracer
        self.round = 0  # current round; -1 during set-up
        self.phase = ""  # current phase name
        # one entry per timed operation: (kind, round, phase, seconds, lines);
        # kind is "setup", "update", "eval" or "score"
        self.ops: list[tuple[str, int, str, float, int]] = []
        # (round, phase) -> reference-probe times taken during that phase
        self.probes: dict[tuple[int, str], list[float]] = defaultdict(list)
        self.probe_s = 0.0  # total time of the probes so far
        # probes that run inside library calls (set-ups, score invocations and
        # the training callback); a traced run turns them off, because the
        # spans around them would be charged with their time
        self.probe_inside = tracer is None
        self.rounds = 0
        self.phase_requests: list[tuple[str, int, int]] = []  # (phase, first, last)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.heldout_scores: dict[int, dict[str, float]] = defaultdict(dict)  # by round
        self.request = -1

    def set_request(self, request: int) -> None:
        self.request = request
        if self.tracer is not None:
            self.tracer.request = request

    def timed(self, kind: str, seconds: float, lines: int = 0) -> None:
        self.ops.append((kind, self.round, self.phase, seconds, lines))

    def probe(self, times: int = 1) -> None:
        """Time the reference work; the phase's times are scaled by it."""
        for _ in range(times):
            seconds = probe_seconds()
            self.probes[(self.round, self.phase)].append(seconds)
            self.probe_s += seconds

    @contextlib.contextmanager
    def probing(self, targets: list[tuple[object, str]]):
        """Probe after every PROBE_CALLS-th call of the target functions.

        A set-up or a score invocation is one long call into the library, so
        probes around it cannot see the host's speed while it runs. These
        probes, spread over its duration, can. The functions' arguments and
        results pass through untouched. Yields a callable that returns the
        probe time so far, which the caller subtracts from the operation.
        """
        start = self.probe_s
        if not self.probe_inside:
            yield lambda: 0.0
            return
        originals = [(owner, name, getattr(owner, name)) for owner, name in targets]
        calls = [0]

        def probed(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[0] += 1
                if calls[0] % PROBE_CALLS == 0:
                    self.probe()
                return result

            return call

        for owner, name, fn in originals:
            setattr(owner, name, probed(fn))
        try:
            yield lambda: self.probe_s - start
        finally:
            for owner, name, fn in originals:
                setattr(owner, name, fn)

    def heldout(self, name: str, value: float) -> None:
        self.heldout_scores[self.round][name] = value

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def variant_seed(seed: int, round_index: int, phase_index: int) -> int:
    """The seed of one phase of one round; set-up uses round -1."""
    state = np.random.SeedSequence([seed, round_index + 1, phase_index]).generate_state(1)
    return int(state[0] >> 1)


def _score_problem(name: str, value: float) -> str | None:
    """BLEU and GLEU lie in [0, 1]; TER is non-negative."""
    ok = math.isfinite(value) and value >= 0.0
    if name != "ter":
        ok = ok and value <= 1.0
    return None if ok else f"held-out {name} out of range: {value!r}"


def _check_scores(rec: Recorder, scores: dict[str, float]) -> None:
    """One evaluation is one operation: it fails at most once."""
    problems = [p for p in (_score_problem(k, v) for k, v in scores.items()) if p]
    if problems:
        rec.fail("; ".join(problems))


def _eval_decode(rec: Recorder, params, corpus) -> dict[str, float]:
    """Beam-decode a held-out corpus and score it with all three metrics."""
    start = rec.clock()
    hyps = harness.decode_corpus(params, corpus, EVAL_BEAM, DEFAULTS["max_len"])
    refs = [e[1] for e in corpus.entries]
    srcs = [e[0] for e in corpus.entries]
    scores = {
        "bleu": metrics.corpus_bleu(hyps, refs).value,
        "ter": metrics.doc_ter(hyps, refs).value,
        "gleu": metrics.gleu(hyps, srcs, refs).value,
    }
    rec.timed("eval", rec.clock() - start, len(corpus))
    rec.attempted += 1
    _check_scores(rec, scores)
    return scores


def _train(rec: Recorder, params0, corpus, cfg, every=0, eval_fn=None):
    """Run mrt.finetune, timing each update from outside through its callback.

    finetune calls the callback once after every update (eval_every=1); the
    time the callback spends in held-out evaluation and in the reference
    probe is excluded from the update latencies. Returns the trained
    parameters.
    """
    rec.set_request(rec.request + 1)  # request id = global update index
    state = {"last": rec.clock(), "n": 0, "score": 0.0, "unprobed": 0.0}

    def after_update(params):
        seconds = rec.clock() - state["last"]
        rec.timed("update", seconds)
        state["n"] += 1
        state["unprobed"] += seconds
        if every and eval_fn is not None and state["n"] % every == 0:
            state["score"] = eval_fn(params)
        if rec.probe_inside and state["unprobed"] >= PROBE_GAP_S:
            rec.probe()
            state["unprobed"] = 0.0
        rec.set_request(rec.request + 1)
        state["last"] = rec.clock()
        return state["score"]

    params, log = mrt.finetune(params0, corpus, cfg, eval_every=1, eval_fn=after_update)
    rec.set_request(rec.request - 1)  # what follows belongs to the last update
    rec.attempted += len(log)
    bad = {r["update"] for r in log if not math.isfinite(r["risk"])}
    for update in sorted(bad):
        rec.fail(f"{cfg.mode}: non-finite risk at update {update}")
    if log and not np.all(np.isfinite(params.theta)) and log[-1]["update"] not in bad:
        rec.fail(f"{cfg.mode}: non-finite parameters after the last update")
    return params


def _task(seed: int, sizes: Sizes) -> harness.TaskSpec:
    """The EXPERIMENT_DEFAULTS baseline task."""
    return harness.TaskSpec(
        vocab_size=DEFAULTS["vocab_size"],
        len_min=DEFAULTS["len_min"],
        len_max=DEFAULTS["len_max"],
        sentences_per_doc=DEFAULTS["sentences_per_doc"],
        num_documents=sizes.train_documents,
        valid_documents=DEFAULTS["valid_documents"],
        test_documents=DEFAULTS["test_documents"],
        rule=DEFAULTS["rule"],
        style_consistency=DEFAULTS["style_consistency"],
        style_weight=DEFAULTS["baseline_style_weight"],
        noise_rate=DEFAULTS["noise_rate"],
        seed=seed,
    )


def _mle_config(seed: int, updates: int) -> mrt.TrainConfig:
    return mrt.TrainConfig(
        mode="mle",
        batch_size=DEFAULTS["mle_batch_size"],
        learning_rate=DEFAULTS["mle_learning_rate"],
        accum_steps=DEFAULTS["mle_accum_steps"],
        max_updates=updates,
        seed=seed,
        max_len=DEFAULTS["max_len"],
        batching="random",
    )


@dataclass
class Phase:
    """One unit of a round; run(rec) does the work and records it in rec."""

    name: str
    run: Callable[[Recorder], None]


class MleTrain:
    """mrt.finetune(mode="mle") on the EXPERIMENT_DEFAULTS task, from random init,
    with harness.evaluate_corpus on the valid split at a fixed cadence."""

    name = "mle_train"
    PROBED = [(model, "mle_loss_grad")]  # probed during set-up

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes

    def setup(self) -> None:
        train, valid, _ = harness.generate_synthetic_corpus(_task(self.seed, self.sizes))
        self.train, self.valid = train, valid
        self.params0 = model.init_params(
            DEFAULTS["vocab_size"], DEFAULTS["emb_dim"], DEFAULTS["hidden_dim"], self.seed
        )
        # warm-up: one update and one held-out evaluation, not recorded
        mrt.finetune(self.params0, train, _mle_config(self.seed, 1))
        harness.decode_corpus(self.params0, valid, EVAL_BEAM, DEFAULTS["max_len"])

    def _evaluate(self, rec: Recorder, params) -> float:
        start = rec.clock()
        score = harness.evaluate_corpus(
            params, self.valid, CostKind.ONE_MINUS_DOCBLEU,
            beam=EVAL_BEAM, max_len=DEFAULTS["max_len"], limit_docs=DEFAULTS["valid_documents"],
        ).value
        rec.timed("eval", rec.clock() - start, len(self.valid))
        rec.attempted += 1
        _check_scores(rec, {"bleu": score})
        return score

    def phases(self) -> list[Phase]:
        def run(rec: Recorder) -> None:
            params = _train(
                rec, self.params0, self.train,
                _mle_config(variant_seed(self.seed, rec.round, 0), self.sizes.mle_updates),
                every=self.sizes.mle_eval_every,
                eval_fn=lambda p: self._evaluate(rec, p),
            )
            scores = _eval_decode(rec, params, self.valid)
            for name, value in scores.items():
                rec.heldout(f"heldout_doc_{name}", value)

        return [Phase("mle", run)]


class DocMrt:
    """The doc-MRT protocol of acceptance criteria 8-9 from MLE baselines:
    ordered and random document sampling with 1 - doc-BLEU, then ordered with
    doc-TER, each followed by beam decoding of the shifted test split.

    The tasks and baselines are a fixed pool: set-up k generates task number
    k % sizes.setup_repeats from task seed k and trains its baseline, the same
    for every workload seed. Every round runs the protocol once from each
    baseline built, with sampling and batching seeds drawn from the workload
    seed. The pool is fixed, and every round covers all of it, because the
    cost of a TER update depends on the samples a baseline draws: the mean
    TER update of one fine-tuning run ranged from 32 to 68 ms across
    baselines, and with six baselines drawn from each workload seed the
    run's p90 update latency still moved by 17 % from seed to seed.
    """

    name = "doc_mrt"
    PROBED = [(model, "mle_loss_grad")]  # probed during set-up
    RUNS = (
        ("doc_mrt_ordered", CostKind.ONE_MINUS_DOCBLEU),
        ("doc_mrt_random", CostKind.ONE_MINUS_DOCBLEU),
        ("doc_mrt_ordered", CostKind.DOC_TER),
    )

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.setups = 0
        # k -> (baseline parameters, shifted training split, shifted test split)
        self.tasks: dict[int, tuple] = {}

    def _config(self, mode: str, kind: CostKind, updates: int, seed: int) -> mrt.TrainConfig:
        return mrt.TrainConfig(
            mode=mode,
            cost_kind=kind,
            n_samples=DEFAULTS["n_samples"],
            batch_size=DEFAULTS["mrt_batch_size"],
            accum_steps=DEFAULTS["mrt_accum_steps"],
            learning_rate=DEFAULTS["mrt_learning_rate"],
            tau=DEFAULTS["tau"],
            max_updates=updates,
            seed=seed,
            max_len=DEFAULTS["max_len"],
            batching="document",
        )

    def setup(self) -> None:
        index = self.setups % self.sizes.setup_repeats
        self.setups += 1
        seed = index  # the task seed, independent of the workload seed
        base_task = _task(seed, self.sizes)
        ft_task = dataclasses.replace(
            base_task,
            num_documents=self.sizes.finetune_documents,
            style_weight=DEFAULTS["finetune_style_weight"],
            noise_rate=0.0,
            seed=seed + 1,
            cipher_seed=seed,
        )
        train, valid, _ = harness.generate_synthetic_corpus(base_task)
        ft_train, _, ft_test = harness.generate_synthetic_corpus(ft_task)
        baseline, _ = harness.train_mle_baseline(
            train, valid, DEFAULTS["vocab_size"], DEFAULTS["emb_dim"], DEFAULTS["hidden_dim"],
            _mle_config(seed, self.sizes.baseline_updates),
            eval_every=self.sizes.baseline_eval_every, patience=DEFAULTS["mle_patience"],
        )
        for k, (mode, kind) in enumerate(self.RUNS):  # warm-up, not recorded
            cfg = self._config(mode, kind, 1, variant_seed(seed, -1, k))
            mrt.finetune(baseline, ft_train, cfg)
        self.tasks[index] = (baseline, ft_train, ft_test)

    def phases(self) -> list[Phase]:
        def make(b: int, k: int, mode: str, kind: CostKind) -> Phase:
            name = f"b{b}:{mode}:{kind.value}"

            def run(rec: Recorder) -> None:
                seed = variant_seed(self.seed, rec.round, b * len(self.RUNS) + k)
                cfg = self._config(mode, kind, self.sizes.mrt_updates, seed)
                baseline, ft_train, ft_test = self.tasks[b]
                tuned = _train(rec, baseline, ft_train, cfg)
                scores = _eval_decode(rec, tuned, ft_test)
                if mode == "doc_mrt_ordered" and b == 0:
                    key = "bleu" if kind is CostKind.ONE_MINUS_DOCBLEU else "ter"
                    rec.heldout(f"heldout_doc_{key}", scores[key])

            return Phase(name, run)

        return [
            make(b, k, mode, kind)
            for b in sorted(self.tasks)
            for k, (mode, kind) in enumerate(self.RUNS)
        ]


# score_files input model. Line lengths are uniform over SCORE_MIN_LEN to
# SCORE_MAX_LEN tokens: every length occurs equally often and in every file,
# so TER's steep cost in length weighs the same for every seed and round.
# Words follow Zipf's law (frequency proportional to 1/rank), the usual model
# of word frequencies in text; its frequent words give TER's shift search the
# repeated candidates that text gives it. Hypotheses and sources are
# references with one substitution per 2 tokens, one deletion per 5 and one
# block move, which puts corpus TER near 0.57: about as far from the
# references as the doc_mrt workload's own held-out decodes are (median
# doc-TER over seeds 0-9: 0.58 after 34-update fine-tuning runs from one
# baseline per seed, 0.66 after the 12-update runs from the fixed pool of
# three). Edit positions are fixed by SCORE_SHAPE_SEED, because TER time
# per pair varies with the edit pattern; the seed draws the words, the
# substituted words, the line order and the document boundaries.
SCORE_TYPES = 2000
SCORE_MIN_LEN = 3
SCORE_MAX_LEN = 30
SCORE_SHAPE_SEED = 20200503


def _score_lengths(n: int) -> list[int]:
    return [SCORE_MIN_LEN + i % (SCORE_MAX_LEN - SCORE_MIN_LEN + 1) for i in range(n)]


def _edit(ref: list[str], shape: np.random.Generator, draw) -> list[str]:
    """Edit positions come from `shape`, substituted words from `draw`."""
    out = list(ref)
    n = len(ref)
    for _ in range(n // 2):
        out[int(shape.integers(len(out)))] = draw(1)[0]
    for _ in range(n // 5):
        del out[int(shape.integers(len(out)))]
    if n >= 6:
        size = 1 + n % 3
        i = int(shape.integers(len(out) - size + 1))
        block, rest = out[i : i + size], out[:i] + out[i + size :]
        j = int(shape.integers(len(rest) + 1))
        out = rest[:j] + block + rest[j:]
    return out


def generate_score_files(seed: int, documents: int, lines: int, out_dir: Path) -> dict:
    """Write hyp/ref/src/docid files; every document gets at least one line."""
    if lines < documents:
        raise ValueError("need at least one line per document")
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SCORE_SHAPE_SEED)
    weights = 1.0 / np.arange(1, SCORE_TYPES + 1)
    weights /= weights.sum()

    def draw(k: int) -> list[str]:
        return [f"t{int(x):04d}" for x in rng.choice(SCORE_TYPES, size=k, p=weights)]

    refs = [draw(n) for n in _score_lengths(lines)]
    hyps = [_edit(r, shape, draw) for r in refs]
    srcs = [_edit(r, shape, draw) for r in refs]
    order = rng.permutation(lines)
    extra = rng.multinomial(lines - documents, [1.0 / documents] * documents)
    doc_ids = [d for d in range(documents) for _ in range(1 + int(extra[d]))]
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.txt" for name in ("hyp", "ref", "src", "docid")}
    for name, rows in (("hyp", hyps), ("ref", refs), ("src", srcs)):
        text = "".join(" ".join(rows[k]) + "\n" for k in order)
        paths[name].write_text(text, encoding="utf-8")
    paths["docid"].write_text("".join(f"{d}\n" for d in doc_ids), encoding="utf-8")
    return paths


class ScoreFiles:
    """`docmrt score` through cli.main with --metric bleu, gleu and ter, plus
    --src and --docid, on generated files. Every invocation scores files of
    its own, as separate `docmrt score` processes would."""

    name = "score_files"
    METRICS = ("bleu", "gleu", "ter")
    # probed during set-up and invocations: score_corpus makes one pooled call
    # per document and one for the corpus
    PROBED = [(metrics, "corpus_bleu"), (metrics, "gleu"), (metrics, "doc_ter")]

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed, self.sizes, self.work_dir = seed, sizes, work_dir
        self.lines = sizes.score_lines
        self.documents = sizes.score_documents

    def _files(self, round_index: int, k: int) -> dict:
        return generate_score_files(
            variant_seed(self.seed, round_index, k), self.documents, self.lines,
            self.work_dir / self.METRICS[k],
        )

    def setup(self) -> None:
        self._invoke("bleu", self._files(-1, 0))  # warm-up, not recorded

    def _invoke(self, metric: str, paths: dict) -> tuple[int, Path]:
        out = self.work_dir / f"score-{metric}.json"
        argv = [
            "score", "--hyp", str(paths["hyp"]), "--ref", str(paths["ref"]),
            "--src", str(paths["src"]), "--docid", str(paths["docid"]),
            "--metric", metric, "--out", str(out),
        ]
        return cli.main(argv), out

    def phases(self) -> list[Phase]:
        def make(k: int, metric: str) -> Phase:
            def run(rec: Recorder) -> None:
                paths = self._files(rec.round, k)
                rec.set_request(rec.request + 1)  # request id = invocation index
                with rec.probing(self.PROBED) as probe_s:
                    start = rec.clock()
                    code, out = self._invoke(metric, paths)
                    rec.timed("score", rec.clock() - start - probe_s(), self.lines)
                rec.attempted += 1
                if code != 0:
                    rec.fail(f"score --metric {metric} exited {code}")
                    return
                report = json.loads(out.read_text(encoding="utf-8"))
                problem = _score_problem(metric, report["corpus_score"])
                if len(report["per_document"]) != self.documents:
                    problem = (
                        f"score --metric {metric}: {len(report['per_document'])} "
                        f"per_document entries for {self.documents} doc ids"
                    )
                if problem:
                    rec.fail(problem)
                if metric != "gleu":
                    rec.heldout(f"heldout_doc_{metric}", report["corpus_score"])

            return Phase(metric, run)

        return [make(k, m) for k, m in enumerate(self.METRICS)]


def make_workload(name: str, seed: int, sizes: Sizes, work_dir: Path):
    if name == "mle_train":
        return MleTrain(seed, sizes)
    if name == "doc_mrt":
        return DocMrt(seed, sizes)
    if name == "score_files":
        return ScoreFiles(seed, sizes, work_dir)
    raise ValueError(f"unknown workload {name!r}")


# Reference work for the CPU-speed probe: fixed, and independent of docmrt.
# It mixes the two kinds of work the program does: small numpy products and
# Python loops over tuples and dicts.
_PROBE_X = np.linspace(-1.0, 1.0, 9 * 32).reshape(9, 32)
_PROBE_W = np.linspace(-0.5, 0.5, 32 * 32).reshape(32, 32)
_PROBE_SEQ = tuple(i * 7 % 50 for i in range(300))


def probe_seconds() -> float:
    """Time one pass of the fixed reference work."""
    start = CLOCK()
    for _ in range(3):
        for _ in range(40):
            hidden = np.tanh(_PROBE_X @ _PROBE_W)
            float((hidden.T @ hidden).sum())
        counts: dict[tuple, int] = {}
        for n in (1, 2, 3, 4):
            for i in range(len(_PROBE_SEQ) - n + 1):
                gram = _PROBE_SEQ[i : i + n]
                counts[gram] = counts.get(gram, 0) + 1
    return CLOCK() - start


def run_round(rec: Recorder, phases: list[Phase], index: int) -> None:
    """Run every phase once as round `index`, with reference probes before and
    after each. A phase that raises is counted as one failed operation and the
    round goes on."""
    rec.round = index
    for phase in phases:
        rec.phase = phase.name
        request = rec.request
        rec.probe(PROBES_AROUND)
        try:
            phase.run(rec)
        except Exception:  # a failing operation must not end the run
            rec.attempted += 1
            rec.fail(f"phase {phase.name} raised: {traceback.format_exc(limit=3)}")
            traceback.print_exc(file=sys.stderr)
        rec.probe(PROBES_AROUND)
        rec.phase_requests.append((phase.name, request + 1, rec.request))
    rec.rounds += 1


def run_setup(rec: Recorder, wl, index: int) -> None:
    """Time one set-up of the workload, with reference probes around it."""
    rec.round, rec.phase = -1, f"setup{index}"
    rec.probe(PROBES_AROUND)
    with rec.probing(wl.PROBED) as probe_s:
        start = rec.clock()
        wl.setup()
        rec.timed("setup", rec.clock() - start - probe_s())
    rec.probe(PROBES_AROUND)

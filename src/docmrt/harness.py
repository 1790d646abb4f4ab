"""Synthetic document corpora, batching, corpus scoring, and experiment orchestration.

Every corpus, split and training batch here is a textcore.DocumentBatch.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, model, mrt, textcore
from .metrics import CostKind, MetricScore
from .textcore import DocumentBatch, Sentence, Vocabulary, aligned, at_least

RULE_COPY = 0
RULE_REVERSE = 1
RULE_CIPHER = 2
BASELINE_EVAL_DOCUMENTS = 16  # the validation documents that score a baseline


def task_vocabulary(vocab_size: int) -> Vocabulary:
    """Synthetic surface forms for a generated task's token ids: w004, w005, ..."""
    return Vocabulary(list(textcore.RESERVED_TOKENS) + [f"w{i:03d}" for i in range(4, vocab_size)])


@dataclass
class TaskSpec:
    """Synthetic transduction task over a closed vocabulary.

    Sources are successor runs over the content alphabet from a uniform random
    start token, so sentence order is learnable from the previous output token.
    References apply the transduction rule; with style consistency on, each
    document draws one of two substitution ciphers (variant A with probability
    style_weight) and applies it to every sentence in the document, a
    document-level signal that is invisible per-sentence.
    """

    vocab_size: int = 20
    len_min: int = 3
    len_max: int = 8
    sentences_per_doc: int = 4
    num_documents: int = 200
    valid_documents: int = 16
    test_documents: int = 16
    rule: int = RULE_CIPHER
    style_consistency: bool = False
    style_weight: float = 0.5
    noise_rate: float = 0.0
    seed: int = 0
    # ciphers default to the corpus seed; pin this to share one transduction
    # across differently-seeded corpora (e.g. a shifted fine-tuning split)
    cipher_seed: int | None = None

    def __post_init__(self):
        at_least(5, vocab_size=self.vocab_size)
        counts = ("len_min", "sentences_per_doc", "num_documents", "valid_documents",
                  "test_documents")
        at_least(1, **{name: getattr(self, name) for name in counts})
        at_least(self.len_min, len_max=self.len_max)
        at_least(0, seed=self.seed, cipher_seed=self.cipher_seed or 0)  # None: the corpus seed
        if self.rule not in (RULE_COPY, RULE_REVERSE, RULE_CIPHER):
            raise ValueError(
                f"invalid rule id {self.rule} (expected {RULE_COPY} copy, "
                f"{RULE_REVERSE} reverse or {RULE_CIPHER} cipher)"
            )
        if self.style_consistency and self.rule != RULE_CIPHER:
            raise ValueError("style consistency requires the cipher rule")
        if self.style_consistency:  # two distinct ciphers need two content tokens
            at_least(6, vocab_size=self.vocab_size)
        for name in ("noise_rate", "style_weight"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


def generate_synthetic_corpus(
    task: TaskSpec,
) -> tuple[DocumentBatch, DocumentBatch, DocumentBatch]:
    """Deterministic (train, valid, test) split, disjoint by document.

    Reference noise (random token replacement) applies to the train split only.
    """
    rng = np.random.default_rng(task.seed)
    content = list(range(4, task.vocab_size))
    c = len(content)
    cipher_rng = np.random.default_rng(
        task.seed if task.cipher_seed is None else task.cipher_seed
    )
    cipher_a = cipher_rng.permutation(content)
    cipher_b = cipher_rng.permutation(content)
    while task.style_consistency and np.array_equal(cipher_a, cipher_b):
        cipher_b = cipher_rng.permutation(content)

    def make_split(n_docs: int, noisy: bool) -> DocumentBatch:
        split = DocumentBatch([], [], [])
        for doc_id in range(n_docs):
            cipher = cipher_a
            if task.rule == RULE_CIPHER and task.style_consistency:
                if rng.random() >= task.style_weight:
                    cipher = cipher_b
            for _ in range(task.sentences_per_doc):
                length = int(rng.integers(task.len_min, task.len_max + 1))
                start = int(rng.integers(c))
                src = tuple(content[(start + i) % c] for i in range(length))
                if task.rule == RULE_COPY:
                    ref = src
                elif task.rule == RULE_REVERSE:
                    ref = tuple(reversed(src))
                else:
                    ref = tuple(int(cipher[t - 4]) for t in src)
                if noisy and task.noise_rate > 0:
                    ref = tuple(
                        int(content[rng.integers(c)]) if rng.random() < task.noise_rate else t
                        for t in ref
                    )
                split.sources.append(src)
                split.references.append(ref)
                split.doc_ids.append(doc_id)
        return split

    train = make_split(task.num_documents, noisy=True)
    valid = make_split(task.valid_documents, noisy=False)
    test = make_split(task.test_documents, noisy=False)
    return train, valid, test


def make_batches(
    corpus: DocumentBatch, mode: str, batch_size: int, seed: int
) -> list[DocumentBatch]:
    """Partition the corpus into batches.

    random: global seeded shuffle then chunks of batch_size (short tail kept).
    document: chunks drawn within single documents only, batch order shuffled.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    at_least(1, batch_size=batch_size)
    rng = np.random.default_rng(seed)
    if mode == "random":
        order = rng.permutation(len(corpus)).tolist()
        chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    elif mode == "document":
        chunks = []
        for doc in corpus.documents():
            chunks.extend(doc[i : i + batch_size] for i in range(0, len(doc), batch_size))
        chunks = [chunks[i] for i in rng.permutation(len(chunks))]
    else:
        raise ValueError(f"unknown batching mode {mode!r}")
    return [corpus.lines(chunk) for chunk in chunks]


def decode_corpus(
    params: model.ModelParams, corpus: DocumentBatch, beam: int, max_len: int
) -> list[Sentence]:
    return [model.beam_decode(params, src, beam, max_len)[0].sentence for src in corpus.sources]


def evaluate_corpus(
    params: model.ModelParams,
    corpus: DocumentBatch,
    kind: CostKind,
    beam: int = 4,
    max_len: int = 10,
    limit_docs: int | None = None,
) -> MetricScore:
    """Decode with beam search and score the pooled document metric for kind."""
    if limit_docs is not None:
        corpus = corpus.lines([line for doc in corpus.documents()[:limit_docs] for line in doc])
    hyps = decode_corpus(params, corpus, beam, max_len)
    return metrics.pooled(kind.metric, hyps, corpus.references, corpus.sources)


def baseline_bleu(params: model.ModelParams, valid: DocumentBatch, max_len: int) -> float:
    """Doc-BLEU of a trained or loaded baseline: beam 4, first BASELINE_EVAL_DOCUMENTS."""
    return evaluate_corpus(
        params, valid, CostKind.ONE_MINUS_DOCBLEU, 4, max_len, BASELINE_EVAL_DOCUMENTS
    ).value


def load_baseline(path: str | Path, vocab_size: int) -> model.ModelParams:
    """load_checkpoint, rejecting a model whose vocabulary is not the data's size."""
    params = model.load_checkpoint(path)
    if params.vocab_size != vocab_size:
        raise ValueError(f"checkpoint vocabulary size {params.vocab_size} != data's {vocab_size}")
    return params


def train_mle_baseline(
    train: DocumentBatch,
    valid: DocumentBatch,
    vocab_size: int,
    emb_dim: int,
    hidden_dim: int,
    cfg: mrt.TrainConfig,
    eval_every: int = 100,
    patience: int = 3,
) -> tuple[model.ModelParams, list[dict]]:
    """Train an MLE model from random init until validation doc-BLEU stalls.

    Stops after `patience` consecutive non-improving evaluations or at the
    cfg.max_updates budget, whichever comes first, and returns the best
    checkpoint seen.
    """
    cfg = dataclasses.replace(cfg, mode="mle")
    at_least(1, max_updates=cfg.max_updates, eval_every=eval_every, patience=patience)
    params = model.init_params(vocab_size, emb_dim, hidden_dim, cfg.seed)
    best_params = params.copy()
    best_score = -1.0
    bad_evals = 0
    log: list[dict] = []
    done = 0
    evaluate = lambda p: baseline_bleu(p, valid, cfg.max_len)
    while done < cfg.max_updates:
        chunk = min(eval_every, cfg.max_updates - done)
        chunk_cfg = dataclasses.replace(cfg, max_updates=chunk, seed=cfg.seed + done)
        try:
            params, chunk_log = mrt.finetune(params, train, chunk_cfg, chunk, evaluate)
        except mrt.NonFiniteTraining as exc:  # number the update across chunks
            raise mrt.NonFiniteTraining(exc.update + done, exc.risk) from None
        for rec in chunk_log:
            rec["update"] += done
        log.extend(chunk_log)
        done += chunk
        score = log[-1]["heldout_metric"]
        if score > best_score + 1e-9:
            best_score = score
            best_params = params.copy()
            bad_evals = 0
        else:
            bad_evals += 1
            if bad_evals >= patience:
                break
    return best_params, log


@dataclass
class ExperimentReport:
    """Per-mode held-out scores for one experiment run.

    wall_clock is informational and excluded from the canonical JSON so that
    identical (config, seed) runs serialize byte-for-byte identically.
    """

    config: dict
    seed: int
    baseline_valid_bleu: float
    start_scores: dict
    rows: list[dict]
    wall_clock: float

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        del payload["wall_clock"]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


EXPERIMENT_DEFAULTS: dict = {
    "seed": 0,
    "vocab_size": 20,
    "emb_dim": 16,
    "hidden_dim": 32,
    "max_len": 10,
    "len_min": 3,
    "len_max": 8,
    "sentences_per_doc": 4,
    "train_documents": 2000,
    "valid_documents": 16,
    "test_documents": 32,
    "rule": RULE_CIPHER,
    "style_consistency": True,
    "baseline_style_weight": 0.5,
    "finetune_style_weight": 1.0,
    "finetune_documents": 400,
    "noise_rate": 0.0,
    "mle_learning_rate": 1.0,
    "mle_batch_size": 32,
    "mle_accum_steps": 1,
    "mle_max_updates": 12000,
    "mle_eval_every": 1500,
    "mle_patience": 3,
    "modes": "doc_mrt_ordered,doc_mrt_random",
    "batchings": "document",
    "cost_kind": "one_minus_docbleu",
    "n_samples": 4,
    "mrt_batch_size": 4,
    "mrt_accum_steps": 8,
    "mrt_learning_rate": 0.05,
    "mrt_max_updates": 200,
    "tau": 1.0,
    "alpha": 5e-3,
    "estimator": "raw",
    "baseline_checkpoint": "",
    "save_baseline": "",
    "save_decodes": "",
    "eval_beam": 4,
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; blank lines are ignored, a # at a line's start or after
    whitespace starts a comment, and a key given twice is an error naming both lines."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in first:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first[key]}")
            first[key], out[key] = lineno, value.strip()
    return out


def _coerce(value, like):
    """A setting's value (a config or command-line string) as the type of its
    default like; a setting without a default (None) keeps its value. This is
    the only place such a string becomes a value; any other value must be a path
    for a str, or a number of the setting's kind (an integer is a float), not a bool."""
    if like is None:
        return value
    if isinstance(like, bool):
        if str(value).lower() in ("1", "true", "yes", "on"):
            return True
        if str(value).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(like, (int, float, str)) and not isinstance(value, str):
        kind = {int: numbers.Integral, float: numbers.Real, str: os.PathLike}[type(like)]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"expected {type(like).__name__}, got {value!r}")
    return type(like)(value)  # int, float, str and enums such as CostKind


def resolve_experiment_config(config: dict | str | Path | None) -> dict:
    if config is None:
        config = {}
    elif not isinstance(config, dict):
        config = parse_config_file(config)
    resolved = dict(EXPERIMENT_DEFAULTS)
    for key, value in config.items():
        key = key.replace("-", "_")
        if key not in resolved:
            raise ValueError(f"unknown experiment config key {key!r}")
        try:
            resolved[key] = _coerce(value, EXPERIMENT_DEFAULTS[key])
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return resolved


def run_experiment(config: dict | str | Path | None = None) -> ExperimentReport:
    """Train an MLE baseline, fine-tune each requested mode from it, and score.

    Fine-tuning uses a shifted variant of the task (finetune_style_weight) so
    document-level consistency has headroom over the baseline; held-out
    evaluation decodes the shifted test split with beam search.
    """
    started = time.monotonic()
    cfg = resolve_experiment_config(config)
    seed = cfg["seed"]
    # every setting is validated before any corpus is generated
    at_least(cfg["len_max"], max_len=cfg["max_len"])  # every reference fits
    at_least(1, **{key: cfg[key] for key in ("mle_eval_every", "mle_patience", "eval_beam")})
    if not cfg["baseline_checkpoint"]:  # a loaded baseline trains nothing
        at_least(1, **{key: cfg[key] for key in ("mle_max_updates", "emb_dim", "hidden_dim")})

    def settings(cls, keys: dict[str, str], **fixed):
        """The validated cls whose fields are the settings of their names, or
        the settings keys maps them to, or fixed, each overriding the one before.
        An error about a field (a bound error starts with it) names its config key."""
        names = {f.name: f.name for f in dataclasses.fields(cls) if f.name in cfg} | keys
        values = {field: _coerce(cfg[key], getattr(cls, field)) for field, key in names.items()}
        try:
            return cls(**{**values, **fixed})
        except ValueError as exc:
            field, _, rest = str(exc).partition(" ")
            raise ValueError(f"{names.get(field, field)} {rest}") from None

    base_task = settings(
        TaskSpec, {"num_documents": "train_documents", "style_weight": "baseline_style_weight"}
    )
    ft_task = settings(
        TaskSpec, {"num_documents": "finetune_documents", "style_weight": "finetune_style_weight"},
        noise_rate=0.0, seed=seed + 1, cipher_seed=seed,  # same transduction as the baseline task
    )
    runs = {}  # the modes and batchings whose product is fine-tuned
    for key in ("modes", "batchings"):
        runs[key] = [item.strip() for item in cfg[key].split(",") if item.strip()]
        if not runs[key]:
            raise ValueError(f"{key} must name at least one {key[:-1]}, got {cfg[key]!r}")
    sizes = ("batch_size", "accum_steps")
    schedule = ("learning_rate", "max_updates", *sizes)
    mle_cfg = settings(
        mrt.TrainConfig, {f: "mle_" + f for f in schedule}, mode="mle", batching="random"
    )
    run_cfgs = [  # an mle run takes its batch sizes from the mle_ settings
        settings(
            mrt.TrainConfig,
            {f: ("mle_" if mode == "mle" and f in sizes else "mrt_") + f for f in schedule},
            mode=mode, batching=batching,
        )
        for mode in runs["modes"]
        for batching in runs["batchings"]
    ]
    train, valid, _ = generate_synthetic_corpus(base_task)
    ft_train, _, ft_test = generate_synthetic_corpus(ft_task)

    if cfg["baseline_checkpoint"]:
        baseline = load_baseline(cfg["baseline_checkpoint"], cfg["vocab_size"])
    else:
        baseline, _ = train_mle_baseline(
            train, valid, cfg["vocab_size"], cfg["emb_dim"], cfg["hidden_dim"],
            mle_cfg, eval_every=cfg["mle_eval_every"], patience=cfg["mle_patience"],
        )
    baseline_valid = baseline_bleu(baseline, valid, cfg["max_len"])
    if cfg["save_baseline"]:
        model.save_checkpoint(baseline, cfg["save_baseline"])

    if cfg["save_decodes"]:
        vocab = task_vocabulary(cfg["vocab_size"])
        out_dir = Path(cfg["save_decodes"])
        out_dir.mkdir(parents=True, exist_ok=True)
        # rewritten by every run: a reused directory never keeps another run's references
        textcore.write_document_corpus(ft_test, vocab, out_dir / "test")

    def heldout(name: str, params: model.ModelParams) -> dict:
        """Document BLEU, TER and GLEU of params' decodes of the shifted test
        split, which save_decodes, when set, keeps as name.hyp."""
        hyps = decode_corpus(params, ft_test, cfg["eval_beam"], cfg["max_len"])
        if cfg["save_decodes"]:
            (out_dir / f"{name}.hyp").write_text(
                "".join(textcore.decode(h, vocab) + "\n" for h in hyps), encoding="utf-8"
            )
        return {
            f"doc_{m}": metrics.pooled(m, hyps, ft_test.references, ft_test.sources).value
            for m in metrics.METRICS
        }

    start_scores = heldout("start", baseline)
    rows = []
    for run_cfg in run_cfgs:
        tuned, _ = mrt.finetune(baseline, ft_train, run_cfg)
        row = {"mode": run_cfg.mode, "batching": run_cfg.batching, "cost_kind": cfg["cost_kind"]}
        rows.append({**row, **heldout(f"{run_cfg.mode}_{run_cfg.batching}", tuned)})

    return ExperimentReport(
        config=cfg,
        seed=seed,
        baseline_valid_bleu=baseline_valid,
        start_scores=start_scores,
        rows=rows,
        wall_clock=time.monotonic() - started,
    )


def score_corpus(
    hyp_path: str | Path,
    ref_path: str | Path,
    src_path: str | Path | None = None,
    docid_path: str | Path | None = None,
    metric: str = "bleu",
    pseudo_doc_size: int | None = None,
) -> dict:
    """Corpus-level and per-document scores for parallel text files.

    Token identity is literal whitespace-token equality: each distinct token of
    the files gets an id of its own, interned in one pass (sources only for
    GLEU). Each line's stats are extracted once; each document (every line, given
    no doc ids or pseudo_doc_size) and the corpus are scored from their sum. A
    pseudo_doc_size below 1 is an error even when a doc-id file sets the documents.
    """
    metrics.check_metric(metric)
    if metric == "gleu" and src_path is None:
        raise ValueError("GLEU scoring requires a source file")
    if pseudo_doc_size is not None:
        at_least(1, pseudo_doc_size=pseudo_doc_size)
    hyp_lines, ref_lines = textcore.read_lines(hyp_path), textcore.read_lines(ref_path)
    src_lines = textcore.read_lines(src_path) if src_path is not None else None
    if not any(map(str.strip, hyp_lines + ref_lines + (src_lines or []))):
        raise ValueError("empty corpus")  # no token in any file
    id_lines = textcore.read_lines(docid_path) if docid_path is not None else None
    aligned(hypotheses=hyp_lines, references=ref_lines, sources=src_lines, doc_ids=id_lines)
    if id_lines is None:
        doc_ids = [k // (pseudo_doc_size or len(hyp_lines)) for k in range(len(hyp_lines))]
    else:
        doc_ids = textcore.document_ids(id_lines)
    ids: dict[str, int] = {}

    def intern(lines: list[str]) -> list[Sentence]:
        return [tuple([ids.setdefault(tok, len(ids)) for tok in line.split()]) for line in lines]

    srcs = intern(src_lines) if metric == "gleu" else None
    stats = metrics.line_stats(metric, intern(hyp_lines), intern(ref_lines), srcs)
    documents = textcore.document_ranges(doc_ids)
    sums = np.add.reduceat(stats, [doc.start for doc in documents])
    per_document = []
    for doc, row in zip(documents, sums):
        try:
            value = metrics.score(metric, row)
        except ValueError as exc:
            raise ValueError(f"document {doc_ids[doc.start]}: {exc}") from None
        per_document.append({"doc_id": doc_ids[doc.start], "sentences": len(doc), "score": value})
    return {
        "metric": metric,
        "corpus_score": metrics.score(metric, stats.sum(axis=0)),
        "num_sentences": len(hyp_lines),
        "per_document": per_document,
    }


GRAD_CHECK_THRESHOLDS = {"log_prob": 1e-5, "mle_loss": 1e-5, "exact_risk": 1e-4}
GRAD_CHECK_COORDS = 50
ENUM_CHECK_TOLERANCE = 1e-10


def grad_check(corrupt: bool = False, seed: int = 0) -> dict:
    """Finite-difference checks on log_prob, mle_loss, and exact_risk.

    corrupt=True perturbs one analytic-gradient coordinate by 1e-3 and must
    make the report fail (fault injection for the checker itself).
    """
    at_least(0, seed=seed)
    rng = np.random.default_rng(seed)
    checks = []

    def run(name, fn, grad, theta):
        coords = rng.choice(theta.size, size=min(GRAD_CHECK_COORDS, theta.size), replace=False)
        if corrupt:
            grad = grad.copy()
            checked = [i for i in coords if abs(grad[i]) > 1e-8]
            idx = max(checked, key=lambda i: abs(grad[i]))
            grad[idx] += 1e-3
        err = mrt.fd_gradient_check(fn, grad, theta, coords, eps=1e-4)
        checks.append(
            {
                "name": name,
                "max_rel_err": err,
                "threshold": GRAD_CHECK_THRESHOLDS[name],
                "passed": bool(err < GRAD_CHECK_THRESHOLDS[name]),
            }
        )

    non_eos = [0, 1, 3, 4, 5]
    params = model.init_params(6, 4, 4, seed)
    src = tuple(int(x) for x in rng.choice(non_eos, size=3))
    tgt = tuple(int(x) for x in rng.choice(non_eos, size=3))
    run(
        "log_prob",
        lambda th: model.log_prob(params.like(th), src, tgt, 4),
        model.log_prob_grad(params, src, tgt, 4),
        params.theta,
    )

    batch = DocumentBatch(
        sources=[tuple(int(x) for x in rng.choice(non_eos, size=3)) for _ in range(2)],
        references=[tuple(int(x) for x in rng.choice(non_eos, size=k)) for k in (2, 4)],
        doc_ids=[0, 0],
    )
    _, mle_grad = model.mle_loss_grad(params, batch, 4)
    run(
        "mle_loss",
        lambda th: model.mle_loss_grad(params.like(th), batch, 4)[0],
        mle_grad,
        params.theta,
    )

    small = model.init_params(5, 3, 3, seed + 1)
    risk_batch = DocumentBatch(
        sources=[(4, 3), (0, 4)], references=[(4,), (4, 4)], doc_ids=[0, 0]
    )
    kind = CostKind.ONE_MINUS_DOCBLEU
    run(
        "exact_risk",
        lambda th: mrt.exact_risk(small.like(th), risk_batch, kind, 2),
        mrt.exact_risk_grad(small, risk_batch, kind, 2),
        small.theta,
    )

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


def enum_check(
    trials: int = 20,
    vocab_size: int = 5,
    emb_dim: int = 3,
    hidden_dim: int = 3,
    max_len: int = 3,
    seed: int = 0,
) -> dict:
    """Output-space normalization check over random parameter draws."""
    at_least(1, trials=trials)
    at_least(0, seed=seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        params = model.init_params(vocab_size, emb_dim, hidden_dim, seed + trial)
        src = tuple(int(x) for x in rng.integers(0, vocab_size, size=int(rng.integers(0, 4))))
        space = model.enumerate_output_space(params, src, max_len)
        worst = max(worst, abs(sum(p for _, p in space) - 1.0))
    return {
        "trials": trials,
        "max_deviation": worst,
        "tolerance": ENUM_CHECK_TOLERANCE,
        "passed": bool(worst <= ENUM_CHECK_TOLERANCE),
    }

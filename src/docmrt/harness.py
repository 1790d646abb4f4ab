"""Synthetic document corpora, batching, corpus scoring, and experiment orchestration."""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, model, mrt, textcore
from .metrics import CostKind, MetricScore
from .textcore import DocumentBatch, DocumentCorpus, Sentence, Vocabulary, aligned, at_least

RULE_COPY = 0
RULE_REVERSE = 1
RULE_CIPHER = 2
BASELINE_EVAL_DOCUMENTS = 16  # the validation documents that score a baseline


def surface_token(token_id: int) -> str:
    return f"w{token_id:03d}"


def task_vocabulary(vocab_size: int) -> Vocabulary:
    """Synthetic surface forms for a generated task's token ids."""
    return Vocabulary(
        list(textcore.RESERVED_TOKENS) + [surface_token(i) for i in range(4, vocab_size)]
    )


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

    def validate(self) -> "TaskSpec":
        at_least(5, vocab_size=self.vocab_size)
        counts = ("len_min", "sentences_per_doc", "num_documents", "valid_documents",
                  "test_documents")
        at_least(1, **{name: getattr(self, name) for name in counts})
        at_least(self.len_min, len_max=self.len_max)
        if self.rule not in (RULE_COPY, RULE_REVERSE, RULE_CIPHER):
            raise ValueError(
                f"invalid rule id {self.rule} (expected {RULE_COPY} copy, "
                f"{RULE_REVERSE} reverse or {RULE_CIPHER} cipher)"
            )
        if self.style_consistency and self.rule != RULE_CIPHER:
            raise ValueError("style consistency requires the cipher rule")
        for name in ("noise_rate", "style_weight"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        return self


def generate_synthetic_corpus(
    task: TaskSpec,
) -> tuple[DocumentCorpus, DocumentCorpus, DocumentCorpus]:
    """Deterministic (train, valid, test) split, disjoint by document.

    Reference noise (random token replacement) applies to the train split only.
    """
    task.validate()
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

    def make_split(n_docs: int, noisy: bool) -> DocumentCorpus:
        entries = []
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
                entries.append((src, ref, doc_id))
        return DocumentCorpus(entries)

    train = make_split(task.num_documents, noisy=True)
    valid = make_split(task.valid_documents, noisy=False)
    test = make_split(task.test_documents, noisy=False)
    return train, valid, test


def make_batches(
    corpus: DocumentCorpus, mode: str, batch_size: int, seed: int
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
        order = rng.permutation(len(corpus))
        entries = [corpus.entries[i] for i in order]
        chunks = [entries[i : i + batch_size] for i in range(0, len(entries), batch_size)]
    elif mode == "document":
        chunks = []
        for doc in corpus.documents():
            chunks.extend(doc[i : i + batch_size] for i in range(0, len(doc), batch_size))
        chunks = [chunks[i] for i in rng.permutation(len(chunks))]
    else:
        raise ValueError(f"unknown batching mode {mode!r}")
    return [
        DocumentBatch(
            sources=[e[0] for e in chunk],
            references=[e[1] for e in chunk],
            doc_ids=[e[2] for e in chunk],
        )
        for chunk in chunks
    ]


def decode_corpus(
    params: model.ModelParams, corpus: DocumentCorpus, beam: int, max_len: int
) -> list[Sentence]:
    return [
        model.beam_decode(params, src, beam, max_len)[0].sentence
        for src, _, _ in corpus.entries
    ]


def evaluate_corpus(
    params: model.ModelParams,
    corpus: DocumentCorpus,
    kind: CostKind,
    beam: int = 4,
    max_len: int = 10,
    limit_docs: int | None = None,
) -> MetricScore:
    """Decode with beam search and score the pooled document metric for kind."""
    if limit_docs is not None:
        entries = [e for doc in corpus.documents()[:limit_docs] for e in doc]
        corpus = DocumentCorpus(entries)
    hyps = decode_corpus(params, corpus, beam, max_len)
    refs = [e[1] for e in corpus.entries]
    srcs = [e[0] for e in corpus.entries]
    return metrics.pooled(kind.metric, hyps, refs, srcs)


def baseline_bleu(params: model.ModelParams, valid: DocumentCorpus, max_len: int) -> float:
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
    train: DocumentCorpus,
    valid: DocumentCorpus,
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
    cfg = dataclasses.replace(cfg, mode="mle").validate()
    at_least(1, max_updates=cfg.max_updates, eval_every=eval_every, patience=patience)
    params = model.init_params(vocab_size, emb_dim, hidden_dim, cfg.seed)
    best_params = params.copy()
    best_score = -1.0
    bad_evals = 0
    log: list[dict] = []
    done = 0
    while done < cfg.max_updates:
        chunk = min(eval_every, cfg.max_updates - done)
        chunk_cfg = dataclasses.replace(cfg, max_updates=chunk, seed=cfg.seed + done)
        try:
            params, chunk_log = mrt.finetune(params, train, chunk_cfg)
        except mrt.NonFiniteTraining as exc:  # number the update across chunks
            raise mrt.NonFiniteTraining(exc.update + done, exc.risk) from None
        for rec in chunk_log:
            rec["update"] += done
        log.extend(chunk_log)
        done += chunk
        score = baseline_bleu(params, valid, cfg.max_len)
        log[-1]["heldout_metric"] = score
        if score > best_score + 1e-9:
            best_score = score
            best_params = params.copy()
            bad_evals = 0
        else:
            bad_evals += 1
            if bad_evals >= patience:
                break
    return best_params, log


def _doc_scores(
    hyps: list[Sentence], srcs: list[Sentence], refs: list[Sentence]
) -> dict:
    return {f"doc_{m}": metrics.pooled(m, hyps, refs, srcs).value for m in metrics.METRICS}


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
        payload = {
            "config": self.config,
            "seed": self.seed,
            "baseline_valid_bleu": self.baseline_valid_bleu,
            "start_scores": self.start_scores,
            "rows": self.rows,
        }
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
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _coerce(value, like):
    """A setting's value (a config or command-line string) as the type of its
    default like; a setting without a default (None) keeps its value. This is
    the only place such a string becomes a value."""
    if like is None:
        return value
    if isinstance(like, bool):
        if str(value).lower() in ("1", "true", "yes", "on"):
            return True
        if str(value).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    return type(like)(value)  # int, float, str and enums such as CostKind


def _fields_in(config: dict, cls) -> dict:
    """The settings of config named like fields of the dataclass cls, as their types."""
    names = [f.name for f in dataclasses.fields(cls) if f.name in config]
    return {name: _coerce(config[name], getattr(cls, name)) for name in names}


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
    base_task = TaskSpec(
        **_fields_in(cfg, TaskSpec),
        num_documents=cfg["train_documents"],
        style_weight=cfg["baseline_style_weight"],
    )
    ft_task = dataclasses.replace(
        base_task,
        num_documents=cfg["finetune_documents"],
        style_weight=cfg["finetune_style_weight"],
        noise_rate=0.0,
        seed=seed + 1,
        cipher_seed=seed,  # same transduction as the baseline task
    )
    at_least(cfg["len_max"], max_len=cfg["max_len"])  # every reference fits
    at_least(1, **{key: cfg[key] for key in ("mle_eval_every", "mle_patience", "eval_beam")})
    if not cfg["baseline_checkpoint"]:  # a loaded baseline trains nothing
        at_least(1, mle_max_updates=cfg["mle_max_updates"])

    def validated(settings, keys: dict[str, str]):
        """settings.validate(); an error about a field of keys (a bound error
        starts with its field) names that field's config key instead."""
        try:
            return settings.validate()
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            raise ValueError(f"{keys.get(name, name)} {rest}") from None

    def train_config(rate: str, sizes: str, **fields) -> mrt.TrainConfig:
        """A validated TrainConfig whose learning_rate and max_updates are the
        settings rate + field, and batch_size and accum_steps sizes + field."""
        keys = {field: rate + field for field in ("learning_rate", "max_updates")}
        keys.update({field: sizes + field for field in ("batch_size", "accum_steps")})
        return validated(mrt.TrainConfig(**{f: cfg[k] for f, k in keys.items()}, **fields), keys)

    # both tasks and every training run are validated before any corpus is generated
    for task, documents, style_weight in (
        (base_task, "train_documents", "baseline_style_weight"),
        (ft_task, "finetune_documents", "finetune_style_weight"),
    ):
        validated(task, {"num_documents": documents, "style_weight": style_weight})
    mle_cfg = train_config(
        "mle_", "mle_", mode="mle", seed=seed, max_len=cfg["max_len"], batching="random"
    )
    run_cfgs = [
        train_config(
            "mrt_", "mle_" if mode == "mle" else "mrt_",
            **_fields_in(cfg, mrt.TrainConfig), mode=mode, batching=batching,
        )
        for mode in [m.strip() for m in cfg["modes"].split(",") if m.strip()]
        for batching in [b.strip() for b in cfg["batchings"].split(",") if b.strip()]
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

    test_refs = [e[1] for e in ft_test.entries]
    test_srcs = [e[0] for e in ft_test.entries]
    vocab = task_vocabulary(cfg["vocab_size"])

    def save_decodes(name: str, hyps: list[Sentence]) -> None:
        if not cfg["save_decodes"]:
            return
        out_dir = Path(cfg["save_decodes"])
        out_dir.mkdir(parents=True, exist_ok=True)
        # rewritten every time, so a reused directory never pairs these
        # hypotheses with another run's references
        textcore.write_document_corpus(ft_test, vocab, out_dir / "test")
        (out_dir / f"{name}.hyp").write_text(
            "".join(textcore.decode(h, vocab) + "\n" for h in hyps), encoding="utf-8"
        )

    start_hyps = decode_corpus(baseline, ft_test, cfg["eval_beam"], cfg["max_len"])
    start_scores = _doc_scores(start_hyps, test_srcs, test_refs)
    save_decodes("start", start_hyps)

    rows = []
    for run_cfg in run_cfgs:
        tuned, _ = mrt.finetune(baseline, ft_train, run_cfg)
        hyps = decode_corpus(tuned, ft_test, cfg["eval_beam"], cfg["max_len"])
        row = {"mode": run_cfg.mode, "batching": run_cfg.batching, "cost_kind": cfg["cost_kind"]}
        row.update(_doc_scores(hyps, test_srcs, test_refs))
        rows.append(row)
        save_decodes(f"{run_cfg.mode}_{run_cfg.batching}", hyps)

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

    Token identity is literal whitespace-token equality; a throwaway vocabulary
    over all provided files keeps distinct surface tokens distinct. Each line's
    metric stats are extracted once; every document and the corpus are scored
    from the sum of their lines' stats. A pseudo_doc_size below 1 is an error
    even when a doc-id file sets the documents.
    """
    if metric not in metrics.METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "gleu" and src_path is None:
        raise ValueError("GLEU scoring requires a source file")
    if pseudo_doc_size is not None:
        at_least(1, pseudo_doc_size=pseudo_doc_size)
    hyp_lines, ref_lines = textcore.read_lines(hyp_path), textcore.read_lines(ref_path)
    src_lines = textcore.read_lines(src_path) if src_path is not None else None
    lines = hyp_lines + ref_lines + (src_lines or [])
    distinct = len({tok for line in lines for tok in line.split()})
    vocab = textcore.build_vocab(lines, max_size=distinct + 4)
    if docid_path is None and pseudo_doc_size is None:
        # no document structure given: one block over every line is one document
        pseudo_doc_size = max(len(lines), 1)
    id_lines = textcore.read_lines(docid_path) if docid_path is not None else None
    aligned(hypotheses=hyp_lines, references=ref_lines, sources=src_lines, doc_ids=id_lines)
    hyp_corpus = textcore.encode_document_corpus(
        hyp_lines, ref_lines, vocab, id_lines, pseudo_doc_size
    )
    srcs = None if src_lines is None else [textcore.encode(line, vocab) for line in src_lines]
    hyps = [e[0] for e in hyp_corpus.entries]
    refs = [e[1] for e in hyp_corpus.entries]
    stats = metrics.line_stats(metric, hyps, refs, srcs)  # one row per line
    per_document = []
    start = 0  # doc ids are contiguous, so each document is one slice
    for doc in hyp_corpus.documents():
        doc_id, stop = doc[0][2], start + len(doc)
        try:
            value = metrics.score(metric, stats[start:stop].sum(axis=0))
        except ValueError as exc:
            raise ValueError(f"document {doc_id}: {exc}") from None
        per_document.append({"doc_id": doc_id, "sentences": len(doc), "score": value})
        start = stop
    return {
        "metric": metric,
        "corpus_score": metrics.score(metric, stats.sum(axis=0)),
        "num_sentences": len(hyp_corpus),
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

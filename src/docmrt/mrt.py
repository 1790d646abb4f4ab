"""Risk objectives and gradient estimators, exact enumeration references, and
the fine-tuning loop.

The raw sequence-level estimator is

    grad = (1/N) * sum_s sum_n cost(s,n) * dlog P(y_n^(s) | x^(s))

and the document-level analogue replaces per-sample costs with the cost of the
assembled document each sample belongs to. With the random assignment scheme
each document is marginally a true model sample, so the raw document estimator
is unbiased for the exact risk gradient. The renormalized variant reweights the
sample pool by probability**alpha instead of 1/N; it is consistent but biased.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics, model, sampling
from .metrics import CostKind
from .textcore import DocumentBatch, DocumentCorpus

RISK_ENUMERATION_GUARD = 10**6

MODES = ("seq_mrt", "doc_mrt_ordered", "doc_mrt_random", "mle")
ESTIMATORS = ("raw", "renormalized")
BATCHINGS = ("random", "document")


@dataclass
class RiskEstimate:
    risk: float
    grad: np.ndarray
    n_used: int  # documents (doc modes) or samples (seq mode)


@dataclass
class TrainConfig:
    mode: str = "doc_mrt_ordered"
    cost_kind: CostKind = CostKind.ONE_MINUS_DOCBLEU
    n_samples: int = 4
    batch_size: int = 4
    tau: float = 1.0
    alpha: float = 5e-3  # risk sharpness, renormalized estimator only
    estimator: str = "raw"
    learning_rate: float = 0.1
    accum_steps: int = 1
    max_updates: int = 100
    seed: int = 0
    max_len: int = 10
    batching: str = "document"

    def validate(self) -> "TrainConfig":
        for name, allowed in (("mode", MODES), ("estimator", ESTIMATORS), ("batching", BATCHINGS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r} (expected one of {', '.join(allowed)})")
        if self.n_samples < 1 or self.batch_size < 1 or self.accum_steps < 1:
            raise ValueError("n_samples, batch_size and accum_steps must be >= 1")
        if self.tau <= 0 or self.alpha <= 0:
            raise ValueError("tau and alpha must be positive")
        if self.max_len < 1 or self.max_updates < 0:
            raise ValueError("max_len must be >= 1 and max_updates >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        return self


def _grid_pairs(sample_set: sampling.SampleSet) -> tuple[list, list]:
    """Sources and sampled targets of the grid, flattened in [sentence][sample] order."""
    rows = list(zip(sample_set.batch.sources, sample_set.grid))
    return [src for src, row in rows for _ in row], [h.sentence for _, row in rows for h in row]


def seq_mrt_grad(
    params: model.ModelParams,
    batch: DocumentBatch,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
    sample_set: sampling.SampleSet | None = None,
) -> RiskEstimate:
    """Sequence-level risk gradient over N samples per sentence."""
    if sample_set is None:
        if rng is None:
            raise ValueError("need an rng to draw samples")
        sample_set = sampling.draw_sample_set(
            params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len,
            cfg.cost_kind.as_sentence_kind(),
        )
    n = sample_set.n_samples
    if cfg.estimator == "raw":
        weights = sample_set.costs / n
        risk = float(sample_set.costs.sum()) / n
    else:
        logps = np.array([[h.log_prob for h in row] for row in sample_set.grid])
        q = np.exp(cfg.alpha * (logps - logps.max(axis=1, keepdims=True)))
        q /= q.sum(axis=1, keepdims=True)  # one distribution per sentence
        weights = q * sample_set.costs
        risk = float(weights.sum())
    _, grad = model.weighted_log_prob_grad(
        params, *_grid_pairs(sample_set), weights.ravel(), cfg.max_len
    )
    return RiskEstimate(risk=risk, grad=grad, n_used=n * sample_set.n_sentences)


def doc_mrt_grad(
    params: model.ModelParams,
    batch: DocumentBatch,
    cfg: TrainConfig,
    scheme: str | None = None,
    rng: np.random.Generator | None = None,
    sample_set: sampling.SampleSet | None = None,
) -> RiskEstimate:
    """Document-level risk gradient over N assembled sample documents.

    Each sample's log-probability is weighted by the aggregated cost of the
    one document containing it; one weighted pass over the grid gives the
    gradient.
    """
    if scheme is None:
        scheme = {"doc_mrt_ordered": "ordered", "doc_mrt_random": "random"}.get(cfg.mode)
        if scheme is None:
            raise ValueError(f"cannot infer document scheme from mode {cfg.mode!r}")
    if scheme not in ("ordered", "random"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if sample_set is None:
        if rng is None:
            raise ValueError("need an rng to draw samples")
        sample_set = sampling.draw_sample_set(
            params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len, cfg.cost_kind
        )
    if scheme == "ordered":
        docs = sampling.build_documents_ordered(sampling.order_samples(sample_set))
    else:
        if rng is None:
            raise ValueError("the random scheme needs an rng")
        docs = sampling.build_documents_random(sample_set, rng)
    n = sample_set.n_samples
    costs = np.array([doc.cost for doc in docs])
    if cfg.estimator == "raw":
        doc_weights = costs / n
        risk = sum(doc.cost for doc in docs) / n
    else:
        logps = np.array([doc.log_prob for doc in docs])
        q = np.exp(cfg.alpha * (logps - logps.max()))
        q /= q.sum()
        doc_weights = q * costs
        risk = float(np.dot(q, costs))
    weights = np.zeros((sample_set.n_sentences, n))
    for doc, w in zip(docs, doc_weights):
        for s, idx in enumerate(doc.assignment):
            weights[s, idx] = w
    _, grad = model.weighted_log_prob_grad(
        params, *_grid_pairs(sample_set), weights.ravel(), cfg.max_len
    )
    return RiskEstimate(risk=risk, grad=grad, n_used=len(docs))


CostLike = "CostKind | metrics.DocCostFn"


def _enumerated_risk(
    params: model.ModelParams,
    batch: DocumentBatch,
    cost_kind: CostLike,
    max_len: int,
) -> tuple[float, list[list[tuple]], list[np.ndarray]]:
    """Exact risk sum_Y D(Y) P(Y) over every output document Y, plus, per
    sentence s, each output sentence's coefficient sum_{Y: y_s = y} D(Y) P(Y).
    """
    spaces = [
        model.enumerate_output_space(params, src, max_len) for src in batch.sources
    ]
    if math.prod(len(space) for space in spaces) > RISK_ENUMERATION_GUARD:
        raise ValueError("document space exceeds the risk enumeration guard")
    cost_fn = metrics.document_cost_fn(cost_kind)
    risk = 0.0
    coeffs = [np.zeros(len(space)) for space in spaces]
    for combo_idx in itertools.product(*(range(len(sp)) for sp in spaces)):
        p = 1.0
        hyps = []
        for s, i in enumerate(combo_idx):
            sent, prob = spaces[s][i]
            p *= prob
            hyps.append(sent)
        dp = p * cost_fn(hyps, batch.references, batch.sources)
        risk += dp
        for s, i in enumerate(combo_idx):
            coeffs[s][i] += dp
    return risk, spaces, coeffs


def exact_risk(
    params: model.ModelParams,
    batch: DocumentBatch,
    cost_kind: CostLike,
    max_len: int,
) -> float:
    """Exact expected document cost by full enumeration of the output space."""
    return _enumerated_risk(params, batch, cost_kind, max_len)[0]


def exact_risk_grad(
    params: model.ModelParams,
    batch: DocumentBatch,
    cost_kind: CostLike,
    max_len: int,
) -> np.ndarray:
    """Exact risk gradient sum_Y D(Y) P(Y) dlog P(Y), by full enumeration.

    Since log P(Y) = sum_s log P(y_s), this equals sum over output sentences of
    their coefficient times dlog P(y_s): one weighted pass, each sentence once.
    """
    _, spaces, coeffs = _enumerated_risk(params, batch, cost_kind, max_len)
    srcs = [src for src, space in zip(batch.sources, spaces) for _ in space]
    tgts = [sent for space in spaces for sent, _ in space]
    weights = [c for coeff in coeffs for c in coeff]
    return model.weighted_log_prob_grad(params, srcs, tgts, weights, max_len)[1]


def fd_gradient_check(
    fn: Callable[[np.ndarray], float],
    analytic_grad: np.ndarray,
    theta: np.ndarray,
    coords: Sequence[int],
    eps: float = 1e-4,
) -> float:
    """Max relative error of analytic_grad vs central differences of fn.

    Coordinates where |analytic| <= 1e-8 are skipped; they carry no usable
    relative scale.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    worst = 0.0
    for i in coords:
        g = analytic_grad[i]
        if abs(g) <= 1e-8:
            continue
        shifted = theta.copy()
        shifted[i] = theta[i] + eps
        hi = fn(shifted)
        shifted[i] = theta[i] - eps
        lo = fn(shifted)
        fd = (hi - lo) / (2.0 * eps)
        worst = max(worst, abs(fd - g) / max(abs(g), 1e-12))
    return worst


def _micro_batch_estimate(
    params: model.ModelParams,
    batch: DocumentBatch,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> RiskEstimate:
    if cfg.mode == "mle":
        loss, grad = model.mle_loss_grad(params, batch, cfg.max_len)
        return RiskEstimate(risk=loss, grad=grad, n_used=len(batch))
    if cfg.mode == "seq_mrt":
        return seq_mrt_grad(params, batch, cfg, rng=rng)
    return doc_mrt_grad(params, batch, cfg, rng=rng)


class NonFiniteTraining(ValueError):
    """An update whose risk or updated parameters are not finite."""

    def __init__(self, update: int, risk: float):
        what = "updated parameters" if math.isfinite(risk) else f"risk ({risk})"
        super().__init__(f"update {update}: non-finite {what}")
        self.update, self.risk = update, risk


def finetune(
    params0: model.ModelParams,
    corpus: DocumentCorpus,
    cfg: TrainConfig,
    heldout: DocumentCorpus | None = None,
    eval_every: int | None = None,
    eval_fn: Callable[[model.ModelParams], float] | None = None,
) -> tuple[model.ModelParams, list[dict]]:
    """Plain-SGD fine-tuning with delayed (accumulated) gradient updates.

    Every accum_steps micro-batch gradients are averaged, all evaluated at the
    pre-update parameters, then applied in one step: theta -= lr * mean(grads).
    Deterministic per cfg.seed. Returns the trained parameters and a training
    log with one record per update. Raises NonFiniteTraining, naming the
    update, when an update's risk or the updated theta is not finite.
    """
    from .harness import evaluate_corpus, make_batches  # cyclic at module level

    cfg.validate()
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    params = params0.copy()
    rng = np.random.default_rng(cfg.seed)
    if eval_fn is None and heldout is not None:
        eval_fn = lambda p: evaluate_corpus(
            p, heldout, cfg.cost_kind.as_document_kind(), beam=4, max_len=cfg.max_len
        ).value
    log: list[dict] = []
    batches: list[DocumentBatch] = []
    cursor = 0
    for update in range(cfg.max_updates):
        acc = np.zeros_like(params.theta)
        risks = []
        for _ in range(cfg.accum_steps):
            if cursor >= len(batches):
                epoch_seed = int(rng.integers(2**31 - 1))
                batches = make_batches(corpus, cfg.batching, cfg.batch_size, epoch_seed)
                cursor = 0
            est = _micro_batch_estimate(params, batches[cursor], cfg, rng)
            cursor += 1
            acc += est.grad
            risks.append(est.risk)
        params.theta -= cfg.learning_rate * acc / cfg.accum_steps
        risk = float(np.mean(risks))
        record = {"update": update, "mode": cfg.mode, "risk": risk, "seed": cfg.seed}
        if eval_fn is not None and eval_every and (update + 1) % eval_every == 0:
            record["heldout_metric"] = float(eval_fn(params))
        # checked after eval_fn, so that a per-update callback sees every update
        if not (math.isfinite(risk) and np.isfinite(params.theta).all()):
            raise NonFiniteTraining(update, risk)
        log.append(record)
    return params, log

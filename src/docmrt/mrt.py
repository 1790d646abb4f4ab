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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics, model, sampling
from .metrics import CostKind
from .textcore import DocumentBatch, DocumentCorpus, at_least

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
        if not isinstance(self.cost_kind, CostKind):
            kinds = ", ".join(kind.value for kind in CostKind)
            raise ValueError(f"unknown cost_kind {self.cost_kind!r} (expected one of {kinds})")
        sizes = ("n_samples", "batch_size", "accum_steps", "max_len")
        at_least(1, **{name: getattr(self, name) for name in sizes})
        at_least(0, max_updates=self.max_updates)
        # NaN fails every comparison, so each check states what a good value is
        for name in ("tau", "alpha", "learning_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        return self


def _sample_set(params, batch, cfg, rng, sample_set) -> sampling.SampleSet:
    """The given sample set, or N fresh samples per sentence drawn with rng."""
    if sample_set is not None:
        return sample_set
    if rng is None:
        raise ValueError("need an rng to draw samples")
    return sampling.draw_sample_set(
        params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len, cfg.cost_kind
    )


def _weigh(cfg: TrainConfig, costs: np.ndarray, logps: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights and risk of rows of N documents, costs and logps of shape (rows, N):
    raw cost / N, or cost times the row's softmax of alpha * log-prob."""
    n = costs.shape[1]
    if cfg.estimator == "raw":
        return costs / n, float(costs.sum()) / n
    q = np.exp(cfg.alpha * (logps - logps.max(axis=1, keepdims=True)))
    q /= q.sum(axis=1, keepdims=True)
    weights = q * costs
    return weights, float(weights.sum())


def _scatter(cells: np.ndarray, weights: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Per sentence s, each candidate's sum of the weights of the rows of the
    (documents, S) cells array that choose it."""
    return [np.bincount(cells[:, s], weights=weights, minlength=n) for s, n in enumerate(sizes)]


def _weighted_grad(params, sources, candidates, weights, max_len: int) -> np.ndarray:
    """Gradient of sum_s sum_i weights[s][i] * log P(candidates[s][i] | sources[s]),
    in one weighted pass."""
    srcs = [src for src, row in zip(sources, candidates) for _ in row]
    tgts = [tgt for row in candidates for tgt in row]
    flat = [w for row in weights for w in row]
    return model.weighted_log_prob_grad(params, srcs, tgts, flat, max_len)[1]


def seq_mrt_grad(
    params: model.ModelParams,
    batch: DocumentBatch,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
    sample_set: sampling.SampleSet | None = None,
) -> RiskEstimate:
    """Sequence-level risk gradient over N samples per sentence: each sentence
    is a row of N one-sample documents."""
    sample_set = _sample_set(params, batch, cfg, rng, sample_set)
    logps = np.array([[h.log_prob for h in row] for row in sample_set.grid])
    weights, risk = _weigh(cfg, sample_set.costs, logps)
    sentences = [[h.sentence for h in row] for row in sample_set.grid]
    grad = _weighted_grad(params, sample_set.batch.sources, sentences, weights, cfg.max_len)
    return RiskEstimate(risk=risk, grad=grad, n_used=weights.size)


def doc_mrt_grad(
    params: model.ModelParams,
    batch: DocumentBatch,
    cfg: TrainConfig,
    scheme: str | None = None,
    rng: np.random.Generator | None = None,
    sample_set: sampling.SampleSet | None = None,
) -> RiskEstimate:
    """Document-level risk gradient over N assembled sample documents: one row
    of N documents, each sample weighted by the document containing it."""
    if scheme is None:
        scheme = {"doc_mrt_ordered": "ordered", "doc_mrt_random": "random"}.get(cfg.mode)
        if scheme is None:
            raise ValueError(f"cannot infer document scheme from mode {cfg.mode!r}")
    if scheme not in ("ordered", "random"):
        raise ValueError(f"unknown scheme {scheme!r}")
    sample_set = _sample_set(params, batch, cfg, rng, sample_set)
    if scheme == "ordered":
        docs = sampling.build_documents_ordered(sampling.order_samples(sample_set))
    elif rng is None:
        raise ValueError("the random scheme needs an rng")
    else:
        docs = sampling.build_documents_random(sample_set, rng)
    weights, risk = _weigh(
        cfg, np.array([[doc.cost for doc in docs]]), np.array([[doc.log_prob for doc in docs]])
    )
    cells = np.array([doc.assignment for doc in docs])
    per_sample = _scatter(cells, weights[0], [sample_set.n_samples] * sample_set.n_sentences)
    sentences = [[h.sentence for h in row] for row in sample_set.grid]
    grad = _weighted_grad(params, sample_set.batch.sources, sentences, per_sample, cfg.max_len)
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
    Documents are the rows of sampling.product_cells; products and sums run
    row by row in that order.
    """
    spaces = [decoder.enumerate() for decoder in model.decoders(params, batch.sources, max_len)]
    cells = sampling.product_cells([len(space) for space in spaces])
    if isinstance(cost_kind, CostKind):
        candidates = [[sent for sent, _ in space] for space in spaces]
        stats = sampling.candidate_stats(batch, candidates, cost_kind.metric)
        costs = None if cost_kind.is_document_level else sampling.sentence_costs(cost_kind, stats)
        cost = sampling.document_costs(cost_kind, stats, costs, cells)
    else:
        docs = ([spaces[s][i][0] for s, i in enumerate(row)] for row in cells.tolist())
        cost = [cost_kind(hyps, batch.references, batch.sources) for hyps in docs]
    p = np.ones(len(cells))
    for s, space in enumerate(spaces):
        p *= np.array([prob for _, prob in space])[cells[:, s]]
    dp = p * np.array(cost, dtype=np.float64)
    risk = float(np.add.accumulate(dp)[-1])
    return risk, spaces, _scatter(cells, dp, [len(space) for space in spaces])


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
    candidates = [[sent for sent, _ in space] for space in spaces]
    return _weighted_grad(params, batch.sources, candidates, coeffs, max_len)


def fd_gradient_check(
    fn: Callable[[np.ndarray], float],
    analytic_grad: np.ndarray,
    theta: np.ndarray,
    coords: Sequence[int],
    eps: float = 1e-4,
) -> float:
    """Max relative error of analytic_grad vs central differences of fn.

    Coordinates where |analytic| <= 1e-8 are skipped; they carry no usable
    relative scale. A non-finite difference or analytic value gives inf.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
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
        err = abs(fd - g) / max(abs(g), 1e-12)
        worst = max(worst, math.inf if math.isnan(err) else err)
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
    eval_every: int | None = None,
    eval_fn: Callable[[model.ModelParams], float] | None = None,
) -> tuple[model.ModelParams, list[dict]]:
    """Plain-SGD fine-tuning with delayed (accumulated) gradient updates.

    Every accum_steps micro-batch gradients are averaged, all evaluated at the
    pre-update parameters, then applied in one step: theta -= lr * mean(grads).
    After every eval_every-th update (never if it is 0 or None), the record's
    heldout_metric is eval_fn of the updated parameters.
    Deterministic per cfg.seed. Returns the trained parameters and a training
    log with one record per update. Raises NonFiniteTraining, naming the
    update, when an update's risk or the updated theta is not finite.
    """
    from .harness import make_batches  # cyclic at module level

    cfg.validate()
    at_least(0, eval_every=eval_every or 0)
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    params = params0.copy()
    rng = np.random.default_rng(cfg.seed)

    def epochs():  # each epoch's seed is drawn from rng as the last one runs out
        while True:
            epoch_seed = int(rng.integers(2**31 - 1))
            yield from make_batches(corpus, cfg.batching, cfg.batch_size, epoch_seed)

    batches = epochs()
    log: list[dict] = []
    for update in range(cfg.max_updates):
        acc = np.zeros_like(params.theta)
        risks = []
        for _ in range(cfg.accum_steps):
            est = _micro_batch_estimate(params, next(batches), cfg, rng)
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

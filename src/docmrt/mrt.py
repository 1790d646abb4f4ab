"""Risk objectives and gradient estimators, exact enumeration references, and
the fine-tuning loop.

The raw sequence-level estimator is

    grad = (1/N) * sum_s sum_n cost(s,n) * dlog P(y_n^(s) | x^(s))

and the document-level analogue replaces per-sample costs with the cost of the
assembled document each sample belongs to. With the random assignment scheme
each document is marginally a true model sample, so the raw document estimator
is unbiased for the exact risk gradient. The renormalized variant reweights the
sample pool by probability**alpha instead of 1/N; it is consistent but biased.

A table maps each MRT mode to its scheme. An update scores its micro-batches'
samples as one stack, and _estimates weighs the stack in one pass for any scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import model, sampling
from .metrics import CostKind
from .textcore import DocumentBatch, at_least

_SCHEMES = {"seq_mrt": "seq", "doc_mrt_ordered": "ordered", "doc_mrt_random": "random"}
MODES = (*_SCHEMES, "mle")
ESTIMATORS = ("raw", "renormalized")
BATCHINGS = ("random", "document")


@dataclass(eq=False)
class RiskEstimate:
    risk: float
    grad: np.ndarray


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

    def __post_init__(self):
        for name, allowed in (("mode", MODES), ("estimator", ESTIMATORS), ("batching", BATCHINGS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r} (expected one of {', '.join(allowed)})")
        if not isinstance(self.cost_kind, CostKind):
            kinds = ", ".join(kind.value for kind in CostKind)
            raise ValueError(f"unknown cost_kind {self.cost_kind!r} (expected one of {kinds})")
        sizes = ("n_samples", "batch_size", "accum_steps", "max_len")
        at_least(1, **{name: getattr(self, name) for name in sizes})
        at_least(0, max_updates=self.max_updates, seed=self.seed)
        # NaN fails every comparison, so each check states what a good value is
        for name in ("tau", "alpha", "learning_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


def _weigh(cfg: TrainConfig, costs: np.ndarray, logps, starts) -> tuple[np.ndarray, list]:
    """Weights of rows of N documents, costs and logps (read only by the renormalized
    estimator) of shape (rows, N): raw cost / N, or cost times the row's softmax of
    alpha * log-prob; and the risk of each block of rows from starts[k] to starts[k + 1]."""
    if cfg.estimator == "raw":
        n = costs.shape[1]
        return costs / n, [float(costs[a:b].sum()) / n for a, b in zip(starts, starts[1:])]
    q = np.exp(cfg.alpha * (logps - logps.max(axis=1, keepdims=True)))
    q /= q.sum(axis=1, keepdims=True)
    weights = q * costs
    return weights, [float(weights[a:b].sum()) for a, b in zip(starts, starts[1:])]


def _scatter(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Each of size cells' sum of the weights of the rows of index holding it, in row order."""
    return np.bincount(index.ravel(), np.repeat(weights, index.shape[1]), minlength=size)


def _weighted_grad(params, sources, candidates, weights, max_len: int) -> np.ndarray:
    """Gradient of sum_s sum_i weights[s, i] * log P(candidates[s][i] | sources[s]),
    weights of shape (S, candidates), in one weighted pass."""
    srcs = [src for src, row in zip(sources, candidates) for _ in row]
    tgts = [tgt for row in candidates for tgt in row]
    return model.weighted_log_prob_grad(params, srcs, tgts, np.ravel(weights), max_len)[1]


def seq_mrt_grad(
    params: model.ModelParams,
    batch: DocumentBatch,
    cfg: TrainConfig,
    sample_set: sampling.SampleSet,
) -> RiskEstimate:
    """Sequence-level risk gradient over sample_set's N samples per sentence of
    batch: each sentence is a row of N one-sample documents."""
    if sample_set.batch != batch:
        raise ValueError("sample_set was drawn for another batch")
    return next(_estimates(params, cfg, sample_set, "seq", [None], [len(batch)]))


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
        scheme = _SCHEMES.get(cfg.mode)
    if scheme == "seq" or scheme not in _SCHEMES.values():
        raise ValueError(f"no document scheme for mode {cfg.mode!r} and scheme {scheme!r}")
    if sample_set is None:
        if rng is None:
            raise ValueError("need an rng to draw samples")
        sample_set = sampling.draw_sample_set(
            params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len, cfg.cost_kind
        )
    elif sample_set.batch != batch:
        raise ValueError("sample_set was drawn for another batch")
    cells = [_draw_cells(scheme, sample_set.grid, rng)]
    return next(_estimates(params, cfg, sample_set, scheme, cells, [len(batch)]))


def _draw_cells(scheme: str, grid: list, rng: np.random.Generator | None) -> np.ndarray | None:
    """The cells scheme draws with rng right after grid: random's permutations, else None."""
    if scheme != "random":
        return None
    if rng is None:
        raise ValueError("the random scheme needs an rng")
    return sampling.random_cells(grid, rng)


def _estimates(params, cfg: TrainConfig, stack, scheme, cells, sizes) -> Iterator[RiskEstimate]:
    """scheme's estimate of each micro-batch of stack, sizes[k] sentences each, all
    weighed at once: seq weighs each sentence's N samples as a row; ordered and random
    weigh a row of N documents per micro-batch, which its cells (ordered: the ranks'
    transpose) assemble, and scatter their weights onto the samples."""
    n, starts = stack.n_samples, np.cumsum([0, *sizes])
    if scheme == "seq":
        weights, risks = _weigh(cfg, stack.costs, stack.log_probs, starts)
    else:
        if scheme == "ordered":
            stack = sampling.order_samples(stack)
            cells = [stack.ranks[a:b].T for a, b in zip(starts, starts[1:])]
        # each document's flat cells s * N + i in sentence order, padded with a zero cell
        pad, width = starts[-1] * n, max(sizes)
        index = np.full((len(sizes) * n, width), pad)
        for k, (a, size) in enumerate(zip(starts, sizes)):
            index[k * n : (k + 1) * n, :size] = cells[k] + np.arange(a, a + size) * n
        flat = lambda v: np.concatenate([v.reshape(pad, *v.shape[2:]), np.zeros_like(v[0, :1])])
        kind, docs = cfg.cost_kind, lambda v: np.reshape(v, (-1, n))
        costs = [flat(stack.costs)] * width if kind.is_sentence_level else None
        costs = docs(sampling.document_costs(kind, [flat(stack.stats)] * width, costs, index))
        logps = docs(sum(flat(stack.log_probs)[index].T)) if cfg.estimator != "raw" else None
        rows, risks = _weigh(cfg, costs, logps, range(len(sizes) + 1))
        weights = _scatter(index, rows.ravel(), pad + 1)[:pad].reshape(-1, n)
    for a, b, risk in zip(starts, starts[1:], risks):
        sources, candidates = stack.batch.sources[a:b], stack.sentences[a:b]
        grad = _weighted_grad(params, sources, candidates, weights[a:b], cfg.max_len)
        yield RiskEstimate(risk=risk, grad=grad)


def _enumerated_risk(
    params: model.ModelParams,
    batch: DocumentBatch,
    cost_kind: CostKind | Callable,
    max_len: int,
) -> tuple[float, list[list[tuple]], np.ndarray]:
    """Exact risk sum_Y D(Y) P(Y) over every output document Y, plus, per
    sentence s, its output sentences and each one's coefficient sum_{Y: y_s = y} D(Y) P(Y),
    an (S, |Y|) array: every source lists the same output sentences in the same order.
    Documents are the rows of sampling.product_cells; products and sums run row by row
    in that order.
    """
    spaces = [model.enumerate_output_space(params, src, max_len) for src in batch.sources]
    candidates = [[sent for sent, _ in space] for space in spaces]
    sizes = [len(space) for space in spaces]
    cells = sampling.product_cells(sizes)
    if isinstance(cost_kind, CostKind):
        stats = sampling.candidate_stats(
            batch.references, batch.sources, candidates, cost_kind.metric
        )
        costs = sampling.sentence_costs(cost_kind, stats) if cost_kind.is_sentence_level else None
        cost = sampling.document_costs(cost_kind, stats, costs, cells)
    else:
        docs = ([candidates[s][i] for s, i in enumerate(row)] for row in cells.tolist())
        cost = [cost_kind(hyps, batch.references, batch.sources) for hyps in docs]
    p = np.ones(len(cells))
    for s, space in enumerate(spaces):
        p *= np.array([prob for _, prob in space])[cells[:, s]]
    dp = p * np.array(cost, dtype=np.float64)
    risk = float(np.add.accumulate(dp)[-1])
    n, width = max(sizes, default=0), len(sizes)
    return risk, candidates, _scatter(cells + np.arange(width) * n, dp, width * n).reshape(width, n)


def exact_risk(
    params: model.ModelParams,
    batch: DocumentBatch,
    cost_kind: CostKind | Callable,
    max_len: int,
) -> float:
    """Exact expected document cost by full enumeration of the output space.
    cost_kind is a CostKind or a callable (hyps, refs, srcs) -> document cost."""
    return _enumerated_risk(params, batch, cost_kind, max_len)[0]


def exact_risk_grad(
    params: model.ModelParams,
    batch: DocumentBatch,
    cost_kind: CostKind | Callable,
    max_len: int,
) -> np.ndarray:
    """Exact risk gradient sum_Y D(Y) P(Y) dlog P(Y), by full enumeration.

    Since log P(Y) = sum_s log P(y_s), this equals sum over output sentences of
    their coefficient times dlog P(y_s): one weighted pass, each sentence once.
    """
    _, candidates, coeffs = _enumerated_risk(params, batch, cost_kind, max_len)
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


def _update_estimates(
    params: model.ModelParams,
    batches: Iterator[DocumentBatch],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> Iterator[RiskEstimate]:
    """The estimates of one update's accum_steps micro-batches, taken from batches in
    turn. MRT draws each one's samples, then its scheme's cells, from rng; one
    sampling.score_grids call scores the stack of their sentences, and _estimates
    weighs it in one pass."""
    if cfg.mode == "mle":
        for _ in range(cfg.accum_steps):
            loss, grad = model.mle_loss_grad(params, next(batches), cfg.max_len)
            yield RiskEstimate(risk=loss, grad=grad)
        return
    scheme = _SCHEMES[cfg.mode]
    micro, grid, cells = [], [], []
    for _ in range(cfg.accum_steps):
        micro.append(batch := next(batches))
        rows = model.Decoder(params, batch.sources, cfg.max_len).sample(cfg.n_samples, cfg.tau, rng)
        grid += rows
        cells.append(_draw_cells(scheme, rows, rng))
    columns = zip(*((b.sources, b.references, b.doc_ids) for b in micro))
    stack = DocumentBatch(*([line for part in column for line in part] for column in columns))
    (scored,) = sampling.score_grids([stack], [grid], cfg.cost_kind)
    yield from _estimates(params, cfg, scored, scheme, cells, list(map(len, micro)))


class NonFiniteTraining(ValueError):
    """An update whose risk or updated parameters are not finite."""

    def __init__(self, update: int, risk: float):
        what = "updated parameters" if math.isfinite(risk) else f"risk ({risk})"
        super().__init__(f"update {update}: non-finite {what}")
        self.update, self.risk = update, risk


def finetune(
    params0: model.ModelParams,
    corpus: DocumentBatch,
    cfg: TrainConfig,
    eval_every: int | None = None,
    eval_fn: Callable[[model.ModelParams], float] | None = None,
) -> tuple[model.ModelParams, list[dict]]:
    """Plain-SGD fine-tuning with delayed (accumulated) gradient updates.

    Every accum_steps micro-batch gradients are averaged, all evaluated at the
    pre-update parameters, then applied in one step: theta -= lr * mean(grads).
    An MRT update scores the samples of all its micro-batches together.
    After every eval_every-th update (never if it is 0 or None), the record's
    heldout_metric is eval_fn of the updated parameters.
    Deterministic per cfg.seed. Returns the trained parameters and a training
    log with one record per update. Raises NonFiniteTraining, naming the
    update, when an update's risk or the updated theta is not finite, and, before
    any update, ValueError naming the first empty reference line of a TER MRT run
    or the first reference line of an MLE run longer than max_len.
    """
    from .harness import make_batches  # cyclic at module level

    at_least(0, eval_every=eval_every or 0)
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    ter = cfg.mode != "mle" and cfg.cost_kind.metric == "ter"
    for line, ref in enumerate(corpus.references, start=1):  # before any update uses it
        if ter and not ref:
            kind = cfg.cost_kind.value
            raise ValueError(f"{kind} needs a non-empty reference: corpus line {line} is empty")
        if cfg.mode == "mle" and len(ref) > cfg.max_len:
            raise ValueError(
                f"mle needs references of at most max_len {cfg.max_len} tokens: "
                f"corpus line {line} has {len(ref)}"
            )
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
        for est in _update_estimates(params, batches, cfg, rng):
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

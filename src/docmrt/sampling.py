"""Sample grids and document assembly for document-level risk training.

A SampleSet holds N sampled hypotheses per sentence of a batch. A document is a
row of (documents, S) cells, one sample per sentence: by cost rank (the n-th
document takes each sentence's rank-n sample, giving diverse document scores)
or by a random permutation per sentence, each cell used once across N documents.
assemble gives every row its cost and log-prob; the document views share it.

Drawing and scoring are two steps: a batch's grid takes the rng in one
model.Decoder.sample call, and score_grids, the only code that gives a SampleSet
its stats, checks many grids, then scores them with one stats extraction. A set's
sentence costs are scored from its stats, with one memo, when first read. An MRT
update scores its micro-batches' grids as one set over their joined sentences;
draw_sample_set is the one-batch case.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, model
from .metrics import CostKind
from .textcore import DocumentBatch, aligned, at_least


@dataclass(eq=False)
class SampleSet:
    """N hypotheses per sentence, checked and read out of the grid. score_grids
    adds the metric stats of every cell, which give their sentence-level costs
    on first read; a directly built set has neither."""

    batch: DocumentBatch
    grid: list[list[model.ScoredHypothesis]]  # [sentence][sample]
    cost_kind: CostKind
    # shape (S, N): each sentence's sample indices, best first; set by order_samples
    ranks: np.ndarray | None = field(default=None, init=False)
    stats: np.ndarray = field(init=False)  # shape (S, N, K), K stats per cell
    # read out of the grid once
    sentences: list[list[tuple]] = field(init=False, repr=False)
    log_probs: np.ndarray = field(init=False, repr=False)  # shape (S, N)
    n_sentences: int = field(init=False, repr=False)
    n_samples: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.grid:
            raise ValueError("empty batch: a sample set needs at least one sentence")
        aligned(sentences=self.batch.sources, sample_rows=self.grid)
        widths = sorted(set(map(len, self.grid)))
        if len(widths) > 1:
            raise ValueError(f"ragged sample grid: rows of {widths} samples")
        self.sentences = [[hyp.sentence for hyp in row] for row in self.grid]
        self.log_probs = np.array([[hyp.log_prob for hyp in row] for row in self.grid])
        self.n_sentences, self.n_samples = self.log_probs.shape
        if np.isnan(self.log_probs).any():
            raise ValueError("NaN sample log-probs: a sample set ranks and weighs by them")

    @functools.cached_property
    def costs(self) -> np.ndarray:
        """Shape (S, N): cost_kind's sentence kind of every cell, scored on first read."""
        return np.array(sentence_costs(self.cost_kind, self.stats))


@dataclass
class SampledDocument:
    """One hypothesis per sentence, an assignment in {0..N-1}^S, and its cost."""

    assignment: tuple[int, ...]
    cost: float


def candidate_stats(references, sources, candidates, metric: str) -> list[np.ndarray]:
    """Stats of candidates[s][i], the i-th candidate of sentence s against
    references[s] and sources[s], as one (candidates, K) array per sentence, from
    one metrics.line_stats call over the distinct (sentence, candidate) pairs."""
    ids: dict = {}
    cells = [[ids.setdefault((s, h), len(ids)) for h in row] for s, row in enumerate(candidates)]
    refs = [references[s] for s, _ in ids]
    srcs = [sources[s] for s, _ in ids] if metric == "gleu" else None
    stats = metrics.line_stats(metric, [hyp for _, hyp in ids], refs, srcs)
    return [stats[row] for row in cells]


def sentence_costs(kind: CostKind, stats) -> list[np.ndarray]:
    """The sentence-level cost of kind for every row of stats[s], one array per
    sentence, scoring each distinct row once."""
    kind, memo = kind.as_sentence_kind(), {}
    return [np.array(_row_costs(kind, list(map(tuple, rows.tolist())), memo)) for rows in stats]


def product_cells(sizes: list[int]) -> np.ndarray:
    """Every choice of one candidate per sentence, shape (prod(sizes), S), in
    itertools.product order; the product is guarded by model.ENUMERATION_GUARD."""
    total = math.prod(sizes)
    if total > model.ENUMERATION_GUARD:
        raise ValueError("document space exceeds the enumeration guard")
    return np.indices(sizes, dtype=np.intp).reshape(len(sizes), total).T


# Rows of cells summed and memoised at a time by document_costs, which bounds
# its Python row tuples whatever the number of documents.
COST_CHUNK = 1 << 14


def document_costs(kind: CostKind, stats, costs, cells: np.ndarray) -> list[float]:
    """The cost of every row of a (documents, S) array of candidate indices:
    document-level kinds score each distinct sum of the gathered stats[s] once,
    sentence-level kinds sum the gathered costs[s] in sentence order."""
    if cells.shape[1] == 0:
        raise ValueError("empty batch: a document needs at least one sentence")
    sentences = range(cells.shape[1])
    if kind.is_sentence_level:
        return sum(costs[s][cells[:, s]] for s in sentences).tolist()
    memo: dict = {}
    out: list[float] = []
    for start in range(0, len(cells), COST_CHUNK):
        chunk = cells[start : start + COST_CHUNK]
        rows = list(map(tuple, sum(stats[s][chunk[:, s]] for s in sentences).tolist()))
        out += _row_costs(kind, rows, memo)
    return out


def _row_costs(kind: CostKind, rows: list[tuple], memo: dict) -> list[float]:
    """cost_from_stats of every stats tuple in rows, scoring each tuple that
    memo does not hold yet once and adding it to memo."""
    for row in rows:
        if row not in memo:
            memo[row] = metrics.cost_from_stats(kind, row)
    return [memo[row] for row in rows]


def score_grids(
    batches: list[DocumentBatch], grids: list, cost_kind: CostKind
) -> list[SampleSet]:
    """The scored SampleSet of every (batch, grid) pair. Every set is checked
    first; then one candidate_stats call over all their distinct (sentence,
    candidate) pairs scores them all."""
    sets = [SampleSet(b, g, cost_kind) for b, g in zip(batches, grids)]
    references = [ref for ss in sets for ref in ss.batch.references]
    sources = [src for ss in sets for src in ss.batch.sources]
    candidates = [row for ss in sets for row in ss.sentences]
    stats = candidate_stats(references, sources, candidates, cost_kind.metric)
    rows = iter(stats)
    for ss in sets:
        ss.stats = np.array([next(rows) for _ in ss.grid])
    return sets


def draw_sample_set(
    params: model.ModelParams,
    batch: DocumentBatch,
    n_samples: int,
    tau: float,
    rng: np.random.Generator,
    max_len: int,
    cost_kind: CostKind,
) -> SampleSet:
    """Draw N independent ancestral samples per sentence and score them:
    score_grids of one Decoder.sample grid. Duplicates are kept and the gold
    reference is never injected.

    Costs use the sentence-level version of cost_kind, which is also the ranking
    metric for ordered document assembly.
    """
    at_least(1, n_samples=n_samples)
    if not isinstance(cost_kind, CostKind):
        raise ValueError("a CostKind is required; exact_risk takes custom cost callables")
    grid = model.Decoder(params, batch.sources, max_len).sample(n_samples, tau, rng)
    return score_grids([batch], [grid], cost_kind)[0]


def order_samples(sample_set: SampleSet) -> SampleSet:
    """Attach per-sentence rank permutations: ascending cost, best first.

    Ties break by descending log_prob, then by original sample index (a stable sort).
    """
    ordered = copy.copy(sample_set)
    ordered.ranks = np.lexsort((-ordered.log_probs, ordered.costs))
    return ordered


def ordered_cells(sample_set: SampleSet) -> np.ndarray:
    """Document n takes the rank-n sample of every sentence."""
    if sample_set.ranks is None:
        raise ValueError("sample set is not ordered; call order_samples first")
    return sample_set.ranks.T


def random_cells(grid: list, rng: np.random.Generator) -> np.ndarray:
    """Documents by an independent uniform permutation of each sentence's row of
    the grid, drawn with rng row by row."""
    return np.array([rng.permutation(len(row)) for row in grid]).T


def assemble(sample_set: SampleSet, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cost and the log-prob of every row of a (documents, S) array of sample
    indices; a log-prob is its members' sum in sentence order."""
    costs = document_costs(sample_set.cost_kind, sample_set.stats, sample_set.costs, cells)
    log_probs = sum(sample_set.log_probs[s][cells[:, s]] for s in range(cells.shape[1]))
    return np.array(costs), log_probs


def _build(sample_set: SampleSet, cells: np.ndarray) -> list[SampledDocument]:
    """The documents of cells, as assemble costs them."""
    costs = assemble(sample_set, cells)[0]
    return [SampledDocument(tuple(row), cost) for row, cost in zip(cells.tolist(), costs.tolist())]


def build_documents_ordered(sample_set: SampleSet) -> list[SampledDocument]:
    """Document n concatenates the rank-n sample of every sentence."""
    return _build(sample_set, ordered_cells(sample_set))


def build_documents_random(
    sample_set: SampleSet, rng: np.random.Generator
) -> list[SampledDocument]:
    """Assign samples to documents by an independent uniform permutation per sentence."""
    return _build(sample_set, random_cells(sample_set.grid, rng))


"""Sample grids and document assembly for document-level risk training.

A SampleSet holds N sampled hypotheses per sentence of a batch. Documents are
assembled either by cost rank (the n-th document takes each sentence's rank-n
sample, giving diverse document scores) or by random per-sentence assignment.
Both schemes use each grid cell exactly once across the N documents.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import metrics, model
from .metrics import CostKind
from .textcore import DocumentBatch, at_least


@dataclass
class SampleSet:
    """N scored hypotheses per sentence, their sentence-level costs and the
    metric stats of every cell; stats and costs not given are computed here."""

    batch: DocumentBatch
    grid: list[list[model.ScoredHypothesis]]  # [sentence][sample]
    costs: np.ndarray | None  # shape (S, N); None: costs of cost_kind's sentence kind
    cost_kind: CostKind
    ranks: list[list[int]] | None = None  # per-sentence sample order, best first
    stats: np.ndarray | None = None  # shape (S, N, K), K stats per cell

    def __post_init__(self):
        if not self.grid:
            raise ValueError("empty batch: a sample set needs at least one sentence")
        if self.stats is None:
            rows = [[hyp.sentence for hyp in row] for row in self.grid]
            self.stats = np.array(candidate_stats(self.batch, rows, self.cost_kind.metric))
        if self.costs is None:
            self.costs = np.array(sentence_costs(self.cost_kind, self.stats))

    @property
    def n_sentences(self) -> int:
        return len(self.grid)

    @property
    def n_samples(self) -> int:
        return len(self.grid[0])


@dataclass
class SampledDocument:
    """One hypothesis per sentence: an assignment in {0..N-1}^S."""

    assignment: tuple[int, ...]
    hyps: list[model.ScoredHypothesis]
    log_prob: float  # sum of member log-probs (sentences are independent)
    cost: float
    weight: float | None = None  # set by enumerate_documents


def candidate_stats(batch: DocumentBatch, candidates, metric: str) -> list[np.ndarray]:
    """Stats of candidates[s][i], the i-th candidate of sentence s, as one
    (candidates, K) array per sentence; each reference is read once and each
    distinct candidate of a row is extracted once."""
    stats = []
    for src, ref, row in zip(batch.sources, batch.references, candidates):
        extract = metrics.extractor(metric, ref, src)
        memo = {hyp: extract(hyp) for hyp in dict.fromkeys(row)}
        stats.append(np.array([memo[hyp] for hyp in row], dtype=np.int64))
    return stats


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
    if not kind.is_document_level:
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


def draw_sample_set(
    params: model.ModelParams,
    batch: DocumentBatch,
    n_samples: int,
    tau: float,
    rng: np.random.Generator,
    max_len: int,
    cost_kind: CostKind,
) -> SampleSet:
    """Draw N independent ancestral samples per sentence and score their costs.

    Duplicates are kept and the gold reference is never injected. Costs use the
    sentence-level version of cost_kind, which is also the ranking metric for
    ordered document assembly.
    """
    at_least(1, n_samples=n_samples)
    if not isinstance(cost_kind, CostKind):
        raise ValueError("a CostKind is required; exact_risk takes custom cost callables")
    grid = [
        [decoder.sample(tau, rng) for _ in range(n_samples)]
        for decoder in model.decoders(params, batch.sources, max_len)
    ]
    return SampleSet(batch=batch, grid=grid, costs=None, cost_kind=cost_kind)


def order_samples(sample_set: SampleSet) -> SampleSet:
    """Attach per-sentence rank permutations: ascending cost, best first.

    Ties break by descending log_prob, then by original sample index.
    """
    ranks = []
    for s, row in enumerate(sample_set.grid):
        order = sorted(
            range(len(row)),
            key=lambda n: (sample_set.costs[s, n], -row[n].log_prob, n),
        )
        ranks.append(order)
    return dataclasses.replace(sample_set, ranks=ranks)


def _build(sample_set: SampleSet, cells: np.ndarray) -> list[SampledDocument]:
    """Documents from a (documents, S) array of sample indices."""
    costs = document_costs(sample_set.cost_kind, sample_set.stats, sample_set.costs, cells)
    docs = []
    for assignment, cost in zip(cells.tolist(), costs):
        hyps = [sample_set.grid[s][n] for s, n in enumerate(assignment)]
        docs.append(
            SampledDocument(
                assignment=tuple(assignment),
                hyps=hyps,
                log_prob=sum(h.log_prob for h in hyps),
                cost=cost,
            )
        )
    return docs


def build_documents_ordered(sample_set: SampleSet) -> list[SampledDocument]:
    """Document n concatenates the rank-n sample of every sentence."""
    if sample_set.ranks is None:
        raise ValueError("sample set is not ordered; call order_samples first")
    return _build(sample_set, np.array(sample_set.ranks).T)


def build_documents_random(
    sample_set: SampleSet, rng: np.random.Generator
) -> list[SampledDocument]:
    """Assign samples to documents by an independent uniform permutation per sentence."""
    n_docs = sample_set.n_samples
    perms = [rng.permutation(n_docs) for _ in range(sample_set.n_sentences)]
    return _build(sample_set, np.array(perms).T)


def enumerate_documents(sample_set: SampleSet) -> list[SampledDocument]:
    """All N^S assignments, each carrying the uniform weight 1 / N^S."""
    docs = _build(sample_set, product_cells([sample_set.n_samples] * sample_set.n_sentences))
    for doc in docs:
        doc.weight = 1.0 / len(docs)
    return docs

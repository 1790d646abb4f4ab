"""Sample grids and document assembly for document-level risk training.

A SampleSet holds N sampled hypotheses per sentence of a batch. Documents are
assembled either by cost rank (the n-th document takes each sentence's rank-n
sample, giving diverse document scores) or by random per-sentence assignment.
Both schemes use each grid cell exactly once across the N documents.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import metrics, model
from .metrics import CostKind
from .textcore import DocumentBatch

DOCUMENT_ENUMERATION_GUARD = 10**6


@dataclass
class SampleSet:
    """N scored hypotheses per sentence, their sentence-level costs and the
    metric stats of every cell (extracted here when not given)."""

    batch: DocumentBatch
    grid: list[list[model.ScoredHypothesis]]  # [sentence][sample]
    costs: np.ndarray  # shape (S, N)
    cost_kind: CostKind
    ranks: list[list[int]] | None = None  # per-sentence sample order, best first
    stats: np.ndarray | None = None  # shape (S, N, K), K stats per cell

    def __post_init__(self):
        if self.stats is None:
            self.stats = _grid_stats(self.batch, self.grid, self.cost_kind.metric)

    @property
    def n_sentences(self) -> int:
        return len(self.grid)

    @property
    def n_samples(self) -> int:
        return len(self.grid[0]) if self.grid else 0


@dataclass
class SampledDocument:
    """One hypothesis per sentence: an assignment in {0..N-1}^S."""

    assignment: tuple[int, ...]
    hyps: list[model.ScoredHypothesis]
    log_prob: float  # sum of member log-probs (sentences are independent)
    cost: float
    weight: float | None = None  # set by enumerate_documents


def _grid_stats(batch: DocumentBatch, grid, metric: str) -> np.ndarray:
    """Stats of every cell; each reference's n-grams are counted once."""
    stats = []
    for src, ref, row in zip(batch.sources, batch.references, grid):
        extract = metrics.extractor(metric, ref, src)
        stats.append([extract(hyp.sentence) for hyp in row])
    return np.array(stats, dtype=np.int64)


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
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not isinstance(cost_kind, CostKind):
        raise ValueError("a CostKind is required; exact_risk takes custom cost callables")
    grid = []
    for src in batch.sources:
        decoder = model.Decoder(params, src, max_len)
        grid.append([decoder.sample(tau, rng) for _ in range(n_samples)])
    stats = _grid_stats(batch, grid, cost_kind.metric)
    seq_kind = cost_kind.as_sentence_kind()
    costs = np.array([[metrics.cost_from_stats(seq_kind, c) for c in row] for row in stats])
    return SampleSet(batch=batch, grid=grid, costs=costs, cost_kind=cost_kind, stats=stats)


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
    """Documents from a (documents, S) array of sample indices, each costed by
    gathering and summing its cells: stats for document-level kinds, sentence
    costs for additive ones."""
    kind, sentences = sample_set.cost_kind, range(sample_set.n_sentences)
    if kind.is_document_level:
        summed = sum(sample_set.stats[s, cells[:, s]] for s in sentences)
        costs = [metrics.cost_from_stats(kind, row) for row in summed]
    else:
        costs = sum(sample_set.costs[s, cells[:, s]] for s in sentences).tolist()
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
    n, s = sample_set.n_samples, sample_set.n_sentences
    total = n**s
    if total > DOCUMENT_ENUMERATION_GUARD:
        raise ValueError("document space exceeds the enumeration guard")
    docs = _build(sample_set, np.array(list(itertools.product(range(n), repeat=s))))
    weight = 1.0 / total
    for doc in docs:
        doc.weight = weight
    return docs

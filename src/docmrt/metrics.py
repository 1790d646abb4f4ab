"""Sentence- and document-level metrics (BLEU, TER, GLEU) and cost selectors.

All comparisons are on token ids. Costs are "lower is better": 1 - score for
BLEU/GLEU selectors, raw TER for TER selectors.

Every metric is a function of per-line counts that add up over lines, its
sufficient statistics. Each sentence, document and corpus score extracts one
stats row per line, sums the rows and scores the sum. BLEU and GLEU share one
n-gram extractor (BLEU is GLEU with an empty source); TER has its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .textcore import Sentence, aligned, at_least

DEFAULT_MAX_N = 4

# Longest hypothesis block considered by the TER shift search.
MAX_SHIFT_BLOCK = 10

METRICS = ("bleu", "ter", "gleu")

Extractor = Callable[[Sentence], list[int]]


@dataclass
class MetricScore:
    value: float
    kind: str  # "BLEU" | "TER" | "GLEU"


class CostKind(Enum):
    ONE_MINUS_SBLEU = "one_minus_sbleu"
    ONE_MINUS_DOCBLEU = "one_minus_docbleu"
    SENT_TER = "sent_ter"
    DOC_TER = "doc_ter"
    ONE_MINUS_SENT_GLEU = "one_minus_sent_gleu"
    ONE_MINUS_DOC_GLEU = "one_minus_doc_gleu"

    @classmethod
    def _missing_(cls, value):
        allowed = ", ".join(kind.value for kind in cls)
        raise ValueError(f"unknown cost kind {value!r} (expected one of {allowed})")

    @property
    def metric(self) -> str:
        """The metric the cost is built on: "bleu", "ter" or "gleu"."""
        return _METRIC[self]

    @property
    def is_sentence_level(self) -> bool:
        return _SENTENCE_KIND[self] is self

    @property
    def is_document_level(self) -> bool:
        return _SENTENCE_KIND[self] is not self

    def as_sentence_kind(self) -> "CostKind":
        return _SENTENCE_KIND[self]

    def as_document_kind(self) -> "CostKind":
        return _DOCUMENT_KIND[self]


# (sentence kind, document kind) of each metric; the lookups above read these
# maps, built once, because costs ask for them once per scored row
_LEVELS = [
    (CostKind.ONE_MINUS_SBLEU, CostKind.ONE_MINUS_DOCBLEU),
    (CostKind.SENT_TER, CostKind.DOC_TER),
    (CostKind.ONE_MINUS_SENT_GLEU, CostKind.ONE_MINUS_DOC_GLEU),
]
_SENTENCE_KIND = {kind: sent for sent, doc in _LEVELS for kind in (sent, doc)}
_DOCUMENT_KIND = {kind: doc for sent, doc in _LEVELS for kind in (sent, doc)}
_METRIC = {kind: next(m for m in METRICS if kind.value.endswith(m)) for kind in CostKind}


def _ngram_counts(sentence: Sentence, max_n: int) -> dict:
    """Count of every n-gram of orders 1..max_n, keyed by the n-gram tuple."""
    seq = tuple(sentence)
    counts: dict = {}
    for i in range(len(seq)):
        for n in range(1, min(max_n, len(seq) - i) + 1):
            gram = seq[i : i + n]
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def ngram_stats(
    hyp: Sentence, ref_counts: dict, src_only: dict, max_n: int, ref_len: int
) -> list[int]:
    """One hypothesis's BLEU/GLEU row against the n-gram counts of extractor.

    The hypothesis is scanned once. The k-th occurrence of an n-gram is a
    match if k <= its reference count, and a penalty if the n-gram is
    source-only and k <= its source count; per order, this sums to
    min(count, reference count) minus min(count, source-only count).
    """
    seq = tuple(hyp)
    seen: dict = {}
    matches = [0] * max_n
    for i in range(len(seq)):
        for n in range(1, min(max_n, len(seq) - i) + 1):
            gram = seq[i : i + n]
            limit = ref_counts.get(gram)
            step = 1
            if limit is None:
                limit, step = src_only.get(gram), -1
                if limit is None:
                    break  # no longer n-gram from i is in the reference or source
            k = seen[gram] = seen.get(gram, 0) + 1
            if k <= limit:
                matches[n - 1] += step
    totals = [max(len(seq) - n + 1, 0) for n in range(1, max_n + 1)]
    return [max(m, 0) for m in matches] + totals + [len(seq), ref_len]


def _reference_index(ref: Sentence) -> tuple[dict, dict]:
    """Match masks (bit k of masks[tok] set where ref[k] == tok) and the ascending
    positions of each reference token, keyed by its 1-token block (tok,).

    The shift search finds the positions of longer blocks by extending these
    in place (see _ter_counts), so no table of every block is built.
    """
    masks, starts = {}, {}
    for k, tok in enumerate(ref):
        masks[tok] = masks.get(tok, 0) | 1 << k
        starts.setdefault((tok,), []).append(k)
    return masks, starts


def _edit_distance(
    hyp: Sequence[int],
    masks: dict,
    ref_len: int,
    state: tuple[int, int, int] | None = None,
    states: list | None = None,
) -> int:
    """Word-level Levenshtein distance (unit costs) from hyp to the reference of
    masks: Myers' (1999) bit-vector DP in Hyyrö's (2003) global form, where bit k
    of vp/vn is the +1/-1 step from row k to k + 1 of the current column.

    state (vp, vn, distance) resumes the DP after a prefix, so the result is the
    distance of that prefix followed by hyp; states, when given, receives the
    state after each token of hyp.
    """
    top = 1 << ref_len  # hp/hn are shifted one row down: bit ref_len is the last row's step
    full = top - 1
    vp, vn, dist = state or (full, 0, ref_len)
    for tok in hyp:
        eq = masks.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = (vn | ~(d0 | vp)) << 1 | 1  # row 0 grows by one per hypothesis token
        hn = (vp & d0) << 1
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        vp = (hn | ~(d0 | hp)) & full
        vn = hp & d0
        if states is not None:
            states.append((vp, vn, dist))
    return dist


def ter_stats(hyp: Sentence, ref: Sentence) -> list[int]:
    """TER stats of one line: [edits + shifts, reference length].

    Edits are word-level Levenshtein operations; a shift moves one contiguous
    block (length <= MAX_SHIFT_BLOCK) to a position where it exactly matches the
    reference, costs 1, and the best one (ties: first by block start, length,
    destination) is accepted while it strictly reduces the remaining edit
    distance. An empty reference gives [len(hyp), 0].
    """
    return extractor("ter", ref)(hyp)


def _ter_counts(hyp: Sentence, masks: dict, starts: dict, ref: Sentence) -> list[int]:
    """ter_stats of hyp against ref, indexed by _reference_index.

    A block from i grows one token at a time: the positions of the longer block
    are those k of the shorter one where ref[k + length - 1] is the new token,
    and the block stops growing at the first length with none. A candidate
    equals the current hypothesis up to min(i, j), so it is aligned from the
    DP state recorded there (states[m] is the state after m tokens; None
    starts afresh), feeding _edit_distance only the tail.
    """
    ref_len = len(ref)
    current, states = list(hyp), [None]
    edits = _edit_distance(current, masks, ref_len, None, states)
    shifts = 0
    while edits > 0:
        best = None
        for i in range(len(current)):
            positions = starts.get((current[i],))
            length = 1
            while positions:
                block = current[i : i + length]
                rest = current[:i] + current[i + length :]
                for j in positions:
                    if j > len(rest):
                        break
                    if j == i:
                        continue  # reinserting in place is a no-op
                    m = min(i, j)
                    e = _edit_distance(rest[m:j] + block + rest[j:], masks, ref_len, states[m])
                    if e < edits and (best is None or e < best[0]):
                        best = (e, m, rest[:j] + block + rest[j:])
                if length == MAX_SHIFT_BLOCK or i + length == len(current):
                    break
                tok = current[i + length]
                positions = [k for k in positions if k + length < ref_len and ref[k + length] == tok]
                length += 1
        if best is None:
            break
        edits, m, current = best
        del states[m + 1 :]
        _edit_distance(current[m:], masks, ref_len, states[m], states)
        shifts += 1
    return [edits + shifts, ref_len]


def extractor(
    metric: str, ref: Sentence, src: Sentence | None = None, max_n: int = DEFAULT_MAX_N
) -> Extractor:
    """The stats extractor of metric for one reference line; GLEU needs its source.

    A BLEU/GLEU row is [matches per order, hypothesis n-grams per order,
    hypothesis length, reference length]. Matches are clipped by the reference
    counts, minus the hypothesis n-grams that appear in the source but not the
    reference (the GLEU penalty), floored at 0 per order. The reference and
    source n-grams are counted once, here, in one dict each over every order;
    a TER reference is indexed once, here. TER rows are ter_stats'.
    """
    if metric == "ter":
        index = _reference_index(ref)
        return lambda hyp: _ter_counts(hyp, *index, ref)
    if metric == "gleu" and src is None:
        raise ValueError("GLEU requires a source sentence")
    at_least(1, max_n=max_n)
    ref_counts = _ngram_counts(ref, max_n)
    src_counts = _ngram_counts(src if metric == "gleu" else (), max_n)
    src_only = {g: c for g, c in src_counts.items() if g not in ref_counts}
    return lambda hyp: ngram_stats(hyp, ref_counts, src_only, max_n, len(ref))


def line_stats(
    metric: str,
    hyps: Sequence[Sentence],
    refs: Sequence[Sentence],
    srcs: Sequence[Sentence] | None = None,
    max_n: int = DEFAULT_MAX_N,
) -> np.ndarray:
    """One stats row per aligned line, shape (lines, K); sources only for GLEU."""
    aligned(hypotheses=hyps, references=refs, sources=srcs)
    if not hyps:
        raise ValueError("empty corpus")
    srcs = [None] * len(refs) if srcs is None else srcs
    return np.array(
        [extractor(metric, r, s, max_n)(h) for h, r, s in zip(hyps, refs, srcs)],
        dtype=np.int64,
    )


def score(metric: str, stats: Sequence[int], smoothed: bool = False) -> float:
    """The metric's value on one line's stats or on a sum of lines' stats.

    BLEU/GLEU: geometric mean of the per-order precisions times the brevity
    penalty. smoothed adds one to every order's matches and total; unsmoothed,
    orders with zero total n-grams are excluded from the mean and any remaining
    zero-match order gives 0. TER: edits over reference length, which must be
    positive.
    """
    stats = [int(v) for v in stats]
    if metric == "ter":
        edits, ref_len = stats
        if ref_len == 0:
            raise ValueError("TER needs a non-empty reference")
        return edits / ref_len
    max_n = len(stats) // 2 - 1
    hyp_len, ref_len = stats[-2:]
    if hyp_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    orders = 0
    for m, t in zip(stats[:max_n], stats[max_n : 2 * max_n]):
        if smoothed:
            p = (m + 1.0) / (t + 1.0)  # zero-total orders contribute p = 1
        else:
            if t == 0:
                continue  # excluded from the geometric mean
            if m == 0:
                return 0.0
            p = m / t
        log_sum += math.log(p)
        orders += 1
    if orders == 0:
        return 0.0
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return penalty * math.exp(log_sum / orders)


def pooled(
    metric: str,
    hyps: Sequence[Sentence],
    refs: Sequence[Sentence],
    srcs: Sequence[Sentence] | None = None,
    max_n: int = DEFAULT_MAX_N,
    smoothed: bool = False,
) -> MetricScore:
    """The metric on the summed stats of every line."""
    stats = line_stats(metric, hyps, refs, srcs, max_n).sum(axis=0)
    return MetricScore(score(metric, stats, smoothed), metric.upper())


def sentence_bleu_smoothed(hyp: Sentence, ref: Sentence, max_n: int = DEFAULT_MAX_N) -> MetricScore:
    """Sentence BLEU with add-one smoothing on every order's counts.

    p_n = (matches_n + 1) / (total_n + 1), geometric mean over n = 1..max_n,
    times the brevity penalty. Always positive for a non-empty hypothesis.
    """
    stats = extractor("bleu", ref, None, max_n)(hyp)
    return MetricScore(score("bleu", stats, smoothed=True), "BLEU")


def corpus_bleu(
    hyps: Sequence[Sentence],
    refs: Sequence[Sentence],
    max_n: int = DEFAULT_MAX_N,
    smoothed: bool = False,
) -> MetricScore:
    """Corpus BLEU: clipped matches and totals pooled over all pairs before p_n.

    Unsmoothed by default; pooled orders with zero total n-grams are excluded
    from the geometric mean, and any remaining zero-match order gives 0.
    """
    return pooled("bleu", hyps, refs, None, max_n, smoothed)


def ter(hyp: Sentence, ref: Sentence) -> MetricScore:
    """Translation edit rate of one pair: (edits + shifts) / |ref|; see ter_stats."""
    return MetricScore(score("ter", ter_stats(hyp, ref)), "TER")


def doc_ter(hyps: Sequence[Sentence], refs: Sequence[Sentence]) -> MetricScore:
    """Pooled document TER: sum of per-sentence (edits + shifts) over summed |ref|.

    Every reference must be non-empty, as for sentence TER. Costs and
    `docmrt score` sum stats directly and so pool empty reference lines.
    """
    if not all(refs):
        raise ValueError("TER needs a non-empty reference")
    return pooled("ter", hyps, refs)


def gleu(
    hyps: Sequence[Sentence],
    sources: Sequence[Sentence],
    refs: Sequence[Sentence],
    max_n: int = DEFAULT_MAX_N,
    smoothed: bool = False,
) -> MetricScore:
    """Single-reference GLEU pooled over the corpus.

    Per order, the numerator is matches(hyp, ref) minus hypothesis n-grams that
    appear in the source but not the reference (floored at 0 per sentence), and
    the denominator is the total hypothesis n-gram count; geometric mean over
    orders with the BLEU brevity penalty. Zero-total orders follow the same
    rules as corpus_bleu.
    """
    return pooled("gleu", hyps, refs, sources, max_n, smoothed)


def cost_from_stats(kind: CostKind, stats: Sequence[int]) -> float:
    """Cost of one line's stats (sentence kinds, smoothed) or of summed stats."""
    value = score(kind.metric, stats, smoothed=kind.is_sentence_level)
    return value if kind.metric == "ter" else 1.0 - value


def seq_cost(
    kind: CostKind, hyp: Sentence, ref: Sentence, src: Sentence | None = None
) -> float:
    """Sentence-level cost for one hypothesis; lower is better."""
    if not kind.is_sentence_level:
        raise ValueError(f"{kind.value} is a document-level cost")
    return cost_from_stats(kind, extractor(kind.metric, ref, src)(hyp))


def doc_cost(
    kind: CostKind,
    hyps: Sequence[Sentence],
    refs: Sequence[Sentence],
    srcs: Sequence[Sentence] | None = None,
) -> float:
    """Document-level cost for an aligned hypothesis document; lower is better."""
    if not kind.is_document_level:
        raise ValueError(f"{kind.value} is a sentence-level cost")
    return cost_from_stats(kind, line_stats(kind.metric, hyps, refs, srcs).sum(axis=0))


DocCostFn = Callable[
    [Sequence[Sentence], Sequence[Sentence], "Sequence[Sentence] | None"], float
]


def document_cost_fn(kind: "CostKind | DocCostFn") -> DocCostFn:
    """Resolve a cost selector (or custom callable) to a document cost function.

    Sentence-level selectors extend additively: the cost of a document is the
    sum of per-sentence costs, matching the sentence-level risk objective.
    """
    if callable(kind) and not isinstance(kind, CostKind):
        return kind
    if kind.is_document_level:
        return lambda hyps, refs, srcs=None: doc_cost(kind, hyps, refs, srcs)
    return lambda hyps, refs, srcs=None: sum(
        cost_from_stats(kind, row) for row in line_stats(kind.metric, hyps, refs, srcs)
    )

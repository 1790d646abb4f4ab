"""Sentence- and document-level metrics (BLEU, TER, GLEU) and cost selectors.

All comparisons are on token ids. Costs are "lower is better": 1 - score for
BLEU/GLEU selectors, raw TER for TER selectors.

Every metric is a function of per-line counts that add up over lines, its
sufficient statistics. line_stats is the one way to them: it extracts one row
per line, and each sentence, document and corpus score sums the rows and scores
the sum (a sentence's is row 0 of a one-line call). BLEU and GLEU rows come from
one numpy pass per n-gram order over every line of a call (BLEU is GLEU with an
empty source); TER rows from one shift search over the lines of a call, each
step aligning every still-shifting line's hypothesis and shift candidates in
packed bit-parallel passes, against each distinct reference indexed once per
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .textcore import Sentence, aligned

# n-gram orders of BLEU and GLEU.
MAX_N = 4

# Longest hypothesis block considered by the TER shift search.
MAX_SHIFT_BLOCK = 10

# Match-mask bytes (lanes x columns x bytes per lane) of one _recurrence pass of
# the TER shift search: a step whose candidates need more takes several passes,
# so memory does not grow with a frequent token's candidate count.
PASS_BYTES = 1 << 19

METRICS = ("bleu", "ter", "gleu")


def check_metric(metric: str) -> None:
    """Reject a metric name outside METRICS, naming it."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")


@dataclass
class MetricScore:
    value: float


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
        return _COSTS[self][0]

    @property
    def is_sentence_level(self) -> bool:
        return _COSTS[self][1]

    def as_sentence_kind(self) -> "CostKind":
        return _SENTENCE_KIND[self]


# (sentence kind, document kind) of each metric; the lookups above and
# cost_from_stats read maps built from it once, because costs run once per scored row
_LEVELS = [
    (CostKind.ONE_MINUS_SBLEU, CostKind.ONE_MINUS_DOCBLEU),
    (CostKind.SENT_TER, CostKind.DOC_TER),
    (CostKind.ONE_MINUS_SENT_GLEU, CostKind.ONE_MINUS_DOC_GLEU),
]
_SENTENCE_KIND = {kind: sent for sent, doc in _LEVELS for kind in (sent, doc)}
# (metric, is sentence level) of each kind; cost_from_stats smooths sentence costs
_COSTS = {
    kind: (next(m for m in METRICS if kind.value.endswith(m)), _SENTENCE_KIND[kind] is kind)
    for kind in CostKind
}


def _reference_index(ref: Sentence) -> tuple[dict, dict]:
    """Match masks (bit k of masks[tok] set where ref[k] == tok) and the ascending
    positions of each reference token, keyed by the token.

    The shift search finds the positions of longer blocks by extending these
    in place (see _shift_candidates), so no table of every block is built.
    """
    masks, starts = {}, {}
    for k, tok in enumerate(ref):
        masks[tok] = masks.get(tok, 0) | 1 << k
        starts.setdefault(tok, []).append(k)
    return masks, starts


def _recurrence(eqs: Iterable[int], full: int, lows: int) -> tuple[int, int]:
    """Myers' (1999) bit-vector DP in Hyyrö's (2003) global form, for lanes packed
    side by side in one int, fed each column's match masks (bit k of a lane set
    where row k of its reference matches its token there). Bit k of vp/vn is the
    +1/-1 step from row k to k + 1 of a lane's column; full sets each lane's rows,
    and lows each lane's row 0, which grows by one per column. From the empty
    hypothesis (every step +1) it returns the last column's (vp, vn), so a lane's
    distance is the column count plus its vp bits less its vn bits.

    The rows outside full, a lane's unused rows and the carry bit on top that
    keeps its carries out of the next lane, keep steps of 0, and a row's step
    depends only on the rows below it, so they change no distance. Complements
    are taken within full, so every int stays non-negative.
    """
    vp, vn = full, 0
    for eq in eqs:
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = (vn | (d0 | vp) ^ full) << 1 | lows
        vp = ((vp & d0) << 1 | (d0 | hp) ^ full) & full
        vn = hp & d0  # no mask: a carry past a lane's last row needs its vp bit, clearing hp's
    return vp, vn


def _ter_rows(hyps: Sequence[Sentence], refs: list[tuple], index: dict) -> list[list[int]]:
    """TER stats of each aligned line (see ter), its reference a key of index,
    which maps it to its _reference_index. Each shift step aligns every
    still-shifting line's current hypothesis and all its shift candidates
    together (_align), over the columns and lane width that _pack fixes for all
    steps; a line applies its first candidate of fewest edits while that is
    below its current hypothesis's edits.
    """
    cols, width, rows, fulls = _pack(hyps, refs, index)
    currents, starts = [list(hyp) for hyp in hyps], [index[ref][1] for ref in refs]
    stats, shifts, live = [None] * len(hyps), [0] * len(hyps), range(len(hyps))
    while live:
        shapes = [_shift_candidates(currents[i], refs[i], starts[i]) for i in live]
        lanes = [(rows[i], fulls[i], shape) for i, shape in zip(live, shapes)]
        dists, still, end = _align(lanes, cols, width), [], 0
        for i, shape in zip(live, shapes):
            edits = dists[end : end + len(shape) // 3]
            end += len(edits)
            best = min(edits)
            if best < edits[0]:
                k = 3 * edits.index(best)
                lo, mid, hi = shape[k : k + 3]
                currents[i] = _swap(currents[i], lo, mid, hi)
                rows[i] = _swap(rows[i], lo * width, mid * width, hi * width)
                shifts[i] += 1
                if best:
                    still.append(i)
                    continue
            stats[i] = [best + shifts[i], len(refs[i])]
        live = still
    return stats


def _pack(hyps: Sequence[Sentence], refs: list[tuple], index: dict) -> tuple:
    """(cols, width, rows, fulls) of aligned lines, each reference a key of index
    as in _ter_rows: a line's rows are the match masks of its cols columns, width
    bytes each, and its full sets its reference's rows.

    Every hypothesis is cols columns: its tokens, then as many sentinel tokens as
    bring it to the longest one's length, and its reference ends with as many
    sentinels. A common suffix leaves the edit distance as it is, so all lanes run
    the same columns from the same start. Width fits each padded reference and
    one bit more, which keeps a lane's carry out of the next lane.
    """
    cols = max(map(len, hyps))
    heights = [len(ref) + cols - len(hyp) for hyp, ref in zip(hyps, refs)]
    width = max(heights) // 8 + 1
    tables = {  # each distinct reference's match masks as bytes
        ref: {tok: mask.to_bytes(width, "little") for tok, mask in index[ref][0].items()}
        for ref in set(refs)
    }
    rows, fulls, zero = [], [], bytes(width)
    for hyp, ref, height in zip(hyps, refs, heights):
        sentinel = ((1 << height) - (1 << len(ref))).to_bytes(width, "little")
        tokens = b"".join([tables[ref].get(tok, zero) for tok in hyp])
        rows.append(tokens + sentinel * (cols - len(hyp)))
        fulls.append(((1 << height) - 1).to_bytes(width, "little"))
    return cols, width, rows, fulls


def _swap(seq, lo: int, mid: int, hi: int):
    """seq with its adjacent runs [lo, mid) and [mid, hi) swapped."""
    return seq[:lo] + seq[mid:hi] + seq[lo:mid] + seq[hi:]


def _shift_candidates(current: list, ref: Sentence, starts: dict) -> list[int]:
    """The shapes to align for current: (0, 0, 0), current itself, then every
    shift of a block to where ref has the same tokens, in scan order (block start,
    length, destination), as the (lo, mid, hi) of the two runs it swaps; flat.

    A block from i grows one token at a time: the positions of the longer block
    are those k of the shorter one where ref[k + length - 1] is the new token,
    and the block stops growing at the first length with none.
    """
    n, ref_len, shapes = len(current), len(ref), [0, 0, 0]
    for i, tok in enumerate(current):
        positions, length = starts.get(tok), 1
        while positions:
            end, last = i + length, n - length
            for j in positions:
                if j > last:
                    break
                if j != i:  # reinserting in place is a no-op
                    shapes += (j, i, end) if j < i else (i, end, j + length)
            if length == MAX_SHIFT_BLOCK or end == n:
                break
            tok = current[end]
            positions = [k for k in positions if k + length < ref_len and ref[k + length] == tok]
            length += 1
    return shapes


def _align(lanes: list[tuple], cols: int, width: int) -> list[int]:
    """The edit distance of every shape of every (rows, full, shapes) of lanes, in
    order: rows with the runs of the shape swapped, against the reference rows
    that full sets. A _recurrence pass aligns as many shapes as fit PASS_BYTES
    of match masks, and at least one.
    """
    per_pass, dists, parts, fulls = max(1, PASS_BYTES // (max(cols, 1) * width)), [], [], []
    for rows, full, shapes in lanes:
        for k in range(0, len(shapes), 3):
            lo, mid, hi = shapes[k] * width, shapes[k + 1] * width, shapes[k + 2] * width
            parts += (rows[:lo], rows[mid:hi], rows[lo:mid], rows[hi:])  # _swap's runs
            fulls.append(full)
            if len(fulls) == per_pass:
                dists += _distances(parts, fulls, cols, width)
                parts, fulls = [], []
    return dists + _distances(parts, fulls, cols, width) if fulls else dists


def _distances(parts: list[bytes], fulls: list[bytes], cols: int, width: int) -> list[int]:
    """One _recurrence pass: the edit distance of each lane whose cols match masks
    parts hold, against the reference rows of its full."""
    n = len(fulls)
    masks = np.frombuffer(b"".join(parts), np.uint8).reshape(n, cols, width)
    eqs = (int.from_bytes(eq, "little") for eq in masks.transpose(1, 0, 2).copy())
    lows = int.from_bytes((b"\x01" + bytes(width - 1)) * n, "little")
    vp, vn = _recurrence(eqs, int.from_bytes(b"".join(fulls), "little"), lows)
    steps = (vp.to_bytes(n * width, "little") + vn.to_bytes(n * width, "little")).translate(_ONES)
    ones = np.frombuffer(steps, np.uint8).reshape(2, n, width).sum(2, dtype=np.int64)
    return (cols + ones[0] - ones[1]).tolist()


# The number of set bits of each byte value, for bytes.translate.
_ONES = bytes(byte.bit_count() for byte in range(256))

# Lines per n-gram pass, and per TER shift search, of line_stats. A default-size
# MRT update (4 samples x 4 sentences x 8 micro-batches) scores at most 128
# distinct lines in one call, so it takes one pass. The chunk bounds the n-gram
# pass's temporaries (a 128-line GLEU pass of 3-30 token lines peaks at 0.65 MB,
# against 0.34 MB at 64 lines) and keeps its int64 keys below the square of one
# chunk's token count.
LINE_CHUNK = 128


def line_stats(
    metric: str,
    hyps: Sequence[Sentence],
    refs: Sequence[Sentence],
    srcs: Sequence[Sentence] | None = None,
) -> np.ndarray:
    """One stats row per aligned line, shape (lines, K); sources only for GLEU.
    Each distinct TER reference is indexed once per call."""
    check_metric(metric)
    aligned(hypotheses=hyps, references=refs, sources=srcs)
    if not hyps:
        raise ValueError("empty corpus")
    if metric == "ter":
        keys = [tuple(ref) for ref in refs]
        index = {key: _reference_index(key) for key in dict.fromkeys(keys)}
        rows = [
            row
            for k in range(0, len(hyps), LINE_CHUNK)
            for row in _ter_rows(hyps[k : k + LINE_CHUNK], keys[k : k + LINE_CHUNK], index)
        ]
        return np.array(rows, dtype=np.int64)
    if metric == "gleu" and srcs is None:
        raise ValueError("GLEU requires a source sentence")
    sides = (hyps, refs, srcs) if metric == "gleu" else (hyps, refs)
    chunks = [[side[k : k + LINE_CHUNK] for side in sides] for k in range(0, len(hyps), LINE_CHUNK)]
    return np.concatenate([_ngram_rows(chunk) for chunk in chunks])


def _ngram_rows(sides: list[Sequence[Sentence]]) -> np.ndarray:
    """BLEU/GLEU rows of aligned hypotheses, references and (GLEU) sources:
    [matches per order, hypothesis n-grams per order, hypothesis length,
    reference length]. Per order n, a line's copies of an n-gram share a key
    (token and line at n = 1, then the ranks of the first n - 1 tokens and of
    the last, below the square of the token count); one stable sort groups the
    keys, one bincount counts each group per side (h, r, s), and a line sums
    min(h, r), minus min(h, s) where r == 0, floored at 0. Only n-grams whose
    first n - 1 tokens count on some side are keyed: no other can count."""
    roles, lines = len(sides), len(sides[0])
    sentences = [sentence for line in zip(*sides) for sentence in line]
    lens = np.fromiter(map(len, sentences), np.int64, len(sentences))
    seg = np.arange(len(sentences)).repeat(lens)  # sentence of each position
    pos = np.arange(len(seg))
    room = lens.cumsum()[seg] - pos  # tokens from each position to its sentence's end
    line, side = np.divmod(seg, roles)
    key = np.fromiter(chain.from_iterable(sentences), np.int64, len(seg))
    out = np.zeros((lines, 2 * MAX_N + 2), dtype=np.int64)
    out[:, MAX_N:-2] = (lens[::roles, None] - np.arange(MAX_N)).clip(0)
    out[:, -2], out[:, -1] = lens[::roles], lens[1::roles]
    for n in range(1, MAX_N + 1):
        if n > 1:
            keep = live[group] & (room[pos] >= n)
            pos = pos[keep]
            key = group[keep] * unigrams + first[pos + (n - 1)]
        if not len(pos):
            break  # no line shares an n-gram of this or any higher order
        order = key.argsort(kind="stable")
        key, pos = key[order], pos[order]
        owner = line[pos]  # the line of each n-gram, in key order
        new = np.concatenate(([True], key[1:] != key[:-1]))
        if n == 1:  # a stable sort of tokens keeps each token's lines in order
            new[1:] |= owner[1:] != owner[:-1]
        group = new.cumsum()  # 1-based: the counts of group 0 are zeros
        counts = np.bincount(group * roles + side[pos], minlength=(group[-1] + 1) * roles)
        hyp, ref = counts[0::roles], counts[1::roles]
        matches = np.minimum(hyp, ref)
        live = matches > 0
        if roles == 3:
            penalty = np.minimum(hyp, counts[2::roles])
            live |= penalty > 0
            matches -= penalty * (ref == 0)
        out[:, n - 1] = np.bincount(owner[new], weights=matches[1:], minlength=lines).clip(0)
        if n == 1:
            first, unigrams = np.empty_like(group), group[-1] + 1
            first[pos] = group
    return out


def score(metric: str, stats: Sequence[int], smoothed: bool = False) -> float:
    """The metric's value on one line's stats or on a sum of lines' stats.

    BLEU/GLEU: geometric mean of the per-order precisions times the brevity
    penalty. smoothed adds one to every order's matches and total; unsmoothed,
    orders with zero total n-grams are excluded from the mean and any remaining
    zero-match order gives 0. TER: edits over reference length, which must be
    positive.
    """
    check_metric(metric)
    return _score(metric, [int(v) for v in stats], smoothed)


def _score(metric: str, stats: Sequence[int], smoothed: bool) -> float:
    """score's formula, on a checked metric name and stats of Python ints."""
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
) -> MetricScore:
    """The metric, unsmoothed, on the summed stats of every line."""
    stats = line_stats(metric, hyps, refs, srcs).sum(axis=0)
    return MetricScore(score(metric, stats))


def sentence_bleu_smoothed(hyp: Sentence, ref: Sentence) -> MetricScore:
    """Sentence BLEU with add-one smoothing on every order's counts.

    p_n = (matches_n + 1) / (total_n + 1), geometric mean over n = 1..MAX_N,
    times the brevity penalty. Always positive for a non-empty hypothesis.
    """
    stats = line_stats("bleu", [hyp], [ref])[0]
    return MetricScore(score("bleu", stats, smoothed=True))


def corpus_bleu(hyps: Sequence[Sentence], refs: Sequence[Sentence]) -> MetricScore:
    """Corpus BLEU: clipped matches and totals pooled over all pairs before p_n.

    Pooled orders with zero total n-grams are excluded from the geometric mean,
    and any remaining zero-match order gives 0.
    """
    return pooled("bleu", hyps, refs)


def ter(hyp: Sentence, ref: Sentence) -> MetricScore:
    """Translation edit rate of one pair: (edits + shifts) / |ref|, from the line's
    TER stats [edits + shifts, reference length].

    Edits are word-level Levenshtein operations; a shift moves one contiguous
    block (length <= MAX_SHIFT_BLOCK) to a position where it exactly matches the
    reference, costs 1, and the best one (ties: first by block start, length,
    destination) is accepted while it strictly reduces the remaining edit
    distance. An empty reference gives the stats [len(hyp), 0].
    """
    return MetricScore(score("ter", line_stats("ter", [hyp], [ref])[0]))


def doc_ter(hyps: Sequence[Sentence], refs: Sequence[Sentence]) -> MetricScore:
    """Pooled document TER: sum of per-sentence (edits + shifts) over summed |ref|.

    Every reference must be non-empty, as for sentence TER. Costs and
    `docmrt score` sum stats directly and so pool empty reference lines.
    """
    if not all(refs):
        raise ValueError("TER needs a non-empty reference")
    return pooled("ter", hyps, refs)


def gleu(
    hyps: Sequence[Sentence], sources: Sequence[Sentence], refs: Sequence[Sentence]
) -> MetricScore:
    """Single-reference GLEU pooled over the corpus.

    Per order, the numerator is matches(hyp, ref) minus hypothesis n-grams that
    appear in the source but not the reference (floored at 0 per sentence), and
    the denominator is the total hypothesis n-gram count; geometric mean over
    orders with the BLEU brevity penalty. Zero-total orders follow the same
    rules as corpus_bleu.
    """
    return pooled("gleu", hyps, refs, sources)


def cost_from_stats(kind: CostKind, stats: Sequence[int]) -> float:
    """Cost of one line's stats (sentence kinds, smoothed) or of summed stats.
    A tuple must hold Python ints, as sampling's memoised rows do; any other
    sequence is converted."""
    metric, smoothed = _COSTS[kind]
    if type(stats) is not tuple:
        stats = [int(v) for v in stats]
    value = _score(metric, stats, smoothed)
    return value if metric == "ter" else 1.0 - value


def seq_cost(
    kind: CostKind, hyp: Sentence, ref: Sentence, src: Sentence | None = None
) -> float:
    """Sentence-level cost for one hypothesis; lower is better."""
    if not kind.is_sentence_level:
        raise ValueError(f"{kind.value} is a document-level cost")
    srcs = None if src is None else [src]
    return cost_from_stats(kind, line_stats(kind.metric, [hyp], [ref], srcs)[0])


def doc_cost(
    kind: CostKind,
    hyps: Sequence[Sentence],
    refs: Sequence[Sentence],
    srcs: Sequence[Sentence] | None = None,
) -> float:
    """Document-level cost for an aligned hypothesis document; lower is better."""
    if kind.is_sentence_level:
        raise ValueError(f"{kind.value} is a sentence-level cost")
    return cost_from_stats(kind, line_stats(kind.metric, hyps, refs, srcs).sum(axis=0))


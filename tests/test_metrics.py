import math
import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docmrt import metrics
from docmrt.metrics import (
    MAX_SHIFT_BLOCK,
    CostKind,
    _reference_index,
    corpus_bleu,
    doc_cost,
    doc_ter,
    gleu,
    sentence_bleu_smoothed,
    seq_cost,
    ter,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_ngram_stats(hyp, ref, n):
    """Clipped matches and totals by plain position scans."""
    hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
    ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    matches = sum(
        min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams)
    )
    return matches, len(hyp_grams)


def oracle_sentence_bleu(hyp, ref, max_n=4):
    if len(hyp) == 0:
        return 1.0 if len(ref) == 0 else 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        m, t = oracle_ngram_stats(hyp, ref, n)
        log_sum += math.log((m + 1) / (t + 1))
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1 - len(ref) / len(hyp))
    return bp * math.exp(log_sum / max_n)


def oracle_corpus_bleu(hyps, refs, max_n=4):
    matches = [0] * max_n
    totals = [0] * max_n
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            m, t = oracle_ngram_stats(hyp, ref, n)
            matches[n - 1] += m
            totals[n - 1] += t
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    ps = [m / t for m, t in zip(matches, totals) if t > 0]
    if not ps or any(p == 0.0 for p in ps):
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return bp * math.exp(sum(math.log(p) for p in ps) / len(ps))


def oracle_levenshtein(a, b):
    """Plain recursive edit distance, memoized; independent of the DP version."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def random_sentence(rng, max_len=8, alphabet=6):
    return tuple(int(x) for x in rng.integers(0, alphabet, size=int(rng.integers(0, max_len + 1))))


# ---------------------------------------------------------------------------
# sentence BLEU
# ---------------------------------------------------------------------------


def test_sentence_bleu_identity():
    assert sentence_bleu_smoothed((7, 8), (7, 8)).value == 1.0


def test_sentence_bleu_disjoint_hand_value():
    # p = (1/4, 1/3, 1/2, 1), BP = 1 -> (1/24) ** 0.25
    score = sentence_bleu_smoothed((1, 2, 3), (4, 5, 6))
    assert math.isclose(score.value, (1 / 24) ** 0.25, rel_tol=0, abs_tol=1e-12)


def test_sentence_bleu_brevity_hand_value():
    # all smoothed precisions 1, BP = exp(1 - 4/3)
    score = sentence_bleu_smoothed((1, 2, 3), (1, 2, 3, 4))
    assert math.isclose(score.value, math.exp(1 - 4 / 3), abs_tol=1e-12)


def test_sentence_bleu_empty_hypothesis():
    assert sentence_bleu_smoothed((), (1, 2)).value == 0.0
    assert sentence_bleu_smoothed((), ()).value == 1.0


def test_sentence_bleu_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        hyp = random_sentence(rng)
        ref = random_sentence(rng)
        got = sentence_bleu_smoothed(hyp, ref).value
        assert abs(got - oracle_sentence_bleu(hyp, ref)) < 1e-12


def test_sentence_bleu_is_one_only_on_identity_for_equal_lengths():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        hyp = tuple(int(x) for x in rng.integers(0, 4, size=n))
        ref = tuple(int(x) for x in rng.integers(0, 4, size=n))
        value = sentence_bleu_smoothed(hyp, ref).value
        assert (value == 1.0) == (hyp == ref)


def test_sentence_bleu_positive_for_nonempty_hyp():
    rng = np.random.default_rng(3)
    for _ in range(200):
        hyp = random_sentence(rng)
        ref = random_sentence(rng)
        value = sentence_bleu_smoothed(hyp, ref).value
        if len(hyp) > 0:
            assert 0.0 < value <= 1.0


# ---------------------------------------------------------------------------
# corpus BLEU
# ---------------------------------------------------------------------------


def test_corpus_bleu_identity():
    hyps = [(4, 5, 6), (7,), (8, 9)]
    assert corpus_bleu(hyps, hyps).value == 1.0


def test_corpus_bleu_zero_on_disjoint_pair():
    assert corpus_bleu([(1, 2, 3)], [(4, 5, 6)]).value == 0.0


def test_corpus_bleu_zero_when_any_pooled_order_has_zero_matches():
    # order 3 pools one hypothesis trigram with no match -> unsmoothed BLEU 0
    hyps = [(1, 2), (4, 5, 6)]
    refs = [(1, 2), (4, 9, 6)]
    assert corpus_bleu(hyps, refs).value == 0.0


def test_corpus_bleu_excludes_zero_total_orders():
    # all hyps shorter than 3: orders 3, 4 have no totals and drop out
    hyps = [(1, 2), (4, 5)]
    refs = [(1, 2), (4, 9)]
    expected = math.sqrt((3 / 4) * (1 / 2))
    got = corpus_bleu(hyps, refs).value
    assert math.isclose(got, expected, abs_tol=1e-12)
    assert math.isclose(got, oracle_corpus_bleu(hyps, refs), abs_tol=1e-12)


def test_corpus_bleu_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(7)
    for _ in range(60):
        size = int(rng.integers(1, 5))
        hyps = [random_sentence(rng) for _ in range(size)]
        refs = [random_sentence(rng) for _ in range(size)]
        got = corpus_bleu(hyps, refs).value
        assert abs(got - oracle_corpus_bleu(hyps, refs)) < 1e-12


def test_corpus_bleu_length_mismatch():
    with pytest.raises(ValueError):
        corpus_bleu([(1,)], [(1,), (2,)])


def test_corpus_bleu_pools_not_averages():
    # pooled counts differ from the mean of sentence scores when lengths differ:
    # per order, the second line matches 4/6, 3/5, 2/4 and 1/3, pooled 8/10,
    # 6/8, 4/6 and 2/4
    hyps = [(1, 2, 3, 4), (1, 2, 3, 4, 5, 5)]
    refs = [(1, 2, 3, 4), (1, 2, 3, 4, 6, 6)]
    pooled = corpus_bleu(hyps, refs).value
    mean = np.mean([corpus_bleu([h], [r]).value for h, r in zip(hyps, refs)])
    assert pooled == pytest.approx((1 / 5) ** (1 / 4), rel=1e-12)
    assert mean == pytest.approx((1 + (1 / 15) ** (1 / 4)) / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# TER
# ---------------------------------------------------------------------------


def test_ter_identity():
    assert ter((4, 5, 6), (4, 5, 6)).value == 0.0


def test_ter_substitution_hand_value():
    # one substitution, no helpful shift
    assert ter((1, 9, 3, 4), (1, 2, 3, 4)).value == 0.25


def test_ter_shift_hand_value():
    # block [a, b] shifts to the front: 1 shift, 0 edits; WER would be 1.0
    hyp, ref = (3, 4, 1, 2), (1, 2, 3, 4)
    assert ter(hyp, ref).value == 0.25
    assert oracle_levenshtein(hyp, ref) / len(ref) == 1.0


def test_ter_empty_reference_errors():
    with pytest.raises(ValueError, match="empty reference"):
        ter((1,), ())


def test_ter_empty_hypothesis():
    assert ter((), (1, 2)).value == 1.0


def test_ter_bounded_by_wer_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        hyp = random_sentence(rng, max_len=8, alphabet=5)
        ref = random_sentence(rng, max_len=8, alphabet=5)
        if len(ref) == 0:
            continue
        wer = oracle_levenshtein(hyp, ref) / len(ref)
        assert ter(hyp, ref).value <= wer + 1e-12


def test_doc_ter_identity():
    hyps = [(4, 5), (6,)]
    assert doc_ter(hyps, hyps).value == 0.0


def test_doc_ter_pools_edits_over_lengths():
    # (1 edit, |ref|=4) and (0 edits, |ref|=6) -> 1/10, not the 0.125 mean
    hyps = [(1, 9, 3, 4), (5, 6, 7, 8, 9, 1)]
    refs = [(1, 2, 3, 4), (5, 6, 7, 8, 9, 1)]
    assert doc_ter(hyps, refs).value == 0.1
    per_sentence = [ter(h, r).value for h, r in zip(hyps, refs)]
    assert np.mean(per_sentence) == 0.125


def test_doc_ter_between_min_and_max_sentence_ter():
    rng = np.random.default_rng(5)
    for _ in range(100):
        size = int(rng.integers(1, 5))
        hyps, refs = [], []
        for _ in range(size):
            hyps.append(random_sentence(rng, alphabet=4))
            ref = ()
            while len(ref) == 0:
                ref = random_sentence(rng, alphabet=4)
            refs.append(ref)
        pooled = doc_ter(hyps, refs).value
        per = [ter(h, r).value for h, r in zip(hyps, refs)]
        assert min(per) - 1e-12 <= pooled <= max(per) + 1e-12


def test_doc_ter_rejects_empty_reference():
    with pytest.raises(ValueError):
        doc_ter([(1,), (2,)], [(1,), ()])


# ---------------------------------------------------------------------------
# GLEU
# ---------------------------------------------------------------------------


def test_gleu_identity():
    hyps = [(4, 5, 6), (7, 8)]
    srcs = [(4, 9, 6), (8, 7)]
    assert gleu(hyps, srcs, hyps).value == 1.0


def test_gleu_uncorrected_output_scores_zero():
    # hypothesis equals the source and misses the correction
    src, ref = (1, 2), (1, 3)
    assert gleu([src], [src], [ref]).value == 0.0


def test_gleu_correct_change_scores_one():
    assert gleu([(1, 2)], [(1, 9)], [(1, 2)]).value == 1.0


def test_gleu_equals_corpus_bleu_without_penalties():
    rng = np.random.default_rng(17)
    for _ in range(50):
        size = int(rng.integers(1, 4))
        hyps = [random_sentence(rng, alphabet=5) for _ in range(size)]
        refs = [random_sentence(rng, alphabet=5) for _ in range(size)]
        # sources from a disjoint alphabet share nothing with the hypotheses
        srcs = [
            tuple(int(x) for x in rng.integers(100, 105, size=3)) for _ in range(size)
        ]
        assert gleu(hyps, srcs, refs).value == corpus_bleu(hyps, refs).value


def test_gleu_length_mismatch():
    with pytest.raises(ValueError):
        gleu([(1,)], [(1,)], [(1,), (2,)])


# ---------------------------------------------------------------------------
# cost selectors
# ---------------------------------------------------------------------------


def test_seq_cost_identity_pairs():
    assert seq_cost(CostKind.ONE_MINUS_SBLEU, (4, 5), (4, 5)) == 0.0
    assert seq_cost(CostKind.SENT_TER, (4, 5), (4, 5)) == 0.0
    assert seq_cost(CostKind.ONE_MINUS_SENT_GLEU, (4, 5), (4, 5), (4, 9)) == 0.0


def test_seq_cost_disjoint_sbleu():
    got = seq_cost(CostKind.ONE_MINUS_SBLEU, (1, 2, 3), (4, 5, 6))
    assert math.isclose(got, 1 - (1 / 24) ** 0.25, abs_tol=1e-12)


def test_seq_cost_rejects_document_kind():
    with pytest.raises(ValueError):
        seq_cost(CostKind.ONE_MINUS_DOCBLEU, (1,), (1,))


def test_doc_cost_identity():
    hyps = [(4, 5), (6, 7)]
    assert doc_cost(CostKind.ONE_MINUS_DOCBLEU, hyps, hyps) == 0.0
    assert doc_cost(CostKind.DOC_TER, hyps, hyps) == 0.0
    assert doc_cost(CostKind.ONE_MINUS_DOC_GLEU, hyps, hyps, [(9,), (9,)]) == 0.0


def test_doc_cost_from_corpus_bleu():
    hyps = [(1, 2), (4, 5)]
    refs = [(1, 2), (4, 9)]
    expected = 1 - math.sqrt(3 / 8)
    assert math.isclose(doc_cost(CostKind.ONE_MINUS_DOCBLEU, hyps, refs), expected, abs_tol=1e-12)


def test_doc_cost_rejects_sentence_kind():
    with pytest.raises(ValueError):
        doc_cost(CostKind.SENT_TER, [(1,)], [(1,)])


def test_gleu_cost_requires_source():
    with pytest.raises(ValueError):
        seq_cost(CostKind.ONE_MINUS_SENT_GLEU, (1,), (1,))
    with pytest.raises(ValueError):
        doc_cost(CostKind.ONE_MINUS_DOC_GLEU, [(1,)], [(1,)])


def test_kind_conversions_round_trip():
    for kind in CostKind:
        assert kind.as_sentence_kind().is_sentence_level


def reference_score(metric, stats, smoothed=False):
    """metrics.score before cost_from_stats shared its formula: every value
    converted to int, then scored."""
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
            p = (m + 1.0) / (t + 1.0)
        else:
            if t == 0:
                continue
            if m == 0:
                return 0.0
            p = m / t
        log_sum += math.log(p)
        orders += 1
    if orders == 0:
        return 0.0
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return penalty * math.exp(log_sum / orders)


@st.composite
def cost_rows(draw):
    """(kind, row): TER rows [edits, ref length >= 1]; BLEU/GLEU rows of matches
    <= totals per order, with zero matches, zero totals and empty lines common."""
    kind = draw(st.sampled_from(list(CostKind)))
    small = st.integers(0, 3) | st.integers(0, 60)
    if kind.metric == "ter":
        return kind, [draw(small), draw(st.integers(1, 60))]
    totals = [draw(small) for _ in range(metrics.MAX_N)]
    matches = [draw(st.integers(0, t)) for t in totals]
    return kind, matches + totals + [draw(small), draw(small)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cost_rows())
def test_cost_from_stats_equals_the_score_formula_on_every_row_type(case):
    kind, row = case
    value = reference_score(kind.metric, row, smoothed=kind.is_sentence_level)
    want = value if kind.metric == "ter" else 1.0 - value
    for form in (tuple(row), list(row), np.array(row, dtype=np.int64)):
        got = metrics.cost_from_stats(kind, form)
        assert type(got) is float and got.hex() == want.hex()


def test_cost_from_stats_keeps_the_score_checks():
    for kind in (CostKind.SENT_TER, CostKind.DOC_TER):
        for form in ((3, 0), [3, 0], np.array([3, 0])):
            with pytest.raises(ValueError, match="TER needs a non-empty reference"):
                metrics.cost_from_stats(kind, form)
    with pytest.raises(ValueError, match="unknown metric 'bogus'"):
        metrics.score("bogus", [1, 1])
    # an empty hypothesis line, and a line whose every order has no n-gram
    assert metrics.cost_from_stats(CostKind.ONE_MINUS_SBLEU, (0,) * 10) == 0.0
    assert metrics.cost_from_stats(CostKind.ONE_MINUS_DOCBLEU, (0,) * 8 + (2, 1)) == 1.0


# ---------------------------------------------------------------------------
# shared properties
# ---------------------------------------------------------------------------


def test_pooled_metrics_are_permutation_covariant():
    rng = np.random.default_rng(23)
    for _ in range(30):
        size = int(rng.integers(2, 6))
        hyps = [random_sentence(rng, alphabet=5) for _ in range(size)]
        srcs = [random_sentence(rng, alphabet=5) for _ in range(size)]
        refs = []
        for _ in range(size):
            ref = ()
            while len(ref) == 0:
                ref = random_sentence(rng, alphabet=5)
            refs.append(ref)
        perm = rng.permutation(size)
        shuffle = lambda xs: [xs[i] for i in perm]
        assert corpus_bleu(shuffle(hyps), shuffle(refs)).value == corpus_bleu(hyps, refs).value
        assert doc_ter(shuffle(hyps), shuffle(refs)).value == doc_ter(hyps, refs).value
        assert (
            gleu(shuffle(hyps), shuffle(srcs), shuffle(refs)).value
            == gleu(hyps, srcs, refs).value
        )


# ---------------------------------------------------------------------------
# summed sufficient statistics against the per-metric loops they replaced
# ---------------------------------------------------------------------------


def ngrams(sentence, n):
    """Multiset of all contiguous length-n subsequences."""
    seq = tuple(sentence)
    return Counter(seq[i : i + n] for i in range(len(seq) - n + 1))


def reference_clipped_matches(hyp, ref, n):
    hyp_grams = ngrams(hyp, n)
    total = sum(hyp_grams.values())
    if total == 0:
        return 0, 0
    ref_grams = ngrams(ref, n)
    return sum(min(c, ref_grams[g]) for g, c in hyp_grams.items()), total


def reference_gleu_sentence_stats(hyp, src, ref, n):
    hyp_grams = ngrams(hyp, n)
    total = sum(hyp_grams.values())
    if total == 0:
        return 0, 0
    ref_grams = ngrams(ref, n)
    src_only = ngrams(src, n)
    for g in list(src_only):
        if g in ref_grams:
            del src_only[g]
    matches = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    penalty = sum(min(c, src_only[g]) for g, c in hyp_grams.items() if g in src_only)
    return max(matches - penalty, 0), total


def reference_bleu_from_stats(matches, totals, hyp_len, ref_len, smoothed):
    if hyp_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    orders = 0
    for m, t in zip(matches, totals):
        if smoothed:
            p = (m + 1.0) / (t + 1.0)
        else:
            if t == 0:
                continue
            if m == 0:
                return 0.0
            p = m / t
        log_sum += math.log(p)
        orders += 1
    if orders == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / orders)


def reference_pooled_ngram(stats_fn, hyps, refs, max_n, smoothed):
    """The pooled loop shared by corpus BLEU and GLEU before stats were summed."""
    matches = [0] * max_n
    totals = [0] * max_n
    for i in range(len(hyps)):
        for n in range(1, max_n + 1):
            m, t = stats_fn(i, n)
            matches[n - 1] += m
            totals[n - 1] += t
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    return reference_bleu_from_stats(matches, totals, hyp_len, ref_len, smoothed)


def reference_corpus_bleu(hyps, refs, max_n, smoothed):
    stats_fn = lambda i, n: reference_clipped_matches(hyps[i], refs[i], n)
    return reference_pooled_ngram(stats_fn, hyps, refs, max_n, smoothed)


def reference_gleu(hyps, srcs, refs, max_n, smoothed):
    stats_fn = lambda i, n: reference_gleu_sentence_stats(hyps[i], srcs[i], refs[i], n)
    return reference_pooled_ngram(stats_fn, hyps, refs, max_n, smoothed)


def reference_edit_distance(a, b):
    """Word-level Levenshtein distance with unit insert/delete/substitute costs."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            sub = prev[j - 1] + (tok_a != tok_b)
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, sub)
        prev = cur
    return prev[-1]


def edit_distance(hyp, masks, ref_len):
    """Word-level Levenshtein distance from hyp to the reference of masks, by a
    metrics._recurrence pass of one lane on hyp's match masks."""
    eqs = [masks.get(tok, 0) for tok in hyp]
    vp, vn = metrics._recurrence(eqs, (1 << ref_len) - 1, 1)
    return len(hyp) + vp.bit_count() - vn.bit_count()


def reference_best_shift(hyp, ref, edits):
    """The unindexed shift search, the oracle of TER line_stats: every (block start,
    block length, destination) in scan order, each candidate aligned by the
    full DP; the first strictly-best candidate wins."""
    best = None
    ref = list(ref)
    for i in range(len(hyp)):
        for length in range(1, min(MAX_SHIFT_BLOCK, len(hyp) - i) + 1):
            block = hyp[i : i + length]
            rest = hyp[:i] + hyp[i + length :]
            for j in range(len(rest) + 1):
                if j == i:
                    continue  # reinserting in place is a no-op
                if ref[j : j + length] != block:
                    continue
                candidate = rest[:j] + block + rest[j:]
                e = reference_edit_distance(candidate, ref)
                if e < edits and (best is None or e < best[0]):
                    best = (e, candidate)
    return best


def reference_ter_counts(hyp, ref):
    current = list(hyp)
    edits = reference_edit_distance(current, ref)
    shifts = 0
    while edits > 0:
        found = reference_best_shift(current, ref, edits)
        if found is None:
            break
        edits, current = found
        shifts += 1
    return edits + shifts, len(ref)


def reference_doc_ter(hyps, refs):
    numer = denom = 0
    for hyp, ref in zip(hyps, refs):
        e, r = reference_ter_counts(hyp, ref)
        numer += e
        denom += r
    return numer / denom


sentences = st.lists(st.integers(4, 7), max_size=7).map(tuple)
nonempty = st.lists(st.integers(4, 7), min_size=1, max_size=7).map(tuple)


@st.composite
def corpora(draw):
    """Aligned (hyps, srcs, refs); hypotheses and sources may be empty."""
    size = draw(st.integers(1, 4))
    line = lambda strategy: draw(st.lists(strategy, min_size=size, max_size=size))
    return line(sentences), line(sentences), line(nonempty)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corpus=corpora())
def test_summed_stats_equal_reference_loops_bitwise(corpus):
    hyps, srcs, refs = corpus
    orders = metrics.MAX_N
    assert corpus_bleu(hyps, refs).value == reference_corpus_bleu(hyps, refs, orders, False)
    assert gleu(hyps, srcs, refs).value == reference_gleu(hyps, srcs, refs, orders, False)
    # a smoothed pooled score is score(..., smoothed=True) on the summed stats
    stats = metrics.line_stats("bleu", hyps, refs).sum(axis=0)
    got = metrics.score("bleu", stats, smoothed=True)
    assert got == reference_corpus_bleu(hyps, refs, orders, True)
    stats = metrics.line_stats("gleu", hyps, refs, srcs).sum(axis=0)
    got = metrics.score("gleu", stats, smoothed=True)
    assert got == reference_gleu(hyps, srcs, refs, orders, True)
    assert doc_ter(hyps, refs).value == reference_doc_ter(hyps, refs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hyp=sentences, src=sentences, ref=sentences)
def test_ngram_rows_equal_per_order_counters(hyp, src, ref):
    orders = range(1, metrics.MAX_N + 1)
    for metric, per_order in (
        ("bleu", [reference_clipped_matches(hyp, ref, n) for n in orders]),
        ("gleu", [reference_gleu_sentence_stats(hyp, src, ref, n) for n in orders]),
    ):
        row = metrics.line_stats(metric, [hyp], [ref], [src])[0].tolist()
        matches = [m for m, _ in per_order]
        totals = [max(len(hyp) - n + 1, 0) for n in orders]
        assert row == matches + totals + [len(hyp), len(ref)]


@st.composite
def ngram_corpora(draw):
    """Aligned (hyps, refs, srcs) of 1-60 lines drawn from a pool, so lines
    repeat, over 1-4 token ids that may be negative or at least 2**40; any
    sentence may be empty."""
    ids = st.one_of(st.integers(-3, 3), st.integers(2**40, 2**62), st.integers(-(2**62), -(2**40)))
    alphabet = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    sentence = st.lists(st.sampled_from(alphabet), max_size=8).map(tuple)
    pool = draw(st.lists(st.tuples(sentence, sentence, sentence), min_size=1, max_size=8))
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return tuple(map(list, zip(*lines)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(corpus=ngram_corpora(), chunk=st.integers(1, 70))
def test_line_stats_rows_equal_per_order_counters(corpus, chunk):
    hyps, refs, srcs = corpus
    orders = range(1, metrics.MAX_N + 1)
    for metric, oracle in (
        ("bleu", lambda hyp, src, ref, n: reference_clipped_matches(hyp, ref, n)),
        ("gleu", reference_gleu_sentence_stats),
    ):
        expected = []
        for hyp, ref, src in zip(hyps, refs, srcs):
            per_order = [oracle(hyp, src, ref, n) for n in orders]
            matches = [m for m, _ in per_order]
            totals = [max(len(hyp) - n + 1, 0) for n in orders]
            expected.append(matches + totals + [len(hyp), len(ref)])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(metrics, "LINE_CHUNK", chunk)  # 1-70 lines a chunk: one or many
            rows = metrics.line_stats(metric, hyps, refs, srcs if metric == "gleu" else None)
        assert rows.dtype == np.int64 and rows.tolist() == expected


@st.composite
def small_vocab_pairs(draw):
    """(hyp, ref) of lengths 0-25 over 1-6 tokens: repeated blocks and tied
    shifts are common, and most common over 1-3 tokens."""
    line = st.lists(st.integers(0, draw(st.integers(1, 6)) - 1), max_size=25)
    return tuple(draw(line)), tuple(draw(line))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(pair=small_vocab_pairs())
def test_ter_stats_equal_reference_search(pair):
    hyp, ref = pair
    assert tuple(metrics.line_stats("ter", [hyp], [ref])[0]) == reference_ter_counts(hyp, ref)


@st.composite
def ter_corpora(draw):
    """Aligned (hyps, refs) of 1-30 lines over 1-4 tokens, each side drawn from a
    pool of 1-5 lines of 0-12 tokens, so references repeat against different
    hypotheses; a reference may come as a list or a tuple."""
    line = st.lists(st.integers(0, draw(st.integers(1, 4)) - 1), max_size=12).map(tuple)
    hyp_pool, ref_pool = (draw(st.lists(line, min_size=1, max_size=5)) for _ in range(2))
    size = draw(st.integers(1, 30))
    hyps = draw(st.lists(st.sampled_from(hyp_pool), min_size=size, max_size=size))
    ref = st.sampled_from(ref_pool)
    refs = draw(st.lists(st.one_of(ref, ref.map(list)), min_size=size, max_size=size))
    return hyps, refs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(corpus=ter_corpora())
def test_ter_line_stats_equal_reference_search_on_every_row(corpus):
    # one call indexes each distinct reference once and reuses it across lines
    hyps, refs = corpus
    expected = [list(reference_ter_counts(hyp, ref)) for hyp, ref in zip(hyps, refs)]
    assert metrics.line_stats("ter", hyps, refs).tolist() == expected


@st.composite
def ter_chunk_corpora(draw):
    """Aligned (hyps, refs) of 1-60 lines over 1-4 tokens, drawn from a pool of
    1-8 pairs of 0-10 tokens, so that references repeat across chunks."""
    line = st.lists(st.integers(0, draw(st.integers(1, 4)) - 1), max_size=10).map(tuple)
    pool = draw(st.lists(st.tuples(line, line), min_size=1, max_size=8))
    return tuple(map(list, zip(*draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60)))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(corpus=ter_chunk_corpora(), chunk=st.integers(1, 70), pass_bytes=st.integers(1, 2000))
def test_ter_rows_equal_reference_search_across_chunks_and_passes(corpus, chunk, pass_bytes):
    hyps, refs = corpus
    expected = [list(reference_ter_counts(hyp, ref)) for hyp, ref in zip(hyps, refs)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(metrics, "LINE_CHUNK", chunk)  # 1-70 lines a chunk: one or many
        m.setattr(metrics, "PASS_BYTES", pass_bytes)  # from one lane a pass to whole steps
        rows = metrics.line_stats("ter", hyps, refs)
    assert rows.dtype == np.int64 and rows.tolist() == expected


def test_ter_rows_follow_their_lines_in_any_order(monkeypatch):
    # 150 lines of 3-30 tokens fill three chunks, and each permutation gives a
    # line other chunk-mates, which pad its lanes and share its passes: the rows
    # must still be the same rows, permuted
    monkeypatch.setattr(metrics, "LINE_CHUNK", 64)
    rng = np.random.default_rng(25)
    refs = [tuple(rng.integers(0, 8, size=rng.integers(3, 31)).tolist()) for _ in range(150)]
    hyps = [ref[3:] + ref[:3] if k % 3 else ref[::-1] for k, ref in enumerate(refs)]
    hyps = [hyp[: max(3, len(hyp) - k % 4)] for k, hyp in enumerate(hyps)]
    assert len(hyps) > 2 * metrics.LINE_CHUNK and {3, 30} <= set(map(len, hyps))
    rows = metrics.line_stats("ter", hyps, refs)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(hyps)).tolist()
        permuted = metrics.line_stats("ter", [hyps[i] for i in perm], [refs[i] for i in perm])
        assert permuted.dtype == np.int64 and np.array_equal(permuted, rows[perm])


@pytest.mark.parametrize("ref_len", [1, 63, 64, 65, 130])
def test_bit_parallel_edit_distance_equals_plain_dp(ref_len):
    rng = random.Random(ref_len)
    for vocab in (2, 5, 300):
        ref = [rng.randrange(vocab) for _ in range(ref_len)]
        masks = _reference_index(ref)[0]
        assert edit_distance((), masks, ref_len) == ref_len
        for hyp_len in (1, ref_len - 1, ref_len, ref_len + 1, 2 * ref_len + 3):
            hyp = [rng.randrange(vocab) for _ in range(hyp_len)]
            assert edit_distance(hyp, masks, ref_len) == reference_edit_distance(hyp, ref)
        near = list(ref)
        near[::7] = [vocab] * len(near[::7])  # a token the reference lacks
        assert edit_distance(near, masks, ref_len) == reference_edit_distance(near, ref)


# Length-48 (hypothesis, reference, stats) triples: the reference with three
# block moves and six substitutions. The stats were computed once with the
# unindexed search (reference_ter_counts); plain edit distances are 16, 14, 9.
PINNED_TER = [
    (
        "0 24 16 1 4 3 10 19 0 0 23 3 16 0 3 3 0 13 1 38 0 0 5 47 "
        "37 47 0 0 3 1 0 23 0 3 4 1 1 6 9 0 48 26 26 49 35 13 37 3",
        "0 24 16 1 4 3 10 19 0 0 23 3 16 0 3 13 1 38 31 0 0 5 37 2 "
        "0 3 0 0 3 4 1 1 0 3 1 0 23 6 9 0 48 26 0 1 13 13 37 3",
        [8, 48],
    ),
    (
        "7 7 0 0 6 5 5 2 4 4 4 1 3 3 5 7 7 1 4 6 3 3 2 0 "
        "0 3 2 3 7 7 4 7 0 2 2 7 5 1 7 2 1 7 5 5 7 6 6 5",
        "7 7 0 0 6 5 5 2 4 4 4 1 3 3 5 7 7 4 3 2 0 0 3 2 "
        "3 7 4 4 1 0 2 1 4 7 5 1 7 6 5 7 6 6 2 7 7 1 6 5",
        [12, 48],
    ),
    (
        "0 1 1 1 1 0 2 1 0 0 2 1 2 1 1 0 1 2 2 0 2 1 1 0 "
        "2 1 2 2 2 2 1 2 1 2 2 0 2 0 2 1 0 2 1 0 1 1 0 1",
        "0 1 1 1 1 0 0 2 0 0 2 1 2 1 1 0 1 2 1 2 2 0 2 1 "
        "0 0 2 1 2 2 2 2 1 2 1 2 2 0 0 0 2 1 1 0 1 1 1 1",
        [6, 48],
    ),
]


@pytest.mark.parametrize("hyp, ref, expected", PINNED_TER, ids=["vocab50", "vocab8", "vocab3"])
def test_ter_stats_pinned_on_length_48_pairs(hyp, ref, expected):
    hyp, ref = tuple(map(int, hyp.split())), tuple(map(int, ref.split()))
    assert metrics.line_stats("ter", [hyp], [ref]).tolist() == [expected]


# A 120-token reference in which token 0 is 72 of the words (43 types, drawn from
# 200 with token 0 given half the mass), and a hypothesis made from it by the
# benchmark's score-file edit pattern: a substitution per 2 tokens, a deletion per
# 5, one block move. Its lanes are several 64-bit words wide, and its frequent
# token gives every step thousands of candidates. The stats were computed once
# with the per-candidate shift search that the packed passes replaced.
PINNED_FREQUENT_TOKEN_TER = (
    "0 0 0 0 130 18 0 191 41 123 0 32 24 0 153 0 0 0 0 0 0 43 51 0 114 0 69 0 0 "
    "0 0 100 0 0 66 29 156 68 188 0 0 106 0 193 71 123 172 0 0 151 73 0 40 130 "
    "0 147 0 171 109 0 63 145 0 0 0 51 190 0 0 0 0 0 0 0 0 0 0 0 0 0 14 0 110 "
    "15 0 0 0 0 0 8 0 0 0 31 66 0",
    "141 0 0 62 31 25 18 0 191 58 0 0 0 0 24 0 8 0 0 149 0 0 0 0 157 43 51 0 "
    "110 0 0 166 69 0 0 0 0 0 0 0 0 0 66 29 119 156 141 68 188 0 34 0 0 193 49 "
    "123 0 0 0 0 151 73 70 84 0 40 130 0 147 106 0 109 0 0 0 63 119 0 0 98 139 "
    "0 0 0 0 0 0 0 0 0 8 0 0 0 0 0 0 0 0 0 14 123 0 0 44 15 0 0 0 0 136 0 0 0 0 "
    "0 0 31 66 0",
    [43, 120],
)


def test_ter_stats_pinned_on_a_frequent_token_pair_of_120_tokens():
    hyp, ref, expected = PINNED_FREQUENT_TOKEN_TER
    hyp, ref = tuple(map(int, hyp.split())), tuple(map(int, ref.split()))
    assert (len(hyp), len(ref), ref.count(0)) == (96, 120, 72)
    assert metrics.line_stats("ter", [hyp], [ref]).tolist() == [expected]


@pytest.mark.parametrize("name", ["blue", "tER", "BLEU", "", "gleu "])
def test_every_metric_entry_point_rejects_a_name_outside_metrics(name):
    hyp, ref = (4, 5, 6), (4, 5, 7)
    calls = [
        lambda: metrics.line_stats(name, [hyp], [ref], [ref]),
        lambda: metrics.pooled(name, [hyp], [ref], [ref]),
        lambda: metrics.score(name, [2, 1, 0, 0, 3, 2, 1, 0, 3, 3]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^unknown metric {name!r}$"):
            call()


def test_line_stats_indexes_each_distinct_ter_reference_once(monkeypatch):
    refs = [(4, 5, 6, 4), (6, 5), (4, 5, 6, 4), [6, 5], (4, 5, 6, 4)]
    hyps = [(4, 5, 6, 4), (6, 5, 4), (), (4, 4, 5, 6), (5,)]
    expected = [metrics.line_stats("ter", [hyp], [ref])[0].tolist() for hyp, ref in zip(hyps, refs)]
    indexed = []
    index = metrics._reference_index
    monkeypatch.setattr(metrics, "_reference_index", lambda r: indexed.append(r) or index(r))
    assert metrics.line_stats("ter", hyps, refs).tolist() == expected
    assert indexed == [(4, 5, 6, 4), (6, 5)]  # a list and a tuple of one line are one reference


def test_shift_search_stops_at_first_block_missing_from_reference(monkeypatch):
    lookups = []

    class CountingDict(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    def index(ref):
        masks, starts = _reference_index(ref)
        return masks, CountingDict(starts)

    monkeypatch.setattr(metrics, "_reference_index", index)
    hyp, ref = tuple(range(100, 148)), tuple(range(48))
    assert metrics.line_stats("ter", [hyp], [ref]).tolist() == [[48, 48]]
    # no hypothesis token is in the reference: one lookup per block start
    assert lookups == list(hyp)


def test_shift_search_ends_when_no_shift_lowers_the_edits(monkeypatch):
    # moving either 0 of (0, 0) next to the reference's 0 gives (0, 0) again,
    # with as many edits: the search must stop there, not shift forever
    recurrence, calls = metrics._recurrence, []

    def capped(*args):
        calls.append(args)
        assert len(calls) < 100, "the shift search does not end"
        return recurrence(*args)

    monkeypatch.setattr(metrics, "_recurrence", capped)
    assert metrics.line_stats("ter", [(0, 0)], [(0, 1)]).tolist() == [[1, 2]]


def test_ter_stats_of_empty_reference_count_every_hypothesis_token():
    assert metrics.line_stats("ter", [(4, 5, 6), ()], [(), ()]).tolist() == [[3, 0], [0, 0]]


def test_doc_cost_pools_empty_reference_lines():
    # (1 edit, |ref| 2) + (3 edits, |ref| 0): the empty line adds its hypothesis
    hyps, refs = [(4, 9), (5, 6, 7)], [(4, 5), ()]
    assert doc_cost(CostKind.DOC_TER, hyps, refs) == 4 / 2
    with pytest.raises(ValueError, match="non-empty reference"):
        doc_cost(CostKind.DOC_TER, [(4,)], [()])
    with pytest.raises(ValueError, match="empty reference"):
        seq_cost(CostKind.SENT_TER, (4,), ())


@pytest.mark.parametrize("ref_len", [0, 1, 63, 64, 65, 130])
def test_edit_distance_resumed_from_a_recorded_state_equals_the_full_pass(ref_len):
    # _pack pads every prefix of hyp to hyp's columns with sentinels that its
    # reference ends with: after its own columns the lane holds the state the
    # prefix's own pass records, and the sentinel columns resume from it without
    # changing the distance
    rng = random.Random(ref_len)
    full = (1 << ref_len) - 1
    for vocab in (2, 5, 300):
        ref = tuple(rng.randrange(vocab) for _ in range(ref_len))
        index = {ref: _reference_index(ref)}
        hyp = tuple(rng.randrange(vocab) for _ in range(ref_len + 3))
        for k in range(len(hyp) + 1):
            own = metrics._recurrence([index[ref][0].get(tok, 0) for tok in hyp[:k]], full, 1)
            cols, width, rows, fulls = metrics._pack([hyp[:k], hyp], [ref, ref], index)
            eqs = [int.from_bytes(rows[0][c * width : (c + 1) * width], "little") for c in range(k)]
            recorded = metrics._recurrence(eqs, int.from_bytes(fulls[0], "little"), 1)
            assert [step & full for step in recorded] == [step & full for step in own]
            expected = [reference_edit_distance(hyp[:k], ref), reference_edit_distance(hyp, ref)]
            assert metrics._distances(rows, fulls, cols, width) == expected
            assert edit_distance(hyp[:k], index[ref][0], ref_len) == expected[0]


def test_one_packed_pass_aligns_lanes_of_mixed_lengths(monkeypatch):
    # references of 0-130 tokens (across the 64-bit word boundaries), empty and
    # longer hypotheses, each also with two of its runs swapped: all in one pass
    rng, lines = random.Random(5), []
    for ref_len in (0, 1, 63, 64, 65, 130):
        for vocab in (3, 300):
            ref = tuple(rng.randrange(vocab) for _ in range(ref_len))
            for hyp_len in (0, 1, ref_len + 3):
                lines.append((tuple(rng.randrange(vocab) for _ in range(hyp_len)), ref))
    hyps, refs = zip(*lines)
    index = {ref: _reference_index(ref) for ref in refs}
    cols, width, rows, fulls = metrics._pack(hyps, refs, index)
    swapped = [sorted(rng.sample(range(len(hyp) + 1), 3)) if len(hyp) > 1 else [] for hyp in hyps]
    shapes = [[0, 0, 0] + runs for runs in swapped]  # (0, 0, 0): the hypothesis itself
    expected = [
        reference_edit_distance(metrics._swap(list(hyp), *shape[k : k + 3]), ref)
        for hyp, ref, shape in zip(hyps, refs, shapes)
        for k in range(0, len(shape), 3)
    ]
    recurrence, passes = metrics._recurrence, []
    monkeypatch.setattr(metrics, "_recurrence", lambda *a: passes.append(a) or recurrence(*a))
    monkeypatch.setattr(metrics, "PASS_BYTES", 1 << 24)
    assert metrics._align(list(zip(rows, fulls, shapes)), cols, width) == expected
    assert len(passes) == 1 and passes[0][2].bit_count() == len(expected)  # one lane each


def test_shift_candidates_are_aligned_from_their_first_changed_token(monkeypatch):
    # every candidate of a shift step is a lane of one packed pass, after the
    # current hypothesis's lane
    recurrence, lanes = metrics._recurrence, []

    def counted(eqs, full, lows):
        lanes.append(lows.bit_count())  # one row-0 bit per lane
        return recurrence(eqs, full, lows)

    monkeypatch.setattr(metrics, "_recurrence", counted)
    hyp = (2, 0, 1, 1, 0, 2, 2, 1, 0, 1, 2, 0, 0, 1)
    ref = (0, 1, 2, 0, 1, 1, 2, 2, 0, 1, 0, 2, 1, 0)
    assert metrics.line_stats("ter", [hyp], [ref]).tolist() == [[3, 14]]
    assert len(lanes) == 3  # two accepted shifts, then the step that finds none
    assert sum(lanes) - len(lanes) == 252

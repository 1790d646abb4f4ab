import math
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docmrt import metrics
from docmrt.metrics import (
    MAX_SHIFT_BLOCK,
    CostKind,
    _edit_distance,
    _reference_index,
    corpus_bleu,
    doc_cost,
    doc_ter,
    document_cost_fn,
    gleu,
    sentence_bleu_smoothed,
    seq_cost,
    ter,
    ter_stats,
)
from docmrt.textcore import ngrams

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
    # pooled counts differ from the mean of sentence scores when lengths differ
    hyps = [(1, 2), (3, 9, 9)]
    refs = [(1, 2), (3, 4, 5)]
    pooled = corpus_bleu(hyps, refs, max_n=1).value
    mean = np.mean(
        [corpus_bleu([h], [r], max_n=1).value for h, r in zip(hyps, refs)]
    )
    assert pooled == 3 / 5
    assert mean == 2 / 3


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
        assert kind.as_document_kind().is_document_level
        assert kind.as_sentence_kind().as_document_kind() == kind.as_document_kind()


def test_document_cost_fn_additive_extension():
    fn = document_cost_fn(CostKind.SENT_TER)
    hyps = [(1, 9, 3, 4), (5, 6)]
    refs = [(1, 2, 3, 4), (5, 6)]
    assert fn(hyps, refs, None) == 0.25


def test_document_cost_fn_accepts_callable():
    fn = document_cost_fn(lambda h, r, s=None: 0.7)
    assert fn([(1,)], [(1,)], None) == 0.7


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


def reference_best_shift(hyp, ref, edits):
    """The unindexed shift search, the oracle of ter_stats: every (block start,
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
@given(corpus=corpora(), max_n=st.integers(1, 4), smoothed=st.booleans())
def test_summed_stats_equal_reference_loops_bitwise(corpus, max_n, smoothed):
    hyps, srcs, refs = corpus
    got = corpus_bleu(hyps, refs, max_n, smoothed).value
    assert got == reference_corpus_bleu(hyps, refs, max_n, smoothed)
    got = gleu(hyps, srcs, refs, max_n, smoothed).value
    assert got == reference_gleu(hyps, srcs, refs, max_n, smoothed)
    assert doc_ter(hyps, refs).value == reference_doc_ter(hyps, refs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hyp=sentences, src=sentences, ref=sentences, max_n=st.integers(1, 5))
def test_ngram_rows_equal_per_order_counters(hyp, src, ref, max_n):
    orders = range(1, max_n + 1)
    for metric, per_order in (
        ("bleu", [reference_clipped_matches(hyp, ref, n) for n in orders]),
        ("gleu", [reference_gleu_sentence_stats(hyp, src, ref, n) for n in orders]),
    ):
        row = metrics.extractor(metric, ref, src, max_n)(hyp)
        matches = [m for m, _ in per_order]
        totals = [max(len(hyp) - n + 1, 0) for n in orders]
        assert row == matches + totals + [len(hyp), len(ref)]


@st.composite
def small_vocab_pairs(draw):
    """(hyp, ref) of lengths 0-20 over 2-6 tokens: repeated blocks and tied
    shifts are common."""
    line = st.lists(st.integers(0, draw(st.integers(2, 6)) - 1), max_size=20)
    return tuple(draw(line)), tuple(draw(line))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=small_vocab_pairs())
def test_ter_stats_equal_reference_search(pair):
    hyp, ref = pair
    assert tuple(ter_stats(hyp, ref)) == reference_ter_counts(hyp, ref)


@pytest.mark.parametrize("ref_len", [1, 63, 64, 65, 130])
def test_bit_parallel_edit_distance_equals_plain_dp(ref_len):
    rng = random.Random(ref_len)
    for vocab in (2, 5, 300):
        ref = [rng.randrange(vocab) for _ in range(ref_len)]
        masks = _reference_index(ref)[0]
        assert _edit_distance((), masks, ref_len) == ref_len
        for hyp_len in (1, ref_len - 1, ref_len, ref_len + 1, 2 * ref_len + 3):
            hyp = [rng.randrange(vocab) for _ in range(hyp_len)]
            assert _edit_distance(hyp, masks, ref_len) == reference_edit_distance(hyp, ref)
        near = list(ref)
        near[::7] = [vocab] * len(near[::7])  # a token the reference lacks
        assert _edit_distance(near, masks, ref_len) == reference_edit_distance(near, ref)


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
    assert ter_stats(hyp, ref) == expected


def test_ter_extractor_indexes_its_reference_once(monkeypatch):
    ref, hyps = (4, 5, 6, 4), [(4, 5, 6, 4), (6, 5, 4), (), (4, 4, 5, 6)]
    expected = [ter_stats(hyp, ref) for hyp in hyps]
    indexed = []
    index = metrics._reference_index
    monkeypatch.setattr(metrics, "_reference_index", lambda r: indexed.append(r) or index(r))
    extract = metrics.extractor("ter", ref)
    assert [extract(hyp) for hyp in hyps] == expected
    assert indexed == [ref]


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
    assert ter_stats(hyp, ref) == [48, 48]
    # no hypothesis token is in the reference: one lookup per block start
    assert lookups == [(tok,) for tok in hyp]


def test_shift_search_ends_when_no_shift_lowers_the_edits(monkeypatch):
    # moving either 0 of (0, 0) next to the reference's 0 gives (0, 0) again,
    # with as many edits: the search must stop there, not shift forever
    distance, calls = metrics._edit_distance, []

    def capped(*args):
        calls.append(args)
        assert len(calls) < 100, "the shift search does not end"
        return distance(*args)

    monkeypatch.setattr(metrics, "_edit_distance", capped)
    assert ter_stats((0, 0), (0, 1)) == [1, 2]


def test_ter_stats_of_empty_reference_count_every_hypothesis_token():
    assert ter_stats((4, 5, 6), ()) == [3, 0]
    assert ter_stats((), ()) == [0, 0]


def test_doc_cost_pools_empty_reference_lines():
    # (1 edit, |ref| 2) + (3 edits, |ref| 0): the empty line adds its hypothesis
    hyps, refs = [(4, 9), (5, 6, 7)], [(4, 5), ()]
    assert doc_cost(CostKind.DOC_TER, hyps, refs) == 4 / 2
    with pytest.raises(ValueError, match="non-empty reference"):
        doc_cost(CostKind.DOC_TER, [(4,)], [()])
    with pytest.raises(ValueError, match="empty reference"):
        seq_cost(CostKind.SENT_TER, (4,), ())

import itertools
import math

import numpy as np
import pytest

from docmrt import metrics, model, sampling
from docmrt.metrics import CostKind, doc_cost, document_cost_fn, seq_cost
from docmrt.model import ScoredHypothesis
from docmrt.sampling import (
    SampleSet,
    build_documents_ordered,
    build_documents_random,
    document_costs,
    draw_sample_set,
    enumerate_documents,
    order_samples,
    product_cells,
)
from docmrt.textcore import DocumentBatch


def hyp_with_subs(k, length=10, filler=9):
    """Hypothesis at TER exactly k/length against the all-4s reference."""
    toks = [4] * length
    for i in range(k):
        toks[i] = filler
    return tuple(toks)


REF = (4,) * 10


def fabricated_sample_set():
    """S=2, N=3 grid with sentence TER costs [0.3, 0.1, 0.5] and [0.2, 0.6, 0.4]."""
    grid = [
        [
            ScoredHypothesis(hyp_with_subs(3), -1.0),
            ScoredHypothesis(hyp_with_subs(1), -2.0),
            ScoredHypothesis(hyp_with_subs(5), -3.0),
        ],
        [
            ScoredHypothesis(hyp_with_subs(2), -1.5),
            ScoredHypothesis(hyp_with_subs(6), -2.5),
            ScoredHypothesis(hyp_with_subs(4), -3.5),
        ],
    ]
    batch = DocumentBatch(
        sources=[(5,), (5,)], references=[REF, REF], doc_ids=[0, 0]
    )
    costs = np.array(
        [[seq_cost(CostKind.SENT_TER, h.sentence, REF) for h in row] for row in grid]
    )
    return SampleSet(batch=batch, grid=grid, costs=costs, cost_kind=CostKind.SENT_TER)


def test_fabricated_costs_are_exact():
    ss = fabricated_sample_set()
    assert ss.costs.tolist() == [[0.3, 0.1, 0.5], [0.2, 0.6, 0.4]]


def small_batch():
    return DocumentBatch(sources=[(4, 5), (5,)], references=[(4, 5), (5, 5)], doc_ids=[0, 0])


def test_draw_sample_set_deterministic():
    params = model.init_params(6, 3, 3, seed=1)
    a = draw_sample_set(params, small_batch(), 4, 1.0, np.random.default_rng(7), 4, CostKind.ONE_MINUS_SBLEU)
    b = draw_sample_set(params, small_batch(), 4, 1.0, np.random.default_rng(7), 4, CostKind.ONE_MINUS_SBLEU)
    assert a.grid == b.grid
    assert np.array_equal(a.costs, b.costs)


def test_draw_sample_set_shape_and_rescoring():
    params = model.init_params(6, 3, 3, seed=2)
    batch = small_batch()
    ss = draw_sample_set(params, batch, 5, 0.8, np.random.default_rng(0), 4, CostKind.ONE_MINUS_DOCBLEU)
    assert ss.n_sentences == 2 and ss.n_samples == 5
    assert ss.costs.shape == (2, 5)
    assert np.isfinite(ss.costs).all()
    for src, row in zip(batch.sources, ss.grid):
        for hyp in row:
            assert hyp.log_prob == model.log_prob(params, src, hyp.sentence, 4)


def test_draw_sample_set_single_cell():
    params = model.init_params(6, 3, 3, seed=3)
    batch = DocumentBatch(sources=[(4,)], references=[(4,)], doc_ids=[0])
    ss = draw_sample_set(params, batch, 1, 1.0, np.random.default_rng(1), 3, CostKind.SENT_TER)
    assert ss.n_sentences == 1 and ss.n_samples == 1


def test_draw_sample_set_mean_cost_matches_enumeration():
    # zero parameters: sampled costs average to the enumeration expectation
    params = model.init_params(5, 2, 2, seed=0, zero=True)
    src, ref = (4,), (4, 4)
    batch = DocumentBatch(sources=[src], references=[ref], doc_ids=[0])
    space = model.enumerate_output_space(params, src, 2)
    costs = np.array(
        [seq_cost(CostKind.ONE_MINUS_SBLEU, sent, ref) for sent, _ in space]
    )
    probs = np.array([p for _, p in space])
    mean_exact = float(probs @ costs)
    var_exact = float(probs @ (costs - mean_exact) ** 2)
    n = 4000
    ss = draw_sample_set(
        params, batch, n, 1.0, np.random.default_rng(11), 2, CostKind.ONE_MINUS_SBLEU
    )
    sigma = math.sqrt(var_exact / n)
    assert abs(ss.costs.mean() - mean_exact) <= 3 * sigma


def test_order_samples_ranks_by_cost():
    ss = order_samples(fabricated_sample_set())
    assert ss.ranks[0] == [1, 0, 2]
    assert ss.ranks[1] == [0, 2, 1]


def test_order_samples_tie_break_by_log_prob_then_index():
    grid = [
        [
            ScoredHypothesis((4,), -2.0),
            ScoredHypothesis((5,), -1.0),
            ScoredHypothesis((6,), -1.0),
        ]
    ]
    batch = DocumentBatch(sources=[(5,)], references=[(7,)], doc_ids=[0])
    ss = SampleSet(batch=batch, grid=grid, costs=np.array([[0.5, 0.5, 0.5]]), cost_kind=CostKind.SENT_TER)
    assert order_samples(ss).ranks[0] == [1, 2, 0]


def test_order_samples_is_permutation():
    params = model.init_params(6, 3, 3, seed=4)
    ss = order_samples(
        draw_sample_set(params, small_batch(), 6, 1.0, np.random.default_rng(2), 4, CostKind.ONE_MINUS_SBLEU)
    )
    for row in ss.ranks:
        assert sorted(row) == list(range(6))


def test_build_documents_ordered_requires_ranks():
    with pytest.raises(ValueError, match="order_samples"):
        build_documents_ordered(fabricated_sample_set())


def test_build_documents_ordered_pairs_costs_by_rank():
    docs = build_documents_ordered(order_samples(fabricated_sample_set()))
    paired = [
        tuple(round(seq_cost(CostKind.SENT_TER, h.sentence, REF), 10) for h in doc.hyps)
        for doc in docs
    ]
    assert paired == [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
    # additive document costs are strictly increasing in rank order
    assert np.allclose([d.cost for d in docs], [0.3, 0.7, 1.1])
    assert docs[0].cost < docs[1].cost < docs[2].cost


def test_build_documents_log_prob_is_member_sum():
    docs = build_documents_ordered(order_samples(fabricated_sample_set()))
    for doc in docs:
        assert doc.log_prob == sum(h.log_prob for h in doc.hyps)


def test_single_sample_degenerate_schemes_agree():
    params = model.init_params(6, 3, 3, seed=5)
    ss = draw_sample_set(params, small_batch(), 1, 1.0, np.random.default_rng(3), 4, CostKind.SENT_TER)
    ordered = build_documents_ordered(order_samples(ss))
    random = build_documents_random(ss, np.random.default_rng(0))
    assert len(ordered) == len(random) == 1
    assert ordered[0].assignment == random[0].assignment == (0, 0)
    assert ordered[0].cost == random[0].cost


def test_single_sentence_reduces_to_cost_sorted_samples():
    params = model.init_params(6, 3, 3, seed=6)
    batch = DocumentBatch(sources=[(4, 5)], references=[(4, 5)], doc_ids=[0])
    ss = order_samples(
        draw_sample_set(params, batch, 5, 1.0, np.random.default_rng(4), 4, CostKind.ONE_MINUS_SBLEU)
    )
    docs = build_documents_ordered(ss)
    assert [d.assignment[0] for d in docs] == ss.ranks[0]
    costs = [d.cost for d in docs]
    assert costs == sorted(costs)


def test_partition_property_both_schemes():
    rng = np.random.default_rng(15)
    for trial in range(50):
        params = model.init_params(6, 2, 2, seed=trial)
        s = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        batch = DocumentBatch(
            sources=[(4, 5)] * s, references=[(4, 5)] * s, doc_ids=[0] * s
        )
        ss = draw_sample_set(params, batch, n, 1.0, rng, 3, CostKind.SENT_TER)
        for docs in (
            build_documents_ordered(order_samples(ss)),
            build_documents_random(ss, rng),
        ):
            used = [[d.assignment[i] for d in docs] for i in range(s)]
            for per_sentence in used:
                assert sorted(per_sentence) == list(range(n))


def test_schemes_share_hypothesis_multiset():
    params = model.init_params(6, 3, 3, seed=7)
    ss = order_samples(
        draw_sample_set(params, small_batch(), 4, 1.0, np.random.default_rng(5), 4, CostKind.SENT_TER)
    )
    ordered = build_documents_ordered(ss)
    randomized = build_documents_random(ss, np.random.default_rng(6))

    def multiset(docs):
        return sorted(
            (s, h.sentence) for doc in docs for s, h in enumerate(doc.hyps)
        )

    assert multiset(ordered) == multiset(randomized)


def _exhaustive_pairings(costs):
    """All 36 per-sentence permutation pairings of the S=2, N=3 grid."""
    spreads, all_doc_costs = [], []
    for p1 in itertools.permutations(range(3)):
        for p2 in itertools.permutations(range(3)):
            doc_costs = [costs[0][p1[i]] + costs[1][p2[i]] for i in range(3)]
            spreads.append(max(doc_costs) - min(doc_costs))
            all_doc_costs.extend(doc_costs)
    return spreads, all_doc_costs


def test_ordered_scheme_maximizes_cost_spread():
    ss = fabricated_sample_set()
    ordered_docs = build_documents_ordered(order_samples(ss))
    ordered_spread = ordered_docs[-1].cost - ordered_docs[0].cost
    spreads, _ = _exhaustive_pairings(ss.costs.tolist())
    assert math.isclose(max(spreads), ordered_spread, abs_tol=1e-12)
    assert np.mean(spreads) <= ordered_spread + 1e-12
    # empirical random-scheme spread stays at the exhaustive mean, below ordered
    rng = np.random.default_rng(8)
    empirical = []
    for _ in range(300):
        docs = build_documents_random(ss, rng)
        empirical.append(max(d.cost for d in docs) - min(d.cost for d in docs))
    assert np.mean(empirical) <= ordered_spread
    assert abs(np.mean(empirical) - np.mean(spreads)) < 3 * np.std(spreads) / math.sqrt(300)


def test_enumerate_documents_counts_and_weights():
    params = model.init_params(6, 3, 3, seed=9)
    ss = draw_sample_set(params, small_batch(), 2, 1.0, np.random.default_rng(7), 4, CostKind.SENT_TER)
    docs = enumerate_documents(ss)
    assert len(docs) == 4
    assert math.isclose(sum(d.weight for d in docs), 1.0, abs_tol=1e-12)
    assert sorted(d.assignment for d in docs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_documents_mean_matches_random_scheme_average():
    ss = fabricated_sample_set()
    enum_mean = np.mean([d.cost for d in enumerate_documents(ss)])
    _, all_doc_costs = _exhaustive_pairings(ss.costs.tolist())
    assert math.isclose(enum_mean, np.mean(all_doc_costs), abs_tol=1e-12)


def test_enumerate_documents_guard():
    grid = [[ScoredHypothesis((4,), -1.0)] * 40 for _ in range(4)]
    batch = DocumentBatch(
        sources=[(4,)] * 4, references=[(4,)] * 4, doc_ids=[0] * 4
    )
    ss = SampleSet(batch=batch, grid=grid, costs=np.zeros((4, 40)), cost_kind=CostKind.SENT_TER)
    with pytest.raises(ValueError, match="guard"):
        enumerate_documents(ss)


def test_document_costs_equal_costs_recomputed_from_sentences():
    rng = np.random.default_rng(21)
    for trial in range(12):
        params = model.init_params(7, 3, 3, seed=trial)
        s = int(rng.integers(1, 4))
        batch = DocumentBatch(
            sources=[tuple(int(x) for x in rng.integers(4, 7, size=2)) for _ in range(s)],
            references=[tuple(int(x) for x in rng.integers(4, 7, size=3)) for _ in range(s)],
            doc_ids=[0] * s,
        )
        for kind in CostKind:
            ss = draw_sample_set(params, batch, 3, 1.0, rng, 4, kind)
            for docs in (
                build_documents_ordered(order_samples(ss)),
                build_documents_random(ss, rng),
                enumerate_documents(ss),
            ):
                for doc in docs:
                    hyps = [h.sentence for h in doc.hyps]
                    if kind.is_document_level:
                        assert doc.cost == doc_cost(kind, hyps, batch.references, batch.sources)
                    else:
                        fn = document_cost_fn(kind)
                        assert abs(doc.cost - fn(hyps, batch.references, batch.sources)) <= 1e-12


def test_sample_set_without_stats_extracts_them():
    ss = fabricated_sample_set()
    assert ss.stats.shape == (2, 3, 2)  # TER stats: (edits + shifts, |ref|)
    assert ss.stats[:, :, 0].tolist() == [[3, 1, 5], [2, 6, 4]]
    assert order_samples(ss).stats is ss.stats
    doc_kind = SampleSet(batch=ss.batch, grid=ss.grid, costs=ss.costs, cost_kind=CostKind.DOC_TER)
    docs = build_documents_ordered(order_samples(doc_kind))
    assert [d.cost for d in docs] == [3 / 20, 7 / 20, 11 / 20]


def test_draw_sample_set_rejects_custom_cost_callable():
    params = model.init_params(6, 3, 3, seed=1)
    with pytest.raises(ValueError, match="CostKind"):
        draw_sample_set(
            params, small_batch(), 2, 1.0, np.random.default_rng(0), 4, lambda h, r, s=None: 0.0
        )


def test_draw_sample_set_rejects_a_non_positive_temperature():
    params = model.init_params(6, 3, 3, seed=1)
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature must be positive"):
            draw_sample_set(
                params, small_batch(), 2, tau, np.random.default_rng(0), 4, CostKind.ONE_MINUS_DOCBLEU
            )


def test_draw_sample_set_rejects_an_empty_batch():
    params = model.init_params(6, 3, 3, seed=1)
    with pytest.raises(ValueError, match="empty batch"):
        draw_sample_set(
            params, DocumentBatch([], [], []), 2, 1.0, np.random.default_rng(0), 4,
            CostKind.ONE_MINUS_DOCBLEU,
        )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the decoder's own table
def test_sampling_from_a_non_finite_model_raises():
    for bad in (math.nan, math.inf, -math.inf):
        params = model.init_params(6, 3, 3, seed=1)
        params.b_out[4] = bad
        with pytest.raises(ValueError, match="non-finite decoding table"):
            model.sample(params, (4,), 1.0, np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="non-finite decoding table"):
            draw_sample_set(
                params, small_batch(), 2, 1.0, np.random.default_rng(0), 4, CostKind.ONE_MINUS_DOCBLEU
            )


def test_duplicate_heavy_grid_equals_per_cell_extraction(monkeypatch):
    # zero theta, V=5, max_len 1: each cell is one of five sentences
    params = model.init_params(5, 2, 2, seed=0, zero=True)
    batch = DocumentBatch(sources=[(3, 4), (), (4,)], references=[(3,), (4, 3), (4,)], doc_ids=[0] * 3)
    extracted = []
    extractor = metrics.extractor

    def counting_extractor(metric, ref, src=None, max_n=metrics.DEFAULT_MAX_N):
        extract = extractor(metric, ref, src, max_n)
        return lambda hyp: extracted.append(hyp) or extract(hyp)

    for kind in CostKind:
        extracted.clear()
        with monkeypatch.context() as m:
            m.setattr(metrics, "extractor", counting_extractor)
            ss = draw_sample_set(params, batch, 8, 1.0, np.random.default_rng(3), 1, kind)
        rows = [[hyp.sentence for hyp in row] for row in ss.grid]
        distinct = sum(len(set(row)) for row in rows)
        assert len(extracted) == distinct <= 15  # at most five per row of 8
        stats = [
            [metrics.extractor(kind.metric, ref, src)(hyp) for hyp in row]
            for src, ref, row in zip(batch.sources, batch.references, rows)
        ]
        sentence_kind = kind.as_sentence_kind()
        costs = [[metrics.cost_from_stats(sentence_kind, c) for c in row] for row in stats]
        assert np.array_equal(ss.stats, np.array(stats, dtype=np.int64))
        assert np.array_equal(ss.costs, np.array(costs))


@pytest.mark.parametrize("sizes", [[], [3], [2, 3], [3, 1, 2], [4, 2, 3, 2], [2, 0, 3]])
def test_product_cells_in_itertools_product_order(sizes):
    expected = list(itertools.product(*map(range, sizes)))
    cells = product_cells(sizes)
    assert cells.shape == (len(expected), len(sizes))
    assert list(map(tuple, cells.tolist())) == expected


def test_document_costs_memo_is_shared_across_chunks(monkeypatch):
    # four candidates per sentence, two distinct stats rows each: 8 distinct
    # sums over 64 documents, repeated across chunks of 5
    rng = np.random.default_rng(4)
    stats = [rng.integers(1, 4, size=(2, 10))[[0, 1, 1, 0]] for _ in range(3)]
    cells = product_cells([4, 4, 4])
    expected = [
        metrics.cost_from_stats(CostKind.ONE_MINUS_DOCBLEU, sum(stats[s][i] for s, i in enumerate(row)))
        for row in cells.tolist()
    ]
    scored = []
    cost_from_stats = metrics.cost_from_stats
    monkeypatch.setattr(sampling, "COST_CHUNK", 5)
    monkeypatch.setattr(
        metrics, "cost_from_stats", lambda kind, row: scored.append(row) or cost_from_stats(kind, row)
    )
    assert document_costs(CostKind.ONE_MINUS_DOCBLEU, stats, None, cells) == expected
    assert len(scored) == len(set(scored)) <= 8

import itertools
import math

import numpy as np
import pytest

from docmrt import metrics, model, sampling
from docmrt.metrics import CostKind, doc_cost, seq_cost
from docmrt.model import ScoredHypothesis
from docmrt.sampling import (
    SampleSet,
    assemble,
    build_documents_ordered,
    build_documents_random,
    document_costs,
    draw_sample_set,
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
    return sampling.score_grids([batch], [grid], CostKind.SENT_TER)[0]


def test_fabricated_costs_are_exact():
    ss = fabricated_sample_set()
    assert ss.costs.tolist() == [[0.3, 0.1, 0.5], [0.2, 0.6, 0.4]]
    costs = [[seq_cost(CostKind.SENT_TER, h.sentence, REF) for h in row] for row in ss.grid]
    assert ss.costs.tolist() == costs


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
    params = model.ModelParams(5, 2, 2, np.zeros(model.param_count(5, 2, 2)))
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
    assert ss.ranks.tolist() == [[1, 0, 2], [0, 2, 1]]


def test_order_samples_tie_break_by_log_prob_then_index():
    grid = [
        [
            ScoredHypothesis((4,), -2.0),
            ScoredHypothesis((5,), -1.0),
            ScoredHypothesis((6,), -1.0),
        ]
    ]
    batch = DocumentBatch(sources=[(5,)], references=[(7,)], doc_ids=[0])
    ss = sampling.score_grids([batch], [grid], CostKind.SENT_TER)[0]
    ss.costs = np.array([[0.5, 0.5, 0.5]])  # fabricated ties
    assert order_samples(ss).ranks.tolist() == [[1, 2, 0]]


def test_order_samples_is_permutation():
    params = model.init_params(6, 3, 3, seed=4)
    ss = order_samples(
        draw_sample_set(params, small_batch(), 6, 1.0, np.random.default_rng(2), 4, CostKind.ONE_MINUS_SBLEU)
    )
    for row in ss.ranks.tolist():
        assert sorted(row) == list(range(6))


def test_build_documents_ordered_requires_ranks():
    with pytest.raises(ValueError, match="order_samples"):
        build_documents_ordered(fabricated_sample_set())


def test_build_documents_ordered_pairs_costs_by_rank():
    ss = fabricated_sample_set()
    docs = build_documents_ordered(order_samples(ss))
    paired = [
        tuple(
            round(seq_cost(CostKind.SENT_TER, ss.grid[s][n].sentence, REF), 10)
            for s, n in enumerate(doc.assignment)
        )
        for doc in docs
    ]
    assert paired == [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
    # additive document costs are strictly increasing in rank order
    assert np.allclose([d.cost for d in docs], [0.3, 0.7, 1.1])
    assert docs[0].cost < docs[1].cost < docs[2].cost


def test_build_documents_log_prob_is_member_sum():
    ss = order_samples(fabricated_sample_set())
    cells = sampling.ordered_cells(ss)
    log_probs = assemble(ss, cells)[1].tolist()
    for row, log_prob in zip(cells.tolist(), log_probs):
        assert log_prob == sum(ss.grid[s][n].log_prob for s, n in enumerate(row))


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
    assert [d.assignment[0] for d in docs] == ss.ranks[0].tolist()
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
            (s, ss.grid[s][n].sentence) for doc in docs for s, n in enumerate(doc.assignment)
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
    # the product space holds each of the N^S assignments once, so the uniform
    # weight of a document is 1 / len(cells)
    params = model.init_params(6, 3, 3, seed=9)
    ss = draw_sample_set(params, small_batch(), 2, 1.0, np.random.default_rng(7), 4, CostKind.SENT_TER)
    cells = product_cells([ss.n_samples] * ss.n_sentences)
    costs, log_probs = assemble(ss, cells)
    assert len(costs) == len(log_probs) == 4
    assert sorted(map(tuple, cells.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_documents_mean_matches_random_scheme_average():
    ss = fabricated_sample_set()
    enum_mean = np.mean(assemble(ss, product_cells([ss.n_samples] * ss.n_sentences))[0])
    _, all_doc_costs = _exhaustive_pairings(ss.costs.tolist())
    assert math.isclose(enum_mean, np.mean(all_doc_costs), abs_tol=1e-12)


def test_enumerate_documents_guard():
    with pytest.raises(ValueError, match="guard"):
        product_cells([40] * 4)


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
            cells = product_cells([ss.n_samples] * ss.n_sentences)
            exhaustive = zip(cells.tolist(), assemble(ss, cells)[0].tolist())
            for docs in (
                [(d.assignment, d.cost) for d in build_documents_ordered(order_samples(ss))],
                [(d.assignment, d.cost) for d in build_documents_random(ss, rng)],
                exhaustive,
            ):
                for row, cost in docs:
                    hyps = [ss.grid[s][n].sentence for s, n in enumerate(row)]
                    if kind.is_sentence_level:
                        refs, srcs = batch.references, batch.sources
                        recomputed = sum(seq_cost(kind, *line) for line in zip(hyps, refs, srcs))
                        assert abs(cost - recomputed) <= 1e-12
                    else:
                        assert cost == doc_cost(kind, hyps, batch.references, batch.sources)


def test_sample_set_without_stats_extracts_them():
    ss = fabricated_sample_set()
    assert ss.stats.shape == (2, 3, 2)  # TER stats: (edits + shifts, |ref|)
    assert ss.stats[:, :, 0].tolist() == [[3, 1, 5], [2, 6, 4]]
    assert order_samples(ss).stats is ss.stats
    doc_kind = sampling.score_grids([ss.batch], [ss.grid], CostKind.DOC_TER)[0]
    assert np.array_equal(doc_kind.costs, ss.costs)  # DOC_TER ranks by sentence TER
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


def _two_by_two(grid_rows=2, widths=(2, 2), log_prob=-1.0):
    """A grid of the given rows and widths over small_batch()."""
    grid = [[ScoredHypothesis((4,) * (n + 1), log_prob) for n in range(w)] for w in widths]
    return grid[:grid_rows]


@pytest.mark.parametrize(
    "grid, error",
    [
        (_two_by_two(grid_rows=1), "^line count mismatch: 2 sentences vs 1 sample rows$"),
        (_two_by_two(widths=(2, 3)), r"^ragged sample grid: rows of \[2, 3\] samples$"),
        (_two_by_two(log_prob=math.nan), "^NaN sample log-probs"),
    ],
    ids=["fewer-rows-than-sentences", "ragged-rows", "nan-log-probs"],
)
def test_sample_set_rejects_a_malformed_grid(grid, error):
    with pytest.raises(ValueError, match=error):
        sampling.score_grids([small_batch()], [grid], CostKind.SENT_TER)


def test_a_directly_built_sample_set_has_no_stats_or_costs():
    ss = SampleSet(small_batch(), _two_by_two(), CostKind.SENT_TER)
    assert ss.sentences == [[(4,), (4, 4)]] * 2 and ss.log_probs.tolist() == [[-1.0, -1.0]] * 2
    assert (ss.n_sentences, ss.n_samples) == (2, 2)
    assert not hasattr(ss, "stats") and not hasattr(ss, "costs")


def micro_batch_grids():
    """Three micro-batches, as one update draws them, and their grids: cells come
    from a pool of five hypotheses, so they repeat within rows, across rows and
    across micro-batches, and the second micro-batch repeats a sentence pair of
    the first. Log-probs follow the hypothesis, so ranks meet ties."""
    batches = [
        DocumentBatch(sources=[(4, 5), (5,)], references=[(4, 5), (5, 5)], doc_ids=[0, 0]),
        DocumentBatch(sources=[(6,), (4, 5)], references=[(6, 4), (4, 5)], doc_ids=[1, 0]),
        DocumentBatch(sources=[(5, 6, 4)], references=[(5, 5, 4)], doc_ids=[2]),
    ]
    pool = [(4,), (4, 5), (5, 5, 4), (), (6, 4)]
    rng = np.random.default_rng(0)
    cells = lambda: [ScoredHypothesis(pool[k], -0.5 * k) for k in rng.integers(0, 5, 4)]
    grids = [[cells() for _ in batch.sources] for batch in batches]
    return batches, grids


@pytest.mark.parametrize("kind", list(CostKind), ids=[kind.value for kind in CostKind])
def test_score_grids_equals_scoring_each_set_alone(monkeypatch, kind):
    batches, grids = micro_batch_grids()
    calls = []
    line_stats = metrics.line_stats
    monkeypatch.setattr(metrics, "line_stats", lambda *a: calls.append(a) or line_stats(*a))
    stacked = sampling.score_grids(batches, grids, kind)
    ((metric, hyps, refs, srcs),) = calls  # one extraction for the three sets
    rows = [{hyp.sentence for hyp in row} for grid in grids for row in grid]
    assert len(hyps) == sum(map(len, rows)) < 4 * len(rows)  # each row's distinct cells
    assert metric == kind.metric
    assert (srcs is not None) == (metric == "gleu")  # GLEU counts against the sources
    for batch, grid, got in zip(batches, grids, stacked):
        (alone,) = sampling.score_grids([batch], [grid], kind)
        assert got.batch is batch and got.grid is grid
        cells = [
            [metrics.line_stats(kind.metric, [hyp.sentence], [ref], [src])[0].tolist() for hyp in row]
            for src, ref, row in zip(batch.sources, batch.references, grid)
        ]
        costs = [[metrics.cost_from_stats(kind.as_sentence_kind(), c) for c in row] for row in cells]
        assert got.stats.tolist() == cells and got.costs.tolist() == costs
        assert got.stats.dtype == alone.stats.dtype and np.array_equal(got.stats, alone.stats)
        assert np.array_equal(got.costs, alone.costs) and got.costs.dtype == alone.costs.dtype
        assert order_samples(got).ranks.tolist() == order_samples(alone).ranks.tolist()


def _ragged(grid):
    return [grid[0][:-1], *grid[1:]]


def _nan_log_prob(grid):
    return [[ScoredHypothesis(grid[0][0].sentence, math.nan), *grid[0][1:]], *grid[1:]]


@pytest.mark.parametrize(
    "spoil, error",
    [
        (_ragged, r"^ragged sample grid: rows of \[3, 4\] samples$"),
        (lambda grid: grid[:-1], "^line count mismatch: 2 sentences vs 1 sample rows$"),
        (_nan_log_prob, "^NaN sample log-probs"),
    ],
    ids=["ragged", "misaligned", "nan-log-prob"],
)
def test_score_grids_checks_every_grid_before_any_extraction(monkeypatch, spoil, error):
    # the last micro-batch's grid is the bad one, so the sets before it pass
    # their checks first and still extract nothing
    batches, grids = micro_batch_grids()
    batches[-1] = batches[1]
    grids[-1] = spoil([list(row) for row in grids[1]])
    calls = []
    monkeypatch.setattr(metrics, "line_stats", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=error):
        sampling.score_grids(batches, grids, CostKind.ONE_MINUS_DOCBLEU)
    assert calls == []


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the decoder's own table
def test_sampling_from_a_non_finite_model_raises():
    for bad in (math.nan, math.inf, -math.inf):
        params = model.init_params(6, 3, 3, seed=1)
        params.b_out[4] = bad
        with pytest.raises(ValueError, match="non-finite decoding table"):
            model.Decoder(params, [(4,)], 4).sample(1, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-finite decoding table"):
            draw_sample_set(
                params, small_batch(), 2, 1.0, np.random.default_rng(0), 4, CostKind.ONE_MINUS_DOCBLEU
            )


def test_duplicate_heavy_grid_equals_per_cell_extraction(monkeypatch):
    # zero theta, V=5, max_len 1: each cell is one of five sentences
    params = model.ModelParams(5, 2, 2, np.zeros(model.param_count(5, 2, 2)))
    batch = DocumentBatch(sources=[(3, 4), (), (4,)], references=[(3,), (4, 3), (4,)], doc_ids=[0] * 3)
    extracted = []
    line_stats = metrics.line_stats

    def counting_line_stats(metric, hyps, refs, srcs=None):
        extracted.extend(hyps)
        return line_stats(metric, hyps, refs, srcs)

    for kind in CostKind:
        extracted.clear()
        with monkeypatch.context() as m:
            m.setattr(metrics, "line_stats", counting_line_stats)
            ss = draw_sample_set(params, batch, 8, 1.0, np.random.default_rng(3), 1, kind)
        rows = [[hyp.sentence for hyp in row] for row in ss.grid]
        distinct = sum(len(set(row)) for row in rows)
        assert len(extracted) == distinct <= 15  # at most five per row of 8
        stats = [
            [metrics.line_stats(kind.metric, [hyp], [ref], [src])[0].tolist() for hyp in row]
            for src, ref, row in zip(batch.sources, batch.references, rows)
        ]
        sentence_kind = kind.as_sentence_kind()
        costs = [[metrics.cost_from_stats(sentence_kind, c) for c in row] for row in stats]
        assert np.array_equal(ss.stats, np.array(stats, dtype=np.int64))
        assert np.array_equal(ss.costs, np.array(costs))


@pytest.mark.parametrize("metric", metrics.METRICS)
def test_candidate_stats_equal_per_cell_extraction_on_enumerated_spaces(metric):
    # every output sentence of a small model; the spaces share sentences, and
    # each row repeats its first three candidates at its end
    params = model.init_params(6, 3, 3, seed=2)
    batch = DocumentBatch(sources=[(4, 5), (5,), ()], references=[(4, 5), (5, 5), (4,)], doc_ids=[0] * 3)
    spaces = [[sent for sent, _ in model.enumerate_output_space(params, src, 3)] for src in batch.sources]
    rows = [space + space[:3] for space in spaces]
    stats = sampling.candidate_stats(batch.references, batch.sources, rows, metric)
    assert len(stats) == len(rows)
    for src, ref, row, got in zip(batch.sources, batch.references, rows, stats):
        cells = [metrics.line_stats(metric, [hyp], [ref], [src])[0].tolist() for hyp in row]
        assert got.dtype == np.int64 and got.tolist() == cells


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

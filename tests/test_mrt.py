import collections
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docmrt import metrics, model, mrt, sampling
from docmrt.metrics import CostKind, doc_cost, seq_cost
from docmrt.mrt import TrainConfig, doc_mrt_grad, exact_risk, exact_risk_grad, fd_gradient_check, seq_mrt_grad
from docmrt.textcore import DocumentBatch


def tiny_batch():
    return DocumentBatch(sources=[(4, 0), (1, 4)], references=[(4,), (4, 4)], doc_ids=[0, 0])


def cfg_for(mode, kind, n=4, max_len=2, estimator="raw", alpha=5e-3):
    return TrainConfig(
        mode=mode, cost_kind=kind, n_samples=n, max_len=max_len,
        estimator=estimator, alpha=alpha,
    )


def draw(params, batch, cfg, rng):
    """cfg's N samples per sentence of batch, drawn with rng and scored."""
    return sampling.draw_sample_set(
        params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len, cfg.cost_kind
    )


ARRAY_HOLDERS = {
    "ModelParams": lambda: model.init_params(5, 2, 2, seed=0),
    "RiskEstimate": lambda: mrt.RiskEstimate(risk=0.5, grad=np.zeros(3)),
    "SampleSet": lambda: sampling.score_grids(
        [tiny_batch()], [[[model.ScoredHypothesis((4,), -0.5)] * 2] * 2], CostKind.SENT_TER
    )[0],
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(build):
    # field-wise == would ask numpy for the truth value of an array
    a, b = build(), build()
    assert a == a and a != b and not a == b


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="nope")
    with pytest.raises(ValueError):
        TrainConfig(tau=0.0)
    with pytest.raises(ValueError):
        TrainConfig(n_samples=0)
    with pytest.raises(ValueError):
        TrainConfig(estimator="fancy")
    assert TrainConfig() is not None  # the defaults pass their own checks


@pytest.mark.parametrize(
    "name, value",
    [("tau", math.nan), ("tau", math.inf), ("alpha", math.nan), ("alpha", math.inf),
     ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -math.inf)],
)
def test_train_config_rejects_non_finite_settings_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*positive, got {value}$"):
        TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# sequence estimator
# ---------------------------------------------------------------------------


def test_seq_mrt_constant_cost_factors_out():
    params = model.init_params(5, 3, 3, seed=1)
    batch = tiny_batch()
    cfg = cfg_for("seq_mrt", CostKind.SENT_TER)
    ss = sampling.draw_sample_set(
        params, batch, cfg.n_samples, 1.0, np.random.default_rng(0), cfg.max_len, CostKind.SENT_TER
    )
    ss.costs[:] = 0.4
    est = seq_mrt_grad(params, batch, cfg, sample_set=ss)
    plain = np.zeros_like(params.theta)
    for src, row in zip(batch.sources, ss.grid):
        for hyp in row:
            plain += model.log_prob_grad(params, src, hyp.sentence, cfg.max_len)
    assert np.allclose(est.grad, 0.4 * plain / cfg.n_samples, atol=1e-12)
    assert math.isclose(est.risk, 0.4 * 2)  # sum over sentences of mean cost


def test_seq_estimator_expectation_equals_exact_gradient():
    # S=1: the expected raw estimator over the enumerated output space is the
    # exact sentence-level risk gradient
    params = model.init_params(5, 3, 3, seed=2)
    src, ref = (4, 0), (4, 4)
    batch = DocumentBatch(sources=[src], references=[ref], doc_ids=[0])
    space = model.enumerate_output_space(params, src, 2)
    expectation = np.zeros_like(params.theta)
    for sent, prob in space:
        delta = seq_cost(CostKind.ONE_MINUS_SBLEU, sent, ref, src)
        expectation += prob * delta * model.log_prob_grad(params, src, sent, 2)
    exact = exact_risk_grad(params, batch, CostKind.ONE_MINUS_SBLEU, 2)
    assert np.allclose(expectation, exact, atol=1e-12)
    rng = np.random.default_rng(5)
    coords = rng.choice(params.theta.size, size=40, replace=False)
    err = fd_gradient_check(
        lambda th: exact_risk(params.like(th), batch, CostKind.ONE_MINUS_SBLEU, 2),
        exact, params.theta, coords,
    )
    assert err < 1e-4


def test_seq_renormalized_alpha_to_zero_recovers_raw():
    params = model.init_params(5, 3, 3, seed=3)
    batch = tiny_batch()
    ss = sampling.draw_sample_set(
        params, batch, 4, 1.0, np.random.default_rng(1), 2, CostKind.SENT_TER
    )
    raw = seq_mrt_grad(params, batch, cfg_for("seq_mrt", CostKind.SENT_TER), sample_set=ss)
    renorm = seq_mrt_grad(
        params, batch, cfg_for("seq_mrt", CostKind.SENT_TER, estimator="renormalized", alpha=1e-12),
        sample_set=ss,
    )
    assert np.allclose(raw.grad, renorm.grad, atol=1e-9)
    assert math.isclose(raw.risk, renorm.risk, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# document estimator
# ---------------------------------------------------------------------------


def test_doc_mrt_single_document_formula():
    params = model.init_params(5, 3, 3, seed=4)
    batch = tiny_batch()
    cfg = cfg_for("doc_mrt_ordered", CostKind.ONE_MINUS_DOCBLEU, n=1)
    rng = np.random.default_rng(2)
    ss = sampling.draw_sample_set(params, batch, 1, 1.0, rng, 2, cfg.cost_kind)
    est = doc_mrt_grad(params, batch, cfg, sample_set=ss)
    doc = sampling.build_documents_ordered(sampling.order_samples(ss))[0]
    expected = doc.cost * sum(
        model.log_prob_grad(params, src, ss.grid[s][n].sentence, 2)
        for s, (src, n) in enumerate(zip(batch.sources, doc.assignment))
    )
    assert np.allclose(est.grad, expected, atol=1e-12)


def test_doc_mrt_reduction_to_seq_is_bit_identical():
    # S=1 with TER costs: the singleton document cost equals the sentence cost
    # bit for bit, so both estimators agree exactly on a shared SampleSet
    for trial in range(20):
        params = model.init_params(5, 3, 3, seed=trial)
        batch = DocumentBatch(sources=[(4, 1)], references=[(4, 4)], doc_ids=[0])
        ss = sampling.draw_sample_set(
            params, batch, 4, 1.0, np.random.default_rng(trial), 2, CostKind.SENT_TER
        )
        cfg = cfg_for("seq_mrt", CostKind.SENT_TER)
        seq = seq_mrt_grad(params, batch, cfg, sample_set=ss)
        ordered = doc_mrt_grad(params, batch, cfg, scheme="ordered", sample_set=sampling.order_samples(ss))
        randomized = doc_mrt_grad(
            params, batch, cfg, scheme="random", sample_set=ss, rng=np.random.default_rng(0)
        )
        assert np.array_equal(seq.grad, ordered.grad)
        assert np.array_equal(seq.grad, randomized.grad)
        assert seq.risk == ordered.risk == randomized.risk


def test_doc_mrt_additive_cost_risk_is_pairing_invariant():
    params = model.init_params(5, 3, 3, seed=6)
    batch = tiny_batch()
    cfg = cfg_for("doc_mrt_ordered", CostKind.SENT_TER)
    ss = sampling.draw_sample_set(params, batch, 4, 1.0, np.random.default_rng(3), 2, CostKind.SENT_TER)
    ordered = doc_mrt_grad(params, batch, cfg, scheme="ordered", sample_set=sampling.order_samples(ss))
    for seed in range(10):
        randomized = doc_mrt_grad(
            params, batch, cfg, scheme="random", sample_set=ss, rng=np.random.default_rng(seed)
        )
        assert math.isclose(ordered.risk, randomized.risk, abs_tol=1e-12)


def test_doc_mrt_renormalized_risk_is_weighted_mean():
    params = model.init_params(5, 3, 3, seed=7)
    batch = tiny_batch()
    cfg = cfg_for("doc_mrt_ordered", CostKind.ONE_MINUS_DOCBLEU, estimator="renormalized", alpha=0.5)
    ss = sampling.order_samples(
        sampling.draw_sample_set(params, batch, 4, 1.0, np.random.default_rng(4), 2, cfg.cost_kind)
    )
    est = doc_mrt_grad(params, batch, cfg, sample_set=ss)
    docs = sampling.build_documents_ordered(ss)
    costs = [d.cost for d in docs]
    assert min(costs) - 1e-12 <= est.risk <= max(costs) + 1e-12


def test_doc_mrt_renormalized_alpha_to_zero_recovers_raw():
    params = model.init_params(5, 3, 3, seed=21)
    batch = tiny_batch()
    ss = sampling.order_samples(
        sampling.draw_sample_set(
            params, batch, 4, 1.0, np.random.default_rng(9), 2, CostKind.ONE_MINUS_DOCBLEU
        )
    )
    raw = doc_mrt_grad(
        params, batch, cfg_for("doc_mrt_ordered", CostKind.ONE_MINUS_DOCBLEU), sample_set=ss
    )
    renorm = doc_mrt_grad(
        params, batch,
        cfg_for("doc_mrt_ordered", CostKind.ONE_MINUS_DOCBLEU, estimator="renormalized", alpha=1e-12),
        sample_set=ss,
    )
    assert np.allclose(raw.grad, renorm.grad, atol=1e-9)
    assert math.isclose(raw.risk, renorm.risk, rel_tol=1e-9)


def test_doc_mrt_unbiased_for_exact_risk_gradient():
    # raw estimator, random scheme, fresh samples: Monte Carlo mean matches the
    # enumerated gradient coordinatewise within 3 standard errors
    params = model.init_params(5, 3, 3, seed=11)
    batch = tiny_batch()
    kind = CostKind.ONE_MINUS_DOCBLEU
    exact = exact_risk_grad(params, batch, kind, 2)
    cfg = cfg_for("doc_mrt_random", kind)
    rng = np.random.default_rng(123)
    reps = 3000
    acc = np.zeros_like(params.theta)
    acc2 = np.zeros_like(params.theta)
    for _ in range(reps):
        grad = doc_mrt_grad(params, batch, cfg, rng=rng).grad
        acc += grad
        acc2 += grad * grad
    mean = acc / reps
    se = np.sqrt(np.maximum(acc2 / reps - mean**2, 0.0) / reps)
    mask = np.abs(exact) > 1e-6
    assert mask.sum() > 20
    dev = np.abs(mean - exact)[mask] / np.maximum(se[mask], 1e-300)
    assert (dev <= 3.0).mean() >= 0.99


DOC_MRT_ERRORS = {  # id: (mode, scheme, what is passed besides them, message)
    "seq-mode": ("seq_mrt", None, "rng", "mode 'seq_mrt'"),
    "mle-mode": ("mle", None, "rng", "mode 'mle'"),
    "seq-scheme": ("doc_mrt_ordered", "seq", "rng", "scheme 'seq'"),
    "unknown-scheme": ("doc_mrt_ordered", "sideways", "rng", "scheme 'sideways'"),
    "no-rng-no-samples": ("doc_mrt_ordered", None, "", "need an rng to draw samples"),
    "random-no-rng": ("doc_mrt_ordered", "random", "sample_set", "random scheme needs an rng"),
}


@pytest.mark.parametrize(
    "mode, scheme, given, message", DOC_MRT_ERRORS.values(), ids=DOC_MRT_ERRORS.keys()
)
def test_doc_mrt_scheme_inference_and_errors(mode, scheme, given, message):
    params = model.init_params(5, 2, 2, seed=0)
    batch = tiny_batch()
    cfg = cfg_for(mode, CostKind.ONE_MINUS_DOCBLEU)
    rng = np.random.default_rng(0) if given == "rng" else None
    ss = draw(params, batch, cfg, np.random.default_rng(0)) if given == "sample_set" else None
    with pytest.raises(ValueError, match=re.escape(message)):
        doc_mrt_grad(params, batch, cfg, scheme=scheme, rng=rng, sample_set=ss)


@pytest.mark.parametrize("scheme", [None, "ordered", "random"])  # None: sequence MRT
def test_estimators_reject_a_sample_set_drawn_for_another_batch(scheme):
    # the gradient would pair one batch's sources with another's samples and costs
    params = model.init_params(5, 3, 3, seed=0)
    batch = tiny_batch()
    cfg = cfg_for("seq_mrt" if scheme is None else "doc_mrt_ordered", CostKind.ONE_MINUS_DOCBLEU)
    ss = draw(params, batch, cfg, np.random.default_rng(0))

    def grad(target):
        if scheme is None:
            return seq_mrt_grad(params, target, cfg, ss).grad
        rng = np.random.default_rng(1)
        return doc_mrt_grad(params, target, cfg, scheme=scheme, rng=rng, sample_set=ss).grad

    other = DocumentBatch(sources=[(1, 4), (4, 0)], references=batch.references, doc_ids=[0, 0])
    with pytest.raises(ValueError, match="sample_set was drawn for another batch"):
        grad(other)
    # an equal batch is the same batch
    equal = DocumentBatch(list(batch.sources), list(batch.references), list(batch.doc_ids))
    assert np.array_equal(grad(equal), grad(batch))


# ---------------------------------------------------------------------------
# exact risk
# ---------------------------------------------------------------------------


def test_exact_risk_constant_cost_is_constant():
    params = model.init_params(5, 3, 3, seed=8)
    risk = exact_risk(params, tiny_batch(), lambda h, r, s=None: 0.7, 2)
    assert math.isclose(risk, 0.7, abs_tol=1e-10)


def test_exact_risk_grad_constant_cost_is_zero():
    params = model.init_params(5, 3, 3, seed=9)
    grad = exact_risk_grad(params, tiny_batch(), lambda h, r, s=None: 0.7, 2)
    assert np.abs(grad).max() <= 1e-10


def test_exact_risk_complement_of_singled_out_document():
    params = model.init_params(5, 3, 3, seed=10)
    batch = tiny_batch()
    target = [(4,), ()]

    def cost(hyps, refs, srcs=None):
        return 0.0 if list(hyps) == target else 1.0

    p_target = math.exp(
        model.log_prob(params, batch.sources[0], target[0], 2)
        + model.log_prob(params, batch.sources[1], target[1], 2)
    )
    risk = exact_risk(params, batch, cost, 2)
    assert math.isclose(risk, 1.0 - p_target, abs_tol=1e-10)


def test_exact_risk_hand_instance():
    # V=5, max_len=1, zero parameters: five equiprobable outputs per sentence,
    # one of which matches the one-token reference -> pooled TER risk 0.8
    params = model.ModelParams(5, 2, 2, np.zeros(model.param_count(5, 2, 2)))
    batch = DocumentBatch(sources=[(4,), (3,)], references=[(4,), (3,)], doc_ids=[0, 0])
    risk = exact_risk(params, batch, CostKind.DOC_TER, 1)
    assert math.isclose(risk, 0.8, abs_tol=1e-12)


def test_exact_risk_grad_linear_in_costs():
    params = model.init_params(5, 3, 3, seed=12)
    batch = tiny_batch()
    base = lambda h, r, s: reference_document_cost(CostKind.ONE_MINUS_DOCBLEU, h, r, s)
    g1 = exact_risk_grad(params, batch, base, 2)
    g2 = exact_risk_grad(params, batch, lambda h, r, s: 2.0 * base(h, r, s), 2)
    assert np.allclose(g2, 2.0 * g1, atol=1e-12)


def test_exact_risk_finite_difference_agreement():
    params = model.init_params(5, 3, 3, seed=13)
    batch = tiny_batch()
    kind = CostKind.DOC_TER
    grad = exact_risk_grad(params, batch, kind, 2)
    coords = np.random.default_rng(6).choice(params.theta.size, size=40, replace=False)
    err = fd_gradient_check(
        lambda th: exact_risk(params.like(th), batch, kind, 2), grad, params.theta, coords
    )
    assert err < 1e-4


def test_doc_ter_risk_gradient_is_the_length_weighted_sum_of_sentence_ter_gradients():
    # pooled TER is sum_s edits_s / R, and R = sum_s R_s does not depend on the samples,
    # so E[doc-TER] = sum_s (R_s / R) E[TER_s], and so is its gradient
    params = model.init_params(6, 4, 4, seed=3)
    batch = DocumentBatch(
        sources=[(4, 5), (5,), (4,)], references=[(4,), (5, 4), (4, 5, 5)], doc_ids=[0, 0, 0]
    )
    lengths = [len(ref) for ref in batch.references]
    weighted = sum(
        (r / sum(lengths)) * exact_risk_grad(params, batch.lines([s]), CostKind.SENT_TER, 2)
        for s, r in enumerate(lengths)
    )
    doc = exact_risk_grad(params, batch, CostKind.DOC_TER, 2)
    assert np.abs(doc).max() > 0.01
    assert np.abs(doc - weighted).max() <= 1e-12


def test_exact_risk_guard():
    params = model.init_params(16, 2, 2, seed=0)
    batch = DocumentBatch(sources=[(4,)] * 2, references=[(4,)] * 2, doc_ids=[0, 0])
    with pytest.raises(ValueError, match="guard"):
        exact_risk(params, batch, CostKind.DOC_TER, 4)


def test_empty_batch_is_rejected_by_sample_sets_costers_and_exact_risk():
    params = model.init_params(5, 3, 3, seed=0)
    empty = DocumentBatch(sources=[], references=[], doc_ids=[])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="empty batch"):
        sampling.draw_sample_set(params, empty, 2, 1.0, rng, 2, CostKind.ONE_MINUS_DOCBLEU)
    with pytest.raises(ValueError, match="empty batch"):
        sampling.score_grids([empty], [[]], CostKind.SENT_TER)
    for kind in CostKind:
        with pytest.raises(ValueError, match="empty batch"):
            sampling.document_costs(kind, [], [], np.zeros((3, 0), dtype=np.intp))
        with pytest.raises(ValueError, match="empty"):
            exact_risk(params, empty, kind, 2)


def test_exact_risk_scores_each_distinct_sentence_stats_row_once(monkeypatch):
    params = model.init_params(5, 3, 3, seed=3)
    batch = tiny_batch()
    spaces = [model.enumerate_output_space(params, src, 2) for src in batch.sources]
    candidates = [[sent for sent, _ in sp] for sp in spaces]
    stats = sampling.candidate_stats(batch.references, batch.sources, candidates, "ter")
    distinct = {tuple(row) for rows in stats for row in rows.tolist()}
    cost_from_stats, calls = metrics.cost_from_stats, []
    monkeypatch.setattr(
        metrics, "cost_from_stats", lambda kind, row: calls.append(row) or cost_from_stats(kind, row)
    )
    exact_risk(params, batch, CostKind.SENT_TER, 2)
    assert sorted(calls) == sorted(distinct) and len(distinct) < sum(map(len, stats))


def reference_document_cost(cost_kind, hyps, refs, srcs):
    """A callable's value, the pooled cost of a document-level kind, or the sum
    of the sentence costs of a sentence-level one."""
    if not isinstance(cost_kind, CostKind):
        return cost_kind(hyps, refs, srcs)
    if cost_kind.is_sentence_level:
        return sum(seq_cost(cost_kind, h, r, s) for h, r, s in zip(hyps, refs, srcs))
    return doc_cost(cost_kind, hyps, refs, srcs)


def reference_enumerated_risk(params, batch, cost_kind, max_len):
    """The per-document enumeration loop, the oracle of mrt._enumerated_risk: a
    callable costs each document; a sentence-level kind sums the seq_cost of its
    sentences in sentence order, and a document-level kind scores the sum of their
    line_stats rows, as doc_cost does. Each (sentence, candidate) pair's seq_cost or
    row is computed once."""
    spaces = [model.enumerate_output_space(params, src, max_len) for src in batch.sources]
    refs, srcs = batch.references, batch.sources
    parts = {}  # (s, i) -> seq_cost or line_stats row of sentence s's candidate i

    def part(s, i):
        if (s, i) not in parts:
            hyp = spaces[s][i][0]
            parts[s, i] = (
                seq_cost(cost_kind, hyp, refs[s], srcs[s]) if cost_kind.is_sentence_level
                else metrics.line_stats(cost_kind.metric, [hyp], [refs[s]], [srcs[s]])[0]
            )
        return parts[s, i]

    def document_cost(combo_idx, hyps):
        if not isinstance(cost_kind, CostKind):
            return cost_kind(hyps, refs, srcs)
        total = sum(part(s, i) for s, i in enumerate(combo_idx))
        return total if cost_kind.is_sentence_level else metrics.cost_from_stats(cost_kind, total)

    risk = 0.0
    coeffs = [np.zeros(len(space)) for space in spaces]
    for combo_idx in itertools.product(*(range(len(sp)) for sp in spaces)):
        p = 1.0
        hyps = []
        for s, i in enumerate(combo_idx):
            sent, prob = spaces[s][i]
            p *= prob
            hyps.append(sent)
        dp = p * document_cost(combo_idx, hyps)
        risk += dp
        for s, i in enumerate(combo_idx):
            coeffs[s][i] += dp
    return risk, spaces, coeffs


def first_sentence_share(hyps, refs, srcs=None):
    return (len(hyps[0]) + 0.5) / (sum(len(h) for h in hyps) + 1.5)


@st.composite
def risk_cases(draw):
    """(params, batch, max_len, cost): S 1-3, V 5-6, max_len 1-2; sources may
    be empty, references are not (sentence TER rejects them)."""
    v, s = draw(st.integers(5, 6)), draw(st.integers(1, 3))
    tokens = st.integers(3, v - 1)
    line = lambda min_size: tuple(draw(st.lists(tokens, min_size=min_size, max_size=3)))
    batch = DocumentBatch(
        sources=[line(0) for _ in range(s)], references=[line(1) for _ in range(s)], doc_ids=[0] * s
    )
    params = model.init_params(v, 3, 3, seed=draw(st.integers(0, 1000)))
    cost = draw(st.sampled_from([*CostKind, first_sentence_share]))
    return params, batch, draw(st.integers(1, 2)), cost


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=risk_cases())
def test_enumerated_risk_equals_reference_loop_bitwise(case):
    params, batch, max_len, cost = case
    risk, candidates, coeffs = mrt._enumerated_risk(params, batch, cost, max_len)
    ref_risk, ref_spaces, ref_coeffs = reference_enumerated_risk(params, batch, cost, max_len)
    assert risk == ref_risk
    assert candidates == [[sent for sent, _ in space] for space in ref_spaces]
    assert all(np.array_equal(c, r) for c, r in zip(coeffs, ref_coeffs, strict=True))
    srcs = [src for src, sents in zip(batch.sources, candidates) for _ in sents]
    tgts = [sent for sents in candidates for sent in sents]
    weights = [c for coeff in ref_coeffs for c in coeff]
    expected = model.weighted_log_prob_grad(params, srcs, tgts, weights, max_len)[1]
    assert np.array_equal(exact_risk_grad(params, batch, cost, max_len), expected)


def test_scatter_sums_each_candidates_document_weights():
    # 3 documents of 2 sentences, 3 candidates each: sentence s's candidate i is cell 3 s + i
    cells = np.array([[0, 2], [1, 2], [0, 0]]) + [0, 3]
    got = mrt._scatter(cells, np.array([1.0, 2.0, 4.0]), 6)
    assert type(got) is np.ndarray and got.tolist() == [5.0, 2.0, 0.0, 4.0, 0.0, 3.0]


def test_exact_risk_coefficients_are_one_sentence_by_candidate_array():
    params = model.init_params(5, 3, 3, seed=3)
    _, candidates, coeffs = mrt._enumerated_risk(params, tiny_batch(), CostKind.DOC_TER, 2)
    assert candidates[0] == candidates[1]
    assert type(coeffs) is np.ndarray and coeffs.shape == (2, len(candidates[0]))


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------


def test_fd_gradient_check_exact_on_quadratic():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    theta = rng.normal(size=6)
    grad = 2.0 * a @ theta
    err = fd_gradient_check(lambda th: float(th @ a @ th), grad, theta, range(6), eps=1e-4)
    assert err < 1e-8


def test_fd_gradient_check_flags_wrong_gradient():
    theta = np.ones(3)
    grad = np.array([2.0, 2.0, 2.5])  # last coordinate is wrong
    err = fd_gradient_check(lambda th: float((th**2).sum()), grad, theta, range(3))
    assert err > 0.1


@pytest.mark.parametrize(
    "fn, grad",
    [pytest.param(lambda th: math.nan, [2.0, 2.0], id="fn-nan"),
     pytest.param(lambda th: float((th**2).sum()), [math.nan, 2.0], id="analytic-nan"),
     pytest.param(lambda th: float((th**2).sum()), [math.inf, 2.0], id="analytic-inf"),
     pytest.param(lambda th: math.inf * th[0], [2.0, 2.0], id="fn-inf")],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # numpy's inf - inf, inf / inf
def test_fd_gradient_check_fails_every_threshold_on_a_non_finite_value(fn, grad):
    # the non-finite coordinate comes first, so a later finite one cannot hide it
    assert fd_gradient_check(fn, np.array(grad), np.ones(2), range(2)) == math.inf


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1e-4])
def test_fd_gradient_check_requires_a_finite_positive_eps(eps):
    with pytest.raises(ValueError, match=f"^eps must be finite and positive, got {eps}$"):
        fd_gradient_check(lambda th: float(th[0]), np.ones(1), np.zeros(1), range(1), eps=eps)


def test_fd_gradient_check_skips_tiny_coordinates():
    theta = np.zeros(2)
    err = fd_gradient_check(lambda th: float(th[0]), np.array([1.0, 0.0]), theta, range(2))
    assert err < 1e-10


# ---------------------------------------------------------------------------
# fine-tuning loop
# ---------------------------------------------------------------------------


def small_corpus(seed=0):
    from docmrt.harness import TaskSpec, generate_synthetic_corpus

    task = TaskSpec(
        vocab_size=8, len_min=1, len_max=3, sentences_per_doc=2,
        num_documents=6, valid_documents=2, test_documents=2, rule=0, seed=seed,
    )
    return generate_synthetic_corpus(task)


def heldout_evaluator(heldout, cfg):
    """Beam-4 pooled document metric of cfg's cost kind on heldout, the
    evaluator docmrt finetune-mrt passes as eval_fn."""
    from docmrt.harness import evaluate_corpus

    return lambda p: evaluate_corpus(
        p, heldout, cfg.cost_kind, beam=4, max_len=cfg.max_len
    ).value


def test_finetune_accumulation_matches_single_concatenated_update():
    # all micro-batch gradients are taken at the starting parameters and
    # averaged, so one update with accum_steps=k is one plain SGD step
    train, _, _ = small_corpus()
    params = model.init_params(8, 3, 3, seed=1)
    cfg = TrainConfig(
        mode="doc_mrt_ordered", cost_kind=CostKind.ONE_MINUS_DOCBLEU,
        n_samples=2, batch_size=2, learning_rate=0.2, accum_steps=3,
        max_updates=1, seed=42, max_len=4, batching="document",
    )
    tuned, log = mrt.finetune(params, train, cfg)

    from docmrt.harness import make_batches

    rng = np.random.default_rng(cfg.seed)
    epoch_seed = int(rng.integers(2**31 - 1))
    batches = make_batches(train, cfg.batching, cfg.batch_size, epoch_seed)
    acc = np.zeros_like(params.theta)
    for batch in batches[: cfg.accum_steps]:
        acc += doc_mrt_grad(params, batch, cfg, rng=rng).grad
    expected = params.theta - cfg.learning_rate * acc / cfg.accum_steps
    assert np.array_equal(tuned.theta, expected)
    assert len(log) == 1 and log[0]["mode"] == "doc_mrt_ordered"


def test_one_decoder_per_micro_batch(monkeypatch):
    # a micro-batch's decoding tables are built once, for all its sources
    built = []
    init = model.Decoder.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.Decoder, "__init__", counting_init)
    params = model.init_params(8, 3, 3, seed=1)
    batch = DocumentBatch([(4, 5), (5,), (), (6, 4, 7)], [(4,)] * 4, [0, 0, 1, 1])
    sampling.draw_sample_set(
        params, batch, 3, 1.0, np.random.default_rng(0), 4, CostKind.ONE_MINUS_DOCBLEU
    )
    assert len(built) == 1
    built.clear()
    train, _, _ = small_corpus()  # documents of 2 sentences
    cfg = TrainConfig(n_samples=2, batch_size=2, accum_steps=3, max_updates=1, max_len=4)
    mrt.finetune(params, train, cfg)
    assert len(built) == 3


@pytest.mark.parametrize(
    "mode, kind, pass_name",
    [
        ("doc_mrt_ordered", CostKind.ONE_MINUS_DOCBLEU, "_ngram_rows"),
        ("doc_mrt_random", CostKind.ONE_MINUS_DOCBLEU, "_ngram_rows"),
        ("doc_mrt_ordered", CostKind.DOC_TER, "_ter_rows"),
    ],
)
def test_a_default_size_update_takes_one_stats_pass(monkeypatch, mode, kind, pass_name):
    # n_samples x mrt_batch_size x mrt_accum_steps cells fit one LINE_CHUNK
    from docmrt.harness import EXPERIMENT_DEFAULTS as D, TaskSpec, generate_synthetic_corpus

    task = TaskSpec(
        vocab_size=D["vocab_size"], len_min=D["len_min"], len_max=D["len_max"],
        sentences_per_doc=D["sentences_per_doc"], num_documents=12,
        valid_documents=1, test_documents=1, rule=D["rule"], seed=4,
    )
    train = generate_synthetic_corpus(task)[0]
    params = model.init_params(D["vocab_size"], D["emb_dim"], D["hidden_dim"], seed=4)
    cfg = TrainConfig(
        mode=mode, cost_kind=kind, n_samples=D["n_samples"], batch_size=D["mrt_batch_size"],
        accum_steps=D["mrt_accum_steps"], max_updates=1, max_len=D["max_len"],
    )
    calls = []
    for name in ("_ngram_rows", "_ter_rows"):
        fn = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *a, f=fn, n=name: calls.append(n) or f(*a))
    assert D["n_samples"] * D["mrt_batch_size"] * D["mrt_accum_steps"] <= metrics.LINE_CHUNK
    mrt.finetune(params, train, cfg)
    assert calls == [pass_name]


def test_finetune_mle_mode_delegates_to_mle_loss():
    train, _, _ = small_corpus(seed=3)
    params = model.init_params(8, 3, 3, seed=2)
    cfg = TrainConfig(
        mode="mle", batch_size=3, learning_rate=0.5, accum_steps=1,
        max_updates=1, seed=9, max_len=4, batching="random",
    )
    tuned, log = mrt.finetune(params, train, cfg)

    from docmrt.harness import make_batches

    rng = np.random.default_rng(cfg.seed)
    epoch_seed = int(rng.integers(2**31 - 1))
    batch = make_batches(train, "random", 3, epoch_seed)[0]
    loss, grad = model.mle_loss_grad(params, batch, cfg.max_len)
    assert np.array_equal(tuned.theta, params.theta - 0.5 * grad)
    assert log[0]["risk"] == loss


def test_finetune_is_deterministic_per_seed():
    train, valid, _ = small_corpus(seed=5)
    params = model.init_params(8, 3, 3, seed=4)
    cfg = TrainConfig(
        mode="seq_mrt", cost_kind=CostKind.ONE_MINUS_SBLEU, n_samples=2,
        batch_size=2, learning_rate=0.1, max_updates=3, seed=7, max_len=4,
    )
    evaluate = heldout_evaluator(valid, cfg)
    a, log_a = mrt.finetune(params, train, cfg, eval_every=2, eval_fn=evaluate)
    b, log_b = mrt.finetune(params, train, cfg, eval_every=2, eval_fn=evaluate)
    assert np.array_equal(a.theta, b.theta)
    assert log_a == log_b
    assert "heldout_metric" in log_a[1]


RESHUFFLE_CASES = [pytest.param("mle", CostKind.ONE_MINUS_DOCBLEU, id="mle")] + [
    pytest.param(mode, kind, id=f"{mode}-{kind.value}")
    for mode in ("seq_mrt", "doc_mrt_ordered", "doc_mrt_random")
    for kind in (CostKind.ONE_MINUS_DOCBLEU, CostKind.DOC_TER, CostKind.ONE_MINUS_DOC_GLEU)
]


@pytest.mark.parametrize("mode, kind", RESHUFFLE_CASES)
def test_finetune_reshuffles_each_epoch_on_the_training_stream(mode, kind):
    # 3 updates of 2 micro-batches over 3 batches per epoch: the second epoch's
    # seed is drawn from the training rng between the third and fourth batches,
    # inside the second update; the oracle estimates one micro-batch at a time
    from docmrt.harness import make_batches

    train, _, _ = small_corpus(seed=11)
    params = model.init_params(8, 3, 3, seed=9)
    cfg = TrainConfig(
        mode=mode, cost_kind=kind, n_samples=2, batch_size=4, learning_rate=0.3,
        accum_steps=2, max_updates=3, seed=5, max_len=4, batching="random",
    )
    tuned, _ = mrt.finetune(params, train, cfg)

    def estimate(params, batch, rng):
        if mode == "mle":
            return model.mle_loss_grad(params, batch, cfg.max_len)[1]
        if mode == "seq_mrt":
            return seq_mrt_grad(params, batch, cfg, draw(params, batch, cfg, rng)).grad
        return doc_mrt_grad(params, batch, cfg, rng=rng).grad

    rng = np.random.default_rng(cfg.seed)
    expected, batches = params.copy(), []
    for _ in range(cfg.max_updates):
        acc = np.zeros_like(expected.theta)
        for _ in range(cfg.accum_steps):
            if not batches:
                batches = make_batches(train, "random", 4, int(rng.integers(2**31 - 1)))
                assert len(batches) == 3
            acc += estimate(expected, batches.pop(0), rng)
        expected.theta -= cfg.learning_rate * acc / cfg.accum_steps
    assert np.array_equal(tuned.theta, expected.theta)


@pytest.mark.parametrize("mode", ["seq_mrt", "doc_mrt_ordered", "doc_mrt_random"])
def test_an_mrt_update_extracts_the_stats_of_all_its_micro_batches_at_once(monkeypatch, mode):
    train, _, _ = small_corpus(seed=11)
    params = model.init_params(8, 3, 3, seed=9)
    cfg = TrainConfig(
        mode=mode, n_samples=3, batch_size=2, accum_steps=3, max_updates=2, max_len=4
    )
    lines = []
    line_stats = metrics.line_stats
    monkeypatch.setattr(metrics, "line_stats", lambda *a: lines.append(len(a[1])) or line_stats(*a))
    mrt.finetune(params, train, cfg)
    assert len(lines) == cfg.max_updates  # one call per update, not per micro-batch


def reference_weigh(cfg, costs, logps):
    """The weights and the one risk of rows of N documents, as each micro-batch
    was weighed alone before an update weighed its stack of micro-batches."""
    n = costs.shape[1]
    if cfg.estimator == "raw":
        return costs / n, float(costs.sum()) / n
    q = np.exp(cfg.alpha * (logps - logps.max(axis=1, keepdims=True)))
    q /= q.sum(axis=1, keepdims=True)
    weights = q * costs
    return weights, float(weights.sum())


def reference_micro_batch_estimate(cfg, sample_set, scheme, cells):
    """(weights, risk) of one micro-batch by the per-micro-batch rule: order,
    assemble, weigh one row of N documents, and scatter it sentence by sentence."""
    if scheme == "seq":
        return reference_weigh(cfg, sample_set.costs, sample_set.log_probs)
    if scheme == "ordered":
        cells = sampling.ordered_cells(sampling.order_samples(sample_set))
    costs, log_probs = sampling.assemble(sample_set, cells)
    row, risk = reference_weigh(cfg, costs[None], log_probs[None])
    n = sample_set.n_samples
    return np.array([np.bincount(col, weights=row[0], minlength=n) for col in cells.T]), risk


def reference_finetune_estimates(params, train, cfg):
    """(sources, candidates, weights, risk) of every micro-batch of a finetune run,
    each micro-batch drawn, scored and weighed alone, on the same rng stream."""
    from docmrt.harness import make_batches

    scheme = {"seq_mrt": "seq", "doc_mrt_ordered": "ordered", "doc_mrt_random": "random"}[cfg.mode]
    rng, params, batches, out = np.random.default_rng(cfg.seed), params.copy(), [], []
    for _ in range(cfg.max_updates):
        acc = np.zeros_like(params.theta)
        for _ in range(cfg.accum_steps):
            if not batches:
                seed = int(rng.integers(2**31 - 1))
                batches = make_batches(train, cfg.batching, cfg.batch_size, seed)
            batch = batches.pop(0)
            grid = model.Decoder(params, batch.sources, cfg.max_len).sample(cfg.n_samples, cfg.tau, rng)
            cells = sampling.random_cells(grid, rng) if scheme == "random" else None
            sample_set = sampling.score_grids([batch], [grid], cfg.cost_kind)[0]
            weights, risk = reference_micro_batch_estimate(cfg, sample_set, scheme, cells)
            out.append((batch.sources, sample_set.sentences, weights, risk))
            srcs, tgts = _grid_rows(sample_set)
            acc += model.weighted_log_prob_grad(params, srcs, tgts, weights.ravel(), cfg.max_len)[1]
        params.theta -= cfg.learning_rate * acc / cfg.accum_steps
    return out, params


def ragged_corpus():
    """Documents of 9, 3, 10 and 5 lines, V = 8: document batches of 9 lines reach
    S = 9 and leave batches of 3, 1 and 5; random batches of 8 leave a tail of 3."""
    rng = np.random.default_rng(21)
    line = lambda: tuple(rng.integers(4, 8, rng.integers(1, 4)).tolist())
    doc_ids = [d for d, size in enumerate([9, 3, 10, 5]) for _ in range(size)]
    return DocumentBatch([line() for _ in doc_ids], [line() for _ in doc_ids], doc_ids)


@pytest.mark.parametrize("estimator", mrt.ESTIMATORS)
@pytest.mark.parametrize("kind", list(CostKind), ids=[kind.value for kind in CostKind])
@pytest.mark.parametrize("mode", ["seq_mrt", "doc_mrt_ordered", "doc_mrt_random"])
def test_a_stacked_update_weighs_each_micro_batch_as_it_would_alone(monkeypatch, mode, kind, estimator):
    # N = 9 and S up to 9 reach numpy's pairwise sums; micro-batches are ragged
    train, params = ragged_corpus(), model.init_params(8, 3, 3, seed=6)
    got, weighed, costed = [], [], []
    weighted_grad, weigh, sentence_costs = mrt._weighted_grad, mrt._weigh, sampling.sentence_costs

    def recording_grad(params, sources, candidates, weights, max_len):
        got.append([sources, candidates, weights])
        return weighted_grad(params, sources, candidates, weights, max_len)

    def recording_weigh(cfg, costs, logps, starts):
        weighed.append(logps)
        return weigh(cfg, costs, logps, starts)

    monkeypatch.setattr(mrt, "_weighted_grad", recording_grad)
    monkeypatch.setattr(mrt, "_weigh", recording_weigh)
    monkeypatch.setattr(sampling, "sentence_costs", lambda *a: costed.append(1) or sentence_costs(*a))
    update_estimates = mrt._update_estimates

    def recording_estimates(*args):
        for est in update_estimates(*args):
            got[-1].append(est.risk)
            yield est

    monkeypatch.setattr(mrt, "_update_estimates", recording_estimates)
    for batching, batch_size in (("document", 9), ("random", 8)):
        for spy in (got, weighed, costed):
            spy.clear()
        cfg = TrainConfig(
            mode=mode, cost_kind=kind, n_samples=9, batch_size=batch_size, estimator=estimator,
            alpha=0.5, learning_rate=0.3, accum_steps=3, max_updates=2, seed=8, max_len=3,
            batching=batching,
        )
        tuned, _ = mrt.finetune(params, train, cfg)
        sentence_cost_calls, document_logps = len(costed), list(weighed)
        expected, expected_params = reference_finetune_estimates(params, train, cfg)
        sizes = [len(sources) for sources, *_ in got]
        assert len(set(sizes)) > 1 and max(sizes) >= 8
        assert len(got) == len(expected) == 6
        for (sources, candidates, weights, risk), ref in zip(got, expected, strict=True):
            assert sources == ref[0] and candidates == ref[1]
            assert weights.shape == ref[2].shape and weights.tobytes() == ref[2].tobytes()
            assert risk.hex() == ref[3].hex()
        assert np.array_equal(tuned.theta, expected_params.theta)
        # what an estimator does not read is not computed
        scored = mode == "doc_mrt_random" and not kind.is_sentence_level
        assert sentence_cost_calls == (0 if scored else cfg.max_updates)
        if mode != "seq_mrt":
            assert [logps is None for logps in document_logps] == [estimator == "raw"] * 2


@pytest.mark.parametrize("eval_every", [None, 0, -1, -3])
def test_finetune_evaluates_never_for_0_and_rejects_a_negative_eval_every(eval_every):
    train, _, _ = small_corpus(seed=12)
    params = model.init_params(8, 3, 3, seed=10)
    cfg = TrainConfig(mode="mle", batch_size=2, max_updates=3, max_len=4)
    calls = []
    evaluate = lambda p: calls.append(p) or 0.0
    if eval_every is not None and eval_every < 0:
        with pytest.raises(ValueError, match=f"^eval_every must be >= 0, got {eval_every}$"):
            mrt.finetune(params, train, cfg, eval_every=eval_every, eval_fn=evaluate)
    else:
        _, log = mrt.finetune(params, train, cfg, eval_every=eval_every, eval_fn=evaluate)
        assert len(log) == 3 and not any("heldout_metric" in rec for rec in log)
    assert calls == []


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# The bytearrays take the free space that set-up left below the heap top, so each
# update's row temporaries come from the top. A weighted pass that freed about
# 300 KB of them per update would let glibc's default 128 KB trim threshold return
# the top to the kernel, and the next update would fault it back in: about 70
# minor faults per update. The in-place pass takes about one fault per update
# under glibc's default settings, with no mallopt call.
FAULT_PROBE = """
import dataclasses, resource
from docmrt import harness, model, mrt

train, _, _ = harness.generate_synthetic_corpus(harness.TaskSpec(num_documents=50))
params = model.init_params(20, 16, 32, 0)
cfg = mrt.TrainConfig(mode="mle", batch_size=32, max_updates=1, batching="random")
mrt.finetune(params, train, cfg)
hold = [bytearray(40_000) for _ in range(50)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mrt.finetune(params, train, dataclasses.replace(cfg, max_updates=200))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the probe counts glibc's trim behaviour")
def test_mle_updates_do_not_page_fault_their_temporaries_back(tmp_path):
    # a fresh interpreter, so that the heap's history is the probe's own; fault
    # counts have differed with how the process was started, so it runs both ways
    script = tmp_path / "fault_probe.py"
    script.write_text(FAULT_PROBE, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(mrt.__file__).parents[1])}
    faults = {}
    for started_as, args in {"-c": ["-c", FAULT_PROBE], "script": [str(script)]}.items():
        done = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        faults[started_as] = int(done.stdout)
    assert max(faults.values()) < 2000, faults  # 200 updates


def test_finetune_does_not_mutate_start_params():
    train, _, _ = small_corpus(seed=6)
    params = model.init_params(8, 3, 3, seed=5)
    before = params.theta.copy()
    cfg = TrainConfig(mode="mle", batch_size=2, max_updates=2, seed=1, max_len=4)
    mrt.finetune(params, train, cfg)
    assert np.array_equal(params.theta, before)


def test_finetune_rejects_invalid_config_and_empty_corpus():
    params = model.init_params(8, 3, 3, seed=6)
    train, _, _ = small_corpus(seed=7)
    with pytest.raises(ValueError):
        mrt.finetune(params, train, TrainConfig(mode="bogus", max_len=4))
    with pytest.raises(ValueError):
        mrt.finetune(params, DocumentBatch([], [], []), TrainConfig(max_len=4))


@pytest.mark.parametrize("kind", [CostKind.SENT_TER, CostKind.DOC_TER])
@pytest.mark.parametrize("mode", ["seq_mrt", "doc_mrt_ordered", "doc_mrt_random"])
def test_finetune_with_a_ter_cost_names_an_empty_reference_before_sampling(
    monkeypatch, mode, kind
):
    train, _, _ = small_corpus(seed=9)
    references = list(train.references)
    references[2] = ()
    corpus = DocumentBatch(train.sources, references, train.doc_ids)
    params = model.init_params(8, 3, 3, seed=1)
    draws = []
    real_draw = sampling.draw_sample_set
    monkeypatch.setattr(
        sampling, "draw_sample_set", lambda *a, **kw: draws.append(1) or real_draw(*a, **kw)
    )
    cfg = TrainConfig(
        mode=mode, cost_kind=kind, n_samples=2, batch_size=2, max_updates=2, max_len=4
    )
    message = f"^{kind.value} needs a non-empty reference: corpus line 3 is empty$"
    with pytest.raises(ValueError, match=message):
        mrt.finetune(params, corpus, cfg)
    assert draws == []
    # MLE draws no samples and computes no cost, so it trains on the same corpus
    mrt.finetune(params, corpus, TrainConfig(mode="mle", cost_kind=kind, max_updates=1, max_len=4))


@pytest.mark.parametrize("mode", ["mle", "doc_mrt_ordered"])
def test_finetune_stops_when_the_updated_parameters_are_not_finite(overflowing_gradients, mode):
    train, _, _ = small_corpus(seed=8)
    params = model.init_params(8, 3, 3, seed=7)
    cfg = TrainConfig(
        mode=mode, n_samples=2, batch_size=2, learning_rate=2.0,
        max_updates=3, max_len=4, batching="document",
    )
    seen = []
    with np.errstate(over="ignore"):
        with pytest.raises(mrt.NonFiniteTraining, match="update 0: non-finite updated parameters"):
            mrt.finetune(params, train, cfg, eval_every=1, eval_fn=lambda p: seen.append(p) or 0.0)
    assert len(seen) == 1  # the per-update callback still saw the failing update


def test_non_finite_risk_names_its_update_across_mle_chunks(monkeypatch):
    from docmrt.harness import train_mle_baseline

    train, valid, _ = small_corpus(seed=9)
    estimates, calls = mrt._update_estimates, []

    def poisoned(*args):
        calls.append(args)
        (est,) = estimates(*args)
        return [est if len(calls) != 4 else mrt.RiskEstimate(math.nan, est.grad)]

    monkeypatch.setattr(mrt, "_update_estimates", poisoned)
    cfg = TrainConfig(mode="mle", batch_size=2, accum_steps=1, max_updates=6, max_len=4)
    # chunks of 2 updates: the fourth update is update 1 of the second chunk
    with pytest.raises(mrt.NonFiniteTraining, match=r"update 3: non-finite risk \(nan\)") as err:
        train_mle_baseline(train, valid, 8, 3, 3, cfg, eval_every=2)
    assert err.value.update == 3 and len(calls) == 4


@pytest.mark.parametrize("mode", ["seq_mrt", "doc_mrt_ordered", "doc_mrt_random", "mle"])
def test_finetune_rejects_a_cost_kind_that_is_not_a_cost_kind(mode):
    train, valid, _ = small_corpus(seed=10)
    params = model.init_params(8, 3, 3, seed=8)
    kinds = ", ".join(kind.value for kind in CostKind)
    message = f"unknown cost_kind 'one_minus_docbleu' (expected one of {kinds})"
    with pytest.raises(ValueError, match=re.escape(message)):
        cfg = TrainConfig(mode=mode, cost_kind="one_minus_docbleu", max_updates=1, max_len=4)
        mrt.finetune(params, train, cfg, eval_every=1, eval_fn=heldout_evaluator(valid, cfg))


# ---------------------------------------------------------------------------
# estimators against their per-document loops
# ---------------------------------------------------------------------------


def _grid_rows(sample_set):
    rows = list(zip(sample_set.batch.sources, sample_set.grid))
    return [src for src, row in rows for _ in row], [h.sentence for _, row in rows for h in row]


def reference_seq_mrt_grad(params, batch, cfg, rng):
    """Sequence MRT with its own raw/renormalized branch, the oracle of seq_mrt_grad."""
    sample_set = sampling.draw_sample_set(
        params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len, cfg.cost_kind.as_sentence_kind()
    )
    n = sample_set.n_samples
    if cfg.estimator == "raw":
        weights = sample_set.costs / n
        risk = float(sample_set.costs.sum()) / n
    else:
        logps = np.array([[h.log_prob for h in row] for row in sample_set.grid])
        q = np.exp(cfg.alpha * (logps - logps.max(axis=1, keepdims=True)))
        q /= q.sum(axis=1, keepdims=True)
        weights = q * sample_set.costs
        risk = float(weights.sum())
    _, grad = model.weighted_log_prob_grad(
        params, *_grid_rows(sample_set), weights.ravel(), cfg.max_len
    )
    return mrt.RiskEstimate(risk=risk, grad=grad)


def reference_order_samples(sample_set):
    """Each sentence's sample indices sorted by a Python key of (cost, -log_prob,
    index), the oracle of sampling.order_samples."""
    return [
        sorted(range(len(row)), key=lambda n: (sample_set.costs[s, n], -row[n].log_prob, n))
        for s, row in enumerate(sample_set.grid)
    ]


def reference_random_cells(sample_set, rng):
    """One rng.permutation of the N samples per sentence, in sentence order."""
    perms = [rng.permutation(sample_set.n_samples) for _ in range(sample_set.n_sentences)]
    return np.array(perms).T


ReferenceDocument = collections.namedtuple("ReferenceDocument", "assignment log_prob cost")


def reference_documents(sample_set, cells):
    """One document per row of cells, its log-prob a Python sum over its grid
    hypotheses: the oracle of sampling.assemble and its document views."""
    costs = sampling.document_costs(sample_set.cost_kind, sample_set.stats, sample_set.costs, cells)
    return [
        ReferenceDocument(
            tuple(row), sum(sample_set.grid[s][n].log_prob for s, n in enumerate(row)), cost
        )
        for row, cost in zip(cells.tolist(), costs)
    ]


def reference_doc_mrt_grad(params, batch, cfg, scheme, rng):
    """Document MRT filling its weight grid document by document, the oracle of doc_mrt_grad."""
    sample_set = sampling.draw_sample_set(
        params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len, cfg.cost_kind
    )
    if scheme == "ordered":
        cells = np.array(reference_order_samples(sample_set)).T
    else:
        cells = reference_random_cells(sample_set, rng)
    docs = reference_documents(sample_set, cells)
    n = sample_set.n_samples
    costs = np.array([doc.cost for doc in docs])
    if cfg.estimator == "raw":
        doc_weights = costs / n
        risk = sum(doc.cost for doc in docs) / n
    else:
        logps = np.array([doc.log_prob for doc in docs])
        q = np.exp(cfg.alpha * (logps - logps.max()))
        q /= q.sum()
        doc_weights = q * costs
        risk = float(np.dot(q, costs))
    weights = np.zeros((sample_set.n_sentences, n))
    for doc, w in zip(docs, doc_weights):
        for s, idx in enumerate(doc.assignment):
            weights[s, idx] = w
    _, grad = model.weighted_log_prob_grad(
        params, *_grid_rows(sample_set), weights.ravel(), cfg.max_len
    )
    return mrt.RiskEstimate(risk=risk, grad=grad)


@st.composite
def estimator_cases(draw):
    """(params, batch, cfg, scheme, seed): S 1-3, N 1-9 (8 and up reach numpy's
    unrolled summation), every cost kind, raw and renormalized estimators."""
    v, s = draw(st.integers(5, 7)), draw(st.integers(1, 3))
    tokens = st.integers(3, v - 1)
    line = lambda min_size: tuple(draw(st.lists(tokens, min_size=min_size, max_size=3)))
    batch = DocumentBatch(
        sources=[line(0) for _ in range(s)], references=[line(1) for _ in range(s)], doc_ids=[0] * s
    )
    params = model.init_params(v, 3, 3, seed=draw(st.integers(0, 1000)))
    renormalized = [("renormalized", alpha) for alpha in (5e-3, 0.5, 2.0)]
    estimator, alpha = draw(st.sampled_from([("raw", 5e-3), *renormalized]))
    cfg = cfg_for(
        "seq_mrt", draw(st.sampled_from(list(CostKind))), n=draw(st.integers(1, 9)),
        max_len=draw(st.integers(1, 3)), estimator=estimator, alpha=alpha,
    )
    scheme = draw(st.sampled_from([None, "ordered", "random"]))  # None: sequence MRT
    return params, batch, cfg, scheme, draw(st.integers(0, 2**16))


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=estimator_cases())
def test_estimators_equal_their_reference_loops(case):
    params, batch, cfg, scheme, seed = case
    if scheme is None:
        sample_set = draw(params, batch, cfg, np.random.default_rng(seed))
        est = seq_mrt_grad(params, batch, cfg, sample_set)
        ref = reference_seq_mrt_grad(params, batch, cfg, np.random.default_rng(seed))
        assert est.risk == ref.risk
    else:
        est = doc_mrt_grad(params, batch, cfg, scheme=scheme, rng=np.random.default_rng(seed))
        ref = reference_doc_mrt_grad(params, batch, cfg, scheme, np.random.default_rng(seed))
        assert _ulps(est.risk, ref.risk) <= 4
    assert np.array_equal(est.grad, ref.grad)


@st.composite
def tied_sample_sets(draw):
    """(sample set, seed): S 1-3, N 1-9, every cost kind; costs, log-probs and
    sentences drawn from a few values each, so ties are common, with zeros of
    either sign and values whose sums depend on their order."""
    s, n = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    tokens = st.lists(st.integers(4, 6), max_size=3).map(tuple)
    batch = DocumentBatch(
        sources=[draw(tokens) for _ in range(s)],
        references=[draw(tokens.filter(len)) for _ in range(s)],
        doc_ids=[0] * s,
    )
    grid_of = lambda values: [[draw(values) for _ in range(n)] for _ in range(s)]
    log_probs = grid_of(st.sampled_from([-0.0, 0.0, -0.1, -0.2, -0.7, -2.5]))
    grid = [[model.ScoredHypothesis(draw(tokens), lp) for lp in row] for row in log_probs]
    costs = np.array(grid_of(st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.7, 1.0])))
    kind = draw(st.sampled_from(list(CostKind)))
    sample_set = sampling.score_grids([batch], [grid], kind)[0]
    sample_set.costs = costs  # fabricated, so that ties are common
    return sample_set, draw(st.integers(0, 2**16))


def _bitwise(docs):
    return [(d.assignment, d.log_prob.hex(), d.cost.hex()) for d in docs]


def _view_bitwise(sample_set, docs):
    """_bitwise of a view's SampledDocuments, each with sampling.assemble's log-prob of its row."""
    log_probs = sampling.assemble(sample_set, np.array([d.assignment for d in docs]))[1].tolist()
    return _bitwise([ReferenceDocument(d.assignment, lp, d.cost) for d, lp in zip(docs, log_probs)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=tied_sample_sets())
def test_ranks_and_document_views_equal_their_reference_loops(case):
    sample_set, seed = case
    ranks = reference_order_samples(sample_set)
    ordered = sampling.order_samples(sample_set)
    assert ordered.ranks.tolist() == ranks
    expected = reference_documents(sample_set, np.array(ranks).T)
    got = sampling.build_documents_ordered(ordered)
    assert _view_bitwise(sample_set, got) == _bitwise(expected)
    cells = reference_random_cells(sample_set, np.random.default_rng(seed))
    got = sampling.build_documents_random(sample_set, np.random.default_rng(seed))
    assert _view_bitwise(sample_set, got) == _bitwise(reference_documents(sample_set, cells))
    sizes = [range(sample_set.n_samples)] * sample_set.n_sentences
    expected = reference_documents(sample_set, np.array(list(itertools.product(*sizes))))
    cells = sampling.product_cells([sample_set.n_samples] * sample_set.n_sentences)
    costs, log_probs = sampling.assemble(sample_set, cells)
    assert [tuple(row) for row in cells.tolist()] == [d.assignment for d in expected]
    assert [c.hex() for c in costs.tolist()] == [d.cost.hex() for d in expected]
    assert [lp.hex() for lp in log_probs.tolist()] == [d.log_prob.hex() for d in expected]

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docmrt import metrics, model, mrt, sampling
from docmrt.metrics import CostKind, seq_cost
from docmrt.mrt import TrainConfig, doc_mrt_grad, exact_risk, exact_risk_grad, fd_gradient_check, seq_mrt_grad
from docmrt.textcore import DocumentBatch


def tiny_batch():
    return DocumentBatch(sources=[(4, 0), (1, 4)], references=[(4,), (4, 4)], doc_ids=[0, 0])


def cfg_for(mode, kind, n=4, max_len=2, estimator="raw", alpha=5e-3):
    return TrainConfig(
        mode=mode, cost_kind=kind, n_samples=n, max_len=max_len,
        estimator=estimator, alpha=alpha,
    )


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="nope").validate()
    with pytest.raises(ValueError):
        TrainConfig(tau=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(n_samples=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(estimator="fancy").validate()
    assert TrainConfig().validate() is not None


@pytest.mark.parametrize(
    "name, value",
    [("tau", math.nan), ("tau", math.inf), ("alpha", math.nan), ("alpha", math.inf),
     ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -math.inf)],
)
def test_train_config_rejects_non_finite_settings_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*positive, got {value}$"):
        TrainConfig(**{name: value}).validate()


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


def test_seq_mrt_needs_rng_without_sample_set():
    params = model.init_params(5, 2, 2, seed=0)
    with pytest.raises(ValueError, match="rng"):
        seq_mrt_grad(params, tiny_batch(), cfg_for("seq_mrt", CostKind.SENT_TER))


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
        model.log_prob_grad(params, src, h.sentence, 2)
        for src, h in zip(batch.sources, doc.hyps)
    )
    assert np.allclose(est.grad, expected, atol=1e-12)
    assert est.n_used == 1


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


def test_doc_mrt_scheme_inference_and_errors():
    params = model.init_params(5, 2, 2, seed=0)
    cfg = cfg_for("seq_mrt", CostKind.SENT_TER)
    with pytest.raises(ValueError, match="scheme"):
        doc_mrt_grad(params, tiny_batch(), cfg, rng=np.random.default_rng(0))


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
    params = model.init_params(5, 2, 2, seed=0, zero=True)
    batch = DocumentBatch(sources=[(4,), (3,)], references=[(4,), (3,)], doc_ids=[0, 0])
    risk = exact_risk(params, batch, CostKind.DOC_TER, 1)
    assert math.isclose(risk, 0.8, abs_tol=1e-12)


def test_exact_risk_grad_linear_in_costs():
    params = model.init_params(5, 3, 3, seed=12)
    batch = tiny_batch()
    base = mrt.metrics.document_cost_fn(CostKind.ONE_MINUS_DOCBLEU)
    g1 = exact_risk_grad(params, batch, base, 2)
    g2 = exact_risk_grad(params, batch, lambda h, r, s=None: 2.0 * base(h, r, s), 2)
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
        sampling.SampleSet(batch=empty, grid=[], costs=np.zeros((0, 2)), cost_kind=CostKind.SENT_TER)
    for kind in CostKind:
        with pytest.raises(ValueError, match="empty batch"):
            sampling.document_costs(kind, [], [], np.zeros((3, 0), dtype=np.intp))
        with pytest.raises(ValueError, match="empty"):
            exact_risk(params, empty, kind, 2)


def test_exact_risk_scores_each_distinct_sentence_stats_row_once(monkeypatch):
    params = model.init_params(5, 3, 3, seed=3)
    batch = tiny_batch()
    spaces = [model.enumerate_output_space(params, src, 2) for src in batch.sources]
    stats = sampling.candidate_stats(batch, [[sent for sent, _ in sp] for sp in spaces], "ter")
    distinct = {tuple(row) for rows in stats for row in rows.tolist()}
    cost_from_stats, calls = metrics.cost_from_stats, []
    monkeypatch.setattr(
        metrics, "cost_from_stats", lambda kind, row: calls.append(row) or cost_from_stats(kind, row)
    )
    exact_risk(params, batch, CostKind.SENT_TER, 2)
    assert sorted(calls) == sorted(distinct) and len(distinct) < sum(map(len, stats))


def reference_enumerated_risk(params, batch, cost_kind, max_len):
    """The per-document enumeration loop, the oracle of mrt._enumerated_risk:
    every document is costed from its sentences by metrics.document_cost_fn."""
    spaces = [model.enumerate_output_space(params, src, max_len) for src in batch.sources]
    cost_fn = metrics.document_cost_fn(cost_kind)
    risk = 0.0
    coeffs = [np.zeros(len(space)) for space in spaces]
    for combo_idx in itertools.product(*(range(len(sp)) for sp in spaces)):
        p = 1.0
        hyps = []
        for s, i in enumerate(combo_idx):
            sent, prob = spaces[s][i]
            p *= prob
            hyps.append(sent)
        dp = p * cost_fn(hyps, batch.references, batch.sources)
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
    risk, spaces, coeffs = mrt._enumerated_risk(params, batch, cost, max_len)
    ref_risk, ref_spaces, ref_coeffs = reference_enumerated_risk(params, batch, cost, max_len)
    assert risk == ref_risk and spaces == ref_spaces
    assert all(np.array_equal(c, r) for c, r in zip(coeffs, ref_coeffs, strict=True))
    srcs = [src for src, space in zip(batch.sources, spaces) for _ in space]
    tgts = [sent for space in spaces for sent, _ in space]
    weights = [c for coeff in ref_coeffs for c in coeff]
    expected = model.weighted_log_prob_grad(params, srcs, tgts, weights, max_len)[1]
    assert np.array_equal(exact_risk_grad(params, batch, cost, max_len), expected)


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
        p, heldout, cfg.cost_kind.as_document_kind(), beam=4, max_len=cfg.max_len
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


@pytest.mark.parametrize("mode", ["mle", "doc_mrt_random"])
def test_finetune_reshuffles_each_epoch_on_the_training_stream(mode):
    # 3 updates of 2 micro-batches over 3 batches per epoch: the second epoch's
    # seed is drawn from the training rng between the third and fourth batches
    from docmrt.harness import make_batches

    train, _, _ = small_corpus(seed=11)
    params = model.init_params(8, 3, 3, seed=9)
    cfg = TrainConfig(
        mode=mode, n_samples=2, batch_size=4, learning_rate=0.3, accum_steps=2,
        max_updates=3, seed=5, max_len=4, batching="random",
    )
    tuned, _ = mrt.finetune(params, train, cfg)

    rng = np.random.default_rng(cfg.seed)
    expected, batches = params.copy(), []
    for _ in range(cfg.max_updates):
        acc = np.zeros_like(expected.theta)
        for _ in range(cfg.accum_steps):
            if not batches:
                batches = make_batches(train, "random", 4, int(rng.integers(2**31 - 1)))
                assert len(batches) == 3
            acc += mrt._micro_batch_estimate(expected, batches.pop(0), cfg, rng).grad
        expected.theta -= cfg.learning_rate * acc / cfg.accum_steps
    assert np.array_equal(tuned.theta, expected.theta)


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


def test_finetune_does_not_mutate_start_params():
    train, _, _ = small_corpus(seed=6)
    params = model.init_params(8, 3, 3, seed=5)
    before = params.theta.copy()
    cfg = TrainConfig(mode="mle", batch_size=2, max_updates=2, seed=1, max_len=4)
    mrt.finetune(params, train, cfg)
    assert np.array_equal(params.theta, before)


def test_finetune_rejects_invalid_config_and_empty_corpus():
    from docmrt.textcore import DocumentCorpus

    params = model.init_params(8, 3, 3, seed=6)
    train, _, _ = small_corpus(seed=7)
    with pytest.raises(ValueError):
        mrt.finetune(params, train, TrainConfig(mode="bogus", max_len=4))
    with pytest.raises(ValueError):
        mrt.finetune(params, DocumentCorpus([]), TrainConfig(max_len=4))


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
    estimate, calls = mrt._micro_batch_estimate, []

    def poisoned(*args):
        calls.append(args)
        est = estimate(*args)
        return est if len(calls) != 4 else mrt.RiskEstimate(math.nan, est.grad, est.n_used)

    monkeypatch.setattr(mrt, "_micro_batch_estimate", poisoned)
    cfg = TrainConfig(mode="mle", batch_size=2, accum_steps=1, max_updates=6, max_len=4)
    # chunks of 2 updates: the fourth update is update 1 of the second chunk
    with pytest.raises(mrt.NonFiniteTraining, match=r"update 3: non-finite risk \(nan\)") as err:
        train_mle_baseline(train, valid, 8, 3, 3, cfg, eval_every=2)
    assert err.value.update == 3 and len(calls) == 4


@pytest.mark.parametrize("mode", ["seq_mrt", "doc_mrt_ordered", "doc_mrt_random", "mle"])
def test_finetune_rejects_a_cost_kind_that_is_not_a_cost_kind(mode):
    train, valid, _ = small_corpus(seed=10)
    params = model.init_params(8, 3, 3, seed=8)
    cfg = TrainConfig(mode=mode, cost_kind="one_minus_docbleu", max_updates=1, max_len=4)
    kinds = ", ".join(kind.value for kind in CostKind)
    message = f"unknown cost_kind 'one_minus_docbleu' (expected one of {kinds})"
    with pytest.raises(ValueError, match=re.escape(message)):
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
    return mrt.RiskEstimate(risk=risk, grad=grad, n_used=n * sample_set.n_sentences)


def reference_doc_mrt_grad(params, batch, cfg, scheme, rng):
    """Document MRT filling its weight grid document by document, the oracle of doc_mrt_grad."""
    sample_set = sampling.draw_sample_set(
        params, batch, cfg.n_samples, cfg.tau, rng, cfg.max_len, cfg.cost_kind
    )
    if scheme == "ordered":
        docs = sampling.build_documents_ordered(sampling.order_samples(sample_set))
    else:
        docs = sampling.build_documents_random(sample_set, rng)
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
    return mrt.RiskEstimate(risk=risk, grad=grad, n_used=len(docs))


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
        est = seq_mrt_grad(params, batch, cfg, rng=np.random.default_rng(seed))
        ref = reference_seq_mrt_grad(params, batch, cfg, np.random.default_rng(seed))
        assert est.risk == ref.risk
    else:
        est = doc_mrt_grad(params, batch, cfg, scheme=scheme, rng=np.random.default_rng(seed))
        ref = reference_doc_mrt_grad(params, batch, cfg, scheme, np.random.default_rng(seed))
        assert _ulps(est.risk, ref.risk) <= 4
    assert np.array_equal(est.grad, ref.grad) and est.n_used == ref.n_used

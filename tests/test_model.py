import math
import pickle
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from docmrt import model, sampling
from docmrt.metrics import CostKind
from docmrt.mrt import TrainConfig, fd_gradient_check, finetune
from docmrt.sampling import draw_sample_set
from docmrt.textcore import BOS_ID, EOS_ID, DocumentBatch


def oracle_log_prob(params, src, tgt, max_len):
    """Plain-Python re-implementation of the forward pass (no numpy math)."""
    v, d, h = params.vocab_size, params.emb_dim, params.hidden_dim
    e_src = params.src_emb.tolist()
    e_tgt = params.tgt_emb.tolist()
    w = params.w_hidden.tolist()
    b = params.b_hidden.tolist()
    u = params.w_out.tolist()
    c = params.b_out.tolist()
    if src:
        ctx = [sum(e_src[t][k] for t in src) / len(src) for k in range(d)]
    else:
        ctx = [0.0] * d
    steps = list(tgt) + ([EOS_ID] if len(tgt) < max_len else [])
    prev = BOS_ID
    total = 0.0
    for tok in steps:
        x = ctx + e_tgt[prev]
        act = [sum(x[i] * w[i][j] for i in range(2 * d)) + b[j] for j in range(h)]
        hid = [math.tanh(a) for a in act]
        z = [sum(hid[i] * u[i][j] for i in range(h)) + c[j] for j in range(v)]
        zmax = max(z)
        lse = zmax + math.log(sum(math.exp(val - zmax) for val in z))
        total += z[tok] - lse
        prev = tok
    return total


def reference_score_and_grad(params, src, tgt, max_len):
    """Per-sentence forward/backward pass: log P(tgt | src) and its gradient."""
    prevs, targets = model._steps([tgt], max_len)[:2]
    grad = np.zeros_like(params.theta)
    d, m = params.emb_dim, len(src)
    ctx = params.src_emb[list(src)].mean(axis=0) if m else np.zeros(d)
    t = len(targets)
    inputs = np.concatenate([np.tile(ctx, (t, 1)), params.tgt_emb[prevs]], axis=1)
    hidden = np.tanh(inputs @ params.w_hidden + params.b_hidden)
    logits = hidden @ params.w_out + params.b_out
    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    soft = ez / ez.sum(axis=1, keepdims=True)
    rows = np.arange(t)
    logp = float((logits[rows, targets] - zmax[:, 0] - np.log(ez.sum(axis=1))).sum())
    gz = -soft
    gz[rows, targets] += 1.0
    views = params.like(grad)
    views.b_out[:] = gz.sum(axis=0)
    views.w_out[:] = hidden.T @ gz
    da = (1.0 - hidden * hidden) * (gz @ params.w_out.T)
    views.b_hidden[:] = da.sum(axis=0)
    views.w_hidden[:] = inputs.T @ da
    dinputs = da @ params.w_hidden.T
    np.add.at(views.tgt_emb, prevs, dinputs[:, d:])
    if m:
        np.add.at(views.src_emb, list(src), dinputs[:, :d].sum(axis=0) / m)
    return logp, grad


def test_init_params_deterministic_per_seed():
    a = model.init_params(6, 3, 4, seed=5)
    b = model.init_params(6, 3, 4, seed=5)
    c = model.init_params(6, 3, 4, seed=6)
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)
    assert np.abs(a.theta).max() <= 0.1


def zero_params(vocab_size, emb_dim, hidden_dim):
    """All-zero parameters: every decoding step is uniform over the vocabulary."""
    theta = np.zeros(model.param_count(vocab_size, emb_dim, hidden_dim))
    return model.ModelParams(vocab_size, emb_dim, hidden_dim, theta)


def test_init_params_zero_flag_and_layout():
    p = zero_params(6, 3, 4)
    assert not p.theta.any()
    assert p.theta.size == model.param_count(6, 3, 4)
    assert p.src_emb.shape == (6, 3)
    assert p.w_hidden.shape == (6, 4)
    assert p.w_out.shape == (4, 6)


def reference_blocks(params):
    """Each parameter block by the hand-written offsets ModelParams had before
    its layout table."""
    v, d, h = params.vocab_size, params.emb_dim, params.hidden_dim
    theta = params.theta
    w = 2 * v * d
    b = w + 2 * d * h
    u = b + h
    return {
        "src_emb": theta[: v * d].reshape(v, d),
        "tgt_emb": theta[v * d : 2 * v * d].reshape(v, d),
        "w_hidden": theta[w:b].reshape(2 * d, h),
        "b_hidden": theta[b:u],
        "w_out": theta[u : u + h * v].reshape(h, v),
        "b_out": theta[-v:],
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=st.integers(5, 30), d=st.integers(1, 12), h=st.integers(1, 12), seed=st.integers(0, 99))
def test_block_views_are_the_reference_offsets_and_write_through(v, d, h, seed):
    params = model.init_params(v, d, h, seed)
    for name, ref in reference_blocks(params).items():
        view = getattr(params, name)
        assert view.shape == ref.shape and view.tobytes() == ref.tobytes()
        written, expected = params.copy(), params.copy()
        getattr(written, name)[...] = 7.0
        reference_blocks(expected)[name][...] = 7.0
        assert np.array_equal(written.theta, expected.theta)


def test_every_block_is_a_view_of_theta_and_moves_with_a_finetune_update(tmp_path):
    params = model.init_params(6, 2, 3, seed=0)
    model.save_checkpoint(params, tmp_path / "p.ckpt")
    made = {
        "init_params": params,
        "like": params.like(np.zeros_like(params.theta)),
        "copy": params.copy(),
        "load_checkpoint": model.load_checkpoint(tmp_path / "p.ckpt"),
    }
    names = list(model._layout(6, 2, 3))
    for how, p in made.items():
        for name in names:
            assert np.shares_memory(getattr(p, name), p.theta), (how, name)
    corpus = DocumentBatch([(4, 5), (5,)], [(5, 4), (4, 4)], [0, 0])
    cfg = TrainConfig(mode="mle", batch_size=2, max_updates=1, max_len=4)
    tuned, _ = finetune(params, corpus, cfg)
    for name in names:
        view = getattr(tuned, name)
        assert np.shares_memory(view, tuned.theta)
        assert view.tobytes() == reference_blocks(tuned)[name].tobytes()
        assert not np.array_equal(view, getattr(params, name)), name


def test_init_params_validation():
    with pytest.raises(ValueError):
        model.init_params(4, 3, 3, seed=0)
    with pytest.raises(ValueError):
        model.init_params(5, 0, 3, seed=0)


def test_log_prob_uniform_at_zero_theta():
    p = zero_params(5, 2, 2)
    assert math.isclose(model.log_prob(p, (4,), (4, 4), 3), 3 * math.log(1 / 5), abs_tol=1e-12)
    assert math.isclose(model.log_prob(p, (4,), (), 3), math.log(1 / 5), abs_tol=1e-12)


def test_log_prob_forced_eos_at_cap():
    p = zero_params(5, 2, 2)
    assert math.isclose(model.log_prob(p, (4,), (4, 4, 4), 3), 3 * math.log(1 / 5), abs_tol=1e-12)


def test_log_prob_matches_independent_forward_pass():
    rng = np.random.default_rng(9)
    for trial in range(10):
        p = model.init_params(5, 2, 2, seed=trial)
        p.theta += rng.normal(0, 0.5, size=p.theta.size)
        src = tuple(int(x) for x in rng.integers(0, 5, size=int(rng.integers(0, 4))))
        tgt = tuple(int(x) for x in rng.choice([0, 1, 3, 4], size=int(rng.integers(0, 4))))
        got = model.log_prob(p, src, tgt, 3)
        want = oracle_log_prob(p, src, tgt, 3)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def test_log_prob_rejects_overlong_target():
    p = model.init_params(5, 2, 2, seed=0)
    with pytest.raises(ValueError, match="max_len"):
        model.log_prob(p, (4,), (4, 4, 4, 4), 3)


def test_log_prob_grad_finite_differences():
    rng = np.random.default_rng(21)
    p = model.init_params(6, 4, 4, seed=2)
    src, tgt = (4, 5, 3), (5, 5, 0)
    grad = model.log_prob_grad(p, src, tgt, 4)
    coords = rng.choice(p.theta.size, size=50, replace=False)
    err = fd_gradient_check(
        lambda th: model.log_prob(p.like(th), src, tgt, 4), grad, p.theta, coords
    )
    assert err < 1e-5


def test_log_prob_grad_output_bias_at_zero_theta():
    p = zero_params(5, 2, 2)
    grad = p.like(model.log_prob_grad(p, (4,), (4,), 3))
    expected = np.full(5, -2 / 5)
    expected[4] += 1.0
    expected[EOS_ID] += 1.0
    assert np.allclose(grad.b_out, expected, atol=1e-12)
    # hidden path carries no gradient when U = 0
    assert not grad.w_hidden.any() and not grad.b_hidden.any()


def test_log_prob_grad_untouched_embeddings_are_zero():
    p = model.init_params(6, 3, 3, seed=4)
    grad = p.like(model.log_prob_grad(p, (4,), (5,), 4))
    used_src, used_tgt = {4}, {BOS_ID, 5}
    for tok in range(6):
        if tok not in used_src:
            assert not grad.src_emb[tok].any()
        if tok not in used_tgt:
            assert not grad.tgt_emb[tok].any()


# Each batch: (sources, targets, weights) at max_len 3.
WEIGHTED_BATCHES = {
    "empty source": ([(), (4, 1)], [(3, 0), (1,)], [0.5, 1.0]),
    "empty target": ([(4, 0), (2,)], [(), (3,)], [1.0, 2.0]),
    "target at cap": ([(4,), (1, 1)], [(3, 3, 0), (4, 4, 4)], [1.0, 0.25]),
    "repeated pairs": ([(4, 3)] * 3 + [(0,)], [(1, 0)] * 3 + [(4,)], [0.3, 0.3, 0.3, 1.0]),
    "zero and negative": ([(4, 3), (0, 1), (2, 2, 2)], [(1,), (3, 4), ()], [0.0, -0.7, -2.0]),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_BATCHES))
def test_weighted_log_prob_grad_matches_per_sentence_reference(name):
    srcs, tgts, weights = WEIGHTED_BATCHES[name]
    p = model.init_params(5, 3, 4, seed=11)
    p.theta += np.random.default_rng(5).normal(0, 0.5, size=p.theta.size)
    value, grad = model.weighted_log_prob_grad(p, srcs, tgts, weights, 3)
    triples = list(zip(srcs, tgts, weights))
    want_grad = sum(w * reference_score_and_grad(p, s, t, 3)[1] for s, t, w in triples)
    want_value = sum(w * model.log_prob(p, s, t, 3) for s, t, w in triples)
    assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
    assert math.isclose(value, want_value, rel_tol=1e-12, abs_tol=1e-12)


def test_weighted_log_prob_grad_rejects_misaligned_inputs():
    p = model.init_params(5, 2, 2, seed=0)
    with pytest.raises(ValueError, match="misaligned"):
        model.weighted_log_prob_grad(p, [(4,), (1,)], [(4,)], [1.0, 1.0], 3)
    with pytest.raises(ValueError, match="misaligned"):
        model.weighted_log_prob_grad(p, [(4,)], [(4,)], [1.0, 1.0], 3)


def test_weighted_log_prob_grad_empty_batch_is_zero():
    p = model.init_params(5, 2, 2, seed=0)
    value, grad = model.weighted_log_prob_grad(p, [], [], [], 3)
    assert value == 0.0 and not grad.any()


def reference_weighted_pass(params, srcs, tgts, weights, max_len):
    """weighted_log_prob_grad before it built its step arrays in one loop and
    scattered target-embedding rows with np.bincount: one _steps call per pair
    and np.add.at."""
    weights = np.asarray(weights, dtype=np.float64)
    grad = np.zeros_like(params.theta)
    v, d = params.vocab_size, params.emb_dim
    prevs, targets = [], []
    steps = np.empty(len(tgts), dtype=np.intp)
    for i, tgt in enumerate(tgts):
        p, t = model._steps([tgt], max_len)[:2]
        prevs += p
        targets += t
        steps[i] = len(t)
    src_lens = np.array([len(src) for src in srcs])
    tokens = np.array([t for src in srcs for t in src], dtype=np.intp)
    cells = np.repeat(np.arange(len(srcs)) * v, src_lens) + tokens
    pool = np.bincount(cells, minlength=len(srcs) * v).reshape(-1, v)
    pool = pool / np.maximum(src_lens, 1)[:, None]
    ctx = np.repeat(pool @ params.src_emb, steps, axis=0)
    inputs = np.concatenate([ctx, params.tgt_emb[prevs]], axis=1)
    hidden = np.tanh(inputs @ params.w_hidden + params.b_hidden)
    logits = hidden @ params.w_out + params.b_out
    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    norm = ez.sum(axis=1)
    rows = np.arange(len(targets))
    step_w = np.repeat(weights, steps)
    value = float(step_w @ (logits[rows, targets] - zmax[:, 0] - np.log(norm)))
    gz = ez * (-step_w / norm)[:, None]
    gz[rows, targets] += step_w
    views = params.like(grad)
    views.b_out[:] = gz.sum(axis=0)
    views.w_out[:] = hidden.T @ gz
    da = (1.0 - hidden * hidden) * (gz @ params.w_out.T)
    views.b_hidden[:] = da.sum(axis=0)
    views.w_hidden[:] = inputs.T @ da
    dinputs = da @ params.w_hidden.T
    np.add.at(views.tgt_emb, prevs, dinputs[:, d:])
    starts = np.cumsum(steps) - steps
    views.src_emb[:] = pool.T @ np.add.reduceat(dinputs[:, :d], starts, axis=0)
    return value, grad


def reference_weighted_log_prob_grad(params, srcs, tgts, weights, max_len):
    """weighted_log_prob_grad before it reused its temporaries in place and wrote
    its gradient with one concatenate: zeros, block views and slice copies."""
    weights = np.asarray(weights, dtype=np.float64)
    grad = np.zeros_like(params.theta)
    if not len(srcs):
        return 0.0, grad
    v, d = params.vocab_size, params.emb_dim
    prevs, targets, lengths = model._steps(tgts, max_len)
    steps = np.array(lengths)
    prevs, targets = np.array(prevs, dtype=np.intp), np.array(targets, dtype=np.intp)
    src_lens = np.array([len(src) for src in srcs])
    tokens = np.array([t for src in srcs for t in src], dtype=np.intp)
    cells = np.repeat(np.arange(len(srcs)) * v, src_lens) + tokens
    pool = np.bincount(cells, minlength=len(srcs) * v).reshape(-1, v)
    pool = pool / np.maximum(src_lens, 1)[:, None]
    ctx = np.repeat(pool @ params.src_emb, steps, axis=0)
    inputs = np.concatenate([ctx, params.tgt_emb[prevs]], axis=1)
    hidden = np.tanh(inputs @ params.w_hidden + params.b_hidden)
    logits = hidden @ params.w_out + params.b_out
    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    norm = ez.sum(axis=1)
    rows = np.arange(len(targets))
    step_w = np.repeat(weights, steps)
    value = float(step_w @ (logits[rows, targets] - zmax[:, 0] - np.log(norm)))
    gz = ez * (-step_w / norm)[:, None]
    gz[rows, targets] += step_w
    views = params.like(grad)
    views.b_out[:] = gz.sum(axis=0)
    views.w_out[:] = hidden.T @ gz
    da = (1.0 - hidden * hidden) * (gz @ params.w_out.T)
    views.b_hidden[:] = da.sum(axis=0)
    views.w_hidden[:] = inputs.T @ da
    dinputs = da @ params.w_hidden.T
    cells = (prevs[:, None] * d + np.arange(d)).ravel()
    views.tgt_emb[:] = np.bincount(cells, dinputs[:, d:].ravel(), v * d).reshape(v, d)
    starts = np.cumsum(steps) - steps
    views.src_emb[:] = pool.T @ np.add.reduceat(dinputs[:, :d], starts, axis=0)
    return value, grad


def random_params(v, d, h, scale, seed):
    theta = np.random.default_rng(seed).normal(0.0, scale, model.param_count(v, d, h))
    return model.ModelParams(v, d, h, theta)


@st.composite
def weighted_cases(draw):
    """(params, srcs, tgts, weights, max_len): V 5-25, d 1-20, h 1-40, 1-40
    pairs. Sources and targets may be empty and targets reach the cap; a
    narrow token range repeats previous tokens; weights may be zero, signed
    zero or negative."""
    v, d, h = draw(st.integers(5, 25)), draw(st.integers(1, 20)), draw(st.integers(1, 40))
    params = random_params(
        v, d, h, draw(st.sampled_from([0.1, 1.0, 30.0])), draw(st.integers(0, 2**32 - 1))
    )
    max_len = draw(st.integers(1, 8))
    words = [t for t in range(draw(st.integers(4, v))) if t != EOS_ID]
    n = draw(st.integers(1, 40))
    srcs = [tuple(draw(st.lists(st.integers(0, v - 1), max_size=6))) for _ in range(n)]
    tgts = [tuple(draw(st.lists(st.sampled_from(words), max_size=max_len))) for _ in range(n)]
    weight = st.sampled_from([0.0, -0.0, 1.0, -1.5]) | st.floats(-3.0, 3.0)
    return params, srcs, tgts, [draw(weight) for _ in range(n)], max_len


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=weighted_cases())
@example(case=(random_params(5, 3, 4, 1.0, 0), [(), ()], [(), ()], [1.0, -0.0], 1))
@example(case=(random_params(7, 2, 3, 1.0, 1), [(4,)] * 3, [(5, 5, 5)] * 3, [0.5, 0.0, -2.0], 3))
@example(case=(random_params(5, 1, 1, 1.0, 2), [(), (4, 1)], [(3, 0), ()], [0.0, -0.7], 2))
@example(
    case=(random_params(6, 1, 1, 30.0, 3), [(2,), (2,), ()], [(4, 4)] * 3, [1.0, 1.0, -3.0], 2)
)
def test_weighted_log_prob_grad_equals_reference_pass_bitwise(case):
    # against the pass before it reused temporaries, and the one before that
    params, srcs, tgts, weights, max_len = case
    value, grad = model.weighted_log_prob_grad(params, srcs, tgts, weights, max_len)
    for reference in (reference_weighted_log_prob_grad, reference_weighted_pass):
        want_value, want_grad = reference(params, srcs, tgts, weights, max_len)
        assert value == want_value
        assert grad.tobytes() == want_grad.tobytes()


def test_weighted_log_prob_grad_rejects_an_overlong_target():
    p = model.init_params(5, 2, 2, seed=0)
    with pytest.raises(ValueError, match="target length 4 exceeds max_len 3"):
        model.weighted_log_prob_grad(p, [(4,), (4,)], [(4,), (4, 4, 4, 4)], [1.0, 1.0], 3)


def test_log_prob_rejects_nonpositive_max_len():
    p = model.init_params(5, 2, 2, seed=0)
    with pytest.raises(ValueError, match="max_len"):
        model.log_prob(p, (4,), (), 0)


def test_sample_deterministic_per_seed():
    p = model.init_params(6, 3, 3, seed=8)
    a = model.Decoder(p, [(4, 5), (5,)], 5).sample(3, 1.0, np.random.default_rng(3))
    b = model.Decoder(p, [(4, 5), (5,)], 5).sample(3, 1.0, np.random.default_rng(3))
    assert a == b


def greedy_walk(p, src, max_len):
    """The per-step argmax walk, the oracle of beam size 1."""
    logits = model.Decoder(p, [src], max_len).logits[0]
    tokens, prev = [], model.BOS_ID
    for _ in range(max_len):
        tok = int(np.argmax(logits[prev]))
        if tok == model.EOS_ID:
            break
        tokens.append(tok)
        prev = tok
    return model.ScoredHypothesis(tuple(tokens), model.log_prob(p, src, tuple(tokens), max_len))


def test_sample_greedy_matches_beam_one():
    for seed in range(5):
        p = model.init_params(6, 3, 3, seed=seed)
        assert greedy_walk(p, (4,), 4) == model.beam_decode(p, (4,), 1, 4)[0]


def test_sample_rejects_nonpositive_temperature():
    p = model.init_params(5, 2, 2, seed=0)
    with pytest.raises(ValueError):
        model.Decoder(p, [(4,)], 3).sample(1, 0.0, np.random.default_rng(0))


def test_sample_scoring_consistency_exact():
    rng = np.random.default_rng(31)
    p = model.init_params(6, 3, 3, seed=13)
    for hyp in model.Decoder(p, [(4, 5)], 5).sample(50, 0.7, rng)[0]:
        assert hyp.log_prob == model.log_prob(p, (4, 5), hyp.sentence, 5)
        assert hyp.log_prob <= 0.0


def reference_sample(params, src, max_len, tau, rng):
    """The per-token searchsorted loop over the tempered cumulative table that
    Decoder.sample replaced: one scalar rng.random() per token, then rescoring."""
    z = model.Decoder(params, [src], max_len).logits[0] / tau
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    last = params.vocab_size - 1
    tokens = []
    prev = BOS_ID
    for _ in range(max_len):
        tok = min(int(np.searchsorted(cum[prev], rng.random(), side="right")), last)
        if tok == EOS_ID:
            break
        tokens.append(tok)
        prev = tok
    sentence = tuple(tokens)
    return model.ScoredHypothesis(sentence, model.log_prob(params, src, sentence, max_len))


@st.composite
def sampling_cases(draw):
    """(params, src, tau, max_len, seed): V 5-9, theta of scale 0.1 to 30 (peaked
    tables), max_len 1-6 so that the length cap is often hit."""
    v, d, h = draw(st.integers(5, 9)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    theta = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        0.0, scale, model.param_count(v, d, h)
    )
    src = tuple(draw(st.lists(st.integers(3, v - 1), max_size=4)))
    tau = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return model.ModelParams(v, d, h, theta), src, tau, draw(st.integers(1, 6)), draw(
        st.integers(0, 2**32 - 1)
    )


GENERATORS = pytest.mark.parametrize(
    "make_rng",
    [np.random.default_rng, lambda seed: np.random.Generator(np.random.MT19937(seed))],
    ids=["PCG64", "MT19937"],
)


def state_bytes(rng):
    """The generator's full state, buffered PCG64 half-word and MT19937 key included."""
    return pickle.dumps(rng.bit_generator.state)


def assert_reference_grid(grid, params, sources, n_samples, tau, max_len, ref_rng):
    """grid is n_samples reference_sample draws per source from ref_rng, source
    by source, with log-probs bitwise equal to the reference's and log_prob's."""
    assert [len(row) for row in grid] == [n_samples] * len(sources)
    for src, row in zip(sources, grid):
        for hyp in row:
            expected = reference_sample(params, src, max_len, tau, ref_rng)
            assert hyp.sentence == expected.sentence
            assert hyp.log_prob == expected.log_prob == model.log_prob(
                params, src, hyp.sentence, max_len
            )


@GENERATORS
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=sampling_cases())
def test_sample_equals_searchsorted_reference_on_the_same_stream(make_rng, case):
    params, src, tau, max_len, seed = case
    decoder = model.Decoder(params, [src], max_len)
    rng, ref_rng = make_rng(seed), make_rng(seed)
    for n_samples in (1, 2, 3):  # consecutive calls continue one stream
        grid = decoder.sample(n_samples, tau, rng)
        assert_reference_grid(grid, params, [src], n_samples, tau, max_len, ref_rng)
    assert rng.random() == ref_rng.random()


@GENERATORS
def test_draw_grids_between_odd_bounded_draws_keep_the_stream(make_rng):
    # three sentences of two samples: random_cells makes one 32-bit bounded draw
    # per sentence, so PCG64 holds a buffered half-word across every grid drawn
    params = random_params(9, 3, 4, 1.0, 5)
    rng, ref_rng = make_rng(17), make_rng(17)
    for k in range(5):
        sources = [(4, 5, 6)[: k % 3 + 1], (7,), (8, 3, 3, 4)]
        grid = model.Decoder(params, sources, 6).sample(2, 0.7, rng)
        assert_reference_grid(grid, params, sources, 2, 0.7, 6, ref_rng)
        cells = sampling.random_cells(grid, rng)
        assert cells.tobytes() == sampling.random_cells(grid, ref_rng).tobytes()
    assert state_bytes(rng) == state_bytes(ref_rng)
    assert rng.random() == ref_rng.random()


@GENERATORS
def test_sample_spanning_several_uniform_blocks_keeps_the_stream(make_rng):
    params = zero_params(5, 2, 2)  # EOS has probability 0.2 at every step
    n_samples, max_len = model.UNIFORM_BLOCK, 6
    rng, ref_rng = make_rng(4), make_rng(4)
    rng.integers(0, 3)  # a bounded draw first: PCG64 buffers a half-word
    ref_rng.integers(0, 3)
    grid = model.Decoder(params, [(4,), (3, 4)], max_len).sample(n_samples, 1.0, rng)
    used = sum(len(h.sentence) + (len(h.sentence) < max_len) for row in grid for h in row)
    assert used > 3 * model.UNIFORM_BLOCK
    assert_reference_grid(grid, params, [(4,), (3, 4)], n_samples, 1.0, max_len, ref_rng)
    assert rng.integers(0, 3, 5).tolist() == ref_rng.integers(0, 3, 5).tolist()
    assert rng.random() == ref_rng.random()


@GENERATORS
def test_sampling_an_empty_batch_leaves_the_generator_unchanged(make_rng):
    params = random_params(7, 2, 3, 1.0, 2)
    rng = make_rng(8)
    rng.integers(0, 3)
    before = state_bytes(rng)
    assert model.Decoder(params, [], 5).sample(4, 1.0, rng) == []
    assert state_bytes(rng) == before


def reference_tables(params, src):
    """Decoder.__init__ and its sampling table before tables were built per batch
    of sources: (logits, logprobs, rows, cumulative) of one source, where
    cumulative(tau) is the tau-tempered cumulative table as nested lists, made
    by the tempered formula at every tau, 1 included."""
    v = params.vocab_size
    ctx = params.src_emb[list(src)].mean(axis=0) if len(src) else np.zeros(params.emb_dim)
    inputs = np.concatenate([np.tile(ctx, (v, 1)), params.tgt_emb], axis=1)
    hidden = np.tanh(inputs @ params.w_hidden + params.b_hidden)
    logits = hidden @ params.w_out + params.b_out
    zmax = logits.max(axis=1, keepdims=True)
    logprobs = logits - zmax - np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True))

    def cumulative(tau):
        z = logits / tau
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        return np.cumsum(p, axis=1).tolist()

    return logits, logprobs, logprobs.tolist(), cumulative


@st.composite
def source_batches(draw):
    """(params, sources): V 5-25, d 1-20, h 1-40, theta of scale 0.1 to 30,
    1-32 sources of up to 12 tokens, empty ones included: past 8 tokens,
    numpy's pairwise summation can start in the mean of a source's rows."""
    v, d, h = draw(st.integers(5, 25)), draw(st.integers(1, 20)), draw(st.integers(1, 40))
    params = random_params(
        v, d, h, draw(st.sampled_from([0.1, 1.0, 30.0])), draw(st.integers(0, 2**32 - 1))
    )
    sources = draw(st.lists(st.lists(st.integers(3, v - 1), max_size=12), min_size=1, max_size=32))
    return params, [tuple(src) for src in sources]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=source_batches())
@example(case=(random_params(9, 1, 3, 30.0, 6), [tuple(range(3, 9)) * 3, (4,) * 17, ()]))
def test_stacked_tables_equal_per_source_reference_tables(case):
    params, sources = case
    stacked = model.Decoder(params, sources, 5)
    alone = model.Decoder(params, sources[-1:], 5)  # one source
    assert len(stacked.rows) == len(sources)
    cases = [(stacked, i, src) for i, src in enumerate(sources)] + [(alone, 0, sources[-1])]
    for decoder, i, src in cases:
        logits, logprobs, rows, cumulative = reference_tables(params, src)
        assert decoder.logits[i].tobytes() == logits.tobytes()
        assert decoder.logprobs[i].tobytes() == logprobs.tobytes()
        assert decoder.rows[i] == rows
        for tau in (0.5, 0.7, 1.0, 2.0):  # tau = 1 reuses the log-softmax's exp
            got = np.array(decoder.cumulative(tau)[i])
            assert got.tobytes() == np.array(cumulative(tau)).tobytes()


def reference_draw(params, sources, n_samples, tau, rng, max_len):
    """N samples per source, one source after another on one stream: tokens by
    searchsorted on each source's reference cumulative table, log-probs by
    adding its reference rows in score's order."""
    last = params.vocab_size - 1
    grid = []
    for src in sources:
        _, _, rows, cumulative = reference_tables(params, src)
        cum = np.array(cumulative(tau))
        row = []
        for _ in range(n_samples):
            tokens, prev = [], BOS_ID
            for _ in range(max_len):
                tok = min(int(np.searchsorted(cum[prev], rng.random(), side="right")), last)
                if tok == EOS_ID:
                    break
                tokens.append(tok)
                prev = tok
            steps = zip(*model._steps([tuple(tokens)], max_len)[:2])
            row.append(model.ScoredHypothesis(tuple(tokens), sum(rows[p][t] for p, t in steps)))
        grid.append(row)
    return grid


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    case=source_batches(),
    tau=st.sampled_from([0.5, 1.0, 2.0]),
    n_samples=st.integers(1, 4),
    max_len=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_sample_set_equals_per_source_reference_sampling(case, tau, n_samples, max_len, seed):
    params, sources = case
    batch = DocumentBatch(sources, sources, [0] * len(sources))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_sample_set(params, batch, n_samples, tau, rng, max_len, CostKind.ONE_MINUS_DOCBLEU)
    assert got.grid == reference_draw(params, sources, n_samples, tau, ref_rng, max_len)
    assert rng.random() == ref_rng.random()


class ConstantRng:
    """Stand-in generator that draws value for every uniform, scalar or block;
    Decoder.sample may read and set its bit_generator.state."""

    def __init__(self, value):
        self.value = value
        self.bit_generator = types.SimpleNamespace(state=None)

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def test_sample_draw_equal_to_a_table_entry_goes_right():
    # zero theta: every row of the cumulative table is 0.2, 0.4, ..., 1.0
    params = zero_params(5, 2, 2)
    decoder = model.Decoder(params, [(4,)], 3)
    row = np.cumsum(np.full(5, 0.2)).tolist()
    for k, u in enumerate(row):
        [[hyp]] = decoder.sample(1, 1.0, ConstantRng(u))
        assert hyp == reference_sample(params, (4,), 3, 1.0, ConstantRng(u))
        first = hyp.sentence[0] if hyp.sentence else EOS_ID
        assert first == min(k + 1, 4)  # searchsorted(side="right"), clipped


def test_sample_uniform_token_frequencies_at_zero_theta():
    p = zero_params(5, 2, 2)
    decoder = model.Decoder(p, [(4,)], 3)
    rng = np.random.default_rng(99)
    draws = 100_000
    counts = np.zeros(5)
    for hyp in decoder.sample(draws, 1.0, rng)[0]:
        first = hyp.sentence[0] if hyp.sentence else EOS_ID
        counts[first] += 1
    chi2 = ((counts - draws / 5) ** 2 / (draws / 5)).sum()
    assert chi2 < stats.chi2.ppf(0.999, df=4)


def test_sample_frequencies_match_enumeration():
    p = model.init_params(5, 2, 2, seed=7)
    src = (4, 3)
    space = model.enumerate_output_space(p, src, 2)
    decoder = model.Decoder(p, [src], 2)
    rng = np.random.default_rng(1234)
    draws = 100_000
    counts = {sent: 0 for sent, _ in space}
    for hyp in decoder.sample(draws, 1.0, rng)[0]:
        counts[hyp.sentence] += 1
    for sent, prob in space:
        sigma = math.sqrt(prob * (1 - prob) / draws)
        assert abs(counts[sent] / draws - prob) <= 4 * sigma + 1e-12


def test_beam_sorted_unique_and_rescored():
    p = model.init_params(6, 3, 3, seed=3)
    hyps = model.beam_decode(p, (4, 5, 4), 4, 5)
    assert len(hyps) == 4
    sentences = [h.sentence for h in hyps]
    assert len(set(sentences)) == len(sentences)
    logps = [h.log_prob for h in hyps]
    assert logps == sorted(logps, reverse=True)
    for h in hyps:
        assert h.log_prob == model.log_prob(p, (4, 5, 4), h.sentence, 5)


def reference_beam(params, src, beam_size, max_len):
    """beam_decode before it kept its own sums: every one of the V extensions
    of every live hypothesis is a candidate, and the beam is rescored and
    sorted at the end."""
    v = params.vocab_size
    logprobs = model.Decoder(params, [src], max_len).logprobs[0]
    beams = [(0.0, (), BOS_ID, False)]
    for _ in range(max_len):
        if all(done for _, _, _, done in beams):
            break
        candidates = []
        for logp, toks, prev, done in beams:
            if done:
                candidates.append((logp, toks, prev, True))
                continue
            row = logprobs[prev]
            candidates.append((logp + float(row[EOS_ID]), toks, prev, True))
            for w in range(v):
                if w == EOS_ID:
                    continue
                candidates.append((logp + float(row[w]), toks + (w,), w, False))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam_size]
    out = [
        model.ScoredHypothesis(toks, model.log_prob(params, src, toks, max_len))
        for _, toks, _, _ in beams
    ]
    out.sort(key=lambda hyp: (-hyp.log_prob, hyp.sentence))
    return out


def rounding_tie_params():
    """Zero theta but for the output bias of tokens 3 and 4, one ulp apart:
    every row holds two different log-probs that the same prefix log-prob
    can round to one sum, which the beam must then rank by token."""
    p = zero_params(5, 2, 2)
    p.b_out[3], p.b_out[4] = 1.0, math.nextafter(1.0, 2.0)
    return p


def test_rounding_tie_params_tie_sums_of_different_log_probs():
    params = rounding_tie_params()
    row = model.Decoder(params, [()], 3).rows[0][4]
    logp = row[4] + row[4]  # after the greedy prefix (4, 4)
    assert row[3] < row[4] and logp + row[3] == logp + row[4]
    assert model.beam_decode(params, (), 1, 3)[0].sentence == (4, 4, 3)


@st.composite
def beam_cases(draw):
    """(params, src, beam_size, max_len): V 5-20, with V 5-7 drawn as often
    as the rest so that beam >= V - 1 is common; theta zero (every score
    ties), of scale 0.1 or 1, or 30 (peaked rows); beam 1-6; max_len 1-10."""
    v = draw(st.integers(5, 7) | st.integers(5, 20))
    d, h = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    scale = draw(st.sampled_from([0.0, 0.1, 1.0, 30.0]))
    theta = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        0.0, 1.0, model.param_count(v, d, h)
    )
    src = tuple(draw(st.lists(st.integers(3, v - 1), max_size=4)))
    params = model.ModelParams(v, d, h, scale * theta)
    return params, src, draw(st.integers(1, 6)), draw(st.integers(1, 10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=beam_cases())
@example(case=(rounding_tie_params(), (), 1, 3))
@example(case=(rounding_tie_params(), (4,), 2, 8))
def test_beam_equals_reference_beam(case):
    params, src, beam_size, max_len = case
    hyps = model.beam_decode(params, src, beam_size, max_len)
    expected = reference_beam(params, src, beam_size, max_len)
    assert hyps == expected
    for hyp, ref in zip(hyps, expected):
        assert hyp.log_prob == ref.log_prob


def test_beam_four_finds_enumeration_argmax():
    for seed in range(8):
        p = model.init_params(5, 3, 3, seed=seed)
        src = (4, 0)
        space = model.enumerate_output_space(p, src, 3)
        best_sentence, best_prob = max(space, key=lambda sp: sp[1])
        top = model.beam_decode(p, src, 4, 3)[0]
        assert top.sentence == best_sentence
        assert math.isclose(math.exp(top.log_prob), best_prob, rel_tol=1e-9)


def test_mle_loss_single_pair_reduction():
    p = model.init_params(6, 3, 3, seed=10)
    batch = DocumentBatch([(4, 5)], [(5, 4, 4)], [0])
    loss, _ = model.mle_loss_grad(p, batch, 5)
    assert math.isclose(loss, -model.log_prob(p, (4, 5), (5, 4, 4), 5) / 4, rel_tol=1e-12)


def test_mle_loss_at_zero_theta_is_log_vocab():
    p = zero_params(5, 2, 2)
    # (4, 4, 4, 4) sits at the max_len cap: 4 scored steps, no EOS step
    for refs in ([(4, 4), (4,)], [(4, 4, 4, 4), (4,)]):
        batch = DocumentBatch([(4,), (4, 4)], refs, [0, 0])
        loss, _ = model.mle_loss_grad(p, batch, 4)
        assert math.isclose(loss, math.log(5), abs_tol=1e-12)


def test_mle_loss_grad_finite_differences():
    rng = np.random.default_rng(77)
    p = model.init_params(6, 4, 4, seed=6)
    batch = DocumentBatch([(4, 5), (3,)], [(5,), (4, 4, 0)], [0, 0])
    _, grad = model.mle_loss_grad(p, batch, 4)
    coords = rng.choice(p.theta.size, size=50, replace=False)
    err = fd_gradient_check(
        lambda th: model.mle_loss_grad(p.like(th), batch, 4)[0], grad, p.theta, coords
    )
    assert err < 1e-5


def test_mle_loss_empty_batch():
    p = model.init_params(5, 2, 2, seed=0)
    with pytest.raises(ValueError):
        model.mle_loss_grad(p, DocumentBatch([], [], []), 3)


def test_enumerate_hand_tree_at_zero_theta():
    p = zero_params(5, 2, 2)
    space = dict(model.enumerate_output_space(p, (4,), 2))
    assert math.isclose(space[()], 1 / 5, abs_tol=1e-15)
    for tok in (0, 1, 3, 4):
        assert math.isclose(space[(tok,)], 1 / 25, abs_tol=1e-15)
        for tok2 in (0, 1, 3, 4):
            # forced EOS at the cap: no extra factor for length-2 sentences
            assert math.isclose(space[(tok, tok2)], 1 / 25, abs_tol=1e-15)
    assert len(space) == 21
    assert math.isclose(sum(space.values()), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("vocab_size, max_len", [(5, 1), (5, 3), (6, 2), (7, 1)])
def test_enumerate_lists_the_same_sentences_for_every_source(vocab_size, max_len):
    # exact risk stacks every source's coefficients into one (S, |Y|) array
    p = model.init_params(vocab_size, 3, 3, seed=vocab_size + max_len)
    spaces = [
        [sent for sent, _ in model.enumerate_output_space(p, src, max_len)]
        for src in [(), (4,), (3, 4, 0), (vocab_size - 1,) * 5]
    ]
    assert len(spaces[0]) == sum((vocab_size - 1) ** length for length in range(max_len + 1))
    assert len(set(spaces[0])) == len(spaces[0])
    assert all(space == spaces[0] for space in spaces)


def test_enumerate_normalization_random_theta():
    for seed in range(20):
        p = model.init_params(5, 3, 3, seed=seed)
        total = sum(prob for _, prob in model.enumerate_output_space(p, (4, 0), 3))
        assert abs(total - 1.0) <= 1e-10


def test_enumerate_probabilities_match_log_prob():
    p = model.init_params(5, 3, 3, seed=17)
    for sent, prob in model.enumerate_output_space(p, (4,), 2):
        assert math.isclose(prob, math.exp(model.log_prob(p, (4,), sent, 2)), rel_tol=1e-9)


def test_enumerate_argmax_matches_greedy_on_peaked_model():
    # per-step greedy only equals the global argmax when steps are decisive;
    # a model with a strong output bias toward one token chain is.
    p = zero_params(5, 3, 3)
    p.b_out[4] = 4.0
    space = model.enumerate_output_space(p, (4, 4), 3)
    best = max(space, key=lambda sp: sp[1])[0]
    assert model.beam_decode(p, (4, 4), 1, 3)[0].sentence == best


def test_enumerate_guard():
    p = model.init_params(32, 2, 2, seed=0)
    with pytest.raises(ValueError, match="guard"):
        model.enumerate_output_space(p, (4,), 5)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    p = model.init_params(7, 3, 5, seed=123)
    p.theta *= math.pi  # exercise non-trivial decimals
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(p, path)
    loaded = model.load_checkpoint(path)
    assert (loaded.vocab_size, loaded.emb_dim, loaded.hidden_dim) == (7, 3, 5)
    assert np.array_equal(loaded.theta, p.theta)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "docmrt-ckpt v1 7 3 5"


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text("not a checkpoint\n", encoding="utf-8")
    with pytest.raises(ValueError):
        model.load_checkpoint(path)


def _write_checkpoint(path, values):
    path.write_text("docmrt-ckpt v1 5 1 1\n" + "".join(f"{x}\n" for x in values), encoding="utf-8")


def test_checkpoint_rejects_non_finite_values(tmp_path):
    values = [0.0] * model.param_count(5, 1, 1)
    for bad in ("nan", "inf", "-inf"):
        values[3] = bad
        _write_checkpoint(tmp_path / "bad.ckpt", values)
        with pytest.raises(ValueError, match=":5: non-finite"):
            model.load_checkpoint(tmp_path / "bad.ckpt")


@pytest.mark.parametrize(
    "sizes, values, message",
    [("3 1 1", 15, "vocab_size must be >= 5, got 3"),
     ("5 -1 2", 3, "emb_dim must be >= 1, got -1"),
     ("5 0 3", 23, "emb_dim must be >= 1, got 0"),
     ("5 2 0", 10, "hidden_dim must be >= 1, got 0"),
     ("5 2 x", 10, "invalid literal for int() with base 10: 'x'")],
)
def test_checkpoint_rejects_sizes_init_params_rejects_before_reading_values(
    tmp_path, sizes, values, message
):
    # the first value does not parse, so only a header check can raise this
    path = tmp_path / "bad.ckpt"
    lines = ["docmrt-ckpt v1 " + sizes, "0.5x"] + ["0.0"] * (values - 1)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        model.load_checkpoint(path)
    assert str(err.value) == f"{path}:1: {message}"
    if not sizes.endswith("x"):  # the same rule as a model of these sizes
        with pytest.raises(ValueError, match=re.escape(message)):
            model.init_params(*(int(x) for x in sizes.split()), seed=0)


def test_checkpoint_rejects_unparseable_line_and_wrong_count(tmp_path):
    values = [0.0] * model.param_count(5, 1, 1)
    values[1] = "0.5x"
    _write_checkpoint(tmp_path / "bad.ckpt", values)
    with pytest.raises(ValueError, match=r":3: unparseable value '0\.5x'"):
        model.load_checkpoint(tmp_path / "bad.ckpt")
    _write_checkpoint(tmp_path / "short.ckpt", [0.0] * 3)
    with pytest.raises(ValueError, match="layout requires"):
        model.load_checkpoint(tmp_path / "short.ckpt")

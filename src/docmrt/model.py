"""Minimal differentiable autoregressive encoder-decoder with exact gradients.

Fixed architecture: the source context is the mean of source token embeddings;
decoder step t feeds [context ; embedding of the previous target token] through
one tanh layer and a softmax output over the full vocabulary. Generation stops
at EOS, or is forced to stop at max_len, so the distribution over sentences of
length <= max_len is properly normalized. Temperature applies to sampling only;
recorded log-probabilities always use tau = 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .textcore import BOS_ID, EOS_ID, DocumentBatch, Sentence, at_least

ENUMERATION_GUARD = 10**6
UNIFORM_BLOCK = 64  # uniforms per draw in Decoder.sample: cost follows the tokens drawn


def _layout(v: int, d: int, h: int) -> dict[str, tuple[int, ...]]:
    """Shape of each block of the flat parameter vector, in order [E_src, E_tgt, W,
    b, U, c], for vocabulary size v, embedding size d and hidden size h."""
    return {
        "src_emb": (v, d), "tgt_emb": (v, d), "w_hidden": (2 * d, h),
        "b_hidden": (h,), "w_out": (h, v), "b_out": (v,),
    }


def _check_sizes(vocab_size: int, emb_dim: int, hidden_dim: int) -> None:
    at_least(5, vocab_size=vocab_size)
    at_least(1, emb_dim=emb_dim, hidden_dim=hidden_dim)


def param_count(vocab_size: int, emb_dim: int, hidden_dim: int) -> int:
    return sum(math.prod(shape) for shape in _layout(vocab_size, emb_dim, hidden_dim).values())


@dataclass(eq=False)
class ModelParams:
    """Flat parameter vector theta and, per _layout block, an attribute view of
    it (params.src_emb, ...); theta is updated in place and never rebound."""

    vocab_size: int
    emb_dim: int
    hidden_dim: int
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        n = param_count(self.vocab_size, self.emb_dim, self.hidden_dim)
        if self.theta.shape != (n,):
            raise ValueError(f"theta has length {self.theta.size}, layout requires {n}")
        stop = 0
        for name, shape in _layout(self.vocab_size, self.emb_dim, self.hidden_dim).items():
            start, stop = stop, stop + math.prod(shape)
            setattr(self, name, self.theta[start:stop].reshape(shape))

    def like(self, flat: np.ndarray) -> "ModelParams":
        """Wrap another flat vector in the same layout (e.g. a gradient)."""
        return ModelParams(self.vocab_size, self.emb_dim, self.hidden_dim, flat)

    def copy(self) -> "ModelParams":
        return self.like(self.theta.copy())


@dataclass
class ScoredHypothesis:
    sentence: Sentence
    log_prob: float


def init_params(vocab_size: int, emb_dim: int, hidden_dim: int, seed: int) -> ModelParams:
    """Uniform [-0.1, 0.1] initialization from a seeded RNG."""
    _check_sizes(vocab_size, emb_dim, hidden_dim)
    n = param_count(vocab_size, emb_dim, hidden_dim)
    theta = np.random.default_rng(seed).uniform(-0.1, 0.1, size=n)
    return ModelParams(vocab_size, emb_dim, hidden_dim, theta)


def _steps(tgts: list[Sentence], max_len: int) -> tuple[list[int], list[int], list[int]]:
    """Previous-token and target-token sequences for scoring each of tgts,
    concatenated, and each target's number of steps.

    The EOS step is included unless the target sits at the length cap, where
    termination is forced and contributes probability 1.
    """
    prevs: list[int] = []
    targets: list[int] = []
    lengths: list[int] = []
    for tgt in tgts:
        if len(tgt) > max_len:
            raise ValueError(f"target length {len(tgt)} exceeds max_len {max_len}")
        eos = len(tgt) < max_len
        prevs.append(BOS_ID)
        prevs += tgt if eos else tgt[:-1]
        targets += tgt
        if eos:
            targets.append(EOS_ID)
        lengths.append(len(tgt) + eos)
    return prevs, targets, lengths


class Decoder:
    """The decoding tables of a batch of sources, built in one stacked pass.

    Row t of source i's (V, V) tables holds the next-token logits and
    log-probabilities after previous token t: the hidden state depends only on
    the previous target token, so the table covers every decoder step. The
    matmuls stay 3-D, one gemm of V rows per source, because a single gemm over
    all S * V rows blocks its sums differently and changes the last bit.

    sample, log_prob, beam_decode and enumerate_output_space read these tables;
    the first three add up the same floats from a source's one list of
    log-probability rows, so their log-probabilities are bitwise equal.
    """

    def __init__(self, params: ModelParams, sources: list[Sentence], max_len: int):
        at_least(1, max_len=max_len)
        v, d = params.vocab_size, params.emb_dim
        inputs = np.zeros((len(sources), v, 2 * d))
        for i, src in enumerate(sources):
            if len(src):  # np.mean's own sum and division, without its wrapper
                inputs[i, :, :d] = np.add.reduce(params.src_emb.take(src, 0), 0) / len(src)
        inputs[:, :, d:] = params.tgt_emb
        hidden = np.tanh(inputs @ params.w_hidden + params.b_hidden)
        self.max_len = max_len
        self.logits = hidden @ params.w_out + params.b_out
        zmax = self.logits.max(axis=2, keepdims=True)
        # exp(logits - zmax) and its row sums also make the tau = 1 sampling table
        self._exp = np.exp(self.logits - zmax)
        self._exp_sums = self._exp.sum(axis=2, keepdims=True)
        self.logprobs = self.logits - zmax - np.log(self._exp_sums)
        self.rows: list[list[list[list[float]]]] = self.logprobs.tolist()

    def cumulative(self, tau: float) -> list[list[list[list[float]]]]:
        """The tau-tempered cumulative tables as nested lists."""
        z = self.logits if tau == 1 else self.logits / tau
        if not np.isfinite(z).all():  # a finite z gives a finite table
            raise ValueError(f"non-finite decoding table at temperature {tau}")
        if tau == 1:  # logits / 1 is logits: the log-softmax's own floats
            p = self._exp / self._exp_sums
        else:
            p = np.exp(z - z.max(axis=2, keepdims=True))
            p /= p.sum(axis=2, keepdims=True)
        return np.cumsum(p, axis=2).tolist()

    def sample(
        self, n_samples: int, tau: float, rng: np.random.Generator
    ) -> list[list[ScoredHypothesis]]:
        """n_samples ancestral samples of every source at temperature tau, as a
        [source][sample] grid with tau = 1 log_probs. Uniforms come in UNIFORM_BLOCK
        blocks; rng is then set back and draws the used count, ending as per-token draws do."""
        if tau <= 0:
            raise ValueError("temperature must be positive")
        tables, last, max_len = self.cumulative(tau), self.logits.shape[2] - 1, self.max_len
        start, grid, used = rng.bit_generator.state, [], 0
        uniforms = chain.from_iterable(iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None))
        for cum, rows in zip(tables, self.rows):
            grid.append([])
            for _ in range(n_samples):
                tokens, prev, total = [], BOS_ID, 0.0
                # bisect_right is searchsorted(side="right"), clamped by hi=last on the
                # nondecreasing row; the log-prob adds up in log_prob's order
                for u in islice(uniforms, max_len):
                    tok = bisect_right(cum[prev], u, 0, last)
                    total += rows[prev][tok]
                    if tok == EOS_ID:
                        break
                    tokens.append(tok)
                    prev = tok
                used += len(tokens) + (len(tokens) < max_len)  # the EOS draw below the cap
                grid[-1].append(ScoredHypothesis(tuple(tokens), total))
        # a block steps rng as scalar draws do; restoring keeps PCG64's buffered half-word
        rng.bit_generator.state = start
        rng.random(used)
        return grid


def _extensions(vocab_size: int) -> list[int]:
    """The tokens that extend a prefix rather than end it: all but EOS."""
    return [w for w in range(vocab_size) if w != EOS_ID]


def log_prob(params: ModelParams, src: Sentence, tgt: Sentence, max_len: int) -> float:
    """Sum of per-token log-probabilities of tgt given src, including EOS.

    Reads the same decoding table as sampling and beam search, so their
    recorded log-probabilities equal this value bitwise.
    """
    rows = Decoder(params, [src], max_len).rows[0]
    prevs, targets, _ = _steps([tgt], max_len)
    total = 0.0
    for prev, tok in zip(prevs, targets):
        total += rows[prev][tok]
    return total


def weighted_log_prob_grad(
    params: ModelParams,
    srcs: list[Sentence],
    tgts: list[Sentence],
    weights: np.ndarray | list[float],
    max_len: int,
) -> tuple[float, np.ndarray]:
    """sum_i w_i * log P(tgts[i] | srcs[i]) and its exact gradient.

    Every decoder step of every pair is one row of a single stacked forward
    and backward pass, so any weighted sum of sentence gradients (MLE, risk
    estimators, exact risk) costs one pass and one theta-sized buffer.

    Its floats are pinned bitwise: temporaries may be reused in place (out=,
    +=), but every ufunc keeps its operands and their order, and no gemm may
    change its operands' shapes or row count, which regroups its sums.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(srcs),) or len(tgts) != len(srcs):
        raise ValueError(
            f"misaligned: {len(srcs)} sources, {len(tgts)} targets, weights {weights.shape}"
        )
    at_least(1, max_len=max_len)
    if not len(srcs):
        return 0.0, np.zeros_like(params.theta)
    v, d = params.vocab_size, params.emb_dim
    prevs, targets, lengths = _steps(tgts, max_len)
    steps = np.array(lengths)  # max_len >= 1 gives every pair a step, as reduceat needs
    prevs, targets = np.array(prevs, dtype=np.intp), np.array(targets, dtype=np.intp)
    # pool[i] @ E_src is the mean source embedding of pair i
    src_lens = np.array([len(src) for src in srcs])
    tokens = np.array([t for src in srcs for t in src], dtype=np.intp)
    cells = np.repeat(np.arange(len(srcs)) * v, src_lens) + tokens
    pool = np.bincount(cells, minlength=len(srcs) * v).reshape(-1, v)
    pool = pool / np.maximum(src_lens, 1)[:, None]
    ctx = np.repeat(pool @ params.src_emb, steps, axis=0)
    inputs = np.concatenate([ctx, params.tgt_emb[prevs]], axis=1)
    hidden = inputs @ params.w_hidden
    hidden += params.b_hidden
    np.tanh(hidden, out=hidden)
    logits = hidden @ params.w_out
    logits += params.b_out
    zmax = logits.max(axis=1, keepdims=True)
    rows = np.arange(len(targets))
    picked = logits[rows, targets]
    ez = np.subtract(logits, zmax, out=logits)
    np.exp(ez, out=ez)
    norm = ez.sum(axis=1)
    step_w = np.repeat(weights, steps)
    value = float(step_w @ (picked - zmax[:, 0] - np.log(norm)))
    # d logp / d logits = one-hot(target) - softmax(logits), scaled per step
    gz = np.multiply(ez, (-step_w / norm)[:, None], out=ez)
    gz[rows, targets] += step_w
    g_b_out = gz.sum(axis=0)
    g_w_out = hidden.T @ gz  # before hidden becomes 1 - hidden**2
    da = gz @ params.w_out.T
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    np.multiply(hidden, da, out=da)
    g_b_hidden = da.sum(axis=0)
    g_w_hidden = inputs.T @ da
    dinputs = da @ params.w_hidden.T
    # every (prev, j) cell sums its rows in step order from 0.0, as np.add.at does
    cells = (prevs[:, None] * d + np.arange(d)).ravel()
    g_tgt_emb = np.bincount(cells, dinputs[:, d:].ravel(), v * d)
    starts = np.cumsum(steps) - steps
    g_src_emb = pool.T @ np.add.reduceat(dinputs[:, :d], starts, axis=0)
    # one write of every block, in _layout order
    blocks = (g_src_emb, g_tgt_emb, g_w_hidden, g_b_hidden, g_w_out, g_b_out)
    return value, np.concatenate(blocks, axis=None)


def log_prob_grad(
    params: ModelParams, src: Sentence, tgt: Sentence, max_len: int
) -> np.ndarray:
    """Exact analytic gradient of log_prob, in the flat parameter layout."""
    return weighted_log_prob_grad(params, [src], [tgt], [1.0], max_len)[1]


def beam_decode(
    params: ModelParams, src: Sentence, beam: int, max_len: int
) -> list[ScoredHypothesis]:
    """Length-unnormalized beam search; unique hypotheses sorted by log_prob."""
    rows = Decoder(params, [src], max_len).rows[0]
    at_least(1, beam=beam)
    words = _extensions(params.vocab_size)
    # (logp, tokens, done), ranked by (-logp, tokens); EOS competes for beam
    # slots like any other extension, so beam 1 is greedy decoding.
    beams: list[tuple[float, Sentence, bool]] = [(0.0, (), False)]
    for _ in range(max_len):
        if all(done for _, _, done in beams):
            break
        candidates = []
        for logp, toks, done in beams:
            if done:
                candidates.append((logp, toks, True))
                continue
            sums = [logp + x for x in rows[toks[-1] if toks else BOS_ID]]
            candidates.append((sums[EOS_ID], toks, True))
            # only its beam best extensions by that key can enter, ranked by the
            # sum (adding logp can tie two row values), ties in token order
            for w in sorted(words, key=sums.__getitem__, reverse=True)[:beam]:
                candidates.append((sums[w], toks + (w,), False))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam]
    # alive at the cap: forced EOS, no term; logp is log_prob's sum, bitwise
    return [ScoredHypothesis(toks, logp) for logp, toks, _ in beams]


def enumerate_output_space(
    params: ModelParams, src: Sentence, max_len: int
) -> list[tuple[Sentence, float]]:
    """Every EOS-terminated sentence of length <= max_len with exact probability.

    Guarded by ENUMERATION_GUARD on vocab_size ** max_len; the returned
    probabilities sum to 1 because termination is forced at the cap.
    """
    probs = np.exp(Decoder(params, [src], max_len).logprobs[0]).tolist()
    if params.vocab_size**max_len > ENUMERATION_GUARD:
        raise ValueError("output space exceeds the enumeration guard")
    words = _extensions(params.vocab_size)
    out: list[tuple[Sentence, float]] = []

    def walk(prefix: Sentence, prev: int, p: float):
        if len(prefix) == max_len:
            out.append((prefix, p))
            return
        out.append((prefix, p * probs[prev][EOS_ID]))
        for w in words:
            walk(prefix + (w,), w, p * probs[prev][w])

    walk((), BOS_ID, 1.0)
    return out


def mle_loss_grad(
    params: ModelParams, batch: DocumentBatch, max_len: int
) -> tuple[float, np.ndarray]:
    """Per-token negative log-likelihood of the references and its gradient."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    # a reference at the max_len cap has no EOS step (see _steps)
    token_count = sum(min(len(ref) + 1, max_len) for ref in batch.references)
    weights = np.full(len(batch), -1.0 / token_count)
    return weighted_log_prob_grad(params, batch.sources, batch.references, weights, max_len)


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Text checkpoint: header line then one shortest-round-trip decimal per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"docmrt-ckpt v1 {params.vocab_size} {params.emb_dim} {params.hidden_dim}\n"
        )
        for x in params.theta:
            fh.write(repr(float(x)) + "\n")


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a save_checkpoint file; malformed or non-finite values raise ValueError."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "docmrt-ckpt" or header[1] != "v1":
            raise ValueError("not a docmrt v1 checkpoint")
        try:
            v, d, h = (int(x) for x in header[2:])
            _check_sizes(v, d, h)
        except ValueError as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        values = []
        for lineno, line in enumerate(fh, start=2):
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable value {line.strip()!r}") from None
    theta = np.array(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"{path}:{bad[0] + 2}: non-finite parameter {theta[bad[0]]}")
    try:
        return ModelParams(v, d, h, theta)
    except ValueError as exc:  # a count the header's layout does not have
        raise ValueError(f"{path}: {exc}") from None

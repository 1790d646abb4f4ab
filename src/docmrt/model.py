"""Minimal differentiable autoregressive encoder-decoder with exact gradients.

Fixed architecture: the source context is the mean of source token embeddings;
decoder step t feeds [context ; embedding of the previous target token] through
one tanh layer and a softmax output over the full vocabulary. Generation stops
at EOS, or is forced to stop at max_len, so the distribution over sentences of
length <= max_len is properly normalized. Temperature applies to sampling only;
recorded log-probabilities always use tau = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .textcore import BOS_ID, EOS_ID, DocumentBatch, Sentence

ENUMERATION_GUARD = 10**6


def param_count(vocab_size: int, emb_dim: int, hidden_dim: int) -> int:
    v, d, h = vocab_size, emb_dim, hidden_dim
    return 2 * v * d + 2 * d * h + h + h * v + v


@dataclass
class ModelParams:
    """Flat parameter vector with fixed layout [E_src, E_tgt, W, b, U, c]."""

    vocab_size: int
    emb_dim: int
    hidden_dim: int
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        expected = param_count(self.vocab_size, self.emb_dim, self.hidden_dim)
        if self.theta.shape != (expected,):
            raise ValueError(
                f"theta has length {self.theta.size}, layout requires {expected}"
            )

    # Views into the flat vector; writing through them mutates theta.
    @property
    def src_emb(self) -> np.ndarray:
        v, d = self.vocab_size, self.emb_dim
        return self.theta[: v * d].reshape(v, d)

    @property
    def tgt_emb(self) -> np.ndarray:
        v, d = self.vocab_size, self.emb_dim
        return self.theta[v * d : 2 * v * d].reshape(v, d)

    @property
    def w_hidden(self) -> np.ndarray:
        v, d, h = self.vocab_size, self.emb_dim, self.hidden_dim
        start = 2 * v * d
        return self.theta[start : start + 2 * d * h].reshape(2 * d, h)

    @property
    def b_hidden(self) -> np.ndarray:
        v, d, h = self.vocab_size, self.emb_dim, self.hidden_dim
        start = 2 * v * d + 2 * d * h
        return self.theta[start : start + h]

    @property
    def w_out(self) -> np.ndarray:
        v, d, h = self.vocab_size, self.emb_dim, self.hidden_dim
        start = 2 * v * d + 2 * d * h + h
        return self.theta[start : start + h * v].reshape(h, v)

    @property
    def b_out(self) -> np.ndarray:
        v = self.vocab_size
        return self.theta[-v:]

    def like(self, flat: np.ndarray) -> "ModelParams":
        """Wrap another flat vector in the same layout (e.g. a gradient)."""
        return ModelParams(self.vocab_size, self.emb_dim, self.hidden_dim, flat)

    def copy(self) -> "ModelParams":
        return self.like(self.theta.copy())


@dataclass
class ScoredHypothesis:
    sentence: Sentence
    log_prob: float


def init_params(
    vocab_size: int, emb_dim: int, hidden_dim: int, seed: int, zero: bool = False
) -> ModelParams:
    """Uniform [-0.1, 0.1] initialization from a seeded RNG, or all zeros."""
    if vocab_size < 5:
        raise ValueError("vocab_size must be >= 5")
    if emb_dim < 1 or hidden_dim < 1:
        raise ValueError("emb_dim and hidden_dim must be >= 1")
    n = param_count(vocab_size, emb_dim, hidden_dim)
    if zero:
        theta = np.zeros(n)
    else:
        theta = np.random.default_rng(seed).uniform(-0.1, 0.1, size=n)
    return ModelParams(vocab_size, emb_dim, hidden_dim, theta)


def _source_context(params: ModelParams, src: Sentence) -> np.ndarray:
    if len(src) == 0:
        return np.zeros(params.emb_dim)
    return params.src_emb[list(src)].mean(axis=0)


def _step_sequences(tgt: Sentence, max_len: int) -> tuple[list[int], list[int]]:
    """Previous-token and target-token sequences for scoring tgt.

    The EOS step is included unless the target sits at the length cap, where
    termination is forced and contributes probability 1.
    """
    if len(tgt) > max_len:
        raise ValueError(f"target length {len(tgt)} exceeds max_len {max_len}")
    targets = list(tgt)
    if len(tgt) < max_len:
        targets.append(EOS_ID)
    prevs = [BOS_ID] + list(tgt[: len(targets) - 1])
    return prevs, targets


class Decoder:
    """Per-(params, source) decoding table.

    The hidden state depends only on the previous target token, so next-token
    logits for every possible previous token form a (V, V) table computed once
    and reused by sampling, beam search, and enumeration.
    """

    def __init__(self, params: ModelParams, src: Sentence, max_len: int):
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        self.params = params
        self.src = tuple(src)
        self.max_len = max_len
        v = params.vocab_size
        ctx = _source_context(params, src)
        inputs = np.concatenate([np.tile(ctx, (v, 1)), params.tgt_emb], axis=1)
        hidden = np.tanh(inputs @ params.w_hidden + params.b_hidden)
        self.logits = hidden @ params.w_out + params.b_out
        zmax = self.logits.max(axis=1, keepdims=True)
        self.logprobs = (
            self.logits
            - zmax
            - np.log(np.exp(self.logits - zmax).sum(axis=1, keepdims=True))
        )
        self._cum_cache: dict[float, np.ndarray] = {}

    def _tempered_cumulative(self, tau: float) -> np.ndarray:
        key = float(tau)
        if key not in self._cum_cache:
            z = self.logits / tau
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            self._cum_cache[key] = np.cumsum(p, axis=1)
        return self._cum_cache[key]

    def score(self, tgt: Sentence) -> float:
        prevs, targets = _step_sequences(tgt, self.max_len)
        total = 0.0
        for prev, tok in zip(prevs, targets):
            total += float(self.logprobs[prev, tok])
        return total

    def sample(self, tau: float, rng: np.random.Generator, greedy: bool = False) -> ScoredHypothesis:
        tokens: list[int] = []
        prev = BOS_ID
        if greedy:
            for _ in range(self.max_len):
                tok = int(np.argmax(self.logits[prev]))
                if tok == EOS_ID:
                    break
                tokens.append(tok)
                prev = tok
        else:
            if tau <= 0:
                raise ValueError("temperature must be positive")
            cum = self._tempered_cumulative(tau)
            last = self.params.vocab_size - 1
            for _ in range(self.max_len):
                tok = min(int(np.searchsorted(cum[prev], rng.random(), side="right")), last)
                if tok == EOS_ID:
                    break
                tokens.append(tok)
                prev = tok
        sentence = tuple(tokens)
        return ScoredHypothesis(sentence, self.score(sentence))

    def beam(self, beam_size: int) -> list[ScoredHypothesis]:
        if beam_size < 1:
            raise ValueError("beam size must be >= 1")
        v = self.params.vocab_size
        # (logp, tokens, prev, done); EOS competes for beam slots like any
        # other extension, so beam_size 1 reproduces greedy decoding.
        beams: list[tuple[float, Sentence, int, bool]] = [(0.0, (), BOS_ID, False)]
        for _ in range(self.max_len):
            if all(done for _, _, _, done in beams):
                break
            candidates: list[tuple[float, Sentence, int, bool]] = []
            for logp, toks, prev, done in beams:
                if done:
                    candidates.append((logp, toks, prev, True))
                    continue
                row = self.logprobs[prev]
                candidates.append((logp + float(row[EOS_ID]), toks, prev, True))
                for w in range(v):
                    if w == EOS_ID:
                        continue
                    candidates.append((logp + float(row[w]), toks + (w,), w, False))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            beams = candidates[:beam_size]
        # hypotheses still alive at the cap terminate with forced EOS (no term)
        out = [ScoredHypothesis(toks, self.score(toks)) for _, toks, _, _ in beams]
        out.sort(key=lambda hyp: (-hyp.log_prob, hyp.sentence))
        return out

    def enumerate(self) -> list[tuple[Sentence, float]]:
        v = self.params.vocab_size
        if v**self.max_len > ENUMERATION_GUARD:
            raise ValueError("output space exceeds the enumeration guard")
        probs = np.exp(self.logprobs)
        out: list[tuple[Sentence, float]] = []

        def walk(prefix: Sentence, prev: int, p: float):
            if len(prefix) == self.max_len:
                out.append((prefix, p))
                return
            out.append((prefix, p * float(probs[prev, EOS_ID])))
            for w in range(v):
                if w == EOS_ID:
                    continue
                walk(prefix + (w,), w, p * float(probs[prev, w]))

        walk((), BOS_ID, 1.0)
        return out


def log_prob(params: ModelParams, src: Sentence, tgt: Sentence, max_len: int) -> float:
    """Sum of per-token log-probabilities of tgt given src, including EOS.

    Reads the same decoding table as sampling and beam search, so their
    recorded log-probabilities equal this value bitwise.
    """
    return Decoder(params, src, max_len).score(tgt)


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
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(srcs),) or len(tgts) != len(srcs):
        raise ValueError(
            f"misaligned: {len(srcs)} sources, {len(tgts)} targets, weights {weights.shape}"
        )
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    grad = np.zeros_like(params.theta)
    if not len(srcs):
        return 0.0, grad
    v, d = params.vocab_size, params.emb_dim
    prevs: list[int] = []
    targets: list[int] = []
    steps = np.empty(len(tgts), dtype=np.intp)
    for i, tgt in enumerate(tgts):
        p, t = _step_sequences(tgt, max_len)
        prevs += p
        targets += t
        steps[i] = len(t)  # max_len >= 1 gives every pair a step, as reduceat needs
    # pool[i] @ E_src is the mean source embedding of pair i
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
    # d logp / d logits = one-hot(target) - softmax(logits), scaled per step
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


def log_prob_grad(
    params: ModelParams, src: Sentence, tgt: Sentence, max_len: int
) -> np.ndarray:
    """Exact analytic gradient of log_prob, in the flat parameter layout."""
    return weighted_log_prob_grad(params, [src], [tgt], [1.0], max_len)[1]


def sample(
    params: ModelParams,
    src: Sentence,
    tau: float,
    rng: np.random.Generator,
    max_len: int,
    greedy: bool = False,
) -> ScoredHypothesis:
    """Left-to-right ancestral sample from the tau-tempered distribution.

    The recorded log_prob is the true model log-probability (tau = 1) of the
    sampled sentence. greedy=True takes the per-step argmax instead.
    """
    return Decoder(params, src, max_len).sample(tau, rng, greedy=greedy)


def beam_decode(
    params: ModelParams, src: Sentence, beam: int, max_len: int
) -> list[ScoredHypothesis]:
    """Length-unnormalized beam search; unique hypotheses sorted by log_prob."""
    return Decoder(params, src, max_len).beam(beam)


def enumerate_output_space(
    params: ModelParams, src: Sentence, max_len: int
) -> list[tuple[Sentence, float]]:
    """Every EOS-terminated sentence of length <= max_len with exact probability.

    Guarded by ENUMERATION_GUARD on vocab_size ** max_len; the returned
    probabilities sum to 1 because termination is forced at the cap.
    """
    return Decoder(params, src, max_len).enumerate()


def mle_loss_grad(
    params: ModelParams, batch: DocumentBatch, max_len: int
) -> tuple[float, np.ndarray]:
    """Per-token negative log-likelihood of the references and its gradient."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    # a reference at the max_len cap has no EOS step (see _step_sequences)
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
        v, d, h = (int(x) for x in header[2:])
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
    return ModelParams(v, d, h, theta)

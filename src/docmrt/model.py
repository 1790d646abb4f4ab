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
from pathlib import Path

import numpy as np

from .textcore import BOS_ID, EOS_ID, DocumentBatch, Sentence, at_least

ENUMERATION_GUARD = 10**6


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


@dataclass
class ModelParams:
    """Flat parameter vector theta in the block layout of _layout."""

    vocab_size: int
    emb_dim: int
    hidden_dim: int
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self._blocks: dict[str, tuple[slice, tuple]] = {}
        stop = 0
        for name, shape in _layout(self.vocab_size, self.emb_dim, self.hidden_dim).items():
            start, stop = stop, stop + math.prod(shape)
            self._blocks[name] = slice(start, stop), shape
        if self.theta.shape != (stop,):
            raise ValueError(f"theta has length {self.theta.size}, layout requires {stop}")

    def _view(self, name: str) -> np.ndarray:
        """Block name of theta; writing through the view mutates theta."""
        block, shape = self._blocks[name]
        return self.theta[block].reshape(shape)

    src_emb = property(lambda self: self._view("src_emb"))
    tgt_emb = property(lambda self: self._view("tgt_emb"))
    w_hidden = property(lambda self: self._view("w_hidden"))
    b_hidden = property(lambda self: self._view("b_hidden"))
    w_out = property(lambda self: self._view("w_out"))
    b_out = property(lambda self: self._view("b_out"))

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
    _check_sizes(vocab_size, emb_dim, hidden_dim)
    n = param_count(vocab_size, emb_dim, hidden_dim)
    if zero:
        theta = np.zeros(n)
    else:
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


class _Tables:
    """The decoding tables of a batch of sources, built in one stacked pass.

    Row t of source i's (V, V) tables holds the next-token logits and
    log-probabilities after previous token t: the hidden state depends only on
    the previous target token, so the table covers every decoder step. The
    matmuls stay 3-D, one gemm of V rows per source, because a single gemm over
    all S * V rows blocks its sums differently and changes the last bit.
    """

    def __init__(self, params: ModelParams, sources: list[Sentence]):
        v, d = params.vocab_size, params.emb_dim
        inputs = np.empty((len(sources), v, 2 * d))
        for i, src in enumerate(sources):
            inputs[i, :, :d] = params.src_emb[list(src)].mean(axis=0) if len(src) else 0.0
        inputs[:, :, d:] = params.tgt_emb
        hidden = np.tanh(inputs @ params.w_hidden + params.b_hidden)
        self.logits = hidden @ params.w_out + params.b_out
        zmax = self.logits.max(axis=2, keepdims=True)
        self.logprobs = (
            self.logits
            - zmax
            - np.log(np.exp(self.logits - zmax).sum(axis=2, keepdims=True))
        )
        self.rows: list[list[list[float]]] = self.logprobs.tolist()
        self._cumulative: dict[float, list[list[list[float]]]] = {}

    def cumulative(self, tau: float) -> list[list[list[float]]]:
        """The tau-tempered cumulative tables as nested lists, cached per tau."""
        key = float(tau)
        if key not in self._cumulative:
            z = self.logits / tau
            if not np.isfinite(z).all():  # a finite z gives a finite table
                raise ValueError(f"non-finite decoding table at temperature {tau}")
            z -= z.max(axis=2, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=2, keepdims=True)
            self._cumulative[key] = np.cumsum(p, axis=2).tolist()
        return self._cumulative[key]


class Decoder:
    """Per-(params, source) decoding table, one source's slice of a _Tables.

    Scoring, sampling and beam search add up the same floats from its one list
    of log-probability rows, so their log-probabilities are bitwise equal.
    """

    def __init__(self, params: ModelParams, src: Sentence, max_len: int, *, _table=None):
        """_table: (a batch's _Tables, src's index in it); None builds src's own."""
        at_least(1, max_len=max_len)
        tables, i = _table if _table is not None else (_Tables(params, [src]), 0)
        self.params = params
        self.max_len = max_len
        self.logits = tables.logits[i]
        self.logprobs = tables.logprobs[i]
        self.rows: list[list[float]] = tables.rows[i]
        self.words = [w for w in range(params.vocab_size) if w != EOS_ID]  # extensions
        self._tables, self._index = tables, i

    def _sampling_rows(self, tau: float) -> list[list[float]]:
        """The tau-tempered cumulative table as nested lists, cached per tau
        for the whole batch."""
        return self._tables.cumulative(tau)[self._index]

    def score(self, tgt: Sentence) -> float:
        prevs, targets, _ = _steps([tgt], self.max_len)
        total = 0.0
        for prev, tok in zip(prevs, targets):
            total += self.rows[prev][tok]
        return total

    def sample(self, tau: float, rng: np.random.Generator) -> ScoredHypothesis:
        if tau <= 0:
            raise ValueError("temperature must be positive")
        tokens: list[int] = []
        prev = BOS_ID
        cum, rows = self._sampling_rows(tau), self.rows
        last = self.params.vocab_size - 1
        # one uniform per token; bisect_right is searchsorted(side="right"), and
        # the log-prob adds up in score's order, EOS step included below the cap
        total = 0.0
        for _ in range(self.max_len):
            tok = min(bisect_right(cum[prev], rng.random()), last)
            total += rows[prev][tok]
            if tok == EOS_ID:
                break
            tokens.append(tok)
            prev = tok
        return ScoredHypothesis(tuple(tokens), total)

    def beam(self, beam_size: int) -> list[ScoredHypothesis]:
        at_least(1, beam_size=beam_size)
        # (logp, tokens, done), ranked by (-logp, tokens); EOS competes for beam
        # slots like any other extension, so beam_size 1 is greedy decoding.
        beams: list[tuple[float, Sentence, bool]] = [(0.0, (), False)]
        for _ in range(self.max_len):
            if all(done for _, _, done in beams):
                break
            candidates = []
            for logp, toks, done in beams:
                if done:
                    candidates.append((logp, toks, True))
                    continue
                sums = [logp + x for x in self.rows[toks[-1] if toks else BOS_ID]]
                candidates.append((sums[EOS_ID], toks, True))
                # only its beam_size best extensions by that key can enter, ranked by
                # the sum (adding logp can tie two row values), ties in token order
                for w in sorted(self.words, key=sums.__getitem__, reverse=True)[:beam_size]:
                    candidates.append((sums[w], toks + (w,), False))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            beams = candidates[:beam_size]
        # alive at the cap: forced EOS, no term; logp is score's sum, bitwise
        return [ScoredHypothesis(toks, logp) for logp, toks, _ in beams]

    def enumerate(self) -> list[tuple[Sentence, float]]:
        if self.params.vocab_size**self.max_len > ENUMERATION_GUARD:
            raise ValueError("output space exceeds the enumeration guard")
        probs = np.exp(self.logprobs).tolist()
        out: list[tuple[Sentence, float]] = []

        def walk(prefix: Sentence, prev: int, p: float):
            if len(prefix) == self.max_len:
                out.append((prefix, p))
                return
            out.append((prefix, p * probs[prev][EOS_ID]))
            for w in self.words:
                walk(prefix + (w,), w, p * probs[prev][w])

        walk((), BOS_ID, 1.0)
        return out


def decoders(params: ModelParams, sources: list[Sentence], max_len: int) -> list[Decoder]:
    """One Decoder per source, their tables built in one stacked pass and their
    tempered cumulative tables once per batch and temperature."""
    tables = _Tables(params, sources)
    return [Decoder(params, src, max_len, _table=(tables, i)) for i, src in enumerate(sources)]


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
    at_least(1, max_len=max_len)
    grad = np.zeros_like(params.theta)
    if not len(srcs):
        return 0.0, grad
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
    # every (prev, j) cell sums its rows in step order from 0.0, as np.add.at does
    cells = (prevs[:, None] * d + np.arange(d)).ravel()
    views.tgt_emb[:] = np.bincount(cells, dinputs[:, d:].ravel(), v * d).reshape(v, d)
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
) -> ScoredHypothesis:
    """Left-to-right ancestral sample from the tau-tempered distribution.

    The recorded log_prob is the true model log-probability (tau = 1) of the
    sampled sentence.
    """
    return Decoder(params, src, max_len).sample(tau, rng)


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

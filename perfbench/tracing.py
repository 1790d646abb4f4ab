"""Span tracing of the docmrt layers from outside the library.

A Tracer replaces public functions of the docmrt modules by wrappers that
record one span per call: name, start, end, parent span and request id. The
library itself is never edited; intra-module calls see the wrappers too,
because a function looks its globals up in the module dictionary that
setattr changes. Spans stay in memory until the run writes them out.

`ngrams` is deliberately not wrapped: it is called millions of times per
run, so a wrapper would cost more than the function it measures.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

# Extra counts recorded per call, computed from (args, kwargs, result) after
# the span has ended so that their cost is not charged to the wrapped function.
Extras = Callable[[tuple, dict, object], dict]


def _batch_sentences(args, kwargs, result):
    batch = kwargs.get("batch", args[1] if len(args) > 1 else None)
    return {"sentences": len(batch)}


def _one_sentence(args, kwargs, result):
    return {"sentences": 1}


def _pairs(args, kwargs, result):
    return {"pairs": len(kwargs.get("hyps", args[0] if args else ()))}


def _sample_grid(args, kwargs, result):
    n = result.n_samples
    rows = result.grid
    distinct = sum(len({h.sentence for h in row}) / n for row in rows) / len(rows)
    return {"samples": n * len(rows), "distinct_ratio": distinct}


def layer_targets(docmrt) -> list[tuple[object, str, str, Extras | None]]:
    """(owner, attribute, span name, extras) for every traced function.

    The span name is `<module>.<qualified name>`; its first component is the
    layer the per-layer summary charges the span's self time to.
    """
    m = docmrt
    return [
        (m.textcore, "build_vocab", "textcore.build_vocab", None),
        (m.textcore, "read_document_corpus", "textcore.read_document_corpus", None),
        (m.model, "mle_loss_grad", "model.mle_loss_grad", _batch_sentences),
        (m.model, "log_prob_grad", "model.log_prob_grad", None),
        (m.model.Decoder, "__init__", "model.Decoder", None),
        (m.model.Decoder, "sample", "model.Decoder.sample", None),
        (m.model, "beam_decode", "model.beam_decode", _one_sentence),
        (m.sampling, "draw_sample_set", "sampling.draw_sample_set", _sample_grid),
        (m.sampling, "order_samples", "sampling.order_samples", None),
        (m.sampling, "build_documents_ordered", "sampling.build_documents_ordered", None),
        (m.sampling, "build_documents_random", "sampling.build_documents_random", None),
        (m.metrics, "seq_cost", "metrics.seq_cost", None),
        (m.metrics, "sentence_bleu_smoothed", "metrics.sentence_bleu_smoothed", None),
        (m.metrics, "doc_cost", "metrics.doc_cost", None),
        (m.metrics, "corpus_bleu", "metrics.corpus_bleu", _pairs),
        (m.metrics, "ter", "metrics.ter", None),
        (m.metrics, "doc_ter", "metrics.doc_ter", _pairs),
        (m.metrics, "gleu", "metrics.gleu", _pairs),
        (m.mrt, "finetune", "mrt.finetune", None),
        (m.mrt, "doc_mrt_grad", "mrt.doc_mrt_grad", None),
        (m.harness, "make_batches", "harness.make_batches", None),
        (m.harness, "evaluate_corpus", "harness.evaluate_corpus", None),
        (m.harness, "decode_corpus", "harness.decode_corpus", None),
        (m.harness, "generate_synthetic_corpus", "harness.generate_synthetic_corpus", None),
        (m.harness, "train_mle_baseline", "harness.train_mle_baseline", None),
        (m.harness, "score_corpus", "harness.score_corpus", None),
        (m.cli, "main", "cli.main", None),
    ]


LAYERS = ("textcore", "model", "sampling", "metrics", "mrt", "harness", "cli")


class Tracer:
    """In-memory span recorder.

    A span is the tuple (span_id, parent_id, name, start, end, request); the
    parent of a top-level span is -1. Self time is a span's duration minus the
    durations of its direct children, which never overlap because the program
    is single-threaded.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extras: dict[str, float] = defaultdict(float)
        self.request = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, extras: Extras | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            request = self.request  # a span belongs to the request it started in
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, name, start, end, request))
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            if extras is not None:
                for key, value in extras(args, kwargs, result).items():
                    self.extras[f"{name}.{key}"] += value
            return result

        return traced

    def install(self, targets) -> None:
        for owner, attr, name, extras in targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, extras))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id\tparent_id\tname\tstart\tend\trequest\n")
            for span in self.spans:
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n" % span)


def self_times(spans) -> list[float]:
    """Self time of each span, in the order of `spans`."""
    child_s: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    return [end - start - child_s[span_id] for span_id, _, _, start, end, _ in spans]


def check_nesting(spans) -> list[str]:
    """Spans whose direct children cover more time than the span itself."""
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    problems = []
    for span_id, parent, name, start, end, _ in spans:
        if parent >= 0:
            p = by_id[parent]
            if start < p[3] or end > p[4]:
                problems.append(f"span {span_id} ({name}) escapes parent {parent}")
            child_s[parent] += end - start
    for span_id, total in child_s.items():
        span = by_id[span_id]
        if total > span[4] - span[3]:
            problems.append(f"children of span {span_id} ({span[2]}) exceed its duration")
    return problems

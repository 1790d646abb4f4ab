import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from docmrt import metrics, model, sampling
from docmrt.textcore import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    DocumentBatch,
    DocumentCorpus,
    build_vocab,
    decode,
    encode,
    encode_document_corpus,
    ngrams,
    read_document_corpus,
    write_document_corpus,
)


def test_reserved_ids():
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)


def test_build_vocab_frequency_and_ties():
    vocab = build_vocab(["a b", "a c"], max_size=10)
    assert vocab.tokens[4:] == ["a", "b", "c"]  # a most frequent, then first-seen
    assert len(vocab) == 7


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([], max_size=10)


def test_build_vocab_single_token():
    vocab = build_vocab(["x"], max_size=5)
    assert vocab.tokens[4:] == ["x"]
    assert len(vocab) == 5


def test_build_vocab_max_size_truncates():
    vocab = build_vocab(["a a a b b c"], max_size=6)
    assert vocab.tokens[4:] == ["a", "b"]


def test_build_vocab_rejects_small_max_size():
    with pytest.raises(ValueError):
        build_vocab(["a"], max_size=4)


def test_encode_known_unknown_empty():
    vocab = build_vocab(["a b", "a c"], max_size=10)
    assert encode("a b", vocab) == (vocab.id_of("a"), vocab.id_of("b"))
    assert encode("z", vocab) == (UNK_ID,)
    assert encode("", vocab) == ()


def test_decode_round_trip_and_errors():
    vocab = build_vocab(["a b", "a c"], max_size=10)
    assert decode(encode("a b", vocab), vocab) == "a b"
    assert decode((), vocab) == ""
    with pytest.raises(ValueError, match="out of range"):
        decode((99,), vocab)


@given(st.lists(st.sampled_from("abc"), max_size=12))
def test_encode_decode_round_trip_in_vocab(tokens):
    vocab = build_vocab(["a b c"], max_size=10)
    text = " ".join(tokens)
    assert decode(encode(text, vocab), vocab) == text


def test_ngrams_enumeration():
    assert ngrams((4, 5, 4), 2) == {(4, 5): 1, (5, 4): 1}
    assert ngrams((), 1) == {}
    assert ngrams((4, 5), 3) == {}
    assert ngrams((4, 4, 4), 2) == {(4, 4): 2}


@given(st.lists(st.integers(0, 6), max_size=15), st.integers(1, 6))
def test_ngram_total_multiplicity(tokens, n):
    grams = ngrams(tuple(tokens), n)
    assert sum(grams.values()) == max(len(tokens) - n + 1, 0)


def test_document_batch_alignment_checked():
    with pytest.raises(ValueError):
        DocumentBatch(sources=[(4,)], references=[], doc_ids=[0])


def test_documents_grouping():
    corpus = DocumentCorpus(
        [((4,), (4,), 0), ((5,), (5,), 0), ((4, 4), (4, 4), 1)]
    )
    docs = corpus.documents()
    assert [len(d) for d in docs] == [2, 1]


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_read_document_corpus(tmp_path):
    vocab = build_vocab(["a b c"], max_size=10)
    _write(tmp_path / "x.src", ["a b", "c", "a"])
    _write(tmp_path / "x.ref", ["b a", "c", "a"])
    _write(tmp_path / "x.docid", ["0", "0", "1"])
    corpus = read_document_corpus(
        tmp_path / "x.src", tmp_path / "x.ref", vocab, tmp_path / "x.docid"
    )
    assert [len(d) for d in corpus.documents()] == [2, 1]
    assert corpus.entries[0][0] == encode("a b", vocab)


def test_write_document_corpus_round_trips_and_overwrites(tmp_path):
    vocab = build_vocab(["a b c"], max_size=10)
    stem = tmp_path / "x"
    _write(tmp_path / "x.src", ["stale", "lines", "here"])
    corpus = DocumentCorpus([(encode("a b", vocab), (), 0), ((), encode("c", vocab), 3)])
    write_document_corpus(corpus, vocab, stem)
    assert (tmp_path / "x.src").read_text(encoding="utf-8") == "a b\n\n"
    assert (tmp_path / "x.docid").read_text(encoding="utf-8") == "0\n3\n"
    paths = (tmp_path / "x.src", tmp_path / "x.ref", vocab, tmp_path / "x.docid")
    assert read_document_corpus(*paths) == corpus


def test_read_document_corpus_mismatch(tmp_path):
    vocab = build_vocab(["a"], max_size=5)
    _write(tmp_path / "x.src", ["a", "a"])
    _write(tmp_path / "x.ref", ["a"])
    with pytest.raises(ValueError, match="mismatch"):
        read_document_corpus(tmp_path / "x.src", tmp_path / "x.ref", vocab, None, 1)


def test_read_document_corpus_bad_docid(tmp_path):
    vocab = build_vocab(["a"], max_size=5)
    _write(tmp_path / "x.src", ["a"])
    _write(tmp_path / "x.ref", ["a"])
    _write(tmp_path / "x.docid", ["zero"])
    with pytest.raises(ValueError, match="doc id"):
        read_document_corpus(
            tmp_path / "x.src", tmp_path / "x.ref", vocab, tmp_path / "x.docid"
        )


def test_read_document_corpus_pseudo_docs(tmp_path):
    vocab = build_vocab(["a"], max_size=5)
    _write(tmp_path / "x.src", ["a", "a", "a"])
    _write(tmp_path / "x.ref", ["a", "a", "a"])
    corpus = read_document_corpus(
        tmp_path / "x.src", tmp_path / "x.ref", vocab, None, pseudo_doc_size=2
    )
    assert [e[2] for e in corpus.entries] == [0, 0, 1]


def _params():
    return model.init_params(6, 2, 2, seed=0)


def _batch():
    return DocumentBatch(sources=[(4,)], references=[(4,)], doc_ids=[0])


# (setting, its lower bound, the bad value, a call that passes the bad value), by site
FORMER_AD_HOC_BOUNDS = [
    pytest.param("max_size", 5, 4, lambda: build_vocab(["a"], max_size=4), id="build_vocab"),
    pytest.param("n", 1, 0, lambda: ngrams((4, 5), 0), id="ngrams"),
    pytest.param("pseudo_doc_size", 1, -2, lambda: encode_document_corpus(
        ["a"], ["a"], build_vocab(["a"], max_size=5), pseudo_doc_size=-2),
        id="encode_document_corpus"),
    pytest.param("max_n", 1, 0, lambda: metrics.extractor("bleu", (4, 5), max_n=0),
                 id="extractor"),
    pytest.param("max_len", 1, 0, lambda: model.Decoder(_params(), (4,), 0), id="Decoder"),
    pytest.param("beam_size", 1, 0, lambda: model.Decoder(_params(), (4,), 3).beam(0),
                 id="Decoder.beam"),
    pytest.param("max_len", 1, -1, lambda: model.weighted_log_prob_grad(
        _params(), [(4,)], [(4,)], [1.0], -1), id="weighted_log_prob_grad"),
    pytest.param("n_samples", 1, 0, lambda: sampling.draw_sample_set(
        _params(), _batch(), 0, 1.0, np.random.default_rng(0), 3,
        metrics.CostKind.ONE_MINUS_SBLEU), id="draw_sample_set"),
]


@pytest.mark.parametrize("name, low, value, call", FORMER_AD_HOC_BOUNDS)
def test_every_lower_bound_names_its_setting_and_value(name, low, value, call):
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {value}$"):
        call()


# (a call with one column a line short or long, the message naming both columns), by site
MISALIGNED_COLUMNS = [
    pytest.param(lambda: encode_document_corpus(
        ["a", "a"], ["a"], build_vocab(["a"], max_size=5), None, 1),
        "2 sources vs 1 references", id="encode_document_corpus-references"),
    pytest.param(lambda: encode_document_corpus(
        ["a"], ["a"], build_vocab(["a"], max_size=5), ["0", "0"]),
        "1 sources vs 2 doc ids", id="encode_document_corpus-doc_ids"),
    pytest.param(lambda: metrics.line_stats("bleu", [(4,), (5,)], [(4,)]),
                 "2 hypotheses vs 1 references", id="line_stats-references"),
    pytest.param(lambda: metrics.line_stats("gleu", [(4,)], [(4,)], [(4,), (5,)]),
                 "1 hypotheses vs 2 sources", id="line_stats-sources"),
    pytest.param(lambda: DocumentBatch(sources=[(4,)], references=[], doc_ids=[0]),
                 "1 sources vs 0 references", id="DocumentBatch-references"),
    pytest.param(lambda: DocumentBatch(sources=[(4,)], references=[(4,)], doc_ids=[0, 0]),
                 "1 sources vs 2 doc ids", id="DocumentBatch-doc_ids"),
]


@pytest.mark.parametrize("call, counts", MISALIGNED_COLUMNS)
def test_every_alignment_check_names_both_columns_and_counts(call, counts):
    with pytest.raises(ValueError, match=f"^line count mismatch: {counts}$"):
        call()

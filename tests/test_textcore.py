import pytest
from hypothesis import given
from hypothesis import strategies as st

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

"""Vocabulary, token-id sentences, and aligned document lines and their I/O.

A corpus, a split and a training batch are each a DocumentBatch; a document is
the line range of a run of equal doc ids (document_ranges). A corpus on disk is
three line-aligned files under one stem: <stem>.src, <stem>.ref and <stem>.docid,
whose doc ids are non-decreasing. read_document_corpus and write_document_corpus
are the only code that knows it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

# A sentence is a tuple of token ids. BOS/EOS are never stored; the model
# layer adds them around the sequence.
Sentence = tuple[int, ...]


def at_least(low: float, **settings: float) -> None:
    """Reject the first of settings that is below low (or NaN), naming it and its value."""
    for name, value in settings.items():
        if not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def aligned(**columns) -> None:
    """Reject the first column whose line count differs from the first column's,
    naming both and their counts; a None column is absent."""
    (first, lines), *others = columns.items()
    for name, other in others:
        if other is not None and len(other) != len(lines):
            counts = f"{len(lines)} {first} vs {len(other)} {name}".replace("_", " ")
            raise ValueError(f"line count mismatch: {counts}")


@dataclass
class Vocabulary:
    """Token table with ids 0-3 reserved for PAD/BOS/EOS/UNK."""

    tokens: list[str]
    _ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.tokens) < 5:
            raise ValueError("vocabulary needs at least one non-reserved token")
        if tuple(self.tokens[:4]) != RESERVED_TOKENS:
            raise ValueError("ids 0-3 must be the reserved tokens")
        self._ids = {}
        for i, tok in enumerate(self.tokens):
            if self._ids.setdefault(tok, i) != i:
                raise ValueError(f"duplicate token {tok!r} in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ValueError(f"token id {token_id} out of range")
        return self.tokens[token_id]


@dataclass
class DocumentBatch:
    """Aligned source and reference lines with their doc ids, held as columns:
    a corpus, or S sentence pairs sharing one training batch (a pseudo-document)."""

    sources: list[Sentence]
    references: list[Sentence]
    doc_ids: list[int]

    def __post_init__(self):
        aligned(sources=self.sources, references=self.references, doc_ids=self.doc_ids)

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def entries(self) -> list[tuple[Sentence, Sentence, int]]:
        """The (source, reference, doc_id) rows."""
        return list(zip(self.sources, self.references, self.doc_ids))

    def lines(self, index) -> DocumentBatch:
        """The lines at the line numbers of index, in its order."""
        columns = (self.sources, self.references, self.doc_ids)
        return DocumentBatch(*([column[i] for i in index] for column in columns))

    def documents(self) -> list[range]:
        """Each document's line range, in corpus order."""
        return document_ranges(self.doc_ids)


def document_ranges(doc_ids: list[int]) -> list[range]:
    """The line range of each run of equal doc ids, in order: a document's lines."""
    starts = [k for k, doc_id in enumerate(doc_ids) if k == 0 or doc_id != doc_ids[k - 1]]
    return [range(start, stop) for start, stop in zip(starts, starts[1:] + [len(doc_ids)])]


def build_vocab(lines: list[str], max_size: int) -> Vocabulary:
    """Keep the most frequent whitespace tokens, ties broken by first occurrence."""
    at_least(5, max_size=max_size)
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    pos = 0
    for line in lines:
        for tok in line.split():
            counts[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = pos
                pos += 1
    if not counts:
        raise ValueError("empty corpus")
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    kept = [t for t in ranked if t not in RESERVED_TOKENS][: max_size - 4]
    return Vocabulary(list(RESERVED_TOKENS) + kept)


def encode(line: str, vocab: Vocabulary) -> Sentence:
    """Whitespace-split tokens mapped to ids; unknown tokens map to UNK."""
    return tuple(vocab.id_of(tok) for tok in line.split())


def decode(sentence: Sentence, vocab: Vocabulary) -> str:
    """Space-joined surface forms; inverse of encode for in-vocabulary text."""
    return " ".join(vocab.token_of(i) for i in sentence)


def read_lines(path: str | Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def read_document_corpus(stem: str | Path, vocab: Vocabulary) -> DocumentBatch:
    """Read <stem>.src, <stem>.ref and <stem>.docid, the files write_document_corpus
    writes; a stem without lines is an error naming it, and doc-id errors name
    <stem>.docid (see document_ids)."""
    docid_path = f"{stem}.docid"
    src_lines, ref_lines, id_lines = map(read_lines, (f"{stem}.src", f"{stem}.ref", docid_path))
    aligned(sources=src_lines, references=ref_lines, doc_ids=id_lines)
    if not id_lines:
        raise ValueError(f"empty corpus: {stem}.src, .ref and .docid have no lines")
    return DocumentBatch(
        [encode(line, vocab) for line in src_lines],
        [encode(line, vocab) for line in ref_lines],
        document_ids(id_lines, docid_path),
    )


def document_ids(id_lines: list[str], docid_path=None) -> list[int]:
    """Each line's doc id, parsed and non-decreasing in file order; errors name
    the line, and docid_path if given."""
    of, doc_ids = "" if docid_path is None else f" of {docid_path}", []
    for lineno, line in enumerate(id_lines, start=1):
        try:
            doc_ids.append(int(line))
        except ValueError:
            raise ValueError(f"unparseable doc id {line!r} on line {lineno}{of}") from None
        if lineno > 1 and doc_ids[-1] < doc_ids[-2]:
            bad = f"line {lineno}{of} has {doc_ids[-1]} after {doc_ids[-2]}"
            raise ValueError(f"doc ids must be non-decreasing in file order: {bad}")
    return doc_ids


def write_document_corpus(corpus: DocumentBatch, vocab: Vocabulary, stem: str | Path) -> None:
    """Write <stem>.src, <stem>.ref and <stem>.docid, the files read_document_corpus
    reads back; existing files are overwritten."""
    for suffix, column in (("src", corpus.sources), ("ref", corpus.references)):
        text = "".join(decode(sentence, vocab) + "\n" for sentence in column)
        Path(f"{stem}.{suffix}").write_text(text, encoding="utf-8")
    text = "".join(f"{doc_id}\n" for doc_id in corpus.doc_ids)
    Path(f"{stem}.docid").write_text(text, encoding="utf-8")

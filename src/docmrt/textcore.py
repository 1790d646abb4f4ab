"""Vocabulary, token-id sentences, n-gram extraction, and document corpus I/O."""

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
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ValueError(f"token id {token_id} out of range")
        return self.tokens[token_id]


@dataclass
class DocumentCorpus:
    """Aligned (source, reference, doc_id) entries; doc_ids contiguous per document."""

    entries: list[tuple[Sentence, Sentence, int]]

    def __len__(self) -> int:
        return len(self.entries)

    def documents(self) -> list[list[tuple[Sentence, Sentence, int]]]:
        """Entries grouped into documents, preserving corpus order."""
        docs: list[list[tuple[Sentence, Sentence, int]]] = []
        last_id = None
        for entry in self.entries:
            if entry[2] != last_id:
                docs.append([])
                last_id = entry[2]
            docs[-1].append(entry)
        return docs


@dataclass
class DocumentBatch:
    """S aligned sentence pairs sharing one training batch (a pseudo-document)."""

    sources: list[Sentence]
    references: list[Sentence]
    doc_ids: list[int]

    def __post_init__(self):
        aligned(sources=self.sources, references=self.references, doc_ids=self.doc_ids)

    def __len__(self) -> int:
        return len(self.sources)


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


def ngrams(sentence: Sentence, n: int) -> Counter:
    """Multiset of all contiguous length-n subsequences."""
    at_least(1, n=n)
    seq = tuple(sentence)
    return Counter(seq[i : i + n] for i in range(len(seq) - n + 1))


def read_lines(path: str | Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def read_document_corpus(
    src_path: str | Path,
    ref_path: str | Path,
    vocab: Vocabulary,
    docid_path: str | Path | None = None,
    pseudo_doc_size: int | None = None,
) -> DocumentCorpus:
    """Read parallel source/reference files plus a doc-id sidecar.

    Without a doc-id file, pseudo_doc_size S assigns doc_id = line_index // S.
    """
    id_lines = read_lines(docid_path) if docid_path is not None else None
    return encode_document_corpus(
        read_lines(src_path), read_lines(ref_path), vocab, id_lines, pseudo_doc_size
    )


def encode_document_corpus(
    src_lines: list[str],
    ref_lines: list[str],
    vocab: Vocabulary,
    id_lines: list[str] | None = None,
    pseudo_doc_size: int | None = None,
) -> DocumentCorpus:
    """Encode parallel source/reference lines with doc ids from id_lines, or in
    blocks of pseudo_doc_size lines when there are none."""
    aligned(sources=src_lines, references=ref_lines, doc_ids=id_lines)
    if id_lines is not None:
        doc_ids: list[int] = []
        for lineno, line in enumerate(id_lines, start=1):
            try:
                doc_ids.append(int(line))
            except ValueError:
                raise ValueError(f"unparseable doc id {line!r} on line {lineno}") from None
            if lineno > 1 and doc_ids[-1] < doc_ids[-2]:
                bad = f"line {lineno} has {doc_ids[-1]} after {doc_ids[-2]}"
                raise ValueError(f"doc ids must be non-decreasing in file order: {bad}")
    elif pseudo_doc_size is not None:
        at_least(1, pseudo_doc_size=pseudo_doc_size)
        doc_ids = [i // pseudo_doc_size for i in range(len(src_lines))]
    else:
        raise ValueError("either a doc-id file or pseudo_doc_size is required")
    entries = [
        (encode(src, vocab), encode(ref, vocab), doc_id)
        for src, ref, doc_id in zip(src_lines, ref_lines, doc_ids)
    ]
    return DocumentCorpus(entries)


def write_document_corpus(corpus: DocumentCorpus, vocab: Vocabulary, stem: str | Path) -> None:
    """Write <stem>.src, <stem>.ref and <stem>.docid, the files read_document_corpus
    reads back; existing files are overwritten."""
    for suffix, column in (("src", 0), ("ref", 1)):
        text = "".join(decode(entry[column], vocab) + "\n" for entry in corpus.entries)
        Path(f"{stem}.{suffix}").write_text(text, encoding="utf-8")
    text = "".join(f"{doc_id}\n" for _, _, doc_id in corpus.entries)
    Path(f"{stem}.docid").write_text(text, encoding="utf-8")

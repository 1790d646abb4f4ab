import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import re

import numpy as np
import pytest

from docmrt import cli, harness, metrics, model, mrt
from docmrt.harness import (
    TaskSpec,
    enum_check,
    generate_synthetic_corpus,
    grad_check,
    make_batches,
    run_experiment,
    score_corpus,
    train_mle_baseline,
)
from docmrt.metrics import CostKind


def test_generate_copy_rule_without_noise():
    task = TaskSpec(vocab_size=10, rule=harness.RULE_COPY, num_documents=4, seed=1)
    train, valid, test = generate_synthetic_corpus(task)
    for corpus in (train, valid, test):
        for src, ref, _ in corpus.entries:
            assert ref == src
    assert len(train) == 4 * task.sentences_per_doc


def test_generate_reverse_rule():
    task = TaskSpec(vocab_size=10, rule=harness.RULE_REVERSE, num_documents=3, seed=2)
    train, _, _ = generate_synthetic_corpus(task)
    for src, ref, _ in train.entries:
        assert ref == tuple(reversed(src))


def test_generate_sources_are_successor_runs():
    task = TaskSpec(vocab_size=12, rule=harness.RULE_COPY, num_documents=3, seed=3)
    train, _, _ = generate_synthetic_corpus(task)
    content = task.vocab_size - 4
    for src, _, _ in train.entries:
        for a, b in zip(src, src[1:]):
            assert (b - 4) == ((a - 4) + 1) % content


def test_generate_style_consistency_is_per_document():
    task = TaskSpec(
        vocab_size=16, rule=harness.RULE_CIPHER, style_consistency=True,
        style_weight=0.5, num_documents=30, seed=4,
    )
    train, _, _ = generate_synthetic_corpus(task)
    variants_seen = set()
    # recover the two cipher variants the generator drew
    rng = np.random.default_rng(task.seed if task.cipher_seed is None else task.cipher_seed)
    content = list(range(4, task.vocab_size))
    cipher_a = rng.permutation(content)
    cipher_b = rng.permutation(content)
    maps = {"a": {t: int(cipher_a[t - 4]) for t in content},
            "b": {t: int(cipher_b[t - 4]) for t in content}}
    for doc in train.documents():
        doc_variants = set()
        for src, ref, _ in doc:
            for name, mapping in maps.items():
                if ref == tuple(mapping[t] for t in src):
                    doc_variants.add(name)
        # every sentence in the document is explained by a single variant
        assert len(doc_variants) >= 1
        consistent = [
            name
            for name, mapping in maps.items()
            if all(ref == tuple(mapping[t] for t in src) for src, ref, _ in doc)
        ]
        assert consistent, "document mixes cipher variants"
        variants_seen.update(consistent)
    assert variants_seen == {"a", "b"}  # both variants occur across documents


def test_cipher_seed_shares_transduction_across_corpus_seeds():
    base = TaskSpec(
        vocab_size=12, rule=harness.RULE_CIPHER, num_documents=5, seed=3, cipher_seed=3
    )
    shifted = TaskSpec(
        vocab_size=12, rule=harness.RULE_CIPHER, num_documents=5, seed=4, cipher_seed=3
    )
    mapping = {}
    for corpus in (*generate_synthetic_corpus(base), *generate_synthetic_corpus(shifted)):
        for src, ref, _ in corpus.entries:
            for s_tok, r_tok in zip(src, ref):
                assert mapping.setdefault(s_tok, r_tok) == r_tok  # one shared cipher
    # different sentence draws, same transduction
    a = generate_synthetic_corpus(base)[0].entries
    b = generate_synthetic_corpus(shifted)[0].entries
    assert [e[0] for e in a] != [e[0] for e in b]


def test_generate_noise_applies_to_train_only():
    task = TaskSpec(
        vocab_size=10, rule=harness.RULE_COPY, noise_rate=0.5,
        num_documents=20, valid_documents=10, test_documents=10, seed=5,
    )
    train, valid, test = generate_synthetic_corpus(task)
    assert any(ref != src for src, ref, _ in train.entries)
    assert all(ref == src for src, ref, _ in valid.entries)
    assert all(ref == src for src, ref, _ in test.entries)


def test_generate_is_deterministic():
    task = TaskSpec(vocab_size=10, num_documents=5, style_consistency=True, seed=6)
    a = generate_synthetic_corpus(task)
    b = generate_synthetic_corpus(task)
    for ca, cb in zip(a, b):
        assert ca.entries == cb.entries


def test_taskspec_validation():
    with pytest.raises(ValueError, match="rule"):
        TaskSpec(rule=7).validate()
    with pytest.raises(ValueError, match="cipher"):
        TaskSpec(rule=harness.RULE_COPY, style_consistency=True).validate()
    with pytest.raises(ValueError):
        TaskSpec(vocab_size=4).validate()
    with pytest.raises(ValueError):
        TaskSpec(len_min=0).validate()


# one out-of-range value of every bounded TrainConfig and TaskSpec field
BOUNDED_FIELDS = [
    (mrt.TrainConfig, "n_samples", 0), (mrt.TrainConfig, "batch_size", 0),
    (mrt.TrainConfig, "batch_size", -2), (mrt.TrainConfig, "accum_steps", 0),
    (mrt.TrainConfig, "max_len", 0), (mrt.TrainConfig, "max_updates", -1),
    (mrt.TrainConfig, "tau", 0.0), (mrt.TrainConfig, "alpha", -1.0),
    (mrt.TrainConfig, "learning_rate", 0.0), (TaskSpec, "vocab_size", 4),
    (TaskSpec, "len_min", 0), (TaskSpec, "len_max", 2), (TaskSpec, "sentences_per_doc", 0),
    (TaskSpec, "num_documents", 0), (TaskSpec, "valid_documents", 0),
    (TaskSpec, "test_documents", -1), (TaskSpec, "noise_rate", 2.0),
    (TaskSpec, "noise_rate", -0.1), (TaskSpec, "style_weight", 1.5),
    (TaskSpec, "style_weight", math.nan),
]
# numeric fields with no bound: seeds, and rule ids checked against a list
UNBOUNDED_FIELDS = {"seed", "rule", "cipher_seed"}


def test_bounded_fields_cover_every_numeric_setting():
    for cls in (mrt.TrainConfig, TaskSpec):
        numeric = {
            f.name for f in dataclasses.fields(cls)
            if type(f.default) in (int, float) and f.name not in UNBOUNDED_FIELDS
        }
        assert numeric == {name for owner, name, _ in BOUNDED_FIELDS if owner is cls}


@pytest.mark.parametrize(
    "cls, name, value", [pytest.param(*row, id=f"{row[1]}={row[2]}") for row in BOUNDED_FIELDS]
)
def test_a_bad_bounded_field_is_named_with_its_value(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .* got {re.escape(str(value))}$"):
        cls(**{name: value}).validate()


def test_make_batches_document_mode_single_doc_per_batch():
    task = TaskSpec(vocab_size=10, sentences_per_doc=5, num_documents=6, seed=7)
    train, _, _ = generate_synthetic_corpus(task)
    batches = make_batches(train, "document", 2, seed=0)
    for batch in batches:
        assert len(set(batch.doc_ids)) == 1
        assert len(batch) <= 2
    total = sum(len(b) for b in batches)
    assert total == len(train)


def test_make_batches_random_mode_partition_and_determinism():
    task = TaskSpec(vocab_size=10, sentences_per_doc=3, num_documents=5, seed=8)
    train, _, _ = generate_synthetic_corpus(task)
    a = make_batches(train, "random", 4, seed=3)
    b = make_batches(train, "random", 4, seed=3)
    assert [x.sources for x in a] == [x.sources for x in b]
    # union covers the corpus exactly once, short final batch kept
    assert sorted(len(x) for x in a) == [3, 4, 4, 4]
    seen = sorted(
        (tuple(src), tuple(ref)) for batch in a for src, ref in zip(batch.sources, batch.references)
    )
    want = sorted((tuple(s), tuple(r)) for s, r, _ in train.entries)
    assert seen == want


def test_make_batches_errors():
    task = TaskSpec(vocab_size=10, num_documents=2, seed=9)
    train, _, _ = generate_synthetic_corpus(task)
    with pytest.raises(ValueError):
        make_batches(train, "diagonal", 2, seed=0)
    from docmrt.textcore import DocumentCorpus

    with pytest.raises(ValueError):
        make_batches(DocumentCorpus([]), "random", 2, seed=0)
    with pytest.raises(ValueError, match="^batch_size must be >= 1, got 0$"):
        make_batches(train, "random", 0, seed=0)


# ---------------------------------------------------------------------------
# corpus scoring
# ---------------------------------------------------------------------------


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_score_corpus_identity_files(tmp_path):
    lines = ["the cat sat", "on the mat"]
    _write_lines(tmp_path / "hyp.txt", lines)
    _write_lines(tmp_path / "ref.txt", lines)
    bleu = score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", metric="bleu")
    ter = score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", metric="ter")
    assert bleu["corpus_score"] == 1.0
    assert ter["corpus_score"] == 0.0


def test_score_corpus_delegates_to_metrics(tmp_path):
    hyps = ["a b c", "d e"]
    refs = ["a x c", "d e"]
    _write_lines(tmp_path / "hyp.txt", hyps)
    _write_lines(tmp_path / "ref.txt", refs)
    report = score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", metric="bleu")
    vocab = harness.textcore.build_vocab(hyps + refs, max_size=100)
    expected = metrics.corpus_bleu(
        [harness.textcore.encode(h, vocab) for h in hyps],
        [harness.textcore.encode(r, vocab) for r in refs],
    ).value
    assert report["corpus_score"] == expected


def test_score_corpus_ter_per_document_aggregates_to_corpus(tmp_path):
    hyps = ["a b c d", "e f", "g h x"]
    refs = ["a x c d", "e f", "g h i"]
    _write_lines(tmp_path / "hyp.txt", hyps)
    _write_lines(tmp_path / "ref.txt", refs)
    _write_lines(tmp_path / "ids.txt", ["0", "0", "1"])
    report = score_corpus(
        tmp_path / "hyp.txt", tmp_path / "ref.txt", docid_path=tmp_path / "ids.txt", metric="ter"
    )
    # pooled edits / pooled lengths must reassemble from the per-document rows
    num = sum(row["score"] * _ref_len(refs, row, report) for row in report["per_document"])
    assert math.isclose(report["corpus_score"], num / 9, abs_tol=1e-12)
    assert [row["doc_id"] for row in report["per_document"]] == [0, 1]


def _ref_len(refs, row, report):
    lens = [len(r.split()) for r in refs]
    if row["doc_id"] == 0:
        return lens[0] + lens[1]
    return lens[2]


def test_score_corpus_ter_pools_empty_reference_lines(tmp_path):
    # "b c" against an empty reference adds 2 edits and no reference length
    _write_lines(tmp_path / "hyp.txt", ["a x", "b c", "d"])
    _write_lines(tmp_path / "ref.txt", ["a b", "", "d"])
    _write_lines(tmp_path / "ids.txt", ["0", "0", "1"])
    paths = (tmp_path / "hyp.txt", tmp_path / "ref.txt")
    report = score_corpus(*paths, docid_path=tmp_path / "ids.txt", metric="ter")
    assert report["corpus_score"] == 3 / 3
    assert [row["score"] for row in report["per_document"]] == [3 / 2, 0.0]
    assert score_corpus(*paths, metric="bleu")["corpus_score"] == 0.0  # no bigram matches


def test_score_corpus_ter_names_document_with_only_empty_references(tmp_path):
    _write_lines(tmp_path / "hyp.txt", ["a", "b", "c"])
    _write_lines(tmp_path / "ref.txt", ["a", "", ""])
    _write_lines(tmp_path / "ids.txt", ["0", "7", "7"])
    argv = ["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")]
    with pytest.raises(ValueError, match="document 7: TER needs a non-empty reference"):
        score_corpus(
            tmp_path / "hyp.txt", tmp_path / "ref.txt",
            docid_path=tmp_path / "ids.txt", metric="ter",
        )
    assert cli.main(argv + ["--docid", str(tmp_path / "ids.txt"), "--metric", "ter"]) == 2
    assert cli.main(argv + ["--metric", "ter"]) == 0  # one document with |ref| = 1


def test_score_corpus_gleu_requires_sources(tmp_path):
    _write_lines(tmp_path / "hyp.txt", ["a"])
    _write_lines(tmp_path / "ref.txt", ["a"])
    with pytest.raises(ValueError, match="source"):
        score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", metric="gleu")


def test_score_corpus_misaligned_files(tmp_path):
    _write_lines(tmp_path / "hyp.txt", ["a", "b"])
    _write_lines(tmp_path / "ref.txt", ["a"])
    with pytest.raises(ValueError, match="mismatch"):
        score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", metric="bleu")


def test_score_corpus_misalignment_names_hypotheses(tmp_path, monkeypatch):
    _write_lines(tmp_path / "hyp.txt", ["a", "b", "c"])
    _write_lines(tmp_path / "ref.txt", ["a", "b"])
    _write_lines(tmp_path / "ids.txt", ["0", "0", "1", "1"])
    with pytest.raises(ValueError, match="line count mismatch: 3 hypotheses vs 2 references"):
        score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt")
    _write_lines(tmp_path / "ref.txt", ["a", "b", "c"])
    with pytest.raises(ValueError, match="line count mismatch: 3 hypotheses vs 4 doc ids"):
        score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", docid_path=tmp_path / "ids.txt")
    _write_lines(tmp_path / "ids.txt", [])
    with pytest.raises(ValueError, match="line count mismatch: 3 hypotheses vs 0 doc ids"):
        score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", docid_path=tmp_path / "ids.txt")
    _write_lines(tmp_path / "src.txt", ["a", "b"])
    monkeypatch.setattr(metrics, "line_stats", lambda *args: pytest.fail("extracted"))
    for metric in ("bleu", "gleu"):
        with pytest.raises(ValueError, match="^line count mismatch: 3 hypotheses vs 2 sources$"):
            score_corpus(
                tmp_path / "hyp.txt", tmp_path / "ref.txt", src_path=tmp_path / "src.txt",
                metric=metric,
            )


@pytest.mark.parametrize(
    "ids, error",
    [pytest.param(["0", "", "1"], "unparseable doc id '' on line 2", id="blank"),
     pytest.param(["0", "2", "1"], "doc ids must be non-decreasing in file order: line 3 has 1 "
                  "after 2", id="decreasing")],
)
def test_score_names_the_line_and_value_of_a_bad_doc_id(tmp_path, capsys, ids, error):
    for name, lines in (("hyp", ["a", "b", "c"]), ("ref", ["a", "b", "c"]), ("ids", ids)):
        _write_lines(tmp_path / f"{name}.txt", lines)
    capsys.readouterr()
    argv = ["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"),
            "--docid", str(tmp_path / "ids.txt")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""


def test_score_corpus_pseudo_docs(tmp_path):
    _write_lines(tmp_path / "hyp.txt", ["a", "b", "c", "d"])
    _write_lines(tmp_path / "ref.txt", ["a", "b", "c", "d"])
    report = score_corpus(
        tmp_path / "hyp.txt", tmp_path / "ref.txt", metric="bleu", pseudo_doc_size=2
    )
    assert [row["doc_id"] for row in report["per_document"]] == [0, 1]


def test_score_corpus_rejects_zero_pseudo_doc_size(tmp_path):
    _write_lines(tmp_path / "hyp.txt", ["a", "b"])
    _write_lines(tmp_path / "ref.txt", ["a", "b"])
    with pytest.raises(ValueError, match="pseudo_doc_size"):
        score_corpus(tmp_path / "hyp.txt", tmp_path / "ref.txt", pseudo_doc_size=0)


@pytest.mark.parametrize("with_docid", [False, True])
@pytest.mark.parametrize("size", [0, -2])
def test_a_bad_pseudo_doc_size_fails_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, size, with_docid
):
    # the hypothesis file does not exist, so only the bound can be the error;
    # a doc-id file does not excuse the bad setting
    hyp, ref, ids = tmp_path / "missing.txt", tmp_path / "ref.txt", tmp_path / "ids.txt"
    _write_lines(ref, ["a"])
    _write_lines(ids, ["0"])
    docid = ids if with_docid else None
    reads = []
    monkeypatch.setattr(harness.textcore, "read_lines", lambda path: reads.append(path))
    with pytest.raises(ValueError, match=f"^pseudo_doc_size must be >= 1, got {size}$"):
        score_corpus(hyp, ref, docid_path=docid, pseudo_doc_size=size)
    capsys.readouterr()
    argv = ["score", "--hyp", str(hyp), "--ref", str(ref), "--pseudo-docs", str(size)]
    assert cli.main(argv + (["--docid", str(ids)] if with_docid else [])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: pseudo_docs must be ")
    assert captured.err.endswith(f", got {size}\n") and captured.out == ""
    assert reads == []


def test_score_corpus_reads_each_file_once(tmp_path, monkeypatch):
    paths = [tmp_path / f"{name}.txt" for name in ("hyp", "ref", "src", "ids")]
    for path, lines in zip(paths, (["a b", "c"], ["a x", "c"], ["s t", "u"], ["0", "1"])):
        _write_lines(path, lines)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    score_corpus(paths[0], paths[1], src_path=paths[2], docid_path=paths[3], metric="gleu")
    assert sorted(opened) == sorted(str(path) for path in paths)


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------


def test_grad_check_passes_by_default():
    report = grad_check()
    assert report["passed"]
    assert [c["name"] for c in report["checks"]] == ["log_prob", "mle_loss", "exact_risk"]
    for check in report["checks"]:
        assert check["max_rel_err"] < check["threshold"]


def test_grad_check_detects_injected_fault():
    report = grad_check(corrupt=True)
    assert not report["passed"]


def test_grad_check_fails_when_its_function_goes_nan(monkeypatch):
    monkeypatch.setattr(model, "log_prob", lambda *args: math.nan)
    report = grad_check()
    assert [c["passed"] for c in report["checks"]] == [False, True, True]
    assert not report["passed"]


def test_enum_check_passes():
    report = enum_check(trials=20)
    assert report["passed"]
    assert report["max_deviation"] <= 1e-10


def test_check_settings_all_have_flags():
    subparsers = _subparsers(cli.build_parser())
    for name, check in (("grad-check", grad_check), ("enum-check", enum_check)):
        flags = {a.dest for a in subparsers[name]._actions} - {"help", "config", "out"}
        assert set(inspect.signature(check).parameters) == flags, name


# ---------------------------------------------------------------------------
# baseline training and experiments
# ---------------------------------------------------------------------------


def _tiny_experiment_config(tmp_path=None):
    return {
        "seed": 1,
        "vocab_size": 8,
        "emb_dim": 6,
        "hidden_dim": 8,
        "max_len": 5,
        "len_min": 1,
        "len_max": 3,
        "sentences_per_doc": 2,
        "train_documents": 10,
        "valid_documents": 4,
        "test_documents": 4,
        "finetune_documents": 6,
        "mle_max_updates": 60,
        "mle_eval_every": 30,
        "mle_batch_size": 4,
        "mrt_max_updates": 3,
        "mrt_batch_size": 2,
        "mrt_accum_steps": 2,
        "n_samples": 2,
        "modes": "doc_mrt_ordered,mle",
        "batchings": "document",
    }


def test_train_mle_baseline_learns_and_early_stops():
    task = TaskSpec(
        vocab_size=8, len_min=1, len_max=3, sentences_per_doc=2,
        num_documents=40, valid_documents=6, test_documents=6,
        rule=harness.RULE_COPY, seed=11,
    )
    train, valid, _ = generate_synthetic_corpus(task)
    cfg = mrt.TrainConfig(
        mode="mle", batch_size=8, learning_rate=0.8, max_updates=600,
        seed=3, max_len=5, batching="random",
    )
    params, log = train_mle_baseline(train, valid, 8, 6, 8, cfg, eval_every=100)
    scores = [rec["heldout_metric"] for rec in log if "heldout_metric" in rec]
    start = harness.evaluate_corpus(
        model.init_params(8, 6, 8, cfg.seed), valid, CostKind.ONE_MINUS_DOCBLEU,
        beam=4, max_len=5,
    ).value
    assert max(scores) > start + 0.2  # copying task is learnable


def test_train_mle_baseline_rejects_no_updates_before_training(monkeypatch):
    train, valid, _ = generate_synthetic_corpus(TaskSpec(vocab_size=8, num_documents=4, seed=1))
    monkeypatch.setattr(mrt, "finetune", lambda *args, **kwargs: pytest.fail("trained"))
    cfg = mrt.TrainConfig(mode="mle", max_updates=0, max_len=5)
    with pytest.raises(ValueError, match="max_updates"):
        train_mle_baseline(train, valid, 8, 6, 8, cfg)
    with pytest.raises(ValueError, match="max_updates"):
        run_experiment({**_tiny_experiment_config(), "mle_max_updates": 0})


@pytest.mark.parametrize("name, value", [("eval_every", 0), ("patience", -1)])
def test_train_mle_baseline_names_a_bad_schedule_before_initialising(monkeypatch, name, value):
    train, valid, _ = generate_synthetic_corpus(TaskSpec(vocab_size=8, num_documents=4, seed=1))
    monkeypatch.setattr(model, "init_params", lambda *args, **kwargs: pytest.fail("initialised"))
    cfg = mrt.TrainConfig(mode="mle", max_updates=2, max_len=5)
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        train_mle_baseline(train, valid, 8, 6, 8, cfg, **{name: value})


@pytest.mark.parametrize(
    "key, setting",
    [("tau", "tau"), ("alpha", "alpha"), ("mrt_learning_rate", "learning_rate"),
     ("mle_learning_rate", "learning_rate")],
)
def test_run_experiment_rejects_non_finite_settings_before_training(monkeypatch, key, setting):
    monkeypatch.setattr(mrt, "finetune", lambda *args, **kwargs: pytest.fail("trained"))
    monkeypatch.setattr(
        harness, "train_mle_baseline", lambda *args, **kwargs: pytest.fail("trained")
    )
    with pytest.raises(ValueError) as field_err:
        mrt.TrainConfig(**{setting: math.nan}).validate()
    with pytest.raises(ValueError, match=f"^{key} must be .*positive, got nan$") as err:
        run_experiment({**_tiny_experiment_config(), key: "nan"})
    # TrainConfig's rule, naming the experiment key that set the field
    assert str(err.value) == str(field_err.value).replace(setting, key)


# (experiment key, bad value, the CLI command and flag that set it, if any)
BAD_SETTINGS = [
    ("mle_eval_every", "0", ("train-mle", "--eval-every")),
    ("mle_eval_every", "-5", ("train-mle", "--eval-every")),
    ("mle_patience", "0", ("train-mle", "--patience")),
    ("mle_patience", "-1", ("train-mle", "--patience")),
    ("eval_beam", "0", None),
    ("mle_max_updates", "0", None),
    ("mle_learning_rate", "nan", ("train-mle", "--learning-rate")),
    ("mle_learning_rate", "inf", ("train-mle", "--learning-rate")),
    ("mrt_learning_rate", "nan", ("finetune-mrt", "--learning-rate")),
    ("mrt_learning_rate", "inf", ("finetune-mrt", "--learning-rate")),
    ("mle_batch_size", "0", ("train-mle", "--batch-size")),
    ("mle_accum_steps", "0", ("train-mle", "--accum-steps")),
    ("mrt_batch_size", "0", ("finetune-mrt", "--batch-size")),
    ("mrt_accum_steps", "-1", ("finetune-mrt", "--accum-steps")),
    ("mrt_max_updates", "-1", ("finetune-mrt", "--max-updates")),
    ("n_samples", "0", ("finetune-mrt", "--n-samples")),
    ("max_len", "0", ("finetune-mrt", "--max-len")),
    ("train_documents", "0", None),
    ("valid_documents", "0", None),
    ("test_documents", "0", None),
    ("finetune_documents", "0", None),
    ("baseline_style_weight", "-0.5", None),
    ("finetune_style_weight", "2.0", None),
    ("noise_rate", "1.5", None),
    ("vocab_size", "4", None),
    (None, "-1", ("finetune-mrt", "--eval-every")),
]


@pytest.mark.parametrize(
    "entry, key, value",
    [
        pytest.param(None, key, value, id=f"{key}={value}")
        for key, value, _ in BAD_SETTINGS
        if key is not None
    ]
    + [
        pytest.param(entry, key, value, id=f"{entry[0]}{entry[1]}={value}")
        for key, value, entry in BAD_SETTINGS
        if entry is not None
    ],
)
def test_bad_settings_fail_before_any_work_naming_themselves(
    tmp_path, capsys, monkeypatch, entry, key, value
):
    for name in ("generate_synthetic_corpus", "train_mle_baseline"):
        monkeypatch.setattr(harness, name, lambda *args, name=name, **kw: pytest.fail(name))
    if entry is None:
        with pytest.raises(ValueError, match=f"^{key} must be .*, got {value}$"):
            run_experiment({**_tiny_experiment_config(), key: value})
        return
    command, flag = entry
    argv = [
        command, "--data-dir", str(tmp_path / "data"), "--ckpt", str(tmp_path / "c.ckpt"),
        "--log", str(tmp_path / "log.jsonl"), f"{flag}={value}",
    ]
    if command == "finetune-mrt":
        argv += ["--out-ckpt", str(tmp_path / "tuned.ckpt")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    setting = flag[2:].replace("-", "_")
    assert captured.err.startswith(f"error: {setting} must be ")
    assert captured.err.endswith(f", got {value}\n") and captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no log


@pytest.mark.parametrize(
    "key, value, setting",
    [("modes", "batch_size", "mode"), ("modes", "mle_learning_rate", "mode"),
     ("estimator", "learning_rate", "estimator"), ("batchings", "accum_steps", "batching")],
)
def test_run_experiment_quotes_a_bad_value_unchanged(monkeypatch, key, value, setting):
    for name in ("generate_synthetic_corpus", "train_mle_baseline"):
        monkeypatch.setattr(harness, name, lambda *args, name=name, **kw: pytest.fail(name))
    with pytest.raises(ValueError, match=f"^unknown {setting} '{value}' \\(expected one of "):
        run_experiment({**_tiny_experiment_config(), key: value})


@pytest.mark.parametrize("by_file", [False, True])
@pytest.mark.parametrize(
    "key, value, error",
    [pytest.param("vocab_size", "nan", "invalid literal for int() with base 10: 'nan'", id="int"),
     pytest.param("tau", "fast", "could not convert string to float: 'fast'", id="float"),
     pytest.param("style_consistency", "maybe", "expected a boolean, got 'maybe'", id="bool")],
)
def test_run_experiment_names_the_config_key_of_a_value_that_does_not_parse(
    tmp_path, monkeypatch, key, value, error, by_file
):
    monkeypatch.setattr(
        harness, "generate_synthetic_corpus", lambda *args, **kwargs: pytest.fail("generated")
    )
    config = {key: value}
    if by_file:
        config = tmp_path / "experiment.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        run_experiment(config)
    assert str(err.value) == f"config key {key!r}: {error}"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--sentences-per-doc", "0", "sentences_per_doc must be >= 1, got 0"),
     ("--noise-rate", "2", "noise_rate must be in [0, 1], got 2.0"),
     ("--len-max", "2", "len_max must be >= 3, got 2")],
)
def test_cli_gen_data_names_a_bad_task_setting(tmp_path, capsys, flag, value, message):
    capsys.readouterr()
    assert cli.main(["gen-data", "--out-dir", str(tmp_path / "data"), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_leaves_mle_max_updates_unused_with_a_baseline_checkpoint(tmp_path):
    config = _tiny_experiment_config()
    ckpt = tmp_path / "base.ckpt"
    model.save_checkpoint(model.init_params(8, 6, 8, seed=0), ckpt)
    report = run_experiment({**config, "baseline_checkpoint": str(ckpt), "mle_max_updates": 0})
    assert {row["mode"] for row in report.rows} == {"doc_mrt_ordered", "mle"}


def test_run_experiment_scores_a_saved_baseline_as_it_scored_the_trained_one(tmp_path):
    # at seed 2 this baseline's beam-1 and beam-4 validation doc-BLEU differ
    config = {**_tiny_experiment_config(), "seed": 2, "eval_beam": 1, "modes": "mle"}
    ckpt = tmp_path / "base.ckpt"
    trained = run_experiment({**config, "save_baseline": str(ckpt)})
    loaded = run_experiment({**config, "baseline_checkpoint": str(ckpt)})
    assert loaded.baseline_valid_bleu == trained.baseline_valid_bleu
    assert loaded.start_scores == trained.start_scores


@pytest.mark.parametrize("ckpt_vocab", [6, 12])
def test_run_experiment_rejects_a_checkpoint_of_another_vocabulary(
    tmp_path, monkeypatch, ckpt_vocab
):
    ckpt = tmp_path / "base.ckpt"
    model.save_checkpoint(model.init_params(ckpt_vocab, 6, 8, seed=0), ckpt)
    monkeypatch.setattr(mrt, "finetune", lambda *a, **k: pytest.fail("trained"))
    config = {**_tiny_experiment_config(), "baseline_checkpoint": str(ckpt)}
    with pytest.raises(ValueError, match=f"vocabulary size {ckpt_vocab} != data's 8"):
        run_experiment(config)


def test_run_experiment_report_schema_and_rows():
    report = run_experiment(_tiny_experiment_config())
    assert {row["mode"] for row in report.rows} == {"doc_mrt_ordered", "mle"}
    assert all(row["batching"] == "document" for row in report.rows)
    for row in report.rows:
        for key in ("doc_bleu", "doc_ter", "doc_gleu"):
            assert key in row
    assert set(report.start_scores) == {"doc_bleu", "doc_ter", "doc_gleu"}
    assert report.wall_clock > 0


def test_run_experiment_reports_are_byte_identical():
    a = run_experiment(_tiny_experiment_config())
    b = run_experiment(_tiny_experiment_config())
    assert a.to_json() == b.to_json()
    assert "wall_clock" not in a.to_json()


def test_run_experiment_scores_reproducible_from_saved_decodes(tmp_path):
    config = dict(_tiny_experiment_config(), save_decodes=str(tmp_path / "decodes"))
    report = run_experiment(config)
    decodes = tmp_path / "decodes"
    for row in report.rows:
        hyp = decodes / f"{row['mode']}_{row['batching']}.hyp"
        for metric, key in (("bleu", "doc_bleu"), ("ter", "doc_ter"), ("gleu", "doc_gleu")):
            rescored = harness.score_corpus(
                hyp, decodes / "test.ref", src_path=decodes / "test.src",
                docid_path=decodes / "test.docid", metric=metric,
            )
            assert rescored["corpus_score"] == row[key]


def test_run_experiment_rewrites_saved_decodes_of_another_seed(tmp_path):
    decodes = tmp_path / "decodes"
    run_experiment(dict(_tiny_experiment_config(), seed=2, save_decodes=str(decodes)))
    report = run_experiment(dict(_tiny_experiment_config(), save_decodes=str(decodes)))
    for metric in metrics.METRICS:
        rescored = harness.score_corpus(
            decodes / "start.hyp", decodes / "test.ref", src_path=decodes / "test.src",
            docid_path=decodes / "test.docid", metric=metric,
        )
        assert rescored["corpus_score"] == report.start_scores[f"doc_{metric}"]


def test_run_experiment_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown experiment config key"):
        run_experiment({"surprise": 1})


def test_experiment_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("seed = 5\nmodes = mle  # comment\n\n", encoding="utf-8")
    resolved = harness.resolve_experiment_config(cfg_path)
    assert resolved["seed"] == 5
    assert resolved["modes"] == "mle"


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def test_cli_gen_data_score_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    rc = cli.main(
        [
            "gen-data", "--out-dir", str(data), "--vocab-size", "10",
            "--num-documents", "4", "--valid-documents", "2", "--test-documents", "2",
            "--rule", "0", "--seed", "3",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(
        [
            "score", "--hyp", str(data / "train.ref"), "--ref", str(data / "train.ref"),
            "--docid", str(data / "train.docid"), "--metric", "bleu",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["corpus_score"] == 1.0


def test_cli_grad_check_exit_codes(tmp_path, capsys):
    assert cli.main(["grad-check", "--out", str(tmp_path / "ok.json")]) == 0
    assert cli.main(["grad-check", "--corrupt", "--out", str(tmp_path / "bad.json")]) == 2
    ok = json.loads((tmp_path / "ok.json").read_text(encoding="utf-8"))
    assert ok["passed"]


def test_cli_enum_check(capsys):
    assert cli.main(["enum-check", "--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]


@pytest.mark.parametrize("trials", [0, -3])
def test_enum_check_rejects_fewer_than_one_trial(capsys, trials):
    with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
        enum_check(trials=trials)
    assert cli.main(["enum-check", "--trials", str(trials)]) == 2
    captured = capsys.readouterr()
    assert "trials" in captured.err and captured.out == ""


def test_cli_validation_failure_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    rc = cli.main(["score", "--hyp", str(missing), "--ref", str(missing)])
    assert rc == 2


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("vocab-size = 12\nnum-documents = 3\nseed = 9\n", encoding="utf-8")
    out_dir = tmp_path / "data"
    rc = cli.main(
        [
            "gen-data", "--config", str(cfg), "--out-dir", str(out_dir),
            "--num-documents", "2", "--rule", "0",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["task"]["vocab_size"] == 12  # from config file
    assert summary["task"]["num_documents"] == 2  # flag wins over config
    assert (out_dir / "train.src").exists()


def test_cli_config_file_booleans(tmp_path, capsys):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("corrupt = false\n", encoding="utf-8")
    assert cli.main(["grad-check", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    cfg.write_text("corrupt = true\n", encoding="utf-8")
    assert cli.main(["grad-check", "--config", str(cfg)]) == 2


def test_cli_config_file_equals_form(tmp_path, capsys):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("corrupt = true\n", encoding="utf-8")
    assert cli.main(["grad-check", f"--config={cfg}"]) == 2
    cfg.write_text("corrupt = false\n", encoding="utf-8")
    assert cli.main(["grad-check", f"--config={cfg}"]) == 0


def test_cli_config_file_unknown_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("corupt = true\n", encoding="utf-8")
    assert cli.main(["grad-check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'corupt'" in err and "grad-check" in err


def test_cli_config_file_bad_value_exit_code(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("style-consistency = maybe\n", encoding="utf-8")
    rc = cli.main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "data")])
    assert rc == 2
    assert "style_consistency" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_cli_train_and_finetune_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    assert (
        cli.main(
            [
                "gen-data", "--out-dir", str(data), "--vocab-size", "8",
                "--len-min", "1", "--len-max", "3", "--sentences-per-doc", "2",
                "--num-documents", "8", "--valid-documents", "2",
                "--test-documents", "2", "--rule", "0", "--seed", "2",
            ]
        )
        == 0
    )
    ckpt = tmp_path / "base.ckpt"
    rc = cli.main(
        [
            "train-mle", "--data-dir", str(data), "--ckpt", str(ckpt),
            "--emb-dim", "4", "--hidden-dim", "6", "--max-len", "5",
            "--max-updates", "20", "--eval-every", "10", "--batch-size", "4",
        ]
    )
    assert rc == 0
    assert ckpt.exists()
    capsys.readouterr()
    tuned = tmp_path / "tuned.ckpt"
    rc = cli.main(
        [
            "finetune-mrt", "--data-dir", str(data), "--ckpt", str(ckpt),
            "--out-ckpt", str(tuned), "--mode", "doc_mrt_ordered",
            "--n-samples", "2", "--batch-size", "2", "--accum-steps", "1",
            "--max-updates", "2", "--max-len", "5", "--log", str(tmp_path / "log.jsonl"),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "doc_mrt_ordered"
    loaded = model.load_checkpoint(tuned)
    assert loaded.vocab_size == 8
    log_lines = (tmp_path / "log.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(log_lines) == 2
    assert {"update", "mode", "risk", "seed"} <= set(json.loads(log_lines[0]))


@pytest.mark.parametrize(
    "line, bad, error",
    [pytest.param(5, "nan", ":6: non-finite", id="nan"),
     pytest.param(5, "0.1.2", ":6: unparseable", id="0.1.2"),
     pytest.param(5, "", ": theta has length 93, layout requires 94", id="truncated"),
     pytest.param(5, "0.0\n0.0", ": theta has length 95, layout requires 94", id="overlong"),
     pytest.param(0, "docmrt-ckpt v1 3 1 1", ":1: vocab_size must be >= 5, got 3", id="v1 3 1 1")],
)
def test_cli_finetune_rejects_bad_checkpoint(tmp_path, capsys, line, bad, error):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out-dir", str(data), "--vocab-size", "8", "--rule", "0"]) == 0
    params = model.init_params(12, 2, 2, seed=0)
    ckpt = tmp_path / "base.ckpt"
    model.save_checkpoint(params, ckpt)
    lines = ckpt.read_text(encoding="utf-8").splitlines()
    lines[line : line + 1] = bad.splitlines()  # "" drops the line
    ckpt.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    tuned = tmp_path / "tuned.ckpt"
    rc = cli.main(
        [
            "finetune-mrt", "--data-dir", str(data), "--ckpt", str(ckpt),
            "--out-ckpt", str(tuned), "--max-updates", "1",
        ]
    )
    assert rc == 2
    assert f"{ckpt}{error}" in capsys.readouterr().err
    assert not tuned.exists()


@pytest.mark.parametrize("ckpt_vocab", [6, 12])
def test_cli_finetune_rejects_a_checkpoint_of_another_vocabulary(tmp_path, capsys, ckpt_vocab):
    data, _ = tiny_data_and_checkpoint(tmp_path)
    ckpt, out, log = tmp_path / "other.ckpt", tmp_path / "out.ckpt", tmp_path / "log.jsonl"
    model.save_checkpoint(model.init_params(ckpt_vocab, 4, 6, seed=0), ckpt)
    argv = [
        "finetune-mrt", "--data-dir", str(data), "--ckpt", str(ckpt), "--out-ckpt", str(out),
        "--log", str(log), "--max-updates", "2", "--batch-size", "2", "--max-len", "5",
    ]
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"vocabulary size {ckpt_vocab} != data's 8" in captured.err and captured.out == ""
    assert not out.exists() and not log.exists()


def tiny_data_and_checkpoint(tmp_path):
    """A small gen-data directory and a random-init checkpoint for it."""
    data = tmp_path / "data"
    argv = [
        "gen-data", "--out-dir", str(data), "--vocab-size", "8", "--len-min", "1",
        "--len-max", "3", "--sentences-per-doc", "2", "--num-documents", "8",
        "--valid-documents", "2", "--test-documents", "2", "--rule", "0", "--seed", "2",
    ]
    assert cli.main(argv) == 0
    vocab, *_ = cli.load_data_dir(data)
    ckpt = tmp_path / "base.ckpt"
    model.save_checkpoint(model.init_params(len(vocab), 4, 6, seed=0), ckpt)
    return data, ckpt


@pytest.mark.parametrize("command", ["train-mle", "finetune-mrt"])
def test_cli_non_finite_training_exits_2_without_writing(
    tmp_path, capsys, overflowing_gradients, command
):
    data, ckpt = tiny_data_and_checkpoint(tmp_path)
    out, log = tmp_path / "out.ckpt", tmp_path / "log.jsonl"
    argv = [
        command, "--data-dir", str(data), "--log", str(log), "--learning-rate", "2",
        "--max-updates", "2", "--batch-size", "2", "--max-len", "5",
    ]
    if command == "train-mle":
        argv += ["--ckpt", str(out), "--emb-dim", "4", "--hidden-dim", "6"]
    else:
        argv += ["--ckpt", str(ckpt), "--out-ckpt", str(out), "--n-samples", "2"]
    capsys.readouterr()
    with np.errstate(over="ignore"):
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "update 0: non-finite updated parameters" in captured.err
    assert captured.out == ""
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("train-mle", "--learning-rate"), ("finetune-mrt", "--learning-rate"),
     ("finetune-mrt", "--tau"), ("finetune-mrt", "--alpha")],
)
def test_cli_rejects_nan_settings_before_training(tmp_path, capsys, monkeypatch, command, flag):
    data, ckpt = tiny_data_and_checkpoint(tmp_path)
    monkeypatch.setattr(mrt, "finetune", lambda *args, **kwargs: pytest.fail("trained"))
    out, log = tmp_path / "out.ckpt", tmp_path / "log.jsonl"
    argv = [command, "--data-dir", str(data), "--log", str(log), flag, "nan", "--max-len", "5"]
    if command == "train-mle":
        argv += ["--ckpt", str(out), "--emb-dim", "4", "--hidden-dim", "6"]
    else:
        argv += ["--ckpt", str(ckpt), "--out-ckpt", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"{flag[2:].replace('-', '_')} must be" in captured.err and captured.out == ""
    assert not out.exists() and not log.exists()


def test_cli_train_mle_without_updates_exits_2_without_writing(tmp_path, capsys):
    data, _ = tiny_data_and_checkpoint(tmp_path)
    out, log = tmp_path / "out.ckpt", tmp_path / "log.jsonl"
    argv = [
        "train-mle", "--data-dir", str(data), "--ckpt", str(out), "--log", str(log),
        "--max-updates", "0", "--emb-dim", "4", "--hidden-dim", "6",
    ]
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "max_updates" in captured.err and captured.out == ""
    assert not out.exists() and not log.exists()


def test_cli_finetune_reuses_the_last_heldout_evaluation(tmp_path, capsys, monkeypatch):
    data, ckpt = tiny_data_and_checkpoint(tmp_path)
    evaluate, calls = harness.evaluate_corpus, []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_corpus", counted)
    tuned, log = tmp_path / "tuned.ckpt", tmp_path / "log.jsonl"
    _, _, valid, _ = cli.load_data_dir(data)
    for eval_every, evaluations in (("2", 2), ("3", 2)):
        calls.clear()
        argv = [
            "finetune-mrt", "--data-dir", str(data), "--ckpt", str(ckpt),
            "--out-ckpt", str(tuned), "--log", str(log), "--n-samples", "2",
            "--batch-size", "2", "--accum-steps", "1", "--max-len", "5",
            "--max-updates", "4", "--eval-every", eval_every,
        ]
        capsys.readouterr()
        assert cli.main(argv) == 0
        # every 2: updates 2 and 4, and the report reuses update 4's value;
        # every 3: update 3, then a final evaluation of the tuned parameters
        assert len(calls) == evaluations
        final = evaluate(model.load_checkpoint(tuned), valid, CostKind.ONE_MINUS_DOCBLEU, 4, 5)
        last = json.loads(log.read_text(encoding="utf-8").splitlines()[-1])
        report = {
            "checkpoint": str(tuned), "mode": "doc_mrt_ordered", "updates": 4,
            "final_risk": last["risk"],
            "valid_metric": {"kind": final.kind, "value": final.value},
        }
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


# Every flag (dest and default) of every subcommand, as before the flags were
# generated from TaskSpec, TrainConfig, grad_check and enum_check. The one
# deliberate difference: --cost-kind defaults to the CostKind member, not its
# string, which builds the same TrainConfig.
PARENT_FLAGS = {
    "gen-data": {
        "config": None, "out": None, "out_dir": None, "vocab_size": 20, "len_min": 3,
        "len_max": 8, "sentences_per_doc": 4, "num_documents": 200, "valid_documents": 16,
        "test_documents": 16, "rule": 2, "style_consistency": False, "style_weight": 0.5,
        "noise_rate": 0.0, "seed": 0,
    },
    "train-mle": {
        "config": None, "out": None, "data_dir": None, "ckpt": None, "log": None,
        "emb_dim": 16, "hidden_dim": 32, "max_len": 10, "batch_size": 32,
        "learning_rate": 0.5, "accum_steps": 1, "max_updates": 3000, "eval_every": 100,
        "patience": 3, "batching": "random", "seed": 0,
    },
    "finetune-mrt": {
        "config": None, "out": None, "data_dir": None, "ckpt": None, "out_ckpt": None,
        "log": None, "mode": "doc_mrt_ordered", "cost_kind": CostKind.ONE_MINUS_DOCBLEU,
        "n_samples": 4, "batch_size": 4, "tau": 1.0, "alpha": 5e-3, "estimator": "raw",
        "learning_rate": 0.1, "accum_steps": 8, "max_updates": 300, "max_len": 10,
        "batching": "document", "eval_every": 50, "seed": 0,
    },
    "score": {
        "config": None, "out": None, "hyp": None, "ref": None, "src": None, "docid": None,
        "pseudo_docs": None, "metric": "bleu",
    },
    "grad-check": {"config": None, "out": None, "corrupt": False, "seed": 0},
    "enum-check": {
        "config": None, "out": None, "trials": 20, "vocab_size": 5, "emb_dim": 3,
        "hidden_dim": 3, "max_len": 3, "seed": 0,
    },
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_flags_and_defaults_are_pinned(capsys):
    subparsers = _subparsers(cli.build_parser())
    assert set(subparsers) == set(PARENT_FLAGS)
    for name, subparser in subparsers.items():
        actions = [a for a in subparser._actions if a.dest != "help"]
        assert {a.dest: a.default for a in actions} == PARENT_FLAGS[name], name
        for action in actions:  # 0 == 0.0 == False, so compare the types too
            assert type(action.default) is type(PARENT_FLAGS[name][action.dest]), action.dest
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]
        assert cli.main([name, "--help"]) == 0
        assert f"usage: docmrt {name}" in capsys.readouterr().out


def test_cli_config_file_sets_every_setting_type(tmp_path):
    cfg = tmp_path / "tune.cfg"
    cfg.write_text(
        "cost_kind = doc_ter\nn-samples = 3\ntau = 0.5\nestimator = renormalized\n",
        encoding="utf-8",
    )
    argv = ["finetune-mrt", "--data-dir", "d", "--ckpt", "c", "--out-ckpt", "o"]
    args = cli._parse(cli.build_parser(), argv + ["--config", str(cfg), "--tau", "2"])
    assert mrt.TrainConfig(**cli._gather(args, mrt.TrainConfig)) == mrt.TrainConfig(
        cost_kind=CostKind.DOC_TER, n_samples=3, tau=2.0, estimator="renormalized",
        accum_steps=8, max_updates=300,
    )
    cfg.write_text("style_consistency = yes\n", encoding="utf-8")
    argv = ["gen-data", "--out-dir", "x", "--config", str(cfg)]
    assert cli._parse(cli.build_parser(), argv).style_consistency is True
    args = cli._parse(cli.build_parser(), argv + ["--style-consistency", "off"])
    assert args.style_consistency is False


@pytest.mark.parametrize(
    "command, flag, allowed",
    [
        ("finetune-mrt", "--mode", "doc_mrt_ordered"),
        ("finetune-mrt", "--cost-kind", "doc_ter"),
        ("finetune-mrt", "--batching", "document"),
        ("train-mle", "--batching", "document"),
    ],
)
def test_cli_names_bad_setting_before_any_io(tmp_path, capsys, command, flag, allowed):
    argv = [
        command, "--data-dir", str(tmp_path / "missing"), "--ckpt", str(tmp_path / "c.ckpt"),
        "--log", str(tmp_path / "log.jsonl"), flag, "bogus",
    ]
    if command == "finetune-mrt":
        argv += ["--out-ckpt", str(tmp_path / "tuned.ckpt")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and allowed in err
    assert list(tmp_path.iterdir()) == []


def test_cli_gen_data_files_are_pinned(tmp_path, capsys):
    out_dir = tmp_path / "data"
    argv = [
        "gen-data", "--out-dir", str(out_dir), "--vocab-size", "10", "--len-max", "5",
        "--num-documents", "4", "--valid-documents", "2", "--test-documents", "2",
        "--style-consistency", "true", "--noise-rate", "0.2", "--seed", "3",
    ]
    assert cli.main(argv) == 0
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert len(list(out_dir.iterdir())) == 10
    assert digest.hexdigest() == (
        "23b3a1be68fdeece729914db8659e482ec0384a7e686a40323ebbcb26bb54c85"
    )

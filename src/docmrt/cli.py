"""Command-line surface: gen-data, train-mle, finetune-mrt, score, grad-check, enum-check.

Every subcommand accepts --config pointing at a flat key=value file whose keys
match the flag names; explicit flags override config values. Reports are JSON
to stdout or --out. Exit codes: 0 success, 2 validation failure, 1 error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness, model, mrt, textcore
from .metrics import CostKind


def _bool(value: str) -> bool:
    lowered = str(value).lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _emit(report: dict | str, out: str | None) -> None:
    text = report if isinstance(report, str) else json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_split(corpus, vocab, out_dir: Path, split: str) -> None:
    with open(out_dir / f"{split}.src", "w", encoding="utf-8") as src_fh, open(
        out_dir / f"{split}.ref", "w", encoding="utf-8"
    ) as ref_fh, open(out_dir / f"{split}.docid", "w", encoding="utf-8") as id_fh:
        for src, ref, doc_id in corpus.entries:
            src_fh.write(textcore.decode(src, vocab) + "\n")
            ref_fh.write(textcore.decode(ref, vocab) + "\n")
            id_fh.write(f"{doc_id}\n")


def load_data_dir(data_dir: str | Path):
    """Vocabulary plus (train, valid, test) corpora from a gen-data directory."""
    data_dir = Path(data_dir)
    tokens = (data_dir / "vocab.txt").read_text(encoding="utf-8").split()
    vocab = textcore.Vocabulary(list(textcore.RESERVED_TOKENS) + tokens)
    splits = []
    for split in ("train", "valid", "test"):
        splits.append(
            textcore.read_document_corpus(
                data_dir / f"{split}.src",
                data_dir / f"{split}.ref",
                vocab,
                data_dir / f"{split}.docid",
            )
        )
    return vocab, splits[0], splits[1], splits[2]


def _cmd_gen_data(args) -> int:
    task = harness.TaskSpec(
        vocab_size=args.vocab_size,
        len_min=args.len_min,
        len_max=args.len_max,
        sentences_per_doc=args.sentences_per_doc,
        num_documents=args.num_documents,
        valid_documents=args.valid_documents,
        test_documents=args.test_documents,
        rule=args.rule,
        style_consistency=args.style_consistency,
        style_weight=args.style_weight,
        noise_rate=args.noise_rate,
        seed=args.seed,
    )
    train, valid, test = harness.generate_synthetic_corpus(task)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = harness.task_vocabulary(task.vocab_size)
    with open(out_dir / "vocab.txt", "w", encoding="utf-8") as fh:
        for tok in vocab.tokens[4:]:
            fh.write(tok + "\n")
    for split, corpus in (("train", train), ("valid", valid), ("test", test)):
        _write_split(corpus, vocab, out_dir, split)
    _emit(
        {
            "out_dir": str(out_dir),
            "task": dataclasses.asdict(task),
            "sentences": {"train": len(train), "valid": len(valid), "test": len(test)},
        },
        args.out,
    )
    return 0


def _cmd_train_mle(args) -> int:
    vocab, train, valid, _ = load_data_dir(args.data_dir)
    cfg = mrt.TrainConfig(
        mode="mle",
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        accum_steps=args.accum_steps,
        max_updates=args.max_updates,
        seed=args.seed,
        max_len=args.max_len,
        batching=args.batching,
    ).validate()
    params, log = harness.train_mle_baseline(
        train, valid, len(vocab), args.emb_dim, args.hidden_dim, cfg,
        eval_every=args.eval_every, patience=args.patience,
    )
    model.save_checkpoint(params, args.ckpt)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            for rec in log:
                fh.write(json.dumps(rec) + "\n")
    best = max(rec.get("heldout_metric", 0.0) for rec in log)
    _emit({"checkpoint": args.ckpt, "updates": len(log), "valid_doc_bleu": best}, args.out)
    return 0


def _cmd_finetune_mrt(args) -> int:
    _, train, valid, _ = load_data_dir(args.data_dir)
    params = model.load_checkpoint(args.ckpt)
    cfg = mrt.TrainConfig(
        mode=args.mode,
        cost_kind=CostKind(args.cost_kind),
        n_samples=args.n_samples,
        batch_size=args.batch_size,
        tau=args.tau,
        alpha=args.alpha,
        estimator=args.estimator,
        learning_rate=args.learning_rate,
        accum_steps=args.accum_steps,
        max_updates=args.max_updates,
        seed=args.seed,
        max_len=args.max_len,
        batching=args.batching,
    ).validate()
    tuned, log = mrt.finetune(params, train, cfg, heldout=valid, eval_every=args.eval_every)
    model.save_checkpoint(tuned, args.out_ckpt)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            for rec in log:
                fh.write(json.dumps(rec) + "\n")
    final = harness.evaluate_corpus(
        tuned, valid, cfg.cost_kind.as_document_kind(), beam=4, max_len=cfg.max_len
    )
    _emit(
        {
            "checkpoint": args.out_ckpt,
            "mode": cfg.mode,
            "updates": len(log),
            "final_risk": log[-1]["risk"] if log else None,
            "valid_metric": {"kind": final.kind, "value": final.value},
        },
        args.out,
    )
    return 0


def _cmd_score(args) -> int:
    report = harness.score_corpus(
        args.hyp, args.ref, args.src, args.docid,
        metric=args.metric, pseudo_doc_size=args.pseudo_docs,
    )
    _emit(report, args.out)
    return 0


def _cmd_grad_check(args) -> int:
    report = harness.grad_check(corrupt=args.corrupt, seed=args.seed)
    _emit(report, args.out)
    return 0 if report["passed"] else 2


def _cmd_enum_check(args) -> int:
    report = harness.enum_check(
        trials=args.trials,
        vocab_size=args.vocab_size,
        emb_dim=args.emb_dim,
        hidden_dim=args.hidden_dim,
        max_len=args.max_len,
        seed=args.seed,
    )
    _emit(report, args.out)
    return 0 if report["passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docmrt",
        description="Document-level minimum risk training laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add("gen-data", _cmd_gen_data, "generate a synthetic document corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--vocab-size", type=int, default=20)
    p.add_argument("--len-min", type=int, default=3)
    p.add_argument("--len-max", type=int, default=8)
    p.add_argument("--sentences-per-doc", type=int, default=4)
    p.add_argument("--num-documents", type=int, default=200)
    p.add_argument("--valid-documents", type=int, default=16)
    p.add_argument("--test-documents", type=int, default=16)
    p.add_argument("--rule", type=int, default=harness.RULE_CIPHER)
    p.add_argument("--style-consistency", type=_bool, default=False)
    p.add_argument("--style-weight", type=float, default=0.5)
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = add("train-mle", _cmd_train_mle, "train an MLE baseline from scratch")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint output path")
    p.add_argument("--log", help="JSONL training log path")
    p.add_argument("--emb-dim", type=int, default=16)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--accum-steps", type=int, default=1)
    p.add_argument("--max-updates", type=int, default=3000)
    p.add_argument("--eval-every", type=int, default=100)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--batching", default="random")
    p.add_argument("--seed", type=int, default=0)

    p = add("finetune-mrt", _cmd_finetune_mrt, "fine-tune a checkpoint with MRT")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--ckpt", required=True, help="starting checkpoint")
    p.add_argument("--out-ckpt", required=True, help="tuned checkpoint output path")
    p.add_argument("--log", help="JSONL training log path")
    p.add_argument("--mode", default="doc_mrt_ordered", choices=mrt.MODES)
    p.add_argument(
        "--cost-kind",
        default=CostKind.ONE_MINUS_DOCBLEU.value,
        choices=[k.value for k in CostKind],
    )
    p.add_argument("--n-samples", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=5e-3)
    p.add_argument("--estimator", default="raw", choices=mrt.ESTIMATORS)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--accum-steps", type=int, default=8)
    p.add_argument("--max-updates", type=int, default=300)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--batching", default="document", choices=mrt.BATCHINGS)
    p.add_argument("--eval-every", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = add("score", _cmd_score, "score parallel text files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--src")
    p.add_argument("--docid")
    p.add_argument("--pseudo-docs", type=int, help="assign doc ids in blocks of this size")
    p.add_argument("--metric", default="bleu", choices=["bleu", "ter", "gleu"])

    p = add("grad-check", _cmd_grad_check, "finite-difference gradient checks")
    p.add_argument("--corrupt", action="store_true", help="inject a gradient fault")
    p.add_argument("--seed", type=int, default=0)

    p = add("enum-check", _cmd_enum_check, "output-space normalization check")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--vocab-size", type=int, default=5)
    p.add_argument("--emb-dim", type=int, default=3)
    p.add_argument("--hidden-dim", type=int, default=3)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Seed subparser defaults from a --config file so flags still override."""
    # "--config=FILE" is the same argument as "--config FILE"
    argv = [p for a in argv for p in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a path")
    values = harness.parse_config_file(argv[idx + 1])
    if argv[0].startswith("-"):
        return argv
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = sub_actions[0].choices.get(argv[0]) if sub_actions else None
    if subparser is None:
        return argv
    actions = {action.dest: action for action in subparser._actions}
    known = {}
    for dest, value in values.items():
        action = actions.get(dest)
        if action is None:
            raise ValueError(f"unknown config key {dest!r} for {argv[0]}")
        # a store_true flag has no type, but "false" in a file must stay False
        convert = _bool if isinstance(action, argparse._StoreTrueAction) else action.type
        try:
            known[dest] = convert(value) if convert else value
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValueError(f"config key {dest!r}: {exc}") from None
    subparser.set_defaults(**known)
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse errors use exit code 2 already
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

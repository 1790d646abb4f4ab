"""Command-line surface: gen-data, train-mle, finetune-mrt, score, grad-check, enum-check.

Every subcommand accepts --config pointing at a flat key=value file whose keys
match the flag names; explicit flags override config values. Reports are JSON
to stdout or --out. Exit codes: 0 success, 2 validation failure, 1 error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from . import harness, model, mrt, textcore


def _typed(like):
    """argparse type for a setting whose default is like, through harness._coerce."""

    def convert(value: str):
        try:
            return harness._coerce(value, like)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _settings(target, skip: tuple[str, ...] = (), **defaults) -> dict:
    """Name -> default of each parameter of a settings dataclass or check
    function, minus skip, with per-command defaults overriding."""
    params = inspect.signature(target).parameters
    settings = {name: p.default for name, p in params.items() if name not in skip}
    settings.update(defaults)
    return settings


def _add_flags(parser: argparse.ArgumentParser, settings: dict) -> None:
    """One --name-with-dashes flag per setting, typed by its default."""
    for name, default in settings.items():
        parser.add_argument("--" + name.replace("_", "-"), type=_typed(default), default=default)


def _gather(args: argparse.Namespace, target) -> dict:
    """The parsed values of target's parameters that have flags, as keywords."""
    given = vars(args)
    return {name: given[name] for name in _settings(target) if name in given}


def _emit(report: dict | str, out: str | None) -> None:
    text = report if isinstance(report, str) else json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def load_data_dir(data_dir: str | Path):
    """Vocabulary plus (train, valid, test) corpora from a gen-data directory."""
    data_dir = Path(data_dir)
    tokens = (data_dir / "vocab.txt").read_text(encoding="utf-8").split()
    vocab = textcore.Vocabulary(list(textcore.RESERVED_TOKENS) + tokens)
    train, valid, test = (
        textcore.read_document_corpus(
            data_dir / f"{split}.src", data_dir / f"{split}.ref", vocab, data_dir / f"{split}.docid"
        )
        for split in ("train", "valid", "test")
    )
    return vocab, train, valid, test


def _cmd_gen_data(args) -> int:
    task = harness.TaskSpec(**_gather(args, harness.TaskSpec)).validate()
    train, valid, test = harness.generate_synthetic_corpus(task)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = harness.task_vocabulary(task.vocab_size)
    with open(out_dir / "vocab.txt", "w", encoding="utf-8") as fh:
        for tok in vocab.tokens[4:]:
            fh.write(tok + "\n")
    for split, corpus in (("train", train), ("valid", valid), ("test", test)):
        textcore.write_document_corpus(corpus, vocab, out_dir / split)
    _emit(
        {
            "out_dir": str(out_dir),
            "task": dataclasses.asdict(task),
            "sentences": {"train": len(train), "valid": len(valid), "test": len(test)},
        },
        args.out,
    )
    return 0


def _write_log(log: list[dict], path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in log:
                fh.write(json.dumps(rec) + "\n")


def _cmd_train_mle(args) -> int:
    cfg = mrt.TrainConfig(mode="mle", **_gather(args, mrt.TrainConfig)).validate()
    textcore.at_least(1, eval_every=args.eval_every, patience=args.patience)
    vocab, train, valid, _ = load_data_dir(args.data_dir)
    params, log = harness.train_mle_baseline(
        train, valid, len(vocab), args.emb_dim, args.hidden_dim, cfg,
        eval_every=args.eval_every, patience=args.patience,
    )
    model.save_checkpoint(params, args.ckpt)
    _write_log(log, args.log)
    best = max(rec.get("heldout_metric", 0.0) for rec in log)
    _emit({"checkpoint": args.ckpt, "updates": len(log), "valid_doc_bleu": best}, args.out)
    return 0


def _cmd_finetune_mrt(args) -> int:
    cfg = mrt.TrainConfig(**_gather(args, mrt.TrainConfig)).validate()
    textcore.at_least(0, eval_every=args.eval_every)
    vocab, train, valid, _ = load_data_dir(args.data_dir)
    params = harness.load_baseline(args.ckpt, len(vocab))
    kind = cfg.cost_kind.as_document_kind()
    evaluate = lambda p: harness.evaluate_corpus(p, valid, kind, 4, cfg.max_len).value
    tuned, log = mrt.finetune(params, train, cfg, eval_every=args.eval_every, eval_fn=evaluate)
    model.save_checkpoint(tuned, args.out_ckpt)
    _write_log(log, args.log)
    final = log[-1].get("heldout_metric") if log else None
    if final is None:  # finetune did not evaluate the tuned parameters
        final = evaluate(tuned)
    _emit(
        {
            "checkpoint": args.out_ckpt,
            "mode": cfg.mode,
            "updates": len(log),
            "final_risk": log[-1]["risk"] if log else None,
            "valid_metric": {"kind": cfg.cost_kind.metric.upper(), "value": final},
        },
        args.out,
    )
    return 0


def _cmd_score(args) -> int:
    if args.pseudo_docs is not None:
        textcore.at_least(1, pseudo_docs=args.pseudo_docs)
    report = harness.score_corpus(
        args.hyp, args.ref, args.src, args.docid,
        metric=args.metric, pseudo_doc_size=args.pseudo_docs,
    )
    _emit(report, args.out)
    return 0


def _cmd_check(check):
    """Subcommand running harness.grad_check or enum_check; exit 2 on failure."""

    def run(args) -> int:
        report = check(**_gather(args, check))
        _emit(report, args.out)
        return 0 if report["passed"] else 2

    return run


# train-mle always trains with mode "mle"; these TrainConfig fields only steer MRT
MLE_UNUSED = ("mode", "cost_kind", "n_samples", "tau", "alpha", "estimator")


def build_parser() -> argparse.ArgumentParser:
    """The six subcommands. Settings flags are generated from the parameters of
    TaskSpec, TrainConfig, grad_check and enum_check, so their names, types and
    defaults are declared once, there; only per-command defaults differ here."""
    parser = argparse.ArgumentParser(
        prog="docmrt",
        description="Document-level minimum risk training laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.set_defaults(func=func, parser=p)
        return p

    p = add("gen-data", _cmd_gen_data, "generate a synthetic document corpus")
    p.add_argument("--out-dir", required=True)
    _add_flags(p, _settings(harness.TaskSpec, skip=("cipher_seed",)))

    p = add("train-mle", _cmd_train_mle, "train an MLE baseline from scratch")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint output path")
    p.add_argument("--log", help="JSONL training log path")
    _add_flags(p, {"emb_dim": 16, "hidden_dim": 32, "eval_every": 100, "patience": 3})
    mle = dict(batch_size=32, learning_rate=0.5, max_updates=3000, batching="random")
    _add_flags(p, _settings(mrt.TrainConfig, skip=MLE_UNUSED, **mle))

    p = add("finetune-mrt", _cmd_finetune_mrt, "fine-tune a checkpoint with MRT")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--ckpt", required=True, help="starting checkpoint")
    p.add_argument("--out-ckpt", required=True, help="tuned checkpoint output path")
    p.add_argument("--log", help="JSONL training log path")
    _add_flags(p, {"eval_every": 50})
    _add_flags(p, _settings(mrt.TrainConfig, accum_steps=8, max_updates=300))

    p = add("score", _cmd_score, "score parallel text files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--src")
    p.add_argument("--docid")
    p.add_argument("--pseudo-docs", type=_typed(0), help="assign doc ids in blocks of this size")
    p.add_argument("--metric", default="bleu", choices=["bleu", "ter", "gleu"])

    p = add("grad-check", _cmd_check(harness.grad_check), "finite-difference gradient checks")
    p.add_argument("--corrupt", action="store_true", help="inject a gradient fault")
    _add_flags(p, _settings(harness.grad_check, skip=("corrupt",)))

    p = add("enum-check", _cmd_check(harness.enum_check), "output-space normalization check")
    _add_flags(p, _settings(harness.enum_check))

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's values become the subcommand's defaults,
    so explicit flags still override them."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    actions = {action.dest: action for action in args.parser._actions}
    known = {}
    for dest, value in harness.parse_config_file(args.config).items():
        action = actions.get(dest)
        if action is None:
            raise ValueError(f"unknown config key {dest!r} for {args.command}")
        # an untyped flag (such as store_true --corrupt) converts like its default
        try:
            known[dest] = (action.type or _typed(action.default))(value)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config key {dest!r}: {exc}") from None
    args.parser.set_defaults(**known)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
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

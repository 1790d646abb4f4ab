"""Time this tree's MRT and MLE updates against another checkout's, in one process.

    python3 scripts/ab_updates.py OTHER_TREE [--pairs 18] [--seed 100]

OTHER_TREE is a checkout of this repository (a parent commit, say); its
src/docmrt is loaded under the package name docmrt_other, beside this tree's
docmrt, so both trees run in one process on the same host state. The inputs are
the benchmark's own, built by this tree (perfbench/workloads.py, FULL sizes):
one doc_mrt baseline and fine-tuning split, and the mle_train task from random
initialisation. Every pair runs, for each kind of run, mrt.finetune of both
trees on the same parameters, corpus and config, alternating which tree runs
first: the doc_mrt protocol's three fine-tuning runs (ordered and random
1 - doc-BLEU, ordered doc-TER) and one mle_train run. A run's sample is its CPU
time (time.process_time) per update; held-out evaluation is not run. Both trees
share one process, so process-wide state such as allocator settings or BLAS
threads cannot differ between them: a change to such state needs the trees run
in alternating processes instead.

Prints, per kind of run, each tree's median ms per update, the ratio
this/other and the number of pairs this tree won. Exits 1, naming the run, as
soon as the two trees' trained parameters or logged training risks differ in
any bit: a speed change must not move a number, and the parameters do not
depend on the risks that the log records.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from docmrt import mrt  # noqa: E402

OTHER = "docmrt_other"


def load_tree(tree: Path, name: str = OTHER):
    """The docmrt package under tree/src, imported as name; an earlier load
    under that name is dropped first."""
    package = Path(tree) / "src" / "docmrt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no docmrt sources under {package.parent}")
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("metrics", "model", "mrt", "textcore"):
        importlib.import_module(f"{name}.{sub}")
    return module


def runs(seed: int, sizes: workloads.Sizes) -> list[tuple]:
    """(kind, params0, corpus, make_config) of every kind of run, built by this
    tree; make_config(seed) is the run's TrainConfig."""
    doc, mle = workloads.DocMrt(seed, sizes), workloads.MleTrain(seed, sizes)
    doc.setup()
    mle.setup()
    baseline, ft_train, _ = doc.tasks[0]

    def mrt_config(mode, kind):
        return lambda s: doc._config(mode, kind, sizes.mrt_updates, s)

    def mle_config(s):
        return workloads._mle_config(s, sizes.mle_updates)

    out = [(f"{m} {k.value}", baseline, ft_train, mrt_config(m, k)) for m, k in doc.RUNS]
    return out + [("mle", mle.params0, mle.train, mle_config)]


def as_other(other, params, corpus, cfg) -> tuple:
    """params, corpus and cfg rebuilt from the other tree's classes."""
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    fields["cost_kind"] = other.metrics.CostKind(cfg.cost_kind.value)
    return (
        other.model.ModelParams(
            params.vocab_size, params.emb_dim, params.hidden_dim, params.theta.copy()
        ),
        other.textcore.DocumentBatch(
            list(corpus.sources), list(corpus.references), list(corpus.doc_ids)
        ),
        other.mrt.TrainConfig(**fields),
    )


def timed(finetune, params, corpus, cfg) -> tuple[float, bytes, list[str]]:
    """CPU seconds per update of one finetune run, its trained theta's bytes and
    the hex of its training log's risks."""
    start = time.process_time()
    tuned, log = finetune(params, corpus, cfg)
    seconds = (time.process_time() - start) / len(log)
    return seconds, tuned.theta.tobytes(), [record["risk"].hex() for record in log]


def compare(other, pairs: int, seed: int, sizes: workloads.Sizes) -> dict[str, dict]:
    """Per kind of run, each tree's seconds per update ("this", "other"), pair by
    pair. Raises SystemExit when the trees' trained parameters or training risks
    differ."""
    kinds = runs(seed, sizes)
    times = {kind: {"this": [], "other": []} for kind, *_ in kinds}
    for pair in range(pairs):
        for k, (kind, params0, corpus, make) in enumerate(kinds):
            cfg = make(workloads.variant_seed(seed, pair, k))
            sides = {
                "this": (mrt.finetune, (params0, corpus, cfg)),
                "other": (other.mrt.finetune, as_other(other, params0, corpus, cfg)),
            }
            thetas, risks = {}, {}
            for side in ("this", "other") if pair % 2 == 0 else ("other", "this"):
                finetune, args = sides[side]
                seconds, thetas[side], risks[side] = timed(finetune, *args)
                times[kind][side].append(seconds)
            if thetas["this"] != thetas["other"]:
                raise SystemExit(f"trained parameters differ: pair {pair}, run {kind!r}")
            if risks["this"] != risks["other"]:
                raise SystemExit(f"training risks differ: pair {pair}, run {kind!r}")
    return times


def report(times: dict[str, dict]) -> list[str]:
    """One line per kind of run: medians in ms per update, ratio, wins of this tree."""
    lines = [f"{'run':34} {'this ms':>8} {'other ms':>8} {'this/other':>10} {'this wins':>10}"]
    for kind, sides in times.items():
        this, other = statistics.median(sides["this"]), statistics.median(sides["other"])
        wins = sum(a < b for a, b in zip(sides["this"], sides["other"]))
        lines.append(
            f"{kind:34} {this * 1e3:8.3f} {other * 1e3:8.3f} {this / other:10.3f} "
            f"{wins:>5}/{len(sides['this'])}"
        )
    return lines


def main(argv: list[str] | None = None, sizes: workloads.Sizes = workloads.FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path, help="a checkout of this repository")
    parser.add_argument("--pairs", type=int, default=18, help="pairs of runs per kind")
    parser.add_argument("--seed", type=int, default=100, help="workload seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    other = load_tree(args.other_tree)
    print("\n".join(report(compare(other, args.pairs, args.seed, sizes))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""scripts/ab_updates.py at TINY sizes: a tree against itself, and against a copy
whose training moves one parameter."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_updates", ROOT / "scripts" / "ab_updates.py")
ab_updates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_updates)
TINY = ab_updates.workloads.TINY


def test_a_tree_against_itself_reports_every_kind_of_run(capsys):
    assert ab_updates.main([str(ROOT), "--pairs", "2", "--seed", "3"], sizes=TINY) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:1] == ["run"] and "this/other" in header
    kinds = [" ".join(row.split()[:-4]) for row in rows]
    assert kinds == [
        "doc_mrt_ordered one_minus_docbleu", "doc_mrt_random one_minus_docbleu",
        "doc_mrt_ordered doc_ter", "mle",
    ]
    for row in rows:
        this_ms, other_ms, ratio = map(float, row.split()[-4:-1])
        assert this_ms > 0 and other_ms > 0 and ratio == pytest.approx(this_ms / other_ms, rel=0.01)
        assert row.split()[-1] in {"0/2", "1/2", "2/2"}


def test_trained_parameters_that_differ_stop_the_comparison(tmp_path):
    shutil.copytree(ROOT / "src" / "docmrt", tmp_path / "src" / "docmrt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "docmrt" / "mrt.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_finetune = finetune\n\n\n"
            "def finetune(*args, **kwargs):\n"
            "    params, log = _finetune(*args, **kwargs)\n"
            "    params.theta[-1] += 1e-12\n"
            "    return params, log\n"
        )
    with pytest.raises(SystemExit, match="trained parameters differ: pair 0, run 'doc_mrt_ordered"):
        ab_updates.main([str(tmp_path), "--pairs", "1"], sizes=TINY)
    with pytest.raises(SystemExit, match="no docmrt sources"):
        ab_updates.main([str(tmp_path / "missing")], sizes=TINY)

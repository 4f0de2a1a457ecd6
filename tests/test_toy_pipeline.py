"""`tools/toy_pipeline.py`: the whole CLI pipeline is byte-deterministic."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "toy_pipeline.py"


def test_two_runs_print_identical_digests(tmp_path):
    runs = [subprocess.Popen([sys.executable, str(SCRIPT), str(tmp_path / name)],
                             stdout=subprocess.PIPE, text=True)
            for name in ("a", "b")]
    first, second = (run.communicate()[0] for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    assert first == second
    paths = [line.split("  ", 1)[1] for line in first.splitlines()]
    assert paths == sorted(paths)
    for expected in ("stdout.txt", "corpus.tsv", "vocabs/total30.vocab",
                     "run_base/epoch0030.ckpt", "eval/bleu_grid.csv",
                     "errors_total10/articles.csv", "run_feat/epoch0010.ckpt",
                     "errors_feat/error_report.json"):
        assert expected in paths
    stdout = (tmp_path / "a" / "stdout.txt").read_text(encoding="utf-8").splitlines()
    assert stdout[0] == "ingested=30 removed=0 kept=30 train=20 valid=5 test=5"
    assert len(stdout) == 1 + 10 + 2 + 6 + 2 + 3
    # the digests cover every kind of error_report.json item
    totals = [json.loads((tmp_path / "a" / name / "error_report.json").read_text("utf-8"))["totals"]
              for name in ("errors_base", "errors_total10", "errors_feat")]
    for kind in ("repetitions", "dropouts", "substitutions"):
        assert sum(t[kind] for t in totals) >= 1, kind


def test_help_prints_usage_and_creates_nothing(tmp_path):
    run = subprocess.run([sys.executable, str(SCRIPT), "--help"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0
    assert run.stdout.startswith("usage: ") and "OUTDIR" in run.stdout
    assert list(tmp_path.iterdir()) == []

"""`tools/toy_pipeline.py`: the whole CLI pipeline is byte-deterministic,
and its listing equals the committed one in `tests/golden`."""

from __future__ import annotations

import ctypes
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "toy_pipeline.py"
GOLDEN = Path(__file__).resolve().parent / "golden"
# Outputs that no BLAS call produces; every other line comes from the model.
BLAS_FREE = ("raw.tsv", "corpus.tsv", "vocabs/", "features/", "corpus_feat.tsv")


def blas_kernel() -> str:
    """The name of the kernel set numpy's bundled OpenBLAS runs, which it picks
    by CPU at load time (or by `OPENBLAS_CORETYPE`), e.g. `SkylakeX`; the build
    string names only the build's baseline. `unknown` where no bundled
    OpenBLAS exports `scipy_openblas_get_corename64_`."""
    numpy_dir = Path(np.__file__).resolve().parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                       *numpy_dir.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def blas_fingerprint() -> list[str]:
    """numpy's version, its BLAS build string and the BLAS kernel set that
    runs, as in `toy_fingerprint.txt`."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"numpy {np.__version__}", f"blas {blas.get('openblas configuration', blas)}",
            f"kernel {blas_kernel()}"]


# Under another BLAS the notice is shown, not raised as an error, and the
# BLAS-free lines are still compared.
@pytest.mark.filterwarnings("default:BLAS build differs:UserWarning")
def test_two_runs_print_identical_digests(tmp_path):
    runs = [subprocess.Popen([sys.executable, str(SCRIPT), str(tmp_path / name)],
                             stdout=subprocess.PIPE, text=True)
            for name in ("a", "b")]
    first, second = (run.communicate()[0] for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    assert first == second
    paths = [line.split("  ", 1)[1] for line in first.splitlines()]
    assert paths == sorted(paths)
    golden = (GOLDEN / "toy_listing.txt").read_text(encoding="utf-8").splitlines()
    assert paths == [line.split("  ", 1)[1] for line in golden]
    same_build = (GOLDEN / "toy_fingerprint.txt").read_text(encoding="utf-8").splitlines() \
        == blas_fingerprint()
    checked = [same_build or path.startswith(BLAS_FREE) for path in paths]
    assert ([line for line, c in zip(first.splitlines(), checked) if c]
            == [line for line, c in zip(golden, checked) if c])
    if not same_build:
        skipped = [path for path, c in zip(paths, checked) if not c]
        warnings.warn(f"BLAS build differs from {GOLDEN / 'toy_fingerprint.txt'}: "
                      f"{len(skipped)} model-derived lines not compared: {', '.join(skipped)}")
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

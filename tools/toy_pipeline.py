"""Run the toy pipeline end to end and print a sha256 digest per artefact.

    python tools/toy_pipeline.py OUTDIR

Builds 30 word-salad rows from the test suite's word list (2-6 words each,
numpy seed 42), then runs, inside OUTDIR and with relative paths:

- `augment --split 20,5,5 --seed 1` and `vocab --all`;
- `train` of `base` and `total10`, 30 epochs, a checkpoint every 10;
- `evaluate --vocab-dir` on all six checkpoints;
- `errors` on `base` epoch 30 and `total10` epoch 20;
- a feature leg: random (5-8, 3) `.npy` features (numpy seed 7),
  `train --source features` of `base` for 10 epochs, `evaluate`, `errors`.

Every command's stdout is collected in `stdout.txt`. The output is one
`sha256  path` line per file under OUTDIR, sorted by path, so two runs (or
two versions of the code) are byte-identical exactly when their outputs
are equal. BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from bigphon.cli import main as bigphon  # noqa: E402
from bigphon.corpus import CorpusManifest, ingest, write_manifest  # noqa: E402
from conftest import TOY_WORDS  # noqa: E402

MODEL_FLAGS = [
    "--d-model", "16", "--heads", "2", "--d-ff", "32", "--encoder-layers", "1",
    "--decoder-layers", "1", "--batch-size", "4", "--lr", "0.01",
    "--max-target-len", "60", "--seed", "3",
]


def run(*argv: str) -> None:
    rc = bigphon(list(argv))
    if rc != 0:
        raise SystemExit(f"bigphon {' '.join(argv)}: exit code {rc}")


def write_raw(path: str) -> None:
    rng = np.random.default_rng(42)
    rows = []
    for i in range(30):
        words = rng.choice(TOY_WORDS, size=int(rng.integers(2, 7)))
        rows.append(f"u{i:03d}\t{' '.join(words)}\n")
    Path(path).write_text("".join(rows), encoding="utf-8")


def write_feature_manifest(src: str, dst: str) -> None:
    manifest = ingest(src)
    rng = np.random.default_rng(7)
    Path("features").mkdir()
    utts = []
    for utt in manifest.utterances:
        path = f"features/{utt.utt_id}.npy"
        np.save(path, rng.standard_normal((int(rng.integers(5, 9)), 3)))
        utts.append(replace(utt, feature_path=path))
    write_manifest(CorpusManifest(tuple(utts), manifest.split), dst)


def pipeline() -> None:
    write_raw("raw.tsv")
    run("augment", "--manifest", "raw.tsv", "--out", "corpus.tsv",
        "--split", "20,5,5", "--seed", "1")
    run("vocab", "--manifest", "corpus.tsv", "--all", "--out", "vocabs")
    for variant in ("base", "total10"):
        run("train", "--manifest", "corpus.tsv", "--vocab", f"vocabs/{variant}.vocab",
            "--outdir", f"run_{variant}", "--epochs", "30", "--ckpt-interval", "10",
            *MODEL_FLAGS)
    run("evaluate", "--ckpt", "run_base/*.ckpt", "run_total10/*.ckpt",
        "--manifest", "corpus.tsv", "--out", "eval", "--vocab-dir", "vocabs")
    for ckpt, out in (("run_base/epoch0030.ckpt", "errors_base"),
                      ("run_total10/epoch0020.ckpt", "errors_total10")):
        run("errors", "--ckpt", ckpt, "--manifest", "corpus.tsv", "--out", out)

    write_feature_manifest("corpus.tsv", "corpus_feat.tsv")
    run("train", "--manifest", "corpus_feat.tsv", "--vocab", "vocabs/base.vocab",
        "--outdir", "run_feat", "--source", "features", "--epochs", "10",
        "--ckpt-interval", "10", *MODEL_FLAGS)
    run("evaluate", "--ckpt", "run_feat/*.ckpt", "--manifest", "corpus_feat.tsv",
        "--out", "eval_feat")
    run("errors", "--ckpt", "run_feat/epoch0010.ckpt", "--manifest", "corpus_feat.tsv",
        "--out", "errors_feat")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/toy_pipeline.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=False)
    os.chdir(outdir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        pipeline()
    Path("stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    for path in sorted(p.as_posix() for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

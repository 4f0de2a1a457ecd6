"""`config.writing`: every output file appears whole or not at all, with a
plain `open`'s mode, and a leftover temporary name matches no output glob."""

from __future__ import annotations

import os
import stat

import pytest

from bigphon import config
from bigphon.cli import main
from bigphon.config import writing
from bigphon.corpus import write_manifest

from conftest import make_toy_manifest

MODEL_FLAGS = ["--d-model", "16", "--heads", "2", "--d-ff", "32", "--encoder-layers", "1",
               "--decoder-layers", "1", "--batch-size", "4", "--lr", "0.003", "--seed", "5"]


def train_argv(inputs, outdir):
    return ["train", "--manifest", str(inputs / "corpus.tsv"), "--vocab", str(inputs / "base.vocab"),
            "--outdir", str(outdir), "--epochs", "2", "--ckpt-interval", "1", *MODEL_FLAGS]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A raw and an augmented manifest, the `base` vocabulary and a run's checkpoints."""
    root = tmp_path_factory.mktemp("inputs")
    manifest = make_toy_manifest(12, seed=10, sizes=(8, 2, 2))
    write_manifest(manifest, root / "corpus.tsv")
    (root / "raw.tsv").write_text(
        "".join(f"{u.utt_id}\t{u.text}\n" for u in manifest.utterances), encoding="utf-8")
    assert main(["vocab", "--manifest", str(root / "corpus.tsv"), "--variant", "base",
                 "--out", str(root / "base.vocab")]) == 0
    assert main(train_argv(root, root / "run")) == 0
    return root


class Torn(Exception):
    """The injected fault, raised once part of a file's bytes are on disk."""


class TornFile:
    """Passes the first `budget` characters or bytes to `f`, flushes them,
    then raises Torn."""

    def __init__(self, f, budget=16):
        self.f, self.budget = f, budget

    def write(self, data):
        view = data if isinstance(data, str) else memoryview(data).cast("B")
        if len(view) > self.budget:
            self.f.write(view[: self.budget])
            self.f.flush()
            raise Torn(self.f.name)
        self.budget -= len(view)
        return self.f.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


# writer: (command, the output file it writes there)
WRITERS = {
    "corpus.write_manifest": ("augment", "corpus.tsv"),
    "vocab.write_vocab": ("vocab", "base.vocab"),
    "training.save_checkpoint": ("train", "run/epoch0002.ckpt"),
    "TrainingTrace.write": ("train", "run/trace.csv"),
    "run_config.json": ("train", "run/run_config.json"),
    "bleu_grid.csv": ("evaluate", "eval/bleu_grid.csv"),
    "cli._write_json": ("errors", "diag/error_report.json"),
    "sentences.txt": ("errors", "diag/sentences.txt"),
    "articles.csv": ("errors", "diag/articles.csv"),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_fault_mid_write_leaves_the_previous_file(inputs, tmp_path, monkeypatch, writer):
    """The fault propagates, the path keeps its previous bytes (a checkpoint
    has none: `train` refuses an --outdir holding one), and no temporary
    file is left. For `train`, epoch 2's failed save leaves no torn
    `epoch0002.ckpt`."""
    command, name = WRITERS[writer]
    target = tmp_path / name
    target.parent.mkdir(exist_ok=True)
    previous = None if target.suffix == ".ckpt" else b"previous\n"
    if previous:
        target.write_bytes(previous)
    argv = {
        "augment": ["augment", "--manifest", str(inputs / "raw.tsv"), "--out", str(target),
                    "--split", "8,2,2"],
        "vocab": ["vocab", "--manifest", str(inputs / "corpus.tsv"), "--variant", "base",
                  "--out", str(target)],
        "train": train_argv(inputs, target.parent),
        "evaluate": ["evaluate", "--ckpt", str(inputs / "run" / "*.ckpt"),
                     "--manifest", str(inputs / "corpus.tsv"), "--out", str(target.parent)],
        "errors": ["errors", "--ckpt", str(inputs / "run" / "epoch0002.ckpt"),
                   "--manifest", str(inputs / "corpus.tsv"), "--out", str(target.parent)],
    }[command]

    def torn_open(file, mode, **kwargs):
        f = open(file, mode, **kwargs)
        return TornFile(f) if os.path.basename(file).startswith(f".{target.name}.") else f

    monkeypatch.setattr(config, "open", torn_open, raising=False)
    with pytest.raises(Torn):
        main(argv)
    assert (target.read_bytes() if target.exists() else None) == previous
    assert list(tmp_path.rglob(".*.tmp")) == []


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_file_mode_is_a_plain_opens(tmp_path, mode):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", mode):
            pass
        with writing(tmp_path / "whole", mode):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain", "whole")}
    assert modes == {0o640}


def test_replaces_the_path_and_a_symlink_there(tmp_path):
    """The path is replaced, not rewritten in place: a symlink there becomes
    a regular file and the file it pointed to keeps its bytes."""
    (tmp_path / "elsewhere").write_text("kept\n", encoding="utf-8")
    (tmp_path / "out.txt").symlink_to(tmp_path / "elsewhere")
    with writing(tmp_path / "out.txt") as f:
        f.write("új\n")
    assert not (tmp_path / "out.txt").is_symlink()
    assert (tmp_path / "out.txt").read_bytes() == "új\n".encode("utf-8")
    assert (tmp_path / "elsewhere").read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere", "out.txt"]


def test_a_leftover_temporary_file_is_no_checkpoint(inputs, tmp_path, capsys):
    """A killed `train` may leave `.epoch0001.ckpt.XXXXXXXX.tmp`: the next
    `train` still takes that --outdir, and `evaluate`'s glob skips it."""
    run = tmp_path / "run"
    run.mkdir()
    leftover = run / ".epoch0001.ckpt.0badf00d.tmp"
    leftover.write_bytes(b"BGPH torn")
    assert main(train_argv(inputs, run)) == 0
    capsys.readouterr()
    assert main(["evaluate", "--ckpt", f"{run}/*.ckpt", "--manifest", str(inputs / "corpus.tsv"),
                 "--out", str(tmp_path / "eval")]) == 0
    scored = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
    assert scored == [str(run / "epoch0001.ckpt"), str(run / "epoch0002.ckpt")]
    assert leftover.read_bytes() == b"BGPH torn"


@pytest.mark.parametrize("command", ["augment", "vocab"])
def test_missing_parent_directory_is_named_as_given(inputs, tmp_path, monkeypatch, capsys,
                                                    command):
    monkeypatch.chdir(tmp_path)
    argv = {
        "augment": ["augment", "--manifest", str(inputs / "raw.tsv"), "--split", "8,2,2"],
        "vocab": ["vocab", "--manifest", str(inputs / "corpus.tsv"), "--variant", "base"],
    }[command]
    assert main(argv + ["--out", "nodir/x.tsv"]) == 2
    assert capsys.readouterr().err == (
        "bigphon: error: [Errno 2] No such file or directory: 'nodir/x.tsv'\n")
    assert list(tmp_path.iterdir()) == []

"""Every input file the commands read, corrupted, ends in exit 2 (3 for a
non-finite parameter) and one stderr line that names the file.

Each file gets a bad UTF-8 byte or garbage bytes, a truncation and a bad
field, and each corrupted copy runs through `cli.main` in-process. This is
a hand-listed table; a seeded mutator would draw the corruptions instead.
"""

from __future__ import annotations

import io
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from bigphon.cli import main
from bigphon.corpus import CorpusManifest, write_manifest

from conftest import make_toy_manifest

MODEL = ["--epochs", "1", "--ckpt-interval", "1", "--d-model", "8", "--heads", "2",
         "--d-ff", "16", "--encoder-layers", "1", "--decoder-layers", "1",
         "--batch-size", "4", "--seed", "1"]


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _npz() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, frames=np.ones((4, 3)))
    return buf.getvalue()


def _cut_after(marker: bytes, keep: int):
    """Truncate just after the first `keep` bytes of `marker`."""
    return lambda data: data[: data.index(marker) + keep]


def _swap(old: bytes, new: bytes):
    return lambda data: data.replace(old, new, 1)


def _phoneme_column_cut(data: bytes) -> bytes:
    """Cut the first row just after the first space of its phoneme column,
    leaving an empty last token."""
    column = data.index(b"\t", data.index(b"\t") + 1) + 1
    return data[: data.index(b" ", column) + 1]


# (case id, file, corruption, exit code, expected message after `PATH: `).
CASES = [
    ("raw-utf8", "raw", _swap(b"kind", b"k\xffnd"), 2, "line 2: invalid UTF-8 byte 0xff"),
    ("raw-truncated", "raw", _cut_after(b"u000\t", 4), 2, "line 1: missing text column"),
    ("raw-split", "raw", _swap(b"als sie\n", b"als sie\t\tbogus\n"), 2,
     "line 1: unknown split 'bogus'"),
    ("manifest-garbage", "manifest", lambda data: b"\x80" + data, 2,
     "line 1: invalid UTF-8 byte 0x80"),
    ("manifest-truncated", "manifest", _phoneme_column_cut, 2,
     "line 1: empty token in phoneme column"),
    ("manifest-duplicate", "manifest", lambda data: data.split(b"\n", 1)[0] + b"\n" + data, 2,
     "line 2: duplicate utterance id 'u0000'"),
    ("rules-utf8", "rules", _swap(b"der\t", b"d\xffr\t"), 2, "line 18: invalid UTF-8 byte 0xff"),
    ("rules-truncated", "rules", _cut_after(b"der\t", 3), 2,
     "line 18: expected 2 or 4 tab-separated fields, got 1"),
    ("rules-alphabet", "rules", _swap(b"\xc3\xbc\xc3\x9f\n", b"\xc3\xbc\xc3\x9f0\n"), 2,
     "no context-free fallback rule for '0'"),
    ("classes-utf8", "classes", _swap(b"a\tV", b"\xff\tV"), 2, "line 4: invalid UTF-8 byte 0xff"),
    ("classes-truncated", "classes", _cut_after(b"a\tV", 2), 2, "bad classification line 4: 'a'"),
    ("classes-class", "classes", _swap(b"a\tV", b"a\tX"), 2,
     "bad classification line 4: 'a\\tX'"),
    ("vocab-garbage", "vocab", lambda data: b"\xff" + data, 2, "line 1: invalid UTF-8 byte 0xff"),
    ("vocab-truncated", "vocab", _cut_after(b"BOS\n", 4), 2,
     "expected specials ('PAD', 'BOS', 'EOS', 'UNK') first"),
    ("vocab-variant", "vocab", _swap(b"variant=base", b"variant=bogus"), 2,
     "unknown vocabulary variant 'bogus'"),
    ("vocab-dir-utf8", "vocab-dir", _swap(b"PAD", b"P\xffD"), 2,
     "line 2: invalid UTF-8 byte 0xff"),
    ("vocab-dir-truncated", "vocab-dir", _cut_after(b"\n", 1), 2,
     "expected specials ('PAD', 'BOS', 'EOS', 'UNK') first"),
    ("ckpt-garbage", "ckpt", lambda data: b"\x00garbage" + data, 2, "bad magic b'\\x00gar'"),
    ("ckpt-version", "ckpt", lambda data: data[:4] + b"\x02" + data[5:], 2,
     "unsupported version 2"),
    ("ckpt-header-len", "ckpt",
     lambda data: data[:8] + (1 << 62).to_bytes(8, "little") + data[16:], 2,
     "header length 4611686018427387904 exceeds the "),
    ("ckpt-header-truncated", "ckpt", lambda data: data[:40], 2,
     "header length "),
    ("ckpt-payload-truncated", "ckpt", lambda data: data[:-3], 2, "parameter payload is "),
    ("ckpt-nan", "ckpt", lambda data: data[:-8] + np.float64(np.nan).tobytes(), 3,
     "parameter out_b holds NaN or infinite values"),
    ("npy-empty", "npy", lambda data: b"", 2,
     "EOF: reading magic string, expected 8 bytes got 0"),
    ("npy-npz", "npy", lambda data: _npz(), 2, "the magic string is not correct; "),
    ("npy-truncated", "npy", lambda data: data[:-4], 2,
     "Failed to read all data for array. "),
    ("npy-object", "npy", _swap(b"'<f8'", b"'O'  "), 2,
     "Object arrays cannot be loaded when allow_pickle=False"),
    ("npy-rank", "npy", lambda data: _npy(np.ones(5)), 2,
     "expected a non-empty 2-D (frames, dim) array, got (5,)"),
    ("npy-nan", "npy", lambda data: _npy(np.full((4, 3), np.inf)), 2,
     "feature frames hold NaN or infinite values"),
]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each kind, and the checkpoint trained from them."""
    root = tmp_path_factory.mktemp("valid")
    files = {"raw": root / "raw.tsv", "manifest": root / "manifest.tsv",
             "vocab": root / "base.vocab", "ckpt": root / "run" / "epoch0001.ckpt"}
    files["raw"].write_text("u000\tals sie\nu001\tdas kind\nu002\tder wald\n", encoding="utf-8")
    for kind in ("rules", "classes"):
        files[kind] = root / f"german.{kind}"
        source = resources.files("bigphon").joinpath(f"data/german.{kind}")
        files[kind].write_bytes(source.read_bytes())
    m = make_toy_manifest(8, seed=3, sizes=(4, 2, 2))
    rng = np.random.default_rng(0)
    utts = []
    for u in m.utterances:
        frames = root / f"{u.utt_id}.npy"
        np.save(frames, rng.normal(size=(4, 3)))
        utts.append(replace(u, feature_path=str(frames)))
    write_manifest(CorpusManifest(tuple(utts), m.split), files["manifest"])
    assert main(["vocab", "--manifest", str(files["manifest"]), "--variant", "base",
                 "--out", str(files["vocab"])]) == 0
    assert main(["train", "--manifest", str(files["manifest"]), "--vocab", str(files["vocab"]),
                 "--outdir", str(root / "run")] + MODEL) == 0
    files["npy"] = root / f"{m.by_split('train')[0].utt_id}.npy"
    return files


def _command(kind, bad, valid, tmp_path):
    """The argv that reads `bad` in place of the valid file of its kind."""
    out = str(tmp_path / "out")
    raw, manifest, vocab, ckpt = (str(valid[k]) for k in ("raw", "manifest", "vocab", "ckpt"))
    augment = ["augment", "--manifest", raw, "--out", out, "--split", "3,0,0"]
    if kind == "raw":
        return ["augment", "--manifest", str(bad), "--out", out, "--split", "3,0,0"]
    if kind in ("rules", "classes"):
        return augment + [f"--{kind}", str(bad)]
    if kind == "manifest":
        return ["vocab", "--manifest", str(bad), "--variant", "base", "--out", out]
    if kind == "vocab":
        return ["train", "--manifest", manifest, "--vocab", str(bad), "--outdir", out] + MODEL
    if kind == "vocab-dir":
        return ["evaluate", "--ckpt", ckpt, "--manifest", manifest, "--out", out,
                "--vocab-dir", str(bad.parent)]
    if kind == "ckpt":
        return ["evaluate", "--ckpt", str(bad), "--manifest", manifest, "--out", out]
    # A feature file: the first train row's frames, in a copy of the manifest.
    text = valid["manifest"].read_text(encoding="utf-8")
    features = tmp_path / "features.tsv"
    features.write_text(text.replace(str(valid["npy"]), str(bad)), encoding="utf-8")
    return ["train", "--manifest", str(features), "--vocab", vocab, "--outdir", out,
            "--source", "features"] + MODEL


@pytest.mark.parametrize("kind, corrupt, code, message",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_corrupt_input_file_exits_naming_it(valid, tmp_path, capsys, kind, corrupt, code,
                                            message):
    source = valid["vocab" if kind == "vocab-dir" else kind]
    bad = tmp_path / ("base.vocab" if kind == "vocab-dir" else f"bad{source.suffix}")
    bad.write_bytes(corrupt(source.read_bytes()))
    capsys.readouterr()
    assert main(_command(kind, bad, valid, tmp_path)) == code
    err = capsys.readouterr().err
    label = "numeric failure" if code == 3 else "error"
    assert err.startswith(f"bigphon: {label}: {bad}: {message}"), err
    assert err.count("\n") == 1 and err.endswith("\n"), err

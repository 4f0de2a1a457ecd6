"""Every input file the commands read, corrupted, ends in exit 2 (3 for a
non-finite parameter), one stderr line that names the file, and no output.

Each file gets a bad UTF-8 byte or garbage bytes, a truncation and a bad
field, and each corrupted copy runs through `cli.main` in-process, once for
each command of its case that reads that file. This is a hand-listed table;
a seeded mutator would draw the corruptions instead.
"""

from __future__ import annotations

import io
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from bigphon import training
from bigphon.cli import main
from bigphon.corpus import CorpusManifest, ingest, write_manifest
from bigphon.training import load_checkpoint, save_checkpoint

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


def _text_column_cut(data: bytes) -> bytes:
    """Cut the last row three characters into its text column."""
    last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
    return data[: data.index(b"\t", last_row) + 4]


def _first_phoneme_column(column: bytes):
    """Replace the first row's phoneme column."""
    def edit(data: bytes) -> bytes:
        first, rest = data.split(b"\n", 1)
        cols = first.split(b"\t")
        cols[2] = column
        return b"\t".join(cols) + b"\n" + rest
    return edit


def _no_feature_path(utt_id: bytes):
    """Empty the feature_path column of the row `utt_id`, not the first."""
    def edit(data: bytes) -> bytes:
        start = data.index(b"\n" + utt_id + b"\t") + 1
        end = data.index(b"\n", start)
        return data[: data.rindex(b"\t", start, end) + 1] + data[end:]
    return edit


def _relabel(label: str, *bigrams: str):
    """Label the base vocabulary `label` and append `bigrams` ("a+b") to it."""
    def edit(data: bytes) -> bytes:
        data = data.replace(b"variant=base n=0", f"variant={label} n={len(bigrams)}".encode())
        return data + "".join(f"{pair}\n" for pair in bigrams).encode("utf-8")
    return edit


def _prepend(line: str, then):
    """Put `line` before line 1, then apply `then`."""
    return lambda data: line.encode("utf-8") + b"\n" + then(data)


MODEL_COMMANDS = ("vocab", "train", "evaluate", "errors")
FEATURE_COMMANDS = ("train", "evaluate")
NO_SPLIT = "no '{0}' split; give `bigphon augment --split` a nonzero {0} count"

# (case id, file, commands, corruption, exit code, expected message after
# `PATH: `). The first command runs under the case id, each later one under
# the id with `-COMMAND` appended.
TABLE = [
    ("raw-utf8", "raw", ("augment",), _swap(b"kind", b"k\xffnd"), 2,
     "line 2: invalid UTF-8 byte 0xff"),
    ("raw-truncated", "raw", ("augment",), _cut_after(b"u000\t", 4), 2,
     "line 1: missing text column"),
    ("raw-split", "raw", ("augment",), _swap(b"als sie\n", b"als sie\t\tbogus\n"), 2,
     "line 1: unknown split 'bogus'"),
    ("raw-extra-column", "raw", ("augment",), _swap(b"als sie\n", b"als sie\t\t\t\tEXTRA\n"),
     2, "line 1: expected at most 5 tab-separated columns, got 6"),
    ("manifest-garbage", "manifest", MODEL_COMMANDS, lambda data: b"\x80" + data, 2,
     "line 1: invalid UTF-8 byte 0x80"),
    ("manifest-truncated", "manifest", MODEL_COMMANDS, _phoneme_column_cut, 2,
     "line 1: empty token in phoneme column"),
    ("manifest-duplicate", "manifest", MODEL_COMMANDS,
     lambda data: data.split(b"\n", 1)[0] + b"\n" + data, 2,
     "line 2: duplicate utterance id 'u0000'"),
    ("manifest-text-cut", "manifest", MODEL_COMMANDS, _text_column_cut, 2,
     "line 8: utterance 'u0007' is not augmented"),
    ("manifest-extra-column", "manifest", MODEL_COMMANDS,
     lambda data: data.replace(b"\n", b"\tEXTRA\n", 1), 2,
     "line 1: expected at most 5 tab-separated columns, got 6"),
    ("manifest-bar-only", "manifest", MODEL_COMMANDS, _first_phoneme_column(b"|"), 2,
     "line 1: utterance 'u0000' has no phonemes: 'von geist wurden geist regen blume'"),
    ("manifest-no-valid", "manifest", ("train",),
     lambda data: data.replace(b"\tvalid\t", b"\ttrain\t"), 2, NO_SPLIT.format("valid")),
    ("manifest-no-test", "manifest", ("evaluate", "errors"),
     lambda data: data.replace(b"\ttest\t", b"\ttrain\t"), 2, NO_SPLIT.format("test")),
    ("rules-utf8", "rules", ("augment",), _swap(b"der\t", b"d\xffr\t"), 2,
     "line 18: invalid UTF-8 byte 0xff"),
    ("rules-truncated", "rules", ("augment",), _cut_after(b"der\t", 3), 2,
     "line 18: expected 2 or 4 tab-separated fields, got 1"),
    ("rules-alphabet", "rules", ("augment",),
     _swap(b"\xc3\xbc\xc3\x9f\n", b"\xc3\xbc\xc3\x9f0\n"), 2,
     "no context-free fallback rule for '0'"),
    ("rules-u2028", "rules", ("augment",), _prepend("# one\u2028two", _cut_after(b"der\t", 3)),
     2, "line 19: expected 2 or 4 tab-separated fields, got 1"),
    ("classes-utf8", "classes", ("augment",), _swap(b"a\tV", b"\xff\tV"), 2,
     "line 4: invalid UTF-8 byte 0xff"),
    ("classes-truncated", "classes", ("augment",), _cut_after(b"a\tV", 2), 2,
     "line 4: bad classification entry 'a'"),
    ("classes-class", "classes", ("augment",), _swap(b"a\tV", b"a\tX"), 2,
     "line 4: bad classification entry 'a\\tX'"),
    ("classes-formfeed", "classes", ("augment",),
     _prepend("# one\x0ctwo", _swap(b"a\tV", b"a\tX")), 2,
     "line 5: bad classification entry 'a\\tX'"),
    ("vocab-garbage", "vocab", ("train",), lambda data: b"\xff" + data, 2,
     "line 1: invalid UTF-8 byte 0xff"),
    ("vocab-truncated", "vocab", ("train",), _cut_after(b"BOS\n", 4), 2,
     "expected specials ('PAD', 'BOS', 'EOS', 'UNK') first"),
    ("vocab-variant", "vocab", ("train",), _swap(b"variant=base", b"variant=bogus"), 2,
     "unknown vocabulary variant 'bogus'"),
    ("vocab-bigram-count", "vocab", ("train",), _swap(b" n=0 ", b" n=99 "), 2,
     "header has n=99, but 0 bigrams follow"),
    ("vocab-label-count", "vocab", ("train",), _relabel("base", "f+o:"), 2,
     "variant 'base' holds at most 0 bigrams, got 1"),
    ("vocab-label-vowel", "vocab", ("train",), _relabel("vowel10", "a+ɪ", "f+n"), 2,
     "variant 'vowel10' merges only vowel pairs, got f+n"),
    ("vocab-label-const", "vocab", ("train",), _relabel("const10", "n+o:"), 2,
     "variant 'const10' merges only consonant pairs, got n+o:"),
    ("vocab-atom-count", "vocab", ("train",), _swap(b" inventory=", b" inventory=9"), 2,
     "header has inventory=9"),
    ("vocab-dir-utf8", "vocab-dir", ("evaluate",), _swap(b"PAD", b"P\xffD"), 2,
     "line 2: invalid UTF-8 byte 0xff"),
    ("vocab-dir-truncated", "vocab-dir", ("evaluate",), _cut_after(b"\n", 1), 2,
     "expected specials ('PAD', 'BOS', 'EOS', 'UNK') first"),
    ("vocab-dir-bigram-count", "vocab-dir", ("evaluate",), _swap(b" n=0 ", b" n=7 "), 2,
     "header has n=7, but 0 bigrams follow"),
    ("ckpt-garbage", "ckpt", ("evaluate", "errors"), lambda data: b"\x00garbage" + data, 2,
     "bad magic b'\\x00gar'"),
    ("ckpt-version", "ckpt", ("evaluate", "errors"),
     lambda data: data[:4] + b"\x02" + data[5:], 2, "unsupported version 2"),
    ("ckpt-header-len", "ckpt", ("evaluate", "errors"),
     lambda data: data[:8] + (1 << 62).to_bytes(8, "little") + data[16:], 2,
     "header length 4611686018427387904 exceeds the "),
    ("ckpt-header-truncated", "ckpt", ("evaluate", "errors"), lambda data: data[:40], 2,
     "header length "),
    ("ckpt-payload-truncated", "ckpt", ("evaluate", "errors"), lambda data: data[:-3], 2,
     "parameter payload is "),
    ("ckpt-nan", "ckpt", ("evaluate", "errors"),
     lambda data: data[:-8] + np.float64(np.nan).tobytes(), 3,
     "parameter out_b holds NaN or infinite values"),
    ("features-manifest-valid", "features-manifest", ("train",), _no_feature_path(b"u0001"), 2,
     "utterance 'u0001' has no feature_path"),
    ("features-manifest-test", "features-manifest", ("evaluate", "errors"),
     _no_feature_path(b"u0003"), 2, "utterance 'u0003' has no feature_path"),
    ("npy-empty", "npy", FEATURE_COMMANDS, lambda data: b"", 2,
     "EOF: reading magic string, expected 8 bytes got 0"),
    ("npy-npz", "npy", FEATURE_COMMANDS, lambda data: _npz(), 2,
     "the magic string is not correct; "),
    ("npy-truncated", "npy", FEATURE_COMMANDS, lambda data: data[:-4], 2,
     "Failed to read all data for array. "),
    ("npy-object", "npy", FEATURE_COMMANDS, _swap(b"'<f8'", b"'O'  "), 2,
     "Object arrays cannot be loaded when allow_pickle=False"),
    ("npy-rank", "npy", FEATURE_COMMANDS, lambda data: _npy(np.ones(5)), 2,
     "expected a non-empty 2-D (frames, dim) array, got (5,)"),
    ("npy-zero-width", "npy", ("train", "evaluate", "errors"),
     lambda data: _npy(np.ones((5, 0))), 2,
     "expected a non-empty 2-D (frames, dim) array, got (5, 0)"),
    ("npy-nan", "npy", FEATURE_COMMANDS, lambda data: _npy(np.full((4, 3), np.inf)), 2,
     "feature frames hold NaN or infinite values"),
    ("npy-width", "npy", FEATURE_COMMANDS, lambda data: _npy(np.ones((6, 4))), 2,
     "feature array (6, 4) does not match feature_dim=3"),
]
CASES = [pytest.param(kind, command, corrupt, code, message,
                      id=case if i == 0 else f"{case}-{command}")
         for case, kind, commands, corrupt, code, message in TABLE
         for i, command in enumerate(commands)]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each kind, and the checkpoints trained from them:
    `ckpt` on text, `features-ckpt` on the feature files."""
    root = tmp_path_factory.mktemp("valid")
    files = {"raw": root / "raw.tsv", "manifest": root / "manifest.tsv",
             "vocab": root / "base.vocab", "ckpt": root / "run" / "epoch0001.ckpt",
             "features-ckpt": root / "features-run" / "epoch0001.ckpt"}
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
    files["features-manifest"] = files["manifest"]  # read by a feature run
    text_manifest = root / "text-manifest.tsv"  # the same rows with no frames: a text run
    write_manifest(m, text_manifest)
    manifest, vocab = str(files["manifest"]), str(files["vocab"])
    assert main(["vocab", "--manifest", manifest, "--variant", "base", "--out", vocab]) == 0
    for source, ckpt in ((text_manifest, files["ckpt"]), (manifest, files["features-ckpt"])):
        assert main(["train", "--manifest", str(source), "--vocab", vocab,
                     "--outdir", str(ckpt.parent)] + MODEL) == 0
    # Frames that `train` reads after the first row's, which set the width,
    # and frames that `evaluate` decodes.
    files["npy"] = root / f"{m.by_split('train')[-1].utt_id}.npy"
    files["npy-test"] = root / f"{m.by_split('test')[0].utt_id}.npy"
    return files


def _command(kind, command, bad, valid, tmp_path):
    """The argv of `command` that reads `bad` in place of the valid file of its kind."""
    files = {k: str(v) for k, v in valid.items()}
    if kind == "npy":  # a feature file, in a copy of the manifest
        text = valid["manifest"].read_text(encoding="utf-8")
        row = files["npy" if command == "train" else "npy-test"]
        features = tmp_path / "features.tsv"
        features.write_text(text.replace(row, str(bad)), encoding="utf-8")
        files.update(manifest=str(features), ckpt=files["features-ckpt"])
    elif kind == "features-manifest":
        files.update(manifest=str(bad), ckpt=files["features-ckpt"])
    else:
        files[kind] = str(bad.parent if kind == "vocab-dir" else bad)
    out = str(tmp_path / "out")
    manifest, ckpt = files["manifest"], files["ckpt"]
    argv = {
        "augment": ["augment", "--manifest", files["raw"], "--out", out, "--split", "3,0,0",
                    "--rules", files["rules"], "--classes", files["classes"]],
        "vocab": ["vocab", "--manifest", manifest, "--variant", "base", "--out", out],
        "train": ["train", "--manifest", manifest, "--vocab", files["vocab"],
                  "--outdir", out] + MODEL,
        "evaluate": ["evaluate", "--ckpt", ckpt, "--manifest", manifest, "--out", out],
        "errors": ["errors", "--ckpt", ckpt, "--manifest", manifest, "--out", out],
    }[command]
    if kind == "vocab-dir":
        argv += ["--vocab-dir", files["vocab-dir"]]
    return argv


@pytest.mark.parametrize("kind, command, corrupt, code, message", CASES)
def test_corrupt_input_file_exits_naming_it(valid, tmp_path, capsys, kind, command, corrupt,
                                            code, message):
    source = valid["vocab" if kind == "vocab-dir" else kind]
    bad = tmp_path / ("base.vocab" if kind == "vocab-dir" else f"bad{source.suffix}")
    bad.write_bytes(corrupt(source.read_bytes()))
    capsys.readouterr()
    assert main(_command(kind, command, bad, valid, tmp_path)) == code
    err = capsys.readouterr().err
    label = "numeric failure" if code == 3 else "error"
    assert err.startswith(f"bigphon: {label}: {bad}: {message}"), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert not (tmp_path / "out").exists()


def test_feature_width_error_names_the_file_that_set_it(valid, tmp_path, capsys):
    """In `train`, the first train row's file sets the run's width. When
    that file is the odd one out, the error on the next file names it."""
    first, second = (u.feature_path for u in ingest(valid["manifest"]).by_split("train")[:2])
    wide = tmp_path / "wide.npy"
    np.save(wide, np.ones((6, 4)))
    manifest = tmp_path / "features.tsv"
    text = valid["manifest"].read_text(encoding="utf-8")
    manifest.write_text(text.replace(first, str(wide)), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--manifest", str(manifest), "--vocab", str(valid["vocab"]),
                 "--outdir", str(tmp_path / "out")] + MODEL) == 2
    assert capsys.readouterr().err == (f"bigphon: error: {second}: feature array (4, 3) does not "
                                       f"match feature_dim=4 from {wide}\n")
    assert not (tmp_path / "out").exists()


def test_zero_width_frames_exit_naming_the_file(valid, tmp_path, capsys):
    """Frames of width 0 in every row are an input error, not a model of
    width-0 inputs that `init_params` cannot size."""
    empty = tmp_path / "empty.npy"
    np.save(empty, np.ones((5, 0)))
    manifest = tmp_path / "features.tsv"
    text = valid["manifest"].read_text(encoding="utf-8")
    for utt in ingest(valid["manifest"]).utterances:
        text = text.replace(utt.feature_path, str(empty))
    manifest.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--manifest", str(manifest), "--vocab", str(valid["vocab"]),
                 "--outdir", str(tmp_path / "out")] + MODEL) == 2
    assert capsys.readouterr().err == (f"bigphon: error: {empty}: expected a non-empty 2-D "
                                       f"(frames, dim) array, got (5, 0)\n")
    assert not (tmp_path / "out").exists()


def _count_decodes(monkeypatch) -> list:
    calls = []
    decode = training.greedy_decode
    monkeypatch.setattr(training, "greedy_decode",
                        lambda *args: calls.append(args) or decode(*args))
    return calls


@pytest.mark.parametrize("command", ["evaluate", "errors"])
def test_bad_last_feature_file_stops_the_split_before_any_decode(valid, tmp_path, monkeypatch,
                                                                 capsys, command):
    """Every file of the split is loaded and checked before the first decode."""
    last = ingest(valid["manifest"]).by_split("test")[-1].feature_path
    bad = tmp_path / "nan.npy"
    np.save(bad, np.full((4, 3), np.nan))
    manifest = tmp_path / "features.tsv"
    text = valid["manifest"].read_text(encoding="utf-8")
    manifest.write_text(text.replace(last, str(bad)), encoding="utf-8")
    calls = _count_decodes(monkeypatch)
    capsys.readouterr()
    assert main([command, "--ckpt", str(valid["features-ckpt"]), "--manifest", str(manifest),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"bigphon: error: {bad}: feature frames hold NaN or infinite values\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_evaluate_failing_on_a_later_checkpoint_writes_nothing(valid, tmp_path, monkeypatch,
                                                               capsys):
    """A text checkpoint sorts first; the feature checkpoint after it meets
    a test row with no feature file. Every source form is read before the
    first decode, so neither checkpoint decodes and nothing is left."""
    text_ckpt = load_checkpoint(valid["ckpt"])
    text_ckpt.epoch = 2
    save_checkpoint(text_ckpt, tmp_path / "a.ckpt")
    (tmp_path / "b.ckpt").write_bytes(valid["features-ckpt"].read_bytes())
    first_test = ingest(valid["manifest"]).by_split("test")[0].utt_id
    manifest = tmp_path / "features.tsv"
    manifest.write_bytes(_no_feature_path(first_test.encode())(valid["manifest"].read_bytes()))
    calls = _count_decodes(monkeypatch)
    capsys.readouterr()
    assert main(["evaluate", "--ckpt", str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt"),
                 "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"bigphon: error: {manifest}: utterance {first_test!r} has no feature_path\n")
    assert captured.out == ""
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_evaluate_refuses_a_repeated_variant_and_epoch(valid, tmp_path, monkeypatch, capsys):
    """A copy of a checkpoint would overwrite the first one's score: the
    copy is refused when its header is read, before any checkpoint decodes."""
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for path in (first, second):
        path.write_bytes(valid["ckpt"].read_bytes())
    calls = _count_decodes(monkeypatch)
    capsys.readouterr()
    assert main(["evaluate", "--ckpt", str(first), str(second), "--manifest",
                 str(valid["manifest"]), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"bigphon: error: {second}: variant 'base' epoch 1 is already in {first}\n")
    assert calls == []
    assert not (tmp_path / "out").exists()

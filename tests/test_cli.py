"""CLI subcommands end to end on toy data."""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bigphon
from bigphon import corpus, model, training, vocab
from bigphon.cli import build_parser, main
from bigphon.config import BLAS_THREAD_VARS
from bigphon.corpus import CorpusManifest, Utterance, ingest, write_manifest
from bigphon.ipa import PhonemeSequence
from bigphon.model import ModelConfig, NonFiniteGradient
from bigphon.training import load_checkpoint, save_checkpoint
from bigphon.vocab import EOS_ID

from conftest import TOY_WORDS, make_toy_manifest


def write_raw_manifest(tmp_path, texts, name="raw.tsv"):
    path = tmp_path / name
    rows = [f"u{i:03d}\t{t}" for i, t in enumerate(texts)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def augmented_manifest(tmp_path):
    m = make_toy_manifest(12, seed=10, sizes=(8, 2, 2))
    path = tmp_path / "augmented.tsv"
    write_manifest(m, path)
    return path


def command_flags(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {f for a in sub.choices[command]._actions for f in a.option_strings}


def train_args(manifest, vocab, outdir, epochs=2, interval=2):
    return [
        "train",
        "--manifest", str(manifest),
        "--vocab", str(vocab),
        "--outdir", str(outdir),
        "--epochs", str(epochs),
        "--ckpt-interval", str(interval),
        "--d-model", "16", "--heads", "2", "--d-ff", "32",
        "--encoder-layers", "1", "--decoder-layers", "1",
        "--batch-size", "4", "--lr", "0.003", "--seed", "5",
    ]


class TestAugment:
    def test_writes_split_manifest(self, tmp_path, capsys):
        texts = ["als sie von dem", "und dem geist", "das kind", "die sonne", "der wald"]
        raw = write_raw_manifest(tmp_path, texts)
        out = tmp_path / "aug.tsv"
        rc = main(["augment", "--manifest", str(raw), "--out", str(out),
                   "--split", "3,1,1", "--seed", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "ingested=5" in printed and "train=3" in printed
        m = ingest(out)
        assert len(m) == 5
        assert all(u.phonemes is not None for u in m.utterances)
        assert Counter(m.split.values()) == Counter(train=3, valid=1, test=1)

    def test_invalid_utf8_manifest_exits_2_naming_it(self, tmp_path, capsys):
        raw = write_raw_manifest(tmp_path, ["als sie", "und dem geist"])
        raw.write_bytes(raw.read_bytes().replace(b"dem", b"d\xffm"))
        rc = main(["augment", "--manifest", str(raw), "--out", str(tmp_path / "x.tsv"),
                   "--split", "2,0,0"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: {raw}: line 2: invalid UTF-8 byte 0xff\n")

    def test_unmappable_char_exits_2(self, tmp_path, capsys):
        raw = write_raw_manifest(tmp_path, ["als 3 sie"])
        rc = main(["augment", "--manifest", str(raw), "--out", str(tmp_path / "x.tsv"),
                   "--split", "1,0,0"])
        assert rc == 2
        assert "u000" in capsys.readouterr().err

    def test_punctuation_only_row_exits_2(self, tmp_path, capsys):
        """A row with no letters has no phonemes; no later command could use it."""
        raw = write_raw_manifest(tmp_path, ["als sie", "... !", "das kind"])
        out = tmp_path / "x.tsv"
        rc = main(["augment", "--manifest", str(raw), "--out", str(out), "--split", "3,0,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"bigphon: error: {raw}: utterance 'u001' has no phonemes: '... !'\n"
        assert not out.exists()

    def test_size_mismatch_exits_2(self, tmp_path):
        raw = write_raw_manifest(tmp_path, ["als sie"])
        rc = main(["augment", "--manifest", str(raw), "--out", str(tmp_path / "x.tsv"),
                   "--split", "5,1,1"])
        assert rc == 2

    def test_length_filter_applies(self, tmp_path, capsys):
        texts = ["als sie", "und " * 60]  # second exceeds 200 chars
        raw = write_raw_manifest(tmp_path, texts)
        rc = main(["augment", "--manifest", str(raw), "--out", str(tmp_path / "x.tsv"),
                   "--split", "1,0,0"])
        assert rc == 0
        assert "removed=1" in capsys.readouterr().out


    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_nonpositive_max_chars_exits_2_before_reading(self, tmp_path, capsys, bound):
        out = tmp_path / "x.tsv"
        rc = main(["augment", "--manifest", str(tmp_path / "missing.tsv"), "--out", str(out),
                   "--max-chars", bound, "--split", "1,0,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"bigphon: error: --max-chars must be at least 1, got {bound}\n"
        assert not out.exists()

    @pytest.mark.parametrize("split", ["1,x,0", "1,0", "1,0,0,0", "", "5,1,1", "-1,2,1"])
    def test_malformed_split_exits_2_before_transliterating(
        self, tmp_path, monkeypatch, capsys, split
    ):
        message = {
            "5,1,1": "split sizes (5, 1, 1) sum to 7, manifest has 2",
            "-1,2,1": "negative split size in (-1, 2, 1)",
        }.get(split, f"--split expects train,valid,test counts, got {split!r}")
        raw = write_raw_manifest(tmp_path, ["als sie", "das kind"])
        out = tmp_path / "x.tsv"
        calls = []
        transliterate = corpus.transliterate
        monkeypatch.setattr(corpus, "transliterate",
                            lambda *args: calls.append(args) or transliterate(*args))
        rc = main(["augment", "--manifest", str(raw), "--out", str(out), f"--split={split}"])
        assert rc == 2
        assert calls == []
        assert capsys.readouterr().err == f"bigphon: error: {message}\n"
        assert not out.exists()

    def test_filter_removing_every_row_names_the_filter(self, tmp_path, capsys):
        raw = write_raw_manifest(tmp_path, ["als sie von dem", "das kind"])
        out = tmp_path / "x.tsv"
        rc = main(["augment", "--manifest", str(raw), "--out", str(out),
                   "--max-chars", "3", "--split", "2,0,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "bigphon: error: --max-chars 3 removes all 2 rows\n"
        assert not out.exists()


class TestVocab:
    def test_single_variant(self, tmp_path, augmented_manifest, capsys):
        out = tmp_path / "base.vocab"
        rc = main(["vocab", "--manifest", str(augmented_manifest),
                   "--variant", "base", "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#variant=base")
        assert lines[1:5] == ["PAD", "BOS", "EOS", "UNK"]

    def test_all_variants(self, tmp_path, augmented_manifest):
        out = tmp_path / "vocabs"
        rc = main(["vocab", "--manifest", str(augmented_manifest), "--all",
                   "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("*.vocab")) == sorted(
            f"{v}.vocab" for v in (
                "base", "vowel10", "vowel20", "vowel30", "const10", "const20",
                "const30", "total10", "total20", "total30",
            )
        )

    def test_all_counts_bigrams_once(self, tmp_path, augmented_manifest, monkeypatch):
        calls = []
        count = vocab.count_bigrams
        monkeypatch.setattr(vocab, "count_bigrams",
                            lambda *args: calls.append(args) or count(*args))
        assert main(["vocab", "--manifest", str(augmented_manifest), "--all",
                     "--out", str(tmp_path / "vocabs")]) == 0
        assert len(calls) == 1

    def test_single_variant_bytes_match_all(self, tmp_path, augmented_manifest):
        out = tmp_path / "vocabs"
        assert main(["vocab", "--manifest", str(augmented_manifest), "--all",
                     "--out", str(out)]) == 0
        for label in vocab.VARIANT_LABELS:
            single = tmp_path / f"single_{label}.vocab"
            assert main(["vocab", "--manifest", str(augmented_manifest),
                         "--variant", label, "--out", str(single)]) == 0
            assert single.read_bytes() == (out / f"{label}.vocab").read_bytes(), label

    def test_short_lists_marked_on_stdout(self, tmp_path, augmented_manifest, capsys):
        out = tmp_path / "vocabs"
        assert main(["vocab", "--manifest", str(augmented_manifest), "--all",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == len(vocab.VARIANT_LABELS)
        short = []
        for label, line in zip(vocab.VARIANT_LABELS, lines):
            header = (out / f"{label}.vocab").read_text(encoding="utf-8").splitlines()[0]
            k = int(header.split()[1].removeprefix("n="))
            _, n = vocab.parse_variant(label)
            assert line.startswith(f"{label}: ")
            if k < n:
                short.append(label)
                assert line.endswith(f"{label}.vocab (only {k} of {n} bigrams)"), line
            else:
                assert line.endswith(f"{label}.vocab"), line
        assert short and len(short) < len(lines)

    def test_unknown_variant_rejected_by_parser(self, tmp_path, augmented_manifest):
        with pytest.raises(SystemExit) as exc:
            main(["vocab", "--manifest", str(augmented_manifest),
                  "--variant", "total15", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("which", [["--all", "--variant", "base"], []])
    def test_exactly_one_of_all_and_variant(self, tmp_path, augmented_manifest, capsys, which):
        with pytest.raises(SystemExit) as exc:
            main(["vocab", "--manifest", str(augmented_manifest),
                  "--out", str(tmp_path / "x.vocab"), *which])
        assert exc.value.code == 2
        assert "--all" in capsys.readouterr().err
        assert not (tmp_path / "x.vocab").exists()


class TestTrainFlags:
    """`bigphon train` takes its model flags and their defaults from ModelConfig."""

    @pytest.fixture()
    def parsed_config(self, tmp_path, augmented_manifest, monkeypatch):
        """Run `train` with the given flags up to the training call; return its config."""
        vocab_path = tmp_path / "base.vocab"
        assert main(["vocab", "--manifest", str(augmented_manifest),
                     "--variant", "base", "--out", str(vocab_path)]) == 0
        seen = []

        def stop(manifest, vocab, config, **kwargs):
            seen.append(config)
            raise ValueError("stopped before training")

        monkeypatch.setattr(training, "train", stop)

        def run(*flags):
            assert main(["train", "--manifest", str(augmented_manifest),
                         "--vocab", str(vocab_path), "--outdir", str(tmp_path / "run"),
                         *flags]) == 2
            return seen.pop()

        return run

    def test_required_flags_only_give_default_config(self, parsed_config):
        assert parsed_config() == ModelConfig()

    @pytest.mark.parametrize("flag, name, value", [
        ("--d-model", "d_model", 64), ("--heads", "heads", 4), ("--d-ff", "d_ff", 8),
        ("--encoder-layers", "encoder_layers", 2), ("--decoder-layers", "decoder_layers", 3),
        ("--epochs", "epochs", 20), ("--ckpt-interval", "checkpoint_interval", 5),
        ("--max-target-len", "max_target_len", 50), ("--seed", "seed", 7),
        ("--lr", "learning_rate", 0.5), ("--batch-size", "batch_size", 3),
        ("--dropout", "dropout", 0.25),
    ])
    def test_flag_sets_its_field(self, parsed_config, flag, name, value):
        assert getattr(ModelConfig(), name) != value
        assert parsed_config(flag, str(value)) == replace(ModelConfig(), **{name: value})

    def test_flag_spellings(self):
        assert command_flags("train") == {
            "-h", "--help", "--manifest", "--vocab", "--outdir", "--classes", "--verbose",
            "--d-model", "--heads", "--d-ff", "--encoder-layers", "--decoder-layers", "--epochs",
            "--ckpt-interval", "--max-target-len", "--seed", "--lr", "--batch-size", "--dropout",
        }

    def test_errors_flag_spellings(self):
        """The repeat bounds are constants of `analysis`, not flags."""
        assert command_flags("errors") == {
            "-h", "--help", "--ckpt", "--manifest", "--out", "--rules", "--classes", "--split",
        }


class TestTrainEvaluateErrors:
    @pytest.fixture()
    def trained(self, tmp_path, augmented_manifest):
        vocab_path = tmp_path / "base.vocab"
        assert main(["vocab", "--manifest", str(augmented_manifest),
                     "--variant", "base", "--out", str(vocab_path)]) == 0
        outdir = tmp_path / "run"
        assert main(train_args(augmented_manifest, vocab_path, outdir)) == 0
        return outdir

    def test_train_outputs(self, trained):
        assert (trained / "epoch0002.ckpt").exists()
        trace = (trained / "trace.csv").read_text(encoding="utf-8")
        assert trace.count("\n") >= 3  # headers + 2 epochs
        run = json.loads((trained / "run_config.json").read_text(encoding="utf-8"))
        assert run["seed"] == 5 and run["variant"] == "base"

    def test_train_without_valid_split_exits_2(self, tmp_path, capsys):
        mpath = tmp_path / "no_valid.tsv"
        write_manifest(make_toy_manifest(12, seed=10, sizes=(10, 0, 2)), mpath)
        vocab_path = tmp_path / "base.vocab"
        assert main(["vocab", "--manifest", str(mpath), "--variant", "base",
                     "--out", str(vocab_path)]) == 0
        capsys.readouterr()
        outdir = tmp_path / "run"
        assert main(train_args(mpath, vocab_path, outdir)) == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: {mpath}: no 'valid' split; "
            "give `bigphon augment --split` a nonzero valid count\n")
        assert not outdir.exists()

    def test_train_into_outdir_with_checkpoints_exits_2_untouched(
        self, tmp_path, augmented_manifest, trained, monkeypatch, capsys
    ):
        """A second run into the same --outdir would leave the first run's
        checkpoints beside its own, under its run_config.json and trace.csv."""
        before = {p.name: p.read_bytes() for p in trained.iterdir()}
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
        capsys.readouterr()
        argv = train_args(augmented_manifest, tmp_path / "base.vocab", trained, 1, 1)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: {trained}: already holds epoch0002.ckpt; "
            "train into a new --outdir\n")
        assert calls == []
        assert {p.name: p.read_bytes() for p in trained.iterdir()} == before

    def test_trace_row_count_matches_epochs(self, tmp_path, augmented_manifest):
        vocab_path = tmp_path / "b.vocab"
        main(["vocab", "--manifest", str(augmented_manifest), "--variant", "base",
              "--out", str(vocab_path)])
        outdir = tmp_path / "run4"
        assert main(train_args(augmented_manifest, vocab_path, outdir, epochs=4)) == 0
        rows = [
            line
            for line in (outdir / "trace.csv").read_text(encoding="utf-8").splitlines()
            if line and not line.startswith(("#", "epoch,"))
        ]
        assert len(rows) == 4
        assert [r.split(",")[0] for r in rows] == ["1", "2", "3", "4"]

    def test_evaluate_grid_and_reports(self, tmp_path, augmented_manifest, trained):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--ckpt", str(trained / "*.ckpt"),
                   "--manifest", str(augmented_manifest), "--out", str(out)])
        assert rc == 0
        grid = (out / "bleu_grid.csv").read_text(encoding="utf-8").splitlines()
        data = [line for line in grid if line and not line.startswith("#")]
        assert data[0] == "epoch,base"
        assert data[1].startswith("2,")
        report = json.loads((out / "bleu_base_epoch0002.json").read_text(encoding="utf-8"))
        assert report["variant"] == "base" and report["epoch"] == 2

    def test_overlapping_patterns_decode_each_checkpoint_once(
        self, tmp_path, augmented_manifest, trained, monkeypatch, capsys
    ):
        calls = []
        decode = training.greedy_decode
        monkeypatch.setattr(training, "greedy_decode",
                            lambda *args: calls.append(args) or decode(*args))
        out = tmp_path / "eval"
        ckpt = trained / "epoch0002.ckpt"
        assert main(["evaluate", "--ckpt", str(ckpt), str(trained / "*.ckpt"),
                     "--manifest", str(augmented_manifest), "--out", str(out)]) == 0
        assert len(calls) == 2  # the test split, once
        assert len(capsys.readouterr().out.splitlines()) == 1
        assert "# checkpoints=1" in (out / "bleu_grid.csv").read_text(encoding="utf-8")

    def test_evaluate_releases_each_checkpoint_before_the_next_load(
        self, tmp_path, augmented_manifest, trained, monkeypatch
    ):
        first = trained / "epoch0002.ckpt"
        second = tmp_path / "copy.ckpt"
        copy = load_checkpoint(first)
        copy.epoch = 4  # evaluate refuses a variant and epoch it has already scored
        save_checkpoint(copy, second)
        del copy
        loaded, alive = [], []
        load = training.load_checkpoint

        def tracked(path):
            gc.collect()
            alive.append([ref() is not None for ref in loaded])
            ckpt = load(path)
            loaded.append(weakref.ref(ckpt))
            return ckpt

        monkeypatch.setattr(training, "load_checkpoint", tracked)
        assert main(["evaluate", "--ckpt", str(first), str(second),
                     "--manifest", str(augmented_manifest), "--out", str(tmp_path / "eval")]) == 0
        assert alive == [[], [False]]

    @pytest.mark.parametrize("favoured, expected", [(EOS_ID, "0/2"), (4, "2/2")])
    def test_truncated_decodes_reported(self, tmp_path, augmented_manifest, trained, capsys,
                                        favoured, expected):
        """A checkpoint whose logits are its output bias: EOS first never hits
        the cap, a unit first always does."""
        ckpt = load_checkpoint(trained / "epoch0002.ckpt")
        ckpt.config = replace(ckpt.config, max_target_len=5)
        ckpt.params_flat[:] = 0.0
        ckpt.params["out_b"][favoured] = 5.0
        path = tmp_path / "biased.ckpt"
        save_checkpoint(ckpt, path)
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(path), "--manifest", str(augmented_manifest),
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["errors", "--ckpt", str(path), "--manifest", str(augmented_manifest),
                     "--out", str(tmp_path / "diag")]) == 0
        evaluate_line, errors_line = capsys.readouterr().out.splitlines()
        assert evaluate_line.endswith(f" truncated={expected}")
        assert errors_line.endswith(f" truncated={expected}")

    def test_evaluate_grid_pivots_variants_and_epochs(self, tmp_path, augmented_manifest):
        """Two variants x two checkpoint epochs -> a 2x2 grid."""
        ckpts = []
        for variant in ("base", "total10"):
            vpath = tmp_path / f"{variant}.vocab"
            main(["vocab", "--manifest", str(augmented_manifest),
                  "--variant", variant, "--out", str(vpath)])
            outdir = tmp_path / f"run_{variant}"
            assert main(train_args(augmented_manifest, vpath, outdir, epochs=4)) == 0
            ckpts.append(str(outdir / "*.ckpt"))
        out = tmp_path / "grid"
        assert main(["evaluate", "--ckpt", *ckpts,
                     "--manifest", str(augmented_manifest), "--out", str(out)]) == 0
        rows = [
            line
            for line in (out / "bleu_grid.csv").read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0] == "epoch,base,total10"
        assert [r.split(",")[0] for r in rows[1:]] == ["2", "4"]
        for row in rows[1:]:
            assert all(cell for cell in row.split(","))

    def test_evaluate_vocab_mismatch(self, tmp_path, augmented_manifest, trained):
        vocab_dir = tmp_path / "wrong"
        vocab_dir.mkdir()
        # a base.vocab whose units differ from the checkpoint's
        main(["vocab", "--manifest", str(augmented_manifest), "--variant", "total10",
              "--out", str(vocab_dir / "t.vocab")])
        (vocab_dir / "base.vocab").write_bytes((vocab_dir / "t.vocab").read_bytes())
        rc = main(["evaluate", "--ckpt", str(trained / "*.ckpt"),
                   "--manifest", str(augmented_manifest), "--out", str(tmp_path / "e2"),
                   "--vocab-dir", str(vocab_dir)])
        assert rc == 2

    def test_existing_checkpoint_path_is_not_globbed(self, tmp_path, augmented_manifest, trained,
                                                      capsys):
        """`[1]` in a path is a glob character class; a file named so is still used."""
        run = tmp_path / "run[1]"
        run.mkdir()
        ckpt = run / "epoch0002.ckpt"
        ckpt.write_bytes((trained / "epoch0002.ckpt").read_bytes())
        assert main(["evaluate", "--ckpt", str(ckpt), "--manifest", str(augmented_manifest),
                     "--out", str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().out.startswith(f"{ckpt}: variant=base epoch=2 ")

    def test_missing_checkpoint_glob(self, tmp_path, augmented_manifest):
        rc = main(["evaluate", "--ckpt", str(tmp_path / "nothing*.ckpt"),
                   "--manifest", str(augmented_manifest), "--out", str(tmp_path / "e3")])
        assert rc == 2

    @pytest.mark.parametrize("arg", ["epoch0099.ckpt", "typo*/*.ckpt"])
    def test_a_checkpoint_argument_that_matches_nothing_exits_2(
        self, tmp_path, augmented_manifest, trained, monkeypatch, capsys, arg
    ):
        """Beside a valid checkpoint, a missing path or an unmatched glob is an
        error before any checkpoint loads, not a variant dropped from the grid."""
        loads = []
        monkeypatch.setattr(training, "load_checkpoint", loads.append)
        missing = str(trained / arg)
        out = tmp_path / "eval"
        assert main(["evaluate", "--ckpt", str(trained / "epoch0002.ckpt"), missing,
                     "--manifest", str(augmented_manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"bigphon: error: no checkpoint matches {missing!r}\n"
        assert loads == [] and not out.exists()

    def test_evaluate_reads_the_split_once_for_checkpoints_of_one_codec(
        self, tmp_path, augmented_manifest, trained, monkeypatch
    ):
        ckpt = load_checkpoint(trained / "epoch0002.ckpt")
        ckpt.epoch = 1
        save_checkpoint(ckpt, trained / "epoch0001.ckpt")
        reads = []
        read = training.read_sources
        monkeypatch.setattr(training, "read_sources",
                            lambda *args: reads.append(args) or read(*args))
        out = tmp_path / "eval"
        assert main(["evaluate", "--ckpt", str(trained / "*.ckpt"),
                     "--manifest", str(augmented_manifest), "--out", str(out)]) == 0
        assert len(reads) == 1
        assert sorted(p.name for p in out.glob("bleu_*.json")) == [
            "bleu_base_epoch0001.json", "bleu_base_epoch0002.json"]

    def test_a_path_that_is_no_checkpoint_exits_2_before_any_decode(
        self, tmp_path, augmented_manifest, trained, monkeypatch, capsys
    ):
        """`DIR/*` matches the run's checkpoint and its other files. Every
        header is read first, so the first file that is no checkpoint ends
        the command before the checkpoint sorted ahead of it decodes."""
        decodes = []
        decode = training.decode_split
        monkeypatch.setattr(training, "decode_split",
                            lambda *args, **kw: decodes.append(args) or decode(*args, **kw))
        out = tmp_path / "eval"
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(trained / "*"),
                     "--manifest", str(augmented_manifest), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"bigphon: error: {trained / 'run_config.json'}: bad magic b'{{\\n  '\n")
        assert decodes == [] and not out.exists()

    def test_errors_outputs(self, tmp_path, augmented_manifest, trained, capsys):
        out = tmp_path / "errors"
        rc = main(["errors", "--ckpt", str(trained / "epoch0002.ckpt"),
                   "--manifest", str(augmented_manifest), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "error_report.json").read_text(encoding="utf-8"))
        assert report["totals"]["sentences"] == 2
        articles = json.loads((out / "article_report.json").read_text(encoding="utf-8"))
        assert set(articles["articles"]) == {"der", "des", "dem", "den", "die", "das"}
        csv_lines = [
            line
            for line in (out / "articles.csv").read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        assert csv_lines[0] == "model,der,des,dem,den,die,das,avg"
        assert csv_lines[1].startswith("base,")
        assert (out / "sentences.txt").exists()


BAD_UTF8_VOCAB = b"#variant=base\n\xff\n"
BAD_UTF8_VOCAB_MESSAGE = "line 2: invalid UTF-8 byte 0xff"


class TestInputErrors:
    @pytest.fixture()
    def vocab_path(self, tmp_path, augmented_manifest):
        path = tmp_path / "base.vocab"
        assert main(["vocab", "--manifest", str(augmented_manifest),
                     "--variant", "base", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("flag, name", [
        ("--epochs", "epochs"), ("--heads", "heads"), ("--batch-size", "batch_size"),
        ("--d-model", "d_model"), ("--d-ff", "d_ff"), ("--max-target-len", "max_target_len"),
    ])
    def test_zero_config_value_exits_2(self, tmp_path, augmented_manifest, vocab_path,
                                       capsys, flag, name):
        args = train_args(augmented_manifest, vocab_path, tmp_path / "run") + [flag, "0"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"bigphon: error: {name} must be at least 1\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, tmp_path, augmented_manifest, vocab_path,
                                              capsys, value):
        args = train_args(augmented_manifest, vocab_path, tmp_path / "run") + ["--lr", value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "bigphon: error: learning_rate must be positive and finite\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["#variant=bogus"] + lines[1:],
         "unknown vocabulary variant 'bogus'; expected one of base, "),
        (lambda lines: lines + ["a+"], "phoneme '' not in vocabulary"),
    ], ids=["variant", "unit"])
    def test_bad_vocab_file_error_names_the_file(self, tmp_path, augmented_manifest, vocab_path,
                                                 capsys, edit, message):
        lines = vocab_path.read_text(encoding="utf-8").splitlines()
        vocab_path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        assert main(train_args(augmented_manifest, vocab_path, tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bigphon: error: {vocab_path}: {message}"), err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "vocab", "evaluate", "errors"])
    def test_unaugmented_row_exits_2(self, tmp_path, augmented_manifest, vocab_path, capsys,
                                     command):
        m = ingest(augmented_manifest)
        first, second = (u.utt_id for u in m.by_split("test"))
        lineno = [u.utt_id for u in m.utterances].index(first) + 1  # no header lines
        utts = tuple(replace(u, phonemes=None) if u.utt_id in (first, second) else u
                     for u in m.utterances)
        mpath = tmp_path / "bad.tsv"
        write_manifest(CorpusManifest(utts, m.split), mpath)
        run = tmp_path / "run"
        assert main(train_args(augmented_manifest, vocab_path, run)) == 0
        capsys.readouterr()
        args = {
            "train": train_args(mpath, vocab_path, tmp_path / "run2"),
            "vocab": ["vocab", "--manifest", str(mpath), "--all", "--out", str(tmp_path / "v")],
            "evaluate": ["evaluate", "--ckpt", str(run / "epoch0002.ckpt"),
                         "--manifest", str(mpath), "--out", str(tmp_path / "e")],
            "errors": ["errors", "--ckpt", str(run / "epoch0002.ckpt"),
                       "--manifest", str(mpath), "--out", str(tmp_path / "e")],
        }[command]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: {mpath}: line {lineno}: utterance {first!r} is not augmented\n")

    @pytest.mark.parametrize("command", ["vocab", "train", "evaluate", "errors"])
    def test_row_with_no_phonemes_exits_2(self, tmp_path, augmented_manifest, vocab_path, capsys,
                                          command):
        """A phoneme column of only `|` reads as an empty sequence, which
        `augment` never writes; every command that reads phonemes rejects it."""
        m = ingest(augmented_manifest)
        empty = m.by_split("test")[0]
        lines = augmented_manifest.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            cols = line.split("\t")
            if cols[0] == empty.utt_id:
                cols[2] = "|"
                lines[i] = "\t".join(cols)
                lineno = i + 1
        mpath = tmp_path / "empty.tsv"
        mpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert ingest(mpath).utterances[m.utterances.index(empty)].phonemes == PhonemeSequence()
        run = tmp_path / "run"
        assert main(train_args(augmented_manifest, vocab_path, run)) == 0
        capsys.readouterr()
        ckpt = str(run / "epoch0002.ckpt")
        args = {
            "vocab": ["vocab", "--manifest", str(mpath), "--all", "--out", str(tmp_path / "v")],
            "train": train_args(mpath, vocab_path, tmp_path / "run2"),
            "evaluate": ["evaluate", "--ckpt", ckpt, "--manifest", str(mpath),
                         "--out", str(tmp_path / "e")],
            "errors": ["errors", "--ckpt", ckpt, "--manifest", str(mpath),
                       "--out", str(tmp_path / "x")],
        }[command]
        assert main(args) == 2
        assert capsys.readouterr().err == (f"bigphon: error: {mpath}: line {lineno}: "
                                           f"utterance {empty.utt_id!r} has no phonemes: "
                                           f"{empty.text!r}\n")

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    def test_unknown_split_rejected_by_argparse(self, tmp_path, augmented_manifest, capsys,
                                                command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--ckpt", str(tmp_path / "x.ckpt"), "--manifest",
                  str(augmented_manifest), "--out", str(tmp_path / "out"), "--split", "bogus"])
        assert exc.value.code == 2
        assert "argument --split: invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    def test_seed_flag_rejected(self, tmp_path, augmented_manifest, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--ckpt", str(tmp_path / "x.ckpt"), "--manifest",
                  str(augmented_manifest), "--out", str(tmp_path / "out"), "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("missing", [0, 3])
    def test_train_features_without_feature_path_exits_2(
        self, tmp_path, augmented_manifest, vocab_path, capsys, missing
    ):
        m = ingest(augmented_manifest)
        missing_id = m.by_split("train")[missing].utt_id
        utts = []
        for u in m.utterances:
            path = tmp_path / f"{u.utt_id}.npy"
            np.save(path, np.zeros((4, 3)))
            utts.append(replace(u, feature_path=None if u.utt_id == missing_id else str(path)))
        mpath = tmp_path / "features.tsv"
        write_manifest(CorpusManifest(tuple(utts), m.split), mpath)
        assert main(train_args(mpath, vocab_path, tmp_path / "run")) == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: {mpath}: utterance {missing_id!r} has no feature_path\n")
        assert not (tmp_path / "run").exists()

    def test_train_takes_features_from_the_manifest(self, tmp_path, augmented_manifest,
                                                    vocab_path):
        """With no flag, a manifest whose rows all name frames trains on them."""
        m = ingest(augmented_manifest)
        utts = []
        for u in m.utterances:
            path = tmp_path / f"{u.utt_id}.npy"
            np.save(path, np.ones((4, 3)))
            utts.append(replace(u, feature_path=str(path)))
        mpath = tmp_path / "features.tsv"
        write_manifest(CorpusManifest(tuple(utts), m.split), mpath)
        run = tmp_path / "run"
        assert main(train_args(mpath, vocab_path, run)) == 0
        ckpt = load_checkpoint(run / "epoch0002.ckpt")
        assert ckpt.codec is None and ckpt.dims.feature_dim == 3
        assert json.loads((run / "run_config.json").read_text())["source_mode"] == "features"

    @pytest.fixture()
    def checkpoint(self, tmp_path, augmented_manifest, vocab_path):
        outdir = tmp_path / "run"
        assert main(train_args(augmented_manifest, vocab_path, outdir)) == 0
        return outdir / "epoch0002.ckpt"

    @pytest.mark.parametrize("edit, detail", [
        (lambda h: h.pop("epoch"), "header has no key 'epoch'"),
        (lambda h: h["config"].update(layers=2), "unknown config keys ['layers']"),
        (lambda h: h.update(epoch="2"), "epoch must be int, got '2'"),
        (lambda h: h["config"].update(d_model="16"), "d_model must be int, got '16'"),
        (lambda h: h["vocab"].update(variant="total15"), "unknown vocabulary variant 'total15'"),
        (lambda h: h.update(variant="total30"), "variant 'total30' differs from vocab 'base'"),
        (lambda h: h.update(variant="foo"), "variant 'foo' differs from vocab 'base'"),
        (lambda h: h["codec_chars"].extend("#$%"), "codec_chars give source_vocab 24, not 21"),
        (lambda h: h.update(codec_chars=None), "codec_chars give source_vocab None, not 21"),
    ])
    def test_bad_checkpoint_header_exits_2(self, tmp_path, augmented_manifest, checkpoint,
                                           capsys, edit, detail):
        blob = checkpoint.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + header_len])
        edit(header)
        new_header = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + len(new_header).to_bytes(8, "little") + new_header
                        + blob[16 + header_len :])
        rc = main(["evaluate", "--ckpt", str(bad), "--manifest", str(augmented_manifest),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bigphon: error: {bad}: ") and detail in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    def test_truncated_checkpoint_payload_exits_2(self, tmp_path, augmented_manifest,
                                                  checkpoint, capsys, command):
        blob = checkpoint.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(blob[:-100])
        payload_bytes = len(blob) - 100 - 16 - header_len
        capsys.readouterr()
        rc = main([command, "--ckpt", str(bad), "--manifest", str(augmented_manifest),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"bigphon: error: {bad}: parameter payload is {payload_bytes} bytes,")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_checkpoint_parameters_exit_3(
        self, tmp_path, augmented_manifest, checkpoint, monkeypatch, capsys, command, value
    ):
        ckpt = load_checkpoint(checkpoint)
        ckpt.params_flat[-1] = value
        path = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, path)
        calls = []
        decode = training.greedy_decode
        monkeypatch.setattr(training, "greedy_decode",
                            lambda *args: calls.append(args) or decode(*args))
        capsys.readouterr()
        rc = main([command, "--ckpt", str(path), "--manifest", str(augmented_manifest),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"bigphon: numeric failure: {path}: parameter out_b holds NaN or infinite values\n")
        assert calls == []

    def test_other_arithmetic_errors_are_not_numeric_failures(
        self, tmp_path, augmented_manifest, vocab_path, monkeypatch
    ):
        """Only non-finite losses, gradients and parameters exit 3; a ZeroDivisionError
        from the program keeps its traceback."""
        def fault(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(training, "train", fault)
        with pytest.raises(ZeroDivisionError):
            main(train_args(augmented_manifest, vocab_path, tmp_path / "run"))

    def test_step_faults_reach_the_user_by_kind(
        self, tmp_path, augmented_manifest, vocab_path, monkeypatch, capsys
    ):
        """Inside a training step, a ZeroDivisionError keeps its traceback and a
        non-finite gradient exits 3, both under their own type."""
        def raising(error):
            def fault(*args, **kwargs):
                raise error("in out_w")

            return fault

        monkeypatch.setattr(training, "loss_and_gradient", raising(ZeroDivisionError))
        with pytest.raises(ZeroDivisionError):
            main(train_args(augmented_manifest, vocab_path, tmp_path / "run"))
        monkeypatch.setattr(training, "loss_and_gradient", raising(NonFiniteGradient))
        capsys.readouterr()
        assert main(train_args(augmented_manifest, vocab_path, tmp_path / "run")) == 3
        assert capsys.readouterr().err == "bigphon: numeric failure: epoch 1, step 1: in out_w\n"

    @pytest.mark.parametrize("flag, content, message", [
        ("--rules", b"a\ta\t_\n", "line 1: expected 2 or 4 tab-separated fields, got 3"),
        ("--classes", b"a\tX\n", "line 1: bad classification entry 'a\\tX'"),
        ("--rules", b"a\t\xff\n", "line 1: invalid UTF-8 byte 0xff"),
        ("--classes", b"\xff\tV\n", "line 1: invalid UTF-8 byte 0xff"),
    ], ids=["rules", "classes", "rules-utf8", "classes-utf8"])
    def test_bad_table_file_error_names_the_file(self, tmp_path, capsys, flag, content,
                                                 message):
        table = tmp_path / "table.txt"
        table.write_bytes(content)
        raw = write_raw_manifest(tmp_path, ["das kind spielt"] * 3)
        assert main(["augment", "--manifest", str(raw), "--out", str(tmp_path / "out.tsv"),
                     "--split", "1,1,1", flag, str(table)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bigphon: error: {table}: {message}"), err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.tsv").exists()

    def test_bad_vocab_file_error_names_the_file_in_train(self, tmp_path, augmented_manifest,
                                                          capsys):
        bad = tmp_path / "base.vocab"
        bad.write_bytes(BAD_UTF8_VOCAB)
        assert main(train_args(augmented_manifest, bad, tmp_path / "run")) == 2
        assert capsys.readouterr().err == f"bigphon: error: {bad}: {BAD_UTF8_VOCAB_MESSAGE}\n"

    def test_bad_vocab_file_error_names_the_file_in_evaluate(self, tmp_path, augmented_manifest,
                                                             checkpoint, capsys):
        bad = tmp_path / "vocabs" / "base.vocab"
        bad.parent.mkdir()
        bad.write_bytes(BAD_UTF8_VOCAB)
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(checkpoint), "--manifest", str(augmented_manifest),
                     "--out", str(tmp_path / "eval"), "--vocab-dir", str(bad.parent)]) == 2
        assert capsys.readouterr().err == f"bigphon: error: {bad}: {BAD_UTF8_VOCAB_MESSAGE}\n"

    @pytest.mark.parametrize("command, value", [
        ("train", np.nan), ("evaluate", np.inf), ("errors", -np.inf),
    ])
    def test_non_finite_feature_frames_exit_2(self, tmp_path, augmented_manifest, vocab_path,
                                              capsys, command, value):
        m = ingest(augmented_manifest)
        rng = np.random.default_rng(0)
        utts = []
        for u in m.utterances:
            path = tmp_path / f"{u.utt_id}.npy"
            np.save(path, rng.normal(size=(4, 3)))
            utts.append(replace(u, feature_path=str(path)))
        mpath = tmp_path / "features.tsv"
        write_manifest(CorpusManifest(tuple(utts), m.split), mpath)
        run = tmp_path / "run"
        assert main(train_args(mpath, vocab_path, run)) == 0
        split = "train" if command == "train" else "test"
        bad = tmp_path / f"{m.by_split(split)[-1].utt_id}.npy"
        frames = np.load(bad)
        frames[2, 1] = value
        np.save(bad, frames)
        capsys.readouterr()
        argv = {
            "train": train_args(mpath, vocab_path, tmp_path / "run2"),
            "evaluate": ["evaluate", "--ckpt", str(run / "epoch0002.ckpt"),
                         "--manifest", str(mpath), "--out", str(tmp_path / "out")],
            "errors": ["errors", "--ckpt", str(run / "epoch0002.ckpt"),
                       "--manifest", str(mpath), "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: {bad}: feature frames hold NaN or infinite values\n")

    @pytest.mark.parametrize("frames", [
        np.array([["a", "b", "c"]] * 4),
        1j * np.arange(12.0).reshape(4, 3),
    ], ids=["string", "complex"])
    def test_non_real_feature_frames_exit_2(self, tmp_path, augmented_manifest, vocab_path,
                                            capsys, frames):
        m = ingest(augmented_manifest)
        bad = tmp_path / f"{m.by_split('train')[1].utt_id}.npy"
        utts = []
        for u in m.utterances:
            path = tmp_path / f"{u.utt_id}.npy"
            np.save(path, frames if path == bad else np.zeros((4, 3)))
            utts.append(replace(u, feature_path=str(path)))
        mpath = tmp_path / "features.tsv"
        write_manifest(CorpusManifest(tuple(utts), m.split), mpath)
        capsys.readouterr()
        args = train_args(mpath, vocab_path, tmp_path / "run")
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: {bad}: expected real numeric feature frames, "
            f"got dtype {frames.dtype}\n")

    def test_unreadable_manifest_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        raw = write_raw_manifest(tmp_path, ["als sie", "von dem"])

        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        monkeypatch.setattr(corpus, "open", denied, raising=False)
        assert main(["augment", "--manifest", str(raw), "--out", str(tmp_path / "out.tsv"),
                     "--split", "1,1,0"]) == 2
        assert capsys.readouterr().err == (
            f"bigphon: error: [Errno 13] Permission denied: '{raw}'\n")

    @pytest.mark.parametrize("command", ["vocab", "train", "evaluate", "errors",
                                         "augment", "vocab-variant"])
    def test_output_path_that_is_a_file_exits_2(
        self, tmp_path, augmented_manifest, vocab_path, checkpoint, monkeypatch, capsys, command
    ):
        """A directory command's --out is a file, or (`augment`, `vocab
        --variant`) a file command's --out is a directory: exit 2 naming it."""
        taken = tmp_path / "taken"
        file_out = command in ("augment", "vocab-variant")
        if file_out:
            taken.mkdir()
        kept = taken / "kept" if file_out else taken
        kept.write_text("not a directory\n", encoding="utf-8")
        argv = {
            "augment": ["augment", "--manifest", str(augmented_manifest), "--split", "8,2,2",
                        "--out", str(taken)],
            "vocab-variant": ["vocab", "--manifest", str(augmented_manifest),
                              "--variant", "base", "--out", str(taken)],
            "vocab": ["vocab", "--manifest", str(augmented_manifest), "--all",
                      "--out", str(taken)],
            "train": train_args(augmented_manifest, vocab_path, taken),
            "evaluate": ["evaluate", "--ckpt", str(checkpoint),
                         "--manifest", str(augmented_manifest), "--out", str(taken)],
            "errors": ["errors", "--ckpt", str(checkpoint),
                       "--manifest", str(augmented_manifest), "--out", str(taken)],
        }[command]
        calls = []
        decode = training.greedy_decode
        monkeypatch.setattr(training, "greedy_decode",
                            lambda *args: calls.append(args) or decode(*args))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bigphon: error: ") and str(taken) in err
        assert len(err.splitlines()) == 1
        if file_out:
            assert err == f"bigphon: error: [Errno 21] Is a directory: '{taken}'\n"
            assert list(taken.iterdir()) == [kept]
        assert calls == []
        assert kept.read_text(encoding="utf-8") == "not a directory\n"
        assert list(tmp_path.glob(".taken.*")) == []

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    @pytest.mark.parametrize("defect", ["unaugmented", "empty"])
    def test_bad_split_rejected_before_decoding(
        self, tmp_path, augmented_manifest, checkpoint, monkeypatch, capsys, command, defect
    ):
        m = ingest(augmented_manifest)
        last_test = m.by_split("test")[-1].utt_id
        lineno = [u.utt_id for u in m.utterances].index(last_test) + 1  # no header lines
        if defect == "unaugmented":
            utts = tuple(replace(u, phonemes=None) if u.utt_id == last_test else u
                         for u in m.utterances)
            bad = CorpusManifest(utts, m.split)
        else:
            bad = CorpusManifest(m.utterances,
                                 {k: v for k, v in m.split.items() if v != "test"})
        mpath = tmp_path / "bad.tsv"
        write_manifest(bad, mpath)
        calls = []
        decode = training.greedy_decode
        monkeypatch.setattr(training, "greedy_decode",
                            lambda *args: calls.append(args) or decode(*args))
        rc = main([command, "--ckpt", str(checkpoint), "--manifest", str(mpath),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert calls == []
        expected = (f"line {lineno}: utterance {last_test!r} is not augmented"
                    if defect == "unaugmented" else
                    "no 'test' split; give `bigphon augment --split` a nonzero test count")
        assert capsys.readouterr().err == f"bigphon: error: {mpath}: {expected}\n"
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_augment_twice_byte_identical(self, tmp_path):
        texts = ["als sie von dem", "und dem geist", "das kind", "die sonne"]
        raw = write_raw_manifest(tmp_path, texts)
        outs = []
        for name in ("a1.tsv", "a2.tsv"):
            out = tmp_path / name
            assert main(["augment", "--manifest", str(raw), "--out", str(out),
                         "--split", "2,1,1", "--seed", "3"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_float32_frames_match_their_float64_copies(self, tmp_path, augmented_manifest,
                                                        monkeypatch):
        """Frames reach `make_batch` as stored, and float32 frames give the
        same checkpoint, trace and scores as float64 copies of them."""
        vocab_path = tmp_path / "v.vocab"
        assert main(["vocab", "--manifest", str(augmented_manifest), "--variant", "base",
                     "--out", str(vocab_path)]) == 0
        m = ingest(augmented_manifest)
        rng = np.random.default_rng(2)
        frames = {u.utt_id: rng.normal(size=(rng.integers(5, 9), 3)).astype(np.float32)
                  for u in m.utterances}
        dtypes = set()
        make_batch = model.make_batch

        def spy(sources, targets):
            dtypes.update(s.dtype for s in sources)
            return make_batch(sources, targets)

        monkeypatch.setattr(training, "make_batch", spy)
        monkeypatch.setattr(model, "make_batch", spy)
        outputs = {}
        for dtype in ("float32", "float64"):
            utts = []
            for u in m.utterances:
                path = tmp_path / f"{u.utt_id}.{dtype}.npy"
                np.save(path, frames[u.utt_id].astype(dtype))
                utts.append(replace(u, feature_path=str(path)))
            mpath = tmp_path / f"{dtype}.tsv"
            write_manifest(CorpusManifest(tuple(utts), m.split), mpath)
            run, out = tmp_path / f"run-{dtype}", tmp_path / f"eval-{dtype}"
            assert main(train_args(mpath, vocab_path, run)) == 0
            assert main(["evaluate", "--ckpt", str(run / "epoch0002.ckpt"),
                         "--manifest", str(mpath), "--out", str(out)]) == 0
            files = [run / "epoch0002.ckpt", run / "trace.csv", *sorted(out.glob("bleu_*.json"))]
            outputs[dtype] = [(path.name, path.read_bytes()) for path in files]
            assert dtypes == {np.dtype(dtype)}
            dtypes.clear()
        assert len(outputs["float32"]) == 3
        assert outputs["float32"] == outputs["float64"]

    def test_train_twice_byte_identical(self, tmp_path, augmented_manifest):
        vocab_path = tmp_path / "v.vocab"
        main(["vocab", "--manifest", str(augmented_manifest), "--variant", "base",
              "--out", str(vocab_path)])
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(train_args(augmented_manifest, vocab_path, d1)) == 0
        assert main(train_args(augmented_manifest, vocab_path, d2)) == 0
        assert (d1 / "epoch0002.ckpt").read_bytes() == (d2 / "epoch0002.ckpt").read_bytes()
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()


def test_non_model_commands_load_no_numpy(tmp_path):
    """`augment`, `vocab` and the scoring layers run without numpy, and
    `augment` and `vocab` without `analysis`."""
    rng = np.random.default_rng(4)
    raw = write_raw_manifest(
        tmp_path, [" ".join(rng.choice(TOY_WORDS, size=4)) for _ in range(12)])
    script = """
import sys
from bigphon.cli import main
raw, out = sys.argv[1:]
assert main(["augment", "--manifest", raw, "--out", out + "/corpus.tsv", "--split", "8,2,2"]) == 0
assert main(["vocab", "--manifest", out + "/corpus.tsv", "--all", "--out", out + "/vocabs"]) == 0
analysis_loaded = "bigphon.analysis" in sys.modules
import bigphon.analysis, bigphon.bleu, bigphon.corpus, bigphon.g2p, bigphon.ipa, bigphon.vocab
print(analysis_loaded, "numpy" in sys.modules)
"""
    src = str(Path(bigphon.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script, str(raw), str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (tmp_path / "vocabs" / "total30.vocab").exists()
    assert done.stdout.splitlines()[-1] == "False False"


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    """One epoch of `train` at the default model config, run as a console
    command, writes the same checkpoint and trace with no BLAS thread
    variable set as with `OPENBLAS_NUM_THREADS=1`: unless the user sets a
    count, `main` pins BLAS to one thread before numpy loads. Unpinned, the
    feed-forward's product over d_ff = 400 splits across threads and rounds
    differently. On a 1-CPU host BLAS runs one thread either way, so there
    this test cannot fail."""
    manifest, vocab_path = tmp_path / "corpus.tsv", tmp_path / "base.vocab"
    write_manifest(make_toy_manifest(30, seed=1, sizes=(20, 5, 5)), manifest)
    assert main(["vocab", "--manifest", str(manifest), "--variant", "base",
                 "--out", str(vocab_path)]) == 0
    src = str(Path(bigphon.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    outputs = []
    for pinned in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        outdir = tmp_path / f"run{len(outputs)}"
        subprocess.run([sys.executable, "-m", "bigphon.cli", "train", "--manifest", str(manifest),
                        "--vocab", str(vocab_path), "--outdir", str(outdir), "--epochs", "1",
                        "--ckpt-interval", "1"],
                       capture_output=True, check=True, env={**env, **pinned, "PYTHONPATH": src})
        outputs.append([(outdir / name).read_bytes() for name in ("epoch0001.ckpt", "trace.csv")])
    assert outputs[0] == outputs[1]

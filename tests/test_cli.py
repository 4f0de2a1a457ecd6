"""CLI subcommands end to end on toy data."""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

from bigphon import cli, training, vocab
from bigphon.cli import build_parser, main
from bigphon.corpus import CorpusManifest, Utterance, ingest, write_manifest
from bigphon.model import ModelConfig

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
        sizes = m.split_sizes()
        assert (sizes["train"], sizes["valid"], sizes["test"]) == (3, 1, 1)

    def test_unmappable_char_exits_2(self, tmp_path, capsys):
        raw = write_raw_manifest(tmp_path, ["als 3 sie"])
        rc = main(["augment", "--manifest", str(raw), "--out", str(tmp_path / "x.tsv"),
                   "--split", "1,0,0"])
        assert rc == 2
        assert "u000" in capsys.readouterr().err

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

        monkeypatch.setattr(cli, "train", stop)

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
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {f for a in sub.choices["train"]._actions for f in a.option_strings}
        assert flags == {
            "-h", "--help", "--manifest", "--vocab", "--outdir", "--classes", "--source",
            "--verbose", "--d-model", "--heads", "--d-ff", "--encoder-layers",
            "--decoder-layers", "--epochs", "--ckpt-interval", "--max-target-len", "--seed",
            "--lr", "--batch-size", "--dropout",
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

    def test_missing_checkpoint_glob(self, tmp_path, augmented_manifest):
        rc = main(["evaluate", "--ckpt", str(tmp_path / "nothing*.ckpt"),
                   "--manifest", str(augmented_manifest), "--out", str(tmp_path / "e3")])
        assert rc == 2

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

    @pytest.mark.parametrize("command", ["train", "vocab", "evaluate"])
    def test_unaugmented_row_exits_2(self, tmp_path, augmented_manifest, vocab_path, capsys,
                                     command):
        m = ingest(augmented_manifest)
        first, second = (u.utt_id for u in m.by_split("test"))
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
        }[command]
        assert main(args) == 2
        assert capsys.readouterr().err == f"bigphon: error: utterance {first!r} is not augmented\n"

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
        args = train_args(mpath, vocab_path, tmp_path / "run") + ["--source", "features"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert missing_id in err and len(err.splitlines()) == 1

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
    @pytest.mark.parametrize("defect", ["unaugmented", "empty"])
    def test_bad_split_rejected_before_decoding(
        self, tmp_path, augmented_manifest, checkpoint, monkeypatch, capsys, command, defect
    ):
        m = ingest(augmented_manifest)
        last_test = m.by_split("test")[-1].utt_id
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
        expected = last_test if defect == "unaugmented" else "no 'test' split"
        assert expected in capsys.readouterr().err


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

    def test_train_twice_byte_identical(self, tmp_path, augmented_manifest):
        vocab_path = tmp_path / "v.vocab"
        main(["vocab", "--manifest", str(augmented_manifest), "--variant", "base",
              "--out", str(vocab_path)])
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(train_args(augmented_manifest, vocab_path, d1)) == 0
        assert main(train_args(augmented_manifest, vocab_path, d2)) == 0
        assert (d1 / "epoch0002.ckpt").read_bytes() == (d2 / "epoch0002.ckpt").read_bytes()
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()

"""Training loop determinism, checkpointing, and decoding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bigphon.corpus import CorpusManifest, Utterance, augment, split_corpus
from bigphon.ipa import induce_inventory
from bigphon.model import ModelConfig, NonFiniteLoss, greedy_decode
from bigphon.training import (
    Checkpoint,
    SourceCodec,
    TrainingTrace,
    decode_split,
    load_checkpoint,
    load_features,
    save_checkpoint,
    train,
)
from bigphon.vocab import build_variant, tokenize

from conftest import make_toy_manifest

TINY = dict(
    d_model=16,
    heads=2,
    d_ff=32,
    encoder_layers=1,
    decoder_layers=1,
    batch_size=8,
    learning_rate=3e-3,
    dropout=0.1,
)


def toy_vocab(manifest, classes, variant="base"):
    inv = induce_inventory([u.phonemes for u in manifest.utterances], classes)
    return build_variant([u.phonemes for u in manifest.by_split("train")], inv, variant)


class TestSourceCodec:
    def test_sorted_and_stable(self):
        codec = SourceCodec.from_texts(["ba", "ac"])
        assert codec.chars == ("a", "b", "c")
        assert codec.size == 5

    def test_unseen_char_is_unk(self):
        codec = SourceCodec.from_texts(["ab"])
        assert codec.encode("abz") == [2, 3, SourceCodec.UNK]


class TestTrainLoop:
    def test_checkpoint_count_and_trace_length(self, classes):
        m = make_toy_manifest(12, seed=1, sizes=(10, 1, 1))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=10, checkpoint_interval=10, seed=0, **TINY)
        result = train(m, vocab, cfg)
        assert len(result.checkpoints) == 1
        assert result.checkpoints[0].epoch == 10
        assert len(result.trace) == 10

    def test_two_checkpoints_at_interval(self, classes):
        m = make_toy_manifest(12, seed=1, sizes=(10, 1, 1))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=4, checkpoint_interval=2, seed=0, **TINY)
        result = train(m, vocab, cfg)
        assert [c.epoch for c in result.checkpoints] == [2, 4]

    def test_deterministic_runs(self, classes):
        m = make_toy_manifest(12, seed=2, sizes=(10, 1, 1))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=3, checkpoint_interval=3, seed=7, **TINY)
        r1 = train(m, vocab, cfg)
        r2 = train(m, vocab, cfg)
        assert r1.trace.entries == r2.trace.entries
        assert np.array_equal(r1.checkpoints[0].params_flat, r2.checkpoints[0].params_flat)

    def test_valid_loss_nan_without_valid_split(self, classes):
        m = make_toy_manifest(5, seed=3, sizes=(5, 0, 0))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        result = train(m, vocab, cfg)
        assert math.isnan(result.trace.entries[0][1])

    def test_unsplit_manifest_rejected(self, classes):
        m = make_toy_manifest(5, seed=3)
        vocab_m = make_toy_manifest(5, seed=3, sizes=(5, 0, 0))
        vocab = toy_vocab(vocab_m, classes)
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        with pytest.raises(ValueError):
            train(m, vocab, cfg)

    def test_divergence_reports_epoch_and_step(self, classes):
        # lr large enough that squared activations overflow float64
        m = make_toy_manifest(8, seed=4, sizes=(8, 0, 0))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(
            epochs=5, checkpoint_interval=5, seed=0,
            d_model=16, heads=2, d_ff=32, encoder_layers=1, decoder_layers=1,
            batch_size=4, learning_rate=1e200, dropout=0.0,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss) as exc:
                train(m, vocab, cfg)
        assert "epoch" in str(exc.value)


class TestOverfit:
    def test_single_pair_memorized(self, classes, rules):
        utts = (Utterance("p0", "das kind spielt"),)
        m = split_corpus(augment(CorpusManifest(utts), rules, classes), (1, 0, 0), seed=0)
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(
            epochs=120, checkpoint_interval=120, seed=1,
            d_model=16, heads=2, d_ff=32, encoder_layers=1, decoder_layers=1,
            batch_size=1, learning_rate=3e-3, dropout=0.0,
        )
        result = train(m, vocab, cfg)
        ckpt = result.checkpoints[-1]
        ((utt, res),), _ = decode_split(ckpt, m, split="train")
        assert res.sequence.tokens == utt.phonemes.tokens
        assert not res.truncated


class TestCheckpointIO:
    def test_round_trip_identical_decodes(self, tmp_path, classes):
        m = make_toy_manifest(8, seed=5, sizes=(6, 1, 1))
        vocab = toy_vocab(m, classes, "total10")
        cfg = ModelConfig(epochs=2, checkpoint_interval=2, seed=2, **TINY)
        ckpt = train(m, vocab, cfg).checkpoints[-1]
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == ckpt.epoch
        assert loaded.config == ckpt.config
        assert loaded.variant == "total10"
        assert np.array_equal(loaded.params_flat, ckpt.params_flat)
        assert loaded.vocab.units == ckpt.vocab.units
        test_utt = m.by_split("test")[0]
        a = greedy_decode(ckpt.params, cfg, ckpt.codec.encode(test_utt.text), ckpt.vocab)
        b = greedy_decode(loaded.params, cfg, loaded.codec.encode(test_utt.text), loaded.vocab)
        assert a.ids == b.ids

    def test_saved_files_byte_identical_across_runs(self, tmp_path, classes):
        m = make_toy_manifest(8, seed=6, sizes=(6, 1, 1))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=2, checkpoint_interval=2, seed=3, **TINY)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        train(m, vocab, cfg, outdir=d1)
        train(m, vocab, cfg, outdir=d2)
        assert (d1 / "epoch0002.ckpt").read_bytes() == (d2 / "epoch0002.ckpt").read_bytes()
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestFeatureMode:
    def make_feature_manifest(self, tmp_path, rules, classes, n=6):
        rng = np.random.default_rng(0)
        utts = []
        for i, text in enumerate(["als sie", "dem geist", "und wurden",
                                  "das kind", "die sonne", "der wald"][:n]):
            path = tmp_path / f"f{i}.npy"
            np.save(path, rng.normal(size=(rng.integers(3, 8), 5)))
            utts.append(Utterance(f"u{i}", text, feature_path=str(path)))
        m = augment(CorpusManifest(tuple(utts)), rules, classes)
        return split_corpus(m, (4, 1, 1), seed=0)

    def test_train_and_decode(self, tmp_path, classes, rules):
        m = self.make_feature_manifest(tmp_path, rules, classes)
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=2, checkpoint_interval=2, seed=0, **TINY)
        result = train(m, vocab, cfg, source_mode="features")
        ckpt = result.checkpoints[-1]
        assert ckpt.codec is None
        assert ckpt.dims.feature_dim == 5
        decoded, _ = decode_split(ckpt, m, split="test")
        assert len(decoded) == 1

    def test_checkpoint_round_trip(self, tmp_path, classes, rules):
        m = self.make_feature_manifest(tmp_path, rules, classes)
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=2, checkpoint_interval=2, seed=0, **TINY)
        ckpt = train(m, vocab, cfg, source_mode="features").checkpoints[-1]
        path = tmp_path / "f.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.codec is None
        assert loaded.dims.feature_dim == 5

    def test_load_features_validates_shape(self, tmp_path):
        for shape in [(7,), (0, 5)]:
            path = tmp_path / "bad.npy"
            np.save(path, np.zeros(shape))
            with pytest.raises(ValueError):
                load_features(path)


class TestTrace:
    def test_csv_round_trip(self, tmp_path):
        trace = TrainingTrace([(3.5, 3.6), (2.1, 2.9)])
        path = tmp_path / "trace.csv"
        trace.write(path, header_lines=["seed=1"])
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# seed=1\nepoch,train_loss,valid_loss\n")
        assert TrainingTrace.read(path).entries == trace.entries


class TestTokenTargets:
    def test_targets_match_tokenizer(self, classes):
        m = make_toy_manifest(4, seed=7, sizes=(4, 0, 0))
        vocab = toy_vocab(m, classes, "total20")
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        ckpt = train(m, vocab, cfg).checkpoints[-1]
        # checkpoint's vocab tokenizes identically to the one it trained with
        seq = m.utterances[0].phonemes
        assert tokenize(seq, ckpt.vocab).ids == tokenize(seq, vocab).ids

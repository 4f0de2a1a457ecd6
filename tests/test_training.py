"""Training loop determinism, checkpointing, and decoding."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bigphon import training
from bigphon.corpus import CorpusManifest, Utterance, augment, split_corpus
from bigphon.ipa import induce_inventory
from bigphon.model import (
    ModelConfig,
    ModelDims,
    NonFiniteGradient,
    NonFiniteLoss,
    ShapeMismatch,
    batch_loss_and_dlogits,
    greedy_decode,
    init_params,
    make_batch,
)
from bigphon.training import (
    Checkpoint,
    CheckpointFormatError,
    NonFiniteParameter,
    SourceCodec,
    TrainingTrace,
    adam_step,
    decode_split,
    load_checkpoint,
    load_features,
    read_sources,
    save_checkpoint,
    train,
)
from bigphon.vocab import PAD_ID, build_variant, tokenize

import conftest
from conftest import last_checkpoint, make_toy_manifest

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
    def test_checkpoint_count_and_trace_length(self, tmp_path, classes):
        m = make_toy_manifest(12, seed=1, sizes=(10, 1, 1))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=10, checkpoint_interval=10, seed=0, **TINY)
        trace = train(m, vocab, cfg, tmp_path)
        assert [p.name for p in tmp_path.glob("*.ckpt")] == ["epoch0010.ckpt"]
        assert last_checkpoint(tmp_path, cfg).epoch == 10
        assert len(trace.entries) == 10

    def test_two_checkpoints_at_interval(self, tmp_path, classes):
        m = make_toy_manifest(12, seed=1, sizes=(10, 1, 1))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=4, checkpoint_interval=2, seed=0, **TINY)
        train(m, vocab, cfg, tmp_path)
        assert [load_checkpoint(p).epoch for p in sorted(tmp_path.glob("*.ckpt"))] == [2, 4]

    def test_deterministic_runs(self, tmp_path, classes):
        m = make_toy_manifest(12, seed=2, sizes=(10, 1, 1))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=3, checkpoint_interval=3, seed=7, **TINY)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert train(m, vocab, cfg, d1).entries == train(m, vocab, cfg, d2).entries
        assert np.array_equal(last_checkpoint(d1, cfg).params_flat,
                              last_checkpoint(d2, cfg).params_flat)

    def test_valid_loss_nan_without_valid_split(self, tmp_path, classes):
        m = make_toy_manifest(5, seed=3, sizes=(5, 0, 0))
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        trace = train(m, vocab, cfg, tmp_path)
        assert math.isnan(trace.entries[0][1])

    def test_unsplit_manifest_rejected(self, tmp_path, classes):
        m = make_toy_manifest(5, seed=3)
        vocab_m = make_toy_manifest(5, seed=3, sizes=(5, 0, 0))
        vocab = toy_vocab(vocab_m, classes)
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        with pytest.raises(ValueError):
            train(m, vocab, cfg, tmp_path)

    @pytest.mark.parametrize("error", [NonFiniteLoss, NonFiniteGradient, ZeroDivisionError])
    def test_step_errors_keep_their_type(self, tmp_path, classes, monkeypatch, error):
        """A non-finite loss or gradient gains the epoch and step and keeps
        its type; any other ArithmeticError is a program fault, left as is."""
        def fault(*args, **kwargs):
            raise error("in out_w")

        monkeypatch.setattr(training, "loss_and_gradient", fault)
        m = make_toy_manifest(5, seed=3, sizes=(5, 0, 0))
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        with pytest.raises(error) as exc:
            train(m, toy_vocab(m, classes), cfg, tmp_path)
        prefix = "" if error is ZeroDivisionError else "epoch 1, step 1: "
        assert str(exc.value) == f"{prefix}in out_w"

    def test_divergence_reports_epoch_and_step(self, tmp_path, classes):
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
                train(m, vocab, cfg, tmp_path)
        assert "epoch" in str(exc.value)


def reference_adam_step(flat, grad_flat, m, v, t, lr):
    """Adam as `adam_step` computed it before it wrote into scratch buffers:
    a new array per operation."""
    m *= training.ADAM_BETA1
    m += (1.0 - training.ADAM_BETA1) * grad_flat
    v *= training.ADAM_BETA2
    v += (1.0 - training.ADAM_BETA2) * grad_flat * grad_flat
    mhat = m / (1.0 - training.ADAM_BETA1**t)
    vhat = v / (1.0 - training.ADAM_BETA2**t)
    flat -= lr * mhat / (np.sqrt(vhat) + training.ADAM_EPS)


class TestAdam:
    def test_matches_reference_bit_for_bit(self):
        """Three steps on gradients spanning many magnitudes, zeros among
        them, leave the same parameters and moments as the reference."""
        rng = np.random.default_rng(11)
        flat = rng.normal(size=5000)
        grads = [rng.normal(size=flat.size) * 10.0 ** rng.integers(-12, 4, size=flat.size)
                 for _ in range(3)]
        for g in grads:
            g[rng.random(flat.size) < 0.1] = 0.0
        got = (flat.copy(), np.zeros_like(flat), np.zeros_like(flat))  # flat, m, v
        want = tuple(a.copy() for a in got)
        for step, g in enumerate(grads, start=1):
            adam_step(got[0], g, got[1], got[2], step, 1e-3)
            reference_adam_step(want[0], g, want[1], want[2], step, 1e-3)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert not np.array_equal(got[0], flat)


class TestTrainMemory:
    def test_kept_memory_does_not_grow_with_checkpoints(self, tmp_path, classes):
        """Once `train` has written a checkpoint it keeps no copy: what is
        still traced when it returns stays under one parameter vector,
        whether it wrote one checkpoint or four."""
        m = make_toy_manifest(12, seed=1, sizes=(10, 1, 1))
        vocab = toy_vocab(m, classes)
        kept = {}
        for interval in (4, 1):
            cfg = ModelConfig(epochs=4, checkpoint_interval=interval, seed=0, **TINY)
            outdir = tmp_path / f"every{interval}"
            tracemalloc.start()
            try:
                trace = train(m, vocab, cfg, outdir)
                kept[len(list(outdir.glob("*.ckpt")))] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(trace.entries) == 4
        vector = last_checkpoint(outdir, cfg).params_flat.nbytes
        assert kept.keys() == {1, 4}
        assert max(kept.values()) < vector, (kept, vector)


class TestOverfit:
    def test_single_pair_memorized(self, tmp_path, classes, rules):
        utts = (Utterance("p0", "das kind spielt"),)
        m = split_corpus(augment(CorpusManifest(utts), rules, classes), (1, 0, 0), seed=0)
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(
            epochs=120, checkpoint_interval=120, seed=1,
            d_model=16, heads=2, d_ff=32, encoder_layers=1, decoder_layers=1,
            batch_size=1, learning_rate=3e-3, dropout=0.0,
        )
        train(m, vocab, cfg, tmp_path)
        ckpt = last_checkpoint(tmp_path, cfg)
        utts = m.by_split("train")
        ((utt, res),), _ = decode_split(ckpt, utts, read_sources(utts, ckpt.codec))
        assert res.sequence.tokens == utt.phonemes.tokens
        assert not res.truncated


class TestCheckpointIO:
    def test_round_trip_identical_decodes(self, tmp_path, classes):
        m = make_toy_manifest(8, seed=5, sizes=(6, 1, 1))
        vocab = toy_vocab(m, classes, "total10")
        cfg = ModelConfig(epochs=2, checkpoint_interval=2, seed=2, **TINY)
        train(m, vocab, cfg, tmp_path / "run")
        ckpt = last_checkpoint(tmp_path / "run", cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == (tmp_path / "run" / "epoch0002.ckpt").read_bytes()
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

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory, classes):
        m = make_toy_manifest(8, seed=5, sizes=(6, 1, 1))
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=2, **TINY)
        outdir = tmp_path_factory.mktemp("ckpt")
        train(m, toy_vocab(m, classes), cfg, outdir)
        return outdir / "epoch0001.ckpt"

    @pytest.mark.parametrize("cut", [1, 7, 100])
    def test_ragged_payload_names_its_length(self, tmp_path, saved, cut):
        blob = saved.read_bytes()
        payload = len(blob) - 16 - int.from_bytes(blob[8:16], "little") - cut
        path = tmp_path / "cut.ckpt"
        path.write_bytes(blob[:-cut])
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: parameter payload is {payload} bytes,")

    def test_header_length_past_the_end_is_a_format_error(self, tmp_path, saved):
        """A corrupt length is checked against the file, not handed to read()."""
        blob = saved.read_bytes()
        path = tmp_path / "long.ckpt"
        path.write_bytes(blob[:8] + (1 << 62).to_bytes(8, "little") + blob[16:])
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (
            f"{path}: header length {1 << 62} exceeds the {len(blob) - 16} bytes left in the file")

    def test_non_finite_parameters_name_the_first(self, tmp_path, saved):
        ckpt = load_checkpoint(saved)
        ckpt.params["out_w"][3, 1] = np.nan
        ckpt.params["tgt_embed"][0, 2] = -np.inf
        path = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(NonFiniteParameter) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: parameter tgt_embed holds NaN or infinite values"


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
        train(m, vocab, cfg, tmp_path / "run")
        ckpt = last_checkpoint(tmp_path / "run", cfg)
        assert ckpt.codec is None
        assert ckpt.dims.feature_dim == 5
        utts = m.by_split("test")
        decoded, _ = decode_split(ckpt, utts, read_sources(utts, ckpt.codec))
        assert len(decoded) == 1

    def test_train_loads_each_feature_file_once(self, tmp_path, classes, rules, monkeypatch):
        """The first train row's file sets the run's width and is not read again."""
        m = self.make_feature_manifest(tmp_path, rules, classes)
        loads = []
        load = training.load_features
        monkeypatch.setattr(training, "load_features",
                            lambda path, *args: loads.append(path) or load(path, *args))
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        train(m, toy_vocab(m, classes), cfg, tmp_path / "run")
        read = m.by_split("train") + m.by_split("valid")
        assert loads == [u.feature_path for u in read]

    @pytest.mark.parametrize("manifest_path", [None, "corpus.tsv"])
    def test_read_sources_checks_every_row_before_any_load(self, tmp_path, classes, rules,
                                                           monkeypatch, manifest_path):
        """A row with no feature file is found before any file loads; the
        error names the manifest's file when there is one."""
        utts = self.make_feature_manifest(tmp_path, rules, classes).by_split("train")
        utts = utts[:-1] + (replace(utts[-1], feature_path=None),)
        loads = []
        monkeypatch.setattr(training, "load_features", lambda *args: loads.append(args))
        with pytest.raises(ValueError) as exc:
            training.read_sources(utts, None, manifest_path=manifest_path)
        prefix = f"{manifest_path}: " if manifest_path else ""
        assert str(exc.value) == f"{prefix}utterance {utts[-1].utt_id!r} has no feature_path"
        assert loads == []

    def test_source_mode_comes_from_the_train_and_valid_rows(self, tmp_path, classes, rules):
        m = self.make_feature_manifest(tmp_path, rules, classes)
        assert training.source_mode(m) == "features"
        test_id = m.by_split("test")[0].utt_id
        valid_id = m.by_split("valid")[0].utt_id
        for keep, mode in ((set(), "text"), ({test_id}, "text"), ({valid_id}, "features")):
            utts = tuple(u if u.utt_id in keep else replace(u, feature_path=None)
                         for u in m.utterances)
            assert training.source_mode(replace(m, utterances=utts)) == mode

    def test_read_sources_keeps_frames_as_stored(self, tmp_path):
        frames = np.arange(12, dtype=np.float32).reshape(4, 3)
        np.save(tmp_path / "f.npy", frames)
        utt = Utterance("u0", "x", feature_path=str(tmp_path / "f.npy"))
        (source,) = read_sources([utt], None)
        assert source.dtype == np.float32 and np.array_equal(source, frames)

    def test_checkpoint_round_trip(self, tmp_path, classes, rules):
        m = self.make_feature_manifest(tmp_path, rules, classes)
        vocab = toy_vocab(m, classes)
        cfg = ModelConfig(epochs=2, checkpoint_interval=2, seed=0, **TINY)
        train(m, vocab, cfg, tmp_path / "run")
        ckpt = last_checkpoint(tmp_path / "run", cfg)
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

    def test_load_features_checks_the_run_width(self, tmp_path):
        path = tmp_path / "frames.npy"
        np.save(path, np.ones((6, 4)))
        assert load_features(path, 4).shape == (6, 4)
        with pytest.raises(ShapeMismatch) as exc:
            load_features(path, 3)
        assert str(exc.value) == f"{path}: feature array (6, 4) does not match feature_dim=3"

    @pytest.mark.parametrize("write, message", [
        (lambda f: None, "EOF: reading magic string, expected 8 bytes got 0"),
        (lambda f: np.savez(f, frames=np.ones((4, 3))),
         "the magic string is not correct; expected b'\\x93NUMPY', got b'PK\\x03\\x04-\\x00'"),
    ], ids=["empty", "npz"])
    def test_load_features_takes_only_one_npy_array(self, tmp_path, write, message):
        path = tmp_path / "frames.npy"
        with open(path, "wb") as f:
            write(f)
        with pytest.raises(ValueError) as exc:
            load_features(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_features_rejects_non_finite_frames(self, tmp_path, value):
        frames = np.ones((4, 3), dtype=np.float32)
        frames[3, 2] = value
        path = tmp_path / "frames.npy"
        np.save(path, frames)
        with pytest.raises(ValueError) as exc:
            load_features(path)
        assert str(exc.value) == f"{path}: feature frames hold NaN or infinite values"


def reference_valid_loss(params, config, sources, targets) -> float:
    """The valid loss through conftest's reference forward, which builds
    the whole backward cache, batch by batch as `_epoch_valid_loss` goes."""
    dims = conftest.infer_dims(params)
    total, tokens = 0.0, 0
    for start in range(0, len(sources), config.batch_size):
        chunk = slice(start, start + config.batch_size)
        batch = make_batch(sources[chunk], targets[chunk])
        logits, _ = conftest.forward_batch(params, config, dims, batch)
        loss, _, n = batch_loss_and_dlogits(logits[batch.tgt_out != PAD_ID], batch.tgt_out)
        total += loss * n
        tokens += n
    return total / tokens


class TestValidLoss:
    """The valid pass runs the forward without a backward cache."""

    @staticmethod
    def case(source):
        config = ModelConfig(d_model=32, heads=2, d_ff=64, encoder_layers=4, decoder_layers=2,
                             epochs=1, checkpoint_interval=1, batch_size=8, dropout=0.1)
        rng = np.random.default_rng(4)
        if source == "tokens":
            dims = ModelDims(target_vocab=20, source_vocab=30)
            sources = [rng.integers(0, 30, size=n) for n in rng.integers(20, 90, size=12)]
        else:
            dims = ModelDims(target_vocab=20, feature_dim=6)
            sources = [rng.normal(size=(n, 6)) for n in rng.integers(20, 90, size=12)]
        targets = [rng.integers(4, 20, size=n) for n in rng.integers(10, 60, size=12)]
        return init_params(config, dims, rng), config, sources, targets

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_matches_reference_bitwise(self, source):
        args = self.case(source)
        value = training._epoch_valid_loss(*args)
        assert math.isfinite(value)
        assert np.array_equal(value, reference_valid_loss(*args))

    def test_allocates_at_most_half_the_reference(self):
        """tracemalloc sees every numpy buffer, so the peak is exact."""
        args = self.case("tokens")
        peaks = []
        for valid_loss in (reference_valid_loss, training._epoch_valid_loss):
            tracemalloc.start()
            try:
                valid_loss(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.5 * peaks[0], peaks


def read_trace(path) -> TrainingTrace:
    """Parse a trace CSV written by `TrainingTrace.write`."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#") or line.startswith("epoch,"):
            continue
        _, tr, va = line.split(",")
        entries.append((float(tr), float(va)))
    return TrainingTrace(entries)


class TestTrace:
    def test_csv_round_trip(self, tmp_path):
        trace = TrainingTrace([(3.5, 3.6), (2.1, 2.9)])
        path = tmp_path / "trace.csv"
        trace.write(path, header_lines=["seed=1"])
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# seed=1\nepoch,train_loss,valid_loss\n")
        assert read_trace(path).entries == trace.entries


class TestTokenTargets:
    def test_targets_match_tokenizer(self, tmp_path, classes):
        m = make_toy_manifest(4, seed=7, sizes=(4, 0, 0))
        vocab = toy_vocab(m, classes, "total20")
        cfg = ModelConfig(epochs=1, checkpoint_interval=1, seed=0, **TINY)
        train(m, vocab, cfg, tmp_path)
        ckpt = last_checkpoint(tmp_path, cfg)
        # checkpoint's vocab tokenizes identically to the one it trained with
        seq = m.utterances[0].phonemes
        assert tokenize(seq, ckpt.vocab).ids == tokenize(seq, vocab).ids

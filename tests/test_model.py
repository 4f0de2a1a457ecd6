"""Transformer forward/backward, loss, and decoding contracts."""

from __future__ import annotations

import inspect
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from bigphon import model
from bigphon.ipa import PhonemeSequence, induce_inventory
from bigphon.model import (
    Batch,
    LengthMismatch,
    ModelConfig,
    ModelDims,
    NonFiniteLoss,
    ShapeMismatch,
    batch_loss_and_dlogits,
    flatten_params,
    forward_batch,
    greedy_decode,
    infer_dims,
    init_params,
    loss_and_gradient,
    make_batch,
    param_index,
    unflatten_params,
)
from bigphon.vocab import BOS_ID, EOS_ID, PAD_ID, Vocabulary

import conftest
from conftest import forward, gradient, loss, reference_greedy_decode

SMALL = ModelConfig(
    d_model=8,
    heads=2,
    d_ff=16,
    encoder_layers=1,
    decoder_layers=1,
    epochs=10,
    checkpoint_interval=10,
    dropout=0.0,
    seed=0,
)


def small_params(dims, seed=0):
    return init_params(SMALL, dims, np.random.default_rng(seed))


class TestForward:
    def test_shape_contract(self):
        dims = ModelDims(target_vocab=53, source_vocab=20)
        params = small_params(dims)
        logits = forward(params, SMALL, [1, 2, 3, 4, 5, 6, 7], [BOS_ID, 5, 6, 7, 8])
        assert logits.shape == (5, 53)

    def test_zero_params_give_uniform_rows(self):
        dims = ModelDims(target_vocab=11, source_vocab=5)
        params = {k: np.zeros_like(v) for k, v in small_params(dims).items()}
        logits = forward(params, SMALL, [1, 2, 3], [BOS_ID, 4, 5])
        assert np.allclose(logits, logits[:, :1])

    def test_deterministic_bitwise(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        params = small_params(dims, seed=3)
        a = forward(params, SMALL, [1, 2, 3], [BOS_ID, 4])
        b = forward(params, SMALL, [1, 2, 3], [BOS_ID, 4])
        assert np.array_equal(a, b)

    def test_causality(self):
        """Changing target token t leaves logits at positions < t unchanged."""
        dims = ModelDims(target_vocab=9, source_vocab=7)
        params = small_params(dims, seed=4)
        base = forward(params, SMALL, [1, 2, 3], [BOS_ID, 4, 5, 6, 7])
        for t in range(1, 5):
            prefix = [BOS_ID, 4, 5, 6, 7]
            prefix[t] = 8
            changed = forward(params, SMALL, [1, 2, 3], prefix)
            assert np.array_equal(base[:t], changed[:t])

    def test_feature_mode(self):
        dims = ModelDims(target_vocab=9, feature_dim=6)
        params = small_params(dims)
        source = np.random.default_rng(0).normal(size=(5, 6))
        logits = forward(params, SMALL, source, [BOS_ID, 4, 5])
        assert logits.shape == (3, 9)
        assert np.all(np.isfinite(logits))

    def test_feature_shape_mismatch(self):
        dims = ModelDims(target_vocab=9, feature_dim=6)
        params = small_params(dims)
        with pytest.raises(ShapeMismatch):
            forward(params, SMALL, np.zeros((5, 4)), [BOS_ID])

    def test_infer_dims(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        assert infer_dims(small_params(dims)) == dims
        fdims = ModelDims(target_vocab=9, feature_dim=6)
        assert infer_dims(small_params(fdims)) == fdims


class TestLoss:
    def test_uniform_logits(self):
        logits = np.zeros((4, 53))
        assert loss(logits, [5, 6, 7, 8]) == pytest.approx(math.log(53), abs=1e-12)

    def test_one_hot_saturation(self):
        logits = np.full((3, 10), -50.0)
        target = [1, 2, 3]
        for i, t in enumerate(target):
            logits[i, t] = 50.0
        assert loss(logits, target) < 1e-3

    def test_all_pad_is_zero_with_warning(self):
        with pytest.warns(UserWarning):
            value = loss(np.zeros((2, 5)), [PAD_ID, PAD_ID])
        assert value == 0.0

    def test_pad_positions_masked(self):
        logits = np.zeros((3, 7))
        assert loss(logits, [2, PAD_ID, PAD_ID]) == pytest.approx(math.log(7))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss(np.zeros((3, 5)), [1, 2])

    def test_appending_pad_leaves_loss_unchanged(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        params = small_params(dims, seed=5)
        batch = make_batch([[1, 2, 3], [4, 5]], [(4, 5, 6), (7,)], dims)
        logits1 = forward_batch(params, SMALL, dims, batch)
        loss1, _, n1 = batch_loss_and_dlogits(logits1, batch.tgt_out)
        pad_col = np.full((2, 1), PAD_ID, dtype=np.int64)
        wider = Batch(
            batch.src,
            batch.src_mask,
            np.hstack([batch.tgt_in, pad_col]),
            np.hstack([batch.tgt_out, pad_col]),
        )
        logits2 = forward_batch(params, SMALL, dims, wider)
        loss2, _, n2 = batch_loss_and_dlogits(logits2, wider.tgt_out)
        assert loss1 == loss2
        assert n1 == n2


class TestGradient:
    def test_finite_differences(self):
        dims = ModelDims(target_vocab=9, source_vocab=11)
        params = small_params(dims, seed=42)
        index = param_index(SMALL, dims)
        batch = make_batch(
            [[1, 2, 3, 4, 5], [6, 7, 8]], [(4, 5, 6, 7), (8, 4)], dims
        )
        flat = flatten_params(params, index)
        analytic = gradient(params, SMALL, batch)

        def f(vec):
            p = unflatten_params(vec, index)
            logits = forward_batch(p, SMALL, dims, batch)
            value, _, _ = batch_loss_and_dlogits(logits, batch.tgt_out)
            return value

        h = 1e-4
        coords = np.random.default_rng(1).choice(flat.size, size=40, replace=False)
        for c in coords:
            vp = flat.copy()
            vp[c] += h
            vm = flat.copy()
            vm[c] -= h
            fd = (f(vp) - f(vm)) / (2 * h)
            rel = abs(analytic[c] - fd) / max(abs(analytic[c]), abs(fd), 1e-8)
            assert rel < 1e-4, f"coord {c}: analytic {analytic[c]} vs fd {fd}"

    def test_output_bias_gradient_is_softmax_error(self):
        """With a zero output matrix, d(loss)/d(out_b) = softmax(out_b) - onehot."""
        dims = ModelDims(target_vocab=6, source_vocab=5)
        params = small_params(dims, seed=2)
        params["out_w"] = np.zeros_like(params["out_w"])
        params["out_b"] = np.linspace(-1.0, 1.0, 6)
        y = 3
        batch = make_batch([[1, 2]], [(y,)], dims)
        # keep only the first target position (the single token y)
        batch = Batch(batch.src, batch.src_mask, batch.tgt_in[:, :1], batch.tgt_out[:, :1])
        _, grads, _ = loss_and_gradient(params, SMALL, dims, batch)
        p = np.exp(params["out_b"]) / np.exp(params["out_b"]).sum()
        expected = p.copy()
        expected[y] -= 1.0
        assert np.allclose(grads["out_b"], expected, atol=1e-12)

    def test_duplicated_example_mean_semantics(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        params = small_params(dims, seed=6)
        single = make_batch([[1, 2, 3]], [(4, 5)], dims)
        double = make_batch([[1, 2, 3], [1, 2, 3]], [(4, 5), (4, 5)], dims)
        _, g1, _ = loss_and_gradient(params, SMALL, dims, single)
        _, g2, _ = loss_and_gradient(params, SMALL, dims, double)
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-12), name

    def test_feature_mode_gradient(self):
        dims = ModelDims(target_vocab=9, feature_dim=4)
        params = small_params(dims, seed=8)
        index = param_index(SMALL, dims)
        rng = np.random.default_rng(0)
        batch = make_batch([rng.normal(size=(4, 4)), rng.normal(size=(2, 4))],
                           [(4, 5), (6,)], dims)
        flat = flatten_params(params, index)
        analytic = gradient(params, SMALL, batch)

        def f(vec):
            p = unflatten_params(vec, index)
            logits = forward_batch(p, SMALL, dims, batch)
            value, _, _ = batch_loss_and_dlogits(logits, batch.tgt_out)
            return value

        h = 1e-4
        for c in np.random.default_rng(2).choice(flat.size, size=20, replace=False):
            vp = flat.copy()
            vp[c] += h
            vm = flat.copy()
            vm[c] -= h
            fd = (f(vp) - f(vm)) / (2 * h)
            rel = abs(analytic[c] - fd) / max(abs(analytic[c]), abs(fd), 1e-8)
            assert rel < 1e-4

    def test_non_finite_loss_raises(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        params = small_params(dims)
        params["out_b"] = params["out_b"] + np.nan
        batch = make_batch([[1, 2]], [(4,)], dims)
        with pytest.raises(NonFiniteLoss):
            loss_and_gradient(params, SMALL, dims, batch)

    def test_dropout_reproducible_with_same_stream(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        cfg = ModelConfig(
            d_model=8, heads=2, d_ff=16, encoder_layers=1, decoder_layers=1,
            epochs=10, checkpoint_interval=10, dropout=0.3, seed=0,
        )
        params = small_params(dims)
        batch = make_batch([[1, 2, 3]], [(4, 5)], dims)
        l1, g1, _ = loss_and_gradient(params, cfg, dims, batch, np.random.default_rng(9))
        l2, g2, _ = loss_and_gradient(params, cfg, dims, batch, np.random.default_rng(9))
        assert l1 == l2
        for name in g1:
            assert np.array_equal(g1[name], g2[name])


class TestBitwiseOracle:
    """The in-place training step against the reference step kept in
    conftest: the same loss and gradients bit for bit, the same dropout
    draws, and no input mutated."""

    @staticmethod
    def case(source, heads, layers, dropout, seed=0):
        config = replace(SMALL, d_model=12, heads=heads, d_ff=20, encoder_layers=layers[0],
                         decoder_layers=layers[1], dropout=dropout)
        rng = np.random.default_rng(seed)
        src_lens, tgt_lens = (7, 2, 5, 1), (3, 6, 1, 4)  # every row padded somewhere
        if source == "tokens":
            dims = ModelDims(target_vocab=11, source_vocab=9)
            sources = [rng.integers(0, 9, size=n) for n in src_lens]
        else:
            dims = ModelDims(target_vocab=11, feature_dim=5)
            sources = [rng.normal(size=(n, 5)) for n in src_lens]
        targets = [rng.integers(4, 11, size=n) for n in tgt_lens]
        params = init_params(config, dims, rng)
        return config, dims, params, make_batch(sources, targets, dims)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("layers", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_step_matches_reference(self, source, heads, layers, dropout):
        config, dims, params, batch = self.case(source, heads, layers, dropout)
        params_before = {k: v.copy() for k, v in params.items()}
        batch_before = asdict(batch)  # deep-copies the arrays
        for stream in (None, 5):
            rng = None if stream is None else np.random.default_rng(stream)
            ref_rng = None if stream is None else np.random.default_rng(stream)
            value, grads, n = loss_and_gradient(params, config, dims, batch, rng)
            ref_value, ref_grads, ref_n = conftest.loss_and_gradient(
                params, config, dims, batch, ref_rng)
            assert np.array_equal(value, ref_value) and n == ref_n
            assert grads.keys() == ref_grads.keys()
            for name in grads:
                assert np.array_equal(grads[name], ref_grads[name]), name
            if stream is not None:
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            for name, before in params_before.items():
                assert np.array_equal(params[name], before), name
            for name, before in batch_before.items():
                assert np.array_equal(getattr(batch, name), before), name

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_eval_logits_match_reference(self, source):
        config, dims, params, batch = self.case(source, 2, (3, 2), 0.3, seed=1)
        logits = forward_batch(params, config, dims, batch)
        ref_logits, _ = conftest.forward_batch(params, config, dims, batch)
        assert np.array_equal(logits, ref_logits)

    def test_backward_consumes_the_cache(self):
        config, dims, params, batch = self.case("tokens", 2, (3, 2), 0.3)
        cache = {}
        logits = forward_batch(params, config, dims, batch, np.random.default_rng(0), cache)
        _, dlogits, _ = batch_loss_and_dlogits(logits, batch.tgt_out)
        model.backward_batch(dlogits, cache, params)
        assert cache["enc_layers"] == [] and cache["dec_layers"] == []
        assert "out" not in cache

    def test_step_allocates_less_than_reference(self):
        """tracemalloc sees every numpy buffer, so the peak is exact."""
        config = replace(SMALL, d_model=32, d_ff=64, encoder_layers=2, dropout=0.1)
        dims = ModelDims(target_vocab=20, source_vocab=30)
        rng = np.random.default_rng(3)
        params = init_params(config, dims, rng)
        batch = make_batch([rng.integers(0, 30, size=60) for _ in range(8)],
                           [rng.integers(4, 20, size=40) for _ in range(8)], dims)
        peaks = []
        for step in (conftest.loss_and_gradient, loss_and_gradient):
            tracemalloc.start()
            try:
                step(params, config, dims, batch, np.random.default_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.85 * peaks[0], peaks


class TestGreedyDecode:
    @pytest.fixture()
    def tiny_vocab(self, classes):
        inv = induce_inventory([PhonemeSequence(("a", "l"))], classes)
        return Vocabulary(inv, (), "base")  # PAD BOS EOS UNK a l

    def test_eos_favoring_model_decodes_empty(self, tiny_vocab):
        dims = ModelDims(target_vocab=len(tiny_vocab), source_vocab=5)
        params = {k: np.zeros_like(v) for k, v in small_params(dims).items()}
        params["out_b"][EOS_ID] = 5.0
        result = greedy_decode(params, SMALL, [1, 2], tiny_vocab)
        assert result.ids == ()
        assert result.sequence.tokens == ()
        assert not result.truncated

    def test_truncation_flag(self, tiny_vocab):
        dims = ModelDims(target_vocab=len(tiny_vocab), source_vocab=5)
        params = {k: np.zeros_like(v) for k, v in small_params(dims).items()}
        params["out_b"][tiny_vocab.unit_id("a")] = 5.0
        result = greedy_decode(params, replace(SMALL, max_target_len=3), [1, 2], tiny_vocab)
        assert result.truncated
        assert result.sequence.tokens == ("a", "a", "a")

    def test_feature_width_mismatch(self, tiny_vocab):
        dims = ModelDims(target_vocab=len(tiny_vocab), feature_dim=6)
        params = small_params(dims)
        with pytest.raises(ShapeMismatch):
            greedy_decode(params, SMALL, np.zeros((5, 4)), tiny_vocab)


class TestIncrementalDecode:
    """The cached one-position-per-step decoder against the prefix-rerun oracle."""

    @pytest.fixture(scope="class")
    def vocab(self, classes):
        inv = induce_inventory([PhonemeSequence(tuple("alsiemn"))], classes)
        return Vocabulary(inv, (), "base")  # PAD BOS EOS UNK + 7 atoms

    @staticmethod
    def random_model(vocab, source, heads, layers, cap, seed):
        config = replace(SMALL, heads=heads, decoder_layers=layers, max_target_len=cap)
        if source == "tokens":
            dims = ModelDims(target_vocab=len(vocab), source_vocab=7)
        else:
            dims = ModelDims(target_vocab=len(vocab), feature_dim=3)
        params = init_params(config, dims, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        sources = []
        for n in (1, 4, 9):
            if source == "tokens":
                sources.append([int(i) for i in rng.integers(0, 7, size=n)])
            else:
                sources.append(rng.normal(size=(n, 3)))
        return params, config, sources

    @pytest.mark.parametrize("cap", [1, 3, 50])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_matches_prefix_rerun(self, vocab, source, heads, layers, cap):
        for seed in range(3):
            params, config, sources = self.random_model(vocab, source, heads, layers, cap, seed)
            for src in sources:
                expected = reference_greedy_decode(params, config, src, vocab)
                assert greedy_decode(params, config, src, vocab) == expected

    def test_random_models_cover_eos_and_cap(self, vocab):
        """The random cases above include decodes that stop on EOS after
        emitting units, and decodes that hit the 50-step cap."""
        results = []
        for seed in range(3):
            params, config, sources = self.random_model(vocab, "tokens", 2, 2, 50, seed)
            results += [greedy_decode(params, config, src, vocab) for src in sources]
        assert any(r.truncated and len(set(r.ids)) > 1 for r in results)
        assert any(not r.truncated and r.ids for r in results)

    @pytest.mark.parametrize("favoured, expect_len, truncated", [
        (EOS_ID, 0, False), (5, 50, True),
    ])
    def test_biased_models_match_prefix_rerun(self, vocab, favoured, expect_len, truncated):
        params, config, sources = self.random_model(vocab, "tokens", 2, 2, 50, seed=0)
        params["out_b"][favoured] = 50.0
        for src in sources:
            result = greedy_decode(params, config, src, vocab)
            assert result == reference_greedy_decode(params, config, src, vocab)
            assert (len(result.ids), result.truncated) == (expect_len, truncated)

    def test_never_reruns_decoder_over_prefix(self, vocab, monkeypatch):
        params, config, sources = self.random_model(vocab, "tokens", 2, 2, 50, seed=1)
        expected = [reference_greedy_decode(params, config, src, vocab) for src in sources]

        def rerun(*args):
            raise AssertionError("greedy_decode reran the full decoder")

        monkeypatch.setattr(model, "_decoder_forward", rerun)
        assert [greedy_decode(params, config, src, vocab) for src in sources] == expected

    def test_encoder_runs_once_per_decode(self, vocab, monkeypatch):
        params, config, sources = self.random_model(vocab, "tokens", 2, 2, 50, seed=1)
        calls = []
        encode = model._encoder_forward
        monkeypatch.setattr(model, "_encoder_forward",
                            lambda *args: calls.append(args) or encode(*args))
        results = [greedy_decode(params, config, src, vocab) for src in sources]
        assert len(calls) == len(sources)
        assert max(len(r.ids) for r in results) > 1

    def test_encoder_keeps_no_cache(self, vocab, monkeypatch):
        params, config, sources = self.random_model(vocab, "features", 2, 2, 50, seed=1)
        caches = []
        encode = model._encoder_forward

        def spy(*args, **kwargs):
            bound = inspect.signature(encode).bind(*args, **kwargs)
            bound.apply_defaults()
            caches.append(bound.arguments["cache"])
            return encode(*args, **kwargs)

        monkeypatch.setattr(model, "_encoder_forward", spy)
        for src in sources:
            assert greedy_decode(params, config, src, vocab) == reference_greedy_decode(
                params, config, src, vocab)
        assert caches == [None] * len(sources)


class TestDecoderLayer:
    """`_decoder_layer` is the one decoder-layer body: teacher forcing runs it
    once per layer over the whole target, greedy decoding once per layer and
    step over the newest position."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        layer = model._decoder_layer

        def spy(params, config, i, y, t, *rest):
            seen.append((i, t, y.shape[1]))
            return layer(params, config, i, y, t, *rest)

        monkeypatch.setattr(model, "_decoder_layer", spy)
        return seen

    def test_teacher_forcing_runs_each_layer_once(self, calls):
        config, dims, params, batch = TestBitwiseOracle.case("tokens", 2, (1, 3), 0.3)
        cache = {}
        forward_batch(params, config, dims, batch, np.random.default_rng(2), cache)
        t_len = batch.tgt_in.shape[1]
        assert calls == [(0, 0, t_len), (1, 0, t_len), (2, 0, t_len)]
        assert len(cache["dec_layers"]) == 3
        calls.clear()
        assert np.array_equal(forward_batch(params, config, dims, batch),
                              conftest.forward_batch(params, config, dims, batch)[0])
        assert calls == [(0, 0, t_len), (1, 0, t_len), (2, 0, t_len)]

    def test_greedy_decode_steps_each_layer(self, calls, classes):
        vocab = Vocabulary(induce_inventory([PhonemeSequence(tuple("alsiemn"))], classes), (),
                           "base")
        params, config, sources = TestIncrementalDecode.random_model(
            vocab, "tokens", 2, 2, 50, seed=0)
        for src in sources:
            calls.clear()
            result = greedy_decode(params, config, src, vocab)
            steps = len(result.ids) + (0 if result.truncated else 1)
            assert calls == [(i, t, 1) for t in range(steps) for i in range(2)]


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, heads=3)

    def test_interval_must_divide_epochs(self):
        with pytest.raises(ValueError):
            ModelConfig(epochs=100, checkpoint_interval=30)

    def test_round_trip_dict(self):
        cfg = ModelConfig(epochs=20, checkpoint_interval=10, seed=9)
        assert ModelConfig(**asdict(cfg)) == cfg

    def test_dims_exclusive(self):
        with pytest.raises(ValueError):
            ModelDims(target_vocab=5)
        with pytest.raises(ValueError):
            ModelDims(target_vocab=5, source_vocab=3, feature_dim=4)

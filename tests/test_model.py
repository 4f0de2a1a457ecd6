"""Transformer forward/backward, loss, and decoding contracts."""

from __future__ import annotations

import inspect
import itertools
import math
import tracemalloc
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest

from bigphon import model
from bigphon.ipa import PhonemeSequence, induce_inventory
from bigphon.model import (
    Batch,
    LengthMismatch,
    ModelConfig,
    ModelDims,
    NonFiniteGradient,
    NonFiniteLoss,
    ShapeMismatch,
    batch_loss_and_dlogits,
    flatten_params,
    forward_batch,
    greedy_decode,
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

    @pytest.mark.parametrize("tgt_lens", [(3, 6, 1, 4), (4, 4, 4, 4)], ids=["padded", "equal"])
    def test_logits_hold_one_row_per_real_target(self, tgt_lens):
        """Teacher forcing returns (N, V) logits, the reference's at the N
        positions whose `tgt_out` is not PAD, in row-major order: B * T rows
        when no target is padded. The decoder's pack keeps those positions
        in both cases."""
        dims = ModelDims(target_vocab=11, source_vocab=9)
        params = small_params(dims)
        rng = np.random.default_rng(0)
        batch = make_batch([rng.integers(0, 9, size=n) for n in (7, 2, 5, 1)],
                           [rng.integers(4, 11, size=n) for n in tgt_lens])
        real = batch.tgt_out != PAD_ID
        assert real.all() == (len(set(tgt_lens)) == 1)
        cache = {}
        logits = forward_batch(params, SMALL, batch, cache=cache)
        assert logits.shape == (real.sum(), dims.target_vocab)
        ref_logits, _ = conftest.forward_batch(params, SMALL, dims, batch)
        assert np.array_equal(logits, ref_logits[real])
        assert np.array_equal(cache["dec"][0][2][-1].mask, real)

    def test_target_shapes_must_match(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        batch = make_batch([[1, 2, 3]], [(4, 5)])
        batch.tgt_out = batch.tgt_out[:, :2]
        with pytest.raises(LengthMismatch, match=r"^tgt_in \(1, 3\) vs tgt_out \(1, 2\)$"):
            forward_batch(small_params(dims), SMALL, batch)

    def test_feature_shape_mismatch(self):
        dims = ModelDims(target_vocab=9, feature_dim=6)
        params = small_params(dims)
        with pytest.raises(ShapeMismatch):
            forward(params, SMALL, np.zeros((5, 4)), [BOS_ID])

    @pytest.mark.parametrize("params_dims, batch_dims, message", [
        (ModelDims(9, feature_dim=6), ModelDims(9, source_vocab=7),
         "feature-mode source must be (B, S, feature_dim)"),
        (ModelDims(9, feature_dim=6), ModelDims(9, feature_dim=4),
         "feature-mode source must be (B, S, feature_dim)"),
        (ModelDims(9, source_vocab=7), ModelDims(9, feature_dim=6),
         "token-mode source must be (B, S) ids"),
    ], ids=["tokens-on-features", "narrow-features", "features-on-tokens"])
    def test_source_mode_comes_from_the_params(self, params_dims, batch_dims, message):
        """The parameters set the source mode and feature width: a batch of
        the other mode, or of another width, is a ShapeMismatch with the
        mode's message, in the forward pass and in the training step."""
        params = small_params(params_dims)
        width = batch_dims.feature_dim
        sources = [[1, 2, 3]] if width is None else [np.ones((3, width))]
        batch = make_batch(sources, [(4, 5)])
        with pytest.raises(ShapeMismatch) as exc:
            forward_batch(params, SMALL, batch)
        assert str(exc.value) == message
        with pytest.raises(ShapeMismatch) as exc:
            loss_and_gradient(params, SMALL, batch)
        assert str(exc.value) == message

    def test_make_batch_takes_the_source_form_from_the_first_source(self):
        """Frames of any real dtype become a float64 batch and ids an int64
        one; a source of another trailing shape is a ShapeMismatch."""
        frames = np.arange(6, dtype=np.float32).reshape(2, 3)
        batch = make_batch([frames, frames[:1]], [(4,), (5,)])
        assert batch.src.dtype == np.float64 and np.array_equal(batch.src[0], frames)
        ids = make_batch([[1, 2], np.array([3])], [(4,), (5,)])
        assert ids.src.dtype == np.int64 and ids.src.tolist() == [[1, 2], [3, 0]]
        for sources in ([frames, np.ones((2, 4))], [[1, 2], frames], [frames, [1, 2]]):
            with pytest.raises(ShapeMismatch):
                make_batch(sources, [(4,), (5,)])

    def test_infer_dims(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        assert conftest.infer_dims(small_params(dims)) == dims
        fdims = ModelDims(target_vocab=9, feature_dim=6)
        assert conftest.infer_dims(small_params(fdims)) == fdims


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

    def test_pad_positions_masked(self):
        logits = np.zeros((1, 7))  # one row, for the one non-PAD target
        assert loss(logits, [2, PAD_ID, PAD_ID]) == pytest.approx(math.log(7))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss(np.zeros((3, 5)), [1, 2])

    @pytest.mark.parametrize("shape, rows", [((4, 5), 4), ((2, 3, 5), 2)],
                             ids=["too-many-rows", "padded-layout"])
    def test_rows_must_match_the_real_targets(self, shape, rows):
        """Logits hold one row per non-PAD target; other rows, the padded
        (B, T, V) layout's among them, are a LengthMismatch naming both
        counts."""
        tgt_out = np.array([[4, 5, PAD_ID], [6, PAD_ID, PAD_ID]])
        with pytest.raises(LengthMismatch, match=rf"^{rows} logit rows vs 3 non-PAD targets$"):
            batch_loss_and_dlogits(np.zeros(shape), tgt_out)

    def test_appending_pad_leaves_loss_unchanged(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        params = small_params(dims, seed=5)
        batch = make_batch([[1, 2, 3], [4, 5]], [(4, 5, 6), (7,)])
        logits1 = forward_batch(params, SMALL, batch)
        loss1, _, n1 = batch_loss_and_dlogits(logits1, batch.tgt_out)
        pad_col = np.full((2, 1), PAD_ID, dtype=np.int64)
        wider = Batch(
            batch.src,
            batch.src_mask,
            np.hstack([batch.tgt_in, pad_col]),
            np.hstack([batch.tgt_out, pad_col]),
        )
        logits2 = forward_batch(params, SMALL, wider)
        loss2, _, n2 = batch_loss_and_dlogits(logits2, wider.tgt_out)
        assert loss1 == loss2
        assert n1 == n2


class TestGradient:
    def test_finite_differences(self):
        dims = ModelDims(target_vocab=9, source_vocab=11)
        params = small_params(dims, seed=42)
        index = param_index(SMALL, dims)
        batch = make_batch([[1, 2, 3, 4, 5], [6, 7, 8]], [(4, 5, 6, 7), (8, 4)])
        flat = flatten_params(params, index)
        analytic = gradient(params, SMALL, batch)

        def f(vec):
            p = unflatten_params(vec, index)
            logits = forward_batch(p, SMALL, batch)
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
        batch = make_batch([[1, 2]], [(y,)])
        # keep only the first target position (the single token y)
        batch = Batch(batch.src, batch.src_mask, batch.tgt_in[:, :1], batch.tgt_out[:, :1])
        _, grads, _ = loss_and_gradient(params, SMALL, batch)
        p = np.exp(params["out_b"]) / np.exp(params["out_b"]).sum()
        expected = p.copy()
        expected[y] -= 1.0
        assert np.allclose(grads["out_b"], expected, atol=1e-12)

    def test_duplicated_example_mean_semantics(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        params = small_params(dims, seed=6)
        single = make_batch([[1, 2, 3]], [(4, 5)])
        double = make_batch([[1, 2, 3], [1, 2, 3]], [(4, 5), (4, 5)])
        _, g1, _ = loss_and_gradient(params, SMALL, single)
        _, g2, _ = loss_and_gradient(params, SMALL, double)
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-12), name

    def test_feature_mode_gradient(self):
        dims = ModelDims(target_vocab=9, feature_dim=4)
        params = small_params(dims, seed=8)
        index = param_index(SMALL, dims)
        rng = np.random.default_rng(0)
        batch = make_batch([rng.normal(size=(4, 4)), rng.normal(size=(2, 4))],
                           [(4, 5), (6,)])
        flat = flatten_params(params, index)
        analytic = gradient(params, SMALL, batch)

        def f(vec):
            p = unflatten_params(vec, index)
            logits = forward_batch(p, SMALL, batch)
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
        batch = make_batch([[1, 2]], [(4,)])
        with pytest.raises(NonFiniteLoss):
            loss_and_gradient(params, SMALL, batch)

    def test_dropout_reproducible_with_same_stream(self):
        dims = ModelDims(target_vocab=9, source_vocab=7)
        cfg = ModelConfig(
            d_model=8, heads=2, d_ff=16, encoder_layers=1, decoder_layers=1,
            epochs=10, checkpoint_interval=10, dropout=0.3, seed=0,
        )
        params = small_params(dims)
        batch = make_batch([[1, 2, 3]], [(4, 5)])
        l1, g1, _ = loss_and_gradient(params, cfg, batch, np.random.default_rng(9))
        l2, g2, _ = loss_and_gradient(params, cfg, batch, np.random.default_rng(9))
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
        return config, dims, params, make_batch(sources, targets)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("layers", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_step_matches_reference(self, source, heads, layers, dropout):
        config, dims, params, batch = self.case(source, heads, layers, dropout)
        params_before = {k: v.copy() for k, v in params.items()}
        # The second batch is row 1 alone: its source mask (1, 1, 1, S) has one
        # row on the batch axis, as the causal mask (1, 1, T, T) has.
        one_row = Batch(**{name: a[1:2] for name, a in asdict(batch).items()})
        for batch, stream in itertools.product((batch, one_row), (None, 5)):
            batch_before = asdict(batch)  # deep-copies the arrays
            rng = None if stream is None else np.random.default_rng(stream)
            ref_rng = None if stream is None else np.random.default_rng(stream)
            value, grads, n = loss_and_gradient(params, config, batch, rng)
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

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("d_model, d_ff, source, src_lens", [
        (128, 256, "tokens", (130, 60, 95, 71)), (128, 256, "tokens", (95, 95, 95, 95)),
        (200, 400, "tokens", (10, 5, 8, 12)), (200, 400, "features", (10, 5, 8, 12)),
        (50, 100, "tokens", (130, 60, 95, 71)), (58, 100, "tokens", (130, 60, 95, 71))])
    def test_step_matches_reference_at_paper_kernel_sizes(self, d_model, d_ff, source, src_lens,
                                                          dropout):
        """At d_model 128 and d_ff 256, with rows this long, every matmul runs
        OpenBLAS's large-matrix kernels, as the paper's config does; the
        d_model 12 cases above reach only its small-matrix ones. The second
        batch has no padded source row. The last two, at the paper's d_model
        200 and d_ff 400, reach both: OpenBLAS runs a matmul of up to 10**6
        products with its small-matrix kernel, whose sums round differently
        from the large one's on the feed-forward's (S, 400) @ (400, 200)
        product. The padded computation calls it per batch row on S = 12
        rows; the packed encoder must call it on S rows too, not on its
        N = 35 real rows at once. The last two have widths, d_model 50 and
        58, that are not multiples of 8, where a row's bits also depend on
        its place in a call."""
        config = replace(SMALL, d_model=d_model, heads=2, d_ff=d_ff, dropout=dropout)
        rng = np.random.default_rng(7)
        if source == "tokens":
            dims = ModelDims(target_vocab=40, source_vocab=30)
            sources = [rng.integers(0, 30, size=n) for n in src_lens]
        else:
            dims = ModelDims(target_vocab=40, feature_dim=80)
            sources = [rng.normal(size=(n, 80)) for n in src_lens]
        params = init_params(config, dims, rng)
        batch = make_batch(sources, [rng.integers(4, 40, size=n) for n in (40, 71, 25, 60)])
        step_rng, ref_rng = (np.random.default_rng(5), np.random.default_rng(5)) if dropout else (
            None, None)
        value, grads, _ = loss_and_gradient(params, config, batch, step_rng)
        ref_value, ref_grads, _ = conftest.loss_and_gradient(params, config, dims, batch, ref_rng)
        assert value == ref_value
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name

    @pytest.mark.parametrize("target_vocab", [41, 42, 43, 48, 56, 72])
    def test_step_matches_reference_at_any_vocabulary_size(self, target_vocab):
        """The output projection's width is the vocabulary size. At 41 to 43,
        OpenBLAS gives a row's last columns other bits at another place in a
        call of 19 rows, so the projection runs the padded product; at 48, 56
        and 72 (`total30`'s width on perfbench's train workload), multiples
        of 8, it runs the real rows packed."""
        config = replace(SMALL, d_model=16, d_ff=32, dropout=0.1)
        dims = ModelDims(target_vocab=target_vocab, source_vocab=30)
        rng = np.random.default_rng(6)
        params = init_params(config, dims, rng)
        batch = make_batch([rng.integers(0, 30, size=n) for n in (22, 15, 27, 17)],
                           [rng.integers(4, target_vocab, size=n) for n in (13, 7, 18, 10)])
        self.assert_logits_match_reference(forward_batch(params, config, batch),
                                           conftest.forward_batch(params, config, dims, batch)[0],
                                           batch)
        value, grads, _ = loss_and_gradient(params, config, batch, np.random.default_rng(5))
        ref_value, ref_grads, _ = conftest.loss_and_gradient(params, config, dims, batch,
                                                             np.random.default_rng(5))
        assert value == ref_value
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name

    @staticmethod
    def assert_logits_match_reference(logits, ref_logits, batch):
        """The decoder runs on the real target positions alone, and its
        logits are the reference's at those positions bit for bit."""
        real = batch.tgt_out != PAD_ID
        assert not real.all()
        assert np.array_equal(logits, ref_logits[real])

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_eval_logits_match_reference(self, source):
        config, dims, params, batch = self.case(source, 2, (3, 2), 0.3, seed=1)
        logits = forward_batch(params, config, batch)
        ref_logits, _ = conftest.forward_batch(params, config, dims, batch)
        self.assert_logits_match_reference(logits, ref_logits, batch)

    def test_backward_consumes_the_cache(self):
        config, dims, params, batch = self.case("tokens", 2, (3, 2), 0.3)
        cache = {}
        logits = forward_batch(params, config, batch, np.random.default_rng(0), cache)
        _, dlogits, _ = batch_loss_and_dlogits(logits, batch.tgt_out)
        model.backward_batch(dlogits, cache, params)
        assert cache["enc"] == [] and cache["dec"] == []
        assert "out" not in cache

    def test_gradients_are_made_at_their_first_write(self, monkeypatch):
        """No gradient buffer waits, zeroed, for a kernel to reach it: when the
        output projection's kernel runs first, only its two gradients exist."""
        config, dims, params, batch = self.case("tokens", 2, (3, 2), 0.3)
        seen = []

        def spy(dy, x, grads, *names, linear_grads=model._linear_grads):
            seen.append(set(grads))
            linear_grads(dy, x, grads, *names)
            seen.append(set(grads))

        monkeypatch.setattr(model, "_linear_grads", spy)
        loss_and_gradient(params, config, batch, np.random.default_rng(0))
        assert seen[:2] == [set(), {"out_w", "out_b"}]

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_gradients_come_in_param_index_order(self, source):
        config, dims, params, batch = self.case(source, 2, (3, 2), 0.3)
        _, grads, _ = loss_and_gradient(params, config, batch, np.random.default_rng(0))
        assert list(grads) == [name for name, _ in param_index(config, dims)]
        assert type(grads) is dict
        for name, grad in grads.items():
            assert grad.shape == params[name].shape and grad.dtype == np.float64, name

    def test_non_finite_gradient_names_the_earlier_parameter(self, monkeypatch):
        """With NaN planted in the gradients of two parameters, the error names
        the one earlier in parameter order, though backward writes the other
        first."""
        config, dims, params, batch = self.case("tokens", 2, (3, 2), 0.3)
        planted = ("dec1.ff.w1", "enc0.attn.wq")  # in the order backward writes them

        def spy(dy, x, grads, wname, bname, linear_grads=model._linear_grads):
            linear_grads(dy, x, grads, wname, bname)
            if wname in planted:
                grads[wname][0, 0] = np.nan

        monkeypatch.setattr(model, "_linear_grads", spy)
        with pytest.raises(NonFiniteGradient, match=r"^non-finite gradient in enc0\.attn\.wq$"):
            loss_and_gradient(params, config, batch, np.random.default_rng(0))

    def test_feature_backward_computes_no_gradient_into_the_features(self, monkeypatch):
        """The features are an input, not a parameter: the feature projection's
        backward adds its weight and bias gradients and stops there."""
        config, dims, params, batch = self.case("features", 2, (1, 1), 0.3)
        widths = []

        def spy(dy, x, *rest, bwd=model._linear_bwd):
            widths.append(x.shape[-1])
            return bwd(dy, x, *rest)

        monkeypatch.setattr(model, "_linear_bwd", spy)
        _, grads, _ = loss_and_gradient(params, config, batch, np.random.default_rng(0))
        assert widths and dims.feature_dim not in widths
        assert np.any(grads["src_proj_w"]) and np.any(grads["src_proj_b"])

    def test_step_allocates_less_than_reference(self):
        """tracemalloc sees every numpy buffer, so the peak is exact."""
        config = replace(SMALL, d_model=32, d_ff=64, encoder_layers=2, dropout=0.1)
        dims = ModelDims(target_vocab=20, source_vocab=30)
        rng = np.random.default_rng(3)
        params = init_params(config, dims, rng)
        batch = make_batch([rng.integers(0, 30, size=60) for _ in range(8)],
                           [rng.integers(4, 20, size=40) for _ in range(8)])
        peaks = []
        for step in (lambda rng: conftest.loss_and_gradient(params, config, dims, batch, rng),
                     lambda rng: loss_and_gradient(params, config, batch, rng)):
            tracemalloc.start()
            try:
                step(np.random.default_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.85 * peaks[0], peaks


class TestLayerNorm:
    @pytest.mark.parametrize("d", [1, 3, 12, 200])
    @pytest.mark.parametrize("lead", [(1, 1), (4, 7)])
    def test_forward_matches_reference(self, lead, d):
        """The decode step's (1, 1, d) rows and a batch's (B, T, d), bit for bit."""
        rng = np.random.default_rng(d)
        x = rng.normal(loc=1.0, scale=3.0, size=(*lead, d))
        g, b = rng.normal(size=d), rng.normal(size=d)
        want_y, (want_xhat, want_inv, _) = conftest._ln_fwd(x, g, b)
        y, (xhat, inv, _, _) = model._ln_fwd(x.copy(), g, b)
        for got, want in ((y, want_y), (xhat, want_xhat), (inv, want_inv)):
            assert got.shape == want.shape and np.array_equal(got, want)


class TestPackMatmul:
    """`_Pack.matmul` gives N real rows the bits of the padded (B, S, k) @ w,
    byte for byte, at every output width: widths on both sides of every
    residue mod 8, the vocabulary sizes' among them, and the paper's d_model
    200 and d_ff 400. The layouts' calls of S rows fall on both sides of
    OpenBLAS's small-matrix bound of about 10**6 products. Both forms the
    model multiplies by run: `x @ w` forward and `x @ w.T`, a weight's
    transposed view, backward."""

    @pytest.mark.parametrize("width", [*range(1, 18), *range(39, 50), 200, 400])
    def test_real_rows_match_the_padded_product(self, width):
        rng = np.random.default_rng(width)
        for lengths in ((14, 8, 19, 11), (197, 130, 60, 95)):
            mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
            pack = model._Pack.of(mask)
            for k in (16, 42, 200):
                x = rng.normal(size=(sum(lengths), k))
                for w in (rng.normal(size=(k, width)), rng.normal(size=(width, k)).T):
                    want = (pack.pad(x) @ w)[mask]
                    assert pack.matmul(x, w).tobytes() == want.tobytes(), (lengths, k, w.strides)


class TestPackHeads:
    """`_Pack.heads` gives an attention core each batch row of the real rows
    split to heads in the padded layout, with the bits and the strides of
    the padded split's row, and `_Pack.put` writes a row's real positions
    back into the packed rows."""

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_rows_match_the_padded_split(self, heads):
        d = 2 * heads
        batch = make_batch([[5] * 7, [5] * 3, [5] * 7], [[4] * 2, [4] * 6, [4] * 4])
        rng = np.random.default_rng(heads)
        masks = (batch.src_mask, batch.tgt_out != PAD_ID)
        assert [m.sum(1).tolist() for m in masks] == [[7, 3, 7], [3, 7, 5]]  # full and short
        for mask in masks:
            pack = model._Pack(mask.shape, mask)
            x = rng.normal(size=(int(mask.sum()), d))
            padded = pack.pad(x).reshape(*mask.shape, heads, -1).transpose(0, 2, 1, 3)
            out = np.full_like(x, np.nan)
            row = pack.heads(x, heads)
            for i in (1, 0, 2, 1):  # a full row after a short one, and back
                assert row(i).tobytes() == padded[i].tobytes()
                assert row(i).strides == padded[i].strides
                pack.put(out, i, padded[i])
            assert out.tobytes() == x.tobytes()

    @pytest.mark.parametrize("heads", [1, 2])
    def test_no_mask_rows_are_views(self, heads):
        """With no padding the rows are views of x, or of the (B, S, heads,
        dh) view of a greedy decode's key/value buffer, with its strides."""
        pack = model._Pack.of(np.ones((2, 5), dtype=bool))
        assert pack.mask is None
        x = np.random.default_rng(0).normal(size=(2, 5, 4 * heads))
        split = x.reshape(2, 5, heads, -1).transpose(0, 2, 1, 3)
        buffer = np.random.default_rng(1).normal(size=(2, heads, 9, 4))
        for rows, want in ((x, split), (buffer[:, :, :5].transpose(0, 2, 1, 3), buffer[:, :, :5])):
            row = pack.heads(rows, heads)
            for i, w in enumerate(want):
                assert row(i).strides == w.strides and np.shares_memory(row(i), w)
                assert row(i).tobytes() == w.tobytes()
        out = np.empty_like(x)
        for i in range(2):
            pack.put(out, i, split[i])
        assert out.tobytes() == x.tobytes()


class TestTape:
    """The training cache is one tape per stack: the embedding's entry, then
    one entry per sublayer in forward order, each sublayer's input the output
    of the entry below it."""

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_sublayer_input_is_output_of_entry_below(self, source, monkeypatch):
        config, dims, params, batch = TestBitwiseOracle.case(source, 2, (3, 2), 0.3)
        inputs, memories = [], []
        for name, seen in (("_mha_fwd", inputs), ("_ff_fwd", inputs), ("_kv_fwd", memories)):
            def spy(x, params, prefix, *rest, fwd=getattr(model, name), seen=seen):
                if seen is inputs or prefix.endswith(".cross"):
                    seen.append(x.copy())  # the forward may overwrite x later
                return fwd(x, params, prefix, *rest)

            monkeypatch.setattr(model, name, spy)
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        assert cache.keys() == {"enc", "dec"}
        enc, dec = cache["enc"], cache["dec"]
        assert [kind for kind, _, _ in enc] == ["embed"] + ["self", "ln", "ff", "ln"] * 3
        assert [kind for kind, _, _ in dec] == ["embed"] + [
            "self", "ln", "cross", "ln", "ff", "ln"] * 2
        below = [model._output(tape[k - 1], params) for tape in (enc, dec)
                 for k, (kind, _, _) in enumerate(tape) if kind in ("self", "cross", "ff")]
        assert len(below) == len(inputs) == 3 * 2 + 2 * 3
        assert len(memories) == 2
        for got, want in zip(below + [model._output(enc[-1], params)] * 2, inputs + memories):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestActivationMemory:
    """What the forward and backward keep and allocate beyond their results:
    no layer-norm output or attention probabilities in the backward cache,
    one batch row of attention alive at a time, attention-backward
    temporaries freed after their last use, and without a cache nothing of
    one encoder layer left when the next starts."""

    @staticmethod
    def medium_case(padded):
        """Eight sources of 60 ids, on which the encoder runs at the padded
        layout, or of 22 to 60, on whose real positions, about two thirds of
        the padded ones, it runs packed. The memory bounds check both."""
        config = replace(SMALL, d_model=32, d_ff=64, encoder_layers=3, dropout=0.1)
        dims = ModelDims(target_vocab=20, source_vocab=30)
        rng = np.random.default_rng(3)
        params = init_params(config, dims, rng)
        lengths = (60, 35, 48, 22, 60, 41, 53, 30) if padded else (60,) * 8
        batch = make_batch([rng.integers(0, 30, size=n) for n in lengths],
                           [rng.integers(4, 20, size=40) for _ in range(8)])
        assert batch.src_mask.all() != padded
        return config, dims, params, batch

    @staticmethod
    def arrays(obj):
        """Every array reachable from a cache through dicts, lists, tuples and
        dataclasses, such as a `_Pack`."""
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (dict, list, tuple)):
            for item in obj.values() if isinstance(obj, dict) else obj:
                yield from TestActivationMemory.arrays(item)
        elif is_dataclass(obj):
            for field in fields(obj):
                yield from TestActivationMemory.arrays(getattr(obj, field.name))

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_cache_holds_no_layer_norm_output(self, source, monkeypatch):
        config, dims, params, batch = TestBitwiseOracle.case(source, 2, (3, 2), 0.3)
        outputs = []
        ln_fwd = model._ln_fwd

        def spy(*args):
            y, cache = ln_fwd(*args)
            outputs.append(y)  # kept alive, so no cached array can reuse its memory
            return y, cache

        monkeypatch.setattr(model, "_ln_fwd", spy)
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        assert len(outputs) == 3 * 2 + 2 * 3
        cached = list(self.arrays(cache))
        assert len(cached) > 50
        shared = [(k, a.shape) for k, y in enumerate(outputs) for a in cached
                  if np.shares_memory(a, y)]
        assert shared == []

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_embed_entries_hold_only_dropout_bits_and_inputs(self, source):
        """Backward rebuilds each embedding's dropped output from its ids or
        frames, so an "embed" entry holds no float array but the frames, and
        those are the batch's own. The encoder's pack holds the batch's
        source mask itself; the decoder's, the mask of the real targets."""
        config, dims, params, batch = TestBitwiseOracle.case(source, 2, (3, 2), 0.3)
        assert not batch.src_mask.all()
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        for tape, inputs, mask in ((cache["enc"], batch.src, batch.src_mask),
                                   (cache["dec"], batch.tgt_in, batch.tgt_out != PAD_ID)):
            kind, _, state = tape[0]
            held, pack = list(self.arrays(state)), state[-1]
            assert kind == "embed" and sum(a is inputs for a in held) == 1
            assert sum(a is pack.mask for a in held) == 1 and np.array_equal(pack.mask, mask)
            assert [a.dtype for a in held if a is not inputs and a is not pack.mask] == [np.uint8]
        assert cache["enc"][0][2][-1].mask is batch.src_mask

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_encoder_entries_hold_only_real_rows(self, source):
        """The encoder runs on the real source positions alone: its "ln" and
        "ff" entries hold one row per real position, in each layer norm's
        xhat and inverse deviation, each hidden layer and each dropout mask,
        the embedding's included."""
        config, dims, params, batch = TestBitwiseOracle.case(source, 2, (3, 2), 0.3)
        n = int(batch.src_mask.sum())
        assert n < batch.src_mask.size
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        rows, masks = [], []
        for kind, _, state in cache["enc"]:
            if kind == "embed":
                masks.append(state[0][1])
            elif kind == "ln":
                (xhat, inv, _, _), dcache = state
                rows += [len(xhat), len(inv)]
                masks.append(dcache[1])
            elif kind == "ff":
                rows.append(len(state))
        assert rows == [n] * (3 * 5)  # 2 layer norms and 1 ff a layer
        assert masks == [(n, config.d_model)] * (1 + 3 * 2)

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_decoder_entries_hold_only_real_rows(self, source):
        """The decoder runs on the real target positions alone: its "ln" and
        "ff" entries and each of its dropout masks, the embedding's
        included, hold one row per position where `tgt_out` is not PAD."""
        config, dims, params, batch = TestBitwiseOracle.case(source, 2, (3, 2), 0.3)
        n = int((batch.tgt_out != PAD_ID).sum())
        assert n < batch.tgt_out.size
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        rows, masks = [], []
        for kind, _, state in cache["dec"]:
            if kind == "embed":
                masks.append(state[0][1])
            elif kind == "ln":
                (xhat, inv, _, _), dcache = state
                rows += [len(xhat), len(inv)]
                masks.append(dcache[1])
            elif kind == "ff":
                rows.append(len(state))
        assert rows == [n] * (2 * 7)  # 3 layer norms and 1 ff a layer
        assert masks == [(n, config.d_model)] * (1 + 2 * 3)

    def test_attention_entries_hold_only_real_rows(self):
        """Each attention entry, encoder self, decoder self and cross, holds
        its queries, keys and values as their projections' real rows, (N, d),
        and no entry holds split heads in the padded layout: the cores pad
        one batch row at a time. An entry's only other float array is the
        additive mask it shares with the forward."""
        config, dims, params, batch = self.medium_case(True)
        (b, s), t, d = batch.src.shape, batch.tgt_in.shape[1], config.d_model
        n_src, n_tgt = int(batch.src_mask.sum()), int((batch.tgt_out != PAD_ID).sum())
        assert n_src < b * s  # every target is 40 long: the decoder's N is B * T
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        seen = []
        for stack, tape in cache.items():
            for kind, name, state in tape:
                if kind in ("self", "cross"):
                    n_q = n_src if stack == "enc" else n_tgt
                    n_kv = n_tgt if (stack, kind) == ("dec", "self") else n_src
                    mask = state[3]
                    floats = [a.shape for a in self.arrays(state)
                              if a.dtype.kind == "f" and a is not mask]
                    assert floats == [(n_q, d), (n_kv, d), (n_kv, d)], name
                    seen.append((stack, kind))
        assert seen == [("enc", "self")] * 3 + [("dec", "self"), ("dec", "cross")]
        heads_shapes = {(b, config.heads, n, d // config.heads) for n in (s, t)}
        assert [a.shape for a in self.arrays(cache) if a.shape in heads_shapes] == []

    def test_pack_copies_nothing_without_padding(self, classes):
        """`_Pack` takes the real rows and zero-fills them back; with no padded
        position, as in every greedy decode's source and in each of its
        steps, it returns views."""
        x = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
        mask = np.array([[True, True, False], [True, False, False]])
        pack = model._Pack.of(mask)
        assert np.array_equal(pack.take(x), x[mask])
        assert np.array_equal(pack.pad(pack.take(x)), np.where(mask[..., None], x, 0.0))
        vocab = Vocabulary(induce_inventory([PhonemeSequence(tuple("alsiemn"))], classes), (),
                           "base")
        params, config, sources = TestIncrementalDecode.random_model(
            vocab, "tokens", 2, 2, 5, seed=0)
        packs = []
        embed = model._embed

        def spy(params, name, src, pack, *rest):
            packs.append((name, pack))
            return embed(params, name, src, pack, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_embed", spy)
            greedy_decode(params, config, sources[-1], vocab)
        assert [name for name, _ in packs] == ["src_embed"] + ["tgt_embed"] * 5
        for _, dense in packs:
            rows = np.zeros((*dense.shape, 4))
            assert dense.mask is None
            assert np.shares_memory(dense.take(rows), rows)
            assert np.shares_memory(dense.pad(dense.take(rows)), rows)

    def test_cache_holds_no_bool_array_or_merged_context(self, monkeypatch):
        """Dropout masks are cached packed 8 to a byte, and backward rebuilds
        each attention's merged context from its probabilities and values."""
        config, dims, params, batch = TestBitwiseOracle.case("tokens", 2, (3, 2), 0.3)
        merged = []
        merge_heads = model._merge_heads

        def spy(xh, *rest):
            out = merge_heads(xh, *rest)
            merged.append(out)  # kept alive, so no cached array can reuse its memory
            return out

        monkeypatch.setattr(model, "_merge_heads", spy)
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        assert len(merged) == 3 + 2 * 2  # one per attention
        cached = list(self.arrays(cache))
        packs = [tape[0][2][-1].mask for tape in (cache["enc"], cache["dec"])]
        assert packs[0] is batch.src_mask and np.array_equal(packs[1], batch.tgt_out != PAD_ID)
        assert [sum(a is mask for a in cached) for mask in packs] == [1, 1]
        assert [a.shape for a in cached
                if a.dtype == bool and not any(a is mask for mask in packs)] == []
        assert [a.shape for m in merged for a in cached if np.shares_memory(a, m)] == []

    def test_cache_holds_no_attention_probabilities(self):
        """Backward rebuilds each attention's probabilities one batch row at a
        time, so no (B, heads, Tq, Tk) float array waits on the tape."""
        config, dims, params, batch = TestBitwiseOracle.case("tokens", 2, (3, 2), 0.3)
        (b, s), t = batch.src.shape, batch.tgt_in.shape[1]
        shapes = {(b, config.heads, tq, tk) for tq, tk in ((s, s), (t, t), (t, s))}
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(0), cache)
        cached = list(self.arrays(cache))
        assert len(cached) > 50
        assert [a.shape for a in cached if a.dtype.kind == "f" and a.shape in shapes] == []

    def test_attention_forward_holds_one_row(self, monkeypatch):
        """Above its entry memory, `_attend_fwd` holds the split context and
        one batch row's zero-padded queries, keys and values, or the split
        and merged context, or the merged context and the output, every row's
        bool keep mask, and at most three one-row float64 buffers at once: a
        row's probabilities, its dropout draws and a numpy iteration buffer."""
        calls = []
        attend_fwd = model._attend_fwd

        def spy(q, kv, params, prefix, mask, heads, *rest):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = attend_fwd(q, kv, params, prefix, mask, heads, *rest)
            (b, tq), tk = rest[-2].shape, rest[-1].shape[1]  # the query and key packs
            calls.append((tracemalloc.get_traced_memory()[1] - entry,
                          (b, heads, tq, q.shape[-1] // heads), tk))
            return out

        monkeypatch.setattr(model, "_attend_fwd", spy)
        for padded in (False, True):
            config, dims, params, batch = self.medium_case(padded)
            assert config.dropout > 0
            calls.clear()
            tracemalloc.start()
            try:
                forward_batch(params, config, batch, np.random.default_rng(0), {})
            finally:
                tracemalloc.stop()
            assert len(calls) == 5  # three encoder layers, then decoder self and cross
            for rise, (b, heads, tq, dh), tk in calls:
                merged_bytes = b * tq * heads * dh * 8
                keep_bytes = b * heads * tq * tk
                row_bytes = heads * tq * tk * 8
                assert rise <= 2 * merged_bytes + keep_bytes + 3 * row_bytes + 4096, (
                    padded, rise, tq, tk)

    def test_attention_backward_rise_is_bounded(self, monkeypatch):
        """Above its entry memory, `_mha_bwd` holds the context and its
        gradient, the query, key and value gradients as real rows, one batch
        row's zero-padded queries, keys, values and head gradient, and at
        most two attention-sized buffers and a 64 KiB numpy iteration buffer
        at once: within the merged query and key gradients and two
        attention-sized buffers."""
        calls = []
        mha_bwd = model._mha_bwd

        def spy(*args):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = mha_bwd(*args)
            calls.append(tracemalloc.get_traced_memory()[1] - entry)
            return out

        monkeypatch.setattr(model, "_mha_bwd", spy)
        for padded in (False, True):
            config, dims, params, batch = self.medium_case(padded)
            calls.clear()
            tracemalloc.start()
            try:
                loss_and_gradient(params, config, batch, np.random.default_rng(0))
            finally:
                tracemalloc.stop()
            (b, s), t, d = batch.src.shape, batch.tgt_in.shape[1], config.d_model
            assert len(calls) == 5  # decoder cross and self, then three encoder layers
            for rise, (tq, tk) in zip(calls, [(t, s), (t, t), (s, s), (s, s), (s, s)]):
                q_bytes, k_bytes = b * tq * d * 8, b * tk * d * 8
                attn_bytes = b * config.heads * tq * tk * 8
                assert rise <= q_bytes + k_bytes + 2 * attn_bytes + 4096, (padded, rise, tq, tk)

    def test_encoder_layers_without_cache_start_alike(self, monkeypatch):
        """The valid pass and the decoder's encoder run keep no cache: each
        encoder layer's attention starts with the same memory traced."""
        entries = []
        mha_fwd = model._mha_fwd

        def spy(*args, **kwargs):
            entries.append(tracemalloc.get_traced_memory()[0])
            return mha_fwd(*args, **kwargs)

        monkeypatch.setattr(model, "_mha_fwd", spy)
        for padded in (False, True):
            config, dims, params, batch = self.medium_case(padded)
            entries.clear()
            tracemalloc.start()
            try:
                model._encoder_forward(params, config, batch, 0.0, None)
            finally:
                tracemalloc.stop()
            assert len(entries) == 3
            assert max(entries) - min(entries) <= 4096, (padded, entries)


def fresh_pe(length, d):
    """The sinusoidal table computed at exactly `length` rows."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / d)
    pe = np.empty((length, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles[:, 0::2])
    pe[:, 1::2] = np.cos(angles[:, 1::2])
    return pe


class TestPositionalTable:
    @pytest.mark.parametrize("d", [16, 200])
    def test_rows_equal_a_fresh_table_and_are_read_only(self, monkeypatch, d):
        monkeypatch.setattr(model, "_PE_TABLES", {})
        model._pe(3, d)
        longest = model._pe(600, d)  # grows the table once
        for length in range(1, 601):
            pe = model._pe(length, d)
            assert pe.shape == (length, d)
            assert np.array_equal(pe, fresh_pe(length, d)), length
            assert not pe.flags.writeable
            assert np.shares_memory(pe, longest)  # a slice, not a rebuild
        with pytest.raises(ValueError):
            longest[0, 0] = 1.0

    def test_one_row_more_at_a_time_seldom_regrows(self, monkeypatch):
        """A decode asks for one row more at each step; the table at least
        doubles when it grows, so 400 steps build it 10 times, not 400."""
        monkeypatch.setattr(model, "_PE_TABLES", {})
        built = {len(model._pe(length, 16).base) for length in range(1, 401)}
        assert built == {2 ** k for k in range(10)}


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

    @pytest.mark.parametrize("source", ["tokens", "features"])
    def test_pad_emitting_model_matches_prefix_rerun(self, vocab, source):
        """A model biased to emit PAD_ID feeds PAD back as its next input.
        The decoder's positions come from the target lengths, not from token
        values, so the decode still matches the prefix re-run, and the
        teacher-forced logits of the PAD-filled prefix match the reference's
        at every position."""
        params, config, sources = self.random_model(vocab, source, 2, 2, 12, seed=0)
        params["out_b"][PAD_ID] = 50.0
        dims = conftest.infer_dims(params)
        for src in sources:
            result = greedy_decode(params, config, src, vocab)
            assert result == reference_greedy_decode(params, config, src, vocab)
            assert result.ids == (PAD_ID,) * 12 and result.truncated
            batch = make_batch([src], [[]])
            batch.tgt_in = np.asarray([[BOS_ID, *result.ids]], dtype=np.int64)
            batch.tgt_out = np.full_like(batch.tgt_in, EOS_ID)  # every position real
            ref_logits, _ = conftest.forward_batch(params, config, dims, batch)
            assert np.array_equal(forward_batch(params, config, batch), ref_logits[0])

    def test_never_reruns_decoder_over_prefix(self, vocab, monkeypatch):
        params, config, sources = self.random_model(vocab, "tokens", 2, 2, 50, seed=1)
        expected = [reference_greedy_decode(params, config, src, vocab) for src in sources]
        steps = []
        decode = model._decoder_forward

        def spy(params, config, layers, src_add, enc_pack, tgt_in, t, *rest):
            steps.append((tgt_in.shape, t))
            return decode(params, config, layers, src_add, enc_pack, tgt_in, t, *rest)

        monkeypatch.setattr(model, "_decoder_forward", spy)
        for src, want in zip(sources, expected):
            steps.clear()
            assert greedy_decode(params, config, src, vocab) == want
            assert steps == [((1, 1), t) for t in range(len(steps))]
            assert len(steps) == len(want.ids) + (0 if want.truncated else 1)

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
            seen.append((i, t, rest[-1].shape[1]))  # the pack's padded layout (B, n)
            return layer(params, config, i, y, t, *rest)

        monkeypatch.setattr(model, "_decoder_layer", spy)
        return seen

    def test_teacher_forcing_runs_each_layer_once(self, calls):
        config, dims, params, batch = TestBitwiseOracle.case("tokens", 2, (1, 3), 0.3)
        cache = {}
        forward_batch(params, config, batch, np.random.default_rng(2), cache)
        t_len = batch.tgt_in.shape[1]
        assert calls == [(0, 0, t_len), (1, 0, t_len), (2, 0, t_len)]
        assert len(cache["dec"]) == 1 + 3 * 6  # the embedding, then six sublayers a layer
        calls.clear()
        TestBitwiseOracle.assert_logits_match_reference(
            forward_batch(params, config, batch),
            conftest.forward_batch(params, config, dims, batch)[0], batch)
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

"""Corpus BLEU: hand cases, clipping, brevity penalty, oracle agreement."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from bigphon.bleu import EmptyCorpus, corpus_bleu, modified_precision


def oracle_bleu(hyps, refs):
    """Independent brute-force scorer: explicit n-gram lists and Fractions."""
    clipped = {n: 0 for n in (1, 2, 3, 4)}
    totals = {n: 0 for n in (1, 2, 3, 4)}
    for n in (1, 2, 3, 4):
        for hyp, ref in zip(hyps, refs):
            hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            for gram in set(hyp_grams):
                clipped[n] += min(hyp_grams.count(gram), ref_grams.count(gram))
            totals[n] += len(hyp_grams)
    c = sum(len(h) for h in hyps)
    r = sum(len(x) for x in refs)
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1.0 - Fraction(r, c))
    precisions = []
    for n in (1, 2, 3, 4):
        if totals[n] == 0 or clipped[n] == 0:
            return 0.0
        precisions.append(Fraction(clipped[n], totals[n]))
    geo = math.exp(sum(0.25 * math.log(float(p)) for p in precisions))
    return 100.0 * bp * geo


class TestModifiedPrecision:
    def test_hand_enumeration(self):
        got = modified_precision([list("abcde")], [list("abcd")], 2)
        assert got == (3, 4)

    def test_identity(self):
        for n in (1, 2, 3):
            got = modified_precision([list("abc")], [list("abc")], n)
            assert got == (3 - n + 1, 3 - n + 1)

    def test_clipping(self):
        assert modified_precision([list("aaa")], [list("a")], 1) == (1, 3)

    def test_short_sentences_contribute_nothing(self):
        assert modified_precision([list("ab")], [list("ab")], 3) == (0, 0)

    def test_clipping_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hyp = [str(x) for x in rng.integers(0, 4, size=rng.integers(1, 10))]
            ref = [str(x) for x in rng.integers(0, 4, size=rng.integers(1, 10))]
            for n in (1, 2):
                clipped, total = modified_precision([hyp], [ref], n)
                assert clipped <= total
                assert clipped <= max(len(ref) - n + 1, 0)


class TestCorpusBleu:
    def test_identity_is_100(self):
        refs = [list("abcd"), list("wxyz")]
        assert corpus_bleu(refs, refs).bleu == 100.0

    def test_hand_case(self):
        report = corpus_bleu([list("abcde")], [list("abcd")])
        assert report.bleu == pytest.approx(66.874, abs=1e-3)
        assert report.precisions == (4 / 5, 3 / 4, 2 / 3, 1 / 2)
        assert report.brevity_penalty == 1.0
        assert (report.hyp_length, report.ref_length) == (5, 4)

    def test_zero_precision_no_smoothing(self):
        report = corpus_bleu([list("abc")], [list("abcd")])
        assert report.bleu == 0.0
        assert report.precisions[3] == 0.0
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 4 / 3))

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_bleu([], [])
        with pytest.raises(EmptyCorpus):
            corpus_bleu([list("ab")], [])

    def test_permutation_invariance(self):
        hyps = [list("abcd"), list("abzd"), list("qrstu")]
        refs = [list("abcd"), list("abcd"), list("qrstv")]
        a = corpus_bleu(hyps, refs)
        b = corpus_bleu(hyps[::-1], refs[::-1])
        assert a == b

    def test_monotone_brevity_penalty(self):
        """Holding precisions fixed, shrinking c below r lowers the score."""
        ref = list("aaaaaaaaaa")
        prev = None
        for c in (10, 8, 6, 5):
            report = corpus_bleu([ref[:c]], [ref])
            if prev is not None:
                assert report.bleu < prev
            prev = report.bleu

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n_sent = int(rng.integers(1, 8))
            hyps, refs = [], []
            for _ in range(n_sent):
                alpha = [str(x) for x in range(int(rng.integers(2, 10)))]
                hyps.append([alpha[i] for i in rng.integers(0, len(alpha), size=rng.integers(4, 15))])
                refs.append([alpha[i] for i in rng.integers(0, len(alpha), size=rng.integers(4, 15))])
            assert corpus_bleu(hyps, refs).bleu == pytest.approx(
                oracle_bleu(hyps, refs), abs=1e-9
            )

    def test_report_json_fields(self):
        report = corpus_bleu([list("abcd")], [list("abcd")], variant="vowel30", epoch=80)
        d = report.to_dict()
        assert set(d) == {"bleu", "bleu_raw", "p1", "p2", "p3", "p4", "c", "r",
                          "bp", "variant", "epoch"}
        assert d["variant"] == "vowel30" and d["epoch"] == 80
        assert d["bleu_raw"] == pytest.approx(d["bleu"] / 100.0)


class TestEvaluateCheckpoint:
    """Checkpoint-level scoring through training.decode_split."""

    def test_untrained_model_scores_near_zero(self, classes):
        """Random-init checkpoints should stay under BLEU 5, seed-averaged."""
        from bigphon.ipa import induce_inventory
        from bigphon.model import ModelConfig, ModelDims, flatten_params, init_params, param_index
        from bigphon.training import Checkpoint, SourceCodec, decode_split
        from bigphon.vocab import build_variant
        from conftest import make_toy_manifest

        m = make_toy_manifest(12, seed=15, sizes=(2, 0, 10))
        inv = induce_inventory([u.phonemes for u in m.utterances], classes)
        vocab = build_variant([u.phonemes for u in m.by_split("train")], inv, "base")
        codec = SourceCodec.from_texts([u.text for u in m.utterances])
        dims = ModelDims(target_vocab=len(vocab), source_vocab=codec.size)
        scores = []
        for seed in (0, 1, 2):
            cfg = ModelConfig(
                epochs=1, checkpoint_interval=1, seed=seed, d_model=16, heads=2,
                d_ff=32, encoder_layers=1, decoder_layers=1, max_target_len=50,
            )
            params = init_params(cfg, dims, np.random.default_rng(seed))
            ckpt = Checkpoint(
                epoch=0, config=cfg, variant="base", dims=dims,
                params_flat=flatten_params(params, param_index(cfg, dims)),
                vocab=vocab, codec=codec,
            )
            scores.append(decode_split(ckpt, m)[1].bleu)
        assert sum(scores) / len(scores) < 5.0

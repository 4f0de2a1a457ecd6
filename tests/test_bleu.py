"""Corpus BLEU: hand cases, clipping, brevity penalty, oracle agreement."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bigphon.bleu import BleuReport, EmptyCorpus, corpus_bleu, sentence_stats


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


def per_order_bleu(hyps, refs):
    """Reference scorer for `corpus_bleu`: one corpus pass per n-gram order,
    summing clipped matches and totals, with no per-sentence counts."""

    def ngrams(tokens, n):
        return Counter(zip(*(tokens[k:] for k in range(n))))

    def modified_precision(hyps, refs, n):
        clipped = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            if len(hyp) < n:
                continue
            clipped += sum((ngrams(hyp, n) & ngrams(ref, n)).values())
            total += len(hyp) - n + 1
        return clipped, total

    hyps = [tuple(h) for h in hyps]
    refs = [tuple(r) for r in refs]
    c = sum(len(h) for h in hyps)
    r = sum(len(x) for x in refs)
    precisions = []
    for n in range(1, 5):
        clipped, total = modified_precision(hyps, refs, n)
        precisions.append(clipped / total if total else 0.0)
    if c == 0:
        bp = 0.0
    elif c > r:
        bp = 1.0
    else:
        bp = math.exp(1.0 - r / c)
    if min(precisions) > 0.0:
        score = 100.0 * bp * math.exp(sum(0.25 * math.log(p) for p in precisions))
    else:
        score = 0.0
    return BleuReport(score, tuple(precisions), c, r, bp)


def order_counts(hyp, ref, n):
    """(clipped matches, hypothesis n-grams) at order n from `sentence_stats`."""
    stats = sentence_stats(hyp, ref)
    return stats[2 * n], stats[2 * n + 1]


class TestModifiedPrecision:
    """Modified n-gram precision counts, per sentence, from `sentence_stats`."""

    def test_hand_enumeration(self):
        assert order_counts(list("abcde"), list("abcd"), 2) == (3, 4)
        assert sentence_stats(list("abcde"), list("abcd")) == (5, 4, 4, 5, 3, 4, 2, 3, 1, 2)

    def test_identity(self):
        for n in (1, 2, 3):
            assert order_counts(list("abc"), list("abc"), n) == (3 - n + 1, 3 - n + 1)
        assert sentence_stats(list("abc"), list("abc")) == (3, 3, 3, 3, 2, 2, 1, 1, 0, 0)

    def test_clipping(self):
        assert order_counts(list("aaa"), list("a"), 1) == (1, 3)
        assert sentence_stats(list("aaa"), list("a")) == (3, 1, 1, 3, 0, 2, 0, 1, 0, 0)

    def test_short_sentences_contribute_nothing(self):
        assert order_counts(list("ab"), list("ab"), 3) == (0, 0)
        assert sentence_stats(list("ab"), list("ab")) == (2, 2, 2, 2, 1, 1, 0, 0, 0, 0)
        assert sentence_stats([], list("abc")) == (0, 3, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_clipping_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hyp = [str(x) for x in rng.integers(0, 4, size=rng.integers(1, 10))]
            ref = [str(x) for x in rng.integers(0, 4, size=rng.integers(1, 10))]
            for n in (1, 2):
                clipped, total = order_counts(hyp, ref, n)
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

    def test_equals_the_per_order_loop(self):
        """Summing per-sentence counts scores every corpus bit-identically."""
        rng = random.Random(27)
        for _ in range(300):
            hyps, refs = [], []
            for _ in range(rng.randint(1, 6)):
                alpha = "abcdef"[: rng.randint(1, 6)]
                hyps.append(rng.choices(alpha, k=rng.randint(0, 12)))
                refs.append(rng.choices(alpha, k=rng.randint(0, 12)))
            assert repr(corpus_bleu(hyps, refs)) == repr(per_order_bleu(hyps, refs))

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
        from bigphon.training import Checkpoint, SourceCodec, decode_split, read_sources
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
            utts = m.by_split("test")
            scores.append(decode_split(ckpt, utts, read_sources(utts, codec))[1].bleu)
        assert sum(scores) / len(scores) < 5.0

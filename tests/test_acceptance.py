"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; under plain `pytest` they appear in captured output.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from bigphon.bleu import corpus_bleu
from bigphon.analysis import align, detect_dropouts, detect_repetitions, detect_substitutions
from bigphon.cli import main
from bigphon.corpus import CorpusManifest, Utterance, augment, filter_by_length, split_corpus
from bigphon.g2p import transliterate
from bigphon.ipa import induce_inventory, normalize_symbols, segment_ipa
from bigphon.model import (
    ModelConfig,
    ModelDims,
    batch_loss_and_dlogits,
    flatten_params,
    forward_batch,
    init_params,
    make_batch,
    param_index,
    unflatten_params,
)
from bigphon.training import decode_split, read_sources, train
from bigphon.vocab import VARIANT_LABELS, build_all_variants, build_variant, detokenize, parse_variant, tokenize

from conftest import (
    from_words,
    gradient,
    last_checkpoint,
    make_toy_manifest,
    reference_greedy_decode,
    synthetic_corpus,
)
from test_analysis import dp_oracle, replay
from test_bleu import oracle_bleu


class criterion:
    """Prints `[acceptance NN] PASS/FAIL: desc` when the block exits."""

    def __init__(self, number: int, desc: str):
        self.number = number
        self.desc = desc

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.monotonic() - self.t0
        print(f"[acceptance {self.number:02d}] {status} ({elapsed:.1f}s): {self.desc}")
        return False


def test_criterion_01_bleu_oracle_equivalence():
    with criterion(1, "corpus BLEU matches brute-force oracle on 200 random corpora"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n_sent = int(rng.integers(1, 21))
            alpha = [chr(ord("a") + k) for k in range(int(rng.integers(2, 11)))]
            hyps, refs = [], []
            for _ in range(n_sent):
                hyps.append([alpha[i] for i in rng.integers(0, len(alpha), size=rng.integers(4, 16))])
                refs.append([alpha[i] for i in rng.integers(0, len(alpha), size=rng.integers(4, 16))])
            ours = corpus_bleu(hyps, refs).bleu
            assert ours == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)
            assert corpus_bleu(refs, refs).bleu == 100.0
        assert time.monotonic() - t0 < 10.0


def test_criterion_02_hand_derived_bleu():
    with criterion(2, "hyp abcde vs ref abcd scores 66.874 +- 0.001"):
        report = corpus_bleu([list("abcde")], [list("abcd")])
        assert report.bleu == pytest.approx(66.874, abs=1e-3)


def test_criterion_03_tokenizer_round_trip(classes):
    with criterion(3, "detokenize∘tokenize is identity: 1000 sequences x 10 variants"):
        t0 = time.monotonic()
        corpus = synthetic_corpus()
        inventory = induce_inventory(corpus, classes)
        vocabs = build_all_variants(corpus, inventory)
        assert set(vocabs) == set(VARIANT_LABELS)
        symbols = inventory.symbols
        rng = np.random.default_rng(99)
        sequences = []
        for _ in range(1000):
            n_words = int(rng.integers(1, 4))
            words = [
                [symbols[i] for i in rng.integers(0, len(symbols), size=rng.integers(1, 8))]
                for _ in range(n_words)
            ]
            sequences.append(from_words(words))
        for label in VARIANT_LABELS:
            vocab = vocabs[label]
            for seq in sequences:
                assert detokenize(tokenize(seq, vocab), vocab) == seq
        assert time.monotonic() - t0 < 5.0


def test_criterion_04_vocabulary_size_formula(classes):
    with criterion(4, "unit counts: base=53 and 49+n+4 for all nine bigram variants"):
        corpus = synthetic_corpus()
        inventory = induce_inventory(corpus, classes)
        assert len(inventory) == 49
        vocabs = build_all_variants(corpus, inventory)
        assert len(vocabs["base"]) == 53
        for label in VARIANT_LABELS:
            _, n = parse_variant(label)
            assert len(vocabs[label]) == 49 + n + 4, label
            assert len(vocabs[label].merged_pairs) == n


def test_criterion_05_gradient_check():
    with criterion(5, "finite-difference gradient check, 100 coordinates, rel err < 1e-4"):
        t0 = time.monotonic()
        config = ModelConfig(
            d_model=8, heads=2, d_ff=16, encoder_layers=1, decoder_layers=1,
            epochs=10, checkpoint_interval=10, dropout=0.0, seed=0,
        )
        dims = ModelDims(target_vocab=12, source_vocab=15)
        params = init_params(config, dims, np.random.default_rng(404))
        index = param_index(config, dims)
        batch = make_batch(
            [[1, 2, 3, 4, 5, 6], [7, 8, 9], [10, 11, 12, 13]],
            [(4, 5, 6, 7, 8), (9, 10), (11, 4, 5)],
        )
        analytic = gradient(params, config, batch)
        flat = flatten_params(params, index)

        def f(vec):
            p = unflatten_params(vec, index)
            logits = forward_batch(p, config, batch)
            value, _, _ = batch_loss_and_dlogits(logits, batch.tgt_out)
            return value

        h = 1e-4
        coords = np.random.default_rng(77).choice(flat.size, size=100, replace=False)
        worst = 0.0
        for c in coords:
            vp = flat.copy()
            vp[c] += h
            vm = flat.copy()
            vm[c] -= h
            fd = (f(vp) - f(vm)) / (2 * h)
            rel = abs(analytic[c] - fd) / max(abs(analytic[c]), abs(fd), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-4, f"max relative error {worst}"
        assert time.monotonic() - t0 < 60.0


def _toy_config(epochs, **overrides):
    base = dict(
        d_model=32, heads=2, d_ff=64, encoder_layers=2, decoder_layers=1,
        epochs=epochs, checkpoint_interval=epochs, batch_size=16,
        learning_rate=3e-3, dropout=0.1, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_criterion_06_toy_training_behavior(tmp_path, classes, rules):
    with criterion(6, "50-pair corpus halves train loss in 30 epochs; 5-pair overfit hits "
                      "BLEU 100, decoded exactly as by prefix reruns"):
        t0 = time.monotonic()
        manifest = make_toy_manifest(50, seed=11, sizes=(40, 5, 5))
        inventory = induce_inventory([u.phonemes for u in manifest.utterances], classes)
        vocab = build_variant(
            [u.phonemes for u in manifest.by_split("train")], inventory, "base"
        )
        trace = train(manifest, vocab, _toy_config(30), tmp_path / "fifty")
        first = trace.entries[0][0]
        last = trace.entries[-1][0]
        assert last <= 0.5 * first, f"loss {first} -> {last}"

        texts = [
            "die sonne schien auf das wasser",
            "ein mann ging durch die stadt",
            "das kind spielt mit dem ball",
            "der wind weht über das land",
            "wir sehen den hellen mond",
        ]
        utts = tuple(Utterance(f"p{i}", t) for i, t in enumerate(texts))
        five = split_corpus(augment(CorpusManifest(utts), rules, classes), (5, 0, 0), seed=0)
        inv5 = induce_inventory([u.phonemes for u in five.utterances], classes)
        vocab5 = build_variant([u.phonemes for u in five.by_split("train")], inv5, "base")
        overfit = _toy_config(200, encoder_layers=1, batch_size=5, dropout=0.0, seed=1)
        train(five, vocab5, overfit, tmp_path / "five")
        ckpt = last_checkpoint(tmp_path / "five", overfit)
        sources = read_sources(five.by_split("train"), ckpt.codec)
        decoded, report = decode_split(ckpt, five.by_split("train"), sources)
        assert report.bleu == 100.0
        for (utt, result), source in zip(decoded, sources):
            assert result == reference_greedy_decode(ckpt.params, ckpt.config, source, ckpt.vocab)
        assert time.monotonic() - t0 < 300.0


def test_criterion_07_training_determinism(tmp_path):
    with criterion(7, "identical seeds give byte-identical checkpoints and traces"):
        manifest = make_toy_manifest(12, seed=21, sizes=(8, 2, 2))
        from bigphon.corpus import write_manifest

        mpath = tmp_path / "m.tsv"
        write_manifest(manifest, mpath)
        vpath = tmp_path / "base.vocab"
        assert main(["vocab", "--manifest", str(mpath), "--variant", "base",
                     "--out", str(vpath)]) == 0
        runs = []
        for name in ("r1", "r2"):
            outdir = tmp_path / name
            rc = main([
                "train", "--manifest", str(mpath), "--vocab", str(vpath),
                "--outdir", str(outdir), "--epochs", "4", "--ckpt-interval", "2",
                "--d-model", "16", "--heads", "2", "--d-ff", "32",
                "--encoder-layers", "1", "--decoder-layers", "1",
                "--batch-size", "4", "--seed", "13",
            ])
            assert rc == 0
            runs.append(outdir)
        for fname in ("epoch0002.ckpt", "epoch0004.ckpt", "trace.csv"):
            a = (runs[0] / fname).read_bytes()
            b = (runs[1] / fname).read_bytes()
            assert a == b, fname


def test_criterion_08_alignment_oracle():
    with criterion(8, "edit distance matches exhaustive DP oracle (3-symbol pairs, combined length <= 8)"):
        t0 = time.monotonic()
        alphabet = ("a", "b", "c")

        def strings_of(length):
            if length == 0:
                return [()]
            return [s + (ch,) for s in strings_of(length - 1) for ch in alphabet]

        pools = {n: strings_of(n) for n in range(9)}
        checked = 0
        for len_ref in range(9):
            for len_hyp in range(9 - len_ref):
                for ref in pools[len_ref]:
                    for hyp in pools[len_hyp]:
                        a = align(ref, hyp)
                        assert a.distance == dp_oracle(ref, hyp)
                        assert tuple(replay(a, ref)) == hyp
                        checked += 1
        assert checked == 83653
        assert time.monotonic() - t0 < 30.0


def test_criterion_09_error_detector_fixtures(classes):
    with criterion(9, "tandem repeat, dropout, and same-class substitution fixtures detected"):
        # repetition: degenerate decode looping a 16-token phrase four times
        phrase = segment_ipa("bø:sən gaɪst ʊnd de:m", classes).tokens
        prefix = segment_ipa("als si: fo:n de:m", classes).tokens
        hyp = list(prefix) + list(phrase) * 4
        reps = detect_repetitions(hyp)
        assert len(reps) == 1
        assert reps[0].period == 16 and reps[0].copies == 4

        # dropout: "als si:" predicted as "als i:"
        ref = segment_ipa("als si:", classes)
        drop_hyp = segment_ipa("als i:", classes)
        alignment = align(ref.tokens, drop_hyp.tokens)
        drops = detect_dropouts(alignment, ref.tokens)
        assert len(drops) == 1 and drops[0].token == "s"

        # substitution: vURd@n predicted as vORd@n (similar-vowel error)
        sub_ref = segment_ipa("vURd@n", classes)
        sub_hyp = segment_ipa("vORd@n", classes)
        alignment = align(sub_ref.tokens, sub_hyp.tokens)
        subs = detect_substitutions(alignment, classes)
        assert len(subs) == 1
        assert (subs[0].ref, subs[0].hyp) == ("ʊ", "ɔ")
        assert subs[0].same_class is True


def test_criterion_10_pipeline_counts():
    with criterion(10, "7425-row manifest: two long rows filter to 7423; 7425 split 6425/500/500"):
        long_rows = {100, 4200}
        utts = tuple(
            Utterance(f"u{i:05d}", "x" * (201 if i in long_rows else 40))
            for i in range(7425)
        )
        filtered, removed = filter_by_length(CorpusManifest(utts), 200)
        assert removed == 2
        assert len(filtered) == 7423

        valid = tuple(Utterance(f"v{i:05d}", "kurzer satz") for i in range(7425))
        split = split_corpus(CorpusManifest(valid), (6425, 500, 500), seed=0)
        assert Counter(split.split.values()) == Counter(train=6425, valid=500, test=500)


def test_criterion_11_g2p_fixture(rules, classes):
    with criterion(11, "rule table reproduces the reference-sentence transcription"):
        for word, quoted in (("schönen", "ʃø:nən"), ("dem", "de:m"), ("wurden", "vURd@n")):
            got = transliterate(word, rules, classes).render()
            assert got == normalize_symbols(quoted), word
        sentence = "als sie von dem schönen Geist und dem Bartscherer überfallen wurden"
        answer_row = "als si: fo:n de:m ʃø:nən gaɪst ʊnd de:m baʁt͡ʃəʁəʁ y:bəʁfalən vʊʁdən"
        assert transliterate(sentence, rules, classes).render() == answer_row

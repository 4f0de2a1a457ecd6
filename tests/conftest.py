"""Shared fixtures: bundled tables, toy corpora, synthetic inventories,
single-sequence model helpers over the batched interface, and the
prefix-rerun greedy decoder that the incremental one is checked against."""

from __future__ import annotations

import numpy as np
import pytest

from bigphon.corpus import CorpusManifest, Utterance, augment, split_corpus
from bigphon.g2p import load_default_rules
from bigphon.ipa import (
    PhonemeSequence,
    induce_inventory,
    load_default_classification,
)
from bigphon.model import (
    DecodeResult,
    ModelConfig,
    _decoder_forward,
    _encoder_forward,
    batch_loss_and_dlogits,
    flatten_params,
    forward_batch,
    infer_dims,
    loss_and_gradient,
    make_batch,
    param_index,
)
from bigphon.vocab import BOS_ID, EOS_ID, Vocabulary, detokenize

TOY_WORDS = [
    "als", "sie", "von", "dem", "schönen", "geist", "und", "wurden", "das",
    "die", "sonne", "wasser", "mann", "kind", "stadt", "haus", "berg", "tal",
    "licht", "nacht", "tag", "morgen", "abend", "wind", "regen", "schnee",
    "blume", "baum", "wald", "fluss",
]

# 24 vowels + 25 consonants = 49 atoms, all classifiable under the bundled
# table; rich enough to supply >=30 bigrams per scope.
SYNTH_VOWELS = [
    "a", "e", "i", "o", "u", "y", "ɑ", "ɐ", "ə", "ɛ", "ɪ", "ɔ", "ʊ", "ʏ",
    "ø", "œ", "a:", "e:", "i:", "o:", "u:", "y:", "ø:", "ɛ:",
]
SYNTH_CONSONANTS = [
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "q", "r",
    "s", "t", "v", "w", "x", "z", "ç", "ŋ", "ʁ", "ʃ", "ʒ",
]


@pytest.fixture(scope="session")
def classes():
    return load_default_classification()


@pytest.fixture(scope="session")
def rules():
    return load_default_rules()


def make_toy_manifest(n: int, seed: int, sizes=None, rules=None, classes=None):
    """Augmented toy manifest of German word salads."""
    rules = rules or load_default_rules()
    classes = classes or load_default_classification()
    rng = np.random.default_rng(seed)
    texts = [
        " ".join(rng.choice(TOY_WORDS, size=int(rng.integers(3, 7))))
        for _ in range(n)
    ]
    utts = tuple(Utterance(f"u{i:04d}", t) for i, t in enumerate(texts))
    manifest = augment(CorpusManifest(utts), rules, classes)
    if sizes is not None:
        manifest = split_corpus(manifest, sizes, seed)
    return manifest


def synthetic_corpus() -> list[PhonemeSequence]:
    """Sequences whose induced inventory has exactly 49 atoms."""
    words = [[s] for s in SYNTH_VOWELS + SYNTH_CONSONANTS]
    for a in SYNTH_VOWELS[:6]:
        for b in SYNTH_VOWELS[:6]:
            words.append([a, b])
    for a in SYNTH_CONSONANTS[:6]:
        for b in SYNTH_CONSONANTS[:6]:
            words.append([a, b])
    return [PhonemeSequence.from_words([w]) for w in words]


@pytest.fixture(scope="session")
def synthetic_inventory(classes):
    return induce_inventory(synthetic_corpus(), classes)


def forward(params, config: ModelConfig, source, target_prefix) -> np.ndarray:
    """Logits (len(target_prefix), vocab) for one teacher-forced prefix."""
    dims = infer_dims(params)
    batch = make_batch([source], [[]], dims)
    batch.tgt_in = np.asarray([target_prefix], dtype=np.int64)
    logits, _ = forward_batch(params, config, dims, batch)
    return logits[0]


def loss(logits: np.ndarray, target) -> float:
    """Mean cross-entropy of a single (T, V) logit block vs T target ids."""
    target = np.asarray(target, dtype=np.int64)
    value, _, _ = batch_loss_and_dlogits(logits[None], target[None])
    return value


def gradient(params, config: ModelConfig, batch) -> np.ndarray:
    """Flat gradient vector in canonical parameter order (no dropout)."""
    dims = infer_dims(params)
    _, grads, _ = loss_and_gradient(params, config, dims, batch)
    return flatten_params(grads, param_index(config, dims))


def reference_greedy_decode(params, config: ModelConfig, source, vocab: Vocabulary) -> DecodeResult:
    """Oracle for `greedy_decode`: rerun the full decoder over the growing
    prefix at every step and take the argmax of its last row."""
    dims = infer_dims(params)
    batch = make_batch([source], [[]], dims)
    enc_out, src_add = _encoder_forward(params, config, dims, batch, 0.0, None, {})
    prefix = [BOS_ID]
    emitted: list[int] = []
    truncated = True
    for _ in range(config.max_target_len):
        tgt_in = np.asarray([prefix], dtype=np.int64)
        logits = _decoder_forward(params, config, enc_out, src_add, tgt_in, 0.0, None, {})
        nxt = int(np.argmax(logits[0, -1]))
        if nxt == EOS_ID:
            truncated = False
            break
        emitted.append(nxt)
        prefix.append(nxt)
    return DecodeResult(tuple(emitted), detokenize(emitted, vocab), truncated)

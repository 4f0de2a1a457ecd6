"""Bigram counting, variant construction, tokenize/detokenize."""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest

from bigphon.corpus import CorpusManifest, Utterance, augment
from bigphon.ipa import (
    PhonemeInventory,
    PhonemeSequence,
    SoundClass,
    UnknownCharacter,
    induce_inventory,
)
from bigphon.vocab import (
    SPECIALS,
    VARIANT_LABELS,
    BigramScope,
    IndexOutOfRange,
    TokenizedSequence,
    UnknownPhoneme,
    UnknownVariant,
    Vocabulary,
    build_all_variants,
    build_variant,
    count_bigrams,
    detokenize,
    parse_variant,
    read_vocab,
    tokenize,
    top_n,
    write_vocab,
)

from conftest import (SYNTH_CONSONANTS, SYNTH_VOWELS, from_words, make_toy_manifest,
                      synthetic_corpus, zipf_corpus)


def seqs(*word_lists):
    return [from_words(w) for w in word_lists]


def reference_count_bigrams(corpus, scope, inventory):
    """Per-occurrence counting with both members' classes looked up at every
    pair: the oracle for count_bigrams."""
    counts = {}
    for seq in corpus:
        for word in seq.words():
            for a, b in zip(word, word[1:]):
                if scope is BigramScope.VOWEL:
                    if (
                        inventory.class_of(a) is not SoundClass.VOWEL
                        or inventory.class_of(b) is not SoundClass.VOWEL
                    ):
                        continue
                elif scope is BigramScope.CONSONANT:
                    if (
                        inventory.class_of(a) is not SoundClass.CONSONANT
                        or inventory.class_of(b) is not SoundClass.CONSONANT
                    ):
                        continue
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


ACCEPTANCE_TEXTS = (
    "die sonne schien auf das wasser",
    "ein mann ging durch die stadt",
    "das kind spielt mit dem ball",
    "der wind weht über das land",
    "wir sehen den hellen mond",
    "als sie von dem schönen Geist und dem Bartscherer überfallen wurden",
)


def acceptance_corpora(rules, classes):
    """The synthetic 49-atom corpus, the toy training split and the
    hand-written sentences the acceptance suite trains and checks on."""
    toy = make_toy_manifest(50, seed=11, sizes=(40, 5, 5), rules=rules, classes=classes)
    utts = tuple(Utterance(f"p{i}", t) for i, t in enumerate(ACCEPTANCE_TEXTS))
    sentences = augment(CorpusManifest(utts), rules, classes)
    return {
        "synthetic": synthetic_corpus(),
        "toy": [u.phonemes for u in toy.by_split("train")],
        "sentences": [u.phonemes for u in sentences.utterances],
    }


class TestCountBigrams:
    def test_hand_enumeration(self, classes):
        corpus = seqs([["a", "l", "s"]], [["a", "l"]])
        inv = induce_inventory(corpus, classes)
        counts = count_bigrams(corpus, BigramScope.TOTAL, inv)
        assert counts == {("a", "l"): 2, ("l", "s"): 1}

    def test_vowel_scope_empty(self, classes):
        corpus = seqs([["a", "l", "s"]], [["a", "l"]])
        inv = induce_inventory(corpus, classes)
        assert count_bigrams(corpus, BigramScope.VOWEL, inv) == {}

    def test_vowel_pair(self, classes):
        corpus = seqs([["a", "ɪ"]])
        inv = induce_inventory(corpus, classes)
        assert count_bigrams(corpus, BigramScope.VOWEL, inv) == {("a", "ɪ"): 1}

    def test_consonant_scope(self, classes):
        corpus = seqs([["a", "l", "s"]])
        inv = induce_inventory(corpus, classes)
        assert count_bigrams(corpus, BigramScope.CONSONANT, inv) == {("l", "s"): 1}

    def test_no_pair_across_word_boundary(self, classes):
        corpus = seqs([["a"], ["ɪ"]])  # one sequence, two words
        inv = induce_inventory(corpus, classes)
        assert count_bigrams(corpus, BigramScope.TOTAL, inv) == {}

    def test_additive(self, classes):
        a = seqs([["a", "l", "s"]])
        b = seqs([["a", "l"]], [["l", "s", "s"]])
        inv = induce_inventory(a + b, classes)
        both = count_bigrams(a + b, BigramScope.TOTAL, inv)
        ca = count_bigrams(a, BigramScope.TOTAL, inv)
        cb = count_bigrams(b, BigramScope.TOTAL, inv)
        merged = dict(ca)
        for k, v in cb.items():
            merged[k] = merged.get(k, 0) + v
        assert both == merged


class TestOneCount:
    @pytest.mark.parametrize("scope", list(BigramScope))
    def test_matches_per_occurrence_reference(self, rules, classes, scope):
        for name, corpus in acceptance_corpora(rules, classes).items():
            inv = induce_inventory(corpus, classes)
            got = count_bigrams(corpus, scope, inv)
            want = reference_count_bigrams(corpus, scope, inv)
            assert got == want, name
            assert list(got) == list(want), name  # first-occurrence order too

    @pytest.mark.parametrize("scope", [BigramScope.VOWEL, BigramScope.CONSONANT])
    def test_unknown_symbol_fails_as_the_reference_does(self, classes, scope):
        corpus = seqs([["l", "s", "t"]], [["a", "ɪ", "a"]], [["s", "l"]])
        full = induce_inventory(corpus, classes)
        outcomes = []
        for missing in ("l", "s", "t", "a", "ɪ"):
            inv = PhonemeInventory(tuple(p for p in full.phonemes if p.symbol != missing))
            for count in (reference_count_bigrams, count_bigrams):
                try:
                    outcomes.append(count(corpus, scope, inv))
                except UnknownCharacter as exc:
                    outcomes.append(str(exc))
            assert outcomes[-1] == outcomes[-2], missing
        assert any(isinstance(o, str) for o in outcomes)

    def test_base_alone_counts_nothing(self, synthetic_inventory, monkeypatch):
        import bigphon.vocab as vocab_module

        monkeypatch.setattr(vocab_module, "count_bigrams", None)
        assert len(build_variant(synthetic_corpus(), synthetic_inventory, "base")) == 53

    def test_short_list_keeps_every_available_bigram(self, classes):
        corpus = seqs([["a", "ɪ", "l", "s"]], [["l", "s"]], [["s", "t"]])
        inv = induce_inventory(corpus, classes)
        built = build_all_variants(corpus, inv, ("base", "vowel10", "const20"))
        assert {label: v.n_bigrams for label, v in built.items()} == {
            "base": 0, "vowel10": 1, "const20": 2,
        }


class TestWordTableCount:
    """count_bigrams counts each distinct word once, weighted by its count;
    on a corpus where words repeat it must agree with the per-occurrence
    oracle in counts and in first-occurrence order."""

    @pytest.mark.parametrize("seed", [3, 29])
    @pytest.mark.parametrize("scope", list(BigramScope))
    def test_zipf_corpus_matches_per_occurrence_reference(self, classes, scope, seed):
        corpus = zipf_corpus(seed)
        words = list(chain.from_iterable(seq.words() for seq in corpus))
        assert len(corpus) >= 1000 and len(words) > 10 * len(set(words))
        first_seen = {}
        for i, seq in enumerate(corpus):
            for word in seq.words():
                for pair in zip(word, word[1:]):
                    first_seen.setdefault(pair, i)
        assert max(first_seen.values()) >= len(corpus) // 2  # some pairs first appear late
        inv = induce_inventory(corpus, classes)
        got = count_bigrams(corpus, scope, inv)
        want = reference_count_bigrams(corpus, scope, inv)
        assert got == want
        assert list(got) == list(want)


class TestTopN:
    def test_hand_sort(self):
        counts = {("a", "l"): 2, ("l", "s"): 1}
        assert top_n(counts, 1) == [("a", "l")]

    def test_zero(self):
        counts = {("a", "l"): 2}
        assert top_n(counts, 0) == []

    def test_lexicographic_tie_break(self):
        counts = {("a", "b"): 1, ("a", "a"): 1}
        assert top_n(counts, 1) == [("a", "a")]

    def test_short_list_returns_all(self):
        counts = {("a", "b"): 1}
        assert top_n(counts, 5) == [("a", "b")]

    def test_permutation_invariant(self, classes):
        corpus = seqs([["a", "l", "s"]], [["l", "s"]], [["a", "ɪ", "s"]])
        inv = induce_inventory(corpus, classes)
        t1 = top_n(count_bigrams(corpus, BigramScope.TOTAL, inv), 3)
        t2 = top_n(count_bigrams(corpus[::-1], BigramScope.TOTAL, inv), 3)
        assert t1 == t2


class TestVariants:
    def test_label_order(self):
        """Grid columns and `vocab --all` follow this order."""
        assert VARIANT_LABELS == (
            "base", "vowel10", "vowel20", "vowel30", "const10", "const20", "const30",
            "total10", "total20", "total30",
        )

    def test_parse(self):
        assert parse_variant("base") == (None, 0)
        assert parse_variant("vowel10") == (BigramScope.VOWEL, 10)
        assert parse_variant("const30") == (BigramScope.CONSONANT, 30)
        assert parse_variant("total20") == (BigramScope.TOTAL, 20)

    def test_unknown_variant(self):
        with pytest.raises(UnknownVariant):
            parse_variant("total15")

    def test_size_formula_on_synthetic_49(self, synthetic_inventory):
        corpus = synthetic_corpus()
        assert len(synthetic_inventory) == 49
        vocabs = build_all_variants(corpus, synthetic_inventory)
        assert len(vocabs["base"]) == 53
        for label in VARIANT_LABELS[1:]:
            _, n = parse_variant(label)
            assert len(vocabs[label]) == 49 + n + 4, label

    def test_units_layout(self, synthetic_inventory):
        v = build_variant(synthetic_corpus(), synthetic_inventory, "vowel10")
        assert v.units[:4] == SPECIALS
        assert v.units[4 : 4 + 49] == synthetic_inventory.symbols
        assert len(v.merged_pairs) == 10

    def test_unknown_phoneme_in_bigram(self, classes):
        corpus = seqs([["a", "l"]])
        inv = induce_inventory(corpus, classes)
        with pytest.raises(UnknownPhoneme):
            Vocabulary(inv, [("a", "z")], "vowel10")

    def test_index_bijection_stable(self, synthetic_inventory):
        v1 = build_variant(synthetic_corpus(), synthetic_inventory, "total30")
        v2 = build_variant(synthetic_corpus(), synthetic_inventory, "total30")
        assert v1.units == v2.units
        assert len(set(v1.units)) == len(v1.units)
        for i, u in enumerate(v1.units):
            assert v1.unit_id(u) == i


class TestTokenize:
    @pytest.fixture()
    def geist(self, classes):
        corpus = seqs([["g", "a", "ɪ", "s", "t"]], [["a", "ɪ"]])
        inv = induce_inventory(corpus, classes)
        return Vocabulary(inv, [("a", "ɪ")], "vowel10"), corpus

    def test_maximal_munch(self, geist):
        vocab, corpus = geist
        ts = tokenize(corpus[0], vocab)
        units = [vocab.units[i] for i in ts.ids]
        assert units == ["g", "aɪ", "s", "t"]

    def test_empty(self, geist):
        vocab, _ = geist
        assert tokenize(PhonemeSequence(), vocab) == TokenizedSequence(())

    def test_base_no_merges(self, classes):
        corpus = seqs([["a", "l", "s"]])
        inv = induce_inventory(corpus, classes)
        vocab = Vocabulary(inv, (), "base")
        ts = tokenize(corpus[0], vocab)
        assert [vocab.units[i] for i in ts.ids] == ["a", "l", "s"]

    def test_merge_never_crosses_boundary(self, geist):
        vocab, _ = geist
        seq = PhonemeSequence(("a", "ɪ"), (1,))  # "a ɪ" two words
        ts = tokenize(seq, vocab)
        assert [vocab.units[i] for i in ts.ids] == ["a", "ɪ"]
        assert ts.boundaries == (1,)

    def test_unknown_phoneme_position(self, geist):
        vocab, _ = geist
        with pytest.raises(UnknownPhoneme) as exc:
            tokenize(PhonemeSequence(("g", "z")), vocab)
        assert exc.value.position == 1

    def test_greedy_shape(self, synthetic_inventory):
        """No two adjacent atomic emissions form a vocabulary merge."""
        vocab = build_variant(synthetic_corpus(), synthetic_inventory, "total30")
        rng = np.random.default_rng(3)
        symbols = synthetic_inventory.symbols
        for _ in range(200):
            toks = tuple(symbols[i] for i in rng.integers(0, 49, size=12))
            ts = tokenize(PhonemeSequence(toks), vocab)
            units = [vocab.units[i] for i in ts.ids]
            for u1, u2 in zip(units, units[1:]):
                if u1 in vocab.merged_pairs or u2 in vocab.merged_pairs:
                    continue
                assert (u1, u2) not in vocab._pair_to_id


class TestDetokenize:
    @pytest.fixture()
    def vocab(self, classes):
        corpus = seqs([["g", "a", "ɪ", "s", "t"]])
        inv = induce_inventory(corpus, classes)
        return Vocabulary(inv, [("a", "ɪ")], "vowel10")

    def test_inverse_of_tokenize(self, vocab, classes):
        seq = PhonemeSequence(("g", "a", "ɪ", "s", "t"))
        assert detokenize(tokenize(seq, vocab), vocab) == seq

    def test_specials_stripped(self, vocab):
        assert detokenize([1, 2], vocab).tokens == ()  # BOS EOS
        a = vocab.unit_id("a")
        assert detokenize([0, a, 0], vocab).tokens == ("a",)  # PAD a PAD

    def test_merged_expands(self, vocab):
        ts = TokenizedSequence((vocab.unit_id("aɪ"),))
        assert detokenize(ts, vocab).tokens == ("a", "ɪ")

    def test_index_out_of_range(self, vocab):
        with pytest.raises(IndexOutOfRange):
            detokenize([999], vocab)
        with pytest.raises(IndexOutOfRange):
            detokenize([-1], vocab)

    def test_round_trip_with_boundaries(self, synthetic_inventory):
        vocab = build_variant(synthetic_corpus(), synthetic_inventory, "total20")
        rng = np.random.default_rng(5)
        symbols = synthetic_inventory.symbols
        for _ in range(300):
            n_words = int(rng.integers(1, 4))
            words = [
                [symbols[i] for i in rng.integers(0, 49, size=rng.integers(1, 7))]
                for _ in range(n_words)
            ]
            seq = from_words(words)
            assert detokenize(tokenize(seq, vocab), vocab) == seq


class TestVocabFile:
    def test_round_trip(self, tmp_path, synthetic_inventory):
        vocab = build_variant(synthetic_corpus(), synthetic_inventory, "const20")
        path = tmp_path / "const20.vocab"
        write_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#variant=const20 n=20 inventory=49"
        assert len(lines) == 1 + len(vocab)
        loaded = read_vocab(path, synthetic_inventory)
        assert loaded.units == vocab.units
        assert loaded.variant == "const20"

    def test_final_newline_optional(self, tmp_path, synthetic_inventory):
        vocab = build_variant(synthetic_corpus(), synthetic_inventory, "const20")
        path = tmp_path / "const20.vocab"
        write_vocab(vocab, path)
        path.write_text(path.read_text(encoding="utf-8").removesuffix("\n"), encoding="utf-8")
        assert read_vocab(path, synthetic_inventory).units == vocab.units

    def test_merged_written_with_plus(self, tmp_path, classes):
        corpus = seqs([["a", "ɪ"]])
        inv = induce_inventory(corpus, classes)
        vocab = Vocabulary(inv, [("a", "ɪ")], "vowel10")
        path = tmp_path / "v.vocab"
        write_vocab(vocab, path)
        assert "a+ɪ" in path.read_text(encoding="utf-8").splitlines()

    def test_inventory_mismatch_rejected(self, tmp_path, classes, synthetic_inventory):
        corpus = seqs([["a", "l"]])
        inv = induce_inventory(corpus, classes)
        path = tmp_path / "v.vocab"
        write_vocab(Vocabulary(inv, (), "base"), path)
        with pytest.raises(ValueError):
            read_vocab(path, synthetic_inventory)

"""Segmentation, classification, and inventory induction."""

from __future__ import annotations

import numpy as np
import pytest

from bigphon.ipa import (
    ClassificationTable,
    Phoneme,
    PhonemeSequence,
    SoundClass,
    UnknownCharacter,
    classify,
    induce_inventory,
    normalize_symbols,
    segment_ipa,
)


class TestSegmentIpa:
    def test_two_words(self, classes):
        seq = segment_ipa("als si:", classes)
        assert seq.tokens == ("a", "l", "s", "s", "i:")
        assert seq.boundaries == (3,)
        assert seq.words() == [("a", "l", "s"), ("s", "i:")]

    def test_empty(self, classes):
        assert segment_ipa("", classes) == PhonemeSequence()

    def test_tie_bar_binds_two_bases(self, classes):
        seq = segment_ipa("t͡ʃ", classes)
        assert seq.tokens == ("t͡ʃ",)

    def test_length_mark_attaches(self, classes):
        assert segment_ipa("i:", classes).tokens == ("i:",)
        # IPA length mark normalizes to ASCII colon
        assert segment_ipa("iː", classes).tokens == ("i:",)

    def test_alias_capitals(self, classes):
        assert segment_ipa("vURd@n", classes).tokens == ("v", "ʊ", "ʁ", "d", "ə", "n")
        assert segment_ipa("gaIst", classes).tokens == ("g", "a", "ɪ", "s", "t")

    def test_unknown_character_position(self, classes):
        with pytest.raises(UnknownCharacter) as exc:
            segment_ipa("al7s", classes)
        assert exc.value.char == "7"
        assert exc.value.position == 2

    def test_mark_without_base(self, classes):
        with pytest.raises(UnknownCharacter):
            segment_ipa(":al", classes)

    def test_dangling_tie_bar(self, classes):
        with pytest.raises(UnknownCharacter):
            segment_ipa("t͡", classes)

    def test_multiple_spaces_collapse(self, classes):
        seq = segment_ipa("  a   l  ", classes)
        assert seq.tokens == ("a", "l")
        assert seq.boundaries == (1,)

    def test_round_trip_exact(self, classes):
        for raw in ("als si: fo:n de:m", "t͡ʃa ʃø:nən", "a", "ʊnd de:m"):
            seq = segment_ipa(raw, classes)
            assert seq.render() == raw
            assert segment_ipa(seq.render(), classes) == seq

    def test_round_trip_random(self, classes):
        rng = np.random.default_rng(7)
        symbols = ["a", "i:", "ʃ", "t͡ʃ", "ə", "ʁ", "n", "o:", "ɛ", "k"]
        for _ in range(200):
            n_words = int(rng.integers(1, 4))
            words = [
                [symbols[i] for i in rng.integers(0, len(symbols), size=rng.integers(1, 6))]
                for _ in range(n_words)
            ]
            raw = " ".join("".join(w) for w in words)
            seq = segment_ipa(raw, classes)
            assert seq.render() == raw

    def test_all_tokens_classify(self, classes):
        seq = segment_ipa("baʁt͡ʃəʁəʁ y:bəʁfalən", classes)
        for tok in seq:
            classify(tok, classes)  # must not raise


class TestClassify:
    def test_vowel(self, classes):
        assert classify("a", classes) is SoundClass.VOWEL

    def test_consonant(self, classes):
        assert classify("ʃ", classes) is SoundClass.CONSONANT

    def test_length_mark_ignored(self, classes):
        assert classify("i:", classes) is SoundClass.VOWEL

    def test_affricate_is_consonant(self, classes):
        assert classify("t͡ʃ", classes) is SoundClass.CONSONANT

    def test_alias(self, classes):
        assert classify("U", classes) is SoundClass.VOWEL

    def test_unknown(self, classes):
        with pytest.raises(UnknownCharacter):
            classify("7", classes)


class TestPhonemeSequence:
    def test_invalid_boundary(self):
        with pytest.raises(ValueError):
            PhonemeSequence(("a", "b"), (0,))
        with pytest.raises(ValueError):
            PhonemeSequence(("a", "b"), (2,))
        with pytest.raises(ValueError):
            PhonemeSequence(("a", "b", "c"), (2, 1))

    def test_from_words_skips_empty(self):
        seq = PhonemeSequence.from_words([["a"], [], ["b", "c"]])
        assert seq.tokens == ("a", "b", "c")
        assert seq.boundaries == (1,)


class TestInventory:
    def test_hand_enumeration(self, classes):
        corpus = [
            PhonemeSequence(("a", "l", "s")),
            PhonemeSequence(("a", "l")),
        ]
        inv = induce_inventory(corpus, classes)
        assert inv.symbols == ("a", "l", "s")
        assert len(inv) == 3

    def test_singleton(self, classes):
        inv = induce_inventory([PhonemeSequence(("a",))], classes)
        assert inv.symbols == ("a",)

    def test_first_occurrence_order(self, classes):
        corpus = [PhonemeSequence(("s", "a")), PhonemeSequence(("l", "a"))]
        assert induce_inventory(corpus, classes).symbols == ("s", "a", "l")

    def test_permutation_preserves_membership(self, classes):
        corpus = [
            PhonemeSequence(("a", "l", "s")),
            PhonemeSequence(("i:", "n")),
            PhonemeSequence(("ʃ", "ə")),
        ]
        inv1 = induce_inventory(corpus, classes)
        inv2 = induce_inventory(corpus[::-1], classes)
        assert set(inv1.symbols) == set(inv2.symbols)

    def test_idempotent(self, classes):
        corpus = [PhonemeSequence(("a", "l", "s"))]
        inv1 = induce_inventory(corpus, classes)
        inv2 = induce_inventory(corpus, classes)
        assert inv1.symbols == inv2.symbols

    def test_empty_corpus_rejected(self, classes):
        with pytest.raises(ValueError):
            induce_inventory([], classes)

    def test_class_lookup(self, classes):
        inv = induce_inventory([PhonemeSequence(("a", "ʃ"))], classes)
        assert {sym: inv.class_of(sym) for sym in inv.symbols} == {
            "a": SoundClass.VOWEL, "ʃ": SoundClass.CONSONANT,
        }
        with pytest.raises(UnknownCharacter):
            inv.class_of("x")

    def test_duplicate_symbols_rejected(self, classes):
        with pytest.raises(ValueError):
            from bigphon.ipa import PhonemeInventory

            PhonemeInventory(
                (Phoneme("a", SoundClass.VOWEL), Phoneme("a", SoundClass.VOWEL))
            )


class TestClassificationTable:
    def test_from_text_and_comments(self):
        table = ClassificationTable.from_text("# comment\na\tV\nb\tC\n")
        assert table.base_class("a") is SoundClass.VOWEL
        assert table.base_class("b") is SoundClass.CONSONANT
        assert len(table) == 2

    def test_bad_line(self):
        with pytest.raises(ValueError):
            ClassificationTable.from_text("ab\tV\n")

    def test_normalize_symbols(self):
        assert normalize_symbols("vURd@n") == "vʊʁdən"
        assert normalize_symbols("SO:") == "ʃɔ:"

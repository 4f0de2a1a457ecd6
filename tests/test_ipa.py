"""Segmentation, classification, and inventory induction; the segmenter
checked against a reference that tests each character for a mark and
then for a class, and normalizes symbols one at a time."""

from __future__ import annotations

import random
import unicodedata

import numpy as np
import pytest

from bigphon.ipa import (
    LENGTH_MARK,
    SYMBOL_ALIASES,
    TIE_BARS,
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

from conftest import from_words, zipf_corpus


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
        seq = from_words([["a"], [], ["b", "c"]])
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

    def test_generator_same_as_list(self, classes):
        corpus = zipf_corpus(7)
        from_list = induce_inventory(corpus, classes)
        from_generator = induce_inventory((seq for seq in corpus), classes)
        assert from_generator.symbols == from_list.symbols
        assert from_generator == from_list

    def test_empty_generator_rejected_as_empty_list(self, classes):
        messages = []
        for empty in ([], (seq for seq in [])):
            with pytest.raises(ValueError) as exc:
                induce_inventory(empty, classes)
            messages.append(str(exc.value))
        assert messages == ["cannot induce an inventory from an empty corpus"] * 2

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

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"],
                             ids=["u2028", "u2029", "x85", "x0b", "x0c", "x1c"])
    def test_lines_break_at_newline_only(self, separator):
        """A comment holding another line separator stays one comment line, and
        a later error names its line as newlines count it."""
        text = f"# one{separator}two\na\tV\n"
        assert len(ClassificationTable.from_text(text)) == 1
        with pytest.raises(ValueError) as exc:
            ClassificationTable.from_text(text + "b\tX\n")
        assert str(exc.value) == "line 3: bad classification entry 'b\\tX'"

    def test_normalize_symbols(self):
        assert normalize_symbols("vURd@n") == "vʊʁdən"
        assert normalize_symbols("SO:") == "ʃɔ:"


def reference_segment_ipa(raw: str, table: ClassificationTable) -> PhonemeSequence:
    """Segment an IPA string into phoneme tokens.

    Marks attach to the preceding base character; a tie bar binds the next
    base into the same token. Spaces become word boundaries. Raises
    UnknownCharacter for bases absent from the table and for marks with no
    base to attach to.
    """

    def is_mark(ch: str) -> bool:
        if ch == LENGTH_MARK:
            return True
        return unicodedata.combining(ch) != 0 and ch not in TIE_BARS

    def absorb_marks(text: str, i: int) -> int:
        while i < len(text) and is_mark(text[i]):
            i += 1
        return i

    text = "".join(SYMBOL_ALIASES.get(ch, ch) for ch in raw)
    tokens: list[str] = []
    boundaries: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == " ":
            if tokens and (not boundaries or boundaries[-1] != len(tokens)):
                boundaries.append(len(tokens))
            i += 1
            continue
        if is_mark(ch) or ch in TIE_BARS:
            raise UnknownCharacter(
                ch, i, f"mark {ch!r} at position {i} has no base character"
            )
        if ch not in table:
            raise UnknownCharacter(ch, i)
        j = absorb_marks(text, i + 1)
        if j < n and text[j] in TIE_BARS:
            if j + 1 >= n or text[j + 1] == " " or is_mark(text[j + 1]):
                raise UnknownCharacter(
                    text[j], j, f"tie bar at position {j} has no following base"
                )
            if text[j + 1] not in table:
                raise UnknownCharacter(text[j + 1], j + 1)
            j = absorb_marks(text, j + 2)
        tokens.append(text[i:j])
        i = j
    if boundaries and boundaries[-1] == len(tokens):
        boundaries.pop()
    return PhonemeSequence(tuple(tokens), tuple(boundaries))


def _segment_outcome(fn, raw, table):
    try:
        return fn(raw, table)
    except UnknownCharacter as err:
        return str(err), err.char, err.position


class TestSegmenterOracle:
    # Bases, aliases, marks (both length marks, a combining tilde and a
    # combining ring below), both tie bars, a character no table has, and
    # spaces, drawn so that valid and failing strings both occur often.
    ALPHABET = ["a", "ʃ", "t", "ə", "R", "@", "S", ":", "ː", "\u0303", "\u0325",
                *TIE_BARS, "7", " ", " "]

    @pytest.mark.parametrize("extra", ["", ":", "\u0361", "\u0303"])
    def test_random_strings(self, classes, extra):
        # `extra` is a mark or a tie bar that the table classifies too.
        table = ClassificationTable({
            **{ch: classes.base_class(ch) for ch in "aʃtəʁ"},
            **({extra: SoundClass.CONSONANT} if extra else {}),
        })
        rng = random.Random(len(extra) and ord(extra))
        weights = [8, 6, 6, 4, 2, 2, 2, 2, 1, 1, 1, 2, 1, 1, 3, 1]
        failed = 0
        for _ in range(3000):
            raw = "".join(rng.choices(self.ALPHABET, weights, k=rng.randint(0, 12)))
            expected = _segment_outcome(reference_segment_ipa, raw, table)
            assert _segment_outcome(segment_ipa, raw, table) == expected, raw
            failed += not isinstance(expected, PhonemeSequence)
        assert 500 < failed < 2500

    def test_german_tokens(self, classes):
        rng = random.Random(3)
        symbols = ["a", "i:", "ʃ", "t͡ʃ", "p͡f", "ə", "ʁ", "n", "o:", "ɛ", "k", "aɪ̯", "ɔʏ̯", "ts"]
        for _ in range(500):
            raw = " ".join("".join(rng.choices(symbols, k=rng.randint(1, 5)))
                           for _ in range(rng.randint(1, 6)))
            assert segment_ipa(raw, classes) == reference_segment_ipa(raw, classes)

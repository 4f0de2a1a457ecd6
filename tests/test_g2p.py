"""Rule table parsing and transliteration; the rule matcher checked
against a reference that parses contexts as strings and keeps the longest
match found so far; and the word-cached transliteration checked against a
reference that converts every word, then segments the joined IPA."""

from __future__ import annotations

import random
import unicodedata
from importlib import resources

import pytest

from bigphon import g2p
from bigphon.g2p import (
    BOUNDARY,
    PUNCTUATION,
    RuleParseError,
    UndeclaredClass,
    UnmappableGrapheme,
    _convert_word,
    load_rule_table,
    parse_rule_table,
    transliterate,
)
from bigphon.ipa import (
    ClassificationTable,
    PhonemeSequence,
    SoundClass,
    UnknownCharacter,
    classify,
    load_default_classification,
    segment_ipa,
)

from conftest import TOY_WORDS

TOY_TABLE = """\
::alphabet = sch
s\ts
c\tk
h\th
ch\tx
sch\tʃ
"""


class TestParse:
    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "toy.rules"
        path.write_text(TOY_TABLE, encoding="utf-8")
        table = load_rule_table(path)
        assert [r.match for r in table.rules] == ["s", "c", "h", "ch", "sch"]

    def test_undeclared_class(self):
        text = "::alphabet = a\na\ta\ta\t<nope>\n"
        with pytest.raises(UndeclaredClass):
            parse_rule_table(text)

    @pytest.mark.parametrize("context, error, message", [
        ("<vow", RuleParseError, "line 3: unterminated class reference in '<vow'"),
        ("a<nope>", UndeclaredClass, "line 3: context references undeclared class 'nope'"),
    ])
    def test_context_errors_name_the_line(self, context, error, message):
        text = f"::alphabet = a\n::vow = a\na\ta\t_\t{context}\n"
        with pytest.raises(error) as exc:
            parse_rule_table(text)
        assert str(exc.value) == message and exc.value.lineno == 3

    def test_empty_file(self):
        with pytest.raises(RuleParseError):
            parse_rule_table("")

    def test_missing_fallback(self):
        with pytest.raises(RuleParseError) as exc:
            parse_rule_table("::alphabet = ab\na\ta\n")
        assert "fallback" in str(exc.value)

    @pytest.mark.parametrize("text, message", [
        ("", "rule table is empty (no fallback coverage)"),
        ("::alphabet = ab\na\ta\n", "no context-free fallback rule for 'b'"),
    ], ids=["empty", "no-fallback"])
    def test_whole_table_errors_claim_no_line(self, text, message):
        with pytest.raises(RuleParseError) as exc:
            parse_rule_table(text)
        assert str(exc.value) == message and exc.value.lineno is None

    def test_bad_field_count(self):
        with pytest.raises(RuleParseError):
            parse_rule_table("a\ta\t_\n")

    def test_comments_and_blanks_skipped(self):
        table = parse_rule_table("# a comment\n\n::alphabet = a\na\tx\n")
        assert len(table.rules) == 1

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"],
                             ids=["u2028", "u2029", "x85", "x0b", "x0c", "x1c"])
    def test_lines_break_at_newline_only(self, separator):
        """A comment holding another line separator stays one comment line, and
        a later error names its line as newlines count it."""
        text = f"# one{separator}two\n::alphabet = a\na\tx\n"
        assert len(parse_rule_table(text).rules) == 1
        with pytest.raises(RuleParseError) as exc:
            parse_rule_table(text + "b\tx\t_\n")
        assert str(exc.value) == "line 4: expected 2 or 4 tab-separated fields, got 3"
        assert exc.value.lineno == 4


class TestToyTransliterate:
    @pytest.fixture()
    def toy(self):
        return parse_rule_table(TOY_TABLE)

    def test_longest_match_beats_parts(self, toy, classes):
        assert transliterate("sch", toy, classes).tokens == ("ʃ",)

    def test_shorter_pieces(self, toy, classes):
        assert transliterate("ch", toy, classes).tokens == ("x",)
        assert transliterate("s", toy, classes).tokens == ("s",)
        # "cs" has no multigraph: falls back to singles
        assert transliterate("cs", toy, classes).tokens == ("k", "s")

    def test_no_longer_applicable_match_exists(self, toy, classes):
        # at position 0 of "schs" the winner must be the 3-char rule
        out = transliterate("schs", toy, classes)
        assert out.tokens == ("ʃ", "s")


class TestGermanTable:
    def test_reference_sentence(self, rules, classes):
        sent = "als sie von dem schönen Geist und dem Bartscherer überfallen wurden"
        expected = "als si: fo:n de:m ʃø:nən gaɪst ʊnd de:m baʁt͡ʃəʁəʁ y:bəʁfalən vʊʁdən"
        assert transliterate(sent, rules, classes).render() == expected

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("schönen", "ʃø:nən"),
            ("dem", "de:m"),
            ("wurden", "vʊʁdən"),
            ("Geist", "gaɪst"),
            ("und", "ʊnd"),
            ("sie", "si:"),
            ("von", "fo:n"),
            ("überfallen", "y:bəʁfalən"),
            ("Bartscherer", "baʁt͡ʃəʁəʁ"),
            ("ich", "ɪç"),
            ("auch", "aʊx"),
            ("euch", "ɔʏç"),
            ("heute", "hɔʏtə"),
            ("Straße", "ʃtʁa:sə"),
            ("singen", "sɪŋən"),
            ("wenig", "ve:nɪç"),
            ("der", "de:ʁ"),
            ("die", "di:"),
            ("das", "das"),
            ("den", "de:n"),
            ("des", "dɛs"),
        ],
    )
    def test_word(self, rules, classes, word, expected):
        assert transliterate(word, rules, classes).render() == expected

    def test_empty(self, rules, classes):
        assert transliterate("", rules, classes).tokens == ()

    def test_case_folding(self, rules, classes):
        assert transliterate("ALS", rules, classes) == transliterate("als", rules, classes)

    def test_punctuation_dropped(self, rules, classes):
        plain = transliterate("als sie", rules, classes)
        assert transliterate('als, "sie"!', rules, classes) == plain
        # a pure-punctuation word vanishes without leaving a boundary
        assert transliterate("als — sie", rules, classes) == plain

    def test_digit_is_hard_error(self, rules, classes):
        with pytest.raises(UnmappableGrapheme) as exc:
            transliterate("als 3 sie", rules, classes)
        assert exc.value.char == "3"

    def test_determinism(self, rules, classes):
        sent = "die Sonne schien auf das Wasser"
        assert transliterate(sent, rules, classes) == transliterate(sent, rules, classes)

    def test_monotonic_over_word_boundaries(self, rules, classes):
        a, b = "schönen geist", "und wurden"
        joined = transliterate(a + " " + b, rules, classes)
        assert joined.words() == (
            transliterate(a, rules, classes).words()
            + transliterate(b, rules, classes).words()
        )

    def test_output_alphabet_closure(self, rules, classes):
        """Every rule output segments and classifies under the bundled table."""
        for rule in rules.rules:
            if not rule.output:
                continue
            for tok in segment_ipa(rule.output, classes):
                classify(tok, classes)

    def test_rule_count_in_range(self, rules):
        assert 100 <= len(rules.rules) <= 200


def _reference_parse_context(text: str, classes: dict[str, frozenset[str]]):
    if text == "_" or text == "":
        return None
    items: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "<":
            end = text.find(">", i)
            items.append(text[i : end + 1])
            i = end + 1
        else:
            items.append(ch)
            i += 1
    return tuple(items)


def reference_rules(text: str):
    """(classes, [(match, left, right)]) in table order, contexts as item
    strings: a literal char, `<name>` or `#`. Assumes `text` parses."""
    classes: dict[str, frozenset[str]] = {}
    rules = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("::"):
            name, _, chars = line[2:].partition("=")
            classes[name.strip()] = frozenset(chars.strip())
            continue
        fields = line.split("\t")
        left = right = None
        if len(fields) == 4:
            left = _reference_parse_context(fields[2], classes)
            right = _reference_parse_context(fields[3], classes)
        rules.append((fields[0], left, right))
    return classes, rules


def _reference_left(items, word, pos, classes) -> bool:
    i = pos
    for item in reversed(items):
        if item == BOUNDARY:
            if i != 0:
                return False
        elif i == 0:
            return False
        elif item.startswith("<"):
            if word[i - 1] not in classes[item[1:-1]]:
                return False
            i -= 1
        else:
            if word[i - 1] != item:
                return False
            i -= 1
    return True


def _reference_right(items, word, pos, classes) -> bool:
    i = pos
    for item in items:
        if item == BOUNDARY:
            if i != len(word):
                return False
        elif i >= len(word):
            return False
        elif item.startswith("<"):
            if word[i] not in classes[item[1:-1]]:
                return False
            i += 1
        else:
            if word[i] != item:
                return False
            i += 1
    return True


def reference_best_match(reference, word: str, pos: int) -> int | None:
    """Table index of the longest applicable rule at `pos`, the earliest
    one on ties, found by scanning the whole table."""
    classes, rules = reference
    best = None
    for index, (match, left, right) in enumerate(rules):
        if best is not None and len(match) <= len(rules[best][0]):
            continue
        if not word.startswith(match, pos):
            continue
        if left and not _reference_left(left, word, pos, classes):
            continue
        if right and not _reference_right(right, word, pos + len(match), classes):
            continue
        best = index
    return best


def assert_matchers_agree(text: str, words) -> int:
    """best_match and the reference pick the same rule at every position
    of every word; returns the number of positions checked."""
    table = parse_rule_table(text)
    reference = reference_rules(text)
    index = {id(rule): i for i, rule in enumerate(table.rules)}
    checked = 0
    for word in words:
        for pos in range(len(word)):
            rule = table.best_match(word, pos)
            got = None if rule is None else index[id(rule)]
            assert got == reference_best_match(reference, word, pos), (word, pos)
            checked += 1
    return checked


def _bundled_text() -> str:
    return resources.files("bigphon").joinpath("data/german.rules").read_text(encoding="utf-8")


ORACLE_SENTENCES = (
    "als sie von dem schönen Geist und dem Bartscherer überfallen wurden",
    "die sonne schien auf das wasser",
    "ein mann ging durch die stadt",
    "das kind spielt mit dem ball",
    "der wind weht über das land",
    "wir sehen den hellen mond",
    "ich auch euch heute straße singen wenig der die das den des",
)


class TestMatcherOracle:
    def test_bundled_table_on_sentences_and_random_words(self, rules):
        rng = random.Random(6)
        alphabet = sorted(rules.alphabet)
        words = [w for s in ORACLE_SENTENCES for w in s.lower().split()] + TOY_WORDS
        words += ["".join(rng.choices(alphabet, k=rng.randint(1, 9))) for _ in range(3000)]
        assert assert_matchers_agree(_bundled_text(), words) > 15000

    def test_random_tables_with_every_item_kind_in_every_slot(self):
        rng = random.Random(7)
        letters = "abcd"
        items = [*letters, "<v>", "<w>", BOUNDARY]
        checked = 0
        for _ in range(200):
            lines = [f"{ch}\t{ch.upper()}" for ch in letters]
            for n in range(12):
                match = "".join(rng.choices(letters, k=rng.randint(1, 3)))
                left, right = ("".join(rng.choices(items, k=rng.randint(0, 3))) or "_"
                               for _ in range(2))
                lines.append(f"{match}\t{n}\t{left}\t{right}")
            rng.shuffle(lines)
            text = "\n".join(["::alphabet = abcd", "::v = ab", "::w = bcd", *lines]) + "\n"
            words = ["".join(rng.choices(letters, k=rng.randint(1, 6))) for _ in range(30)]
            checked += assert_matchers_agree(text, words)
        assert checked > 20000


def reference_transliterate(
    text: str, rules, table: ClassificationTable | None = None
) -> PhonemeSequence:
    """Convert German text to a phoneme sequence.

    Input is NFC-normalized and lowercased; punctuation is dropped; word
    boundaries (whitespace) are preserved. Raises UnmappableGrapheme when no
    rule applies (digits included, by design).
    """
    if table is None:
        table = load_default_classification()
    normalized = unicodedata.normalize("NFC", text).lower()
    word_ipa: list[str] = []
    offset = 0
    for raw_word in normalized.split():
        offset = normalized.index(raw_word, offset)
        word = "".join(ch for ch in raw_word if ch not in PUNCTUATION)
        if word:
            word_ipa.append(_convert_word(word, rules, raw_word, offset))
        offset += len(raw_word)
    return segment_ipa(" ".join(word_ipa), table)


def _outcome(fn, text, rules, table):
    """The sequence, or everything an error tells its reader."""
    try:
        return fn(text, rules, table)
    except (UnmappableGrapheme, UnknownCharacter) as err:
        return type(err), str(err), err.char, err.position, getattr(err, "word", None)


def assert_transliterations_agree(texts, rules, table) -> int:
    """transliterate and the reference give the same sequence or the same
    error, on a first call and on a repeat; returns how many raised."""
    errors = 0
    for text in texts:
        expected = _outcome(reference_transliterate, text, rules, table)
        assert _outcome(transliterate, text, rules, table) == expected, text
        assert _outcome(transliterate, text, rules, table) == expected, text
        errors += not isinstance(expected, PhonemeSequence)
    return errors


# Each rule output hits one edge of joining words: `c` is silent, `d` holds
# a space, `e` starts with a length mark, `f` ends with a tie bar, and `g`
# gives a character the classification table lacks.
EDGE_RULES = """\
::alphabet = abcdefgh
a\ta
b\tb
c\t
d\td a
e\t:e
f\tf\u0361
g\tʒ
h\th
"""

EDGE_CLASSES = {**dict.fromkeys("ae", SoundClass.VOWEL),
                **dict.fromkeys("bdfh", SoundClass.CONSONANT)}


def _random_sentences(rng: random.Random, letters: str, n: int) -> list[str]:
    """Sentences over a pool of 40 words, so words repeat, with punctuation
    around and inside words, capitals, runs of whitespace and rare digits."""
    pool = ["".join(rng.choices(letters, k=rng.randint(1, 7))) for _ in range(40)]
    marks = sorted(PUNCTUATION)
    sentences = []
    for _ in range(n):
        words = []
        for _ in range(rng.randint(0, 9)):
            word = rng.choice(pool)
            roll = rng.random()
            if roll < 0.1:
                word = word.capitalize()
            elif roll < 0.2:
                cut = rng.randint(0, len(word))
                word = word[:cut] + rng.choice(marks) + word[cut:]
            elif roll < 0.25:
                word = rng.choice(marks) * rng.randint(1, 3)
            elif roll < 0.27:
                word += rng.choice("37")
            words.append(word + (rng.choice(marks) if rng.random() < 0.15 else ""))
        sentences.append("".join(w + rng.choice([" ", " ", "  ", "\t"]) for w in words))
    return sentences


class TestTransliterateOracle:
    @pytest.fixture(scope="class")
    def edge(self):
        return parse_rule_table(EDGE_RULES), ClassificationTable(EDGE_CLASSES)

    def test_oracle_sentences_and_toy_rows(self, rules, classes):
        rows = [" ".join(TOY_WORDS[i : i + 5]) for i in range(0, len(TOY_WORDS), 5)]
        assert assert_transliterations_agree([*ORACLE_SENTENCES, *TOY_WORDS, *rows],
                                             rules, classes) == 0

    def test_random_german_sentences(self, rules, classes):
        rng = random.Random(9)
        sentences = _random_sentences(rng, "".join(sorted(rules.alphabet)), 2000)
        errors = assert_transliterations_agree(sentences, rules, classes)
        assert 50 < errors < 1000

    def test_random_sentences_over_edge_outputs(self, edge):
        rng = random.Random(10)
        sentences = _random_sentences(rng, "aaabbcdefh" * 3 + "g", 2000)
        errors = assert_transliterations_agree(sentences, *edge)
        assert 200 < errors < 1800

    @pytest.mark.parametrize("text", [
        "c", "c c", "a c b", "c a c  c b c",  # silent words leave no boundary
        "d", "a d b", "dd", "c d c",  # a space inside one word's output
        "e", "a e", "c e", "a c e", "ae", "a ae",  # a length mark after a space
        "f", "a f", "f a", "fa", "a fa ff",  # a tie bar before a space or the end
        "g", "a g", "a b g", "ga",  # a character the table lacks
        "e 3", "g x", "a g b 3", "f x",  # conversion errors come first
    ])
    def test_edge_outputs(self, edge, text):
        assert_transliterations_agree([text], *edge)

    @pytest.mark.parametrize("text, position", [
        ("AB-1c", 3),
        ("als AB-1c sie", 7),
        ("als 3 sie", 4),
        ("die Sonne 7 schien", 10),
        ("die, sonne! «7» schien", 13),
    ])
    def test_error_positions_in_text(self, rules, classes, text, position):
        assert assert_transliterations_agree([text], rules, classes) == 1
        with pytest.raises(UnmappableGrapheme) as exc:
            transliterate(text, rules, classes)
        assert exc.value.position == position


class TestWordCache:
    def test_each_distinct_word_converted_once(self, monkeypatch):
        rules = parse_rule_table(TOY_TABLE)
        table = ClassificationTable(dict.fromkeys("ʃxskh", SoundClass.CONSONANT))
        calls = []
        convert = g2p._convert_word
        monkeypatch.setattr(g2p, "_convert_word",
                            lambda *args: calls.append(args[0]) or convert(*args))
        first = transliterate("sch, Sch sch ch", rules, table)
        assert transliterate("ch sch", rules, table).words() == [("x",), ("ʃ",)]
        assert first.render() == "ʃ ʃ ʃ x"
        assert calls == ["sch", "sch", "ch"]  # "sch," is a chunk of its own

    def test_keyed_by_rule_table_in_either_order(self):
        text = "::alphabet = ab\na\t{}\nb\tb\n"
        table = ClassificationTable(dict.fromkeys("abh", SoundClass.VOWEL))
        for order in ((0, 1), (1, 0)):
            tables = [parse_rule_table(text.format(out)) for out in ("a", "h")]
            for i in order * 2:
                assert transliterate("ab ab", tables[i], table).render() == ["ab ab", "hb hb"][i]

    def test_keyed_by_classification_table_in_either_order(self):
        rules = parse_rule_table(TOY_TABLE)
        for order in ((0, 1), (1, 0)):
            tables = [ClassificationTable(dict.fromkeys(chars, SoundClass.CONSONANT))
                      for chars in ("ʃxskh", "ʃskh")]
            for i in order * 2:
                if i == 0:
                    assert transliterate("sch ch", rules, tables[i]).render() == "ʃ x"
                else:
                    with pytest.raises(UnknownCharacter) as exc:
                        transliterate("sch ch", rules, tables[i])
                    assert (exc.value.char, exc.value.position) == ("x", 2)

    def test_errors_are_never_cached(self, rules, classes):
        raised = []
        for _ in range(3):
            with pytest.raises(UnmappableGrapheme) as exc:
                transliterate("als AB-1c", rules, classes)
            raised.append((str(exc.value), exc.value.position))
        assert raised == [("no rule for '1' at position 7 in word 'ab1c'", 7)] * 3

    def test_text_error_is_not_chained_to_the_chunk_error(self, rules, classes):
        with pytest.raises(UnmappableGrapheme) as exc:
            transliterate("als AB-1c", rules, classes)
        assert exc.value.__context__ is None
        table = ClassificationTable(dict.fromkeys("ʃskh", SoundClass.CONSONANT))
        with pytest.raises(UnknownCharacter) as exc:
            transliterate("sch ch", parse_rule_table(TOY_TABLE), table)
        assert exc.value.__context__ is None

"""Rule table parsing and transliteration, and the rule matcher checked
against a reference that parses contexts as strings and keeps the longest
match found so far."""

from __future__ import annotations

import random
from importlib import resources

import pytest

from bigphon.g2p import (
    BOUNDARY,
    RuleParseError,
    UndeclaredClass,
    UnmappableGrapheme,
    load_rule_table,
    parse_rule_table,
    transliterate,
)
from bigphon.ipa import classify, segment_ipa

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

    def test_bad_field_count(self):
        with pytest.raises(RuleParseError):
            parse_rule_table("a\ta\t_\n")

    def test_comments_and_blanks_skipped(self):
        table = parse_rule_table("# a comment\n\n::alphabet = a\na\tx\n")
        assert len(table.rules) == 1


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

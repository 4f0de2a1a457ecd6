"""Rule-driven grapheme-to-phoneme conversion.

A rule table is an ordered list of rewrite rules over lowercased input
words. At each scan position the applicable rule with the longest match
wins; among equal-length matches the earliest rule in table order wins.
Contexts are short patterns of literal characters, declared character
classes, and the word boundary `#`, checked against the input text (never
against already-produced output). Each context reads outward from the
match, nearest item first; `#` tests the word edge without consuming a
character. Parsing resolves each literal and class to the set of characters
it accepts.

Rule file format (UTF-8, tab-separated):

    ::<name> = <chars>                    class declaration
    <match>\\t<output>\\t<left>\\t<right>    rewrite rule, `_` = empty context

The declaration `::alphabet` names the input alphabet; every character in
it must be covered by a context-free single-character fallback rule.

`transliterate` converts and segments each distinct whitespace-free chunk
of text once per process, then joins the cached words. The cache holds at
most WORD_CACHE_SIZE entries and is keyed by the chunk and by the identity
of both tables, so two tables never share an entry; errors are never
cached. Outputs and error messages and positions are those of converting
every word and segmenting the joined IPA string.
"""

from __future__ import annotations

import functools
import sys
import unicodedata
from dataclasses import dataclass
from importlib import resources

from .ipa import (
    ClassificationTable,
    PhonemeSequence,
    UnknownCharacter,
    load_default_classification,
    normalize_symbols,
    segment_ipa,
    segment_tokens,
)

# Dropped silently from input words. Digits and symbols are deliberately
# absent: an unmapped character is a hard error, not a silent skip.
PUNCTUATION = set(".,;:!?\"'()[]{}«»„“”‚‘’`´-–—…")

BOUNDARY = "#"

# Distinct (chunk, rule table, classification table) keys whose phonemes
# `transliterate` keeps; the least recently used entry is dropped first.
WORD_CACHE_SIZE = 1 << 16


class RuleParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class UndeclaredClass(ValueError):
    def __init__(self, name: str, lineno: int = 0):
        self.name = name
        self.lineno = lineno
        super().__init__(f"line {lineno}: context references undeclared class {name!r}")


class UnmappableGrapheme(ValueError):
    """No rule applies at some position of an input word."""

    def __init__(self, char: str, position: int, word: str = "", utterance_id: str | None = None):
        self.char = char
        self.position = position
        self.word = word
        self.utterance_id = utterance_id
        detail = f" in word {word!r}" if word else ""
        tag = f" (utterance {utterance_id})" if utterance_id else ""
        super().__init__(f"no rule for {char!r} at position {position}{detail}{tag}")


def _parse_context(text: str, classes: dict[str, frozenset[str]], lineno: int):
    """Context items in file order: each literal or `<class>` becomes the set
    of characters it accepts, and `#` becomes None (the word edge)."""
    items: list[frozenset[str] | None] = []
    rest = "" if text == "_" else text
    while rest:
        ch, rest = rest[0], rest[1:]
        if ch == "<":
            name, closed, rest = rest.partition(">")
            if not closed:
                raise RuleParseError(lineno, f"unterminated class reference in {text!r}")
            if name not in classes:
                raise UndeclaredClass(name, lineno)
            items.append(classes[name])
        else:
            items.append(None if ch == BOUNDARY else frozenset(ch))
    return tuple(items)


@dataclass(frozen=True)
class RewriteRule:
    """`left` is stored nearest item first, so both contexts read outward."""

    match: str
    output: str
    left: tuple[frozenset[str] | None, ...] = ()
    right: tuple[frozenset[str] | None, ...] = ()

    def __post_init__(self):
        if not self.match:
            raise ValueError("rule match must be non-empty")


def _context_holds(items, word: str, gap: int, step: int) -> bool:
    """Whether `items` read outward from the gap before `word[gap]`,
    leftward for step -1 and rightward for step +1. A None item asserts the
    word edge and consumes no character."""
    i = gap if step > 0 else gap - 1
    edge = len(word) if step > 0 else -1
    for item in items:
        if item is None:
            if i != edge:
                return False
        elif i == edge or word[i] not in item:
            return False
        else:
            i += step
    return True


class RuleTable:
    """Ordered rewrite rules, validated on build."""

    def __init__(
        self,
        rules: list[RewriteRule] | tuple[RewriteRule, ...],
        alphabet: frozenset[str] | None = None,
    ):
        self.rules = tuple(rules)
        if not self.rules:
            raise RuleParseError(0, "rule table is empty (no fallback coverage)")
        covered = frozenset(
            r.match for r in self.rules if len(r.match) == 1 and not r.left and not r.right
        )
        self.alphabet = covered if alphabet is None else frozenset(alphabet)
        missing = sorted(self.alphabet - covered)
        if missing:
            raise RuleParseError(
                0, f"no context-free fallback rule for {', '.join(map(repr, missing))}"
            )
        # Buckets by the first two characters of the match (the one, for a
        # single character), longest match first; the sort is stable, so
        # equal lengths keep table order.
        self._by_prefix: dict[str, list[RewriteRule]] = {}
        for rule in sorted(self.rules, key=lambda r: -len(r.match)):
            self._by_prefix.setdefault(rule.match[:2], []).append(rule)

    def best_match(self, word: str, pos: int) -> RewriteRule | None:
        """Longest applicable match at `pos`; table order breaks length ties.
        Matches of two or more characters all come before single ones."""
        for prefix in (word[pos : pos + 2], word[pos]):
            for rule in self._by_prefix.get(prefix, ()):
                if (
                    word.startswith(rule.match, pos)
                    and (not rule.left or _context_holds(rule.left, word, pos, -1))
                    and (not rule.right or _context_holds(rule.right, word, pos + len(rule.match), 1))
                ):
                    return rule
        return None


def parse_rule_table(text: str) -> RuleTable:
    classes: dict[str, frozenset[str]] = {}
    alphabet: frozenset[str] | None = None
    rules: list[RewriteRule] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("::"):
            body = line[2:]
            if "=" not in body:
                raise RuleParseError(lineno, f"bad class declaration {line!r}")
            name, _, chars = body.partition("=")
            name = name.strip()
            chars = chars.strip()
            if not name:
                raise RuleParseError(lineno, "class declaration without a name")
            if name == "alphabet":
                alphabet = frozenset(chars)
            else:
                classes[name] = frozenset(chars)
            continue
        fields = line.split("\t")
        if len(fields) == 2:
            match, output = fields
            left = right = ()
        elif len(fields) == 4:
            match, output, left_s, right_s = fields
            left = _parse_context(left_s, classes, lineno)[::-1]
            right = _parse_context(right_s, classes, lineno)
        else:
            raise RuleParseError(lineno, f"expected 2 or 4 tab-separated fields, got {len(fields)}")
        if not match:
            raise RuleParseError(lineno, "empty match")
        rules.append(RewriteRule(match, output, left, right))
    return RuleTable(rules, alphabet)


def load_rule_table(path) -> RuleTable:
    with open(path, encoding="utf-8") as f:
        return parse_rule_table(f.read())


@functools.cache
def load_default_rules() -> RuleTable:
    """The German rule table shipped with the package, parsed once."""
    text = resources.files("bigphon").joinpath("data/german.rules").read_text(encoding="utf-8")
    return parse_rule_table(text)


def _convert_word(word: str, rules: RuleTable, raw_word: str, offset: int) -> str:
    """Transliterate `word`, which is `raw_word` without its punctuation;
    `raw_word` starts at `offset` in the text that error positions count in."""
    out: list[str] = []
    pos = 0
    while pos < len(word):
        rule = rules.best_match(word, pos)
        if rule is None:
            kept = [i for i, ch in enumerate(raw_word, offset) if ch not in PUNCTUATION]
            raise UnmappableGrapheme(word[pos], kept[pos], word)
        out.append(rule.output)
        pos += len(rule.match)
    return "".join(out)


_DROP_PUNCTUATION = str.maketrans("", "", "".join(PUNCTUATION))


def _strip_punctuation(raw_word: str) -> str:
    return raw_word.translate(_DROP_PUNCTUATION)


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def _word_phonemes(
    raw_word: str, rules: RuleTable, table: ClassificationTable
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The tokens and word boundaries of one whitespace-free chunk of
    normalized text; the tokens are interned, so cached words share them.
    Both tables hash by identity; errors are raised, not cached."""
    word = _strip_punctuation(raw_word)
    if not word:
        return (), ()
    ipa = normalize_symbols(_convert_word(word, rules, raw_word, 0))
    tokens, boundaries = segment_tokens(ipa, table)
    return tuple(map(sys.intern, tokens)), tuple(boundaries)


def _transliterate_whole(
    normalized: str, rules: RuleTable, table: ClassificationTable
) -> PhonemeSequence:
    """Convert every word of `normalized`, then segment the joined IPA: the
    result `transliterate` assembles from cached words. It runs only when a
    chunk fails alone, to raise the text's own error. Every word is
    converted before any is segmented, so an unmappable grapheme anywhere
    comes first, and positions count in the text and in its joined IPA,
    which the cache does not keep."""
    word_ipa: list[str] = []
    offset = 0
    for raw_word in normalized.split():
        offset = normalized.index(raw_word, offset)
        word = _strip_punctuation(raw_word)
        if word:
            word_ipa.append(_convert_word(word, rules, raw_word, offset))
        offset += len(raw_word)
    return segment_ipa(" ".join(word_ipa), table)


def transliterate(
    text: str, rules: RuleTable, table: ClassificationTable | None = None
) -> PhonemeSequence:
    """Convert German text to a phoneme sequence.

    Input is NFC-normalized and lowercased; punctuation is dropped; word
    boundaries (whitespace) are preserved. Raises UnmappableGrapheme when no
    rule applies (digits included, by design). Each distinct chunk is
    converted and segmented once per process and per pair of tables.
    """
    if table is None:
        table = load_default_classification()
    normalized = unicodedata.normalize("NFC", text).lower()
    tokens: list[str] = []
    boundaries: list[int] = []
    for raw_word in normalized.split():
        try:
            word_tokens, word_boundaries = _word_phonemes(raw_word, rules, table)
        except (UnmappableGrapheme, UnknownCharacter):
            break
        if word_tokens:
            # A boundary between non-empty words, as segmenting the joined
            # IPA puts one at each space; a rule output may hold spaces too.
            if tokens:
                boundaries.append(len(tokens))
            if word_boundaries:
                boundaries.extend(len(tokens) + b for b in word_boundaries)
            tokens.extend(word_tokens)
    else:
        return PhonemeSequence(tuple(tokens), tuple(boundaries))
    # A text with a failing chunk fails as a whole; outside the handler, so
    # the chunk's own error is not chained to the text's.
    return _transliterate_whole(normalized, rules, table)

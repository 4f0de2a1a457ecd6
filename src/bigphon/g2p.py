"""Rule-driven grapheme-to-phoneme conversion.

A rule table is an ordered list of rewrite rules over lowercased input
words. At each scan position the applicable rule with the longest match
wins; among equal-length matches the earliest rule in table order wins.
Contexts are short patterns of literal characters, declared character
classes, and the word boundary `#`, checked against the input text (never
against already-produced output).

Rule file format (UTF-8, tab-separated):

    ::<name> = <chars>                    class declaration
    <match>\\t<output>\\t<left>\\t<right>    rewrite rule, `_` = empty context

The declaration `::alphabet` names the input alphabet; every character in
it must be covered by a context-free single-character fallback rule.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources

from .ipa import ClassificationTable, PhonemeSequence, load_default_classification, segment_ipa

# Dropped silently from input words. Digits and symbols are deliberately
# absent: an unmapped character is a hard error, not a silent skip.
PUNCTUATION = set(".,;:!?\"'()[]{}«»„“”‚‘’`´-–—…")

BOUNDARY = "#"


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


@dataclass(frozen=True)
class ContextPattern:
    """Sequence of context items: literal char, class ref `<name>`, or `#`."""

    items: tuple[str, ...]

    @classmethod
    def parse(cls, text: str, classes: dict[str, frozenset[str]], lineno: int = 0):
        if text == "_" or text == "":
            return None
        items: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "<":
                end = text.find(">", i)
                if end < 0:
                    raise RuleParseError(lineno, f"unterminated class reference in {text!r}")
                name = text[i + 1 : end]
                if name not in classes:
                    raise UndeclaredClass(name, lineno)
                items.append(f"<{name}>")
                i = end + 1
            else:
                items.append(ch)
                i += 1
        return cls(tuple(items))


@dataclass(frozen=True)
class RewriteRule:
    match: str
    output: str
    left: ContextPattern | None = None
    right: ContextPattern | None = None

    def __post_init__(self):
        if not self.match:
            raise ValueError("rule match must be non-empty")

    @property
    def context_free(self) -> bool:
        return self.left is None and self.right is None


def _match_context_left(pattern: ContextPattern, word: str, pos: int, classes) -> bool:
    i = pos
    for item in reversed(pattern.items):
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


def _match_context_right(pattern: ContextPattern, word: str, pos: int, classes) -> bool:
    i = pos
    for item in pattern.items:
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


class RuleTable:
    """Ordered rewrite rules plus class declarations, validated on build."""

    def __init__(
        self,
        rules: list[RewriteRule] | tuple[RewriteRule, ...],
        classes: dict[str, frozenset[str]] | None = None,
        alphabet: frozenset[str] | None = None,
    ):
        self.rules = tuple(rules)
        self.classes = {k: frozenset(v) for k, v in (classes or {}).items()}
        self.alphabet = frozenset(alphabet) if alphabet is not None else frozenset(
            ch for r in self.rules if r.context_free and len(r.match) == 1 for ch in r.match
        )
        self._validate()
        # index rules by first character of the match; scan stays table-ordered
        by_first: dict[str, list[RewriteRule]] = {}
        for rule in self.rules:
            by_first.setdefault(rule.match[0], []).append(rule)
        self._by_first = by_first

    def _validate(self):
        if not self.rules:
            raise RuleParseError(0, "rule table is empty (no fallback coverage)")
        covered = {
            r.match for r in self.rules if r.context_free and len(r.match) == 1
        }
        missing = sorted(self.alphabet - covered)
        if missing:
            raise RuleParseError(
                0, f"no context-free fallback rule for {', '.join(map(repr, missing))}"
            )

    def best_match(self, word: str, pos: int) -> RewriteRule | None:
        """Longest applicable match at `pos`; table order breaks length ties."""
        best: RewriteRule | None = None
        for rule in self._by_first.get(word[pos], ()):
            if best is not None and len(rule.match) <= len(best.match):
                continue
            if not word.startswith(rule.match, pos):
                continue
            if rule.left and not _match_context_left(rule.left, word, pos, self.classes):
                continue
            if rule.right and not _match_context_right(
                rule.right, word, pos + len(rule.match), self.classes
            ):
                continue
            best = rule
        return best


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
            left = right = None
        elif len(fields) == 4:
            match, output, left_s, right_s = fields
            left = ContextPattern.parse(left_s, classes, lineno)
            right = ContextPattern.parse(right_s, classes, lineno)
        else:
            raise RuleParseError(lineno, f"expected 2 or 4 tab-separated fields, got {len(fields)}")
        if not match:
            raise RuleParseError(lineno, "empty match")
        rules.append(RewriteRule(match, output, left, right))
    return RuleTable(rules, classes, alphabet)


def load_rule_table(path) -> RuleTable:
    with open(path, encoding="utf-8") as f:
        return parse_rule_table(f.read())


_default_rules: RuleTable | None = None


def load_default_rules() -> RuleTable:
    """The German rule table shipped with the package."""
    global _default_rules
    if _default_rules is None:
        text = resources.files("bigphon").joinpath("data/german.rules").read_text(
            encoding="utf-8"
        )
        _default_rules = parse_rule_table(text)
    return _default_rules


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


def transliterate(
    text: str, rules: RuleTable, table: ClassificationTable | None = None
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

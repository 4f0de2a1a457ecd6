"""Atomic phoneme handling: IPA segmentation, classification, inventories.

A phoneme token is one base character plus any attached marks (length
mark, combining diacritics), or two bases joined by a tie bar (affricates
such as t͡ʃ). Sequences keep word boundaries as positions rather than
tokens, so the token stream itself is purely phonemic.
"""

from __future__ import annotations

import functools
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterable, Iterator

LENGTH_MARK = ":"
TIE_BARS = ("͡", "͜")  # ͡ (top) and ͜ (bottom)

# Transcriptions typeset through TeX IPA macros surface as ASCII capitals
# in extracted text ("vURd@n" for vʊʁdən). Both spellings are accepted on
# input; the canonical form uses the IPA letter and an ASCII ":" length mark.
SYMBOL_ALIASES = {
    "ː": LENGTH_MARK,  # ː
    "@": "ə",
    "A": "ɑ",
    "E": "ɛ",
    "I": "ɪ",
    "O": "ɔ",
    "R": "ʁ",
    "S": "ʃ",
    "U": "ʊ",
    "Y": "ʏ",
}


class SoundClass(Enum):
    VOWEL = "V"
    CONSONANT = "C"


class UnknownCharacter(ValueError):
    """A base character is missing from the classification table."""

    def __init__(self, char: str, position: int, message: str | None = None):
        self.char = char
        self.position = position
        super().__init__(
            message or f"unknown character {char!r} at position {position}"
        )


_ALIAS_TRANSLATION = str.maketrans(SYMBOL_ALIASES)


def normalize_symbols(text: str) -> str:
    """Map alias spellings (TeX-style capitals, ː) to canonical symbols."""
    return text.translate(_ALIAS_TRANSLATION)


def _is_mark(ch: str) -> bool:
    # Tie bars are combining characters but join bases instead of marking one.
    if ch == LENGTH_MARK:
        return True
    return unicodedata.combining(ch) != 0 and ch not in TIE_BARS


@dataclass(frozen=True)
class Phoneme:
    symbol: str
    sound_class: SoundClass

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("phoneme symbol must be non-empty")


class ClassificationTable:
    """Maps base characters to vowel/consonant.

    File format: UTF-8, one `<char>\\t<V|C>` per line, `#` comments.
    """

    def __init__(self, mapping: dict[str, SoundClass]):
        self._mapping = dict(mapping)
        # The characters that start a token: classified, and neither a mark
        # nor a tie bar.
        self._bases = frozenset(
            ch for ch in self._mapping if not _is_mark(ch) and ch not in TIE_BARS
        )

    def __contains__(self, ch: str) -> bool:
        return ch in self._mapping

    def __len__(self) -> int:
        return len(self._mapping)

    def base_class(self, ch: str) -> SoundClass:
        try:
            return self._mapping[ch]
        except KeyError:
            raise UnknownCharacter(ch, 0) from None

    @classmethod
    def from_text(cls, text: str) -> "ClassificationTable":
        mapping: dict[str, SoundClass] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or len(parts[0]) != 1 or parts[1] not in ("V", "C"):
                raise ValueError(f"bad classification line {lineno}: {line!r}")
            mapping[parts[0]] = SoundClass(parts[1])
        return cls(mapping)

    @classmethod
    def load(cls, path) -> "ClassificationTable":
        with open(path, encoding="utf-8") as f:
            return cls.from_text(f.read())


@functools.cache
def load_default_classification() -> ClassificationTable:
    """The classification table shipped for the German transducer's output."""
    text = resources.files("bigphon").joinpath("data/german.classes").read_text(encoding="utf-8")
    return ClassificationTable.from_text(text)


@dataclass(frozen=True)
class PhonemeSequence:
    """A flat phoneme-token sequence with word boundaries as gap positions.

    ``boundaries`` holds indices g (0 < g < len(tokens)) meaning a word
    break before ``tokens[g]``. Serialized form concatenates each word's
    tokens and joins words with single spaces.
    """

    tokens: tuple[str, ...] = ()
    boundaries: tuple[int, ...] = ()

    def __post_init__(self):
        prev = 0
        for b in self.boundaries:
            if not (0 < b < len(self.tokens)) or b <= prev:
                raise ValueError(f"invalid word boundary {b}")
            prev = b

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __bool__(self) -> bool:
        return bool(self.tokens)

    def words(self) -> list[tuple[str, ...]]:
        cuts = (0, *self.boundaries, len(self.tokens))
        return [self.tokens[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]

    def render(self) -> str:
        return " ".join("".join(word) for word in self.words())

    @classmethod
    def from_words(cls, words: Iterable[Iterable[str]]) -> "PhonemeSequence":
        tokens: list[str] = []
        boundaries: list[int] = []
        for word in words:
            word = tuple(word)
            if not word:
                continue
            if tokens:
                boundaries.append(len(tokens))
            tokens.extend(word)
        return cls(tuple(tokens), tuple(boundaries))


def segment_ipa(raw: str, table: ClassificationTable) -> PhonemeSequence:
    """Segment an IPA string into phoneme tokens.

    Marks attach to the preceding base character; a tie bar binds the next
    base into the same token. Spaces become word boundaries. Raises
    UnknownCharacter for bases absent from the table and for marks with no
    base to attach to.
    """
    tokens, boundaries = segment_tokens(normalize_symbols(raw), table)
    return PhonemeSequence(tuple(tokens), tuple(boundaries))


def segment_tokens(text: str, table: ClassificationTable) -> tuple[list[str], list[int]]:
    """`segment_ipa` of `text`, whose symbols are already normalized, as a
    token list and a boundary list."""
    tokens: list[str] = []
    boundaries: list[int] = []
    bases = table._bases
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == " ":
            if tokens and (not boundaries or boundaries[-1] != len(tokens)):
                boundaries.append(len(tokens))
            i += 1
            continue
        if ch not in bases:
            if _is_mark(ch) or ch in TIE_BARS:
                raise UnknownCharacter(
                    ch, i, f"mark {ch!r} at position {i} has no base character"
                )
            raise UnknownCharacter(ch, i)
        j = i + 1
        while j < n and _is_mark(text[j]):
            j += 1
        if j < n and text[j] in TIE_BARS:
            if j + 1 >= n or text[j + 1] == " " or _is_mark(text[j + 1]):
                raise UnknownCharacter(
                    text[j], j, f"tie bar at position {j} has no following base"
                )
            if text[j + 1] not in table:
                raise UnknownCharacter(text[j + 1], j + 1)
            j += 2
            while j < n and _is_mark(text[j]):
                j += 1
        tokens.append(text[i:j])
        i = j
    if boundaries and boundaries[-1] == len(tokens):
        boundaries.pop()
    return tokens, boundaries


def classify(symbol: str, table: ClassificationTable) -> SoundClass:
    """Class of a phoneme symbol, by its (first) base character.

    Length marks and diacritics are ignored; tie-bar affricates classify by
    their first base (consonant in practice).
    """
    sym = normalize_symbols(symbol)
    if not sym:
        raise UnknownCharacter("", 0, "empty phoneme symbol")
    base = sym[0]
    if _is_mark(base) or base in TIE_BARS:
        raise UnknownCharacter(base, 0, f"symbol {symbol!r} starts with a mark")
    return table.base_class(base)


@dataclass(frozen=True)
class PhonemeInventory:
    """Ordered set of phonemes induced from a corpus."""

    phonemes: tuple[Phoneme, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for i, p in enumerate(self.phonemes):
            if p.symbol in index:
                raise ValueError(f"duplicate phoneme symbol {p.symbol!r}")
            index[p.symbol] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.phonemes)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(p.symbol for p in self.phonemes)

    def class_of(self, symbol: str) -> SoundClass:
        try:
            return self.phonemes[self._index[symbol]].sound_class
        except KeyError:
            raise UnknownCharacter(symbol, 0, f"{symbol!r} not in inventory") from None


def induce_inventory(
    corpus: Iterable[PhonemeSequence], table: ClassificationTable
) -> PhonemeInventory:
    """Collect the distinct tokens of a corpus, in first-occurrence order."""
    seen: dict[str, None] = {}
    empty = True
    for seq in corpus:
        empty = False
        for tok in seq.tokens:
            if tok not in seen:
                seen[tok] = None
    if empty:
        raise ValueError("cannot induce an inventory from an empty corpus")
    phonemes = tuple(Phoneme(sym, classify(sym, table)) for sym in seen)
    return PhonemeInventory(phonemes)

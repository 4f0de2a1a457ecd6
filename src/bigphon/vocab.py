"""Bigram counting and the ten vocabulary variants.

The base vocabulary holds the atomic phoneme inventory plus the four
specials PAD/BOS/EOS/UNK. The nine extended variants add the top 10/20/30
most frequent bigrams counted over vowel-vowel pairs, consonant-consonant
pairs, or all adjacent pairs. Bigrams never span word boundaries, and
merged units are pairs of atoms only (no iterative re-merging).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .ipa import PhonemeInventory, PhonemeSequence, SoundClass

SPECIALS = ("PAD", "BOS", "EOS", "UNK")
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3


class BigramScope(Enum):
    VOWEL = "vowel"  # both members vowels
    CONSONANT = "const"  # both members consonants
    TOTAL = "total"  # any adjacent pair


# Each variant label and its (scope, n): base, then each scope at 10/20/30.
VARIANTS = {"base": (None, 0)} | {
    f"{s.value}{n}": (s, n) for s in BigramScope for n in (10, 20, 30)
}
VARIANT_LABELS = tuple(VARIANTS)


class UnknownPhoneme(ValueError):
    def __init__(self, symbol: str, position: int | None = None):
        self.symbol = symbol
        self.position = position
        where = "" if position is None else f" at position {position}"
        super().__init__(f"phoneme {symbol!r}{where} not in vocabulary")


class UnknownVariant(ValueError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(
            f"unknown vocabulary variant {label!r}; expected one of {', '.join(VARIANT_LABELS)}"
        )


class IndexOutOfRange(ValueError):
    def __init__(self, unit_id: int):
        self.unit_id = unit_id
        super().__init__(f"unit id {unit_id} out of range")


def parse_variant(label: str) -> tuple[BigramScope | None, int]:
    """The (scope, n) of a variant label; base -> (None, 0)."""
    if label not in VARIANTS:
        raise UnknownVariant(label)
    return VARIANTS[label]


_SCOPE_CLASS = {BigramScope.VOWEL: SoundClass.VOWEL, BigramScope.CONSONANT: SoundClass.CONSONANT}


def count_bigrams(
    corpus: Iterable[PhonemeSequence],
    scope: BigramScope,
    inventory: PhonemeInventory,
) -> dict[tuple[str, str], int]:
    """Count adjacent within-word token pairs passing the scope filter."""
    counts = Counter(
        pair for seq in corpus for word in seq.words() for pair in zip(word, word[1:])
    )
    return _in_scope(counts, scope, inventory)


def _in_scope(
    counts: dict[tuple[str, str], int], scope: BigramScope, inventory: PhonemeInventory
) -> dict[tuple[str, str], int]:
    """The counted pairs whose two members are of the scope's sound class,
    looked up once per distinct pair, first member first."""
    wanted = _SCOPE_CLASS.get(scope)
    if wanted is None:
        return dict(counts)
    return {
        (a, b): n
        for (a, b), n in counts.items()
        if inventory.class_of(a) is wanted and inventory.class_of(b) is wanted
    }


def top_n(counts: dict[tuple[str, str], int], n: int) -> list[tuple[str, str]]:
    """The n most frequent bigrams, count descending, lexicographic ties;
    all of them when fewer than n exist."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [pair for pair, _ in ranked[:n]]


class Vocabulary:
    """Unit list: specials, then inventory atoms, then merged bigram units.

    Merged units are stored as the concatenation of their two atoms; the
    originating pair is kept so detokenization can expand them.
    """

    def __init__(
        self,
        inventory: PhonemeInventory,
        bigrams: Sequence[tuple[str, str]],
        variant: str,
    ):
        if variant not in VARIANT_LABELS:
            raise UnknownVariant(variant)
        self.inventory = inventory
        self.variant = variant
        self.n_bigrams = len(bigrams)
        merged_pairs: dict[str, tuple[str, str]] = {}
        units = list(SPECIALS) + list(inventory.symbols)
        taken = set(units)
        for a, b in bigrams:
            if a not in inventory or b not in inventory:
                missing = a if a not in inventory else b
                raise UnknownPhoneme(missing)
            unit = a + b
            if unit in taken:
                raise ValueError(f"merged unit {unit!r} collides with an existing unit")
            taken.add(unit)
            merged_pairs[unit] = (a, b)
            units.append(unit)
        self.units = tuple(units)
        self.merged_pairs = merged_pairs
        self._unit_to_id = {u: i for i, u in enumerate(self.units)}
        self._pair_to_id = {
            pair: self._unit_to_id[unit] for unit, pair in merged_pairs.items()
        }

    def __len__(self) -> int:
        return len(self.units)

    def unit_id(self, unit: str) -> int:
        try:
            return self._unit_to_id[unit]
        except KeyError:
            raise UnknownPhoneme(unit) from None

    def __contains__(self, unit: str) -> bool:
        return unit in self._unit_to_id


def build_all_variants(
    train_corpus: Sequence[PhonemeSequence],
    inventory: PhonemeInventory,
    labels: Sequence[str] = VARIANT_LABELS,
) -> dict[str, Vocabulary]:
    """Build the named variants from one count of the training corpus's bigrams."""
    parsed = {label: parse_variant(label) for label in labels}
    counts = {}
    if any(scope for scope, _ in parsed.values()):
        counts = count_bigrams(train_corpus, BigramScope.TOTAL, inventory)
    return {
        label: Vocabulary(
            inventory,
            top_n(_in_scope(counts, scope, inventory), n) if scope else (),
            label,
        )
        for label, (scope, n) in parsed.items()
    }


def build_variant(
    train_corpus: Sequence[PhonemeSequence],
    inventory: PhonemeInventory,
    variant: str,
) -> Vocabulary:
    """Build one named variant by counting bigrams on the training corpus."""
    return build_all_variants(train_corpus, inventory, (variant,))[variant]


@dataclass(frozen=True)
class TokenizedSequence:
    """Unit ids plus word-boundary gap positions in id space."""

    ids: tuple[int, ...]
    boundaries: tuple[int, ...] = ()


def tokenize(seq: PhonemeSequence, vocab: Vocabulary) -> TokenizedSequence:
    """Greedy left-to-right maximal munch over atoms.

    At each position the merged unit for (atom, next atom) is emitted when
    the vocabulary has one, else the atomic unit. Merges never cross word
    boundaries.
    """
    ids: list[int] = []
    boundaries: list[int] = []
    pos = 0
    for word in seq.words():
        if ids:
            boundaries.append(len(ids))
        i = 0
        while i < len(word):
            if i + 1 < len(word):
                merged = vocab._pair_to_id.get((word[i], word[i + 1]))
                if merged is not None:
                    ids.append(merged)
                    i += 2
                    pos += 2
                    continue
            if word[i] not in vocab.inventory:
                raise UnknownPhoneme(word[i], pos)
            ids.append(vocab.unit_id(word[i]))
            i += 1
            pos += 1
    return TokenizedSequence(tuple(ids), tuple(boundaries))


def detokenize(
    ids: TokenizedSequence | Sequence[int], vocab: Vocabulary
) -> PhonemeSequence:
    """Expand unit ids to a flat atomic sequence; specials are stripped."""
    if isinstance(ids, TokenizedSequence):
        id_list = ids.ids
        gaps = set(ids.boundaries)
    else:
        id_list = tuple(ids)
        gaps = set()
    n_specials = len(SPECIALS)
    tokens: list[str] = []
    boundaries: list[int] = []
    for i, raw_id in enumerate(id_list):
        try:
            unit_id = int(raw_id)
        except (TypeError, ValueError):
            raise IndexOutOfRange(raw_id) from None
        if not 0 <= unit_id < len(vocab.units):
            raise IndexOutOfRange(unit_id)
        if i in gaps and tokens and (not boundaries or boundaries[-1] != len(tokens)):
            boundaries.append(len(tokens))
        if unit_id < n_specials:
            continue
        unit = vocab.units[unit_id]
        pair = vocab.merged_pairs.get(unit)
        if pair is None:
            tokens.append(unit)
        else:
            tokens.extend(pair)
    while boundaries and boundaries[-1] >= len(tokens):
        boundaries.pop()
    return PhonemeSequence(tuple(tokens), tuple(boundaries))


def write_vocab(vocab: Vocabulary, path):
    """One unit per line after a header; merged units join atoms with `+`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(
            f"#variant={vocab.variant} n={vocab.n_bigrams} "
            f"inventory={len(vocab.inventory)}\n"
        )
        for unit in vocab.units:
            pair = vocab.merged_pairs.get(unit)
            f.write(f"{pair[0]}+{pair[1]}\n" if pair else f"{unit}\n")


def read_vocab(path, inventory: PhonemeInventory) -> Vocabulary:
    """Rebuild a vocabulary from its file, validated against an inventory."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("#variant="):
        raise ValueError(f"{path}: missing vocabulary header")
    header = dict(
        item.split("=", 1) for item in lines[0].lstrip("#").split() if "=" in item
    )
    variant = header.get("variant", "")
    units = lines[1:]
    if units[: len(SPECIALS)] != list(SPECIALS):
        raise ValueError(f"{path}: expected specials {SPECIALS} first")
    atoms: list[str] = []
    bigrams: list[tuple[str, str]] = []
    for line in units[len(SPECIALS) :]:
        if "+" in line:
            a, _, b = line.partition("+")
            bigrams.append((a, b))
        else:
            atoms.append(line)
    if tuple(atoms) != inventory.symbols:
        raise ValueError(f"{path}: atom list does not match the given inventory")
    return Vocabulary(inventory, bigrams, variant)

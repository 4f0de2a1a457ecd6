"""Corpus ingestion, length filtering, G2P augmentation, and splitting.

Manifests are UTF-8 TSV files, one utterance per line:

    id<TAB>text<TAB>phonemes<TAB>split<TAB>feature_path

Later columns may be empty or missing on input; a sixth is an error. The
phoneme column holds space-separated tokens with `|` marking word
boundaries (tokens themselves may contain `:` and tie bars, so spaces
alone cannot carry boundaries). Lines starting with `#` are
comments/provenance headers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .config import reading, write_lines
from .g2p import RuleTable, UnmappableGrapheme, transliterate
from .ipa import ClassificationTable, PhonemeSequence

SPLIT_NAMES = ("train", "valid", "test")
WORD_SEP = "|"


class ManifestParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class DuplicateId(ValueError):
    def __init__(self, utt_id: str, lineno: int = 0):
        self.utt_id = utt_id
        super().__init__(f"line {lineno}: duplicate utterance id {utt_id!r}")


class SizeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    text: str
    phonemes: PhonemeSequence | None = None
    feature_path: str | None = None

    def __post_init__(self):
        if not self.utt_id:
            raise ValueError("utterance id must be non-empty")
        if not self.text:
            raise ValueError(f"utterance {self.utt_id!r} has empty text")


@dataclass(frozen=True)
class CorpusManifest:
    utterances: tuple[Utterance, ...]
    split: dict[str, str] = field(default_factory=dict)
    seed: int | None = None
    path: str | None = field(default=None, compare=False)  # the file `ingest` read

    def __len__(self) -> int:
        return len(self.utterances)

    def by_split(self, name: str) -> tuple[Utterance, ...]:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return tuple(u for u in self.utterances if self.split.get(u.utt_id) == name)


def _encode_phonemes(seq: PhonemeSequence | None) -> str:
    if seq is None:
        return ""
    tokens = list(seq.tokens)
    for b in reversed(seq.boundaries):
        tokens.insert(b, WORD_SEP)
    return " ".join(tokens)


def _decode_phonemes(text: str, lineno: int) -> PhonemeSequence | None:
    if not text:
        return None
    parts = text.split(" ")
    if "" in parts:
        raise ManifestParseError(lineno, "empty token in phoneme column")
    # Delete each `|` in turn; the tokens before it are then parts[:k], so k is
    # its word break. Repeated, leading and trailing ones break nothing.
    cuts, k = {}, 0
    for _ in range(parts.count(WORD_SEP)):
        k = parts.index(WORD_SEP, k)
        del parts[k]
        cuts[k] = None
    cuts.pop(0, None)
    cuts.pop(len(parts), None)
    return PhonemeSequence(tuple(parts), tuple(cuts))


def ingest(path, splits=()) -> CorpusManifest:
    """Read a manifest TSV, keeping file order. Ids must be unique.

    `splits` names the splits the caller reads. When it names any, every row
    must hold phonemes and each named split must have a row. Each error
    names the file, and a row's error its line.
    """
    utterances: list[Utterance] = []
    split: dict[str, str] = {}
    seen: set[str] = set()
    with reading(path), open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) < 2:
                raise ManifestParseError(lineno, "missing text column")
            if len(cols) > 5:
                raise ManifestParseError(
                    lineno, f"expected at most 5 tab-separated columns, got {len(cols)}")
            cols += [""] * (5 - len(cols))
            utt_id, text, phon_col, split_col, feat_col = cols
            if not utt_id:
                raise ManifestParseError(lineno, "empty id")
            if utt_id in seen:
                raise DuplicateId(utt_id, lineno)
            seen.add(utt_id)
            if not text:
                raise ManifestParseError(lineno, "missing text column")
            phonemes = _decode_phonemes(phon_col, lineno)
            if splits and phonemes is None:
                raise ManifestParseError(lineno, f"utterance {utt_id!r} is not augmented")
            if splits and not phonemes:
                raise ManifestParseError(lineno, f"utterance {utt_id!r} has no phonemes: {text!r}")
            utterances.append(Utterance(utt_id, text, phonemes, feat_col or None))
            if split_col:
                if split_col not in SPLIT_NAMES:
                    raise ManifestParseError(lineno, f"unknown split {split_col!r}")
                split[utt_id] = split_col
        for name in splits:
            if name not in split.values():
                raise ValueError(f"no {name!r} split; give `bigphon augment --split` "
                                 f"a nonzero {name} count")
    return CorpusManifest(tuple(utterances), split, path=str(path))


def write_manifest(manifest: CorpusManifest, path, header_lines: list[str] | None = None):
    """Write a manifest TSV, bit-exactly re-ingestable."""
    write_lines(path, ("\t".join((utt.utt_id, utt.text, _encode_phonemes(utt.phonemes),
                                   manifest.split.get(utt.utt_id, ""), utt.feature_path or ""))
                       for utt in manifest.utterances), header=header_lines or ())


def filter_by_length(
    manifest: CorpusManifest, max_chars: int = 200
) -> tuple[CorpusManifest, int]:
    """Drop utterances whose text exceeds max_chars Unicode scalar values.

    Texts of exactly max_chars are kept. Returns (filtered manifest,
    number removed).
    """
    kept = tuple(u for u in manifest.utterances if len(u.text) <= max_chars)
    removed = len(manifest.utterances) - len(kept)
    kept_ids = {u.utt_id for u in kept}
    split = {k: v for k, v in manifest.split.items() if k in kept_ids}
    return CorpusManifest(kept, split, manifest.seed), removed


def augment(
    manifest: CorpusManifest, rules: RuleTable, table: ClassificationTable
) -> CorpusManifest:
    """Transliterate every utterance's text into its phoneme sequence;
    a text with no letters (punctuation only) is an input error."""
    out: list[Utterance] = []
    for utt in manifest.utterances:
        try:
            phonemes = transliterate(utt.text, rules, table)
        except UnmappableGrapheme as exc:
            raise UnmappableGrapheme(
                exc.char, exc.position, exc.word, utterance_id=utt.utt_id
            ) from exc
        if not phonemes:
            raise ValueError(f"utterance {utt.utt_id!r} has no phonemes: {utt.text!r}")
        out.append(Utterance(utt.utt_id, utt.text, phonemes, utt.feature_path))
    return CorpusManifest(tuple(out), dict(manifest.split), manifest.seed)


def check_split_sizes(sizes: tuple[int, int, int], n_utterances: int) -> None:
    """Split sizes must be non-negative and sum to the utterance count."""
    if min(sizes) < 0:
        raise SizeMismatch(f"negative split size in {sizes}")
    total = sum(sizes)
    if total != n_utterances:
        raise SizeMismatch(f"split sizes {sizes} sum to {total}, manifest has {n_utterances}")


def split_corpus(
    manifest: CorpusManifest, sizes: tuple[int, int, int], seed: int
) -> CorpusManifest:
    """Assign train/valid/test by seeded shuffle and contiguous cut.

    Utterance order is untouched; only the id -> split map is produced.
    Sizes must sum to the utterance count.
    """
    check_split_sizes(sizes, len(manifest.utterances))
    n_train, n_valid, _ = sizes
    ids = [u.utt_id for u in manifest.utterances]
    random.Random(seed).shuffle(ids)
    split: dict[str, str] = {}
    for utt_id in ids[:n_train]:
        split[utt_id] = "train"
    for utt_id in ids[n_train : n_train + n_valid]:
        split[utt_id] = "valid"
    for utt_id in ids[n_train + n_valid :]:
        split[utt_id] = "test"
    return CorpusManifest(manifest.utterances, split, seed)

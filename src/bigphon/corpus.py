"""Corpus ingestion, length filtering, G2P augmentation, and splitting.

Manifests are UTF-8 TSV files, one utterance per line:

    id<TAB>text<TAB>phonemes<TAB>split<TAB>feature_path

Later columns may be empty or missing on input. The phoneme column holds
space-separated tokens with `|` marking word boundaries (tokens themselves
may contain `:` and tie bars, so spaces alone cannot carry boundaries).
Lines starting with `#` are comments/provenance headers.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

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

    def __len__(self) -> int:
        return len(self.utterances)

    def by_split(self, name: str) -> tuple[Utterance, ...]:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return tuple(u for u in self.utterances if self.split.get(u.utt_id) == name)

    def split_sizes(self) -> dict[str, int]:
        sizes = {name: 0 for name in SPLIT_NAMES}
        for name in self.split.values():
            sizes[name] += 1
        return sizes


def require_augmented(utterances) -> None:
    """Raise ValueError naming the first utterance without a phoneme
    transcription; callers check every row before doing any work."""
    for utt in utterances:
        if utt.phonemes is None:
            raise ValueError(f"utterance {utt.utt_id!r} is not augmented")


def _encode_phonemes(seq: PhonemeSequence | None) -> str:
    if seq is None:
        return ""
    out: list[str] = []
    for i, word in enumerate(seq.words()):
        if i:
            out.append(WORD_SEP)
        out.extend(word)
    return " ".join(out)


def _decode_phonemes(text: str, lineno: int) -> PhonemeSequence | None:
    if not text:
        return None
    words: list[list[str]] = [[]]
    for part in text.split(" "):
        if part == WORD_SEP:
            words.append([])
        elif part:
            words[-1].append(part)
        else:
            raise ManifestParseError(lineno, "empty token in phoneme column")
    return PhonemeSequence.from_words(words)


def _utf8_lines(f, path):
    """The lines of `f`, a file opened as UTF-8 text. Invalid UTF-8 raises a
    ValueError that names `path`, the line and the first bad byte."""
    try:
        yield from f
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()  # the decoder's offset is within one chunk
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = io.StringIO(raw[: exc.start].decode("utf-8"), newline=None).read()
            raise ValueError(f"{path}: line {before.count(chr(10)) + 1}: "
                             f"invalid UTF-8 byte 0x{raw[exc.start]:02x}") from None
        raise


def ingest(path) -> CorpusManifest:
    """Read a manifest TSV, keeping file order. Ids must be unique."""
    utterances: list[Utterance] = []
    split: dict[str, str] = {}
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(_utf8_lines(f, path), start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) < 2:
                raise ManifestParseError(lineno, "missing text column")
            cols += [""] * (5 - len(cols))
            utt_id, text, phon_col, split_col, feat_col = cols[:5]
            if not utt_id:
                raise ManifestParseError(lineno, "empty id")
            if utt_id in seen:
                raise DuplicateId(utt_id, lineno)
            seen.add(utt_id)
            if not text:
                raise ManifestParseError(lineno, "missing text column")
            utterances.append(
                Utterance(
                    utt_id,
                    text,
                    phonemes=_decode_phonemes(phon_col, lineno),
                    feature_path=feat_col or None,
                )
            )
            if split_col:
                if split_col not in SPLIT_NAMES:
                    raise ManifestParseError(lineno, f"unknown split {split_col!r}")
                split[utt_id] = split_col
    return CorpusManifest(tuple(utterances), split)


def write_manifest(manifest: CorpusManifest, path, header_lines: list[str] | None = None):
    """Write a manifest TSV, bit-exactly re-ingestable."""
    with open(path, "w", encoding="utf-8") as f:
        for line in header_lines or []:
            f.write(f"# {line}\n")
        for utt in manifest.utterances:
            f.write(
                "\t".join(
                    (
                        utt.utt_id,
                        utt.text,
                        _encode_phonemes(utt.phonemes),
                        manifest.split.get(utt.utt_id, ""),
                        utt.feature_path or "",
                    )
                )
                + "\n"
            )


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
    manifest: CorpusManifest,
    rules: RuleTable,
    table: ClassificationTable | None = None,
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
        out.append(replace(utt, phonemes=phonemes))
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

"""Token-level error diagnostics: alignment, repetition/dropout/substitution
detectors, and definite-article accuracy.

Alignment is a minimal Levenshtein edit script at unit cost, replaying the
reference into the hypothesis. The edit-distance table is filled one numpy
row at a time; its arithmetic is integer, so the table is exact. Backtrace
ties break by the fixed preference Match > Substitute > Delete > Insert, so
scripts are deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .g2p import RuleTable, transliterate
from .ipa import ClassificationTable, PhonemeSequence, classify

ARTICLES = ("der", "des", "dem", "den", "die", "das")


class EditKind(Enum):
    MATCH = "match"
    SUBSTITUTE = "substitute"
    DELETE = "delete"  # reference token missing from hypothesis
    INSERT = "insert"  # hypothesis token absent from reference


@dataclass(frozen=True)
class EditOp:
    kind: EditKind
    ref_pos: int | None
    hyp_pos: int | None
    ref_token: str | None
    hyp_token: str | None


@dataclass(frozen=True)
class Alignment:
    ops: tuple[EditOp, ...]
    distance: int


def align(ref: Sequence[str], hyp: Sequence[str]) -> Alignment:
    """Minimal token-level edit script turning ref into hyp."""
    ref = tuple(ref)
    hyp = tuple(hyp)
    n, m = len(ref), len(hyp)
    ids: dict[str, int] = {}
    ref_ids = np.array([ids.setdefault(t, len(ids)) for t in ref], dtype=np.int64)
    hyp_ids = np.array([ids.setdefault(t, len(ids)) for t in hyp], dtype=np.int64)
    cost = (ref_ids[:, None] != hyp_ids[None, :]).astype(np.int64)
    cols = np.arange(m + 1, dtype=np.int64)
    table = np.empty((n + 1, m + 1), dtype=np.int64)
    table[0] = cols
    cand = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        prev = table[i - 1]
        # Substitute/match and delete need only the row above.
        np.minimum(prev[:-1] + cost[i - 1], prev[1:] + 1, out=cand[1:])
        cand[0] = i
        # Insert chain: row[j] = min over k <= j of cand[k] + (j - k).
        np.minimum.accumulate(cand - cols, out=table[i])
        table[i] += cols
    dp = table.tolist()
    ops: list[EditOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dp[i][j]
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dp[i - 1][j - 1] == here:
            ops.append(EditOp(EditKind.MATCH, i - 1, j - 1, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dp[i - 1][j - 1] + 1 == here and ref[i - 1] != hyp[j - 1]:
            ops.append(EditOp(EditKind.SUBSTITUTE, i - 1, j - 1, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i - 1][j] + 1 == here:
            ops.append(EditOp(EditKind.DELETE, i - 1, None, ref[i - 1], None))
            i -= 1
        else:
            ops.append(EditOp(EditKind.INSERT, None, j - 1, None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    return Alignment(tuple(ops), dp[n][m])


@dataclass(frozen=True)
class Repetition:
    start: int
    period: int
    copies: int
    unit: tuple[str, ...]

    @property
    def end(self) -> int:
        return self.start + self.period * self.copies


def check_repetition_bounds(min_period: int, min_copies: int) -> None:
    """A repeat is at least two copies of a non-empty unit; smaller bounds
    would never end (period 0) or call every token a repeat (one copy)."""
    if min_period < 1:
        raise ValueError("min_period must be at least 1")
    if min_copies < 2:
        raise ValueError("min_copies must be at least 2")


def detect_repetitions(
    hyp: Sequence[str], min_period: int = 3, min_copies: int = 2
) -> list[Repetition]:
    """Leftmost, non-overlapping maximal tandem repeats.

    A tandem repeat is >= min_copies consecutive copies of the same token
    span of length >= min_period. At each starting position the candidate
    covering the most tokens wins (shorter period on ties); the scan then
    resumes after it.
    """
    check_repetition_bounds(min_period, min_copies)
    hyp = tuple(hyp)
    found: list[Repetition] = []
    pos = 0
    n = len(hyp)
    while pos < n:
        best: Repetition | None = None
        max_period = (n - pos) // min_copies
        for period in range(min_period, max_period + 1):
            unit = hyp[pos : pos + period]
            copies = 1
            while hyp[pos + copies * period : pos + (copies + 1) * period] == unit:
                copies += 1
            if copies >= min_copies:
                cand = Repetition(pos, period, copies, unit)
                if best is None or cand.period * cand.copies > best.period * best.copies:
                    best = cand
        if best is None:
            pos += 1
        else:
            found.append(best)
            pos = best.end
    return found


@dataclass(frozen=True)
class Dropout:
    ref_pos: int
    token: str
    left: tuple[str, ...]
    right: tuple[str, ...]


def detect_dropouts(alignment: Alignment, ref: Sequence[str], context: int = 2) -> list[Dropout]:
    """Deleted reference tokens with +-context reference windows."""
    ref = tuple(ref)
    out = []
    for op in alignment.ops:
        if op.kind is EditKind.DELETE:
            p = op.ref_pos
            out.append(
                Dropout(p, op.ref_token, ref[max(0, p - context) : p], ref[p + 1 : p + 1 + context])
            )
    return out


@dataclass(frozen=True)
class Substitution:
    ref_pos: int
    hyp_pos: int
    ref: str
    hyp: str
    same_class: bool


def detect_substitutions(
    alignment: Alignment, table: ClassificationTable
) -> list[Substitution]:
    """Substituted tokens flagged when both sides share the sound class."""
    out = []
    for op in alignment.ops:
        if op.kind is EditKind.SUBSTITUTE:
            try:
                same = classify(op.ref_token, table) is classify(op.hyp_token, table)
            except ValueError:
                same = False
            out.append(
                Substitution(op.ref_pos, op.hyp_pos, op.ref_token, op.hyp_token, same)
            )
    return out


@dataclass
class SentenceDiagnosis:
    utt_id: str
    ref: PhonemeSequence
    hyp: tuple[str, ...]
    alignment: Alignment
    repetitions: list[Repetition]
    dropouts: list[Dropout]
    substitutions: list[Substitution]


@dataclass
class ErrorReport:
    sentences: list[SentenceDiagnosis] = field(default_factory=list)

    def totals(self) -> dict:
        return {
            "sentences": len(self.sentences),
            "repetitions": sum(len(s.repetitions) for s in self.sentences),
            "dropouts": sum(len(s.dropouts) for s in self.sentences),
            "substitutions": sum(len(s.substitutions) for s in self.sentences),
            "same_class_substitutions": sum(
                1 for s in self.sentences for sub in s.substitutions if sub.same_class
            ),
            "edit_distance": sum(s.alignment.distance for s in self.sentences),
        }

    def to_dict(self) -> dict:
        return {
            "totals": self.totals(),
            "sentences": [
                {
                    "id": s.utt_id,
                    "ref": s.ref.render(),
                    "hyp": "".join(s.hyp),
                    "distance": s.alignment.distance,
                    "repetitions": [asdict(r) for r in s.repetitions],
                    "dropouts": [asdict(d) for d in s.dropouts],
                    "substitutions": [asdict(x) for x in s.substitutions],
                }
                for s in self.sentences
            ],
        }


def diagnose_sentence(
    utt_id: str,
    ref: PhonemeSequence,
    hyp: Sequence[str],
    table: ClassificationTable,
    min_period: int = 3,
    min_copies: int = 2,
) -> SentenceDiagnosis:
    alignment = align(ref.tokens, hyp)
    return SentenceDiagnosis(
        utt_id=utt_id,
        ref=ref,
        hyp=tuple(hyp),
        alignment=alignment,
        repetitions=detect_repetitions(hyp, min_period, min_copies),
        dropouts=detect_dropouts(alignment, ref.tokens),
        substitutions=detect_substitutions(alignment, table),
    )


def render_marked(alignment: Alignment) -> str:
    """Hypothesis rendering with matching runs marked by asterisks."""
    parts: list[str] = []
    run: list[str] = []
    run_matched: bool | None = None
    for op in alignment.ops:
        if op.hyp_token is None:
            continue
        matched = op.kind is EditKind.MATCH
        if run_matched is None or matched == run_matched:
            run.append(op.hyp_token)
        else:
            parts.append(f"*{''.join(run)}*" if run_matched else "".join(run))
            run = [op.hyp_token]
        run_matched = matched
    if run:
        parts.append(f"*{''.join(run)}*" if run_matched else "".join(run))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# definite-article accuracy


@dataclass(frozen=True)
class ArticleScore:
    article: str
    form: tuple[str, ...]  # phoneme word form for the article
    occurrences: int
    hits: int

    @property
    def accuracy(self) -> float | None:
        if self.occurrences == 0:
            return None
        return self.hits / self.occurrences


@dataclass
class ArticleReport:
    scores: dict[str, ArticleScore]
    absent: tuple[str, ...]

    @property
    def average(self) -> float | None:
        """Unweighted mean over the articles that occur."""
        present = [s.accuracy for s in self.scores.values() if s.accuracy is not None]
        return sum(present) / len(present) if present else None

    @property
    def weighted_average(self) -> float | None:
        occ = sum(s.occurrences for s in self.scores.values())
        if occ == 0:
            return None
        return sum(s.hits for s in self.scores.values()) / occ

    def to_dict(self) -> dict:
        return {
            "articles": {
                name: {
                    "form": "".join(s.form),
                    "occurrences": s.occurrences,
                    "hits": s.hits,
                    "accuracy": s.accuracy,
                }
                for name, s in self.scores.items()
            },
            "absent": list(self.absent),
            "average": self.average,
            "weighted_average": self.weighted_average,
        }


def _aligned_span(
    alignment: Alignment, hyp: Sequence[str], start: int, stop: int
) -> tuple[str, ...]:
    """Hypothesis tokens covering reference positions [start, stop).

    The span runs from the first to the last hypothesis position aligned
    (matched or substituted) to the reference span, so insertions inside it
    count against an exact match; pure deletions give an empty span. Edit
    scripts are monotone in hypothesis position, so the span is a slice.
    """
    hyp_positions = [
        op.hyp_pos
        for op in alignment.ops
        if op.ref_pos is not None
        and start <= op.ref_pos < stop
        and op.hyp_pos is not None
    ]
    if not hyp_positions:
        return ()
    return tuple(hyp[hyp_positions[0] : hyp_positions[-1] + 1])


def article_forms(rules: RuleTable, table: ClassificationTable | None = None):
    return {name: transliterate(name, rules, table).tokens for name in ARTICLES}


def article_accuracy(
    refs: Sequence[PhonemeSequence],
    hyps: Sequence[Sequence[str]],
    rules: RuleTable,
    table: ClassificationTable | None = None,
) -> ArticleReport:
    """Exact-span accuracy of the six definite articles.

    Each word-delimited occurrence of an article's phoneme form in a
    reference is projected into the hypothesis through the alignment; it
    counts as a hit iff the projected span equals the form exactly.
    """
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    forms = article_forms(rules, table)
    occurrences = {name: 0 for name in ARTICLES}
    hits = {name: 0 for name in ARTICLES}
    for ref, hyp in zip(refs, hyps):
        alignment = align(ref.tokens, hyp)
        offset = 0
        for word in ref.words():
            for name in ARTICLES:
                if word == forms[name]:
                    occurrences[name] += 1
                    span = _aligned_span(alignment, hyp, offset, offset + len(word))
                    if span == forms[name]:
                        hits[name] += 1
            offset += len(word)
    scores = {
        name: ArticleScore(name, forms[name], occurrences[name], hits[name])
        for name in ARTICLES
    }
    absent = tuple(name for name in ARTICLES if occurrences[name] == 0)
    return ArticleReport(scores, absent)

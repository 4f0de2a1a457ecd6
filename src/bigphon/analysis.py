"""Token-level error diagnostics: alignment, repetition/dropout/substitution
detectors, and definite-article accuracy.

Alignment is a minimal Levenshtein edit script at unit cost, replaying the
reference into the hypothesis. The edit-distance table is computed one row
per reference token as bit-vectors of +1/-1 deltas along the hypothesis
(Myers 1999; Hyyrö 2001), so a row costs a few big-integer operations and
every cell is exact: the row's start plus a popcount of each delta vector.
Backtrace ties break by the fixed preference Match > Substitute > Delete >
Insert, so scripts are deterministic. The backtrace reads cells only on edit
steps: where ref[i-1] == hyp[j-1], D[i-1][j-1] == D[i][j] (Ukkonen 1985), so
the preferred match step is taken without one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

from .g2p import RuleTable, transliterate
from .ipa import ClassificationTable, PhonemeSequence, classify

ARTICLES = ("der", "des", "dem", "den", "die", "das")

# Reference tokens reported on each side of a dropout.
DROPOUT_CONTEXT = 2

# A repeat is at least MIN_COPIES consecutive copies of a unit of at least
# MIN_PERIOD tokens.
MIN_PERIOD, MIN_COPIES = 3, 2


class EditKind(Enum):
    MATCH = "match"
    SUBSTITUTE = "substitute"
    DELETE = "delete"  # reference token missing from hypothesis
    INSERT = "insert"  # hypothesis token absent from reference


class EditOp(NamedTuple):
    """One step of an edit script. A named tuple because the backtrace builds
    one per step: immutable and compared by value like a frozen dataclass,
    at a third of the construction cost."""

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
    eq: dict[str, int] = {}
    for j, token in enumerate(hyp):
        eq[token] = eq.get(token, 0) | 1 << j
    full = (1 << m) - 1
    # Row i as bit-vectors over the hypothesis: bit j-1 of pos (neg) is set
    # where D[i][j] - D[i][j-1] is +1 (-1). Row 0 is D[0][j] = j.
    pos, neg = full, 0
    rows = [(pos, neg)]
    for token in ref:
        match = eq.get(token, 0)
        x_row = match | neg
        x_col = (((match & pos) + pos) ^ pos) | match
        # Row-to-row deltas D[i][j] - D[i-1][j], column 0's (+1) shifted in.
        up_pos = (neg | ~(x_col | pos)) << 1 | 1
        up_neg = (pos & x_col) << 1
        pos = (up_neg | ~(x_row | up_pos)) & full
        neg = up_pos & x_row
        rows.append((pos, neg))

    def cell(i: int, j: int) -> int:
        pos, neg = rows[i]
        low = (1 << j) - 1
        return i + (pos & low).bit_count() - (neg & low).bit_count()

    distance = here = cell(n, m)
    ops: list[EditOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            if ref[i - 1] == hyp[j - 1]:  # then D[i-1][j-1] == D[i][j]
                ops.append(EditOp(EditKind.MATCH, i - 1, j - 1, ref[i - 1], hyp[j - 1]))
                i, j = i - 1, j - 1
                continue
            diag = cell(i - 1, j - 1)
            if diag + 1 == here:
                ops.append(EditOp(EditKind.SUBSTITUTE, i - 1, j - 1, ref[i - 1], hyp[j - 1]))
                i, j, here = i - 1, j - 1, diag
                continue
        if i > 0:
            up = cell(i - 1, j)
            if up + 1 == here:
                ops.append(EditOp(EditKind.DELETE, i - 1, None, ref[i - 1], None))
                i, here = i - 1, up
                continue
        ops.append(EditOp(EditKind.INSERT, None, j - 1, None, hyp[j - 1]))
        j, here = j - 1, here - 1
    ops.reverse()
    return Alignment(tuple(ops), distance)


@dataclass(frozen=True)
class Repetition:
    start: int
    period: int
    copies: int
    unit: tuple[str, ...]

    @property
    def end(self) -> int:
        return self.start + self.period * self.copies


def detect_repetitions(hyp: Sequence[str]) -> list[Repetition]:
    """Leftmost, non-overlapping maximal tandem repeats.

    A tandem repeat is >= MIN_COPIES consecutive copies of the same token
    span of length >= MIN_PERIOD. At each starting position the candidate
    covering the most tokens wins (shorter period on ties); the scan then
    resumes after it.
    """
    # Period 0 would never end and one copy would make every token a repeat.
    if MIN_PERIOD < 1:
        raise ValueError(f"min_period must be at least 1, MIN_PERIOD is {MIN_PERIOD}")
    if MIN_COPIES < 2:
        raise ValueError(f"min_copies must be at least 2, MIN_COPIES is {MIN_COPIES}")
    hyp = tuple(hyp)
    where: dict[str, list[int]] = {}  # each token's positions, ascending
    for p, token in enumerate(hyp):
        where.setdefault(token, []).append(p)
    found: list[Repetition] = []
    pos = 0
    n = len(hyp)
    while pos < n:
        best: Repetition | None = None
        max_period = (n - pos) // MIN_COPIES
        # Two copies need the unit's first token again one period on.
        at = where[hyp[pos]]
        for q in at[bisect_left(at, pos + MIN_PERIOD) :]:
            period = q - pos
            if period > max_period:
                break
            unit = hyp[pos:q]
            copies = 1
            while hyp[pos + copies * period : pos + (copies + 1) * period] == unit:
                copies += 1
            if copies >= MIN_COPIES:
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


def detect_dropouts(alignment: Alignment, ref: Sequence[str]) -> list[Dropout]:
    """Deleted reference tokens with +-DROPOUT_CONTEXT reference windows."""
    ref = tuple(ref)
    out = []
    for op in alignment.ops:
        if op.kind is EditKind.DELETE:
            p = op.ref_pos
            out.append(Dropout(p, op.ref_token, ref[max(0, p - DROPOUT_CONTEXT) : p],
                               ref[p + 1 : p + 1 + DROPOUT_CONTEXT]))
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
) -> SentenceDiagnosis:
    alignment = align(ref.tokens, hyp)
    return SentenceDiagnosis(
        utt_id=utt_id,
        ref=ref,
        hyp=tuple(hyp),
        alignment=alignment,
        repetitions=detect_repetitions(hyp),
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


def _hyp_positions(alignment: Alignment) -> list[int | None]:
    """Each reference position's aligned hypothesis position, None if deleted."""
    return [op.hyp_pos for op in alignment.ops if op.ref_pos is not None]


def _aligned_span(
    hyp_at: list[int | None], hyp: Sequence[str], start: int, stop: int
) -> tuple[str, ...]:
    """Hypothesis tokens covering reference positions [start, stop), mapped by `hyp_at`.

    The span runs from the first to the last hypothesis position aligned
    (matched or substituted) to the reference span, so insertions inside it
    count against an exact match; pure deletions give an empty span. Edit
    scripts are monotone in hypothesis position, so the span is a slice.
    """
    hyp_positions = [j for j in hyp_at[start:stop] if j is not None]
    if not hyp_positions:
        return ()
    return tuple(hyp[hyp_positions[0] : hyp_positions[-1] + 1])


def article_forms(rules: RuleTable, table: ClassificationTable):
    return {name: transliterate(name, rules, table).tokens for name in ARTICLES}


def article_accuracy(
    refs: Sequence[PhonemeSequence],
    hyps: Sequence[Sequence[str]],
    rules: RuleTable,
    table: ClassificationTable,
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
        hyp_at = _hyp_positions(align(ref.tokens, hyp))
        offset = 0
        for word in ref.words():
            for name in ARTICLES:
                if word == forms[name]:
                    occurrences[name] += 1
                    span = _aligned_span(hyp_at, hyp, offset, offset + len(word))
                    if span == forms[name]:
                        hits[name] += 1
            offset += len(word)
    scores = {
        name: ArticleScore(name, forms[name], occurrences[name], hits[name])
        for name in ARTICLES
    }
    absent = tuple(name for name in ARTICLES if occurrences[name] == 0)
    return ArticleReport(scores, absent)

"""Alignment, error detectors, and definite-article accuracy."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from bigphon import analysis
from bigphon.analysis import (
    ARTICLES,
    Alignment,
    EditKind,
    EditOp,
    ErrorReport,
    Repetition,
    _aligned_span,
    _hyp_positions,
    align,
    article_accuracy,
    detect_dropouts,
    detect_repetitions,
    detect_substitutions,
    diagnose_sentence,
    render_marked,
)
from bigphon.g2p import transliterate
from bigphon.ipa import PhonemeSequence, segment_ipa


def dp_oracle(ref, hyp):
    """Independent recursive edit-distance with memoization."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        best = go(i + 1, j + 1) + (ref[i] != hyp[j])
        best = min(best, go(i + 1, j) + 1)
        best = min(best, go(i, j + 1) + 1)
        return best

    return go(0, 0)


def reference_align(ref, hyp):
    """The cell-by-cell pure-Python fill and backtrace that `align` replaced."""
    ref = tuple(ref)
    hyp = tuple(hyp)
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = i
    for j in range(1, m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        row = dp[i]
        prev = dp[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = min(sub, dele, ins)
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


def reference_detect_repetitions(hyp, min_period=3, min_copies=2):
    """The scan that tried every period at every position, before
    `detect_repetitions` skipped periods whose second copy cannot start."""
    assert min_period >= 1 and min_copies >= 2
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


def replay(alignment, ref):
    """Apply the edit script to the reference; must reproduce the hypothesis."""
    out: list[str] = []
    consumed = 0
    for op in alignment.ops:
        if op.kind is EditKind.MATCH:
            out.append(ref[consumed])
            consumed += 1
        elif op.kind is EditKind.SUBSTITUTE:
            out.append(op.hyp_token)
            consumed += 1
        elif op.kind is EditKind.DELETE:
            consumed += 1
        else:
            out.append(op.hyp_token)
    if consumed != len(ref):
        raise ValueError("edit script does not consume the full reference")
    return out


def reference_aligned_span(alignment, start, stop):
    """Two-pass span: find the first and last hypothesis positions aligned
    to reference positions [start, stop), then collect the hypothesis token
    of every op between them."""
    hyp_positions = [
        op.hyp_pos
        for op in alignment.ops
        if op.ref_pos is not None and start <= op.ref_pos < stop and op.hyp_pos is not None
    ]
    if not hyp_positions:
        return ()
    lo, hi = min(hyp_positions), max(hyp_positions)
    return tuple(
        op.hyp_token for op in alignment.ops if op.hyp_pos is not None and lo <= op.hyp_pos <= hi
    )


class TestAlign:
    def test_edit_op_fields_equality_and_immutability(self):
        op = EditOp(EditKind.SUBSTITUTE, 2, 3, "a", "b")
        assert (op.kind, op.ref_pos, op.hyp_pos, op.ref_token, op.hyp_token) == (
            EditKind.SUBSTITUTE, 2, 3, "a", "b")
        assert op == EditOp(EditKind.SUBSTITUTE, 2, 3, "a", "b")
        assert op != EditOp(EditKind.SUBSTITUTE, 2, 3, "a", "c")
        assert hash(op) == hash(EditOp(EditKind.SUBSTITUTE, 2, 3, "a", "b"))
        with pytest.raises(AttributeError):
            op.hyp_token = "c"

    def test_identity(self):
        a = align(("a", "l", "s"), ("a", "l", "s"))
        assert a.distance == 0
        assert all(op.kind is EditKind.MATCH for op in a.ops)

    def test_single_delete(self):
        a = align(("a", "l", "s"), ("a", "s"))
        assert a.distance == 1
        kinds = [op.kind for op in a.ops]
        assert kinds.count(EditKind.DELETE) == 1
        deleted = next(op for op in a.ops if op.kind is EditKind.DELETE)
        assert deleted.ref_token == "l"

    def test_vowel_substitution_case(self, classes):
        ref = segment_ipa("vURd@n", classes).tokens
        hyp = segment_ipa("vORd@n", classes).tokens
        a = align(ref, hyp)
        assert a.distance == 1
        subs = [op for op in a.ops if op.kind is EditKind.SUBSTITUTE]
        assert len(subs) == 1
        assert (subs[0].ref_token, subs[0].hyp_token) == ("ʊ", "ɔ")

    def test_replay(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            ref = tuple(str(x) for x in rng.integers(0, 3, size=rng.integers(0, 9)))
            hyp = tuple(str(x) for x in rng.integers(0, 3, size=rng.integers(0, 9)))
            a = align(ref, hyp)
            assert tuple(replay(a, ref)) == hyp
            assert a.distance == dp_oracle(ref, hyp)

    def test_deterministic_tie_break(self):
        a1 = align(("a", "b"), ("b", "a"))
        a2 = align(("a", "b"), ("b", "a"))
        assert a1 == a2

    def test_empty_sides(self):
        assert align((), ("a", "b")).distance == 2
        assert align(("a", "b"), ()).distance == 2
        assert align((), ()).distance == 0


# Multi-character tokens, some a prefix of another ("a"/"aː", "t"/"t͡s").
ORACLE_ALPHABETS = {
    2: ("aː", "t͡s"),
    3: ("a", "aː", "t͡s"),
    38: (
        "a", "aː", "ɐ", "e", "eː", "ə", "ɛ", "ɛː", "i", "iː", "ɪ", "o", "oː", "ɔ",
        "u", "uː", "ʊ", "y", "yː", "ʏ", "ø", "øː", "aɪ̯", "aʊ̯", "ɔʏ̯", "b", "d",
        "f", "g", "k", "l", "m", "n", "ŋ", "ʁ", "s", "t", "t͡s",
    ),
}


def assert_align_matches_reference(ref, hyp):
    got = align(ref, hyp)
    assert got == reference_align(ref, hyp), (ref, hyp)
    assert type(got.distance) is int


class TestAlignOracle:
    """`align` returns the very `Alignment` of the cell-by-cell fill: every
    op's kind, positions and tokens, and the distance."""

    def test_every_three_symbol_pair_up_to_combined_length_7(self):
        alphabet = ORACLE_ALPHABETS[3]
        pools = {
            n: list(itertools.product(alphabet, repeat=n)) for n in range(8)
        }
        checked = 0
        for len_ref in range(8):
            for len_hyp in range(8 - len_ref):
                for ref in pools[len_ref]:
                    for hyp in pools[len_hyp]:
                        assert_align_matches_reference(ref, hyp)
                        checked += 1
        assert checked == sum((n + 1) * 3**n for n in range(8))

    @pytest.mark.parametrize("size", sorted(ORACLE_ALPHABETS))
    def test_seeded_random_pairs_up_to_130_tokens(self, size):
        alphabet = ORACLE_ALPHABETS[size]
        assert len(set(alphabet)) == size
        rng = np.random.default_rng(size)
        for k in range(700):
            n, m = (int(x) for x in rng.integers(0, 131, size=2))
            if k % 10 == 0:
                n = 0
            elif k % 10 == 1:
                m = 0
            ref = [alphabet[x] for x in rng.integers(0, size, size=n)]
            hyp = [alphabet[x] for x in rng.integers(0, size, size=m)]
            assert_align_matches_reference(ref, hyp)


class TestRepetitions:
    def test_simple_tandem(self):
        got = detect_repetitions(["a", "b", "c", "a", "b", "c"])
        assert len(got) == 1
        rep = got[0]
        assert (rep.start, rep.period, rep.copies) == (0, 3, 2)
        assert rep.unit == ("a", "b", "c")

    def test_too_short(self):
        assert detect_repetitions(["a", "b", "c"]) == []

    def test_table_style_loop(self, classes):
        """A 16-token phrase repeated four times, as in degenerate decodes.

        The looped phrase ends with "de:m" and the preamble also ends with
        "de:m", so the leftmost tandem region starts there (a rotation of
        the phrase); period and copy count are unaffected.
        """
        phrase = segment_ipa("bø:sən gaɪst ʊnd de:m", classes).tokens
        prefix = segment_ipa("als si: fo:n de:m", classes).tokens
        hyp = list(prefix) + list(phrase) * 4
        got = detect_repetitions(hyp)
        assert len(got) == 1
        rep = got[0]
        assert rep.period == len(phrase) == 16
        assert rep.copies == 4
        assert rep.start == len(prefix) - 3  # rotation absorbs the "de:m"
        assert sorted(rep.unit) == sorted(phrase)

    def test_unique_windows_find_nothing(self):
        hyp = [str(i) for i in range(20)]
        assert detect_repetitions(hyp) == []

    def test_short_period_ignored(self):
        assert detect_repetitions(["a", "a", "a", "a"]) == []

    def test_non_overlapping_leftmost(self):
        hyp = ["x", "y", "z"] * 2 + ["q"] + ["u", "v", "w"] * 3
        got = detect_repetitions(hyp)
        assert [(r.start, r.period, r.copies) for r in got] == [(0, 3, 2), (7, 3, 3)]

    def test_partial_trailing_copy_not_counted(self):
        hyp = ["a", "b", "c", "a", "b", "c", "a", "b"]
        got = detect_repetitions(hyp)
        assert got[0].copies == 2

    @pytest.mark.parametrize("bounds, message", [
        ((0, 2), "min_period must be at least 1"),
        ((-1, 2), "min_period must be at least 1"),
        ((3, 1), "min_copies must be at least 2"),
        ((3, 0), "min_copies must be at least 2"),
    ])
    def test_degenerate_bounds_rejected(self, monkeypatch, bounds, message):
        """Period 0 would never end and one copy would make every token a
        repeat, so bounds set in place of the constants are checked; the
        empty hypothesis shows the check runs before any scan."""
        monkeypatch.setattr(analysis, "MIN_PERIOD", bounds[0])
        monkeypatch.setattr(analysis, "MIN_COPIES", bounds[1])
        with pytest.raises(ValueError, match=message):
            detect_repetitions([])

    def test_bounds_are_not_degenerate(self):
        """The paper's bounds. Period 0 would never end and one copy would
        make every token a repeat."""
        assert (analysis.MIN_PERIOD, analysis.MIN_COPIES) == (3, 2)


REPETITION_BOUNDS = [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (5, 2), (1, 4)]


class TestRepetitionOracle:
    """`detect_repetitions` finds exactly the repeats of the unpruned scan,
    under the library's bounds and under others set in their place."""

    @pytest.fixture()
    def with_bounds(self, monkeypatch):
        def set_bounds(min_period, min_copies):
            monkeypatch.setattr(analysis, "MIN_PERIOD", min_period)
            monkeypatch.setattr(analysis, "MIN_COPIES", min_copies)
        return set_bounds

    @pytest.mark.parametrize("bounds", [(1, 2), (3, 2), (2, 3)])
    @pytest.mark.parametrize("size", [2, 3])
    def test_every_sequence_up_to_length_9(self, with_bounds, size, bounds):
        with_bounds(*bounds)
        alphabet = "abc"[:size]
        checked = 0
        for n in range(10):
            for hyp in itertools.product(alphabet, repeat=n):
                assert detect_repetitions(hyp) == reference_detect_repetitions(hyp, *bounds)
                checked += 1
        assert checked == sum(size**n for n in range(10))

    @pytest.mark.parametrize("bounds", REPETITION_BOUNDS)
    def test_seeded_hypotheses_with_spliced_repeats(self, with_bounds, bounds):
        with_bounds(*bounds)
        rng = np.random.default_rng(sum(bounds) * 10 + bounds[0])
        found = 0
        for _ in range(150):
            alphabet = [f"t{k}" for k in range(int(rng.integers(2, 20)))]
            hyp = [alphabet[x] for x in rng.integers(0, len(alphabet), int(rng.integers(0, 80)))]
            for _ in range(int(rng.integers(0, 4))):
                unit = [alphabet[x] for x in rng.integers(0, len(alphabet),
                                                          int(rng.integers(1, 13)))]
                loop = unit * int(rng.integers(2, 6)) + unit[: int(rng.integers(0, len(unit)))]
                at = int(rng.integers(0, len(hyp) + 1))
                hyp[at:at] = loop
            got = detect_repetitions(hyp)
            assert got == reference_detect_repetitions(hyp, *bounds)
            found += len(got)
        assert found > 0


class TestDropouts:
    def test_als_si_dropout(self, classes):
        # the two adjacent "s" tokens are indistinguishable; the backtrace
        # tie-break deterministically deletes the earlier one
        ref = segment_ipa("als si:", classes)
        hyp = segment_ipa("als i:", classes)
        a = align(ref.tokens, hyp.tokens)
        drops = detect_dropouts(a, ref.tokens)
        assert len(drops) == 1
        assert drops[0].token == "s"
        assert drops[0].ref_pos in (2, 3)
        context = drops[0].left + (drops[0].token,) + drops[0].right
        assert context == ("a", "l", "s", "s", "i:")

    def test_perfect_hyp(self):
        ref = ("a", "b")
        a = align(ref, ref)
        assert detect_dropouts(a, ref) == []

    def test_everything_dropped(self):
        ref = ("a", "b")
        a = align(ref, ())
        assert len(detect_dropouts(a, ref)) == 2


class TestSubstitutions:
    def test_same_class_vowel(self, classes):
        a = align(("ʊ",), ("ɔ",))
        subs = detect_substitutions(a, classes)
        assert subs[0].same_class is True

    def test_cross_class(self, classes):
        a = align(("s",), ("a",))
        subs = detect_substitutions(a, classes)
        assert subs[0].same_class is False

    def test_none(self, classes):
        a = align(("a", "b"), ("a", "b"))
        assert detect_substitutions(a, classes) == []


class TestDiagnose:
    def test_internal_consistency(self, classes):
        ref = segment_ipa("als si: fo:n de:m", classes)
        hyp = segment_ipa("als i: fo:n fo:n", classes).tokens
        diag = diagnose_sentence("u0", ref, hyp, classes)
        assert tuple(replay(diag.alignment, ref.tokens)) == tuple(hyp)
        assert len(diag.dropouts) == len(
            [op for op in diag.alignment.ops if op.kind is EditKind.DELETE]
        )
        assert len(diag.substitutions) == len(
            [op for op in diag.alignment.ops if op.kind is EditKind.SUBSTITUTE]
        )

    def test_render_marked(self):
        a = align(("a", "b", "c"), ("a", "x", "c"))
        assert render_marked(a) == "*a* x *c*"


class TestErrorReport:
    def test_to_dict_pinned(self, classes):
        """Item keys and their order are the detectors' dataclass fields."""
        ref = segment_ipa("als si: fo:n fo:n", classes)
        hyp = ("a", "r", "s", "i:", "f", "o:", "n", "f", "o:", "n")
        report = ErrorReport([diagnose_sentence("u7", ref, hyp, classes)])
        expected = {
            "totals": {
                "sentences": 1,
                "repetitions": 1,
                "dropouts": 1,
                "substitutions": 1,
                "same_class_substitutions": 1,
                "edit_distance": 2,
            },
            "sentences": [
                {
                    "id": "u7",
                    "ref": "als si: fo:n fo:n",
                    "hyp": "arsi:fo:nfo:n",
                    "distance": 2,
                    "repetitions": [
                        {"start": 4, "period": 3, "copies": 2, "unit": ["f", "o:", "n"]},
                    ],
                    "dropouts": [
                        {"ref_pos": 1, "token": "l", "left": ["a"], "right": ["s", "s"]},
                    ],
                    "substitutions": [
                        {"ref_pos": 2, "hyp_pos": 1, "ref": "s", "hyp": "r", "same_class": True},
                    ],
                },
            ],
        }
        # JSON text compares key order and list-vs-dict shape, not just values
        assert json.dumps(report.to_dict()) == json.dumps(expected)


class TestAlignedSpan:
    def test_slice_equals_two_pass_span(self):
        rng = np.random.default_rng(17)
        windows = 0
        for _ in range(3000):
            ref = tuple(str(x) for x in rng.integers(0, 4, size=rng.integers(0, 15)))
            hyp = tuple(str(x) for x in rng.integers(0, 4, size=rng.integers(0, 15)))
            a = align(ref, hyp)
            hyp_at = _hyp_positions(a)
            for start, stop in itertools.combinations(range(len(ref) + 1), 2):
                expected = reference_aligned_span(a, start, stop)
                assert _aligned_span(hyp_at, list(hyp), start, stop) == expected, (ref, hyp, start)
                windows += 1
        assert windows > 100_000


class TestArticleAccuracy:
    def test_identity_is_one(self, rules, classes):
        texts = [
            "der mann sieht den wald",
            "die frau kennt das kind",
            "des mannes hut liegt auf dem tisch",
        ]
        refs = [transliterate(t, rules, classes) for t in texts]
        hyps = [r.tokens for r in refs]
        report = article_accuracy(refs, hyps, rules, classes)
        assert report.absent == ()
        for name in ARTICLES:
            assert report.scores[name].accuracy == 1.0
        assert report.average == 1.0
        assert report.weighted_average == 1.0

    def test_dem_hit(self, rules, classes):
        ref = transliterate("und dem geist", rules, classes)
        report = article_accuracy([ref], [ref.tokens], rules, classes)
        assert report.scores["dem"].occurrences == 1
        assert report.scores["dem"].hits == 1

    def test_corrupted_span_is_miss(self, rules, classes):
        ref = transliterate("und dem geist", rules, classes)
        hyp = list(ref.tokens)
        hyp[3] = "b"  # the article's "d" (index 2 is the "d" of "und")
        assert ref.tokens[3] == "d"
        report = article_accuracy([ref], [hyp], rules, classes)
        assert report.scores["dem"].occurrences == 1
        assert report.scores["dem"].hits == 0

    def test_absent_article_excluded_from_mean(self, rules, classes):
        ref = transliterate("der mann", rules, classes)
        report = article_accuracy([ref], [ref.tokens], rules, classes)
        assert set(report.absent) == set(ARTICLES) - {"der"}
        assert report.scores["dem"].accuracy is None
        assert report.average == 1.0

    def test_deletion_of_article_is_miss(self, rules, classes):
        ref = transliterate("der mann", rules, classes)
        der = transliterate("der", rules, classes).tokens
        hyp = [t for t in ref.tokens if t not in der] or ["x"]
        report = article_accuracy([ref], [hyp], rules, classes)
        assert report.scores["der"].hits == 0

    def test_weighted_vs_unweighted(self, rules, classes):
        # "der" appears twice (one hit), "das" once (one hit)
        r1 = transliterate("der mann und der hund", rules, classes)
        h1 = list(r1.tokens)
        der = list(transliterate("der", rules, classes).tokens)
        # corrupt the second "der"
        idx = len(r1.tokens) - len(der) - len(transliterate("hund", rules, classes).tokens)
        h1[idx] = "b"
        r2 = transliterate("das kind", rules, classes)
        report = article_accuracy([r1, r2], [h1, r2.tokens], rules, classes)
        assert report.scores["der"].accuracy == 0.5
        assert report.scores["das"].accuracy == 1.0
        assert report.average == 0.75
        assert report.weighted_average == pytest.approx(2 / 3)

    def test_length_mismatch_rejected(self, rules, classes):
        with pytest.raises(ValueError):
            article_accuracy([PhonemeSequence(("a",))], [], rules, classes)

    def test_json_shape(self, rules, classes):
        ref = transliterate("der mann", rules, classes)
        d = article_accuracy([ref], [ref.tokens], rules, classes).to_dict()
        assert set(d) == {"articles", "absent", "average", "weighted_average"}
        assert set(d["articles"]) == set(ARTICLES)

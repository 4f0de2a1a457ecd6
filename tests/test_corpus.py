"""Manifest ingestion, length filter, augmentation, splitting."""

from __future__ import annotations

from collections import Counter

import pytest

from bigphon.corpus import (
    CorpusManifest,
    DuplicateId,
    ManifestParseError,
    SizeMismatch,
    Utterance,
    augment,
    filter_by_length,
    ingest,
    split_corpus,
    write_manifest,
)
from bigphon.g2p import UnmappableGrapheme
from bigphon.ipa import PhonemeSequence

from conftest import from_words


def write_tsv(tmp_path, rows, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_three_lines_in_file_order(self, tmp_path):
        path = write_tsv(tmp_path, [("b", "zwei"), ("a", "eins"), ("c", "drei")])
        m = ingest(path)
        assert [u.utt_id for u in m.utterances] == ["b", "a", "c"]
        assert m.utterances[0].phonemes is None
        assert m.split == {}

    def test_duplicate_id(self, tmp_path):
        path = write_tsv(tmp_path, [("a", "eins"), ("a", "zwei")])
        with pytest.raises(DuplicateId):
            ingest(path)

    def test_missing_text_column(self, tmp_path):
        path = (tmp_path / "bad.tsv")
        path.write_text("only_id\n", encoding="utf-8")
        with pytest.raises(ManifestParseError):
            ingest(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# seed=1\na\teins\n", encoding="utf-8")
        assert len(ingest(path)) == 1

    def test_unknown_split_rejected(self, tmp_path):
        path = write_tsv(tmp_path, [("a", "eins", "", "dev")])
        with pytest.raises(ManifestParseError):
            ingest(path)

    @pytest.mark.parametrize("lead", [0, 2000])  # 2000 rows run past one decode chunk
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, ending, lead):
        rows = [b"# header"] + [b"u%d\tsch\xc3\xb6n" % i for i in range(lead)]
        path = tmp_path / "latin1.tsv"
        path.write_bytes(ending.join(rows + [b"a\teins", b"b\tsch\xf6n", b""]))
        with pytest.raises(ValueError) as exc:
            ingest(path)
        assert str(exc.value) == f"{path}: line {lead + 3}: invalid UTF-8 byte 0xf6"

    def test_line_endings_read_alike(self, tmp_path):
        rows = ["# seed=1", "a\teins", "b\tzwei\t\ttrain"]
        expected = None
        for ending in ("\n", "\r\n", "\r"):
            path = tmp_path / "endings.tsv"
            path.write_bytes(ending.join(rows).encode("utf-8") + ending.encode())
            m = ingest(path)
            assert expected is None or m == expected
            expected = m
        assert [u.text for u in expected.utterances] == ["eins", "zwei"]
        assert expected.split == {"b": "train"}


class TestPhonemeColumn:
    """Tokens are separated by single spaces; a `|` token is a word break."""

    @pytest.mark.parametrize("column, tokens, boundaries", [
        ("a | | b", ("a", "b"), (1,)),
        ("| a", ("a",), ()),
        ("a |", ("a",), ()),
        ("|", (), ()),
        ("a|b", ("a|b",), ()),
    ], ids=["repeated-break", "leading-break", "trailing-break", "only-break", "bar-in-token"])
    def test_parsed(self, tmp_path, column, tokens, boundaries):
        path = write_tsv(tmp_path, [("u", "eins", column)])
        assert ingest(path).utterances[0].phonemes == PhonemeSequence(tokens, boundaries)

    @pytest.mark.parametrize("column", ["a  b", " a", "a "],
                             ids=["double-space", "leading-space", "trailing-space"])
    def test_empty_token_rejected(self, tmp_path, column):
        path = write_tsv(tmp_path, [("u", "eins", "a"), ("v", "zwei", column, "train")])
        with pytest.raises(ManifestParseError) as exc:
            ingest(path)
        assert str(exc.value) == f"{path}: line 2: empty token in phoneme column"
        assert exc.value.lineno == 2

    def test_multi_token_words_round_trip(self, tmp_path):
        words = [("a", "l", "s"), ("t͡s", "v", "aɪ"), ("iː",), ("d", "eː", "m")]
        seq = from_words(words)
        path = tmp_path / "m.tsv"
        write_manifest(CorpusManifest((Utterance("u", "als zwei ih dem", seq),)), path)
        column = "a l s | t͡s v aɪ | iː | d eː m"
        assert path.read_text(encoding="utf-8") == f"u\tals zwei ih dem\t{column}\t\t\n"
        assert ingest(path).utterances[0].phonemes == seq


class TestFilter:
    def test_boundary_kept(self):
        utts = tuple(
            Utterance(f"u{i}", "x" * n) for i, n in enumerate((10, 200, 201))
        )
        m, removed = filter_by_length(CorpusManifest(utts), 200)
        assert [len(u.text) for u in m.utterances] == [10, 200]
        assert removed == 1

    def test_empty(self):
        m, removed = filter_by_length(CorpusManifest(()), 200)
        assert len(m) == 0 and removed == 0

    def test_all_under_limit_identity(self):
        utts = (Utterance("a", "kurz"),)
        m, removed = filter_by_length(CorpusManifest(utts), 200)
        assert m.utterances == utts and removed == 0

    def test_idempotent(self):
        utts = tuple(Utterance(f"u{i}", "x" * n) for i, n in enumerate((5, 300)))
        once, _ = filter_by_length(CorpusManifest(utts), 200)
        twice, removed = filter_by_length(once, 200)
        assert twice.utterances == once.utterances and removed == 0


class TestAugment:
    def test_single_word(self, rules, classes):
        m = augment(CorpusManifest((Utterance("a", "als"),)), rules, classes)
        assert m.utterances[0].phonemes.tokens == ("a", "l", "s")

    def test_empty_manifest(self, rules, classes):
        assert len(augment(CorpusManifest(()), rules, classes)) == 0

    def test_error_names_utterance(self, rules, classes):
        m = CorpusManifest((Utterance("ok", "als"), Utterance("bad", "3 mal")))
        with pytest.raises(UnmappableGrapheme) as exc:
            augment(m, rules, classes)
        assert exc.value.utterance_id == "bad"
        assert "bad" in str(exc.value)

    def test_error_position_counts_stripped_punctuation(self, rules, classes):
        m = CorpusManifest((Utterance("u", "AB-1c"),))
        with pytest.raises(UnmappableGrapheme) as exc:
            augment(m, rules, classes)
        assert exc.value.position == 3  # of the NFC-lowercased text "ab-1c"
        assert exc.value.word == "ab1c"

    def test_preserves_count_and_order(self, rules, classes):
        utts = tuple(Utterance(f"u{i}", w) for i, w in enumerate(("als", "sie", "dem")))
        m = augment(CorpusManifest(utts), rules, classes)
        assert [u.utt_id for u in m.utterances] == ["u0", "u1", "u2"]


class TestSplit:
    def make(self, n):
        return CorpusManifest(tuple(Utterance(f"u{i}", f"text {i}") for i in range(n)))

    def test_partition_cardinalities(self):
        m = split_corpus(self.make(7), (4, 2, 1), seed=0)
        assert Counter(m.split.values()) == Counter(train=4, valid=2, test=1)
        assert set(m.split) == {u.utt_id for u in m.utterances}

    def test_all_train(self):
        m = split_corpus(self.make(1), (1, 0, 0), seed=0)
        assert m.split == {"u0": "train"}

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            split_corpus(self.make(3), (1, 1, 10), seed=0)

    def test_deterministic(self):
        a = split_corpus(self.make(50), (30, 10, 10), seed=9)
        b = split_corpus(self.make(50), (30, 10, 10), seed=9)
        assert a.split == b.split

    def test_seed_changes_assignment(self):
        a = split_corpus(self.make(50), (30, 10, 10), seed=1)
        b = split_corpus(self.make(50), (30, 10, 10), seed=2)
        assert a.split != b.split

    def test_order_untouched(self):
        m = self.make(10)
        out = split_corpus(m, (6, 2, 2), seed=0)
        assert out.utterances == m.utterances


class TestRoundTrip:
    def test_write_ingest_write_is_stable(self, tmp_path, rules, classes):
        utts = tuple(
            Utterance(f"u{i}", t)
            for i, t in enumerate(("als sie", "dem geist", "wurden und"))
        )
        m = augment(CorpusManifest(utts), rules, classes)
        m = split_corpus(m, (2, 1, 0), seed=4)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_manifest(m, p1)
        again = ingest(p1)
        write_manifest(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert again.split == m.split
        assert [u.phonemes for u in again.utterances] == [
            u.phonemes for u in m.utterances
        ]

    def test_feature_path_passthrough(self, tmp_path):
        utts = (Utterance("a", "eins", feature_path="feats/a.npy"),)
        path = tmp_path / "m.tsv"
        write_manifest(CorpusManifest(utts), path)
        assert ingest(path).utterances[0].feature_path == "feats/a.npy"

    def test_ingest_records_its_path_outside_equality(self, tmp_path):
        utts = (Utterance("a", "eins"),)
        path = tmp_path / "m.tsv"
        write_manifest(CorpusManifest(utts), path)
        read = ingest(path)
        assert read.path == str(path)
        assert read == CorpusManifest(utts)

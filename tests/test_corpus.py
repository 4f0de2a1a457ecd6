"""Manifest ingestion, length filter, augmentation, splitting."""

from __future__ import annotations

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
        sizes = m.split_sizes()
        assert (sizes["train"], sizes["valid"], sizes["test"]) == (4, 2, 1)
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

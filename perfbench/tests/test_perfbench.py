"""Self-tests of the benchmark: generator, span arithmetic, checks, counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import corpus_gen, probe, run, tracing, workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert corpus_gen.generate_rows(5, 300, 3) == corpus_gen.generate_rows(5, 300, 3)
    assert corpus_gen.generate_rows(5, 300, 3) != corpus_gen.generate_rows(6, 300, 3)


def test_generator_matches_paper_lengths_and_coverage():
    rows = corpus_gen.generate_rows(1, 2000, 7)
    lengths = [len(text) for _, text in rows]
    assert sum(n > corpus_gen.MAX_CHARS for n in lengths) == 7
    kept = [n for n in lengths if n <= corpus_gen.MAX_CHARS]
    assert len(kept) == 2000
    assert 110 <= statistics.mean(kept) <= 124
    words = {w.strip(",.").lower() for _, text in rows for w in text.split()}
    assert set(corpus_gen.ARTICLES) <= words
    text = " ".join(t for _, t in rows).lower()
    for needle in ("ä", "ö", "ü", "ß", "ei", "au", "eu", "äu", "theater", "museum"):
        assert needle in text


def test_train_split_by_length_rank():
    manifest = workloads._train_manifest(2)
    train, valid = manifest.by_split("train"), manifest.by_split("valid")
    assert (len(train), len(valid)) == workloads.TRAIN_SPLIT[:2]
    assert max(len(u.text) for u in manifest.utterances) == max(len(u.text) for u in train)


def test_probe_scaling_keeps_program_time_linear():
    ref = probe.REFERENCE_S
    assert probe.scale(3.0, ref) == pytest.approx(3.0)
    assert probe.scale(3.0, 2 * ref) < 3.0 < probe.scale(3.0, ref / 2)
    # At any host speed, twice the program time reads twice as long.
    assert probe.scale(6.0, 1.7 * ref) == pytest.approx(2 * probe.scale(3.0, 1.7 * ref))
    assert probe.measure() > 0


def _span_tree():
    return [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the children cover [1, 6]
        ["c", 2.0, 3.0, 1],
        ["root2", 12.0, 13.0, -1],
    ]


def test_self_time_arithmetic():
    assert tracing.self_times(_span_tree()) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])
    assert tracing.root_covered(_span_tree()) == pytest.approx(11.0)
    assert tracing.covered([(0, 2), (1, 3), (5, 9)], 1.0, 6.0) == pytest.approx(3.0)


def test_layer_metrics_sum_self_time_and_unattributed():
    spans = [
        ["g2p.transliterate", 0.0, 2.0, -1],
        ["ipa.segment_ipa", 0.5, 1.0, 0],
        ["model.greedy_decode", 3.0, 4.0, -1],
        ["model.greedy_decode", 4.0, 7.0, -1],
    ]
    trace = {"spans": spans, "counts": {"analysis.align_calls": 4,
                                        "analysis.diagnose_sentence_calls": 2}}
    layers = tracing.layer_metrics([(10.0, trace)])
    assert layers["g2p.transliterate_s"] == pytest.approx(1.5)
    assert layers["ipa.segment_ipa_s"] == pytest.approx(0.5)
    assert layers["model.greedy_decode_s"] == pytest.approx(4.0)
    assert layers["model.greedy_decode_p90_s"] == pytest.approx(2.8)
    assert layers["analysis.align_per_sentence"] == 2.0
    assert layers["cli.unattributed_s"] == pytest.approx(4.0)


def test_declared_metrics_are_the_reported_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    walls = {"augment": 1.0, "vocab": 1.0, "score": 1.0, "train": 1.0,
             "evaluate": 1.0, "errors": 1.0}
    meta = {"rows": 1, "pairs": 1, "target_tokens": 1}
    figures = [set(w.figures(walls, meta)) for w in workloads.WORKLOADS.values()]
    assert set().union(*figures) == set(workloads.FIGURE_UNITS)
    assert [m["name"] for m in declared["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    layers = set(tracing.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in declared["per_layer"]} == layers


def _reference(workload: str) -> dict:
    data = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    table = data["workloads"][workload]
    assert sorted(map(int, table)) == list(range(workloads.N_VARIANTS))
    return table["0"]


def test_check_fails_on_corrupted_values():
    for name in workloads.WORKLOADS:
        reference = _reference(name)
        assert workloads.mismatches(dict(reference), reference) == []
        for key in reference:
            corrupted = dict(reference)
            corrupted[key] = corrupted[key] + 1 if not isinstance(corrupted[key], bool) else None
            assert workloads.mismatches(corrupted, reference), key
        missing = dict(reference)
        missing.pop(next(iter(reference)))
        assert workloads.mismatches(missing, reference)


def test_loss_tolerance_allows_reassociation_only():
    reference = _reference("train")
    loss = reference["train.final_valid_loss"]
    nudged = dict(reference, **{"train.final_valid_loss": loss * (1 + 1e-12)})
    assert workloads.mismatches(nudged, reference) == []
    off = dict(reference, **{"train.final_valid_loss": loss * (1 + 1e-4)})
    assert workloads.mismatches(off, reference)


def test_check_fails_on_corrupted_report(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "epoch0001.ckpt").write_bytes(b"")
    reference = _reference("train")
    good = reference["train.final_train_loss"], reference["train.final_valid_loss"]
    for train_loss, valid_loss, ok in ((*good, True), (good[0], good[1] + 0.5, False)):
        (run_dir / "trace.csv").write_text(
            f"# seed=0\nepoch,train_loss,valid_loss\n1,{train_loss!r},{valid_loss!r}\n",
            encoding="utf-8",
        )
        seen = workloads.WORKLOADS["train"].observe(tmp_path, {})
        assert (workloads.mismatches(seen, reference) == []) is ok


def _traced(argv, spans, env):
    cmd = [sys.executable, "-m", "perfbench.launch", "--trace", str(spans), "t", *argv]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    return json.loads(spans.read_text(encoding="utf-8"))


def test_counts_repeat_exactly_across_runs(tmp_path):
    from bigphon.corpus import write_manifest
    from bigphon.vocab import build_variant, write_vocab

    manifest = workloads._augmented(3, 40, (24, 8, 8))
    write_manifest(manifest, tmp_path / "corpus.tsv")
    inventory, train_seqs = workloads._inventory_and_train(manifest)
    write_vocab(build_variant(train_seqs, inventory, "total10"), tmp_path / "total10.vocab")
    env = run.child_env()
    tiny = ["--d-model", "16", "--heads", "2", "--d-ff", "32", "--encoder-layers", "1",
            "--decoder-layers", "1", "--epochs", "2", "--ckpt-interval", "1",
            "--batch-size", "8", "--max-target-len", "24", "--seed", "1"]
    layers = []
    for rep in range(2):
        out = tmp_path / f"rep{rep}"
        common = ["--manifest", str(tmp_path / "corpus.tsv")]
        train = _traced(["cli", "train", *common, "--vocab", str(tmp_path / "total10.vocab"),
                         "--outdir", str(out / "run"), *tiny], out.with_suffix(".t.json"), env)
        errors = _traced(["cli", "errors", *common, "--ckpt", str(out / "run" / "epoch0002.ckpt"),
                          "--out", str(out / "diag")], out.with_suffix(".e.json"), env)
        layers.append(tracing.layer_metrics([(1.0, train), (1.0, errors)]))
    counted = ("model.decode_steps", "model.tgt_pad_frac", "analysis.align_calls",
               "training.checkpoint_bytes", "model.steps", "model.target_tokens",
               "model.greedy_decode_calls", "g2p.transliterate_calls")
    for key in counted:
        assert layers[0][key] == layers[1][key], key
    assert layers[0]["model.steps"] == 2 * 3
    assert layers[0]["model.greedy_decode_calls"] == 8
    assert layers[0]["analysis.align_per_sentence"] == 2.0
    assert layers[0]["training.checkpoint_bytes"] > 0
    assert 0 < layers[0]["model.tgt_pad_frac"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

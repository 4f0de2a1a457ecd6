"""The three workloads: their inputs, their commands and their output checks.

Each workload turns the benchmark seed into an input variant
(`seed % N_VARIANTS`); references for every variant are recorded in
`references.json`, so every run checks its outputs exactly.

- prep: `bigphon augment` on 2,500 rows (plus rows over 200 characters for
  the length filter), `bigphon vocab --all`, then scoring of the 200 test
  references against near-miss hypotheses. Pure-Python layers only.
- train: `bigphon train` with the paper's model configuration on a 32/16
  train/valid slice (one batch each), `total30` units, one epoch, one
  checkpoint. Short passes give more of them per run.
- evaluate: `bigphon evaluate` over untrained `base` and `total30`
  checkpoints, then `bigphon errors` on the `base` one. The checkpoints are
  written by `init_params` + `save_checkpoint`, never by training, with a
  fixed init seed per checkpoint: an untrained model sets its own output
  lengths, and a fixed model keeps the decode work the same size across
  corpus seeds.

`setup` runs in its own interpreter (see launch.py); everything else here
runs in run.py's own process and does not import bigphon.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import corpus_gen

N_VARIANTS = 16

# A third of the paper's 7,425-row corpus (6425/500/500): paper-size passes
# take 10 s, too few per run to outvote this host's run-to-run noise.
PREP_ROWS, PREP_LONG_ROWS, PREP_SPLIT = 2500, 4, (2100, 200, 200)
TRAIN_SPLIT = (32, 16, 0)
# Every third row by length goes to valid, the rest to train, so that each
# split's longest row, and with it the padded size of its one batch, is about
# the same on every variant (a random split swung it by 10-20%).
TRAIN_VALID_EVERY = 3
TRAIN_VARIANT = "total30"
EVAL_SPLIT = (300, 0, 16)
EVAL_VARIANTS = ("base", "total30")
EVAL_ERRORS_VARIANT = "base"
# Chosen so that both models stop on EOS under the cap: `base` after 72-77
# steps (its references have about 79 units), `total30` after 25-34. Most
# other seeds in 0-24 run to the cap on most sentences or swing the decode
# work by 20% or more between corpus seeds.
EVAL_INIT_SEEDS = {"base": 15, "total30": 6}
EVAL_MAX_TARGET_LEN = 128

LOSS_RTOL = 1e-6  # final losses: room for float reassociation, nothing more
TOLERANT_KEYS = ("train.final_train_loss", "train.final_valid_loss")


# --- set-up (runs in a fresh interpreter that imports bigphon) -------------


def _augmented(variant: int, n: int, sizes, n_long: int = 0):
    from bigphon.corpus import CorpusManifest, Utterance, augment, filter_by_length, split_corpus
    from bigphon.g2p import load_default_rules
    from bigphon.ipa import load_default_classification

    rows = corpus_gen.generate_rows(variant, n, n_long)
    manifest = CorpusManifest(tuple(Utterance(i, t) for i, t in rows))
    manifest, _ = filter_by_length(manifest, corpus_gen.MAX_CHARS)
    manifest = augment(manifest, load_default_rules(), load_default_classification())
    return split_corpus(manifest, sizes, variant)


def _train_manifest(variant: int):
    from bigphon.corpus import CorpusManifest

    manifest = _augmented(variant, sum(TRAIN_SPLIT), TRAIN_SPLIT)
    by_length = sorted(manifest.utterances, key=lambda u: (len(u.text), u.utt_id))
    split = {u.utt_id: "valid" if rank % TRAIN_VALID_EVERY == 1 else "train"
             for rank, u in enumerate(by_length)}
    return CorpusManifest(manifest.utterances, split, variant)


def _inventory_and_train(manifest):
    from bigphon.ipa import induce_inventory, load_default_classification

    inventory = induce_inventory(
        [u.phonemes for u in manifest.utterances], load_default_classification()
    )
    return inventory, [u.phonemes for u in manifest.by_split("train")]


def _setup_prep(variant: int, out: Path) -> dict:
    from bigphon.corpus import CorpusManifest, Utterance, filter_by_length, split_corpus
    from bigphon.g2p import load_default_rules, transliterate
    from bigphon.ipa import load_default_classification

    from perfbench import scoring

    rows = corpus_gen.generate_rows(variant, PREP_ROWS, PREP_LONG_ROWS)
    corpus_gen.write_raw_tsv(rows, out / "raw.tsv")
    # The test split depends only on ids and seed, so it is known here
    # without augmenting the whole corpus.
    manifest = CorpusManifest(tuple(Utterance(i, t) for i, t in rows))
    manifest, _ = filter_by_length(manifest, corpus_gen.MAX_CHARS)
    test = split_corpus(manifest, PREP_SPLIT, variant).by_split("test")
    rules, table = load_default_rules(), load_default_classification()
    refs = [transliterate(u.text, rules, table) for u in test]
    hyps = scoring.make_hypotheses(refs, table, variant)
    scoring.write_hypotheses([u.utt_id for u in test], hyps, out / "hyps.tsv")
    return {"rows": PREP_ROWS, "pairs": len(test)}


def _setup_train(variant: int, out: Path) -> dict:
    from bigphon.corpus import write_manifest
    from bigphon.vocab import build_variant, tokenize, write_vocab

    manifest = _train_manifest(variant)
    write_manifest(manifest, out / "corpus.tsv")
    inventory, train_seqs = _inventory_and_train(manifest)
    vocab = build_variant(train_seqs, inventory, TRAIN_VARIANT)
    write_vocab(vocab, out / f"{TRAIN_VARIANT}.vocab")
    # Non-PAD target positions per epoch: every unit plus EOS.
    tokens = sum(len(tokenize(seq, vocab).ids) + 1 for seq in train_seqs)
    return {"target_tokens": tokens}


def _setup_evaluate(variant: int, out: Path) -> dict:
    import numpy as np

    from bigphon.corpus import write_manifest
    from bigphon.model import ModelConfig, ModelDims, flatten_params, init_params, param_index
    from bigphon.training import Checkpoint, SourceCodec, save_checkpoint
    from bigphon.vocab import build_variant

    manifest = _augmented(variant, sum(EVAL_SPLIT), EVAL_SPLIT)
    write_manifest(manifest, out / "corpus.tsv")
    inventory, train_seqs = _inventory_and_train(manifest)
    codec = SourceCodec.from_texts([u.text for u in manifest.by_split("train")])
    for label in EVAL_VARIANTS:
        seed = EVAL_INIT_SEEDS[label]
        config = ModelConfig(seed=seed, max_target_len=EVAL_MAX_TARGET_LEN)
        vocab = build_variant(train_seqs, inventory, label)
        dims = ModelDims(target_vocab=len(vocab), source_vocab=codec.size)
        params = init_params(config, dims, np.random.default_rng(seed))
        ckpt = Checkpoint(0, config, label, dims,
                          flatten_params(params, param_index(config, dims)), vocab, codec)
        save_checkpoint(ckpt, out / f"{label}.ckpt")
    return {}


def _blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def setup(workload: str, variant: int, outdir) -> int:
    """Write one workload's inputs to `outdir`, with their provenance."""
    import numpy as np

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    meta = WORKLOADS[workload].setup(variant, out)
    meta.update(numpy=np.__version__, blas=_blas_version(), python=platform.python_version())
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    return 0


# --- commands --------------------------------------------------------------


def _prep_commands(inputs: Path, out: Path, variant: int):
    split = ",".join(map(str, PREP_SPLIT))
    return [
        ("augment", ["cli", "augment", "--manifest", str(inputs / "raw.tsv"),
                     "--out", str(out / "corpus.tsv"), "--split", split,
                     "--seed", str(variant)]),
        ("vocab", ["cli", "vocab", "--manifest", str(out / "corpus.tsv"), "--all",
                   "--out", str(out / "vocabs")]),
        ("score", ["score", str(out / "corpus.tsv"), str(inputs / "hyps.tsv"),
                   str(out / "score.json")]),
    ]


def _train_commands(inputs: Path, out: Path, variant: int):
    # Model flags left at their defaults: the paper's configuration.
    return [
        ("train", ["cli", "train", "--manifest", str(inputs / "corpus.tsv"),
                   "--vocab", str(inputs / f"{TRAIN_VARIANT}.vocab"),
                   "--outdir", str(out / "run"), "--epochs", "1",
                   "--ckpt-interval", "1", "--seed", str(variant)]),
    ]


def _evaluate_commands(inputs: Path, out: Path, variant: int):
    return [
        ("evaluate", ["cli", "evaluate", "--ckpt",
                      *[str(inputs / f"{v}.ckpt") for v in EVAL_VARIANTS],
                      "--manifest", str(inputs / "corpus.tsv"), "--out", str(out / "eval")]),
        ("errors", ["cli", "errors", "--ckpt", str(inputs / f"{EVAL_ERRORS_VARIANT}.ckpt"),
                    "--manifest", str(inputs / "corpus.tsv"), "--out", str(out / "diag")]),
    ]


# --- output checks: parsed values, never file bytes -------------------------


def _key_values(text: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}", value, out)
    else:
        out[prefix] = obj


def _bleu_values(prefix: str, report: dict, out: dict) -> None:
    for key in ("bleu", "p1", "p2", "p3", "p4", "c", "r"):
        out[f"{prefix}.{key}"] = report[key]


def _observe_prep(out: Path, stdout: dict[str, str]) -> dict:
    seen: dict = {}
    counts = _key_values(stdout["augment"])
    for key in ("ingested", "removed", "kept", "train", "valid", "test"):
        seen[f"augment.{key}"] = int(counts[key])
    for path in sorted((out / "vocabs").glob("*.vocab")):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = _key_values(lines[0].lstrip("#"))
        seen[f"vocab.{path.stem}.units"] = len(lines) - 1
        seen[f"vocab.{path.stem}.inventory"] = int(header["inventory"])
    score = _load_json(out / "score.json")
    seen["score.pairs"] = score["pairs"]
    seen["score.marked_chars"] = score["marked_chars"]
    _bleu_values("score.bleu", score["bleu"], seen)
    _flatten("score.errors", score["errors"], seen)
    _flatten("score.articles", score["articles"], seen)
    return seen


def _observe_train(out: Path, stdout: dict[str, str]) -> dict:
    run = out / "run"
    rows = [
        line.split(",")
        for line in (run / "trace.csv").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith(("#", "epoch,"))
    ]
    return {
        "train.epochs": len(rows),
        "train.checkpoints": len(list(run.glob("*.ckpt"))),
        "train.final_train_loss": float(rows[-1][1]),
        "train.final_valid_loss": float(rows[-1][2]),
    }


def _observe_evaluate(out: Path, stdout: dict[str, str]) -> dict:
    seen: dict = {}
    for path in sorted((out / "eval").glob("bleu_*.json")):
        report = _load_json(path)
        _bleu_values(f"evaluate.{report['variant']}", report, seen)
    _flatten("errors", _load_json(out / "diag" / "error_report.json")["totals"], seen)
    articles = _load_json(out / "diag" / "article_report.json")["articles"]
    for name, score in articles.items():
        seen[f"errors.articles.{name}.occurrences"] = score["occurrences"]
        seen[f"errors.articles.{name}.hits"] = score["hits"]
    return seen


def mismatches(seen: dict, reference: dict) -> list[str]:
    """Reference keys whose observed value is missing or differs."""
    bad = []
    for key, want in reference.items():
        got = seen.get(key)
        if key in TOLERANT_KEYS and isinstance(got, float):
            ok = abs(got - want) <= LOSS_RTOL * abs(want)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, want {want!r}")
    return bad


# --- each workload's own figures of one pass --------------------------------
# Printed with the end-to-end metrics but not gated: the result line must
# carry the same metrics on every workload.

FIGURE_UNITS = {
    "augment_utts_per_s": "1/s", "vocab_s": "s", "score_pairs_per_s": "1/s",
    "train_tokens_per_s": "1/s", "ckpt_eval_s": "s", "errors_s": "s",
}


def _prep_figures(walls: dict, meta: dict) -> dict:
    return {
        "augment_utts_per_s": meta["rows"] / walls["augment"],
        "vocab_s": walls["vocab"],
        "score_pairs_per_s": meta["pairs"] / walls["score"],
    }


def _train_figures(walls: dict, meta: dict) -> dict:
    return {"train_tokens_per_s": meta["target_tokens"] / walls["train"]}


def _evaluate_figures(walls: dict, meta: dict) -> dict:
    return {
        "ckpt_eval_s": walls["evaluate"] / len(EVAL_VARIANTS),
        "errors_s": walls["errors"],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], dict]
    commands: Callable[[Path, Path, int], list]
    observe: Callable[[Path, dict], dict]
    figures: Callable[[dict, dict], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prep", _setup_prep, _prep_commands, _observe_prep, _prep_figures),
        Workload("train", _setup_train, _train_commands, _observe_train, _train_figures),
        Workload("evaluate", _setup_evaluate, _evaluate_commands, _observe_evaluate,
                 _evaluate_figures),
    )
}


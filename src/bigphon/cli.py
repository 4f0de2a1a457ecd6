"""Command-line driver for the full pipeline.

Subcommands: augment, vocab, train, evaluate, errors. All randomness sits
behind --seed, and every output carries provenance (seed, variant, config)
so a run is reproducible from its recorded configuration.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .analysis import (
    ARTICLES,
    ErrorReport,
    article_accuracy,
    check_repetition_bounds,
    diagnose_sentence,
    render_marked,
)
from .corpus import (
    augment,
    check_split_sizes,
    filter_by_length,
    ingest,
    require_augmented,
    split_corpus,
    write_manifest,
)
from .g2p import load_default_rules, load_rule_table
from .ipa import ClassificationTable, induce_inventory, load_default_classification
from .model import ModelConfig, NonFiniteGradient, NonFiniteLoss
from .training import (
    NonFiniteParameter,
    VocabMismatch,
    decode_split,
    load_checkpoint,
    train,
)
from .vocab import VARIANT_LABELS, build_all_variants, parse_variant, read_vocab, write_vocab

# Every bigphon input error is a ValueError subclass.
INPUT_ERRORS = (ValueError, FileNotFoundError, FileExistsError, NotADirectoryError,
                IsADirectoryError)

# Non-finite values in a loss, gradient or loaded parameter; any other
# ArithmeticError is a program fault and keeps its traceback.
NUMERIC_FAILURES = (NonFiniteLoss, NonFiniteGradient, NonFiniteParameter)

# `train` flags whose spelling differs from their ModelConfig field name.
FLAG_NAMES = {"checkpoint_interval": "--ckpt-interval", "learning_rate": "--lr"}


def _load_classes(args) -> ClassificationTable:
    return ClassificationTable.load(args.classes) if args.classes else load_default_classification()


def _load_tables(args):
    rules = load_rule_table(args.rules) if args.rules else load_default_rules()
    return rules, _load_classes(args)


def _parse_split_sizes(text: str) -> tuple[int, int, int]:
    try:
        n_train, n_valid, n_test = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--split expects train,valid,test counts, got {text!r}") from None
    return n_train, n_valid, n_test


def _write_json(path: Path, report) -> None:
    text = json.dumps(report.to_dict(), ensure_ascii=False, indent=2)
    path.write_text(text + "\n", encoding="utf-8")


def _provenance(args, extra: dict | None = None) -> list[str]:
    items = {"tool": f"bigphon {__version__}", "command": args.command}
    if hasattr(args, "seed"):
        items["seed"] = args.seed
    items.update(extra or {})
    return [f"{k}={v}" for k, v in items.items()]


def cmd_augment(args) -> int:
    if args.max_chars < 1:
        raise ValueError(f"--max-chars must be at least 1, got {args.max_chars}")
    sizes = _parse_split_sizes(args.split)
    rules, table = _load_tables(args)
    manifest = ingest(args.manifest)
    n_in = len(manifest)
    manifest, removed = filter_by_length(manifest, args.max_chars)
    if removed and not manifest.utterances:
        raise ValueError(f"--max-chars {args.max_chars} removes all {n_in} rows")
    check_split_sizes(sizes, len(manifest))
    manifest = augment(manifest, rules, table)
    manifest = split_corpus(manifest, sizes, args.seed)
    write_manifest(
        manifest,
        args.out,
        header_lines=_provenance(
            args, {"max_chars": args.max_chars, "split": args.split}
        ),
    )
    counts = manifest.split_sizes()
    print(
        f"ingested={n_in} removed={removed} kept={len(manifest)} "
        f"train={counts['train']} valid={counts['valid']} test={counts['test']}"
    )
    return 0


def _corpus_and_inventory(manifest, table):
    require_augmented(manifest.utterances)
    inventory = induce_inventory([u.phonemes for u in manifest.utterances], table)
    train_seqs = [u.phonemes for u in manifest.by_split("train")]
    if not train_seqs:
        raise ValueError("manifest has no train split; run `bigphon augment` first")
    return inventory, train_seqs


def cmd_vocab(args) -> int:
    table = _load_classes(args)
    manifest = ingest(args.manifest)
    inventory, train_seqs = _corpus_and_inventory(manifest, table)
    labels = VARIANT_LABELS if args.all else (args.variant,)
    out = Path(args.out)
    if args.all:
        out.mkdir(parents=True, exist_ok=True)
    for label, vocab in build_all_variants(train_seqs, inventory, labels).items():
        path = out / f"{label}.vocab" if args.all else out
        write_vocab(vocab, path)
        _, n = parse_variant(label)
        short = f" (only {vocab.n_bigrams} of {n} bigrams)" if vocab.n_bigrams < n else ""
        print(f"{label}: {len(vocab)} units -> {path}{short}")
    return 0


def cmd_train(args) -> int:
    table = _load_classes(args)
    manifest = ingest(args.manifest)
    inventory, _ = _corpus_and_inventory(manifest, table)
    if not manifest.by_split("valid"):
        raise ValueError("manifest has no valid split, so valid loss cannot be measured; "
                         "give `bigphon augment --split` a nonzero valid count")
    vocab = read_vocab(args.vocab, inventory)
    config = ModelConfig(**{f.name: getattr(args, f.name) for f in fields(ModelConfig)})
    outdir = Path(args.outdir)
    result = train(
        manifest,
        vocab,
        config,
        source_mode=args.source,
        outdir=outdir,
        log=print if args.verbose else None,
    )
    (outdir / "run_config.json").write_text(
        json.dumps(
            {
                "tool": f"bigphon {__version__}",
                "seed": args.seed,
                "variant": vocab.variant,
                "source_mode": args.source,
                "manifest": str(args.manifest),
                "vocab": str(args.vocab),
                "config": asdict(config),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    final_train, final_valid = result.trace.entries[-1]
    print(
        f"trained {config.epochs} epochs, {len(result.checkpoints)} checkpoints -> {outdir} "
        f"(final train_loss={final_train:.4f} valid_loss={final_valid:.4f})"
    )
    return 0


def _truncated(decoded) -> str:
    """`k/n`: how many of the n decodes hit the length cap."""
    return f"{sum(result.truncated for _, result in decoded)}/{len(decoded)}"


def cmd_evaluate(args) -> int:
    paths = sorted({p for pattern in args.ckpt for p in glob.glob(pattern)})
    if not paths:
        raise FileNotFoundError(f"no checkpoints match {args.ckpt}")
    manifest = ingest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid: dict[int, dict[str, float]] = {}
    for path in paths:
        ckpt = load_checkpoint(path)
        if args.vocab_dir:
            vocab_path = Path(args.vocab_dir) / f"{ckpt.variant}.vocab"
            stated = read_vocab(vocab_path, ckpt.vocab.inventory)
            if stated.units != ckpt.vocab.units:
                raise VocabMismatch(
                    f"{vocab_path} does not match units stored in {path}"
                )
        decoded, report = decode_split(ckpt, manifest, split=args.split)
        _write_json(out / f"bleu_{ckpt.variant}_epoch{ckpt.epoch:04d}.json", report)
        grid.setdefault(ckpt.epoch, {})[ckpt.variant] = report.bleu
        print(f"{path}: variant={ckpt.variant} epoch={ckpt.epoch} bleu={report.bleu:.2f} "
              f"truncated={_truncated(decoded)}")
    columns = [v for v in VARIANT_LABELS if any(v in row for row in grid.values())]
    lines = [f"# {h}" for h in _provenance(args, {"checkpoints": len(paths)})]
    lines.append("epoch," + ",".join(columns))
    for epoch in sorted(grid):
        row = [str(epoch)]
        for v in columns:
            value = grid[epoch].get(v)
            row.append("" if value is None else f"{value:.2f}")
        lines.append(",".join(row))
    (out / "bleu_grid.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_errors(args) -> int:
    check_repetition_bounds(args.min_period, args.min_copies)
    rules, table = _load_tables(args)
    manifest = ingest(args.manifest)
    ckpt = load_checkpoint(args.ckpt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    decoded, bleu = decode_split(ckpt, manifest, split=args.split)

    report = ErrorReport()
    rendered: list[str] = []
    for utt, result in decoded:
        diag = diagnose_sentence(
            utt.utt_id,
            utt.phonemes,
            result.sequence.tokens,
            table,
            min_period=args.min_period,
            min_copies=args.min_copies,
        )
        report.sentences.append(diag)
        rendered.append(f"{utt.utt_id}")
        rendered.append(f"  text: {utt.text}")
        rendered.append(f"  ref:  {utt.phonemes.render()}")
        rendered.append(f"  hyp:  {render_marked(diag.alignment)}")
    _write_json(out / "error_report.json", report)
    (out / "sentences.txt").write_text("\n".join(rendered) + "\n", encoding="utf-8")

    refs = [utt.phonemes for utt, _ in decoded]
    hyps = [result.sequence.tokens for _, result in decoded]
    articles = article_accuracy(refs, hyps, rules, table)
    _write_json(out / "article_report.json", articles)
    header = [f"# {h}" for h in _provenance(args, {"variant": ckpt.variant, "epoch": ckpt.epoch})]
    row = [ckpt.variant]
    for name in ARTICLES:
        acc = articles.scores[name].accuracy
        row.append("" if acc is None else f"{acc:.2f}")
    avg = articles.average
    row.append("" if avg is None else f"{avg:.3f}")
    table3 = header + ["model," + ",".join(ARTICLES) + ",avg", ",".join(row)]
    (out / "articles.csv").write_text("\n".join(table3) + "\n", encoding="utf-8")

    totals = report.totals()
    print(
        f"sentences={totals['sentences']} repetitions={totals['repetitions']} "
        f"dropouts={totals['dropouts']} substitutions={totals['substitutions']} "
        f"article_avg={articles.average} bleu={bleu.bleu:.2f} truncated={_truncated(decoded)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigphon",
        description="Phoneme-corpus augmentation, bigram vocabularies, model training, and scoring.",
    )
    parser.add_argument("--version", action="version", version=f"bigphon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="ingest, length-filter, transliterate, and split a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules", help="rule table file (default: bundled German table)")
    p.add_argument("--classes", help="classification table file (default: bundled)")
    p.add_argument("--max-chars", type=int, default=200)
    p.add_argument("--split", default="6425,500,500", help="train,valid,test counts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("vocab", help="build vocabulary variant(s) from the train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="vocab file, or directory with --all")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--variant", choices=VARIANT_LABELS)
    which.add_argument("--all", action="store_true", help="emit all ten variants")
    p.add_argument("--classes")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train", help="train the recognizer under one vocabulary")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--classes")
    p.add_argument("--source", choices=("text", "features"), default="text")
    p.add_argument("--verbose", action="store_true")
    for f in fields(ModelConfig):
        flag = FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="BLEU-score checkpoints on a split")
    p.add_argument("--ckpt", nargs="+", required=True, help="checkpoint paths or globs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-dir", help="cross-check checkpoint vocabularies against files")
    p.add_argument("--split", default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("errors", help="error analysis of one checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules")
    p.add_argument("--classes")
    p.add_argument("--split", default="test")
    p.add_argument("--min-period", type=int, default=3)
    p.add_argument("--min-copies", type=int, default=2)
    p.set_defaults(func=cmd_errors)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NUMERIC_FAILURES as exc:
        print(f"bigphon: numeric failure: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"bigphon: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

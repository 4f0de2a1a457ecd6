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
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .config import (BLAS_THREAD_VARS, ModelConfig, NonFiniteGradient, NonFiniteLoss,
                     NonFiniteParameter, reading, write_lines)
from .corpus import (
    SPLIT_NAMES,
    augment,
    check_split_sizes,
    filter_by_length,
    ingest,
    split_corpus,
    write_manifest,
)
from .g2p import load_default_rules, load_rule_table
from .ipa import ClassificationTable, induce_inventory, load_default_classification
from .vocab import VARIANT_LABELS, build_all_variants, parse_variant, read_vocab, write_vocab

# Every bigphon input error is a ValueError subclass.
INPUT_ERRORS = (ValueError, FileNotFoundError, FileExistsError, NotADirectoryError,
                IsADirectoryError, PermissionError)

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
    write_lines(path, [json.dumps(report.to_dict(), ensure_ascii=False, indent=2)])


def _provenance(args, extra: dict) -> list[str]:
    items = {"tool": f"bigphon {__version__}", "command": args.command}
    if hasattr(args, "seed"):
        items["seed"] = args.seed
    items.update(extra)
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
    with reading(args.manifest):
        manifest = augment(manifest, rules, table)
    manifest = split_corpus(manifest, sizes, args.seed)
    write_manifest(
        manifest,
        args.out,
        header_lines=_provenance(
            args, {"max_chars": args.max_chars, "split": args.split}
        ),
    )
    n_train, n_valid, n_test = sizes
    print(f"ingested={n_in} removed={removed} kept={len(manifest)} "
          f"train={n_train} valid={n_valid} test={n_test}")
    return 0


def cmd_vocab(args) -> int:
    table = _load_classes(args)
    manifest = ingest(args.manifest, ("train",))
    inventory = induce_inventory([u.phonemes for u in manifest.utterances], table)
    train_seqs = [u.phonemes for u in manifest.by_split("train")]
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
    from .training import source_mode, train

    outdir = Path(args.outdir)
    stale = min(outdir.glob("epoch*.ckpt"), default=None)
    if stale:  # another run's checkpoints would sit beside this run's
        raise FileExistsError(f"{outdir}: already holds {stale.name}; train into a new --outdir")
    table = _load_classes(args)
    manifest = ingest(args.manifest, ("train", "valid"))
    inventory = induce_inventory([u.phonemes for u in manifest.utterances], table)
    vocab = read_vocab(args.vocab, inventory)
    config = ModelConfig(**{f.name: getattr(args, f.name) for f in fields(ModelConfig)})
    trace = train(
        manifest,
        vocab,
        config,
        outdir=outdir,
        log=print if args.verbose else None,
    )
    run = {"tool": f"bigphon {__version__}", "seed": args.seed, "variant": vocab.variant,
           "source_mode": source_mode(manifest), "manifest": str(args.manifest),
           "vocab": str(args.vocab), "config": asdict(config)}
    write_lines(outdir / "run_config.json", [json.dumps(run, indent=2, sort_keys=True)])
    final_train, final_valid = trace.entries[-1]
    checkpoints = config.epochs // config.checkpoint_interval
    print(
        f"trained {config.epochs} epochs, {checkpoints} checkpoints -> {outdir} "
        f"(final train_loss={final_train:.4f} valid_loss={final_valid:.4f})"
    )
    return 0


def _truncated(decoded) -> str:
    """`k/n`: how many of the n decodes hit the length cap."""
    return f"{sum(result.truncated for _, result in decoded)}/{len(decoded)}"


def _check_checkpoint(path, args, checked: dict):
    """Read the header of the checkpoint at `path`, without its parameters,
    and return it, refusing a (variant, epoch) already a key of `checked` and,
    with --vocab-dir, a vocabulary that differs from the stated file."""
    from .training import read_checkpoint_header

    ckpt = read_checkpoint_header(path)
    key = ckpt.variant, ckpt.epoch
    if key in checked:
        with reading(path):
            raise ValueError(f"variant {ckpt.variant!r} epoch {ckpt.epoch} is already in "
                             f"{checked[key][0]}")
    if args.vocab_dir:
        vocab_path = Path(args.vocab_dir) / f"{ckpt.variant}.vocab"
        stated = read_vocab(vocab_path, ckpt.vocab.inventory)
        if stated.units != ckpt.vocab.units:
            raise ValueError(f"{vocab_path} does not match units stored in {path}")
    return ckpt


def _evaluate_checkpoint(path, utts, sources):
    """Score one checkpoint on `utts` and return its BleuReport. Nothing else of
    it outlives the call, so the next checkpoint loads with this one released."""
    from .training import decode_split, load_checkpoint

    ckpt = load_checkpoint(path)
    decoded, report = decode_split(ckpt, utts, sources)
    print(f"{path}: variant={ckpt.variant} epoch={ckpt.epoch} bleu={report.bleu:.2f} "
          f"truncated={_truncated(decoded)}")
    return report


def cmd_evaluate(args) -> int:
    from .training import read_sources

    paths = set()
    for arg in args.ckpt:  # an existing file is used as written
        matched = [arg] if Path(arg).is_file() else glob.glob(arg)
        if not matched:  # a typo must not drop a checkpoint from the grid unseen
            raise FileNotFoundError(f"no checkpoint matches {arg!r}")
        paths.update(matched)
    manifest = ingest(args.manifest, (args.split,))
    utts = manifest.by_split(args.split)
    # (variant, epoch) -> (path, source form); source form (codec chars or feature width) -> sources
    checked, sources = {}, {}
    for path in sorted(paths):  # every header and source form, before any checkpoint decodes
        ckpt = _check_checkpoint(path, args, checked)
        form = ckpt.codec.chars if ckpt.codec is not None else ckpt.dims.feature_dim
        if form not in sources:
            sources[form] = read_sources(utts, ckpt.codec, ckpt.dims.feature_dim, manifest.path)
        checked[ckpt.variant, ckpt.epoch] = path, form
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scored = {key: _evaluate_checkpoint(path, utts, sources[form])
              for key, (path, form) in checked.items()}
    # Nothing is written until every checkpoint has scored, so a failure leaves `out` empty.
    for (variant, epoch), report in scored.items():
        _write_json(out / f"bleu_{variant}_epoch{epoch:04d}.json", report)
    bleu = {key: f"{report.bleu:.2f}" for key, report in scored.items()}
    columns = [v for v in VARIANT_LABELS if any(v == variant for variant, _ in bleu)]
    lines = ["epoch," + ",".join(columns)]
    for epoch in sorted({epoch for _, epoch in bleu}):
        lines.append(",".join([str(epoch)] + [bleu.get((v, epoch), "") for v in columns]))
    write_lines(out / "bleu_grid.csv", lines, header=_provenance(args, {"checkpoints": len(paths)}))
    return 0


def cmd_errors(args) -> int:
    from .analysis import ARTICLES, ErrorReport, article_accuracy, diagnose_sentence, render_marked
    from .training import decode_split, load_checkpoint, read_sources

    rules, table = _load_tables(args)
    manifest = ingest(args.manifest, (args.split,))
    ckpt = load_checkpoint(args.ckpt)
    utts = manifest.by_split(args.split)
    sources = read_sources(utts, ckpt.codec, ckpt.dims.feature_dim, manifest.path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    decoded, bleu = decode_split(ckpt, utts, sources)

    report = ErrorReport()
    rendered: list[str] = []
    for utt, result in decoded:
        diag = diagnose_sentence(utt.utt_id, utt.phonemes, result.sequence.tokens, table)
        report.sentences.append(diag)
        rendered.append(f"{utt.utt_id}")
        rendered.append(f"  text: {utt.text}")
        rendered.append(f"  ref:  {utt.phonemes.render()}")
        rendered.append(f"  hyp:  {render_marked(diag.alignment)}")
    _write_json(out / "error_report.json", report)
    write_lines(out / "sentences.txt", rendered)

    refs = [utt.phonemes for utt, _ in decoded]
    hyps = [result.sequence.tokens for _, result in decoded]
    articles = article_accuracy(refs, hyps, rules, table)
    _write_json(out / "article_report.json", articles)
    row = [ckpt.variant]
    for name in ARTICLES:
        acc = articles.scores[name].accuracy
        row.append("" if acc is None else f"{acc:.2f}")
    avg = articles.average
    row.append("" if avg is None else f"{avg:.3f}")
    write_lines(out / "articles.csv", ["model," + ",".join(ARTICLES) + ",avg", ",".join(row)],
                header=_provenance(args, {"variant": ckpt.variant, "epoch": ckpt.epoch}))

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
    p.add_argument("--verbose", action="store_true")
    for f in fields(ModelConfig):
        flag = FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="BLEU-score checkpoints on a split")
    p.add_argument("--ckpt", nargs="+", required=True,
                   help="checkpoint files or globs, each naming or matching at least one file; "
                        "an existing file is taken as written")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-dir", help="cross-check checkpoint vocabularies against files")
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("errors", help="error analysis of one checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules")
    p.add_argument("--classes")
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.set_defaults(func=cmd_errors)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules and not any(os.environ.get(v) for v in BLAS_THREAD_VARS):
        # One BLAS thread unless the user set a count: the count changes training bytes.
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    args = build_parser().parse_args(argv)
    out = Path(getattr(args, "out", None) or args.outdir)
    existed = out.exists()
    try:
        return args.func(args)
    except (*NUMERIC_FAILURES, *INPUT_ERRORS) as exc:
        if not existed and out.is_dir() and not any(out.iterdir()):
            out.rmdir()  # a failed command leaves no empty output directory behind
        label, code = ("numeric failure", 3) if isinstance(exc, NUMERIC_FAILURES) else ("error", 2)
        print(f"bigphon: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

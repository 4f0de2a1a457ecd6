"""Spans around bigphon's public functions, recorded from outside the package.

A traced command wraps each function in TARGETS where the package binds it:
every `bigphon.*` module attribute that is the original function object is
replaced, so calls through `from .model import make_batch` are seen too.
Each call records a span `[name, start, end, parent]` in memory; the list
is written out once, when the command ends. Functions a later version of
the package no longer has are skipped and read as zero.

Self time is a span's duration minus the part of it that its children
cover. Per-layer metrics are self-time sums and counts per span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter

# (module, function, span name). Spans missing from SELF_TIME_METRICS only
# keep their time out of their parent's self time; they are not reported.
TARGETS = (
    ("bigphon.corpus", "ingest", "corpus.ingest"),
    ("bigphon.corpus", "write_manifest", "corpus.write_manifest"),
    ("bigphon.corpus", "augment", "corpus.augment"),
    ("bigphon.g2p", "transliterate", "g2p.transliterate"),
    ("bigphon.ipa", "segment_ipa", "ipa.segment_ipa"),
    ("bigphon.ipa", "induce_inventory", "ipa.induce_inventory"),
    ("bigphon.vocab", "count_bigrams", "vocab.count_bigrams"),
    ("bigphon.vocab", "build_variant", "vocab.build_variant"),
    ("bigphon.vocab", "tokenize", "vocab.tokenize"),
    ("bigphon.vocab", "detokenize", "vocab.detokenize"),
    ("bigphon.vocab", "read_vocab", "vocab.read_vocab"),
    ("bigphon.vocab", "write_vocab", "vocab.write_vocab"),
    ("bigphon.model", "make_batch", "model.make_batch"),
    ("bigphon.model", "forward_batch", "model.forward_batch"),
    ("bigphon.model", "backward_batch", "model.backward_batch"),
    ("bigphon.model", "batch_loss_and_dlogits", "model.loss"),
    ("bigphon.model", "loss_and_gradient", "model.loss_and_gradient"),
    ("bigphon.model", "greedy_decode", "model.greedy_decode"),
    ("bigphon.training", "train", "training.train"),
    ("bigphon.training", "adam_step", "training.adam_step"),
    ("bigphon.training", "save_checkpoint", "training.save_checkpoint"),
    ("bigphon.training", "load_checkpoint", "training.load_checkpoint"),
    ("bigphon.training", "decode_split", "training.decode_split"),
    ("bigphon.bleu", "corpus_bleu", "bleu.corpus_bleu"),
    ("bigphon.bleu", "evaluate_checkpoint", "bleu.evaluate_checkpoint"),
    ("bigphon.analysis", "align", "analysis.align"),
    ("bigphon.analysis", "diagnose_sentence", "analysis.diagnose_sentence"),
    ("bigphon.analysis", "article_accuracy", "analysis.article_accuracy"),
    ("bigphon.analysis", "render_marked", "analysis.render_marked"),
)


class Tracer:
    """In-memory span recorder for one command (one process)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # targets this version of bigphon lacks
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._span_name(name), time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def _span_name(self, name: str) -> str:
        # Teacher-forced forward passes inside a training step are "train";
        # the rest (validation loss) are "valid".
        if name != "model.forward_batch":
            return name
        inside_step = any(
            self.spans[i][0] == "model.loss_and_gradient" for i in self._stack
        )
        return name + (".train" if inside_step else ".valid")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts), "missing": self.missing}, f)


# --- counters taken at the same boundaries as the spans -------------------


def _observe_make_batch(counts, args, kwargs, batch):
    counts["model.src_cells"] += int(batch.src_mask.size)
    counts["model.src_pad_cells"] += int(batch.src_mask.size - batch.src_mask.sum())
    counts["model.tgt_cells"] += int(batch.tgt_out.size)
    counts["model.tgt_pad_cells"] += int((batch.tgt_out == 0).sum())


def _observe_step(counts, args, kwargs, result):
    counts["model.steps"] += 1
    counts["model.target_tokens"] += int(result[2])


def _observe_decode(counts, args, kwargs, result):
    counts["model.greedy_decode_calls"] += 1
    # One decoder run per emitted unit, plus the run that produced EOS.
    counts["model.decode_steps"] += len(result.ids) + (0 if result.truncated else 1)
    counts["model.decode_truncated"] += int(result.truncated)


def _observe_save(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["training.checkpoint_bytes"] += os.path.getsize(path)


def _counter(key):
    def observe(counts, args, kwargs, result):
        counts[key] += 1

    return observe


OBSERVERS = {
    "model.make_batch": _observe_make_batch,
    "model.loss_and_gradient": _observe_step,
    "model.greedy_decode": _observe_decode,
    "training.save_checkpoint": _observe_save,
    "g2p.transliterate": _counter("g2p.transliterate_calls"),
    "analysis.align": _counter("analysis.align_calls"),
    "analysis.diagnose_sentence": _counter("analysis.diagnose_sentence_calls"),
}


def install(tracer: Tracer) -> None:
    """Wrap every target where bigphon binds it; note the missing ones."""
    for module_name in sorted({t[0] for t in TARGETS} | {"bigphon.cli"}):
        importlib.import_module(module_name)
    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "bigphon" or name.startswith("bigphon."))]
    for module_name, attr, span_name in TARGETS:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(span_name, original, OBSERVERS.get(span_name))
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


# --- arithmetic over recorded spans ----------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def root_covered(spans) -> float:
    """Time covered by top-level spans (those without a parent)."""
    roots = [(start, end) for name, start, end, parent in spans if parent < 0]
    if not roots:
        return 0.0
    return covered(roots, min(s for s, _ in roots), max(e for _, e in roots))


SELF_TIME_METRICS = (
    "g2p.transliterate", "ipa.segment_ipa", "ipa.induce_inventory",
    "corpus.ingest", "corpus.write_manifest", "corpus.augment",
    "vocab.count_bigrams", "vocab.build_variant", "vocab.tokenize",
    "vocab.detokenize", "model.make_batch", "model.forward_batch.train",
    "model.forward_batch.valid", "model.backward_batch", "model.loss",
    "training.train", "training.adam_step", "training.save_checkpoint",
    "model.greedy_decode", "training.decode_split", "training.load_checkpoint",
    "bleu.corpus_bleu", "analysis.align", "analysis.diagnose_sentence",
    "analysis.article_accuracy", "analysis.render_marked",
)

COUNT_METRICS = (
    "g2p.transliterate_calls", "model.steps", "model.target_tokens",
    "training.checkpoint_bytes", "model.greedy_decode_calls",
    "model.decode_steps", "model.decode_truncated", "analysis.align_calls",
)


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(commands) -> dict[str, float]:
    """Per-layer metrics of one pass from its commands' traces.

    `commands` holds `(wall_s, trace)` per command, `trace` being what
    Tracer.dump wrote. Times are seconds of self time summed over the pass.
    """
    self_s: Counter = Counter()
    counts: Counter = Counter()
    decode_calls: list[float] = []
    unattributed = 0.0
    for wall, trace in commands:
        spans = trace["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            self_s[name] += own
            if name == "model.greedy_decode":
                decode_calls.append(own)
        counts.update(trace["counts"])
        unattributed += wall - root_covered(spans)
    out = {f"{name}_s": float(self_s[name]) for name in SELF_TIME_METRICS}
    out.update({name: float(counts[name]) for name in COUNT_METRICS})
    out["model.greedy_decode_p50_s"] = _percentile(decode_calls, 50)
    out["model.greedy_decode_p90_s"] = _percentile(decode_calls, 90)
    out["model.src_pad_frac"] = _ratio(counts["model.src_pad_cells"], counts["model.src_cells"])
    out["model.tgt_pad_frac"] = _ratio(counts["model.tgt_pad_cells"], counts["model.tgt_cells"])
    out["analysis.align_per_sentence"] = _ratio(
        counts["analysis.align_calls"], counts["analysis.diagnose_sentence_calls"]
    )
    out["cli.unattributed_s"] = unattributed
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0

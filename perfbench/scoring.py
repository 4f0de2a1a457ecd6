"""The prep workload's scoring step and the near-miss hypotheses it scores.

Hypotheses are the test references with seeded errors of the three kinds
the diagnostics look for: tandem-repeat loops, dropped phonemes and
same-class substitutions. Some sentences are left untouched, so article
hits and misses both occur.

The step calls bigphon through module attributes (never `from ... import`),
so the traced run sees every call.
"""

from __future__ import annotations

import json
import random

from bigphon import analysis, bleu, corpus, g2p, ipa


def near_miss(tokens, alternatives, rng: random.Random) -> list[str]:
    """A copy of `tokens` with 0-3 seeded errors.

    `alternatives` maps each token to the other tokens of its sound class.
    """
    hyp = list(tokens)
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.3 and len(hyp) > 6:
            start = rng.randrange(len(hyp) - 5)
            period = rng.randint(3, 5)
            hyp[start + period : start + period] = hyp[start : start + period] * rng.randint(1, 2)
        elif kind < 0.65 and len(hyp) > 2:
            start = rng.randrange(len(hyp) - 1)
            del hyp[start : start + rng.randint(1, 2)]
        elif hyp:
            pos = rng.randrange(len(hyp))
            hyp[pos] = rng.choice(alternatives[hyp[pos]])
    return hyp


def make_hypotheses(refs, table, seed: int) -> list[list[str]]:
    """Near-miss hypotheses for `refs` (PhonemeSequence list)."""
    symbols = sorted({tok for ref in refs for tok in ref.tokens})
    by_class: dict = {}
    for sym in symbols:
        by_class.setdefault(ipa.classify(sym, table), []).append(sym)
    alternatives = {
        sym: [o for o in by_class[ipa.classify(sym, table)] if o != sym] or [sym]
        for sym in symbols
    }
    rng = random.Random(seed)
    return [near_miss(ref.tokens, alternatives, rng) for ref in refs]


def write_hypotheses(ids, hyps, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, hyp in zip(ids, hyps):
            f.write(f"{utt_id}\t{' '.join(hyp)}\n")


def read_hypotheses(path) -> list[tuple[str, list[str]]]:
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    return [(utt_id, text.split()) for utt_id, text in rows]


def score(corpus_path, hyps_path, out_path) -> int:
    """Score the hypotheses against the test references of an augmented corpus."""
    table = ipa.load_default_classification()
    rules = g2p.load_default_rules()
    refs_by_id = {u.utt_id: u.phonemes for u in corpus.ingest(corpus_path).by_split("test")}
    pairs = read_hypotheses(hyps_path)
    refs = [refs_by_id[utt_id] for utt_id, _ in pairs]
    hyps = [hyp for _, hyp in pairs]

    report = analysis.ErrorReport()
    marked_chars = 0
    for (utt_id, hyp), ref in zip(pairs, refs):
        diag = analysis.diagnose_sentence(utt_id, ref, hyp, table)
        report.sentences.append(diag)
        marked_chars += len(analysis.render_marked(diag.alignment))
    articles = analysis.article_accuracy(refs, hyps, rules, table)
    result = bleu.corpus_bleu(hyps, [r.tokens for r in refs])
    summary = {
        "pairs": len(pairs),
        "bleu": result.to_dict(),
        "errors": report.totals(),
        "articles": {
            name: {"occurrences": s.occurrences, "hits": s.hits}
            for name, s in articles.scores.items()
        },
        "marked_chars": marked_chars,
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return 0

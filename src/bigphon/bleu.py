"""Corpus BLEU over phoneme tokens.

Modified 1..4-gram precisions with reference clipping, uniform 0.25
weights, and the brevity penalty. No smoothing: any zero precision gives
a zero score. Scores are reported on the 0-100 scale (the raw [0,1] value
rides along). Hypotheses and references are sequences of atomic phoneme
tokens, one reference per hypothesis.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

MAX_ORDER = 4
WEIGHT = 0.25


class EmptyCorpus(ValueError):
    pass


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def modified_precision(hyps, refs, n: int) -> tuple[int, int]:
    """Corpus-level clipped n-gram matches and totals.

    Per sentence, hypothesis n-gram counts are clipped by the reference
    counts; sentences shorter than n contribute zero to both sums.
    """
    clipped = 0
    total = 0
    for hyp, ref in zip(hyps, refs):
        hyp_counts = _ngrams(hyp, n)
        if not hyp_counts:
            continue
        ref_counts = _ngrams(ref, n)
        clipped += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        total += sum(hyp_counts.values())
    return clipped, total


@dataclass(frozen=True)
class BleuReport:
    bleu: float  # 0-100 scale
    precisions: tuple[float, float, float, float]
    hyp_length: int
    ref_length: int
    brevity_penalty: float
    variant: str | None = None
    epoch: int | None = None

    @property
    def bleu_raw(self) -> float:
        return self.bleu / 100.0

    def to_dict(self) -> dict:
        p1, p2, p3, p4 = self.precisions
        return {
            "bleu": self.bleu,
            "bleu_raw": self.bleu_raw,
            "p1": p1,
            "p2": p2,
            "p3": p3,
            "p4": p4,
            "c": self.hyp_length,
            "r": self.ref_length,
            "bp": self.brevity_penalty,
            "variant": self.variant,
            "epoch": self.epoch,
        }


def corpus_bleu(hyps, refs, variant: str | None = None, epoch: int | None = None) -> BleuReport:
    """BLEU over aligned hypothesis/reference corpora."""
    hyps = [tuple(h) for h in hyps]
    refs = [tuple(r) for r in refs]
    if not hyps or not refs:
        raise EmptyCorpus("corpus_bleu needs non-empty aligned corpora")
    if len(hyps) != len(refs):
        raise EmptyCorpus(f"{len(hyps)} hypotheses vs {len(refs)} references")
    c = sum(len(h) for h in hyps)
    r = sum(len(x) for x in refs)
    precisions = []
    for n in range(1, MAX_ORDER + 1):
        clipped, total = modified_precision(hyps, refs, n)
        precisions.append(clipped / total if total else 0.0)
    if c == 0:
        bp = 0.0
    elif c > r:
        bp = 1.0
    else:
        bp = math.exp(1.0 - r / c)
    if min(precisions) > 0.0:
        score = 100.0 * bp * math.exp(sum(WEIGHT * math.log(p) for p in precisions))
    else:
        score = 0.0
    return BleuReport(score, tuple(precisions), c, r, bp, variant, epoch)


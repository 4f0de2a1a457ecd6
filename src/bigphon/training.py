"""Training loop, loss traces, and checkpointing.

Training is single-threaded and fully deterministic: all randomness
(parameter init, epoch shuffling, dropout) derives from the config seed
through spawned generators, so identical (seed, config, data) reproduce
byte-identical traces and checkpoints. A run's checkpoints and trace go
only to its run directory; later stages read them back from there.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bleu import BleuReport, corpus_bleu
from .config import (NonFiniteGradient, NonFiniteLoss, NonFiniteParameter, reading, write_lines,
                     writing)
from .corpus import CorpusManifest, Utterance
from .ipa import Phoneme, PhonemeInventory, SoundClass
from .model import (
    DecodeResult,
    ModelConfig,
    ModelDims,
    ShapeMismatch,
    batch_loss_and_dlogits,
    flatten_params,
    forward_batch,
    greedy_decode,
    init_params,
    loss_and_gradient,
    make_batch,
    param_index,
    unflatten_params,
)
from .vocab import Vocabulary, tokenize

CHECKPOINT_MAGIC = b"BGPH"
CHECKPOINT_VERSION = 1

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class CheckpointFormatError(ValueError):
    pass


class SourceCodec:
    """Character-index codec for the text proxy task.

    Index 0 is PAD, 1 is UNK (characters unseen in training text); the
    remaining indices are the training characters in codepoint order.
    """

    PAD, UNK = 0, 1

    def __init__(self, chars: tuple[str, ...]):
        self.chars = tuple(chars)
        self._map = {ch: i + 2 for i, ch in enumerate(self.chars)}

    @classmethod
    def from_texts(cls, texts) -> "SourceCodec":
        return cls(tuple(sorted(set("".join(texts)))))

    @property
    def size(self) -> int:
        return len(self.chars) + 2

    def encode(self, text: str) -> list[int]:
        return [self._map.get(ch, self.UNK) for ch in text]


@dataclass
class TrainingTrace:
    """Per-epoch (train_loss, valid_loss) pairs, epoch 1 first."""

    entries: list[tuple[float, float]] = field(default_factory=list)

    def write(self, path, header_lines: list[str] | None = None):
        rows = (f"{i},{tr!r},{va!r}" for i, (tr, va) in enumerate(self.entries, start=1))
        write_lines(path, ["epoch,train_loss,valid_loss", *rows], header=header_lines or ())


@dataclass
class Checkpoint:
    epoch: int
    config: ModelConfig
    variant: str
    dims: ModelDims
    params_flat: np.ndarray | None  # None from `read_checkpoint_header`
    vocab: Vocabulary
    codec: SourceCodec | None = None  # None in feature mode

    @property
    def params(self) -> dict[str, np.ndarray]:
        return unflatten_params(self.params_flat, param_index(self.config, self.dims))


def load_features(path, feature_dim: int | None = None, width_from=None) -> np.ndarray:
    """Externally precomputed per-frame features: one (T, F) .npy array of
    finite real numbers, kept in its stored dtype (`make_batch` converts
    it), with F equal to `feature_dim` when that is given; `width_from`, if
    given, names the file whose width set it."""
    with reading(path), open(path, "rb") as f:
        arr = np.lib.format.read_array(f, allow_pickle=False)
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"expected real numeric feature frames, got dtype {arr.dtype}")
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError(f"expected a non-empty 2-D (frames, dim) array, got {arr.shape}")
        if feature_dim is not None and arr.shape[1] != feature_dim:
            origin = f" from {width_from}" if width_from else ""
            raise ShapeMismatch(f"feature array {arr.shape} does not match "
                                f"feature_dim={feature_dim}{origin}")
        if not np.isfinite(arr).all():
            raise ValueError("feature frames hold NaN or infinite values")
    return arr


def read_sources(utts, codec: SourceCodec | None, feature_dim: int | None = None,
                 manifest_path=None) -> list:
    """Model inputs for `utts`, in order: each text's codec ids, or, with no
    codec (feature mode), each row's feature frames as stored. Before any
    file loads, every row must name one; that error names `manifest_path`
    when given. Every file must be `feature_dim` wide or, when that is
    None, as wide as the first, which the width error then names."""
    if codec is not None:
        return [codec.encode(utt.text) for utt in utts]
    with reading(manifest_path) if manifest_path else nullcontext():
        for utt in utts:
            if not utt.feature_path:
                raise ValueError(f"utterance {utt.utt_id!r} has no feature_path")
    sources, width_from = [], None
    for utt in utts:
        sources.append(load_features(utt.feature_path, feature_dim, width_from))
        if feature_dim is None:
            feature_dim, width_from = sources[0].shape[1], utt.feature_path
    return sources


def source_mode(manifest: CorpusManifest) -> str:
    """The run's source form: "features" when any train or valid row names a
    feature file, else "text" (the character proxy)."""
    rows = manifest.by_split("train") + manifest.by_split("valid")
    return "features" if any(utt.feature_path for utt in rows) else "text"


def _vocab_header(vocab: Vocabulary) -> dict:
    return {
        "variant": vocab.variant,
        "atoms": [[p.symbol, p.sound_class.value] for p in vocab.inventory.phonemes],
        "bigrams": [list(vocab.merged_pairs[u]) for u in vocab.units if u in vocab.merged_pairs],
    }


def _vocab_from_header(header: dict) -> Vocabulary:
    inventory = PhonemeInventory(
        tuple(Phoneme(sym, SoundClass(cls)) for sym, cls in header["atoms"])
    )
    return Vocabulary(inventory, [tuple(b) for b in header["bigrams"]], header["variant"])


def save_checkpoint(ckpt: Checkpoint, path):
    header = {
        "epoch": ckpt.epoch,
        "config": asdict(ckpt.config),
        "variant": ckpt.variant,
        "source_vocab": ckpt.dims.source_vocab,
        "feature_dim": ckpt.dims.feature_dim,
        "codec_chars": list(ckpt.codec.chars) if ckpt.codec is not None else None,
        "vocab": _vocab_header(ckpt.vocab),
        "param_index": [
            [name, list(shape)] for name, shape in param_index(ckpt.config, ckpt.dims)
        ],
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    payload = np.ascontiguousarray(ckpt.params_flat, dtype="<f8")
    with writing(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        f.write(payload.data)


def _read_header(f) -> Checkpoint:
    """The checkpoint described by the magic, version and header of the open
    file `f`, checked against the length of the parameter payload after them,
    with `params_flat` None; `f` is left at the payload's start."""
    magic = f.read(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}")
    version = int.from_bytes(f.read(4), "little")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version {version}")
    header_len = int.from_bytes(f.read(8), "little")
    left = os.fstat(f.fileno()).st_size - f.tell()
    if header_len > left:
        raise CheckpointFormatError(
            f"header length {header_len} exceeds the {left} bytes left in the file")
    blob = f.read(header_len)
    payload_bytes = left - header_len
    try:
        header = json.loads(blob.decode("utf-8"))
        unknown = sorted(set(header["config"]) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise TypeError(f"unknown config keys {unknown}")
        for key, kind in (("epoch", int), ("variant", str)):
            if type(header[key]) is not kind:
                raise TypeError(f"{key} must be {kind.__name__}, got {header[key]!r}")
        config = ModelConfig(**header["config"])
        vocab = _vocab_from_header(header["vocab"])
        if header["variant"] != vocab.variant:
            raise ValueError(
                f"variant {header['variant']!r} differs from vocab {vocab.variant!r}")
        dims = ModelDims(
            target_vocab=len(vocab),
            source_vocab=header["source_vocab"],
            feature_dim=header["feature_dim"],
        )
        expected = sum(int(np.prod(shape)) for _, shape in param_index(config, dims))
        if payload_bytes % 8:
            raise CheckpointFormatError(f"parameter payload is {payload_bytes} bytes, "
                                        f"not a whole number of float64 values")
        if payload_bytes // 8 != expected:
            raise CheckpointFormatError(
                f"parameter payload has {payload_bytes // 8} values, expected {expected}")
        stored_index = [(name, tuple(shape)) for name, shape in header["param_index"]]
        if stored_index != param_index(config, dims):
            raise CheckpointFormatError("parameter index mismatch")
        chars = header["codec_chars"]
        codec = SourceCodec(tuple(chars)) if chars is not None else None
        codec_size = codec.size if codec is not None else None
        if codec_size != dims.source_vocab:
            raise ValueError(
                f"codec_chars give source_vocab {codec_size}, not {dims.source_vocab}")
    except CheckpointFormatError:
        raise
    except KeyError as exc:
        raise CheckpointFormatError(f"header has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"bad header: {exc}") from None
    return Checkpoint(header["epoch"], config, header["variant"], dims, None, vocab, codec)


def read_checkpoint_header(path) -> Checkpoint:
    """The checkpoint at `path`, every check of `load_checkpoint` made but
    the parameters' finiteness, with no parameter read: `params_flat` is
    None."""
    with reading(path), open(path, "rb") as f:
        return _read_header(f)


def load_checkpoint(path) -> Checkpoint:
    with reading(path), open(path, "rb") as f:
        ckpt = _read_header(f)
        ckpt.params_flat = np.fromfile(f, dtype="<f8").astype(np.float64, copy=False)
        if not np.isfinite(ckpt.params_flat).all():
            name = next(name for name, arr in ckpt.params.items() if not np.isfinite(arr).all())
            raise NonFiniteParameter(f"parameter {name} holds NaN or infinite values")
    return ckpt


def _epoch_valid_loss(params, config, sources, targets) -> float:
    if not sources:
        return math.nan
    total, tokens = 0.0, 0
    for start in range(0, len(sources), config.batch_size):
        chunk = slice(start, start + config.batch_size)
        batch = make_batch(sources[chunk], targets[chunk])
        logits = forward_batch(params, config, batch)
        loss, _, n = batch_loss_and_dlogits(logits, batch.tgt_out)
        total += loss * n
        tokens += n
    return total / tokens if tokens else math.nan


def adam_step(flat, grad_flat, m, v, t, lr):
    """Adam's update of `flat` at step t, and of its moments `m` and `v`, in
    place. Each operation of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g
    and flat -= lr mhat / (sqrt(vhat) + eps) runs in the textbook order,
    into two scratch buffers rather than a new array each."""
    a = np.multiply(1.0 - ADAM_BETA1, grad_flat)
    m *= ADAM_BETA1
    m += a
    np.multiply(1.0 - ADAM_BETA2, grad_flat, out=a)
    a *= grad_flat
    v *= ADAM_BETA2
    v += a
    b = np.divide(v, 1.0 - ADAM_BETA2**t)  # vhat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=a)  # mhat
    a *= lr
    a /= b
    flat -= a


def train(
    manifest: CorpusManifest,
    vocab: Vocabulary,
    config: ModelConfig,
    outdir,
    log=None,
) -> TrainingTrace:
    """Teacher-forced training with per-epoch loss tracking; returns the trace.

    The manifest picks the source form (`source_mode`); in feature mode every
    train and valid row must name a feature file. At every multiple of
    checkpoint_interval the live parameters are written to
    `outdir/epochNNNN.ckpt` before the next step changes them; no copy is
    kept in memory. The trace goes to `outdir/trace.csv` after the last epoch.
    """
    train_utts = manifest.by_split("train")
    valid_utts = manifest.by_split("valid")
    if not train_utts:
        raise ValueError("manifest has no train split")

    codec = (SourceCodec.from_texts([u.text for u in train_utts])
             if source_mode(manifest) == "text" else None)
    sources = read_sources(train_utts + valid_utts, codec, manifest_path=manifest.path)
    train_src, valid_src = sources[: len(train_utts)], sources[len(train_utts) :]
    if codec is not None:
        dims = ModelDims(target_vocab=len(vocab), source_vocab=codec.size)
    else:
        dims = ModelDims(target_vocab=len(vocab), feature_dim=train_src[0].shape[1])
    train_tgt = [tokenize(utt.phonemes, vocab).ids for utt in train_utts]
    valid_tgt = [tokenize(utt.phonemes, vocab).ids for utt in valid_utts]

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    rng_init = np.random.default_rng(seeds[0])
    rng_shuffle = np.random.default_rng(seeds[1])
    rng_dropout = np.random.default_rng(seeds[2]) if config.dropout > 0 else None

    index = param_index(config, dims)
    flat = flatten_params(init_params(config, dims, rng_init), index)
    params = unflatten_params(flat, index)  # views: adam updates flow through
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    step = 0

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    trace = TrainingTrace()
    n = len(train_src)
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n)
        total, tokens = 0.0, 0
        for start in range(0, n, config.batch_size):
            chosen = order[start : start + config.batch_size]
            batch = make_batch([train_src[i] for i in chosen], [train_tgt[i] for i in chosen])
            try:
                loss, grads, ntok = loss_and_gradient(
                    params, config, batch, dropout_rng=rng_dropout
                )
            except (NonFiniteLoss, NonFiniteGradient) as exc:
                raise type(exc)(f"epoch {epoch}, step {step + 1}: {exc}") from exc
            step += 1
            adam_step(flat, flatten_params(grads, index), m, v, step, config.learning_rate)
            total += loss * ntok
            tokens += ntok
        train_loss = total / tokens if tokens else math.nan
        valid_loss = _epoch_valid_loss(params, config, valid_src, valid_tgt)
        trace.entries.append((train_loss, valid_loss))
        if log is not None:
            log(f"epoch {epoch}: train_loss={train_loss:.6f} valid_loss={valid_loss:.6f}")
        if epoch % config.checkpoint_interval == 0:
            save_checkpoint(
                Checkpoint(epoch, config, vocab.variant, dims, flat, vocab, codec),
                outdir / f"epoch{epoch:04d}.ckpt",
            )
    trace.write(
        outdir / "trace.csv",
        header_lines=[
            f"seed={config.seed}",
            f"variant={vocab.variant}",
            f"config={json.dumps(asdict(config), sort_keys=True)}",
        ],
    )
    return trace


def decode_split(
    ckpt: Checkpoint, utts: list[Utterance], sources: list
) -> tuple[list[tuple[Utterance, DecodeResult]], BleuReport]:
    """Greedy-decode each utterance from its source under a checkpoint and
    BLEU-score the decodes against the reference atom sequences.

    The caller reads `sources` (`read_sources`) before the first decode; this
    reads no file. An empty `utts` raises `EmptyCorpus` from `corpus_bleu`.
    """
    params = ckpt.params
    decoded = [(utt, greedy_decode(params, ckpt.config, source, ckpt.vocab))
               for utt, source in zip(utts, sources, strict=True)]
    report = corpus_bleu(
        [result.sequence.tokens for _, result in decoded],
        [utt.phonemes.tokens for utt, _ in decoded],
        variant=ckpt.variant,
        epoch=ckpt.epoch,
    )
    return decoded, report

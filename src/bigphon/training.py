"""Training loop, loss traces, and checkpointing.

Training is single-threaded and fully deterministic: all randomness
(parameter init, epoch shuffling, dropout) derives from the config seed
through spawned generators, so identical (seed, config, data) reproduce
byte-identical traces and checkpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bleu import BleuReport, EmptyCorpus, corpus_bleu
from .corpus import CorpusManifest, Utterance, require_augmented
from .ipa import Phoneme, PhonemeInventory, SoundClass
from .model import (
    DecodeResult,
    ModelConfig,
    ModelDims,
    NonFiniteLoss,
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


class CheckpointFormatError(ValueError):
    pass


class VocabMismatch(ValueError):
    pass


class NonFiniteParameter(ArithmeticError):
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

    def to_csv_text(self, header_lines: list[str] | None = None) -> str:
        lines = [f"# {h}" for h in header_lines or []]
        lines.append("epoch,train_loss,valid_loss")
        for i, (tr, va) in enumerate(self.entries, start=1):
            lines.append(f"{i},{tr!r},{va!r}")
        return "\n".join(lines) + "\n"

    def write(self, path, header_lines: list[str] | None = None):
        Path(path).write_text(self.to_csv_text(header_lines), encoding="utf-8")


@dataclass
class Checkpoint:
    epoch: int
    config: ModelConfig
    variant: str
    dims: ModelDims
    params_flat: np.ndarray
    vocab: Vocabulary
    codec: SourceCodec | None = None  # None in feature mode

    @property
    def params(self) -> dict[str, np.ndarray]:
        return unflatten_params(self.params_flat, param_index(self.config, self.dims))


def load_features(path) -> np.ndarray:
    """Externally precomputed per-frame features: a (T, F) .npy array."""
    arr = np.load(path, allow_pickle=False)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"{path}: expected a non-empty 2-D (frames, dim) array, got {arr.shape}")
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: feature frames hold NaN or infinite values")
    return arr


def encode_source(utt: Utterance, codec: SourceCodec | None):
    """Model input for one utterance: its text's codec ids, or its features
    when there is no codec (feature mode)."""
    if codec is not None:
        return codec.encode(utt.text)
    if not utt.feature_path:
        raise ValueError(f"utterance {utt.utt_id!r} has no feature_path")
    return load_features(utt.feature_path)


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
    payload = np.ascontiguousarray(ckpt.params_flat, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        f.write(payload)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
        version = int.from_bytes(f.read(4), "little")
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported version {version}")
        header_len = int.from_bytes(f.read(8), "little")
        blob = f.read(header_len)
        flat = np.fromfile(f, dtype="<f8").astype(np.float64, copy=False)
        ragged = len(f.read())  # bytes after the last whole float64
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
            raise ValueError(f"variant {header['variant']!r} differs from vocab {vocab.variant!r}")
        dims = ModelDims(
            target_vocab=len(vocab),
            source_vocab=header["source_vocab"],
            feature_dim=header["feature_dim"],
        )
        expected = sum(int(np.prod(shape)) for _, shape in param_index(config, dims))
        if ragged:
            raise CheckpointFormatError(
                f"{path}: parameter payload is {flat.nbytes + ragged} bytes, not a whole "
                f"number of float64 values"
            )
        if flat.size != expected:
            raise CheckpointFormatError(
                f"{path}: parameter payload has {flat.size} values, expected {expected}"
            )
        stored_index = [(name, tuple(shape)) for name, shape in header["param_index"]]
        if stored_index != param_index(config, dims):
            raise CheckpointFormatError(f"{path}: parameter index mismatch")
        chars = header["codec_chars"]
        codec = SourceCodec(tuple(chars)) if chars is not None else None
        codec_size = codec.size if codec is not None else None
        if codec_size != dims.source_vocab:
            raise ValueError(f"codec_chars give source_vocab {codec_size}, not {dims.source_vocab}")
    except CheckpointFormatError:
        raise
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: header has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad header: {exc}") from None
    if not np.isfinite(flat).all():
        params = unflatten_params(flat, param_index(config, dims))
        name = next(name for name, arr in params.items() if not np.isfinite(arr).all())
        raise NonFiniteParameter(f"{path}: parameter {name} holds NaN or infinite values")
    return Checkpoint(header["epoch"], config, header["variant"], dims, flat, vocab, codec)


@dataclass
class TrainResult:
    trace: TrainingTrace
    checkpoints: list[Checkpoint]


def _prepare_examples(utterances, vocab: Vocabulary, codec: SourceCodec | None):
    sources, targets = [], []
    for utt in utterances:
        sources.append(encode_source(utt, codec))
        targets.append(tokenize(utt.phonemes, vocab).ids)
    return sources, targets


def _epoch_valid_loss(params, config, dims, sources, targets) -> float:
    if not sources:
        return math.nan
    total, tokens = 0.0, 0
    for start in range(0, len(sources), config.batch_size):
        batch = make_batch(
            sources[start : start + config.batch_size],
            targets[start : start + config.batch_size],
            dims,
        )
        logits = forward_batch(params, config, dims, batch)
        loss, _, n = batch_loss_and_dlogits(logits, batch.tgt_out)
        total += loss * n
        tokens += n
    return total / tokens if tokens else math.nan


def adam_step(flat, grad_flat, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    m *= beta1
    m += (1.0 - beta1) * grad_flat
    v *= beta2
    v += (1.0 - beta2) * grad_flat * grad_flat
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    flat -= lr * mhat / (np.sqrt(vhat) + eps)


def train(
    manifest: CorpusManifest,
    vocab: Vocabulary,
    config: ModelConfig,
    source_mode: str = "text",
    outdir=None,
    log=None,
) -> TrainResult:
    """Teacher-forced training with per-epoch loss tracking.

    Checkpoints are captured at every multiple of checkpoint_interval
    (and written under outdir when given, together with the trace CSV).
    """
    if source_mode not in ("text", "features"):
        raise ValueError(f"unknown source_mode {source_mode!r}")
    train_utts = manifest.by_split("train")
    valid_utts = manifest.by_split("valid")
    if not train_utts:
        raise ValueError("manifest has no train split")
    require_augmented(train_utts + valid_utts)

    if source_mode == "text":
        codec = SourceCodec.from_texts([u.text for u in train_utts])
        dims = ModelDims(target_vocab=len(vocab), source_vocab=codec.size)
    else:
        codec = None
        first = encode_source(train_utts[0], None)
        dims = ModelDims(target_vocab=len(vocab), feature_dim=first.shape[1])

    train_src, train_tgt = _prepare_examples(train_utts, vocab, codec)
    valid_src, valid_tgt = _prepare_examples(valid_utts, vocab, codec)

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

    outdir = Path(outdir) if outdir is not None else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)

    trace = TrainingTrace()
    checkpoints: list[Checkpoint] = []
    n = len(train_src)
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n)
        total, tokens = 0.0, 0
        for start in range(0, n, config.batch_size):
            chosen = order[start : start + config.batch_size]
            batch = make_batch(
                [train_src[i] for i in chosen],
                [train_tgt[i] for i in chosen],
                dims,
            )
            try:
                loss, grads, ntok = loss_and_gradient(
                    params, config, dims, batch, dropout_rng=rng_dropout
                )
            except ArithmeticError as exc:
                raise NonFiniteLoss(
                    f"epoch {epoch}, step {step + 1}: {exc}"
                ) from exc
            step += 1
            adam_step(flat, flatten_params(grads, index), m, v, step, config.learning_rate)
            total += loss * ntok
            tokens += ntok
        train_loss = total / tokens if tokens else math.nan
        valid_loss = _epoch_valid_loss(params, config, dims, valid_src, valid_tgt)
        trace.entries.append((train_loss, valid_loss))
        if log is not None:
            log(f"epoch {epoch}: train_loss={train_loss:.6f} valid_loss={valid_loss:.6f}")
        if epoch % config.checkpoint_interval == 0:
            ckpt = Checkpoint(
                epoch=epoch,
                config=config,
                variant=vocab.variant,
                dims=dims,
                params_flat=flat.copy(),
                vocab=vocab,
                codec=codec,
            )
            checkpoints.append(ckpt)
            if outdir is not None:
                save_checkpoint(ckpt, outdir / f"epoch{epoch:04d}.ckpt")
    if outdir is not None:
        trace.write(
            outdir / "trace.csv",
            header_lines=[
                f"seed={config.seed}",
                f"variant={vocab.variant}",
                f"config={json.dumps(asdict(config), sort_keys=True)}",
            ],
        )
    return TrainResult(trace, checkpoints)


def decode_split(
    ckpt: Checkpoint, manifest: CorpusManifest, split: str = "test"
) -> tuple[list[tuple[Utterance, DecodeResult]], BleuReport]:
    """Greedy-decode every utterance of a split under a checkpoint and
    BLEU-score the decodes against the reference atom sequences.

    The split must be non-empty and augmented; both are checked before the
    first decode.
    """
    utts = manifest.by_split(split)
    if not utts:
        raise EmptyCorpus(f"manifest has no {split!r} split")
    require_augmented(utts)
    params = ckpt.params
    decoded = [
        (utt, greedy_decode(params, ckpt.config, encode_source(utt, ckpt.codec), ckpt.vocab))
        for utt in utts
    ]
    report = corpus_bleu(
        [result.sequence.tokens for _, result in decoded],
        [utt.phonemes.tokens for utt, _ in decoded],
        variant=ckpt.variant,
        epoch=ckpt.epoch,
    )
    return decoded, report

"""Encoder-decoder transformer in plain numpy (float64).

Post-norm architecture as in the original design: residual + dropout +
layer norm around each sublayer, sinusoidal positional encodings, scaled
dot-product attention. Forward and backward passes are written out by
hand; gradients are checked against central finite differences in the
test suite. Everything is deterministic given parameter values and the
dropout generator.

Parameters live in a flat name -> array dict whose canonical order comes
from ``param_index``; ``flatten_params``/``unflatten_params`` convert to
and from a single float64 vector (unflatten returns views, so in-place
optimizer updates on the flat vector propagate).

Training-step memory: the sublayer kernels compute in place on arrays they
own; the forward does not cache the dropped attention or the ReLU mask,
which backward rebuilds bit for bit; and ``backward_batch`` consumes its
cache, freeing each sublayer's entry once used. perfbench's one-step
``train`` command peaks at about 794 MB RSS, down from 1,076 MB (medians,
``BENCH_train_memory.json``).

One decoder-layer body, ``_decoder_layer``, serves teacher forcing (the
whole target at once, causal mask) and greedy decoding (one position per
step, against the layer's key/value buffer). A backward cache is kept only
when a backward follows: ``forward_batch`` fills one only when the caller
passes a dict, as ``loss_and_gradient`` does. The valid-loss pass and the
decoder's encoder run keep no layer's activations past that layer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .vocab import BOS_ID, EOS_ID, PAD_ID, Vocabulary, detokenize

NEG = -1e30  # additive mask value; underflows to exactly 0 after softmax
LN_EPS = 1e-5


class ShapeMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class NonFiniteLoss(ArithmeticError):
    pass


class NonFiniteGradient(ArithmeticError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 200
    heads: int = 2
    d_ff: int = 400
    encoder_layers: int = 4
    decoder_layers: int = 1
    epochs: int = 100
    checkpoint_interval: int = 10
    max_target_len: int = 400
    seed: int = 0
    learning_rate: float = 1e-3
    batch_size: int = 32
    dropout: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise TypeError(f"{f.name} must be {kind.__name__}, got {value!r}")
        for name in ("d_model", "heads", "d_ff", "encoder_layers", "decoder_layers",
                     "epochs", "max_target_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.checkpoint_interval <= 0 or self.epochs % self.checkpoint_interval:
            raise ValueError("checkpoint_interval must divide epochs")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class ModelDims:
    """Data-dependent sizes: target vocabulary and source encoding.

    Exactly one of source_vocab (token inputs) or feature_dim (precomputed
    frame-feature inputs) must be set.
    """

    target_vocab: int
    source_vocab: int | None = None
    feature_dim: int | None = None

    def __post_init__(self):
        if (self.source_vocab is None) == (self.feature_dim is None):
            raise ValueError("set exactly one of source_vocab / feature_dim")


@dataclass
class Batch:
    """Padded batch: src (B,S) ids or (B,S,F) features, targets (B,T)."""

    src: np.ndarray
    src_mask: np.ndarray  # (B,S) bool, True = real position
    tgt_in: np.ndarray  # (B,T): BOS + unit ids, PAD-padded
    tgt_out: np.ndarray  # (B,T): unit ids + EOS, PAD-padded


def make_batch(sources, targets, dims: ModelDims) -> Batch:
    """Assemble a padded batch from per-example sources and target id lists."""
    if len(sources) != len(targets):
        raise LengthMismatch(f"{len(sources)} sources vs {len(targets)} targets")
    n = len(sources)
    if dims.feature_dim is None:
        src_lens = [len(s) for s in sources]
        s_max = max(src_lens + [1])
        src = np.zeros((n, s_max), dtype=np.int64)
        src_mask = np.zeros((n, s_max), dtype=bool)
        for i, s in enumerate(sources):
            src[i, : len(s)] = s
            src_mask[i, : len(s)] = True
    else:
        src_lens = [s.shape[0] for s in sources]
        s_max = max(src_lens + [1])
        src = np.zeros((n, s_max, dims.feature_dim), dtype=np.float64)
        src_mask = np.zeros((n, s_max), dtype=bool)
        for i, s in enumerate(sources):
            s = np.asarray(s, dtype=np.float64)
            if s.ndim != 2 or s.shape[1] != dims.feature_dim:
                raise ShapeMismatch(
                    f"feature array {s.shape} does not match feature_dim={dims.feature_dim}"
                )
            src[i, : s.shape[0]] = s
            src_mask[i, : s.shape[0]] = True
    t_max = max([len(t) for t in targets] + [0]) + 1  # room for BOS/EOS shift
    tgt_in = np.full((n, t_max), PAD_ID, dtype=np.int64)
    tgt_out = np.full((n, t_max), PAD_ID, dtype=np.int64)
    for i, t in enumerate(targets):
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1 : len(t) + 1] = t
        tgt_out[i, : len(t)] = t
        tgt_out[i, len(t)] = EOS_ID
    return Batch(src, src_mask, tgt_in, tgt_out)


# ---------------------------------------------------------------------------
# parameters


def param_index(config: ModelConfig, dims: ModelDims) -> list[tuple[str, tuple[int, ...]]]:
    d, ff = config.d_model, config.d_ff
    index: list[tuple[str, tuple[int, ...]]] = []
    if dims.source_vocab is not None:
        index.append(("src_embed", (dims.source_vocab, d)))
    else:
        index.append(("src_proj_w", (dims.feature_dim, d)))
        index.append(("src_proj_b", (d,)))

    def attn(prefix: str):
        for nm in ("wq", "wk", "wv", "wo"):
            index.append((f"{prefix}.{nm}", (d, d)))
        for nm in ("bq", "bk", "bv", "bo"):
            index.append((f"{prefix}.{nm}", (d,)))

    def ln(prefix: str):
        index.append((f"{prefix}.g", (d,)))
        index.append((f"{prefix}.b", (d,)))

    def ffw(prefix: str):
        index.append((f"{prefix}.w1", (d, ff)))
        index.append((f"{prefix}.b1", (ff,)))
        index.append((f"{prefix}.w2", (ff, d)))
        index.append((f"{prefix}.b2", (d,)))

    for i in range(config.encoder_layers):
        attn(f"enc{i}.attn")
        ln(f"enc{i}.ln1")
        ffw(f"enc{i}.ff")
        ln(f"enc{i}.ln2")
    index.append(("tgt_embed", (dims.target_vocab, d)))
    for i in range(config.decoder_layers):
        attn(f"dec{i}.self")
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.cross")
        ln(f"dec{i}.ln2")
        ffw(f"dec{i}.ff")
        ln(f"dec{i}.ln3")
    index.append(("out_w", (d, dims.target_vocab)))
    index.append(("out_b", (dims.target_vocab,)))
    return index


def init_params(
    config: ModelConfig, dims: ModelDims, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Uniform(-1, 1) / sqrt(fan_in) weights, zero biases, unit LN gains."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_index(config, dims):
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            params[name] = np.ones(shape, dtype=np.float64)
        elif leaf.startswith("b") or name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            fan_in = shape[1] if name.endswith("embed") else shape[0]
            bound = 1.0 / math.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def flatten_params(params: dict[str, np.ndarray], index) -> np.ndarray:
    return np.concatenate([params[name].ravel() for name, _ in index])


def unflatten_params(flat: np.ndarray, index) -> dict[str, np.ndarray]:
    """Views into `flat` keyed by name; writing to flat updates the views."""
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in index:
        size = int(np.prod(shape))
        params[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise ShapeMismatch(f"flat vector has {flat.size} entries, expected {offset}")
    return params


def infer_dims(params: dict[str, np.ndarray]) -> ModelDims:
    target_vocab = params["out_b"].shape[0]
    if "src_embed" in params:
        return ModelDims(target_vocab, source_vocab=params["src_embed"].shape[0])
    return ModelDims(target_vocab, feature_dim=params["src_proj_w"].shape[0])


# ---------------------------------------------------------------------------
# primitives


def _pe(length: int, d: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / d)
    pe = np.empty((length, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles[:, 0::2])
    pe[:, 1::2] = np.cos(angles[:, 1::2])
    return pe


def _linear_fwd(x, w, b):
    y = x @ w
    y += b
    return y, (x, w)


def _linear_bwd(dy, cache, grads, wname, bname):
    x, w = cache
    din, dout = w.shape
    grads[wname] += x.reshape(-1, din).T @ dy.reshape(-1, dout)
    grads[bname] += dy.reshape(-1, dout).sum(axis=0)
    return dy @ w.T


def _ln_fwd(x, g, b):
    """Layer norm of x, which it overwrites with the normalized xhat."""
    x -= x.mean(-1, keepdims=True)
    y = x * x
    inv = 1.0 / np.sqrt(y.mean(-1, keepdims=True) + LN_EPS)
    x *= inv
    np.multiply(g, x, out=y)
    y += b
    return y, (x, inv, g)


def _ln_bwd(dy, cache, grads, gname, bname):
    xhat, inv, g = cache
    d = xhat.shape[-1]
    t = dy * xhat
    grads[gname] += t.reshape(-1, d).sum(axis=0)
    grads[bname] += dy.reshape(-1, d).sum(axis=0)
    dx = dy * g  # dxhat, then dx in place
    mean_dxhat_xhat = np.multiply(dx, xhat, out=t).mean(-1, keepdims=True)
    dx -= dx.mean(-1, keepdims=True)
    dx -= np.multiply(xhat, mean_dxhat_xhat, out=t)
    dx *= inv
    return dx


def _dropout_fwd(x, p, rng):
    if p <= 0.0 or rng is None:
        return x, None
    draws = rng.random(x.shape)
    cache = (draws >= p, p)
    return _dropout_bwd(x, cache, out=draws), cache


def _dropout_bwd(dy, cache, out=None):
    """dy * mask / (1 - p), into `out` if given; also the forward's own ops."""
    if cache is None:
        return dy
    mask, p = cache
    out = np.multiply(dy, mask, out=out)
    out /= 1.0 - p
    return out


def _heads_fwd(x, params, prefix, nm, heads):
    """Project x (B,T,d) through `{prefix}.w{nm}`/`b{nm}`, split to (B,heads,T,dh)."""
    y, c = _linear_fwd(x, params[f"{prefix}.w{nm}"], params[f"{prefix}.b{nm}"])
    b, t, d = y.shape
    return y.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3), c


def _attend_fwd(qh, kh, vh, params, prefix, mask, p_drop, rng):
    """Scaled dot-product attention over split heads, merged through wo.
    Caches `attn` and the dropout mask, from which backward rebuilds attn_d."""
    b, heads, tq, dh = qh.shape
    attn = qh @ kh.transpose(0, 1, 3, 2)
    attn /= math.sqrt(dh)
    if mask is not None:
        attn += mask
    attn -= attn.max(-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(-1, keepdims=True)
    attn_d, dcache = _dropout_fwd(attn, p_drop, rng)
    ctx = attn_d @ vh
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, tq, heads * dh)
    out, oc = _linear_fwd(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    return out, (oc, attn, dcache)


def _kv_fwd(x, params, prefix, heads):
    """Keys and values of x split to heads, with their linear caches."""
    kh, kc = _heads_fwd(x, params, prefix, "k", heads)
    vh, vc = _heads_fwd(x, params, prefix, "v", heads)
    return kh, vh, kc, vc


def _mha_fwd(q_in, kv, params, prefix, mask, heads, p_drop, rng):
    """Attention of q_in over kv = (kh, vh, kc, vc), as `_kv_fwd` returns."""
    qh, qc = _heads_fwd(q_in, params, prefix, "q", heads)
    out, (oc, attn, dcache) = _attend_fwd(qh, kv[0], kv[1], params, prefix, mask, p_drop, rng)
    return out, (qc, oc, qh, kv, attn, dcache)


def _mha_bwd(dout, cache, grads, prefix):
    qc, oc, qh, (kh, vh, kc, vc), attn, dcache = cache
    b, heads, tq, dh = qh.shape
    dmerged = _linear_bwd(dout, oc, grads, f"{prefix}.wo", f"{prefix}.bo")
    dctx = dmerged.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = _dropout_bwd(attn, dcache).transpose(0, 1, 3, 2) @ dctx
    _dropout_bwd(dattn, dcache, out=dattn)
    dattn -= (dattn * attn).sum(-1, keepdims=True)
    dattn *= attn
    dattn /= math.sqrt(dh)
    dqh = dattn @ kh
    dkh = dattn.transpose(0, 1, 3, 2) @ qh
    dq = dqh.transpose(0, 2, 1, 3).reshape(b, tq, heads * dh)
    dk = dkh.transpose(0, 2, 1, 3).reshape(b, -1, heads * dh)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b, -1, heads * dh)
    dq_in = _linear_bwd(dq, qc, grads, f"{prefix}.wq", f"{prefix}.bq")
    dkv_in = _linear_bwd(dk, kc, grads, f"{prefix}.wk", f"{prefix}.bk")
    dkv_in = dkv_in + _linear_bwd(dv, vc, grads, f"{prefix}.wv", f"{prefix}.bv")
    return dq_in, dkv_in


def _residual_ln_fwd(x, sub_out, params, prefix, p_drop, rng):
    """LayerNorm(x + dropout(sub_out)); overwrites sub_out, which no cache holds."""
    summed, dcache = _dropout_fwd(sub_out, p_drop, rng)
    summed += x
    y, lncache = _ln_fwd(summed, params[f"{prefix}.g"], params[f"{prefix}.b"])
    return y, (lncache, dcache)


def _residual_ln_bwd(dy, cache, grads, prefix):
    lncache, dcache = cache
    dsummed = _ln_bwd(dy, lncache, grads, f"{prefix}.g", f"{prefix}.b")
    return dsummed, _dropout_bwd(dsummed, dcache)


def _ff_fwd(x, params, prefix):
    h, c1 = _linear_fwd(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    np.maximum(h, 0.0, out=h)
    y, c2 = _linear_fwd(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return y, (c1, c2)


def _ff_bwd(dy, cache, grads, prefix):
    c1, c2 = cache
    dh = _linear_bwd(dy, c2, grads, f"{prefix}.w2", f"{prefix}.b2")
    dh *= c2[0] > 0  # h = relu(pre) is positive exactly where pre is
    return _linear_bwd(dh, c1, grads, f"{prefix}.w1", f"{prefix}.b1")


def _causal_mask(t: int) -> np.ndarray:
    return np.triu(np.full((t, t), NEG), k=1)[None, None, :, :]


# ---------------------------------------------------------------------------
# forward / backward


def _encoder_forward(params, config, dims, batch, p, rng, cache=None):
    """Encoder output and additive source mask. Fills `cache` for backward
    when given a dict; without one, no layer's activations outlive it."""
    # Without a cache, the whole-pass entries go to a throwaway dict (none is
    # larger than the layer input) and no layer's entry is kept.
    cache, layers = ({}, None) if cache is None else (cache, [])
    d = config.d_model
    scale = math.sqrt(d)
    if dims.source_vocab is not None:
        if batch.src.ndim != 2:
            raise ShapeMismatch("token-mode source must be (B, S) ids")
        x = params["src_embed"][batch.src] * scale
    else:
        if batch.src.ndim != 3 or batch.src.shape[2] != dims.feature_dim:
            raise ShapeMismatch("feature-mode source must be (B, S, feature_dim)")
        x, cache["src_proj"] = _linear_fwd(
            batch.src, params["src_proj_w"], params["src_proj_b"]
        )
    x += _pe(batch.src.shape[1], d)
    x, cache["enc_drop"] = _dropout_fwd(x, p, rng)
    src_add = np.where(batch.src_mask, 0.0, NEG)[:, None, None, :]
    cache["enc_layers"] = layers
    for i in range(config.encoder_layers):
        kv = _kv_fwd(x, params, f"enc{i}.attn", config.heads)
        a, c_attn = _mha_fwd(x, kv, params, f"enc{i}.attn", src_add, config.heads, p, rng)
        x, c_r1 = _residual_ln_fwd(x, a, params, f"enc{i}.ln1", p, rng)
        f, c_ff = _ff_fwd(x, params, f"enc{i}.ff")
        x, c_r2 = _residual_ln_fwd(x, f, params, f"enc{i}.ln2", p, rng)
        if layers is not None:
            layers.append([c_attn, c_r1, c_ff, c_r2])
    return x, src_add


def _decoder_layer(params, config, i, y, t, self_kv, cross_kv, src_add, mask, p, rng, cache=None):
    """Decoder layer i over target positions t..t+n of y (B, n, d).

    Writes the positions' self-attention keys and values into `self_kv`,
    the layer's (2, B, heads, >= t+n, dh) buffer, and attends over its first
    t+n positions; `cross_kv` is `_kv_fwd` of the encoder output, computed
    once per layer by the caller. Teacher forcing runs it once with t = 0,
    the whole target and the causal mask; greedy decoding once per step with
    n = 1 and no mask. Appends what backward needs to `cache` unless None."""
    end, heads = t + y.shape[1], config.heads
    k, v, kc, vc = _kv_fwd(y, params, f"dec{i}.self", heads)
    self_kv[0, :, :, t:end], self_kv[1, :, :, t:end] = k, v
    kv = (self_kv[0, :, :, :end], self_kv[1, :, :, :end], kc, vc)
    a, c_self = _mha_fwd(y, kv, params, f"dec{i}.self", mask, heads, p, rng)
    y, c_r1 = _residual_ln_fwd(y, a, params, f"dec{i}.ln1", p, rng)
    c, c_cross = _mha_fwd(y, cross_kv, params, f"dec{i}.cross", src_add, heads, p, rng)
    y, c_r2 = _residual_ln_fwd(y, c, params, f"dec{i}.ln2", p, rng)
    f, c_ff = _ff_fwd(y, params, f"dec{i}.ff")
    y, c_r3 = _residual_ln_fwd(y, f, params, f"dec{i}.ln3", p, rng)
    if cache is not None:
        cache.append([c_self, c_r1, c_cross, c_r2, c_ff, c_r3])
    return y


def _decoder_forward(params, config, enc_out, src_add, tgt_in, p, rng, cache=None):
    """Teacher-forced logits (B, T, V); fills `cache` as `_encoder_forward` does."""
    cache, layers = ({}, None) if cache is None else (cache, [])
    d, heads = config.d_model, config.heads
    b, t_len = tgt_in.shape
    y = params["tgt_embed"][tgt_in] * math.sqrt(d) + _pe(t_len, d)
    y, cache["dec_drop"] = _dropout_fwd(y, p, rng)
    causal = _causal_mask(t_len)
    cache["dec_layers"] = layers
    for i in range(config.decoder_layers):
        kv = np.empty((2, b, heads, t_len, d // heads))
        cross = _kv_fwd(enc_out, params, f"dec{i}.cross", heads)
        y = _decoder_layer(params, config, i, y, 0, kv, cross, src_add, causal, p, rng, layers)
    logits, cache["out"] = _linear_fwd(y, params["out_w"], params["out_b"])
    return logits


def forward_batch(params, config: ModelConfig, dims: ModelDims, batch: Batch, dropout_rng=None,
                  cache: dict | None = None) -> np.ndarray:
    """Logits (B,T,V). Pass a `cache` dict only when `backward_batch` follows:
    the forward then fills it; otherwise it keeps no activation past its layer."""
    p = config.dropout if dropout_rng is not None else 0.0
    if cache is not None:
        cache.update(batch=batch, scale=math.sqrt(config.d_model), dims=dims, config=config)
    enc_out, src_add = _encoder_forward(params, config, dims, batch, p, dropout_rng, cache)
    return _decoder_forward(params, config, enc_out, src_add, batch.tgt_in, p, dropout_rng, cache)


def backward_batch(dlogits, cache, params) -> dict[str, np.ndarray]:
    """Gradients of every parameter. Consumes `cache`: each sublayer's entry
    is popped, in reverse forward order, so it is freed as soon as it is used."""
    config: ModelConfig = cache["config"]
    dims: ModelDims = cache["dims"]
    batch: Batch = cache["batch"]
    scale = cache["scale"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}

    dy = _linear_bwd(dlogits, cache.pop("out"), grads, "out_w", "out_b")
    denc = None
    for i in reversed(range(config.decoder_layers)):
        layer = cache["dec_layers"].pop()
        dy, df = _residual_ln_bwd(dy, layer.pop(), grads, f"dec{i}.ln3")
        dy = dy + _ff_bwd(df, layer.pop(), grads, f"dec{i}.ff")
        dy, dc = _residual_ln_bwd(dy, layer.pop(), grads, f"dec{i}.ln2")
        dq, dkv = _mha_bwd(dc, layer.pop(), grads, f"dec{i}.cross")
        dy = dy + dq
        denc = dkv if denc is None else denc + dkv
        dy, da = _residual_ln_bwd(dy, layer.pop(), grads, f"dec{i}.ln1")
        dq, dkv = _mha_bwd(da, layer.pop(), grads, f"dec{i}.self")
        dy = dy + dq + dkv
    dy = _dropout_bwd(dy, cache["dec_drop"])
    np.add.at(grads["tgt_embed"], batch.tgt_in, dy * scale)

    dx = denc  # decoder_layers >= 1, so cross-attention always contributed
    for i in reversed(range(config.encoder_layers)):
        layer = cache["enc_layers"].pop()
        dx, df = _residual_ln_bwd(dx, layer.pop(), grads, f"enc{i}.ln2")
        dx = dx + _ff_bwd(df, layer.pop(), grads, f"enc{i}.ff")
        dx, da = _residual_ln_bwd(dx, layer.pop(), grads, f"enc{i}.ln1")
        dq, dkv = _mha_bwd(da, layer.pop(), grads, f"enc{i}.attn")
        dx = dx + dq + dkv
    dx = _dropout_bwd(dx, cache["enc_drop"])
    if dims.source_vocab is not None:
        np.add.at(grads["src_embed"], batch.src, dx * scale)
    else:
        _linear_bwd(dx, cache["src_proj"], grads, "src_proj_w", "src_proj_b")
    return grads


def batch_loss_and_dlogits(logits: np.ndarray, tgt_out: np.ndarray):
    """Mean token cross-entropy over non-PAD positions, plus its gradient."""
    if logits.shape[:2] != tgt_out.shape:
        raise LengthMismatch(
            f"logits {logits.shape} do not align with targets {tgt_out.shape}"
        )
    mask = tgt_out != PAD_ID
    n_tokens = int(mask.sum())
    if n_tokens == 0:
        warnings.warn("loss over all-PAD targets defined as 0", stacklevel=2)
        return 0.0, np.zeros_like(logits), 0
    z = logits - logits.max(-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(-1, keepdims=True))
    logp = z - logsumexp
    picked = np.take_along_axis(logp, tgt_out[..., None], axis=-1)[..., 0]
    loss = -picked[mask].sum() / n_tokens
    dlogits = np.exp(logp)
    b_idx = np.arange(tgt_out.shape[0])[:, None]
    t_idx = np.arange(tgt_out.shape[1])[None, :]
    dlogits[b_idx, t_idx, tgt_out] -= 1.0
    dlogits *= mask[..., None] / n_tokens
    return float(loss), dlogits, n_tokens


def loss_and_gradient(params, config, dims, batch, dropout_rng=None):
    """(loss, grads dict) for one batch; raises on non-finite values."""
    cache: dict = {}
    logits = forward_batch(params, config, dims, batch, dropout_rng, cache)
    loss, dlogits, n_tokens = batch_loss_and_dlogits(logits, batch.tgt_out)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss = {loss}")
    grads = backward_batch(dlogits, cache, params)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    return loss, grads, n_tokens


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class DecodeResult:
    ids: tuple[int, ...]  # emitted unit ids, BOS/EOS excluded
    sequence: "object"  # PhonemeSequence of atoms
    truncated: bool


def greedy_decode(params, config: ModelConfig, source, vocab: Vocabulary) -> DecodeResult:
    """Argmax decoding from BOS until EOS or config.max_target_len (flagged).

    Incremental: the encoder and each decoder layer's cross-attention keys
    and values are computed once per source; each step then runs only the
    newest position through `_decoder_layer`, which stores its self-attention
    keys and values in the layer's buffer and attends over the positions so far.
    """
    dims = infer_dims(params)
    batch = make_batch([source], [[]], dims)
    enc_out, src_add = _encoder_forward(params, config, dims, batch, 0.0, None)
    d, heads, cap = config.d_model, config.heads, config.max_target_len
    scale = math.sqrt(d)
    pe = _pe(cap, d)
    layers = [(np.empty((2, 1, heads, cap, d // heads)),
               _kv_fwd(enc_out, params, f"dec{i}.cross", heads))
              for i in range(config.decoder_layers)]
    emitted: list[int] = []
    nxt = BOS_ID
    for t in range(cap):
        y = params["tgt_embed"][[[nxt]]] * scale + pe[t]
        for i, (self_kv, cross_kv) in enumerate(layers):
            y = _decoder_layer(params, config, i, y, t, self_kv, cross_kv, src_add, None, 0.0, None)
        logits, _ = _linear_fwd(y[0, 0], params["out_w"], params["out_b"])
        nxt = int(np.argmax(logits))
        if nxt == EOS_ID:
            return DecodeResult(tuple(emitted), detokenize(emitted, vocab), False)
        emitted.append(nxt)
    return DecodeResult(tuple(emitted), detokenize(emitted, vocab), True)

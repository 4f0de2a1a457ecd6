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
own. The backward cache holds the two embedding outputs and, per sublayer,
only what backward cannot rebuild: the attention's split heads and
probabilities; the feed-forward's hidden layer; each layer norm's xhat,
inverse standard deviation and parameters; and each dropout mask, packed 8
to a byte. It holds no layer-norm output: backward rebuilds one bit for bit
from its layer norm's cache, once per sublayer that consumed it, and frees
it after use, as it does the dropped attention, the attention's merged
context and the ReLU mask. Each rebuild runs the forward's own ops on the
same shapes. ``backward_batch`` consumes the cache, and each backward kernel
frees its temporaries after their last use. perfbench's one-step ``train``
command peaks at about 577 MB RSS, down from 647 MB (medians,
``BENCH_train_memory_3.json``), 786 MB (``BENCH_train_memory_2.json``) and
1,076 MB before the in-place kernels (``BENCH_train_memory.json``).

One decoder-layer body, ``_decoder_layer``, serves teacher forcing (the
whole target at once, causal mask) and greedy decoding (one position per
step, against the layer's key/value buffer). A backward cache is kept only
when a backward follows: ``forward_batch`` fills one only when the caller
passes a dict, as ``loss_and_gradient`` does. The valid-loss pass and the
decoder's encoder run keep no sublayer's activations past that sublayer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, NonFiniteGradient, NonFiniteLoss
from .vocab import BOS_ID, EOS_ID, PAD_ID, Vocabulary, detokenize

NEG = -1e30  # additive mask value; underflows to exactly 0 after softmax
LN_EPS = 1e-5


class ShapeMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


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
    return y


def _linear_bwd(dy, x, params, grads, wname, bname):
    """Gradient into x of x @ w + b, after adding dw and db to `grads`."""
    w = params[wname]
    din, dout = w.shape
    grads[wname] += x.reshape(-1, din).T @ dy.reshape(-1, dout)
    grads[bname] += dy.reshape(-1, dout).sum(axis=0)
    return dy @ w.T


def _ln_fwd(x, g, b):
    """Layer norm of x, which it overwrites with the normalized xhat. The
    cache holds no output: `_ln_out` rebuilds it from xhat. Each mean is
    written as the sum and divide that `ndarray.mean` does, without its
    Python wrapper, which costs more than the sum on a decode step's row."""
    d = x.shape[-1]
    x -= x.sum(-1, keepdims=True) / d
    y = x * x
    inv = 1.0 / np.sqrt(y.sum(-1, keepdims=True) / d + LN_EPS)
    x *= inv
    cache = (x, inv, g, b)
    return _ln_out(cache, out=y), cache


def _ln_out(cache, out=None):
    """g * xhat + b, into `out` if given: the forward's output, and the same
    bits again when backward rebuilds it from the cache."""
    xhat, _, g, b = cache
    out = np.multiply(g, xhat, out=out)
    out += b
    return out


def _ln_bwd(dy, cache, grads, gname, bname):
    xhat, inv, g, _ = cache
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


def _input(src):
    """A linear's input from its source: the array itself (an embedding
    output), or the output of the layer norm whose cache `src` is, rebuilt."""
    return src if isinstance(src, np.ndarray) else _ln_out(src)


def _dropout_fwd(x, p, rng):
    """x * mask / (1 - p). The cache holds the mask packed 8 to a byte."""
    if p <= 0.0 or rng is None:
        return x, None
    draws = rng.random(x.shape)
    mask = draws >= p
    return _apply_mask(x, mask, p, out=draws), (np.packbits(mask), x.shape, p)


def _dropout_bwd(dy, cache, out=None):
    """dy * mask / (1 - p), into `out` if given, with the forward's mask
    unpacked from the cache."""
    if cache is None:
        return dy
    bits, shape, p = cache
    mask = np.unpackbits(bits, count=math.prod(shape)).reshape(shape).view(bool)
    return _apply_mask(dy, mask, p, out)


def _apply_mask(x, mask, p, out=None):
    """x * mask / (1 - p), into `out` if given: the same ops forward and back."""
    out = np.multiply(x, mask, out=out)
    out /= 1.0 - p
    return out


def _heads_fwd(x, params, prefix, nm, heads):
    """Project x (B,T,d) through `{prefix}.w{nm}`/`b{nm}`, split to (B,heads,T,dh)."""
    y = _linear_fwd(x, params[f"{prefix}.w{nm}"], params[f"{prefix}.b{nm}"])
    b, t, d = y.shape
    return y.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(xh):
    """(B,heads,T,dh) -> (B,T,heads*dh)."""
    b, heads, t, dh = xh.shape
    return xh.transpose(0, 2, 1, 3).reshape(b, t, heads * dh)


def _attend_fwd(qh, kh, vh, params, prefix, mask, p_drop, rng):
    """Scaled dot-product attention over split heads, merged through wo.
    Also returns `attn` and the dropout cache, from which backward rebuilds
    attn_d and then the merged context."""
    dh = qh.shape[-1]
    attn = qh @ kh.transpose(0, 1, 3, 2)
    attn /= math.sqrt(dh)
    if mask is not None:
        attn += mask
    attn -= attn.max(-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(-1, keepdims=True)
    attn_d, dcache = _dropout_fwd(attn, p_drop, rng)
    merged = _merge_heads(attn_d @ vh)
    return _linear_fwd(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"]), attn, dcache


def _kv_fwd(x, params, prefix, heads):
    """Keys and values of x, split to heads."""
    return _heads_fwd(x, params, prefix, "k", heads), _heads_fwd(x, params, prefix, "v", heads)


def _mha_fwd(q_in, kv, params, prefix, mask, heads, p_drop, rng, cache):
    """Attention of q_in over kv = (kh, vh), as `_kv_fwd` returns. Appends what
    backward needs, but neither input, to the list `cache` unless None."""
    qh = _heads_fwd(q_in, params, prefix, "q", heads)
    out, attn, dcache = _attend_fwd(qh, *kv, params, prefix, mask, p_drop, rng)
    if cache is not None:
        cache.append((qh, kv, attn, dcache))
    return out


def _mha_bwd(dout, cache, params, grads, prefix, q_src, kv_src):
    """Gradients into `_mha_fwd`'s q_in and into the input of its keys and
    values, which it rebuilds from their sources (`_input`), once if one
    source serves both. The caller has popped `cache`, so every array here is
    freed after its last use."""
    qh, (kh, vh), attn, dcache = cache
    del cache
    b, heads, tq, dh = qh.shape
    attn_d = _dropout_bwd(attn, dcache)  # rebuilt into a new buffer, or attn itself
    merged = _merge_heads(attn_d @ vh)  # rebuilt with the forward's ops and shapes
    dmerged = _linear_bwd(dout, merged, params, grads, f"{prefix}.wo", f"{prefix}.bo")
    del merged
    dctx = dmerged.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)
    dvh = attn_d.transpose(0, 1, 3, 2) @ dctx
    del attn_d
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    del dmerged, dctx, vh
    _dropout_bwd(dattn, dcache, out=dattn)
    prod = dattn * attn
    dattn -= prod.sum(-1, keepdims=True)
    del prod
    dattn *= attn
    del attn
    dattn /= math.sqrt(dh)
    dqh = dattn @ kh
    dkh = dattn.transpose(0, 1, 3, 2) @ qh
    del dattn, qh, kh
    dq = _merge_heads(dqh)
    del dqh
    x = _input(q_src)
    dq_in = _linear_bwd(dq, x, params, grads, f"{prefix}.wq", f"{prefix}.bq")
    del dq
    if kv_src is not q_src:
        del x
        x = _input(kv_src)
    dk = _merge_heads(dkh)
    del dkh
    dkv_in = _linear_bwd(dk, x, params, grads, f"{prefix}.wk", f"{prefix}.bk")
    del dk
    dv = _merge_heads(dvh)
    del dvh
    dkv_in += _linear_bwd(dv, x, params, grads, f"{prefix}.wv", f"{prefix}.bv")
    return dq_in, dkv_in


def _residual_ln_fwd(x, sub_out, params, prefix, p_drop, rng, cache):
    """LayerNorm(x + dropout(sub_out)); overwrites sub_out, which no cache
    holds. Appends its layer norm's cache and the dropout mask to `cache`."""
    summed, dcache = _dropout_fwd(sub_out, p_drop, rng)
    summed += x
    y, lncache = _ln_fwd(summed, params[f"{prefix}.g"], params[f"{prefix}.b"])
    if cache is not None:
        cache.append((lncache, dcache))
    return y


def _residual_ln_bwd(dy, cache, grads, prefix):
    lncache, dcache = cache
    dsummed = _ln_bwd(dy, lncache, grads, f"{prefix}.g", f"{prefix}.b")
    return dsummed, _dropout_bwd(dsummed, dcache)


def _ff_fwd(x, params, prefix, cache):
    """relu(x @ w1 + b1) @ w2 + b2; appends the hidden layer to `cache`."""
    h = _linear_fwd(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    np.maximum(h, 0.0, out=h)
    y = _linear_fwd(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    if cache is not None:
        cache.append(h)
    return y


def _ff_bwd(dy, h, params, grads, prefix, x_src):
    dh = _linear_bwd(dy, h, params, grads, f"{prefix}.w2", f"{prefix}.b2")
    dh *= h > 0  # h = relu(pre) is positive exactly where pre is
    del h
    return _linear_bwd(dh, _input(x_src), params, grads, f"{prefix}.w1", f"{prefix}.b1")


def _causal_mask(t: int) -> np.ndarray:
    return np.triu(np.full((t, t), NEG), k=1)[None, None, :, :]


# ---------------------------------------------------------------------------
# forward / backward
#
# A training cache holds, per layer, the list of its sublayers' entries in
# forward order; a residual layer norm's entry is (layer norm cache, dropout
# mask). No layer's entry holds a layer norm's output or any sublayer input:
# backward rebuilds a linear's input from the cache of the layer norm that
# produced it (`_input` of `_ln_of`), which is still in the cache because
# backward reaches that layer norm only after all its consumers.


def _ln_of(layer):
    """The cache of the layer norm that ends `layer`, a list of sublayer
    entries whose last is a residual layer norm's."""
    return layer[-1][0]


def _encoder_forward(params, config, dims, batch, p, rng, cache=None):
    """Encoder output and additive source mask. Fills `cache` for backward
    when given a dict; without one, each sublayer's activations die with it."""
    d, heads = config.d_model, config.heads
    scale = math.sqrt(d)
    if dims.source_vocab is not None:
        if batch.src.ndim != 2:
            raise ShapeMismatch("token-mode source must be (B, S) ids")
        x = params["src_embed"][batch.src] * scale
    else:
        if batch.src.ndim != 3 or batch.src.shape[2] != dims.feature_dim:
            raise ShapeMismatch("feature-mode source must be (B, S, feature_dim)")
        x = _linear_fwd(batch.src, params["src_proj_w"], params["src_proj_b"])
    x += _pe(batch.src.shape[1], d)
    x, dcache = _dropout_fwd(x, p, rng)
    src_add = np.where(batch.src_mask, 0.0, NEG)[:, None, None, :]
    layers = None if cache is None else []
    if cache is not None:
        cache.update(enc_drop=dcache, enc_in=x, enc_layers=layers)
    for i in range(config.encoder_layers):
        layer = None if cache is None else []
        a = _mha_fwd(x, _kv_fwd(x, params, f"enc{i}.attn", heads), params, f"enc{i}.attn",
                     src_add, heads, p, rng, layer)
        x = _residual_ln_fwd(x, a, params, f"enc{i}.ln1", p, rng, layer)
        del a  # overwritten by the residual: a dead buffer, or the layer norm's xhat
        a = _ff_fwd(x, params, f"enc{i}.ff", layer)
        x = _residual_ln_fwd(x, a, params, f"enc{i}.ln2", p, rng, layer)
        del a
        if layers is not None:
            layers.append(layer)
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
    layer = None if cache is None else []
    self_kv[0, :, :, t:end], self_kv[1, :, :, t:end] = _kv_fwd(y, params, f"dec{i}.self", heads)
    kv = (self_kv[0, :, :, :end], self_kv[1, :, :, :end])
    a = _mha_fwd(y, kv, params, f"dec{i}.self", mask, heads, p, rng, layer)
    y = _residual_ln_fwd(y, a, params, f"dec{i}.ln1", p, rng, layer)
    del a
    a = _mha_fwd(y, cross_kv, params, f"dec{i}.cross", src_add, heads, p, rng, layer)
    y = _residual_ln_fwd(y, a, params, f"dec{i}.ln2", p, rng, layer)
    del a
    a = _ff_fwd(y, params, f"dec{i}.ff", layer)
    y = _residual_ln_fwd(y, a, params, f"dec{i}.ln3", p, rng, layer)
    if cache is not None:
        cache.append(layer)
    return y


def _decoder_forward(params, config, enc_out, src_add, tgt_in, p, rng, cache=None):
    """Teacher-forced logits (B, T, V); fills `cache` as `_encoder_forward` does."""
    d, heads = config.d_model, config.heads
    b, t_len = tgt_in.shape
    y = params["tgt_embed"][tgt_in] * math.sqrt(d) + _pe(t_len, d)
    y, dcache = _dropout_fwd(y, p, rng)
    layers = None if cache is None else []
    if cache is not None:
        cache.update(dec_drop=dcache, dec_in=y, dec_layers=layers)
    causal = _causal_mask(t_len)
    for i in range(config.decoder_layers):
        y = _decoder_layer(params, config, i, y, 0, np.empty((2, b, heads, t_len, d // heads)),
                           _kv_fwd(enc_out, params, f"dec{i}.cross", heads), src_add, causal,
                           p, rng, layers)
    return _linear_fwd(y, params["out_w"], params["out_b"])


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
    is popped, in reverse forward order, so it is freed as soon as it is used.
    A layer's input is the output of the last layer norm of the layer below
    (`_ln_of`), or for the first layer the embedding output, `enc_in` or
    `dec_in`, which backward pops when it reaches that layer."""
    config: ModelConfig = cache["config"]
    dims: ModelDims = cache["dims"]
    batch: Batch = cache["batch"]
    scale = cache["scale"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    enc, dec = cache["enc_layers"], cache["dec_layers"]

    dy = _linear_bwd(dlogits, _input(_ln_of(dec[-1])), params, grads, "out_w", "out_b")
    denc = None
    for i in reversed(range(config.decoder_layers)):
        layer = dec.pop()
        y_src = _ln_of(dec[-1]) if dec else cache.pop("dec_in")
        dy, df = _residual_ln_bwd(dy, layer.pop(), grads, f"dec{i}.ln3")
        dy += _ff_bwd(df, layer.pop(), params, grads, f"dec{i}.ff", _ln_of(layer))
        dy, dc = _residual_ln_bwd(dy, layer.pop(), grads, f"dec{i}.ln2")
        dq, dkv = _mha_bwd(dc, layer.pop(), params, grads, f"dec{i}.cross", _ln_of(layer),
                           _ln_of(enc[-1]))
        dy += dq
        if denc is None:
            denc = dkv
        else:
            denc += dkv
        del dq, dkv
        dy, da = _residual_ln_bwd(dy, layer.pop(), grads, f"dec{i}.ln1")
        dq, dkv = _mha_bwd(da, layer.pop(), params, grads, f"dec{i}.self", y_src, y_src)
        dy += dq
        dy += dkv
    del y_src, df, dc, da, dq, dkv  # nothing of the decoder outlives it
    dy = _dropout_bwd(dy, cache["dec_drop"])
    np.add.at(grads["tgt_embed"], batch.tgt_in, dy * scale)

    dx = denc  # decoder_layers >= 1, so cross-attention always contributed
    for i in reversed(range(config.encoder_layers)):
        layer = enc.pop()
        x_src = _ln_of(enc[-1]) if enc else cache.pop("enc_in")
        dx, df = _residual_ln_bwd(dx, layer.pop(), grads, f"enc{i}.ln2")
        dx += _ff_bwd(df, layer.pop(), params, grads, f"enc{i}.ff", _ln_of(layer))
        dx, da = _residual_ln_bwd(dx, layer.pop(), grads, f"enc{i}.ln1")
        dq, dkv = _mha_bwd(da, layer.pop(), params, grads, f"enc{i}.attn", x_src, x_src)
        dx += dq
        dx += dkv
    dx = _dropout_bwd(dx, cache["enc_drop"])
    if dims.source_vocab is not None:
        np.add.at(grads["src_embed"], batch.src, dx * scale)
    else:
        _linear_bwd(dx, batch.src, params, grads, "src_proj_w", "src_proj_b")
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
        y = (params["tgt_embed"][nxt] * scale + pe[t])[None, None]
        for i, (self_kv, cross_kv) in enumerate(layers):
            y = _decoder_layer(params, config, i, y, t, self_kv, cross_kv, src_add, None, 0.0, None)
        logits = _linear_fwd(y[0, 0], params["out_w"], params["out_b"])
        nxt = int(logits.argmax())
        if nxt == EOS_ID:
            return DecodeResult(tuple(emitted), detokenize(emitted, vocab), False)
        emitted.append(nxt)
    return DecodeResult(tuple(emitted), detokenize(emitted, vocab), True)

"""Shared fixtures: bundled tables, toy corpora, synthetic inventories,
single-sequence model helpers over the batched interface, the prefix-rerun
greedy decoder that the incremental one is checked against, and the
reference training step that the in-place one is checked against."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bigphon import model
from bigphon.corpus import CorpusManifest, Utterance, augment, split_corpus
from bigphon.g2p import load_default_rules
from bigphon.ipa import (
    PhonemeSequence,
    induce_inventory,
    load_default_classification,
)
from bigphon.model import (
    LN_EPS,
    NEG,
    Batch,
    DecodeResult,
    ModelConfig,
    ModelDims,
    NonFiniteGradient,
    NonFiniteLoss,
    ShapeMismatch,
    _causal_mask,
    _pe,
    batch_loss_and_dlogits,
    flatten_params,
    infer_dims,
    make_batch,
    param_index,
)
from bigphon.vocab import BOS_ID, EOS_ID, Vocabulary, detokenize

TOY_WORDS = [
    "als", "sie", "von", "dem", "schönen", "geist", "und", "wurden", "das",
    "die", "sonne", "wasser", "mann", "kind", "stadt", "haus", "berg", "tal",
    "licht", "nacht", "tag", "morgen", "abend", "wind", "regen", "schnee",
    "blume", "baum", "wald", "fluss",
]

# 24 vowels + 25 consonants = 49 atoms, all classifiable under the bundled
# table; rich enough to supply >=30 bigrams per scope.
SYNTH_VOWELS = [
    "a", "e", "i", "o", "u", "y", "ɑ", "ɐ", "ə", "ɛ", "ɪ", "ɔ", "ʊ", "ʏ",
    "ø", "œ", "a:", "e:", "i:", "o:", "u:", "y:", "ø:", "ɛ:",
]
SYNTH_CONSONANTS = [
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "q", "r",
    "s", "t", "v", "w", "x", "z", "ç", "ŋ", "ʁ", "ʃ", "ʒ",
]


@pytest.fixture(scope="session")
def classes():
    return load_default_classification()


@pytest.fixture(scope="session")
def rules():
    return load_default_rules()


def make_toy_manifest(n: int, seed: int, sizes=None, rules=None, classes=None):
    """Augmented toy manifest of German word salads."""
    rules = rules or load_default_rules()
    classes = classes or load_default_classification()
    rng = np.random.default_rng(seed)
    texts = [
        " ".join(rng.choice(TOY_WORDS, size=int(rng.integers(3, 7))))
        for _ in range(n)
    ]
    utts = tuple(Utterance(f"u{i:04d}", t) for i, t in enumerate(texts))
    manifest = augment(CorpusManifest(utts), rules, classes)
    if sizes is not None:
        manifest = split_corpus(manifest, sizes, seed)
    return manifest


def synthetic_corpus() -> list[PhonemeSequence]:
    """Sequences whose induced inventory has exactly 49 atoms."""
    words = [[s] for s in SYNTH_VOWELS + SYNTH_CONSONANTS]
    for a in SYNTH_VOWELS[:6]:
        for b in SYNTH_VOWELS[:6]:
            words.append([a, b])
    for a in SYNTH_CONSONANTS[:6]:
        for b in SYNTH_CONSONANTS[:6]:
            words.append([a, b])
    return [PhonemeSequence.from_words([w]) for w in words]


@pytest.fixture(scope="session")
def synthetic_inventory(classes):
    return induce_inventory(synthetic_corpus(), classes)


def forward(params, config: ModelConfig, source, target_prefix) -> np.ndarray:
    """Logits (len(target_prefix), vocab) for one teacher-forced prefix."""
    dims = infer_dims(params)
    batch = make_batch([source], [[]], dims)
    batch.tgt_in = np.asarray([target_prefix], dtype=np.int64)
    logits = model.forward_batch(params, config, dims, batch)
    return logits[0]


def loss(logits: np.ndarray, target) -> float:
    """Mean cross-entropy of a single (T, V) logit block vs T target ids."""
    target = np.asarray(target, dtype=np.int64)
    value, _, _ = batch_loss_and_dlogits(logits[None], target[None])
    return value


def gradient(params, config: ModelConfig, batch) -> np.ndarray:
    """Flat gradient vector in canonical parameter order (no dropout)."""
    dims = infer_dims(params)
    _, grads, _ = model.loss_and_gradient(params, config, dims, batch)
    return flatten_params(grads, param_index(config, dims))


def reference_greedy_decode(params, config: ModelConfig, source, vocab: Vocabulary) -> DecodeResult:
    """Oracle for `greedy_decode`: rerun the full decoder of the reference
    step below over the growing prefix at every step and take the argmax of
    its last row."""
    dims = infer_dims(params)
    batch = make_batch([source], [[]], dims)
    enc_out, src_add = _encoder_forward(params, config, dims, batch, 0.0, None, {})
    prefix = [BOS_ID]
    emitted: list[int] = []
    truncated = True
    for _ in range(config.max_target_len):
        tgt_in = np.asarray([prefix], dtype=np.int64)
        logits = _decoder_forward(params, config, enc_out, src_add, tgt_in, 0.0, None, {})
        nxt = int(np.argmax(logits[0, -1]))
        if nxt == EOS_ID:
            truncated = False
            break
        emitted.append(nxt)
        prefix.append(nxt)
    return DecodeResult(tuple(emitted), detokenize(emitted, vocab), truncated)


# ---------------------------------------------------------------------------
# Reference training step: the model's forward and backward as they were
# before the sublayer kernels computed in place and the cache shed what
# backward can rebuild. Kept verbatim; `bigphon.model` must match it bit for
# bit (tests/test_model.py::TestBitwiseOracle).


def _linear_fwd(x, w, b):
    return x @ w + b, (x, w)


def _linear_bwd(dy, cache, grads, wname, bname):
    x, w = cache
    din, dout = w.shape
    grads[wname] += x.reshape(-1, din).T @ dy.reshape(-1, dout)
    grads[bname] += dy.reshape(-1, dout).sum(axis=0)
    return dy @ w.T


def _ln_fwd(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _ln_bwd(dy, cache, grads, gname, bname):
    xhat, inv, g = cache
    d = xhat.shape[-1]
    grads[gname] += (dy * xhat).reshape(-1, d).sum(axis=0)
    grads[bname] += dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * g
    return inv * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )


def _softmax(x):
    z = x - x.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


def _dropout_fwd(x, p, rng):
    if p <= 0.0 or rng is None:
        return x, None
    mask = rng.random(x.shape) >= p
    return x * mask / (1.0 - p), (mask, p)


def _dropout_bwd(dy, cache):
    if cache is None:
        return dy
    mask, p = cache
    return dy * mask / (1.0 - p)


def _heads_fwd(x, params, prefix, nm, heads):
    """Project x (B,T,d) through `{prefix}.w{nm}`/`b{nm}`, split to (B,heads,T,dh)."""
    y, c = _linear_fwd(x, params[f"{prefix}.w{nm}"], params[f"{prefix}.b{nm}"])
    b, t, d = y.shape
    return y.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3), c


def _attend_fwd(qh, kh, vh, params, prefix, mask, p_drop, rng):
    """Scaled dot-product attention over split heads, merged through wo."""
    b, heads, tq, dh = qh.shape
    scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dh)
    if mask is not None:
        scores = scores + mask
    attn = _softmax(scores)
    attn_d, dcache = _dropout_fwd(attn, p_drop, rng)
    ctx = attn_d @ vh
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, tq, heads * dh)
    out, oc = _linear_fwd(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    return out, (oc, attn, attn_d, dcache)


def _mha_fwd(q_in, kv_in, params, prefix, mask, heads, p_drop, rng):
    qh, qc = _heads_fwd(q_in, params, prefix, "q", heads)
    kh, kc = _heads_fwd(kv_in, params, prefix, "k", heads)
    vh, vc = _heads_fwd(kv_in, params, prefix, "v", heads)
    out, (oc, attn, attn_d, dcache) = _attend_fwd(qh, kh, vh, params, prefix, mask, p_drop, rng)
    return out, (qc, kc, vc, oc, qh, kh, vh, attn, attn_d, dcache)


def _mha_bwd(dout, cache, grads, prefix):
    qc, kc, vc, oc, qh, kh, vh, attn, attn_d, dcache = cache
    b, heads, tq, dh = qh.shape
    tk = kh.shape[2]
    d = heads * dh
    dmerged = _linear_bwd(dout, oc, grads, f"{prefix}.wo", f"{prefix}.bo")
    dctx = dmerged.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)
    dattn_d = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = attn_d.transpose(0, 1, 3, 2) @ dctx
    dattn = _dropout_bwd(dattn_d, dcache)
    dscores = attn * (dattn - (dattn * attn).sum(-1, keepdims=True))
    dscores /= math.sqrt(dh)
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 1, 3, 2) @ qh
    dq = dqh.transpose(0, 2, 1, 3).reshape(b, tq, d)
    dk = dkh.transpose(0, 2, 1, 3).reshape(b, tk, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b, tk, d)
    dq_in = _linear_bwd(dq, qc, grads, f"{prefix}.wq", f"{prefix}.bq")
    dkv_in = _linear_bwd(dk, kc, grads, f"{prefix}.wk", f"{prefix}.bk")
    dkv_in = dkv_in + _linear_bwd(dv, vc, grads, f"{prefix}.wv", f"{prefix}.bv")
    return dq_in, dkv_in


def _residual_ln_fwd(x, sub_out, params, prefix, p_drop, rng):
    dropped, dcache = _dropout_fwd(sub_out, p_drop, rng)
    y, lncache = _ln_fwd(x + dropped, params[f"{prefix}.g"], params[f"{prefix}.b"])
    return y, (lncache, dcache)


def _residual_ln_bwd(dy, cache, grads, prefix):
    lncache, dcache = cache
    dsummed = _ln_bwd(dy, lncache, grads, f"{prefix}.g", f"{prefix}.b")
    dsub = _dropout_bwd(dsummed, dcache)
    return dsummed, dsub


def _ff_fwd(x, params, prefix):
    pre, c1 = _linear_fwd(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    h = np.maximum(pre, 0.0)
    y, c2 = _linear_fwd(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return y, (c1, pre > 0, c2)


def _ff_bwd(dy, cache, grads, prefix):
    c1, relu_mask, c2 = cache
    dh = _linear_bwd(dy, c2, grads, f"{prefix}.w2", f"{prefix}.b2")
    return _linear_bwd(dh * relu_mask, c1, grads, f"{prefix}.w1", f"{prefix}.b1")


def _encoder_forward(params, config, dims, batch, p, rng, cache):
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
    x = x + _pe(batch.src.shape[1], d)
    x, cache["enc_drop"] = _dropout_fwd(x, p, rng)
    src_add = np.where(batch.src_mask, 0.0, NEG)[:, None, None, :]
    cache["enc_layers"] = []
    for i in range(config.encoder_layers):
        a, c_attn = _mha_fwd(x, x, params, f"enc{i}.attn", src_add, config.heads, p, rng)
        x, c_r1 = _residual_ln_fwd(x, a, params, f"enc{i}.ln1", p, rng)
        f, c_ff = _ff_fwd(x, params, f"enc{i}.ff")
        x, c_r2 = _residual_ln_fwd(x, f, params, f"enc{i}.ln2", p, rng)
        cache["enc_layers"].append((c_attn, c_r1, c_ff, c_r2))
    return x, src_add


def _decoder_forward(params, config, enc_out, src_add, tgt_in, p, rng, cache):
    d = config.d_model
    scale = math.sqrt(d)
    t_len = tgt_in.shape[1]
    y = params["tgt_embed"][tgt_in] * scale + _pe(t_len, d)
    y, cache["dec_drop"] = _dropout_fwd(y, p, rng)
    causal = _causal_mask(t_len)
    cache["dec_layers"] = []
    for i in range(config.decoder_layers):
        a, c_self = _mha_fwd(y, y, params, f"dec{i}.self", causal, config.heads, p, rng)
        y, c_r1 = _residual_ln_fwd(y, a, params, f"dec{i}.ln1", p, rng)
        c, c_cross = _mha_fwd(y, enc_out, params, f"dec{i}.cross", src_add, config.heads, p, rng)
        y, c_r2 = _residual_ln_fwd(y, c, params, f"dec{i}.ln2", p, rng)
        f, c_ff = _ff_fwd(y, params, f"dec{i}.ff")
        y, c_r3 = _residual_ln_fwd(y, f, params, f"dec{i}.ln3", p, rng)
        cache["dec_layers"].append((c_self, c_r1, c_cross, c_r2, c_ff, c_r3))
    logits, cache["out"] = _linear_fwd(y, params["out_w"], params["out_b"])
    return logits


def forward_batch(params, config: ModelConfig, dims: ModelDims, batch: Batch, dropout_rng=None):
    """Returns (logits (B,T,V), cache for backward)."""
    p = config.dropout if dropout_rng is not None else 0.0
    rng = dropout_rng
    cache: dict = {"batch": batch, "scale": math.sqrt(config.d_model),
                   "dims": dims, "config": config}
    enc_out, src_add = _encoder_forward(params, config, dims, batch, p, rng, cache)
    logits = _decoder_forward(params, config, enc_out, src_add, batch.tgt_in, p, rng, cache)
    return logits, cache


def backward_batch(dlogits, cache, params) -> dict[str, np.ndarray]:
    config: ModelConfig = cache["config"]
    dims: ModelDims = cache["dims"]
    batch: Batch = cache["batch"]
    scale = cache["scale"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}

    dy = _linear_bwd(dlogits, cache["out"], grads, "out_w", "out_b")
    denc = None
    for i in reversed(range(config.decoder_layers)):
        c_self, c_r1, c_cross, c_r2, c_ff, c_r3 = cache["dec_layers"][i]
        dy, df = _residual_ln_bwd(dy, c_r3, grads, f"dec{i}.ln3")
        dy = dy + _ff_bwd(df, c_ff, grads, f"dec{i}.ff")
        dy, dc = _residual_ln_bwd(dy, c_r2, grads, f"dec{i}.ln2")
        dq, dkv = _mha_bwd(dc, c_cross, grads, f"dec{i}.cross")
        dy = dy + dq
        denc = dkv if denc is None else denc + dkv
        dy, da = _residual_ln_bwd(dy, c_r1, grads, f"dec{i}.ln1")
        dq, dkv = _mha_bwd(da, c_self, grads, f"dec{i}.self")
        dy = dy + dq + dkv
    dy = _dropout_bwd(dy, cache["dec_drop"])
    np.add.at(grads["tgt_embed"], batch.tgt_in, dy * scale)

    dx = denc  # decoder_layers >= 1, so cross-attention always contributed
    for i in reversed(range(config.encoder_layers)):
        c_attn, c_r1, c_ff, c_r2 = cache["enc_layers"][i]
        dx, df = _residual_ln_bwd(dx, c_r2, grads, f"enc{i}.ln2")
        dx = dx + _ff_bwd(df, c_ff, grads, f"enc{i}.ff")
        dx, da = _residual_ln_bwd(dx, c_r1, grads, f"enc{i}.ln1")
        dq, dkv = _mha_bwd(da, c_attn, grads, f"enc{i}.attn")
        dx = dx + dq + dkv
    dx = _dropout_bwd(dx, cache["enc_drop"])
    if dims.source_vocab is not None:
        np.add.at(grads["src_embed"], batch.src, dx * scale)
    else:
        _linear_bwd(dx, cache["src_proj"], grads, "src_proj_w", "src_proj_b")
    return grads


def loss_and_gradient(params, config, dims, batch, dropout_rng=None):
    """(loss, grads dict) for one batch; raises on non-finite values."""
    logits, cache = forward_batch(params, config, dims, batch, dropout_rng)
    loss, dlogits, n_tokens = batch_loss_and_dlogits(logits, batch.tgt_out)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss = {loss}")
    grads = backward_batch(dlogits, cache, params)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    return loss, grads, n_tokens

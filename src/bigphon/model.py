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

Training step: ``forward_batch`` records a tape per stack when a backward
follows, ``cache["enc"]`` and ``cache["dec"]``: one list of entries in
forward order, ``(kind, name, state)``. The first entry is the stack's
embedding; every later one is a sublayer, an attention (``"self"`` or
``"cross"``), a feed-forward (``"ff"``) or a residual layer norm
(``"ln"``). A sublayer's input is the output of the entry below it, which
no entry holds: ``_output`` rebuilds it bit for bit, a layer norm's output
from its cache and the embedding's from its ids or frames. Only the
feature projection's rebuild costs a matmul, as narrow as a frame.
``backward_batch`` pops the decoder's tape and then the encoder's, so each
entry is freed once used, and makes each gradient's zero buffer at its
first write. The state keeps only what backward cannot rebuild cheaply: the
attention's queries, keys and values, as their projections' real rows, and
its additive mask (shared with the forward, not copied), the feed-forward's
hidden layer, each layer norm's xhat, inverse standard deviation and
parameters, the embedding's ids or frames, and each dropout mask, packed 8
to a byte. Attention runs its core one batch row at a time in both
directions, and backward rebuilds each row's probabilities bit for bit, so
no (B, heads, Tq, Tk) float array is ever whole. The sublayer kernels
compute in place on arrays they own, and each backward kernel frees its
temporaries after their last use.

Both stacks run on their real positions alone, packed out of the padded layout
by a `_Pack`: the encoder's of the batch's source mask, the decoder's of its
target lengths (`tgt_out` not PAD; never of token values, since a greedy
decode may emit PAD_ID and feed it back). Each stack's embedding, projections,
feed-forward, layer norms, dropout and residuals, and so its "ln", "ff",
"self" and "cross" tape entries, hold its N real rows, not B * S; its "embed"
entry holds the batch's own ids or frames. The logits, (N, V) in row-major
order, the loss's softmax and its gradient hold the decoder's N rows alone.
Padding comes back, as zeros, only where the bits depend on it: each attention
core runs per batch row at the padded shapes, on that row's queries, keys and
values zero-padded into a scratch buffer by `_Pack.heads`, whose split has the
padded split's strides, and each weight gradient, x.T @ dy, reduces over the
padded layout. Every other matmul, forward and backward (dy @ w.T,
`_linear_bwd`), the output projection's included, goes through
`_Pack.matmul`, the one place that decides how a product of real rows runs so
that it keeps the unpacked computation's bits at any width. Dropout draws the
whole padded stream, an attention's one batch row at a time. A greedy
decode's lone source and each of its steps have no padding, and their packs
copy nothing.

One decoder entry, ``_decoder_forward``, serves teacher forcing and the
valid pass (the whole target at once, causal mask) and each greedy step (the
newest position, against each layer's key/value buffer). Without a cache
dict the forward records no tape: the valid pass and greedy decoding keep no
sublayer's activations past that sublayer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def make_batch(sources, targets) -> Batch:
    """Assemble a padded batch from per-example sources and target id lists.

    The first source sets the form: a (frames, width) array gives a float64
    (B,S,width) batch, a list or 1-D array of ids an int64 (B,S) one; a
    later source of another trailing shape is a ShapeMismatch. Copying a
    source into the batch is its only dtype conversion."""
    if len(sources) != len(targets):
        raise LengthMismatch(f"{len(sources)} sources vs {len(targets)} targets")
    n = len(sources)
    shapes = [getattr(s, "shape", (len(s),)) for s in sources]  # no array made of an id list
    trailing = shapes[0][1:] if shapes else ()
    s_max = max([shape[0] for shape in shapes] + [1])
    src = np.zeros((n, s_max, *trailing), dtype=np.float64 if trailing else np.int64)
    src_mask = np.zeros((n, s_max), dtype=bool)
    for i, (s, shape) in enumerate(zip(sources, shapes)):
        if shape[1:] != trailing:
            raise ShapeMismatch(f"source {shape} does not match the first source's {shapes[0]}")
        src[i, : shape[0]] = s
        src_mask[i, : shape[0]] = True
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


# ---------------------------------------------------------------------------
# primitives


_PE_TABLES: dict[int, np.ndarray] = {}  # one read-only table per width, grown on demand


def _pe(length: int, d: int) -> np.ndarray:
    pe = _PE_TABLES.get(d, np.empty((0, d)))
    if len(pe) < length:  # at least doubles, so a decode's steps seldom regrow it
        pos = np.arange(max(length, 2 * len(pe)), dtype=np.float64)[:, None]
        idx = np.arange(d, dtype=np.float64)[None, :]
        angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / d)
        pe = _PE_TABLES[d] = np.empty((len(pos), d), dtype=np.float64)
        pe[:, 0::2] = np.sin(angles[:, 0::2])
        pe[:, 1::2] = np.cos(angles[:, 1::2])
        pe.flags.writeable = False
    return pe[:length]


@dataclass(frozen=True)
class _Pack:
    """The real positions of a padded (B, S) layout, `mask`, or None when all
    are real. `take` turns a padded (B, S, ...) array into its N real rows
    (N, ...), in batch-row order, and `pad` zero-fills N rows back into the
    padded layout. With no padding both return their argument as it is: a
    greedy decode's single source and each of its steps' one target
    position copy nothing and keep their (B, S, ...) shape."""

    shape: tuple[int, int]
    mask: np.ndarray | None = None

    @classmethod
    def of(cls, mask):
        """Drops an all-real `mask`, so a greedy decode's lone source copies
        nothing; `forward_batch` keeps the decoder's, for (N, V) logits."""
        return cls(mask.shape, None if mask.all() else mask)

    def take(self, x):
        return x if self.mask is None else x[self.mask]

    def positions(self, table):
        """Row s of `table` (S, ...) for each real position (b, s), in the
        order `take` keeps; with no padding, `table` itself, which broadcasts
        over the batch rows."""
        return table if self.mask is None else table[self.mask.nonzero()[1]]

    def pad(self, x):
        if self.mask is None:
            return x
        out = np.zeros((*self.shape, *x.shape[1:]), dtype=x.dtype)
        out[self.mask] = x
        return out

    @cached_property
    def _starts(self):
        """Where each batch row's real rows start in `take`'s N, and N last."""
        return np.concatenate(([0], np.cumsum(self.mask.sum(1))))

    def heads(self, x, heads):
        """A function of i that gives batch row i of x, the rows this pack
        keeps, split to heads (heads, S, dh) in the padded layout, zero past
        the real positions. With padding, each call refills one (S, d)
        scratch buffer and returns a view of it, whose split has the strides
        of the padded split's row [i]: an attention core's products see the
        shapes, strides and values they would on the padded layout. With
        none, x is (B, S, d), or a (B, S, heads, dh) view of a greedy
        decode's key/value buffer, each row is a view of it, and the pack's
        shape is not read."""
        if self.mask is None:
            if x.ndim == 3:
                x = x.reshape(*x.shape[:2], heads, -1)
            return x.transpose(0, 2, 1, 3).__getitem__
        buf = np.empty((self.shape[1], x.shape[-1]))
        split = buf.reshape(self.shape[1], heads, -1).transpose(1, 0, 2)
        mask, starts = self.mask, self._starts

        def row(i):
            buf[mask[i]] = x[starts[i]:starts[i + 1]]
            buf[~mask[i]] = 0.0
            return split

        return row

    def put(self, out, i, xh):
        """Writes batch row i of xh, (heads, S, dh) in the padded layout, at
        its real positions into that row's rows of `out`, laid out as `take`
        lays out N rows (or (B, S, d) with no padding)."""
        rows = xh.transpose(1, 0, 2)
        if self.mask is None:
            out[i].reshape(rows.shape)[...] = rows
        else:
            out[self._starts[i]:self._starts[i + 1]].reshape(-1, *rows.shape[1:])[...] = \
                rows[self.mask[i]]

    def matmul(self, x, w):
        """x @ w of the N real rows x, with the bits the padded (B, S, k) @ w
        gives them, which numpy runs as one BLAS call per batch row. OpenBLAS
        picks its kernel, and so its order of summation, by a call's shape (a
        small-matrix one below about 10**6 products), and at output widths
        that are not a multiple of 8 a row's bits also depend on its place in
        its call. So at a width that is a multiple of 8 the N rows run in
        calls of S rows, the last zero-filled to S, and at any other width
        the padded product runs and its real rows are kept."""
        if self.mask is None:
            return x @ w
        if w.shape[1] % 8:
            return self.take(self.pad(x) @ w)
        (n, k), s = x.shape, self.shape[1]
        y = np.empty((n, w.shape[1]))
        full = n - n % s
        np.matmul(x[:full].reshape(-1, s, k), w, out=y[:full].reshape(-1, s, w.shape[1]))
        if full < n:
            last = np.zeros((s, k))
            last[:n - full] = x[full:]
            y[full:] = (last @ w)[:n - full]
        return y


def _linear_fwd(x, w, b, pack):
    y = pack.matmul(x, w)
    y += b
    return y


def _linear_grads(dy, x, grads, wname, bname):
    """Adds dw and db of x @ w + b to `grads`."""
    din, dout = grads[wname].shape
    grads[wname] += x.reshape(-1, din).T @ dy.reshape(-1, dout)
    grads[bname] += dy.reshape(-1, dout).sum(axis=0)


def _linear_bwd(dy, x, params, grads, wname, bname, pack):
    """Gradient into x of x @ w + b at the N real rows `pack` keeps, given
    `dy` at those rows and `x` in the zero-padded layout, after adding dw and
    db to `grads`. dw reduces over the padded layout, zeros included, as the
    unpacked computation does: its bits depend on how OpenBLAS blocks that
    reduction of B*S rows. dy @ w.T runs on the real rows through
    `_Pack.matmul`, which keeps the unpacked computation's bits."""
    _linear_grads(pack.pad(dy), x, grads, wname, bname)
    del x  # frees a padded input that only the call holds, as `_ff_bwd`'s are
    return pack.matmul(dy, params[wname].T)


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


def _dropout_fwd(x, p, rng, pack):
    """x * mask / (1 - p), in place on x, the rows `pack` keeps of a padded
    layout. The draws cover the whole padded layout, as if no row were
    packed, so every later draw comes from the same place in the stream; the
    mask is the real rows' part of them. The cache holds it packed 8 to a
    byte. An attention's probabilities come one batch row at a time, with a
    pack of their (heads, Tq) layout, which has no padding."""
    if p <= 0.0 or rng is None:
        return x, None
    keep = pack.take(rng.random((*pack.shape, x.shape[-1])) >= p)
    return _apply_mask(x, keep, p, out=x), (np.packbits(keep), keep.shape, p)


def _keep_mask(cache):
    """The bool keep mask and the rate of a dropout cache, unpacked."""
    bits, shape, p = cache
    return np.unpackbits(bits, count=math.prod(shape)).reshape(shape).view(bool), p


def _dropout_bwd(dy, cache):
    """dy * mask / (1 - p), with the forward's mask unpacked from the cache."""
    if cache is None:
        return dy
    return _apply_mask(dy, *_keep_mask(cache))


def _apply_mask(x, mask, p, out=None):
    """x * mask / (1 - p), into `out` if given: the same ops forward and back."""
    out = np.multiply(x, mask, out=out)
    out /= 1.0 - p
    return out


def _merge_heads(xh, pack=None):
    """(B,heads,T,dh) -> (B,T,heads*dh), or its real rows (N,heads*dh) that
    `pack` keeps, with no padded copy made."""
    rows = xh.transpose(0, 2, 1, 3)
    if pack is not None:
        rows = pack.take(rows)
    return rows.reshape(*rows.shape[:-2], -1)


def _attn_probs(qh, kh, mask):
    """Attention probabilities (heads, Tq, Tk) of one batch row: its query
    heads (heads, Tq, dh) against its key heads (heads, Tk, dh), scaled, plus
    the row's additive `mask`, through a softmax. Backward calls it again on
    the same row to rebuild the forward's bits."""
    attn = qh @ kh.transpose(0, 2, 1)
    attn /= math.sqrt(qh.shape[-1])
    if mask is not None:
        attn += mask
    attn -= attn.max(-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(-1, keepdims=True)
    return attn


def _row_mask(mask, i):
    """Batch row i's additive mask, a view: the source mask (B, 1, 1, S) has
    one row per batch row, and every row shares the causal mask (1, 1, T, T)."""
    return None if mask is None else mask[i % len(mask)]


def _attend_fwd(q, kv, params, prefix, mask, heads, p_drop, rng, pack, kv_pack):
    """Scaled dot-product attention of the queries q over kv = (k, v), each
    the real rows its pack keeps, merged through wo for the query rows `pack`
    keeps. Runs one batch row at a time, on that row's heads as `_Pack.heads`
    pads them, so one row's probabilities and dropout draws are alive at
    once. With dropout on, also returns each row's `_dropout_fwd` cache, its
    keep mask packed 8 to a byte, from which backward rebuilds the row's
    dropped probabilities; drawing row by row takes the generator's stream in
    the order one draw of the whole (B, heads, Tq, Tk) array would."""
    b, tq = pack.shape
    ctx = np.empty((b, heads, tq, q.shape[-1] // heads))
    dcache = row = None
    if p_drop > 0.0 and rng is not None:
        dcache, row = [], _Pack((heads, tq))
    k, v = kv
    q_row, k_row, v_row = pack.heads(q, heads), kv_pack.heads(k, heads), kv_pack.heads(v, heads)
    for i in range(b):
        attn = _attn_probs(q_row(i), k_row(i), _row_mask(mask, i))
        if row is not None:
            attn, cache = _dropout_fwd(attn, p_drop, rng, row)
            dcache.append(cache)
        np.matmul(attn, v_row(i), out=ctx[i])
        del attn
    del q_row, k_row, v_row  # and their row buffers
    merged = _merge_heads(ctx, pack)
    del ctx
    return _linear_fwd(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"], pack), dcache


def _kv_fwd(x, params, prefix, pack):
    """Keys and values of x, the real rows `pack` keeps, as those rows: (N,
    d) each, or (B, S, d) with no padding."""
    return (_linear_fwd(x, params[f"{prefix}.wk"], params[f"{prefix}.bk"], pack),
            _linear_fwd(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"], pack))


def _mha_fwd(q_in, kv, params, prefix, kind, mask, heads, p_drop, rng, tape, pack, kv_pack):
    """Attention of q_in, the real rows `pack` keeps, over kv = (k, v), the
    real rows `kv_pack` keeps, as `_kv_fwd` returns them. Appends a `kind`
    ("self" or "cross") entry of the queries, kv, the head count, the mask
    and the per-row dropout caches to `tape` unless None: no probabilities,
    which backward rebuilds, and neither input."""
    q = _linear_fwd(q_in, params[f"{prefix}.wq"], params[f"{prefix}.bq"], pack)
    out, dcache = _attend_fwd(q, kv, params, prefix, mask, heads, p_drop, rng, pack, kv_pack)
    if tape is not None:
        tape.append((kind, prefix, (q, kv, heads, mask, dcache)))
    return out


def _mha_bwd(dout, cache, params, grads, prefix, q_src, kv_src, q_pack, kv_pack):
    """Gradients into `_mha_fwd`'s q_in and into the input of its keys and
    values, as the real rows `q_pack` and `kv_pack` keep, given `dout` at
    q_in's real rows; it rebuilds both inputs from the tape entries that
    output them (`_output`), once if one entry serves both. One batch row at
    a time, on the row's heads as `_Pack.heads` pads them, it rebuilds the
    row's probabilities with the forward's ops, and its dropped probabilities
    from the row's dropout cache, unpacking only that row's keep mask, then
    takes the row's context and its value, query and key head gradients,
    each in turn into one scratch buffer whose real positions `_Pack.put`
    writes into the packed gradient; wo's gradient comes from the merged
    context after the loop. The attention core runs on the padded layout,
    and each projection's backward as `_linear_bwd` runs it: the input
    gradient on the real rows, the weight gradient on the padded layout. The
    caller has popped `cache`, so every array here is freed after its last
    use."""
    q, (k, v), heads, mask, dcache = cache
    del cache
    (b, tq), tk = q_pack.shape, kv_pack.shape[1]
    dh = q.shape[-1] // heads
    dctx = q_pack.pad(q_pack.matmul(dout, params[f"{prefix}.wo"].T))
    dctx = dctx.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)
    ctx = np.empty((b, heads, tq, dh))
    dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    dxh = np.empty(heads * max(tq, tk) * dh)  # a row's value, query, then key gradient
    dqh, dkvh = (dxh[:heads * n * dh].reshape(heads, n, dh) for n in (tq, tk))
    q_row, k_row, v_row = q_pack.heads(q, heads), kv_pack.heads(k, heads), kv_pack.heads(v, heads)
    for i in range(b):
        qh, kh, vh = q_row(i), k_row(i), v_row(i)
        attn = _attn_probs(qh, kh, _row_mask(mask, i))
        keep, p = (None, 0.0) if dcache is None else _keep_mask(dcache[i])
        attn_d = attn if keep is None else _apply_mask(attn, keep, p)
        np.matmul(attn_d, vh, out=ctx[i])
        np.matmul(attn_d.transpose(0, 2, 1), dctx[i], out=dkvh)
        kv_pack.put(dv, i, dkvh)
        del attn_d
        dattn = dctx[i] @ vh.transpose(0, 2, 1)
        if keep is not None:
            _apply_mask(dattn, keep, p, out=dattn)
        prod = dattn * attn
        dattn -= prod.sum(-1, keepdims=True)
        del prod
        dattn *= attn
        del attn
        dattn /= math.sqrt(dh)
        np.matmul(dattn, kh, out=dqh)
        q_pack.put(dq, i, dqh)
        np.matmul(dattn.transpose(0, 2, 1), qh, out=dkvh)
        kv_pack.put(dk, i, dkvh)
        del dattn
    del q_row, k_row, v_row, qh, kh, vh, dctx, dcache, q, k, v, dxh, dqh, dkvh
    merged = _merge_heads(ctx)
    del ctx
    _linear_grads(q_pack.pad(dout), merged, grads, f"{prefix}.wo", f"{prefix}.bo")
    del merged, dout
    x = q_pack.pad(_output(q_src, params))
    dq_in = _linear_bwd(dq, x, params, grads, f"{prefix}.wq", f"{prefix}.bq", q_pack)
    del dq
    if kv_src is not q_src:
        del x
        x = kv_pack.pad(_output(kv_src, params))
    dkv_in = _linear_bwd(dk, x, params, grads, f"{prefix}.wk", f"{prefix}.bk", kv_pack)
    del dk
    dkv_in += _linear_bwd(dv, x, params, grads, f"{prefix}.wv", f"{prefix}.bv", kv_pack)
    return dq_in, dkv_in


def _residual_ln_fwd(x, sub_out, params, prefix, p_drop, rng, tape, pack):
    """LayerNorm(x + dropout(sub_out)) of the real rows `pack` keeps;
    overwrites sub_out, which no tape holds. Appends an "ln" entry of its
    layer norm's cache and the dropout mask to `tape`."""
    summed, dcache = _dropout_fwd(sub_out, p_drop, rng, pack)
    summed += x
    y, lncache = _ln_fwd(summed, params[f"{prefix}.g"], params[f"{prefix}.b"])
    if tape is not None:
        tape.append(("ln", prefix, (lncache, dcache)))
    return y


def _residual_ln_bwd(dy, cache, grads, prefix):
    lncache, dcache = cache
    dsummed = _ln_bwd(dy, lncache, grads, f"{prefix}.g", f"{prefix}.b")
    return dsummed, _dropout_bwd(dsummed, dcache)


def _ff_fwd(x, params, prefix, tape, pack):
    """relu(x @ w1 + b1) @ w2 + b2 of the real rows `pack` keeps; appends an
    "ff" entry of the hidden layer to `tape`."""
    h = _linear_fwd(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"], pack)
    np.maximum(h, 0.0, out=h)
    y = _linear_fwd(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"], pack)
    if tape is not None:
        tape.append(("ff", prefix, h))
    return y


def _ff_bwd(dy, h, params, grads, prefix, x_src, pack):
    """Gradient into `_ff_fwd`'s x, given `dy`, both at the real rows `pack`
    keeps. Each linear's backward runs as `_linear_bwd` runs it, which pads
    `dy`, the hidden layer, its gradient and the rebuilt x once each, for the
    weight gradients only."""
    dh = _linear_bwd(dy, pack.pad(h), params, grads, f"{prefix}.w2", f"{prefix}.b2", pack)
    dh *= h > 0  # h = relu(pre) is positive exactly where pre is
    del h
    x = pack.pad(_output(x_src, params))
    return _linear_bwd(dh, x, params, grads, f"{prefix}.w1", f"{prefix}.b1", pack)


def _causal_mask(t: int) -> np.ndarray:
    return np.triu(np.full((t, t), NEG), k=1)[None, None, :, :]


# ---------------------------------------------------------------------------
# forward / backward
#
# A stack's tape lists its (kind, name, state) entries in forward order. The
# first is the embedding, ("embed", weight name, (dropout cache, ids or
# features, pack)), the weight being `src_embed`, `src_proj_w` or
# `tgt_embed`, the ids or features the batch's own padded array, and `pack`
# the stack's `_Pack`. Then each encoder layer appends "self", "ln", "ff",
# "ln" entries, and each decoder layer "self", "ln", "cross", "ln", "ff",
# "ln", named by their parameter prefixes. An attention's or feed-forward's
# input is the output of the entry below it (`_output`), and
# cross-attention's keys and values are computed from the output of the
# encoder tape's top entry. Backward pops the tapes, so an entry is still
# there when the entries that consumed its output are popped. Each stack's
# "ln" and "ff" entries and its embedding's dropout mask hold its N real
# rows, its pack's `take` of the padded layout. An attention entry, "self"
# or "cross", holds (q, (k, v), heads, additive mask, per-row dropout
# caches), with q, k and v as real rows, (N, d), the keys and values the
# encoder's for "cross": the cores pad one batch row at a time
# (`_Pack.heads`). The output projection has no entry: backward takes its
# gradient into the (N, V) logits as they are, and its input from the
# decoder's top entry.


def _embed(params, name, src, pack, t=0):
    """The embedding before dropout of the real rows `pack` keeps of `src`, a
    padded batch's ids or frames, at positions t..: the lookup of ids in
    `src_embed` or `tgt_embed` times sqrt(d), or the projection of frames
    through `src_proj_w`, plus the positional encoding."""
    d = params[name].shape[1]
    src = pack.take(src)
    if name == "src_proj_w":
        x = _linear_fwd(src, params["src_proj_w"], params["src_proj_b"], pack)
    else:
        x = params[name][src]
        x *= math.sqrt(d)
    x += pack.positions(_pe(t + pack.shape[1], d)[t:])
    return x


def _output(entry, params):
    """The output of a tape entry, rebuilt bit for bit: an "embed" entry's
    from its ids or frames, through `_embed` and its dropout mask with the
    ops `_dropout_fwd` used, and an "ln" entry's from its layer norm's cache."""
    kind, name, state = entry
    if kind == "ln":
        return _ln_out(state[0])
    dcache, src, pack = state
    x = _embed(params, name, src, pack)
    return x if dcache is None else _apply_mask(x, *_keep_mask(dcache), out=x)


def _encoder_forward(params, config, batch, p, rng, cache=None):
    """Encoder output on the real source positions, the additive source mask,
    and the `_Pack` of `batch.src_mask` that keeps those positions. The
    parameters set the source mode: token ids with `src_embed`, feature
    frames as wide as `src_proj_w`'s rows without. Appends the encoder's
    entries to the tape `cache` when given a list; without one, each
    sublayer's activations die with it."""
    heads = config.heads
    if "src_embed" in params:
        if batch.src.ndim != 2:
            raise ShapeMismatch("token-mode source must be (B, S) ids")
        name = "src_embed"
    else:
        if batch.src.ndim != 3 or batch.src.shape[2] != params["src_proj_w"].shape[0]:
            raise ShapeMismatch("feature-mode source must be (B, S, feature_dim)")
        name = "src_proj_w"
    pack = _Pack.of(batch.src_mask)
    x, dcache = _dropout_fwd(_embed(params, name, batch.src, pack), p, rng, pack)
    if cache is not None:
        cache.append(("embed", name, (dcache, batch.src, pack)))
    src_add = np.where(batch.src_mask, 0.0, NEG)[:, None, None, :]
    for i in range(config.encoder_layers):
        a = _mha_fwd(x, _kv_fwd(x, params, f"enc{i}.attn", pack), params, f"enc{i}.attn",
                     "self", src_add, heads, p, rng, cache, pack, pack)
        x = _residual_ln_fwd(x, a, params, f"enc{i}.ln1", p, rng, cache, pack)
        del a  # overwritten by the residual: a dead buffer, or the layer norm's xhat
        a = _ff_fwd(x, params, f"enc{i}.ff", cache, pack)
        x = _residual_ln_fwd(x, a, params, f"enc{i}.ln2", p, rng, cache, pack)
        del a
    return x, src_add, pack


def _decoder_layer(params, config, i, y, t, self_kv, cross_kv, src_add, enc_pack, mask, p, rng,
                   cache, pack):
    """Decoder layer i over target positions t..t+n of y, the real rows
    `pack` keeps of a padded (B, n) layout.

    Self-attention attends over the positions' own keys and values, as
    their real rows, or, given a greedy decode's `self_kv`, the layer's
    buffer from `_decoder_layers`, writes them into it and attends over its
    first t+n positions. `cross_kv` is `_kv_fwd` of the encoder output, the
    rows `enc_pack` keeps, computed once per layer by `_decoder_layers`.
    Appends its entries to the tape `cache` unless None."""
    heads = config.heads
    kv = _kv_fwd(y, params, f"dec{i}.self", pack)
    if self_kv is not None:  # as unpadded as the step, so the step's pack serves for it
        end = t + pack.shape[1]
        self_kv[0, :, t:end] = kv[0].reshape(*pack.shape, heads, -1)
        self_kv[1, :, t:end] = kv[1].reshape(*pack.shape, heads, -1)
        kv = (self_kv[0, :, :end], self_kv[1, :, :end])
    a = _mha_fwd(y, kv, params, f"dec{i}.self", "self", mask, heads, p, rng, cache, pack, pack)
    y = _residual_ln_fwd(y, a, params, f"dec{i}.ln1", p, rng, cache, pack)
    del a
    a = _mha_fwd(y, cross_kv, params, f"dec{i}.cross", "cross", src_add, heads, p, rng, cache,
                 pack, enc_pack)
    y = _residual_ln_fwd(y, a, params, f"dec{i}.ln2", p, rng, cache, pack)
    del a
    a = _ff_fwd(y, params, f"dec{i}.ff", cache, pack)
    return _residual_ln_fwd(y, a, params, f"dec{i}.ln3", p, rng, cache, pack)


def _decoder_layers(params, config, enc_out, enc_pack, length=None):
    """Each decoder layer's (self_kv, cross_kv): for a greedy decode of up to
    `length` steps, the (2, B, length, heads, dh) view of an empty (2, B,
    heads, length, dh) buffer for its self-attention keys and values, else
    None; and `_kv_fwd` of the encoder output, the rows `enc_pack` keeps."""
    heads = config.heads
    shape = (2, enc_pack.shape[0], heads, length, config.d_model // heads)
    return [(None if length is None else np.empty(shape).transpose(0, 1, 3, 2, 4),
             _kv_fwd(enc_out, params, f"dec{i}.cross", enc_pack))
            for i in range(config.decoder_layers)]


def _decoder_forward(params, config, layers, src_add, enc_pack, tgt_in, t, pack, p, rng,
                     cache=None):
    """Logits (N, V) at the N target positions `pack` keeps of t..t+n of
    `tgt_in` (B, n), or (B, n, V) if its mask is None, through the
    `_decoder_layers` pairs `layers`, whose buffers, if any, hold the keys
    and values of positions before t, over the encoder output's real rows
    that `enc_pack` keeps. The causal mask applies when n > 1, which is only
    at t = 0. Appends to the tape `cache` as `_encoder_forward` does."""
    n = tgt_in.shape[1]
    y, dcache = _dropout_fwd(_embed(params, "tgt_embed", tgt_in, pack, t), p, rng, pack)
    if cache is not None:
        cache.append(("embed", "tgt_embed", (dcache, tgt_in, pack)))
    mask = _causal_mask(n) if n > 1 else None
    for i, (self_kv, cross_kv) in enumerate(layers):
        y = _decoder_layer(params, config, i, y, t, self_kv, cross_kv, src_add, enc_pack, mask,
                           p, rng, cache, pack)
    return _linear_fwd(y, params["out_w"], params["out_b"], pack)


def forward_batch(params, config: ModelConfig, batch: Batch, dropout_rng=None,
                  cache: dict | None = None) -> np.ndarray:
    """Logits (N, V) at the N target positions where `tgt_out` is not PAD, in
    row-major order, even if none is PAD: the decoder runs on those alone,
    packed by the target lengths, never by token values, since a decoded
    PAD_ID may be fed back. Pass a `cache` dict only when `backward_batch`
    follows: the forward then records the tapes `cache["enc"]` and
    `cache["dec"]`; otherwise it keeps no activation past its layer."""
    if batch.tgt_in.shape != batch.tgt_out.shape:
        raise LengthMismatch(f"tgt_in {batch.tgt_in.shape} vs tgt_out {batch.tgt_out.shape}")
    p = config.dropout if dropout_rng is not None else 0.0
    enc = dec = None
    if cache is not None:
        enc, dec = cache["enc"], cache["dec"] = [], []
    enc_out, src_add, enc_pack = _encoder_forward(params, config, batch, p, dropout_rng, enc)
    layers = _decoder_layers(params, config, enc_out, enc_pack)
    del enc_out
    pack = _Pack(batch.tgt_out.shape, batch.tgt_out != PAD_ID)
    return _decoder_forward(params, config, layers, src_add, enc_pack, batch.tgt_in, 0, pack,
                            p, dropout_rng, dec)


def _embed_bwd(dy, cache, grads, wname):
    """Adds the gradient of the embedding weight `wname` (a lookup table, or
    the feature projection `src_proj_w` and its bias), given `dy` into the
    embedding's dropped output at the real rows its pack keeps, and the
    entry's state `cache`: its dropout cache, its padded ids or frames and
    its pack."""
    dcache, src, pack = cache
    dy = _dropout_bwd(dy, dcache)
    if wname == "src_proj_w":
        _linear_grads(pack.pad(dy), src, grads, wname, "src_proj_b")
    else:
        np.add.at(grads[wname], pack.take(src), dy * math.sqrt(dy.shape[-1]))


def _backprop_tape(tape, dy, params, grads, memory=None):
    """Pops `tape` to empty, starting from `dy`, the gradient into its top
    entry's output, and adds every parameter's gradient to `grads`. A
    "cross" entry takes its keys and values from the output of the top entry
    of the tape `memory`; returns the gradient into that output, or None if
    there is no "cross" entry. Each popped state goes straight to its kernel,
    bound to no name here, so the kernel frees it after its last use. Each
    tape's pack is the last item of its embedding entry's state."""
    pack = tape[0][2][-1]
    mem_pack = None if memory is None else memory[0][2][-1]
    dmem = None
    while len(tape) > 1:  # a residual layer norm's entry, then its sublayer's
        name = tape[-1][1]
        dy, dsub = _residual_ln_bwd(dy, tape.pop()[2], grads, name)
        kind, name = tape[-1][:2]
        if kind == "ff":
            dy += _ff_bwd(dsub, tape.pop()[2], params, grads, name, tape[-1], pack)
            continue
        cross = kind == "cross"
        dq, dkv = _mha_bwd(dsub, tape.pop()[2], params, grads, name, tape[-1],
                           memory[-1] if cross else tape[-1], pack, mem_pack if cross else pack)
        dy += dq
        if kind == "self":
            dy += dkv
        elif dmem is None:
            dmem = dkv
        else:
            dmem += dkv
        del dq, dkv
    name = tape[-1][1]
    _embed_bwd(dy, tape.pop()[2], grads, name)
    return dmem


class _Gradients(dict):
    """Gradient buffers keyed by parameter name, each made as zeros like its
    parameter at its first read, which is the first write's `+=`."""

    def __init__(self, params):
        super().__init__()
        self.params = params

    def __missing__(self, name):
        grad = self[name] = np.zeros_like(self.params[name])
        return grad


def backward_batch(dlogits, cache, params) -> dict[str, np.ndarray]:
    """Gradients of every parameter, in `params` order, from `dlogits` into
    the (N, V) logits. Consumes `cache`: pops the decoder's tape and then the
    encoder's to empty, freeing each entry once used, and makes each
    gradient's buffer at its first write. The decoder's walk returns the
    gradient into the encoder's output, where the encoder's walk starts."""
    grads = _Gradients(params)
    enc, dec = cache["enc"], cache["dec"]
    pack = dec[0][2][-1]
    dy = _linear_bwd(dlogits, pack.pad(_output(dec[-1], params)), params, grads, "out_w",
                     "out_b", pack)
    _backprop_tape(enc, _backprop_tape(dec, dy, params, grads, enc), params, grads)
    return {name: grads[name] for name in params}


def batch_loss_and_dlogits(logits: np.ndarray, tgt_out: np.ndarray):
    """Mean cross-entropy of `logits` (N, V), one row per non-PAD `tgt_out`
    in row-major order, plus its gradient and N."""
    target = tgt_out[tgt_out != PAD_ID]
    n_tokens = len(target)
    if len(logits) != n_tokens:
        raise LengthMismatch(f"{len(logits)} logit rows vs {n_tokens} non-PAD targets")
    z = logits - logits.max(-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(-1, keepdims=True))
    logp = z - logsumexp
    rows = np.arange(n_tokens)
    loss = -logp[rows, target].sum() / n_tokens
    dlogits = np.exp(logp)
    dlogits[rows, target] -= 1.0
    dlogits *= 1.0 / n_tokens
    return float(loss), dlogits, n_tokens


def loss_and_gradient(params, config, batch, dropout_rng=None):
    """(loss, grads dict) for one batch; raises on non-finite values."""
    cache: dict = {}
    logits = forward_batch(params, config, batch, dropout_rng, cache)
    loss, dlogits, n_tokens = batch_loss_and_dlogits(logits, batch.tgt_out)
    del logits
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

    The one decoder entry, `_decoder_forward`, that serves teacher forcing and
    the valid pass runs each step on the newest position alone; the encoder and
    the cross-attention keys and values run once per source."""
    batch = make_batch([source], [[]])
    enc_out, src_add, pack = _encoder_forward(params, config, batch, 0.0, None)
    layers = _decoder_layers(params, config, enc_out, pack, config.max_target_len)
    del enc_out
    step = _Pack((1, 1))  # the newest position, always real: the pack copies nothing
    emitted: list[int] = []
    nxt = BOS_ID
    for t in range(config.max_target_len):
        logits = _decoder_forward(params, config, layers, src_add, pack, np.array([[nxt]]), t,
                                  step, 0.0, None)
        nxt = int(logits.argmax())
        if nxt == EOS_ID:
            return DecodeResult(tuple(emitted), detokenize(emitted, vocab), False)
        emitted.append(nxt)
    return DecodeResult(tuple(emitted), detokenize(emitted, vocab), True)

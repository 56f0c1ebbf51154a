"""Straight-line reference formulas that tests compare the engine against."""

from __future__ import annotations

import math
import struct
from typing import Optional

import numpy as np

from depthart import data, tensor as T, training, var
from depthart.vq import KMEANS_ITERS


def _receptive_fields(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """``(xcols, flat)``: ``xcols[B, P, K]`` holds, for each of the P output
    pixels, the K = Cin*kh*kw padded input values its kernel meets, gathered
    through ``flat[P, K]``, their flat indices into one padded sample."""
    bsz, cin, h, wd = x.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    h2, w2 = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    chan, ky, kx = np.meshgrid(np.arange(cin), np.arange(kh), np.arange(kw),
                               indexing="ij")
    oy, ox = np.meshgrid(np.arange(h2) * stride, np.arange(w2) * stride,
                         indexing="ij")
    rows = oy.reshape(-1, 1) + ky.reshape(1, -1)
    cols = ox.reshape(-1, 1) + kx.reshape(1, -1)
    flat = (chan.reshape(1, -1) * hp + rows) * wp + cols
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return xp.reshape(bsz, -1)[:, flat], flat


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
           pad: int) -> np.ndarray:
    """``conv2d(x, w, b, stride, pad)`` in the dtype of its inputs: each
    output pixel is the dot product of its gathered receptive field with
    the flattened kernel, plus the bias."""
    cout, _, kh, kw = w.shape
    h2 = (x.shape[2] + 2 * pad - kh) // stride + 1
    w2 = (x.shape[3] + 2 * pad - kw) // stride + 1
    xcols, _ = _receptive_fields(x, kh, kw, stride, pad)
    y = np.einsum("bpk,ck->bcp", xcols, w.reshape(cout, -1)) + b[:, None]
    return y.reshape(x.shape[0], cout, h2, w2)


def conv2d_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                 stride: int, pad: int):
    """(dx, dw, db) of ``conv2d(x, w, b, stride, pad)`` for output gradient
    ``g``, in the dtype of its inputs; called with float64 arrays it is the
    reference the float32 kernel is held to. It gathers receptive fields
    by index and scatters their gradients back with one batch-wide
    ``bincount``, a route independent of the kernel's shifted windows."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    xcols, flat = _receptive_fields(x, kh, kw, stride, pad)  # [B, P, K]
    g2 = g.reshape(bsz, cout, -1).transpose(0, 2, 1)      # [B, P, Cout]
    db = g2.sum(axis=(0, 1))
    dw = np.einsum("bpk,bpc->ck", xcols, g2, optimize=True).reshape(w.shape)
    dcols = g2 @ w.reshape(cout, -1)                      # [B, P, K]
    span = cin * hp * wp
    idx = (flat.reshape(-1)[None, :] + (np.arange(bsz) * span)[:, None]).reshape(-1)
    acc = np.bincount(idx, weights=dcols.reshape(-1), minlength=bsz * span)
    acc = acc.reshape(bsz, cin, hp, wp).astype(x.dtype)
    dx = acc[:, :, pad:pad + h, pad:pad + wd]
    return dx, dw, db


def resize_matrix(src_hw: tuple[int, int], dst_hw: tuple[int, int]) -> np.ndarray:
    """Dense float32 ``[dst_h*dst_w, src_h*src_w]`` bilinear interpolation
    matrix, align-corners: the Kronecker product of the float64 weights of
    each axis, where destination i reads source position
    i*(n_src-1)/(n_dst-1) split between its two neighbours."""
    axes = []
    for n_src, n_dst in zip(src_hw, dst_hw):
        m = np.zeros((n_dst, n_src))
        for i in range(n_dst):
            pos = i * (n_src - 1) / (n_dst - 1) if n_dst > 1 else 0.0
            lo = int(math.floor(pos))
            m[i, lo] += 1.0 - (pos - lo)
            m[i, min(lo + 1, n_src - 1)] += pos - lo
        axes.append(m)
    return np.kron(*axes).astype(np.float32)


def resize_bilinear(x: np.ndarray, size: tuple[int, int],
                    g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(y, dx)``: x's trailing two axes resized to ``size`` by one
    product with ``resize_matrix``, and the gradient that product gives x
    for the output gradient ``g``."""
    r = resize_matrix(x.shape[-2:], size).astype(x.dtype)
    lead = x.shape[:-2]
    y = x.reshape(-1, r.shape[1]) @ r.T
    dx = g.reshape(-1, r.shape[0]) @ r
    return y.reshape(lead + tuple(size)), dx.reshape(x.shape)


def checkpoint_bytes(entries) -> bytes:
    """The bytes of a checkpoint file holding ``entries``, built in one
    buffer: the magic, version and count, then per entry its name length,
    name, rank, dims and float32 little-endian payload."""
    blob = bytearray(b"DART" + struct.pack("<II", 1, len(entries)))
    for name, arr in entries.items():
        a = np.asarray(arr, dtype=np.float32)
        raw = name.encode("utf-8")
        blob += struct.pack("<H", len(raw)) + raw + struct.pack("<B", a.ndim)
        for d in a.shape:
            blob += struct.pack("<I", d)
        blob += a.astype("<f4").tobytes(order="C")
    return bytes(blob)


def kmeans(points: np.ndarray, k: int, rng) -> np.ndarray:
    """``vq._kmeans`` one cluster at a time: each center is the mean of its
    points, and an empty cluster respawns on a random point when its turn
    comes."""
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(KMEANS_ITERS):
        d = (points * points).sum(1, keepdims=True) \
            - 2 * points @ centers.T + (centers * centers).sum(1)[None, :]
        assign = d.argmin(axis=1)
        for j in range(k):
            sel = assign == j
            if sel.any():
                centers[j] = points[sel].mean(axis=0)
            else:
                centers[j] = points[rng.integers(n)]
    return centers.astype(np.float32)


def ema_cluster_sums(stats, v: int):
    """The EMA codebook update's per-code counts and row sums, one scale at a
    time by scatter-add: ``stats`` holds each scale's (token map, rows)."""
    cnt = np.zeros(v, np.float64)
    sm = np.zeros((v, stats[0][1].shape[1]), np.float64)
    for idx, vecs in stats:
        flat = idx.reshape(-1)
        cnt += np.bincount(flat, minlength=v)
        np.add.at(sm, flat, vecs)
    return cnt, sm


def depthart_targets(z: list[np.ndarray], f: np.ndarray, vq) -> list[np.ndarray]:
    """Dynamic targets [h_k, w_k] of one sample with features ``f`` [C, h_K,
    w_K] and predicted maps ``z`` (per scale, int [h_k, w_k]): scale k
    quantizes f minus the composition of z_0..z_{k-1}, each embedded,
    resized to the latent grid and passed through the eta conv."""
    acc = np.zeros_like(f)
    targets = []
    for k, (h, w) in enumerate(vq.schedule.sizes):
        down = T.resize_bilinear(T.Tensor(f - acc), (h, w)).data
        targets.append(vq.codebook.nearest(down.reshape(vq.emb_dim, -1).T).reshape(h, w))
        emb = vq.codebook.vectors[z[k]].transpose(2, 0, 1)
        up = T.resize_bilinear(T.Tensor(emb[None]), vq.schedule.latent)
        acc = acc + T.conv2d(up, vq.params["eta/w"], None, 1, 1).data[0]
    return targets


def image_tokens(vq, images: np.ndarray) -> np.ndarray:
    """Conditioning tokens [B, n_img] of RGB images [B, 3, H, W], one
    sample at a time: luminance mapped to [-1, 1], the encoder, the
    teacher decomposition, and its maps concatenated coarse to fine."""
    out = []
    for img in images:
        lum = 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]
        feats = vq.encode_batch((lum * 2.0 - 1.0)[None, None].astype(np.float32))
        out.append(np.concatenate([m[0] for m in vq.decompose_batch(feats)]))
    return np.stack(out).astype(np.int64)


def denormalized_predictions(model, vq, samples) -> list[np.ndarray]:
    """Metric depth predictions of greedy decoding, un-normalized with each
    sample's own ground-truth 98th percentile: the path evaluation took
    while it still read labels."""
    z = var.infer_batch(model, vq, image_tokens(vq, np.stack([s.image for s in samples])))
    dec = vq.decode_batch(vq.compose_batch(z))[:, 0]
    return [data.denormalize_depth(d, data.depth_p98(s.depth, s.mask))
            for d, s in zip(dec, samples)]


def min_pairwise_distance(vectors: np.ndarray) -> float:
    """Smallest L2 distance between two distinct rows, in float64."""
    v = vectors.astype(np.float64)
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


def depthart_two_pass(model, vq, batch):
    """(loss, grads) of a refinement step computed in two passes: untaped
    greedy inference for the predictions, then one full masked taped
    forward over the inputs they define. ``grads`` maps each parameter
    name to its gradient; nothing is updated."""
    k_total = len(vq.schedule)
    z_idx = var.infer_batch(model, vq, batch.image_tokens)
    targets = training.depthart_targets_batch(z_idx, batch.f_depth, vq)
    feats = var.depth_input_features(model, vq, z_idx[:k_total - 1], k_total)
    with T.Tape():
        seq = var.embed_sequence(model, batch.image_tokens, feats)
        logits = var.forward(model, seq, model.attention_mask(k_total))
        loss = training._scale_loss([T.slice_axis(logits, 1, lo, hi)
                                     for lo, hi in model.depth_slices(k_total)], targets)
        loss.backward()
    grads = {name: p.grad for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = None
    return loss.item(), grads


def multihead_attention(q: T.Tensor, kv: Optional[T.Tensor], heads: int,
                        visible: np.ndarray,
                        cache: Optional[T.KVCache] = None) -> T.Tensor:
    """Attention of the query rows ``q[B, N, D]`` over keys and values
    ``kv[B, M, 2D]`` (keys in the first D columns), where query row i sees
    only the first ``visible[i]`` keys, as its own tape op: the op that
    ``T.attention`` fuses with its norm, projections and residual add. The
    output is ``[B, N, D]``.

    The keys are those of ``cache`` followed by the rows of ``kv``, which
    the call writes into the cache; without a cache the call runs over a
    fresh empty one, so the keys are the rows of ``kv``. ``kv`` may be None
    when the call adds no keys. Each run of query rows with equal counts
    scores, exponentiates and averages its own key prefix, so no score is
    computed for a key a row may not see. The output is divided by the row
    sums of the exponentials, and the ``[B, H, r, n]`` probabilities are
    normalized only on a tape, where the backward pass keeps them (Dao et
    al., FlashAttention, 2022); the output's bits are the same either way.
    Recorded, it keeps the queries, the probabilities and
    the cache's buffers, which every round of one cache shares, and the
    gradient nodes of ``q`` and of every round's ``kv``, not their data.
    The backward pass sends the query gradient to ``q`` and the key/value
    gradient of every visible key to the ``kv`` rows it came from, earlier
    rounds' rows included.
    """
    if q.data.ndim != 3 or q.data.shape[-1] % heads != 0:
        raise T.DimensionError("multihead_attention: expected q [B, N, D]")
    b, nq, d = q.data.shape
    dh = d // heads
    nk = 0 if kv is None else kv.data.shape[1]
    if kv is not None and kv.data.shape != (b, nk, 2 * d):
        raise T.DimensionError(
            f"multihead_attention: kv {kv.shape} does not match q {q.shape}")
    if cache is None:
        cache = T.KVCache(nk)
    first = len(cache)  # position of kv's first key
    seen = int(visible.max()) if nq else 0  # keys any query sees
    if nq != len(visible) or (nq and (visible.min() < 1 or seen > first + nk)):
        raise T.DimensionError(
            f"multihead_attention: {nq} query rows need as many counts, "
            f"each in [1, {first + nk}]")
    qh = q.data.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3)
    qn = q.node
    if kv is not None:
        arr = kv.data.reshape(b, nk, 2, heads, dh)
        cache.write(arr[:, :, 0].transpose(0, 2, 3, 1), arr[:, :, 1].transpose(0, 2, 1, 3))
        if T.active_tape() is not None and kv.node.needs():
            cache.rounds.append((kv.node, first))
    k, v = cache.k, cache.v
    rounds = cache.rounds[:]  # (kv node, position of its first key); later calls append
    taped = T.active_tape() is not None and (qn.needs() or bool(rounds))
    edges = [0, *(np.flatnonzero(np.diff(visible)) + 1).tolist(), nq] if nq else []
    runs = list(zip(edges[:-1], edges[1:]))  # query rows [lo, hi) of equal count
    inv_sqrt = 1.0 / math.sqrt(dh)
    heads_out = np.empty((b, nq, heads, dh), dtype=q.dtype)
    probs = []
    for lo, hi in runs:
        n = int(visible[lo])
        p = qh[:, :, lo:hi] @ k[..., :n]  # scores, then in place exponentials
        p *= inv_sqrt
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        total = np.einsum("...ij->...i", p)[..., None]
        np.divide(p @ v[:, :, :n], total, out=heads_out[:, lo:hi].transpose(0, 2, 1, 3))
        if taped:
            p /= total
            probs.append(p)
    out = T.Tensor(heads_out.reshape(b, nq, d), dtype=q.dtype)

    def backward(g):
        qc = np.ascontiguousarray(qh)
        gh = np.ascontiguousarray(
            g.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3))
        dq = np.empty((b, nq, heads, dh), dtype=g.dtype)
        dk = np.zeros((b, heads, seen, dh), dtype=g.dtype)
        dv = np.zeros_like(dk)
        for (lo, hi), p in zip(runs, probs):
            n = p.shape[-1]
            ds = gh[:, :, lo:hi] @ v[:, :, :n].swapaxes(-1, -2)
            ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
            ds *= p
            ds *= inv_sqrt
            dq[:, lo:hi] = (ds @ k[..., :n].swapaxes(-1, -2)).transpose(0, 2, 1, 3)
            # for a one-row run these are outer products, which numpy's
            # matmul computes without BLAS, about 20x slower than multiply
            mm = np.multiply if hi - lo == 1 else np.matmul
            dk[:, :, :n] += mm(ds.swapaxes(-1, -2), qc[:, :, lo:hi])
            dv[:, :, :n] += mm(p.swapaxes(-1, -2), gh[:, :, lo:hi])
        if qn.needs():
            qn.accumulate_owned(dq.reshape(b, nq, d))
        for src, lo in rounds:
            n = src.shape[1]
            keys = max(min(lo + n, seen) - lo, 0)  # rows of src among the keys
            dsrc = (np.empty if keys == n else np.zeros)((b, n, 2, heads, dh), dtype=g.dtype)
            dsrc[:, :keys, 0] = dk[:, :, lo:lo + keys].transpose(0, 2, 1, 3)
            dsrc[:, :keys, 1] = dv[:, :, lo:lo + keys].transpose(0, 2, 1, 3)
            src.accumulate_owned(dsrc.reshape(b, n, 2 * d))

    return T._maybe_record(out, [qn] + [src for src, _ in rounds], backward)


def dense_attention(q, kv, heads, visible, cache=None):
    """``multihead_attention`` as one dense masked softmax: the counts are
    expanded to an additive ``[len(visible), keys]`` mask of 0 and -inf,
    every query row scores every key, and the mask is added before the
    softmax. The cache holds row-major keys of its own. Records on an
    active tape, with the same gradient routing."""
    b, nq, d = q.data.shape
    dh = d // heads
    visible = np.asarray(visible)
    qh = np.ascontiguousarray(q.data.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3))
    if kv is None:
        k, v = cache.k, cache.v
    else:
        nk = kv.data.shape[1]
        arr = kv.data.reshape(b, nk, 2, heads, dh)
        k = np.ascontiguousarray(arr[:, :, 0].transpose(0, 2, 1, 3))
        v = np.ascontiguousarray(arr[:, :, 1].transpose(0, 2, 1, 3))
    if cache is not None:
        if kv is not None and cache.k is not None:
            first = cache.k.shape[2]
            k = np.concatenate([cache.k, k], axis=2)
            v = np.concatenate([cache.v, v], axis=2)
        else:
            first = 0
        cache.k, cache.v = k, v
        if kv is not None and T.active_tape() is not None and kv.node.needs():
            cache.rounds.append((kv.node, first))
        sources = list(cache.rounds)
    else:
        sources = [(kv.node, 0)]
    n_keys = k.shape[2]
    mask = np.where(np.arange(n_keys)[None, :] < visible[:, None], 0.0, -np.inf)
    inv_sqrt = 1.0 / math.sqrt(dh)
    p = qh @ k.swapaxes(-1, -2)
    p *= inv_sqrt
    p += mask.astype(p.dtype)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    heads_out = p @ v
    out = T.Tensor(heads_out.transpose(0, 2, 1, 3).reshape(b, nq, d), dtype=q.dtype)
    q_node = q.node

    def backward(g):
        gh = np.ascontiguousarray(g.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3))
        dp = gh @ v.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= inv_sqrt
        dk = ds.swapaxes(-1, -2) @ qh
        dv = p.swapaxes(-1, -2) @ gh
        if q_node.needs():
            q_node.accumulate_owned((ds @ k).transpose(0, 2, 1, 3).reshape(b, nq, d))
        for src, lo in sources:
            if not src.needs():
                continue
            n = src.shape[1]
            dsrc = np.zeros((b, n, 2, heads, dh), dtype=g.dtype)
            dsrc[:, :, 0] = dk[:, :, lo:lo + n].transpose(0, 2, 1, 3)
            dsrc[:, :, 1] = dv[:, :, lo:lo + n].transpose(0, 2, 1, 3)
            src.accumulate_owned(dsrc.reshape(b, n, 2 * d))

    return T._maybe_record(out, [q_node] + [src for src, _ in sources], backward)


def layer_norm(x, gain, bias):
    """A layer norm over the last axis as its own tape op: the rows
    normalized to mean 0 / variance 1, then ``* gain + bias``. Untaped, the
    affine is applied in place. ``T.mlp``, ``T.attention`` and
    ``T.norm_linear`` fuse it into the op that reads its output."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise T.DimensionError("layer_norm: gain/bias must match last axis")
    x2 = x.data.reshape(-1, d)
    xhat = x2 - (np.einsum("nc->n", x2) / d)[:, None]
    inv = (1.0 / np.sqrt(np.einsum("nc,nc->n", xhat, xhat) / d + T.LN_EPS))[:, None]
    xhat *= inv
    nx, ngain, nbias = parents = (x.node, gain.node, bias.node)
    gd = gain.data
    recorded = T.active_tape() is not None and any(n.needs() for n in parents)
    y = xhat * gd if recorded else np.multiply(xhat, gd, out=xhat)
    y += bias.data
    out = T.Tensor(y.reshape(x.data.shape), dtype=x.dtype)

    def backward(g):
        g2 = g.reshape(-1, d)
        if ngain.needs():
            ngain.accumulate_owned(np.einsum("nc,nc->c", g2, xhat))
        if nbias.needs():
            nbias.accumulate_owned(g2.sum(axis=0))
        if nx.needs():
            gy = g2 * gd
            m1 = np.einsum("nc->n", gy) / d
            m2 = np.einsum("nc,nc->n", gy, xhat) / d
            gy -= m1[:, None]
            gy -= xhat * m2[:, None]
            gy *= inv
            nx.accumulate_owned(gy.reshape(nx.shape))

    return T._maybe_record(out, parents, backward)


def mlp(x, gain, bias, w1, b1, w2, b2):
    """``T.mlp`` composed of the ops it fuses."""
    h = layer_norm(x, gain, bias)
    return T.add(x, T.linear(T.gelu(T.linear(h, w1, b1)), w2, b2))


def norm_linear(x, gain, bias, w, b):
    """``T.norm_linear`` composed of the ops it fuses."""
    return T.linear(layer_norm(x, gain, bias), w, b)


def attention(x, gain, bias, q_w, q_b, kv_w, kv_b, w, b, heads, visible, cache,
              lead, keys):
    """``T.attention`` composed of the ops it fuses: one layer norm, a
    ``linear`` of its query rows and one of its key rows, each sliced out
    where it is not all of them, ``multihead_attention``, the output
    ``linear`` and the residual ``add`` on the rows from ``lead``."""
    length = x.data.shape[1]
    h = layer_norm(x, gain, bias)

    def project(lo, hi, wt, bt):
        return T.linear(h if (lo, hi) == (0, length) else T.slice_axis(h, 1, lo, hi), wt, bt)

    q = project(lead, length, q_w, q_b)
    kv = project(0, keys, kv_w, kv_b) if keys else None
    if lead:
        x = T.slice_axis(x, 1, lead, length)
    return T.add(x, T.linear(multihead_attention(q, kv, heads, visible, cache), w, b))


def forward_all_rows(model, inputs, visible):
    """Logits of ``var.forward`` on a whole sequence computed the long way:
    every block, the last one included, projects every row to queries and
    to keys and values and runs all of them through ``dense_attention``,
    and the depth rows are sliced out after the final layer norm."""
    p = model.params
    x = inputs
    for blk in range(model.config.blocks):
        pre = f"block{blk}/"
        h = layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
        att = dense_attention(T.linear(h, p[pre + "q_w"], p[pre + "q_b"]),
                              T.linear(h, p[pre + "kv_w"], p[pre + "kv_b"]),
                              model.config.heads, visible)
        x = T.add(x, T.linear(att, p[pre + "attn_w"], p[pre + "attn_b"]))
        x = mlp(x, p[pre + "ln2_g"], p[pre + "ln2_b"], p[pre + "mlp_w1"],
                p[pre + "mlp_b1"], p[pre + "mlp_w2"], p[pre + "mlp_b2"])
    x = layer_norm(x, p["ln_f_g"], p["ln_f_b"])
    depth = T.slice_axis(x, 1, model.n_image_tokens(), x.shape[1])
    return T.linear(depth, p["head_w"], p["head_b"])

"""Straight-line reference formulas that tests compare the engine against."""

from __future__ import annotations

import math

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


def dense_attention(q, kv, heads, visible, cache=None):
    """``T.multihead_attention`` as one dense masked softmax: the counts are
    expanded to an additive ``[len(visible), keys]`` mask of 0 and -inf,
    every query row scores every key, and the mask is added before the
    softmax. The cache holds row-major keys of its own. Records on an
    active tape, with the same gradient routing."""
    b, nq, d = q.data.shape
    dh = d // heads
    visible = np.asarray(visible)
    qh = np.ascontiguousarray(q.data.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3))
    sources = []
    if kv is None:
        k, v = cache.k, cache.v
    else:
        nk = kv.data.shape[1]
        arr = kv.data.reshape(b, nk, 2, heads, dh)
        k = np.ascontiguousarray(arr[:, :, 0].transpose(0, 2, 1, 3))
        v = np.ascontiguousarray(arr[:, :, 1].transpose(0, 2, 1, 3))
        sources = [(kv, 0)]
    if cache is not None:
        if kv is not None and cache.k is not None:
            first = cache.k.shape[2]
            k = np.concatenate([cache.k, k], axis=2)
            v = np.concatenate([cache.v, v], axis=2)
        else:
            first = 0
        cache.k, cache.v = k, v
        if kv is not None and T.active_tape() is not None and kv._needs_grad():
            cache.rounds.append((kv, first))
        sources = list(cache.rounds)
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

    def backward(g):
        gh = np.ascontiguousarray(g.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3))
        dp = gh @ v.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= inv_sqrt
        dk = ds.swapaxes(-1, -2) @ qh
        dv = p.swapaxes(-1, -2) @ gh
        if q._needs_grad():
            q._accumulate_owned((ds @ k).transpose(0, 2, 1, 3).reshape(b, nq, d))
        for src, lo in sources:
            if not src._needs_grad():
                continue
            n = src.data.shape[1]
            dsrc = np.zeros((b, n, 2, heads, dh), dtype=g.dtype)
            dsrc[:, :, 0] = dk[:, :, lo:lo + n].transpose(0, 2, 1, 3)
            dsrc[:, :, 1] = dv[:, :, lo:lo + n].transpose(0, 2, 1, 3)
            src._accumulate_owned(dsrc.reshape(b, n, 2 * d))

    return T._maybe_record(out, [q] + [src for src, _ in sources], backward)


def forward_all_rows(model, inputs, visible):
    """Logits of ``var.forward`` on a whole sequence computed the long way:
    every block, the last one included, projects every row to queries and
    to keys and values and runs all of them through ``dense_attention``,
    and the depth rows are sliced out after the final layer norm."""
    p = model.params
    x = inputs
    for blk in range(model.config.blocks):
        pre = f"block{blk}/"
        h = T.layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
        att = dense_attention(T.linear(h, p[pre + "q_w"], p[pre + "q_b"]),
                              T.linear(h, p[pre + "kv_w"], p[pre + "kv_b"]),
                              model.config.heads, visible)
        x = T.add(x, T.linear(att, p[pre + "attn_w"], p[pre + "attn_b"]))
        h2 = T.layer_norm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
        h2 = T.gelu(T.linear(h2, p[pre + "mlp_w1"], p[pre + "mlp_b1"]))
        x = T.add(x, T.linear(h2, p[pre + "mlp_w2"], p[pre + "mlp_b2"]))
    x = T.layer_norm(x, p["ln_f_g"], p["ln_f_b"])
    depth = T.slice_axis(x, 1, model.n_image_tokens(), x.shape[1])
    return T.linear(depth, p["head_w"], p["head_b"])

"""Straight-line reference formulas that tests compare the engine against."""

from __future__ import annotations

import numpy as np

from depthart import tensor as T, training, var


def conv2d_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                 stride: int, pad: int):
    """(dx, dw, db) of ``conv2d(x, w, b, stride, pad)`` for output gradient
    ``g``, by im2col and one batch-wide scatter-add of the column
    gradients: every input pixel gets the float64 sum of its column
    entries in column order, cast back to the input dtype."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    h2, w2 = g.shape[2:]
    hp, wp = h + 2 * pad, wd + 2 * pad
    chan, ky, kx = np.meshgrid(np.arange(cin), np.arange(kh), np.arange(kw),
                               indexing="ij")
    oy, ox = np.meshgrid(np.arange(h2) * stride, np.arange(w2) * stride,
                         indexing="ij")
    rows = oy.reshape(-1, 1) + ky.reshape(1, -1)
    cols = ox.reshape(-1, 1) + kx.reshape(1, -1)
    flat = (chan.reshape(1, -1) * hp + rows) * wp + cols  # [P, K] into [cin, hp, wp]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    xcols = xp.reshape(bsz, -1)[:, flat]                  # [B, P, K]
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
        loss = training._scale_loss(model, logits, targets)
        loss.backward()
    grads = {name: p.grad for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = None
    return loss.item(), grads

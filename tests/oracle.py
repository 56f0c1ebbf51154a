"""Straight-line reference formulas that tests compare the engine against."""

from __future__ import annotations

import numpy as np


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

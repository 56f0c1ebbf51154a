"""Multi-scale residual vector-quantized autoencoder.

A small conv encoder maps 1-channel rasters to [B, C, h, w] features,
which are decomposed into K token maps of increasing resolution: at each
scale the residual between the features and the composition of the maps
below it is downsampled and quantized against a shared codebook. A map's
contribution (embedding lookup, bilinear upsample, shared 3x3 conv) is
added to the composition in schedule order. The decoder mirrors the
encoder and reconstructs the raster from the composed sum.

This module is the only one that knows how scales compose. The maps
composed below scale k are the decomposition's own picks (teacher
forcing's targets) or maps given by the caller (DepthART's dynamic
targets, taken against the model's own predictions), so both regimes'
targets are ``decompose_batch(f, maps)``.

Codebook training follows the established recipe: straight-through
estimator for the encoder gradient, commitment term, and EMA codebook
updates, with k-means initialization over warm-up encoder outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import checkpoint
from . import tensor as T
from .data import DataError
from .optim import AdamW
from .tensor import Tensor


class ScheduleError(ValueError):
    """Token maps do not conform to the scale schedule."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleSchedule:
    """Ordered token-map resolutions, non-decreasing, ending at the
    encoder's spatial output."""

    sizes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.sizes:
            raise ScheduleError("schedule must have at least one scale")
        prev = (0, 0)
        for h, w in self.sizes:
            if h < 1 or w < 1:
                raise ScheduleError("scale extents must be positive")
            if h < prev[0] or w < prev[1]:
                raise ScheduleError("schedule must be non-decreasing")
            prev = (h, w)

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def latent(self) -> tuple[int, int]:
        return self.sizes[-1]

    def tokens_per_scale(self) -> list[int]:
        return [h * w for h, w in self.sizes]

    def total_tokens(self) -> int:
        return sum(self.tokens_per_scale())

    def to_entries(self) -> dict[str, np.ndarray]:
        """The checkpoint entry ``schedule``: one (h, w) row per scale."""
        return {"schedule": np.asarray(self.sizes, np.float32)}

    @classmethod
    def from_entries(cls, entries: dict[str, np.ndarray]) -> "ScaleSchedule":
        return cls(tuple((int(h), int(w))
                         for h, w in checkpoint.count_entry(entries, "schedule", (None, 2))))


DEFAULT_SCHEDULE = ScaleSchedule(((1, 1), (2, 2), (4, 4), (8, 8)))


class Codebook:
    """V embedding vectors of dimension C with nearest-neighbor lookup."""

    def __init__(self, vectors: np.ndarray):
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError("codebook must be [V, C]")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def nearest(self, flat: np.ndarray) -> np.ndarray:
        """Index of the L2-nearest entry per row; ties pick the lowest index."""
        f = np.asarray(flat, dtype=np.float32)
        d = (f * f).sum(axis=1, keepdims=True) \
            - 2.0 * (f @ self.vectors.T) \
            + (self.vectors * self.vectors).sum(axis=1)[None, :]
        return d.argmin(axis=1)


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

HIDDEN = 32  # encoder/decoder conv width


def _conv_init(rng, shape):
    _, cin, kh, kw = shape
    return rng.standard_normal(shape).astype(np.float32) * (2.0 / (cin * kh * kw)) ** 0.5


class VqModel:
    """Encoder, decoder, shared codebook, and per-scale composition conv.
    Given ``entries`` (a loaded checkpoint), every parameter and the
    codebook is its checked entry. Immutable after training; safe for
    concurrent read-only use."""

    def __init__(self, schedule: ScaleSchedule = DEFAULT_SCHEDULE,
                 codebook_size: int = 64, emb_dim: int = 16,
                 raster: int = 32, seed: int = 0,
                 entries: Optional[dict[str, np.ndarray]] = None):
        self.schedule = schedule
        self.raster = raster
        self.emb_dim = emb_dim
        rng = np.random.default_rng(seed)
        p = {}

        def param(name, shape, draw):
            p[name] = Tensor(checkpoint.parameter(entries, name, shape, draw),
                             requires_grad=True)

        # channels into, between and out of the three 3x3 convs of each stack
        for pre, ch in (("enc/", (1, HIDDEN, HIDDEN, emb_dim)),
                        ("dec/", (emb_dim, HIDDEN, HIDDEN, 1))):
            for i in range(3):
                param(f"{pre}w{i + 1}", (ch[i + 1], ch[i], 3, 3),
                      lambda shape: _conv_init(rng, shape))
                param(f"{pre}b{i + 1}", (ch[i + 1],), np.zeros)
        param("eta/w", (emb_dim, emb_dim, 3, 3),  # identity, no bias: keeps eta linear
              lambda shape: np.pad(np.eye(emb_dim, dtype=np.float32)[..., None, None],
                                   ((0, 0), (0, 0), (1, 1), (1, 1))))
        self.params = p
        self.codebook = Codebook(checkpoint.parameter(
            entries, "codebook", (codebook_size, emb_dim),
            lambda shape: rng.standard_normal(shape).astype(np.float32)))

    # -- persistence -------------------------------------------------------

    def to_entries(self) -> dict[str, np.ndarray]:
        e = {name: t.data for name, t in self.params.items()}
        e["codebook"] = self.codebook.vectors
        e |= self.schedule.to_entries()
        e["hp/raster"] = np.float32(self.raster)
        return e

    @classmethod
    def from_entries(cls, entries: dict[str, np.ndarray]) -> "VqModel":
        """The model a checkpoint holds; CheckpointError unless its schedule
        ends at the encoder's output, ceil(raster / 4) on each side."""
        codebook_size, emb_dim = checkpoint.entry(entries, "codebook", (None, None)).shape
        schedule = ScaleSchedule.from_entries(entries)
        raster = int(checkpoint.count_entry(entries, "hp/raster", ()))
        side = -(-raster // 4)  # two stride-2 convs with padding 1
        if schedule.latent != (side, side):
            raise checkpoint.CheckpointError(
                f"checkpoint entry 'schedule' must end at the encoder's output "
                f"{(side, side)} of 'hp/raster' {raster}, not {schedule.latent}")
        model = cls(schedule, codebook_size, emb_dim, raster, entries=entries)
        checkpoint.only_entries(entries, model.to_entries())
        return model

    def save(self, path: str) -> None:
        checkpoint.save(path, self.to_entries())

    @classmethod
    def load(cls, path: str) -> "VqModel":
        return cls.from_entries(checkpoint.load(path))

    # -- conv stacks ---------------------------------------------------------

    def check_rasters(self, rasters: np.ndarray) -> None:
        """Raise DataError unless ``rasters`` [..., H, W] are ``raster`` x
        ``raster``, the size the decoder rebuilds and the schedule's latent
        resolution was laid out for."""
        h, w = rasters.shape[-2:]
        if (h, w) != (self.raster, self.raster):
            raise DataError(f"rasters are {h}x{w} pixels, but the VQ takes "
                            f"{self.raster}x{self.raster}")

    def encode(self, rasters: Tensor) -> Tensor:
        """Rasters [B,1,H,W] in [-1,1] to features at the latent
        resolution. Two stride-2 stages then a projection to C channels."""
        x = _check_batch(rasters, 1)
        self.check_rasters(x.data)
        p = self.params
        h = T.gelu(T.conv2d(x, p["enc/w1"], p["enc/b1"], stride=2, padding=1))
        h = T.gelu(T.conv2d(h, p["enc/w2"], p["enc/b2"], stride=2, padding=1))
        return T.conv2d(h, p["enc/w3"], p["enc/b3"], stride=1, padding=1)

    def decode(self, features: Tensor) -> Tensor:
        """Features [B,C,h_K,w_K] to rasters [B,1,H,W]."""
        x = _check_batch(features, self.emb_dim)
        p = self.params
        h = T.gelu(T.conv2d(x, p["dec/w1"], p["dec/b1"], stride=1, padding=1))
        h = T.resize_bilinear(h, (self.raster // 2, self.raster // 2))
        h = T.gelu(T.conv2d(h, p["dec/w2"], p["dec/b2"], stride=1, padding=1))
        h = T.resize_bilinear(h, (self.raster, self.raster))
        return T.conv2d(h, p["dec/w3"], p["dec/b3"], stride=1, padding=1)

    def eta_features(self, feats: Tensor) -> Tensor:
        """Composition operator on embedded features: upsample [B, C, h, w]
        to the latent resolution and apply the shared composition conv."""
        up = T.resize_bilinear(_check_batch(feats, self.emb_dim), self.schedule.latent)
        return T.conv2d(up, self.params["eta/w"], None, stride=1, padding=1)

    # -- batched no-grad helpers (hot paths) -----------------------------------

    def encode_batch(self, rasters: np.ndarray) -> np.ndarray:
        return self.encode(Tensor(rasters)).data

    def decode_batch(self, feats: np.ndarray) -> np.ndarray:
        return self.decode(Tensor(feats)).data

    def nearest_batch(self, feats: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
        """Quantize [B, C, h, w] features; returns int64 [B, h*w]."""
        return self.codebook.nearest(_rows(feats)).reshape(feats.shape[0], hw[0] * hw[1])

    def eta_batch(self, indices: np.ndarray, k: int) -> np.ndarray:
        """eta over a batch of flattened index maps [B, h_k*w_k]. Runs on
        constants only, so it records nothing on an active tape."""
        emb = _embed(self.codebook, indices, self.schedule.sizes[k])
        up = T.resize_bilinear(Tensor(emb), self.schedule.latent)
        return T.conv2d(up, Tensor(self.params["eta/w"].data), None,
                        stride=1, padding=1).data

    def decompose_batch(self, feats: np.ndarray,
                        inputs: Optional[Sequence[np.ndarray]] = None
                        ) -> list[np.ndarray]:
        """Residual quantization of [B, C, h_K, w_K] features over the
        schedule, coarse to fine; returns per-scale int64 [B, n_k].

        Scale k quantizes the features minus the composition of the maps
        below k, resized to s_k. Those maps are the decomposition's own
        picks, or ``inputs`` (per scale [B, n_k]) when given; with
        ``inputs`` equal to the own picks the result is the same."""
        acc = np.zeros_like(feats)
        out = []
        for k, (h, w) in enumerate(self.schedule.sizes):
            down = T.resize_bilinear(Tensor(feats - acc), (h, w)).data
            out.append(self.nearest_batch(down, (h, w)))
            if k + 1 < len(self.schedule):
                acc = acc + self.eta_batch(out[k] if inputs is None else inputs[k], k)
        return out

    def compositions(self, maps: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The composition [B, C, h_K, w_K] after each scale of per-scale
        maps [B, n_k]: element k sums the contributions of maps 0..k, added
        in schedule order."""
        out: list[np.ndarray] = []
        for k, idx in enumerate(maps):
            prev = out[-1] if out else np.zeros(
                (idx.shape[0], self.emb_dim) + self.schedule.latent, np.float32)
            out.append(prev + self.eta_batch(idx, k))
        return out

    def compose_batch(self, maps: Sequence[np.ndarray]) -> np.ndarray:
        """Sum of the per-scale contributions, in schedule order."""
        return self.compositions(maps)[-1]

    def image_tokens(self, images: np.ndarray) -> np.ndarray:
        """Conditioning tokens [B, n_img] int64 of RGB images [B, 3, H, W] in
        [0, 1]: luminance in [-1, 1], the depth encoder, then the scale
        decomposition, concatenated coarse to fine."""
        lum = (0.299 * images[:, 0] + 0.587 * images[:, 1] + 0.114 * images[:, 2])
        feats = self.encode_batch((lum * 2.0 - 1.0)[:, None, :, :].astype(np.float32))
        return np.concatenate(self.decompose_batch(feats), axis=1)


def _check_batch(x: Tensor, channels: int) -> Tensor:
    if x.data.ndim != 4 or x.data.shape[1] != channels:
        raise T.DimensionError(f"expected [B, {channels}, h, w], got {x.data.shape}")
    return x


def _rows(feats: np.ndarray) -> np.ndarray:
    """Feature maps [B, C, h, w] as rows [B*h*w, C], one per position."""
    return feats.transpose(0, 2, 3, 1).reshape(-1, feats.shape[1])


def _embed(codebook: Codebook, indices: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    """Token maps [B, h*w] as their embedded feature maps [B, C, h, w]."""
    rows = codebook.vectors[indices.reshape(-1)]
    return np.ascontiguousarray(
        rows.reshape(indices.shape[0], hw[0], hw[1], -1).transpose(0, 3, 1, 2))


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass
class VqTrainConfig:
    steps: int = 3000
    warmup_steps: int = 300       # plain-autoencoder phase before k-means init
    batch: int = 8
    lr: float = 2e-3
    seed: int = 0


COMMITMENT = 0.25      # weight of the commitment term, averaged over scales
EMA_DECAY = 0.99       # codebook EMA decay
KMEANS_SAMPLES = 512   # rasters whose encoder outputs seed the k-means init
KMEANS_ITERS = 20


def check_finite(loss: Tensor) -> None:
    """Raise DivergenceError unless every value of ``loss`` is finite."""
    if not np.isfinite(loss.data).all():
        raise DivergenceError("training loss became non-finite")


def _cluster_sums(assign: np.ndarray, rows: np.ndarray, k: int):
    """Per-cluster row counts and float64 row sums [k, dim]. ``bincount``
    adds each cluster's rows from 0 in index order, the order a per-cluster
    loop or a scatter-add uses, so the sums keep those bits."""
    counts = np.bincount(assign, minlength=k)
    sums = np.stack([np.bincount(assign, weights=col, minlength=k)
                     for col in rows.T], axis=1)
    return counts, sums


def _kmeans(points: np.ndarray, k: int, rng) -> np.ndarray:
    """Plain Lloyd's iterations; empty clusters respawn on random points,
    drawn in cluster order. Each center is its cluster's sum over its count,
    which has the bits of a per-cluster mean."""
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(KMEANS_ITERS):
        d = (points * points).sum(1, keepdims=True) \
            - 2 * points @ centers.T + (centers * centers).sum(1)[None, :]
        counts, sums = _cluster_sums(d.argmin(axis=1), points, k)
        centers = sums / np.maximum(counts, 1)[:, None]
        for j in np.flatnonzero(counts == 0):
            centers[j] = points[rng.integers(n)]
    return centers.astype(np.float32)


def _masked_mse(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    diff = T.sub(pred, Tensor(target))
    sq = T.mul(diff, diff)
    weighted = T.mul(sq, Tensor(mask))
    return T.scale(T.sum_all(weighted), 1.0 / max(float(mask.sum()), 1.0))


def train_vqvae(rasters: np.ndarray, masks: np.ndarray, config: VqTrainConfig,
                model: Optional[VqModel] = None,
                out_dir: Optional[str] = None):
    """Train the autoencoder and codebook on normalized depth rasters.

    ``rasters``: [N, 1, H, W] in [-1, 1]; ``masks``: same shape, {0, 1}.
    Returns (model, loss_curve) where the curve rows are (step, loss).
    Raises DivergenceError if the loss goes non-finite and DataError if the
    rasters are not the model's size. With ``out_dir`` set, a rolling
    checkpoint is written periodically, and the curve as
    ``vqvae_loss.csv`` (rows step, loss, lr) at the end, also on
    divergence.
    """
    if rasters.shape[0] == 0:
        raise ValueError("train_vqvae: empty dataset")
    rng = np.random.default_rng(config.seed)
    if model is None:
        model = VqModel(seed=config.seed)
    model.check_rasters(rasters)
    opt = AdamW(model.params, lr=config.lr, weight_decay=0.0)
    n = rasters.shape[0]
    curve: list[tuple[int, float]] = []
    ckpt_period = checkpoint.rolling_period(config.steps)
    ckpt_path = os.path.join(out_dir, "vqvae_ckpt_latest.dart") if out_dir else None
    if ckpt_path:
        model.save(ckpt_path)

    def batch_indices(step):
        return rng.integers(0, n, size=min(config.batch, n))

    try:
        # phase 1: reconstruction only, no quantization in the loop
        for step in range(config.warmup_steps):
            sel = batch_indices(step)
            x, m = rasters[sel], masks[sel]
            with T.Tape():
                recon = model.decode(model.encode(Tensor(x)))
                loss = _masked_mse(recon, x, m)
                check_finite(loss)
                loss.backward()
            opt.step()
            curve.append((step, loss.item()))

        # k-means codebook init over warm-up encoder outputs
        sel = rng.choice(n, size=min(KMEANS_SAMPLES, n), replace=False)
        feats = model.encode_batch(rasters[sel])
        pts = _rows(feats).astype(np.float64)
        model.codebook = Codebook(_kmeans(pts, model.codebook.size, rng))

        # phase 2: multi-scale residual VQ with straight-through + EMA updates
        ema_count = np.ones(model.codebook.size, np.float64)
        ema_sum = model.codebook.vectors.astype(np.float64).copy()
        v = model.codebook.size
        for step in range(config.warmup_steps, config.steps):
            sel = batch_indices(step)
            x, m = rasters[sel], masks[sel]
            assigned, rows = [], []  # per scale, in schedule order
            with T.Tape():
                f = model.encode(Tensor(x))
                acc: Optional[Tensor] = None
                commit: Optional[Tensor] = None
                for k, (h, w) in enumerate(model.schedule.sizes):
                    resid = f if acc is None else T.sub(f, acc)
                    s_in = T.resize_bilinear(resid, (h, w))
                    idx = model.nearest_batch(s_in.data, (h, w))
                    emb = _embed(model.codebook, idx, (h, w))
                    assigned.append(idx.reshape(-1))
                    rows.append(_rows(s_in.data))
                    q = T.add(s_in, Tensor(emb - s_in.data))  # straight-through
                    contrib = model.eta_features(q)
                    acc = contrib if acc is None else T.add(acc, contrib)
                    d = T.sub(s_in, Tensor(emb))
                    c = T.mean_all(T.mul(d, d))
                    commit = c if commit is None else T.add(commit, c)
                recon = model.decode(acc)
                loss = T.add(_masked_mse(recon, x, m),
                             T.scale(commit, COMMITMENT / len(model.schedule)))
                check_finite(loss)
                loss.backward()
            opt.step()
            # EMA codebook update from this step's assignments
            cnt, sm = _cluster_sums(np.concatenate(assigned), np.concatenate(rows), v)
            d = EMA_DECAY
            ema_count = d * ema_count + (1 - d) * cnt
            ema_sum = d * ema_sum + (1 - d) * sm
            total = ema_count.sum()
            smoothed = (ema_count + 1e-5) / (total + v * 1e-5) * total
            model.codebook = Codebook((ema_sum / smoothed[:, None]).astype(np.float32))
            curve.append((step, loss.item()))
            if ckpt_path and (step + 1) % ckpt_period == 0:
                model.save(ckpt_path)
    finally:
        if out_dir:
            checkpoint.write_loss_curve(os.path.join(out_dir, "vqvae_loss.csv"),
                                        [(s, l, config.lr) for s, l in curve])
    return model, curve

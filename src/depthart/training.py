"""The two training regimes for the token-map transformer.

Teacher forcing feeds ground-truth token maps as autoregressive inputs
and targets, in one masked forward. The refinement regime instead runs
greedy inference on the tape, feeding the model its own predictions,
and supervises each scale's logits with the quantized residual between
the encoded ground-truth depth features and the accumulated composition
of those predictions - recomputed at every step, so the targets track
the model as it learns. Predictions are constants: no gradient flows
through the argmax.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint, tensor as T
from .data import DepthSample, normalize_depth
from .optim import AdamW, step_lr
from .tensor import Tensor
from .var import (VarModel, depth_input_features, embed_sequence, forward,
                  infer_batch)
from .vq import DivergenceError, VqModel

REGIMES = ("teacher_forcing", "depthart")
_REGIME_ALIASES = {"tf": "teacher_forcing", "teacher_forcing": "teacher_forcing",
                   "depthart": "depthart"}


class ConfigError(ValueError):
    """Run configuration is missing or malformed."""


def read_config(path: str, keys: tuple[str, ...],
                overrides: dict | None = None) -> dict[str, str]:
    """Read a key=value file (``#`` starts a comment), let ``overrides``
    win, and check that exactly ``keys`` are set."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            raw[key] = val
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items()})
    for key in keys:
        if key not in raw:
            raise ConfigError(f"missing config key {key!r}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


@dataclass
class TrainConfig:
    regime: str = "teacher_forcing"
    lr: float = 1e-4
    wd: float = 1e-2
    batch: int = 4
    steps: int = 10_000
    decay_period: int = 1_000
    decay_gamma: float = 0.8
    seed: int = 0
    data_dir: str = ""
    out_dir: str = ""

    REQUIRED = ("regime", "lr", "wd", "batch", "steps", "decay_period",
                "decay_gamma", "seed", "data_dir", "out_dir")

    def __post_init__(self):
        if self.regime not in _REGIME_ALIASES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        self.regime = _REGIME_ALIASES[self.regime]
        for name in ("lr", "wd", "batch", "steps", "decay_period", "decay_gamma"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"config key {name!r} must be positive")

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "TrainConfig":
        raw = read_config(path, cls.REQUIRED, overrides)
        return cls(
            regime=raw["regime"],
            lr=float(raw["lr"]), wd=float(raw["wd"]),
            batch=int(raw["batch"]), steps=int(raw["steps"]),
            decay_period=int(raw["decay_period"]),
            decay_gamma=float(raw["decay_gamma"]),
            seed=int(raw["seed"]),
            data_dir=raw["data_dir"], out_dir=raw["out_dir"],
        )


@dataclass
class Batch:
    """One training batch with everything both regimes may need."""

    image_tokens: np.ndarray            # [B, n_img] int
    f_depth: np.ndarray                 # [B, C, h_K, w_K] continuous features
    teacher: list[np.ndarray]           # per scale [B, n_k] int
    mask: np.ndarray                    # [B, H, W] raster validity


@dataclass
class TrainingSet:
    image_tokens: np.ndarray
    f_depth: np.ndarray
    teacher: list[np.ndarray]
    masks: np.ndarray

    def __len__(self) -> int:
        return self.image_tokens.shape[0]

    def batch(self, idx: np.ndarray) -> Batch:
        return Batch(image_tokens=self.image_tokens[idx],
                     f_depth=self.f_depth[idx],
                     teacher=[t[idx] for t in self.teacher],
                     mask=self.masks[idx])


def prepare_training_set(vq: VqModel, samples: list[DepthSample],
                         chunk: int = 64) -> TrainingSet:
    """Encode a dataset once: image token maps, continuous ground-truth
    depth features, and the teacher decomposition."""
    img_tok, fds, masks = [], [], []
    teacher: list[list[np.ndarray]] = [[] for _ in vq.schedule.sizes]
    for lo in range(0, len(samples), chunk):
        part = samples[lo:lo + chunk]
        images = np.stack([s.image for s in part])
        depths = np.stack([normalize_depth(s.depth, s.mask) for s in part])
        img_feats = vq.encode_image_batch(images)
        img_tok.append(np.concatenate(vq.decompose_batch(img_feats), axis=1))
        f_d = vq.encode_batch(depths[:, None, :, :])
        fds.append(f_d)
        for k, idx in enumerate(vq.decompose_batch(f_d)):
            teacher[k].append(idx)
        masks.append(np.stack([s.mask for s in part]))
    return TrainingSet(
        image_tokens=np.concatenate(img_tok).astype(np.int64),
        f_depth=np.concatenate(fds),
        teacher=[np.concatenate(t).astype(np.int64) for t in teacher],
        masks=np.concatenate(masks),
    )


# --------------------------------------------------------------------------
# refinement targets
# --------------------------------------------------------------------------


def depthart_targets_batch(z_idx: list[np.ndarray], f_depth: np.ndarray,
                           vq: VqModel) -> list[np.ndarray]:
    """Per-scale targets [B, n_k]: quantized residuals between the
    ground-truth features [B, C, h_K, w_K] and the accumulated composition
    of the predictions ``z_idx``. Equals ``vq.decompose_batch(f_depth)``
    bit for bit when the predictions are that decomposition."""
    acc = np.zeros_like(f_depth)
    targets = []
    for k, (h, w) in enumerate(vq.schedule.sizes):
        down = T.resize_bilinear(Tensor(f_depth - acc), (h, w)).data
        targets.append(vq.nearest_batch(down, (h, w)).astype(np.int64))
        if k + 1 < len(vq.schedule):
            acc = acc + vq.eta_batch(z_idx[k], k)
    return targets


# --------------------------------------------------------------------------
# regime steps
# --------------------------------------------------------------------------


def _scale_loss(model: VarModel, logits: Tensor,
                targets: list[np.ndarray]) -> Tensor:
    """Sum over scales of the per-token-averaged cross entropy."""
    vocab = model.config.vocab
    total: Tensor | None = None
    for (lo, hi), tgt in zip(model.depth_slices(len(targets)), targets):
        block = T.slice_axis(logits, 1, lo, hi)
        flat = T.reshape(block, (-1, vocab))
        ce = T.softmax_cross_entropy(flat, tgt.reshape(-1))
        total = ce if total is None else T.add(total, ce)
    return total


def teacher_forcing_step(model: VarModel, vq: VqModel, batch: Batch,
                         opt: AdamW, lr: float | None = None) -> float:
    """One optimizer step with ground-truth maps as inputs and targets."""
    k_total = len(vq.schedule)
    feats = depth_input_features(model, vq, batch.teacher[:k_total - 1], k_total)
    with T.Tape():
        seq = embed_sequence(model, batch.image_tokens, feats)
        logits = forward(model, seq, model.attention_mask(k_total))
        loss = _scale_loss(model, logits, batch.teacher)
        _abort_if_nan(loss)
        loss.backward()
    opt.step(lr)
    return loss.item()


def depthart_step(model: VarModel, vq: VqModel, batch: Batch,
                  opt: AdamW, lr: float | None = None,
                  diagnostics: dict | None = None) -> float:
    """One refinement step on one tape: greedy inference records its
    rounds, dynamic targets are built from its predictions, and the loss
    is taken on the logits the inference produced. The mask is
    prefix-closed, so those are the logits of a full masked forward over
    the predictions; the predictions themselves are argmax constants."""
    with T.Tape():
        round_logits: list[Tensor] = []
        z_idx = infer_batch(model, vq, batch.image_tokens, round_logits)
        targets = depthart_targets_batch(z_idx, batch.f_depth, vq)
        loss = _scale_loss(model, T.concat(round_logits, axis=1), targets)
        _abort_if_nan(loss)
        loss.backward()
    opt.step(lr)
    if diagnostics is not None:
        diagnostics["targets"] = [t.copy() for t in targets]
        diagnostics["predictions"] = [z.copy() for z in z_idx]
    return loss.item()


def _abort_if_nan(loss: Tensor) -> None:
    if not np.isfinite(loss.data).all():
        raise DivergenceError("training loss became non-finite")


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

STEP_FNS = {"teacher_forcing": teacher_forcing_step, "depthart": depthart_step}


def fit(model: VarModel, vq: VqModel, dataset: TrainingSet | list[DepthSample],
        config: TrainConfig):
    """Run the configured regime; returns (model, curve) where curve rows
    are (step, loss, lr). Writes a rolling checkpoint, a final checkpoint,
    and the loss CSV under config.out_dir when it is set. On divergence
    the partial curve and last checkpoint are retained and the error
    re-raised."""
    training_set = dataset if isinstance(dataset, TrainingSet) \
        else prepare_training_set(vq, dataset)
    if len(training_set) == 0:
        raise ConfigError("fit: empty dataset")
    step_fn = STEP_FNS[config.regime]
    opt = AdamW(model.params, lr=config.lr, weight_decay=config.wd)
    rng = np.random.default_rng(config.seed)
    period = checkpoint.rolling_period(config.steps)
    out_dir = config.out_dir or None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    curve: list[tuple[int, float, float]] = []
    order = np.empty(0, np.int64)
    cursor = 0
    t0 = time.monotonic()
    if out_dir:
        model.save(os.path.join(out_dir, "ckpt_latest.dart"))
    try:
        for step in range(config.steps):
            if cursor + config.batch > order.size:
                order = rng.permutation(len(training_set))
                cursor = 0
            idx = order[cursor:cursor + config.batch]
            cursor += config.batch
            lr = step_lr(config.lr, step, config.decay_period, config.decay_gamma)
            loss = step_fn(model, vq, training_set.batch(idx), opt, lr)
            curve.append((step, loss, lr))
            if out_dir and (step + 1) % period == 0:
                model.save(os.path.join(out_dir, "ckpt_latest.dart"))
    finally:
        if out_dir:
            write_loss_curve(os.path.join(out_dir, "loss.csv"), curve)
    if out_dir:
        model.save(os.path.join(out_dir, "model.dart"))
    elapsed = time.monotonic() - t0
    return model, curve, elapsed


def write_loss_curve(path: str, curve: list[tuple[int, float, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["step", "loss", "lr"])
        for step, loss, lr in curve:
            w.writerow([step, repr(float(loss)), repr(float(lr))])

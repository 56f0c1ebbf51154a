"""The two training regimes for the token-map transformer.

Both supervise scale k with ``vq.decompose_batch(f, maps)``: the
ground-truth depth features f quantized, scale by scale, against the
composition of the maps below k. Teacher forcing takes the
decomposition's own picks as the maps, computed once per dataset, and
feeds them as inputs too, in one masked forward. The refinement regime
(DepthART) runs greedy inference on the tape, feeding the model its own
predictions, and takes those predictions as the maps, so its targets are
recomputed at every step and track the model as it learns. Predictions
are constants: no gradient flows through the argmax.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import checkpoint, tensor as T
from .data import DepthSample, depth_rasters
from .optim import AdamW, step_lr
from .tensor import Tensor
from .var import (VarModel, depth_input_features, embed_sequence, forward,
                  infer_batch)
from .vq import VqModel, check_finite

ENCODE_CHUNK = 64  # samples encoded per batch by prepare_training_set
_REGIME_ALIASES = {"tf": "teacher_forcing", "teacher_forcing": "teacher_forcing",
                   "depthart": "depthart"}


class ConfigError(ValueError):
    """Run configuration is missing or malformed."""


# The keys whose values must be positive.
_POSITIVE = ("lr", "batch", "steps", "decay_period", "decay_gamma")
_NON_NEGATIVE = ("wd", "seed")  # zero is no decay; numpy seeds are non-negative
_DIRECTORIES = ("data_dir", "out_dir")


def _config_value(key: str, value):
    """``value`` converted to the type of config key ``key``. Raises
    ConfigError naming the key if it does not convert or is out of range."""
    kind = _CONFIG_TYPES[key]
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, "
                          f"got {value!r}") from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    if key == "regime" and out not in _REGIME_ALIASES:
        raise ConfigError(f"unknown regime {value!r}")
    if key in _POSITIVE and not out > 0:
        raise ConfigError(f"config key {key!r} must be positive, got {value!r}")
    if key in _NON_NEGATIVE and not out >= 0:
        raise ConfigError(f"config key {key!r} must not be negative, got {value!r}")
    return out


def read_config(path: str, keys: tuple[str, ...],
                overrides: dict | None = None) -> dict:
    """Read a key=value file (``#`` starts a comment), let ``overrides``
    win, check that exactly ``keys`` are set and that no directory is
    empty, and convert each value to its key's type; each ConfigError
    raised starts with ``path``. (An empty ``out_dir`` given to
    ``TrainConfig`` directly means ``fit`` writes nothing; a trainer run
    from a file always writes its outputs.)"""
    raw: dict[str, str] = {}
    try:
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
        for key in _DIRECTORIES:
            if key in keys and not raw[key]:
                raise ConfigError(f"config key {key!r} must name a directory, "
                                  f"got an empty value")
        return {key: _config_value(key, raw[key]) for key in keys}
    except (ConfigError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None


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

    def __post_init__(self):
        for name in _CONFIG_TYPES:
            setattr(self, name, _config_value(name, getattr(self, name)))
        self.regime = _REGIME_ALIASES[self.regime]

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "TrainConfig":
        return cls(**read_config(path, tuple(_CONFIG_TYPES), overrides))


# The type of every key either trainer's config file may set: the type of
# its TrainConfig default. A VQ config sets a subset of these keys.
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)}


@dataclass
class TrainingSet:
    """Encoded samples, or one batch of them: what both regimes read."""

    image_tokens: np.ndarray            # [N, n_img] int64
    f_depth: np.ndarray                 # [N, C, h_K, w_K] continuous features
    teacher: list[np.ndarray]           # per scale [N, n_k] int64

    def __len__(self) -> int:
        return self.image_tokens.shape[0]

    def batch(self, idx: np.ndarray) -> "TrainingSet":
        return TrainingSet(image_tokens=self.image_tokens[idx],
                           f_depth=self.f_depth[idx],
                           teacher=[t[idx] for t in self.teacher])


def prepare_training_set(vq: VqModel, samples: list[DepthSample]) -> TrainingSet:
    """Encode a dataset once: image token maps, continuous ground-truth
    depth features, and the teacher decomposition."""
    img_tok, fds = [], []
    teacher: list[list[np.ndarray]] = [[] for _ in vq.schedule.sizes]
    for lo in range(0, len(samples), ENCODE_CHUNK):
        part = samples[lo:lo + ENCODE_CHUNK]
        img_tok.append(vq.image_tokens(np.stack([s.image for s in part])))
        f_d = vq.encode_batch(depth_rasters(part))
        fds.append(f_d)
        for k, idx in enumerate(vq.decompose_batch(f_d)):
            teacher[k].append(idx)
    return TrainingSet(
        image_tokens=np.concatenate(img_tok),
        f_depth=np.concatenate(fds),
        teacher=[np.concatenate(t) for t in teacher],
    )


# --------------------------------------------------------------------------
# refinement targets
# --------------------------------------------------------------------------


def depthart_targets_batch(z_idx: list[np.ndarray], f_depth: np.ndarray,
                           vq: VqModel) -> list[np.ndarray]:
    """Per-scale int64 targets [B, n_k]: the decomposition of the
    ground-truth features [B, C, h_K, w_K] taken against the predictions
    ``z_idx``. Equals the teacher decomposition when the predictions are
    that decomposition."""
    return vq.decompose_batch(f_depth, z_idx)


# --------------------------------------------------------------------------
# regime steps
# --------------------------------------------------------------------------


def _scale_loss(blocks: list[Tensor], targets: list[np.ndarray]) -> Tensor:
    """Sum over scales of the per-token-averaged cross entropy of logits
    [B, n_k, V] against targets [B, n_k]; one block of each per scale."""
    total: Tensor | None = None
    for block, tgt in zip(blocks, targets):
        flat = T.reshape(block, (-1, block.shape[-1]))
        ce = T.softmax_cross_entropy(flat, tgt.reshape(-1))
        total = ce if total is None else T.add(total, ce)
    return total


def teacher_forcing_step(model: VarModel, vq: VqModel, batch: TrainingSet,
                         opt: AdamW, lr: float | None = None) -> float:
    """One optimizer step with ground-truth maps as inputs and targets."""
    k_total = len(vq.schedule)
    feats = depth_input_features(model, vq, batch.teacher[:k_total - 1], k_total)
    with T.Tape():
        seq = embed_sequence(model, batch.image_tokens, feats)
        logits = forward(model, seq, model.attention_mask(k_total))
        loss = _scale_loss([T.slice_axis(logits, 1, lo, hi)
                            for lo, hi in model.depth_slices(k_total)], batch.teacher)
        check_finite(loss)
        loss.backward()
    opt.step(lr)
    return loss.item()


def depthart_step(model: VarModel, vq: VqModel, batch: TrainingSet,
                  opt: AdamW, lr: float | None = None) -> float:
    """One refinement step on one tape: greedy inference records its
    rounds, dynamic targets are built from its predictions, and the loss
    is taken on the logits each round produced. The mask is prefix-closed,
    so those are the logits of a full masked forward over the predictions;
    the predictions themselves are argmax constants."""
    with T.Tape():
        round_logits: list[Tensor] = []
        z_idx = infer_batch(model, vq, batch.image_tokens, round_logits)
        targets = depthart_targets_batch(z_idx, batch.f_depth, vq)
        loss = _scale_loss(round_logits, targets)
        check_finite(loss)
        loss.backward()
    opt.step(lr)
    return loss.item()


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

STEP_FNS = {"teacher_forcing": teacher_forcing_step, "depthart": depthart_step}


def fit(model: VarModel, vq: VqModel, dataset: TrainingSet | list[DepthSample],
        config: TrainConfig):
    """Run the configured regime; returns (model, curve, elapsed) where
    curve rows are (step, loss, lr) and elapsed is the run's wall time in
    seconds, checkpoint writes included. Writes a rolling checkpoint, a
    final checkpoint, and the loss CSV under config.out_dir when it is
    set. On divergence the partial curve and last checkpoint are retained
    and the error re-raised."""
    if len(dataset) == 0:
        raise ConfigError("fit: empty dataset")
    training_set = dataset if isinstance(dataset, TrainingSet) \
        else prepare_training_set(vq, dataset)
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
            checkpoint.write_loss_curve(os.path.join(out_dir, "loss.csv"), curve)
    if out_dir:
        model.save(os.path.join(out_dir, "model.dart"))
    elapsed = time.monotonic() - t0
    return model, curve, elapsed

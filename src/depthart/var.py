"""Next-scale autoregressive transformer over token maps.

The sequence is [image tokens, scales 1..K][depth tokens, scales 1..k].
Image positions form a bidirectional conditioning prefix. The input row
for depth scale k is the VQ's composition of the previous depth maps
(``VqModel.compositions``), downsampled to scale k and linearly
projected; scale 1 uses a learned start embedding. Attention for a depth
position at scale k reaches the whole image prefix and depth scales
strictly below k, so the scale-k logits are a function of (image tokens,
z_{<k}) only. Every row sees a prefix of the sequence, so the mask is one
count per row: row i attends to keys [0, visible[i]). Each block projects
only what some row reads. Keys and values exist for the rows below
``attention_mask(K).max()``, since no row attends to the last scale. The
head reads only the depth rows, so the last block computes queries,
attention output, MLP and final norm for those rows alone.

Decoding is greedy argmax per position, lowest index on ties. It runs
the same ``forward`` as training, one scale per call, on the new rows
only: each call gets those rows' counts and a per-block key/value cache
of all earlier rows that are keys. This is exact because the mask is
prefix-closed: every row a position may see comes before its own scale,
so it is already in the cache when the position is decoded. Under a tape
the cached rounds are recorded like a full forward, so the refinement
regime takes its loss on the logits its own decode produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from . import tensor as T
from .tensor import Tensor
from .vq import ScaleSchedule, ScheduleError, VqModel

MLP_RATIO = 4  # MLP hidden width per model width


@dataclass(frozen=True)
class VarConfig:
    schedule: ScaleSchedule
    vocab: int = 64
    emb_dim: int = 16
    width: int = 128
    heads: int = 4
    blocks: int = 4


class VarModel:
    """Transformer weights plus the scale layout they were built for. Block
    b projects queries with ``block{b}/q_w`` [D, D] and keys and values with
    ``kv_w`` [D, 2D] (keys first), drawn as one [D, 3D] matrix. Given
    ``entries`` (a loaded checkpoint), each parameter is its checked entry."""

    def __init__(self, config: VarConfig, seed: int = 0,
                 codebook_init: np.ndarray | None = None,
                 entries: dict[str, np.ndarray] | None = None):
        self.config = config
        k = len(config.schedule)
        d = config.width
        c = config.emb_dim
        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}

        def param(name, shape, draw):
            p[name] = Tensor(checkpoint.parameter(entries, name, shape, draw),
                             requires_grad=True)

        def normal(shape):
            return rng.standard_normal(shape).astype(np.float32) * 0.02

        param("tok_emb", (config.vocab, c), normal if codebook_init is None
              else lambda shape: np.asarray(codebook_init, np.float32).copy())
        param("img_proj_w", (c, d), normal)
        param("img_proj_b", (d,), np.zeros)
        param("depth_proj_w", (c, d), normal)
        param("depth_proj_b", (d,), np.zeros)
        param("start_emb", (1, d), normal)
        param("scale_emb", (k, d), normal)
        for ki, (h, w) in enumerate(config.schedule.sizes):
            param(f"pos_emb/{ki}", (h * w, d), normal)
        for b in range(config.blocks):
            pre = f"block{b}/"
            param(pre + "ln1_g", (d,), np.ones)
            param(pre + "ln1_b", (d,), np.zeros)
            qkv = normal((d, 3 * d)) if entries is None else None
            param(pre + "q_w", (d, d), lambda shape: qkv[:, :d].copy())
            param(pre + "q_b", (d,), np.zeros)
            param(pre + "kv_w", (d, 2 * d), lambda shape: qkv[:, d:].copy())
            param(pre + "kv_b", (2 * d,), np.zeros)
            param(pre + "attn_w", (d, d), normal)
            param(pre + "attn_b", (d,), np.zeros)
            param(pre + "ln2_g", (d,), np.ones)
            param(pre + "ln2_b", (d,), np.zeros)
            param(pre + "mlp_w1", (d, MLP_RATIO * d), normal)
            param(pre + "mlp_b1", (MLP_RATIO * d,), np.zeros)
            param(pre + "mlp_w2", (MLP_RATIO * d, d), normal)
            param(pre + "mlp_b2", (d,), np.zeros)
        param("ln_f_g", (d,), np.ones)
        param("ln_f_b", (d,), np.zeros)
        param("head_w", (d, config.vocab), normal)
        param("head_b", (config.vocab,), np.zeros)
        self.params = p
        # The layout of the K-scale sequence. One of k depth scales is its
        # first ``_ends[k]`` rows, so every k reads slices of these.
        tokens = config.schedule.tokens_per_scale()
        n_img = sum(tokens)
        starts = np.cumsum([0] + tokens).tolist()
        self._depth_slices = list(zip(starts[:-1], starts[1:]))
        self._ends = [n_img + s for s in starts]
        self._visible = np.repeat(np.asarray([n_img] + self._ends[:-1], np.int64),
                                  [n_img] + tokens)
        self._visible.flags.writeable = False  # shared by every caller
        self._ids = np.repeat(np.tile(np.arange(k, dtype=np.int64), 2), tokens * 2)

    # -- persistence --------------------------------------------------------

    def to_entries(self) -> dict[str, np.ndarray]:
        e = {name: t.data for name, t in self.params.items()}
        cfg = self.config
        e |= cfg.schedule.to_entries()
        e |= {f"hp/{k}": np.float32(getattr(cfg, k)) for k in ("width", "heads", "blocks")}
        return e

    @classmethod
    def from_entries(cls, entries: dict[str, np.ndarray]) -> "VarModel":
        def hp(name):
            return int(checkpoint.count_entry(entries, "hp/" + name, ()))

        vocab, c = checkpoint.entry(entries, "tok_emb", (None, None)).shape
        width, heads = hp("width"), hp("heads")
        if width % heads:
            raise checkpoint.CheckpointError(
                f"checkpoint entry 'hp/heads' must divide 'hp/width': "
                f"{heads} does not divide {width}")
        cfg = VarConfig(schedule=ScaleSchedule.from_entries(entries), vocab=vocab,
                        emb_dim=c, width=width, heads=heads, blocks=hp("blocks"))
        model = cls(cfg, entries=entries)
        checkpoint.only_entries(entries, model.to_entries())
        return model

    def save(self, path: str) -> None:
        checkpoint.save(path, self.to_entries())

    @classmethod
    def load(cls, path: str) -> "VarModel":
        return cls.from_entries(checkpoint.load(path))

    # -- layout ---------------------------------------------------------------

    def n_image_tokens(self) -> int:
        return self.config.schedule.total_tokens()

    def depth_slices(self, k_max: int) -> list[tuple[int, int]]:
        """(start, stop) of each depth scale within the depth logits block."""
        return self._depth_slices[:k_max]

    def attention_mask(self, k_max: int) -> np.ndarray:
        """Visible-key counts [L] of a sequence holding k_max depth scales:
        row i attends to keys [0, visible[i]). Image rows see the whole
        image; depth scale k sees the image and depth scales < k."""
        return self._visible[:self._ends[k_max]]

    def _static_ids(self, k_max: int) -> np.ndarray:
        """Scale index [L] of every row of a sequence of k_max depth scales."""
        return self._ids[:self._ends[k_max]]


# --------------------------------------------------------------------------
# input construction
# --------------------------------------------------------------------------


def _scale_features(acc: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    """A composition [B, C, h_K, w_K] resized to one scale, as rows [B, h*w, C]."""
    b, c = acc.shape[:2]
    down = T.resize_bilinear(Tensor(acc), hw).data
    return np.ascontiguousarray(down.reshape(b, c, hw[0] * hw[1]).transpose(0, 2, 1))


def depth_input_features(model: VarModel, vq: VqModel,
                         prev_indices: list[np.ndarray],
                         k_max: int) -> list[np.ndarray | None]:
    """Per-scale input features for depth scales 1..k_max.

    ``prev_indices``: flattened predicted/teacher maps [B, n_k] for scales
    below k_max. Scale 1 has no features (start embedding); scale j gets
    ``vq.compositions`` of the maps below j, resized to s_j. Computed
    outside the tape: predictions are constants for the transformer.
    """
    if len(prev_indices) < k_max - 1:
        raise ScheduleError("depth_input_features: not enough previous maps")
    sizes = model.config.schedule.sizes
    comps = vq.compositions(prev_indices[:k_max - 1])
    return [None] + [_scale_features(acc, sizes[j])
                     for j, acc in enumerate(comps, start=1)]


def _image_rows(model: VarModel, img_tokens: np.ndarray) -> Tensor:
    p = model.params
    img = T.embedding_lookup(p["tok_emb"], img_tokens)
    return T.linear(img, p["img_proj_w"], p["img_proj_b"])


def _depth_rows(model: VarModel, feats: np.ndarray | None, batch: int) -> Tensor:
    """Input rows of one depth scale: the start embedding for scale 1
    (``feats`` is None), else the projected features."""
    p = model.params
    if feats is None:
        return T.embedding_lookup(p["start_emb"], np.zeros((batch, 1), np.int64))
    return T.linear(Tensor(feats), p["depth_proj_w"], p["depth_proj_b"])


def _position_table(model: VarModel, k_max: int) -> Tensor:
    """Scale plus position embedding [L, D] of every sequence row."""
    p = model.params
    scale_rows = T.embedding_lookup(p["scale_emb"], model._static_ids(k_max))
    pos_parts = [p[f"pos_emb/{k}"] for k in range(len(model.config.schedule))]
    pos_parts += [p[f"pos_emb/{k}"] for k in range(k_max)]
    return T.add(scale_rows, T.concat(pos_parts, axis=0))


def embed_sequence(model: VarModel, img_tokens: np.ndarray,
                   depth_feats: list[np.ndarray | None]) -> Tensor:
    """Batched sequence embedding [B, L, D] from image token ids and the
    per-scale depth input features."""
    b = img_tokens.shape[0]
    parts = [_image_rows(model, img_tokens)]
    parts += [_depth_rows(model, feats, b) for feats in depth_feats]
    return T.add_table(T.concat(parts, axis=1),
                       _position_table(model, len(depth_feats)))


# --------------------------------------------------------------------------
# forward and inference
# --------------------------------------------------------------------------


def forward(model: VarModel, inputs: Tensor, visible: np.ndarray,
            cache: list[T.KVCache] | None = None) -> Tensor:
    """Logits [B, N, V] for the depth positions among the input rows [B, L, D].

    ``visible`` holds the input rows' visible-key counts. Without ``cache``
    the inputs are whole sequences, ``visible`` their ``attention_mask``,
    and the blocks start fresh caches sized for ``attention_mask(K).max()``
    keys. With ``cache`` (one ``T.KVCache`` per block, sized for those
    keys) they are the rows after the cached ones, and ``visible`` is their
    slice of ``attention_mask(K)``; each cache advances by the rows and
    writes their keys in place.
    Each block projects keys and values (``kv_w``) only for the rows that
    are some row's key, the positions below ``attention_mask(K).max()``
    (the last scale's rows are nobody's key), and the cache gains only
    those. It projects queries (``q_w``) for every row except, in the last
    block, the image rows: the head reads only the depth rows, so the last
    block runs its queries, attention output, MLP and final norm on those
    alone. Either way the call records on an active tape.
    A block is two ops: one ``T.attention`` for its first norm, the query
    and key/value projections, attention, the output projection and the
    residual add, which in the last block keeps only the residual rows
    that ask a query, and one ``T.mlp`` for its second norm, MLP and
    residual add. The final norm and the head are one ``T.norm_linear``.
    Each fused op is one tape record, and none keeps a norm's output, the
    queries or the attention output.
    """
    x = inputs
    length = x.data.shape[1]
    if len(visible) != length:
        raise ScheduleError(
            f"mask length {len(visible)} != sequence length {length}")
    p = model.params
    cfg = model.config
    n_keys = int(model.attention_mask(len(cfg.schedule)).max())
    if cache is None:
        cache = [T.KVCache(n_keys) for _ in range(cfg.blocks)]
    first = cache[0].rows  # position of row 0
    n_lead = min(max(model.n_image_tokens() - first, 0), length)  # image rows
    n_kv = min(max(n_keys - first, 0), length)  # rows some row reads as keys
    for blk in range(cfg.blocks):
        pre = f"block{blk}/"
        lead = n_lead if blk == cfg.blocks - 1 else 0  # rows asking no query
        x = T.attention(x, p[pre + "ln1_g"], p[pre + "ln1_b"], p[pre + "q_w"],
                        p[pre + "q_b"], p[pre + "kv_w"], p[pre + "kv_b"],
                        p[pre + "attn_w"], p[pre + "attn_b"], cfg.heads,
                        visible[lead:], cache[blk], lead, n_kv)
        cache[blk].rows += length
        x = T.mlp(x, p[pre + "ln2_g"], p[pre + "ln2_b"], p[pre + "mlp_w1"],
                  p[pre + "mlp_b1"], p[pre + "mlp_w2"], p[pre + "mlp_b2"])
    return T.norm_linear(x, p["ln_f_g"], p["ln_f_b"], p["head_w"], p["head_b"])


def _greedy(logits: np.ndarray) -> np.ndarray:
    """Argmax token per position of logits [B, n, V]; ties pick the lowest."""
    return logits.argmax(axis=2)


def infer_batch(model: VarModel, vq: VqModel, img_tokens: np.ndarray,
                logits: list[Tensor] | None = None) -> list[np.ndarray]:
    """Greedy next-scale decoding for a batch; returns per-scale [B, n_k].

    One cached ``forward`` per scale with the new rows' slice of
    ``attention_mask(K)``: first the image prefix and the start row, whose
    last block then asks a query of the start row alone, then each depth
    scale against all earlier rows, which is exact because the mask is
    prefix-closed. The last round computes no keys or values, since no
    row reads them, so the caches end with ``attention_mask(K).max()``
    keys. Each block's cache is allocated once at that size, and every
    round writes its keys into the next slots; under a tape the rounds'
    records share those buffers, so the keys held grow with the sequence,
    not with the sum of every round's prefix. Each round embeds only its
    new rows, with the helpers of ``embed_sequence``, from a composition
    that gains one ``eta_batch`` per decoded scale. That add is the one
    composition kept outside ``VqModel.compositions``, since each round's
    map is the argmax of the round before; it adds in the same order, so
    the rows are bitwise those a full forward over the predictions would
    consume.

    Under a tape the rounds are recorded, and ``logits``, when given,
    receives each round's [B, n_k, V] logits Tensor, its scale's block of
    one masked forward over the predictions, ready for a per-scale loss.
    """
    schedule = model.config.schedule
    k_total = len(schedule)
    visible = model.attention_mask(k_total)
    table = _position_table(model, k_total)
    cache = [T.KVCache(int(visible.max())) for _ in range(model.config.blocks)]
    batch = img_tokens.shape[0]
    acc = np.zeros((batch, vq.emb_dim) + vq.schedule.latent, np.float32)
    preds: list[np.ndarray] = []
    start = 0  # first sequence row not yet in the cache
    for k in range(k_total):
        feats = _scale_features(acc, schedule.sizes[k]) if k else None
        rows = _depth_rows(model, feats, batch)
        if k == 0:
            rows = T.concat([_image_rows(model, img_tokens), rows], axis=1)
        stop = start + rows.shape[1]
        out = forward(model, T.add_table(rows, T.slice_axis(table, 0, start, stop)),
                      visible[start:stop], cache)
        preds.append(_greedy(out.data))
        if logits is not None:
            logits.append(out)
        if k + 1 < k_total:
            acc = acc + vq.eta_batch(preds[k], k)
        start = stop
    return preds

import threading

import numpy as np
import pytest

from depthart import tensor as T, var
from depthart.var import (VarConfig, VarModel, embed_sequence,
                          depth_input_features, forward, infer_batch)
from depthart.vq import ScheduleError, VqModel

import oracle

rng = np.random.default_rng(21)


def random_maps(schedule, vocab, seed=0):
    """One sample's token maps, flattened per scale: int64 [h_k * w_k]."""
    r = np.random.default_rng(seed)
    return [r.integers(0, vocab, size=n) for n in schedule.tokens_per_scale()]


def build_inputs(prev_maps, image_maps, model, vq):
    """Sequence embedding [1, L, D] of one sample for scales 1..len(prev)+1."""
    feats = depth_input_features(model, vq, [m[None] for m in prev_maps],
                                 len(prev_maps) + 1)
    return embed_sequence(model, np.concatenate(image_maps)[None], feats)


def infer_one(model, vq, image_maps):
    """Greedy decoding of one sample: per-scale [h_k * w_k]."""
    return [z[0] for z in infer_batch(model, vq, np.concatenate(image_maps)[None])]


# ---------------------------------------------------------------------------
# mask structure
# ---------------------------------------------------------------------------

def test_mask_structure(tiny_var):
    sched = tiny_var.config.schedule
    tokens = sched.tokens_per_scale()
    n_img = sum(tokens)
    k_max = len(sched)
    visible = tiny_var.attention_mask(k_max)
    assert visible.shape == (n_img + sum(tokens),)
    # image rows: exactly the image columns visible
    assert np.all(visible[:n_img] == n_img)
    off = n_img
    for k in range(k_max):
        rows = slice(off, off + tokens[k])
        # full image prefix and depth scales < k; scales >= k hidden
        assert np.all(visible[rows] == n_img + sum(tokens[:k]))
        assert np.all(visible[rows] == off)
        off += tokens[k]


# ---------------------------------------------------------------------------
# build_inputs
# ---------------------------------------------------------------------------

def test_build_inputs_scale1_is_start_embedding(tiny_var, tiny_vq):
    img = random_maps(tiny_vq.schedule, 12, seed=1)
    seq = build_inputs([], img, tiny_var, tiny_vq)
    n_img = tiny_var.n_image_tokens()
    assert seq.shape == (1, n_img + 1, tiny_var.config.width)
    p = tiny_var.params
    expected = p["start_emb"].data[0] + (p["scale_emb"].data[0]
                                         + p["pos_emb/0"].data[0])
    assert np.array_equal(seq.data[0, n_img], expected)


def test_build_inputs_deterministic(tiny_var, tiny_vq):
    img = random_maps(tiny_vq.schedule, 12, seed=2)
    prev = random_maps(tiny_vq.schedule, 12, seed=3)[:2]
    a = build_inputs(prev, img, tiny_var, tiny_vq)
    b = build_inputs(prev, img, tiny_var, tiny_vq)
    assert a.data.tobytes() == b.data.tobytes()


def test_build_inputs_scale_k_ignores_scale_k_tokens(tiny_var, tiny_vq):
    # the input rows for scale k are built from scales < k only
    img = random_maps(tiny_vq.schedule, 12, seed=4)
    prev_a = random_maps(tiny_vq.schedule, 12, seed=5)[:2]
    prev_b = [prev_a[0], (prev_a[1] + 3) % 12]   # change scale-2 tokens
    seq_a = build_inputs(prev_a, img, tiny_var, tiny_vq).data[0]
    seq_b = build_inputs(prev_b, img, tiny_var, tiny_vq).data[0]
    n_img = tiny_var.n_image_tokens()
    tokens = tiny_var.config.schedule.tokens_per_scale()
    # rows: scale 1 (start) and scale 2 inputs (built from scale-1 tokens)
    upto_scale2 = n_img + tokens[0] + tokens[1]
    assert seq_a[:upto_scale2].tobytes() == seq_b[:upto_scale2].tobytes()
    # scale-3 input rows do differ
    assert seq_a[upto_scale2:].tobytes() != seq_b[upto_scale2:].tobytes()


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def full_forward(model, vq, img_maps, prev_maps):
    """Logits [N, V] of one sample's depth positions for scales 1..len(prev)+1."""
    seq = build_inputs(prev_maps, img_maps, model, vq)
    k_max = len(prev_maps) + 1
    return forward(model, seq, model.attention_mask(k_max)).data[0]


def test_forward_softmax_rows_sum_to_one(tiny_var, tiny_vq):
    img = random_maps(tiny_vq.schedule, 12, seed=9)
    prev = random_maps(tiny_vq.schedule, 12, seed=10)[:2]
    logits = full_forward(tiny_var, tiny_vq, img, prev)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-5)


def test_forward_causality_bit_identical(tiny_var, tiny_vq):
    # perturbing depth tokens at scale k+1 leaves scale-k logits untouched
    img = random_maps(tiny_vq.schedule, 12, seed=11)
    prev_a = random_maps(tiny_vq.schedule, 12, seed=12)[:2]
    prev_b = [prev_a[0], np.zeros_like(prev_a[1])]  # zero scale-2 tokens
    la = full_forward(tiny_var, tiny_vq, img, prev_a)
    lb = full_forward(tiny_var, tiny_vq, img, prev_b)
    tokens = tiny_var.config.schedule.tokens_per_scale()
    upto = tokens[0] + tokens[1]  # logits for scales 1 and 2
    assert la[:upto].tobytes() == lb[:upto].tobytes()
    assert la[upto:].tobytes() != lb[upto:].tobytes()


def test_forward_image_tokens_reach_all_logits(tiny_var, tiny_vq):
    img_a = random_maps(tiny_vq.schedule, 12, seed=13)
    img_b = [m.copy() for m in img_a]
    img_b[2][15] = (img_b[2][15] + 1) % 12  # scale 3, row 3, column 3
    prev = random_maps(tiny_vq.schedule, 12, seed=14)[:2]
    la = full_forward(tiny_var, tiny_vq, img_a, prev)
    lb = full_forward(tiny_var, tiny_vq, img_b, prev)
    diff = np.abs(la - lb).max(axis=-1)
    assert (diff > 0).mean() > 0.9  # virtually every depth position moved


def test_forward_mask_length_check(tiny_var, tiny_vq):
    img = random_maps(tiny_vq.schedule, 12, seed=15)
    seq = build_inputs([], img, tiny_var, tiny_vq)
    with pytest.raises(ScheduleError):
        forward(tiny_var, seq, tiny_var.attention_mask(2))


def test_gradient_reaches_every_parameter(tiny_var, tiny_vq):
    img = random_maps(tiny_vq.schedule, 12, seed=16)
    teacher = random_maps(tiny_vq.schedule, 12, seed=17)
    with T.Tape():
        seq = build_inputs(teacher[:2], img, tiny_var, tiny_vq)
        logits = forward(tiny_var, seq, tiny_var.attention_mask(3))
        loss = T.softmax_cross_entropy(T.reshape(logits, (-1, 12)),
                                       np.concatenate(teacher))
        loss.backward()
    for name, param in tiny_var.params.items():
        assert param.grad is not None, f"no grad for {name}"
        assert np.linalg.norm(param.grad) > 0, f"zero grad for {name}"
        param.grad = None


def teacher_logits_and_grads(fwd, model, vq, batch, seed):
    """Logits of ``fwd`` on a teacher-forced batch and every parameter's
    gradient of their mean token cross entropy."""
    gen = np.random.default_rng(seed)
    vocab, k_max = model.config.vocab, len(vq.schedule)
    img = gen.integers(0, vocab, size=(batch, model.n_image_tokens()))
    teacher = [gen.integers(0, vocab, size=(batch, n))
               for n in vq.schedule.tokens_per_scale()]
    feats = depth_input_features(model, vq, teacher[:k_max - 1], k_max)
    with T.Tape():
        seq = embed_sequence(model, img, feats)
        logits = fwd(model, seq, model.attention_mask(k_max))
        T.softmax_cross_entropy(T.reshape(logits, (-1, vocab)),
                                np.concatenate(teacher, axis=1).reshape(-1)).backward()
    grads = {name: p.grad for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = None
    return logits.data, grads


def test_forward_matches_all_rows_oracle():
    # the default model at B=3 against a forward whose last block runs every
    # row and whose attention is one dense masked softmax: logits within
    # 1e-6, and each parameter gradient within 1e-5 of that gradient's
    # largest magnitude (measured worst: 4.8e-7 and 1.0e-6)
    vq = VqModel(seed=3)
    model = VarModel(VarConfig(schedule=vq.schedule, vocab=vq.codebook.size,
                               emb_dim=vq.emb_dim), seed=1,
                     codebook_init=vq.codebook.vectors)
    logits, grads = teacher_logits_and_grads(forward, model, vq, 3, seed=50)
    ref_logits, ref_grads = teacher_logits_and_grads(oracle.forward_all_rows,
                                                     model, vq, 3, seed=50)
    assert logits.shape == ref_logits.shape == (3, 85, vq.codebook.size)
    assert np.abs(logits - ref_logits).max() <= 1e-6
    for name, ref in ref_grads.items():
        assert np.abs(grads[name] - ref).max() <= 1e-5 * np.abs(ref).max(), name


def test_last_block_runs_only_depth_rows(tiny_var, tiny_vq, count_calls):
    img = random_maps(tiny_vq.schedule, 12, seed=23)
    prev = random_maps(tiny_vq.schedule, 12, seed=24)[:2]
    seq = build_inputs(prev, img, tiny_var, tiny_vq)
    calls = count_calls(T, "mlp")
    forward(tiny_var, seq, tiny_var.attention_mask(3))
    cfg = tiny_var.config
    n_depth = sum(tiny_vq.schedule.tokens_per_scale())
    length = tiny_var.n_image_tokens() + n_depth
    assert [c[0].shape for c in calls] == \
        [(1, length, cfg.width)] * (cfg.blocks - 1) + [(1, n_depth, cfg.width)]


def test_projections_cover_only_rows_someone_reads(tiny_var, tiny_vq, count_calls):
    # rows given to the query and key/value projections: queries for every
    # row but the last block's image rows, keys and values for the rows some
    # row attends to, the positions below attention_mask(K).max()
    blocks = tiny_var.config.blocks
    tokens = tiny_vq.schedule.tokens_per_scale()  # 1, 4, 16
    n_img = tiny_var.n_image_tokens()  # 21
    n_keys = int(tiny_var.attention_mask(len(tokens)).max())
    assert n_keys == n_img + tokens[0] + tokens[1]  # the last scale is nobody's key
    img = random_maps(tiny_vq.schedule, 12, seed=25)
    prev = random_maps(tiny_vq.schedule, 12, seed=26)[:2]
    calls = count_calls(T, "attention")

    def projected_rows():  # (query rows, key/value rows) of each call
        rows = [(args[0].shape[1] - args[12], args[13]) for args in calls]
        calls.clear()
        return rows

    forward(tiny_var, build_inputs(prev, img, tiny_var, tiny_vq),
            tiny_var.attention_mask(len(tokens)))
    length = n_img + sum(tokens)
    assert projected_rows() == [(length, n_keys)] * (blocks - 1) + [(sum(tokens), n_keys)]

    infer_one(tiny_var, tiny_vq, img)
    caches = [args[11] for args in calls[:blocks]]
    want = []
    for new_rows, depth_rows, keys in ((n_img + 1, 1, n_img + 1), (4, 4, 4), (16, 16, 0)):
        want += [(new_rows, keys)] * (blocks - 1) + [(depth_rows, keys)]
    assert projected_rows() == want  # the last round computes no keys or values
    assert [(len(c), c.rows) for c in caches] == [(n_keys, length)] * blocks


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def test_infer_shapes_and_determinism(tiny_var, tiny_vq, count_calls):
    img = random_maps(tiny_vq.schedule, 12, seed=18)
    calls = count_calls(var, "forward")
    preds_a = infer_one(tiny_var, tiny_vq, img)
    assert len(calls) == len(tiny_vq.schedule)  # K forward passes
    preds_b = infer_one(tiny_var, tiny_vq, img)
    for k, (a, b) in enumerate(zip(preds_a, preds_b)):
        assert a.shape == (tiny_vq.schedule.tokens_per_scale()[k],)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 12


def test_cached_forward_matches_masked_forward(tiny_var, tiny_vq):
    # the rows of each scale, run against a cache of all earlier rows with
    # their slice of the visible-key counts, give the full pass's logits
    img = random_maps(tiny_vq.schedule, 12, seed=31)
    prev = random_maps(tiny_vq.schedule, 12, seed=32)[:2]
    seq = build_inputs(prev, img, tiny_var, tiny_vq)
    visible = tiny_var.attention_mask(3)
    full = forward(tiny_var, seq, visible).data[0]
    cache = [T.KVCache(int(visible.max())) for _ in range(tiny_var.config.blocks)]
    parts = []
    start, stop = 0, tiny_var.n_image_tokens()
    for n in tiny_var.config.schedule.tokens_per_scale():
        stop = stop + n
        rows = T.Tensor(seq.data[:, start:stop])
        parts.append(forward(tiny_var, rows, visible[start:stop], cache).data[0])
        start = stop
    cached = np.concatenate(parts)
    assert np.allclose(cached, full, atol=1e-5)
    assert np.array_equal(cached.argmax(axis=-1), full.argmax(axis=-1))


def test_incremental_decode_matches_full_forward(tiny_var, tiny_vq):
    # the KV-cached inference path must agree with the reference forward
    img = random_maps(tiny_vq.schedule, 12, seed=30)
    preds = infer_one(tiny_var, tiny_vq, img)
    for k_max in range(1, len(tiny_vq.schedule) + 1):
        logits = full_forward(tiny_var, tiny_vq, img, preds[:k_max - 1])
        lo, hi = tiny_var.depth_slices(k_max)[k_max - 1]
        assert np.array_equal(logits[lo:hi].argmax(axis=-1),
                              preds[k_max - 1])


def test_taped_decode_allocates_each_cache_once(tiny_var, tiny_vq, monkeypatch):
    # every round writes its keys and values in place into one buffer per
    # block, sized by the mask, which earlier rounds' records share
    buffers = []
    forward_fn = var.forward

    def spied(model, inputs, visible, cache=None):
        out = forward_fn(model, inputs, visible, cache)
        buffers.append([(c.k, c.v) for c in cache])
        return out

    monkeypatch.setattr(var, "forward", spied)
    img = np.stack([np.concatenate(random_maps(tiny_vq.schedule, 12, seed=s))
                    for s in (42, 43)])
    with T.Tape():
        infer_batch(tiny_var, tiny_vq, img, [])
    k_total = len(tiny_vq.schedule)
    keys = int(tiny_var.attention_mask(k_total).max())
    assert len(buffers) == k_total
    for k, v in buffers[0]:
        assert k.shape[3] == keys and v.shape[2] == keys
    for later in buffers[1:]:
        for (k, v), (k0, v0) in zip(later, buffers[0]):
            assert k is k0 and v is v0


def test_infer_batch_matches_single(tiny_var, tiny_vq):
    # row b of a batch equals the batch of one holding sample b
    flat = np.stack([np.concatenate(random_maps(tiny_vq.schedule, 12, seed=s))
                     for s in (19, 20)])
    batched = infer_batch(tiny_var, tiny_vq, flat)
    for b in range(2):
        singles = infer_batch(tiny_var, tiny_vq, flat[b:b + 1])
        for k, z in enumerate(singles):
            assert np.array_equal(batched[k][b], z[0])


def test_inference_thread_ignores_other_threads_tape(tiny_var, tiny_vq):
    # a tape records only its own thread's ops, so a second thread can run
    # inference (which would record on a tape of its own) while the first trains
    img = np.stack([np.concatenate(random_maps(tiny_vq.schedule, 12, seed=s))
                    for s in (40, 41)])
    errors = []

    def worker():
        try:
            tiny_vq.encode_batch(np.zeros((2, 1, 16, 16), np.float32))
            var.infer_batch(tiny_var, tiny_vq, img)
        except Exception as e:  # reported below, in the main thread
            errors.append(e)

    with T.Tape() as tape:
        before = len(tape.records)
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert len(tape.records) == before
    assert not thread.is_alive()
    assert errors == []


def test_var_checkpoint_round_trip(tiny_var, tiny_vq, tmp_path):
    p = str(tmp_path / "var.dart")
    tiny_var.save(p)
    back = VarModel.load(p)
    assert back.config.schedule.sizes == tiny_var.config.schedule.sizes
    img = random_maps(tiny_vq.schedule, 12, seed=22)
    a = infer_one(tiny_var, tiny_vq, img)
    b = infer_one(back, tiny_vq, img)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)

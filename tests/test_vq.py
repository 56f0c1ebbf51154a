import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthart import tensor as T
from depthart.tensor import Tensor
from depthart.vq import (Codebook, ScaleSchedule, ScheduleError, VqModel,
                         _cluster_sums, _kmeans, _rows)

import oracle
from synth import smooth_field

rng = np.random.default_rng(7)


def tiny_model(seed=0, scales=((1, 1), (2, 2), (4, 4)), v=16, c=2, raster=16):
    return VqModel(schedule=ScaleSchedule(scales), codebook_size=v,
                   emb_dim=c, raster=raster, seed=seed)


def identity_conv_model(**kw):
    """Model whose eta conv is still the Dirac init (fresh construction)."""
    return tiny_model(**kw)


# ---------------------------------------------------------------------------
# quantize (Codebook.nearest)
# ---------------------------------------------------------------------------

def test_quantize_codebook_entry_maps_to_itself():
    cb = Codebook(rng.standard_normal((16, 4)).astype(np.float32))
    f = np.tile(cb.vectors[7], (9, 1))
    assert np.all(cb.nearest(f) == 7)


def test_quantize_tie_breaks_to_lowest_index():
    vecs = np.zeros((8, 2), np.float32)
    vecs[2] = [1.0, 0.0]
    vecs[5] = [-1.0, 0.0]
    # remaining entries pushed far away so only 2 and 5 compete
    for i in [0, 1, 3, 4, 6, 7]:
        vecs[i] = [100.0 + i, 100.0]
    cb = Codebook(vecs)
    f = np.zeros((1, 2), np.float32)  # equidistant from entries 2 and 5
    assert cb.nearest(f)[0] == 2


def test_quantize_matches_bruteforce_scan():
    cb = Codebook(rng.standard_normal((16, 5)).astype(np.float32))
    f = rng.standard_normal((9, 5)).astype(np.float32)
    idx = cb.nearest(f)
    for i in range(9):
        d = ((cb.vectors.astype(np.float64) - f[i].astype(np.float64)) ** 2).sum(axis=1)
        assert idx[i] == int(d.argmin())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_quantize_idempotent_on_embeddings(seed):
    # nearest-neighbor lookup of a codebook vector returns its own index
    r = np.random.default_rng(seed)
    cb = Codebook(r.standard_normal((12, 3)).astype(np.float32))
    idx = r.integers(0, 12, size=16)
    assert np.array_equal(cb.nearest(cb.vectors[idx]), idx)


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def test_eta_at_final_scale_identity_conv_is_embedding():
    m = identity_conv_model()
    k = len(m.schedule) - 1
    h, w = m.schedule.sizes[k]
    idx = rng.integers(0, 16, size=(2, h * w))
    out = m.eta_batch(idx, k)
    expected = m.codebook.vectors[idx].reshape(2, h, w, -1).transpose(0, 3, 1, 2)
    assert np.allclose(out, expected, atol=1e-6)


def test_eta_matches_resize_then_conv_oracle():
    m = tiny_model(seed=3)
    # randomize the conv so the oracle is not trivially identity
    m.params["eta/w"] = Tensor(
        rng.standard_normal(m.params["eta/w"].shape).astype(np.float32) * 0.2,
        requires_grad=True)
    idx = rng.integers(0, 16, size=(1, 4))
    got = m.eta_batch(idx, 1)
    # oracle composed from tensor-module primitives
    emb = Tensor(m.codebook.vectors[idx.reshape(2, 2)].transpose(2, 0, 1)[None])
    up = T.resize_bilinear(emb, m.schedule.latent)
    want = T.conv2d(up, m.params["eta/w"], None, stride=1, padding=1).data
    assert np.allclose(got, want, atol=1e-6)


def test_eta_and_decompose_record_nothing_on_a_tape():
    # the decode calls them between taped rounds: eta/w must get no gradient
    m = tiny_model(seed=4)
    feats = rng.standard_normal((2, m.emb_dim) + m.schedule.latent).astype(np.float32)
    with T.Tape() as tape:
        maps = m.decompose_batch(feats)
        m.eta_batch(maps[1], 1)
        assert tape.records == []


# ---------------------------------------------------------------------------
# decompose / compose
# ---------------------------------------------------------------------------

def oracle_decompose(f, model):
    """Straight-line reimplementation of the residual recursion."""
    acc = np.zeros_like(f)
    maps, resids = [], []
    for k, (h, w) in enumerate(model.schedule.sizes):
        r = f - acc
        resids.append(r.copy())
        down = T.resize_bilinear(Tensor(r), (h, w)).data
        idx = model.codebook.nearest(
            down.reshape(model.emb_dim, -1).T).reshape(h, w)
        maps.append(idx)
        emb = model.codebook.vectors[idx].transpose(2, 0, 1)
        up = T.resize_bilinear(Tensor(emb[None]), model.schedule.latent)
        contrib = T.conv2d(up, model.params["eta/w"], None, 1, 1).data[0]
        acc = acc + contrib
    final_resid = f - acc
    return maps, resids, acc, final_resid


def test_decompose_single_scale_is_quantize():
    m = tiny_model(scales=((4, 4),))
    f = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
    maps = m.decompose_batch(f)
    assert len(maps) == 1
    assert np.array_equal(maps[0], m.nearest_batch(f, (4, 4)))


def test_decompose_exact_embedding_zero_residual():
    m = identity_conv_model(scales=((4, 4),))
    idx = rng.integers(0, 16, size=(1, 16)).astype(np.int32)
    f = m.codebook.vectors[idx].reshape(1, 4, 4, 2).transpose(0, 3, 1, 2).copy()
    maps = m.decompose_batch(f)
    assert np.array_equal(maps[0], idx)
    resid = f - m.compose_batch(maps)
    assert np.abs(resid).max() < 1e-6


def test_decompose_matches_straightline_oracle():
    m = tiny_model(seed=5)
    m.params["eta/w"] = Tensor(
        rng.standard_normal(m.params["eta/w"].shape).astype(np.float32) * 0.3,
        requires_grad=True)
    f = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
    maps = m.decompose_batch(f)
    for b in range(2):
        o_maps, o_resids, _, _ = oracle_decompose(f[b], m)
        for got, want in zip(maps, o_maps):
            assert np.array_equal(got[b], want.reshape(-1))
        # per-scale residual norms agree with the straight-line recursion
        acc = np.zeros_like(f[b])
        for k, idx in enumerate(maps):
            r = f[b] - acc
            assert np.linalg.norm(r) == pytest.approx(
                np.linalg.norm(o_resids[k]), rel=1e-6)
            acc = acc + m.eta_batch(idx[b:b + 1], k)[0]


def test_compose_single_scale_equals_eta():
    m = tiny_model()
    idx = np.array([[5]], np.int32)
    assert np.allclose(m.compose_batch([idx]), m.eta_batch(idx, 0))


def test_compose_order_independent():
    # compose_batch adds the per-scale contributions in schedule order;
    # adding the same contributions in reverse order agrees up to float32
    # rounding
    m = tiny_model(seed=2)
    f = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
    maps = m.decompose_batch(f)
    a = m.compose_batch(maps)
    b = sum(m.eta_batch(idx, k) for k, idx in reversed(list(enumerate(maps))))
    assert np.allclose(a, b, atol=1e-6)


def test_telescoping_identity():
    m = tiny_model(seed=11)
    f = np.stack([np.random.default_rng(trial).standard_normal((2, 4, 4))
                  for trial in range(20)]).astype(np.float32)
    composed = m.compose_batch(m.decompose_batch(f))
    for b in range(20):
        _, _, o_acc, o_final = oracle_decompose(f[b], m)
        assert np.abs(composed[b] - o_acc).max() < 1e-5
        assert np.abs((f[b] - composed[b]) - o_final).max() < 1e-5


def test_decompose_against_own_picks_is_the_teacher_decomposition(count_calls):
    # DepthART's targets reduce to teacher forcing's when the maps fed in
    # are the decomposition's own picks; the last scale's map feeds no
    # later scale, so its contribution is never computed
    m = tiny_model(seed=12)
    m.params["eta/w"].data += rng.standard_normal(
        m.params["eta/w"].shape).astype(np.float32) * 0.2
    f = rng.standard_normal((4, 2, 4, 4)).astype(np.float32)
    calls = count_calls(VqModel, "eta_batch")
    teacher = m.decompose_batch(f)
    assert len(calls) == len(m.schedule) - 1
    for got, want in zip(m.decompose_batch(f, inputs=teacher), teacher):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_compositions_are_prefix_sums_and_compose_is_the_last():
    m = tiny_model(seed=13)
    m.params["eta/w"].data += rng.standard_normal(
        m.params["eta/w"].shape).astype(np.float32) * 0.2
    maps = [rng.integers(0, 16, size=(3, n)) for n in m.schedule.tokens_per_scale()]
    comps = m.compositions(maps)
    assert len(comps) == len(maps)
    for k, comp in enumerate(comps):
        want = sum(m.eta_batch(maps[j], j) for j in range(k + 1))
        assert np.array_equal(comp, want)
    assert np.array_equal(m.compose_batch(maps), comps[-1])
    assert m.compositions([]) == []


def test_image_tokens_match_per_sample_oracle():
    m = VqModel(seed=2)
    images = np.random.default_rng(14).uniform(0, 1, (3, 3, 32, 32)).astype(np.float32)
    got = m.image_tokens(images)
    assert got.dtype == np.int64 and got.shape == (3, m.schedule.total_tokens())
    assert np.array_equal(got, oracle.image_tokens(m, images))


def test_decompose_deterministic():
    m = tiny_model(seed=9)
    f = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
    a = m.decompose_batch(f)
    b = m.decompose_batch(f)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# encoder/decoder and batched helpers
# ---------------------------------------------------------------------------

def test_encode_output_shape():
    m = VqModel(seed=1)
    raster = rng.standard_normal((1, 1, 32, 32)).astype(np.float32)
    f = m.encode(Tensor(raster))
    assert f.shape == (1, 16, 8, 8)
    with pytest.raises(T.DimensionError):
        m.encode(Tensor(raster[0]))


def test_untrained_round_trip_is_finite():
    m = VqModel(seed=1)
    raster = rng.standard_normal((1, 1, 32, 32)).astype(np.float32)
    out = m.decode_batch(m.compose_batch(m.decompose_batch(m.encode_batch(raster))))
    assert out.shape == (1, 1, 32, 32)
    assert np.all(np.isfinite(out))


def test_batched_helpers_match_per_sample():
    # row b of a batch equals the batch of one holding sample b
    m = tiny_model(seed=6, raster=16)
    f = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
    batched = m.decompose_batch(f)
    comp = m.compose_batch(batched)
    dec = m.decode_batch(comp)
    for b in range(3):
        singles = m.decompose_batch(f[b:b + 1])
        for k, idx in enumerate(singles):
            assert np.array_equal(batched[k][b], idx[0])
        assert np.array_equal(comp[b], m.compose_batch(singles)[0])
        assert np.array_equal(dec[b], m.decode_batch(comp[b:b + 1])[0])


def test_codebook_pairwise_distinct_after_init():
    m = VqModel(seed=0)
    assert oracle.min_pairwise_distance(m.codebook.vectors) > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kmeans_matches_per_cluster_loop_on_encoder_features(seed):
    # k-means turns a last-bit change in a center into another codebook,
    # so the vectorized update must give the loop's bits
    gen = np.random.default_rng(seed)
    rasters = np.stack([smooth_field(gen, 32, -1.0, 1.0) for _ in range(16)])
    feats = VqModel(seed=seed).encode_batch(rasters[:, None].astype(np.float32))
    pts = _rows(feats).astype(np.float64)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _kmeans(pts, 64, got_rng)
    assert np.array_equal(got, oracle.kmeans(pts, 64, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_kmeans_respawns_empty_clusters_like_the_per_cluster_loop():
    # 3 distinct points and 5 clusters leave at least 2 clusters empty in
    # every iteration, so each one respawns on a random point
    pts = np.repeat(np.random.default_rng(0).standard_normal((3, 4)), 6, axis=0)
    got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
    got = _kmeans(pts, 5, got_rng)
    assert np.array_equal(got, oracle.kmeans(pts, 5, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(20))
def test_ema_sums_over_all_scales_match_the_scatter_add(seed):
    # rows of mixed magnitude make the sums depend on the order of addition
    r = np.random.default_rng(seed)
    batch, v = int(r.integers(1, 9)), int(r.integers(1, 65))
    stats = [(r.integers(0, v, size=(batch, s * s)),
              (r.standard_normal((batch * s * s, 16))
               * 10.0 ** r.integers(-6, 7, size=(batch * s * s, 1))).astype(np.float32))
             for s in (1, 2, 4, 8)]
    cnt, sm = _cluster_sums(np.concatenate([idx.reshape(-1) for idx, _ in stats]),
                            np.concatenate([rows for _, rows in stats]), v)
    want_cnt, want_sm = oracle.ema_cluster_sums(stats, v)
    assert np.array_equal(cnt, want_cnt)
    assert np.array_equal(sm, want_sm)


def test_checkpoint_round_trip(tmp_path):
    m = tiny_model(seed=8)
    p = str(tmp_path / "vq.dart")
    m.save(p)
    back = VqModel.load(p)
    assert back.schedule.sizes == m.schedule.sizes
    assert np.array_equal(back.codebook.vectors, m.codebook.vectors)
    f = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
    for a, b in zip(m.decompose_batch(f), back.decompose_batch(f)):
        assert np.array_equal(a, b)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        ScaleSchedule(((2, 2), (1, 1)))
    with pytest.raises(ScheduleError):
        ScaleSchedule(())

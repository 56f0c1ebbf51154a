import math
import tracemalloc

import numpy as np
import pytest

from depthart import tensor as T
from depthart.training import ENCODE_CHUNK
from depthart.var import VarConfig, VarModel
from depthart.vq import DEFAULT_SCHEDULE

import oracle
from gradcheck import fd_gradcheck

rng = np.random.default_rng(1234)


def r(*shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# softmax cross entropy
# ---------------------------------------------------------------------------

def naive_cross_entropy(logits, targets):
    """Independent direct-summation oracle (no log-sum-exp shortcut)."""
    total = 0.0
    for i, t in enumerate(targets):
        p = np.exp(logits[i]) / np.sum(np.exp(logits[i]))
        total += -math.log(p[t])
    return total / len(targets)


def test_cross_entropy_uniform():
    logits = T.Tensor(np.zeros((3, 4)))
    loss = T.softmax_cross_entropy(logits, np.array([0, 1, 3]))
    assert loss.item() == pytest.approx(math.log(4.0), rel=1e-6)


def test_cross_entropy_margin():
    logits = np.zeros((2, 5), dtype=np.float64)
    logits[0, 2] = 20.0
    logits[1, 0] = 20.0
    loss = T.softmax_cross_entropy(T.Tensor(logits, dtype=np.float64),
                                   np.array([2, 0]))
    assert loss.item() < 1e-8


def test_cross_entropy_matches_naive_oracle():
    logits = r(3, 5)
    targets = np.array([4, 0, 2])
    got = T.softmax_cross_entropy(T.Tensor(logits, dtype=np.float64), targets)
    assert got.item() == pytest.approx(naive_cross_entropy(logits, targets), abs=1e-6)


def test_cross_entropy_bad_index():
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_grad():
    targets = np.array([1, 0, 2, 2])
    fd_gradcheck(lambda x: T.softmax_cross_entropy(x, targets), [r(4, 3)])


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------

def test_resize_constant():
    x = T.Tensor(np.full((2, 3, 3), 0.7))
    y = T.resize_bilinear(x, (5, 7))
    assert np.allclose(y.data, 0.7, atol=1e-6)
    assert y.shape == (2, 5, 7)


def test_resize_one_by_one_replicates():
    x = T.Tensor(np.array([[[2.5]]]))
    y = T.resize_bilinear(x, (4, 6))
    assert np.allclose(y.data, 2.5)


def test_resize_round_trip_corners():
    # hand-computed: 2x2 -> 4x4 align-corners keeps the corners exact and
    # interior weights are thirds; shrinking back samples the corners.
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    up = T.resize_bilinear(T.Tensor(x, dtype=np.float64), (4, 4))
    assert up.data[0, 0, 0] == pytest.approx(1.0)
    assert up.data[0, 0, 3] == pytest.approx(2.0)
    assert up.data[0, 3, 0] == pytest.approx(3.0)
    assert up.data[0, 3, 3] == pytest.approx(4.0)
    assert up.data[0, 0, 1] == pytest.approx(1.0 * (2 / 3) + 2.0 * (1 / 3))
    back = T.resize_bilinear(up, (2, 2))
    assert np.allclose(back.data, x)


def test_resize_grad():
    fd_gradcheck(lambda x: T.resize_bilinear(x, (5, 3)), [r(2, 3, 4)])
    fd_gradcheck(lambda x: T.resize_bilinear(x, (2, 2)), [r(1, 4, 4)])


# every resize the package runs: the VQ decoder's two upsamples at batch 8,
# each scale side to and from the 8x8 latent grid, and one rectangular pair
RESIZE_CASES = [((8, 32, 8, 8), (16, 16)), ((8, 32, 16, 16), (32, 32)),
                *[((8, 16, 8, 8), (s, s)) for s in (1, 2, 4, 8)],
                *[((8, 16, s, s), (8, 8)) for s in (1, 2, 4)],
                ((2, 3, 4, 6), (5, 7)), ((2, 3, 5, 7), (4, 6))]


def resize_and_grad(x, size, g):
    """(y, dx) of ``T.resize_bilinear`` for output gradient ``g``."""
    xt = T.Tensor(x, dtype=x.dtype, requires_grad=True)
    with T.Tape():
        y = T.resize_bilinear(xt, size)
        T.sum_all(T.mul(y, T.Tensor(g, dtype=g.dtype))).backward()  # dy == g exactly
    return y.data, xt.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,size", RESIZE_CASES,
                         ids=[f"{s[2]}x{s[3]}-{d[0]}x{d[1]}" for s, d in RESIZE_CASES])
def test_resize_matches_kronecker_oracle(shape, size, dtype):
    # the per-axis products give the dense Kronecker matrix's output and
    # gradient; both round their weights to float32, so they agree to a few
    # float32 ulps of the largest value (measured worst: 2.5e-7 of it)
    gen = np.random.default_rng(11)
    x = gen.standard_normal(shape).astype(dtype)
    g = gen.standard_normal(shape[:2] + size).astype(dtype)
    got = resize_and_grad(x, size, g)
    for name, a, ref in zip(("y", "dx"), got, oracle.resize_bilinear(x, size, g)):
        assert a.dtype == dtype and a.shape == ref.shape, name
        assert np.abs(a - ref).max() <= 5e-7 * np.abs(ref).max(), name


def test_first_decoder_upsample_peaks_under_two_mib():
    # the 16->32 upsample builds two 32x16 weight matrices, not a 1 MiB
    # dense matrix from a 2 MiB float64 product
    x = np.random.default_rng(3).standard_normal((8, 32, 16, 16)).astype(np.float32)
    T._RESIZE_CACHE.clear()
    tracemalloc.start()
    try:
        T.resize_bilinear(T.Tensor(x), (32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv2d_dirac_kernel_is_identity():
    x = r(2, 3, 5, 5)
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    y = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                 stride=1, padding=1)
    assert np.allclose(y.data, x, atol=1e-12)


def test_conv2d_matches_direct_sum():
    # brute-force correlation oracle
    x, w, b = r(1, 2, 4, 4), r(3, 2, 3, 3), r(3)
    y = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                 T.Tensor(b, dtype=np.float64), stride=2, padding=1)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for co in range(3):
        for i in range(y.shape[2]):
            for j in range(y.shape[3]):
                patch = xp[0, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                assert y.data[0, co, i, j] == pytest.approx(
                    float((patch * w[co]).sum() + b[co]), rel=1e-9)


def test_conv2d_channel_mismatch():
    with pytest.raises(T.DimensionError):
        T.conv2d(T.Tensor(np.zeros((1, 2, 4, 4))), T.Tensor(np.zeros((3, 4, 3, 3))))


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_grad(stride, pad):
    fd_gradcheck(lambda x, w, b: T.conv2d(x, w, b, stride=stride, padding=pad),
                 [r(2, 2, 4, 4), r(2, 2, 3, 3), r(2)])


# (x shape, w shape, stride, pad, bias): every VQ conv at B=8 (HIDDEN=32,
# emb_dim=16, raster 32), the bias-free eta conv also at eta_batch's B=4 of
# a refinement step, the encoder convs at prepare_training_set's batch of
# ENCODE_CHUNK, then odd geometries, two of them with a single channel on
# the side a GEMM contracts over
CONV_GEOMETRIES = {
    "enc1": ((8, 1, 32, 32), (32, 1, 3, 3), 2, 1, True),
    "enc2": ((8, 32, 16, 16), (32, 32, 3, 3), 2, 1, True),
    "enc3": ((8, 32, 8, 8), (16, 32, 3, 3), 1, 1, True),
    "dec1": ((8, 16, 8, 8), (32, 16, 3, 3), 1, 1, True),
    "dec2": ((8, 32, 16, 16), (32, 32, 3, 3), 1, 1, True),
    "dec3": ((8, 32, 32, 32), (1, 32, 3, 3), 1, 1, True),
    "eta": ((8, 16, 8, 8), (16, 16, 3, 3), 1, 1, False),
    "eta_b4": ((4, 16, 8, 8), (16, 16, 3, 3), 1, 1, False),
    "chunk_enc1": ((ENCODE_CHUNK, 1, 32, 32), (32, 1, 3, 3), 2, 1, True),
    "chunk_enc2": ((ENCODE_CHUNK, 32, 16, 16), (32, 32, 3, 3), 2, 1, True),
    "chunk_enc3": ((ENCODE_CHUNK, 32, 8, 8), (16, 32, 3, 3), 1, 1, True),
    "stride2_pad0": ((3, 2, 7, 7), (4, 2, 3, 3), 2, 0, True),
    "kernel2_stride3": ((2, 3, 8, 8), (2, 3, 2, 2), 3, 1, True),
    "cout1_stride2": ((2, 3, 7, 7), (1, 3, 3, 3), 2, 1, True),
    "cin1_cout1_kernel2_stride3": ((2, 1, 8, 8), (1, 1, 2, 2), 3, 1, True),
}
VQ_CONVS = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3", "eta", "eta_b4")


def conv_case(geometry):
    """float32 (x, w, b, g) for a geometry; b is None for a bias-free conv
    and g is an output gradient."""
    xs, ws, stride, pad, bias = CONV_GEOMETRIES[geometry]
    gen = np.random.default_rng(7)
    x = gen.standard_normal(xs).astype(np.float32)
    w = (gen.standard_normal(ws) * 0.1).astype(np.float32)
    b = gen.standard_normal(ws[0]).astype(np.float32)
    h2 = (xs[2] + 2 * pad - ws[2]) // stride + 1
    w2 = (xs[3] + 2 * pad - ws[3]) // stride + 1
    g = gen.standard_normal((xs[0], ws[0], h2, w2)).astype(np.float32)
    return x, w, b if bias else None, g


def conv_and_grads(x, w, b, g, stride, pad):
    """(y, dx, dw, db) of ``T.conv2d`` for output gradient ``g``; db is None
    without a bias."""
    xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
    bt = None if b is None else T.Tensor(b, requires_grad=True)
    with T.Tape():
        y = T.conv2d(xt, wt, bt, stride=stride, padding=pad)
        T.sum_all(T.mul(y, T.Tensor(g))).backward()  # dy == g exactly
    return y.data, xt.grad, wt.grad, None if bt is None else bt.grad


@pytest.mark.parametrize("geometry", sorted(CONV_GEOMETRIES))
def test_conv2d_matches_float64_oracle(geometry):
    stride, pad = CONV_GEOMETRIES[geometry][2:4]
    x, w, b, g = conv_case(geometry)
    got = conv_and_grads(x, w, b, g, stride, pad)
    x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
    b64 = np.zeros(w.shape[0]) if b is None else b.astype(np.float64)
    want = (oracle.conv2d(x64, w64, b64, stride, pad),
            *oracle.conv2d_grads(x64, w64, g64, stride, pad))
    for name, a, ref in zip(("y", "dx", "dw", "db"), got, want):
        if a is None:  # no bias, no db
            continue
        assert a.dtype == np.float32 and a.shape == ref.shape, name
        err = np.abs(a - ref).max()
        assert err <= 2e-6 * np.abs(ref).max(), (name, err)


@pytest.mark.parametrize("geometry", VQ_CONVS)
def test_conv2d_rows_match_batches_of_one(geometry):
    # batched encode/decode must give each sample the bits it gets alone,
    # and a repeated call the bits of the first
    stride, pad = CONV_GEOMETRIES[geometry][2:4]
    x, w, b, g = conv_case(geometry)
    y, dx, dw, db = conv_and_grads(x, w, b, g, stride, pad)
    for a, again in zip((y, dx, dw, db), conv_and_grads(x, w, b, g, stride, pad)):
        assert np.array_equal(a, again)
    for i in range(len(x)):
        yi, dxi, _, _ = conv_and_grads(x[i:i + 1], w, b, g[i:i + 1], stride, pad)
        assert np.array_equal(yi, y[i:i + 1])
        assert np.array_equal(dxi, dx[i:i + 1])


def test_conv2d_allocates_no_column_buffer():
    # an im2col kernel allocates a [B, Cin*kh*kw, H2*W2] column buffer, 9x
    # dec3's input, in each direction; the peak must stay near the input
    stride, pad = CONV_GEOMETRIES["dec3"][2:4]
    x, w, b, g = conv_case("dec3")
    tracemalloc.start()
    try:
        conv_and_grads(x, w, b, g, stride, pad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.nbytes, (peak, x.nbytes)


# ---------------------------------------------------------------------------
# layer norm / gelu
# ---------------------------------------------------------------------------

def test_layer_norm_statistics():
    x = T.Tensor(r(6, 8))
    y = oracle.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)))
    assert np.allclose(y.data.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(y.data.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_grad():
    fd_gradcheck(oracle.layer_norm, [r(3, 6), r(6), r(6)])


def test_layer_norm_taped_equals_untaped():
    x = T.Tensor(r(6, 16), requires_grad=True)
    gain, bias = T.Tensor(r(16), requires_grad=True), T.Tensor(r(16))
    with T.Tape():
        taped = oracle.layer_norm(x, gain, bias).data
    assert taped.tobytes() == oracle.layer_norm(x, gain, bias).data.tobytes()


def test_gelu_values_and_grad():
    y = T.gelu(T.Tensor(np.array([0.0])))
    assert y.data[0] == pytest.approx(0.0)
    fd_gradcheck(lambda x: T.gelu(x), [r(4, 5)])


def test_gelu_taped_equals_untaped():
    x = T.Tensor(r(4, 5), requires_grad=True)
    with T.Tape():
        taped = T.gelu(x).data
    assert taped.tobytes() == T.gelu(x).data.tobytes()


# ---------------------------------------------------------------------------
# ops that fuse a layer norm into its reader
# ---------------------------------------------------------------------------

def fused_and_composed(fused, composed, arrays, call):
    """``[untaped output(s), taped output(s), gradient of every input]`` of
    ``call(op, inputs)`` for the fused op and for its composition, the
    taped loss weighting every output element by a fixed random draw."""
    results = []
    for op in (fused, composed):
        untaped = call(op, [T.Tensor(a, requires_grad=True) for a in arrays])
        inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
        with T.Tape():
            outs = call(op, inputs)
            backward_weighted(outs)
        results.append([o.data for o in untaped] + [o.data for o in outs]
                       + [t.grad for t in inputs])
    return results


def backward_weighted(outs):
    """Run ``backward()`` from the sum of every element of ``outs``, each
    weighted by a fixed random draw."""
    gen = np.random.default_rng(8)
    terms = [T.sum_all(T.mul(o, T.Tensor(gen.standard_normal(o.shape)))) for o in outs]
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    total.backward()


def assert_same_bits(results):
    fused, composed = results
    assert len(fused) == len(composed)
    for i, (a, b) in enumerate(zip(fused, composed)):
        assert a is not None and b is not None, i
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), i


def normal_arrays(gen, shapes):
    return [gen.standard_normal(s).astype(np.float32) * scale for s, scale in shapes]


@pytest.mark.parametrize("shape", [(4, 170, 128), (1, 128)])
def test_mlp_matches_the_composition_bit_for_bit(shape):
    # output and all seven gradients, taped and untaped, at the default
    # model's B=4 teacher-forcing shape and on a one-row input
    d = shape[-1]
    arrays = normal_arrays(np.random.default_rng(7), (
        (shape, 1.0), ((d,), 1.0), ((d,), 0.1), ((d, 4 * d), 0.1), ((4 * d,), 0.1),
        ((4 * d, d), 0.1), ((d,), 0.1)))
    assert_same_bits(fused_and_composed(T.mlp, oracle.mlp, arrays,
                                        lambda op, t: [op(*t)]))


def test_mlp_grad():
    fd_gradcheck(T.mlp, [r(2, 3, 4), r(4), r(4), r(4, 8), r(8), r(8, 4), r(4)])


def default_layout():
    """(image rows, key rows, rows per scale) of the default model."""
    model = VarModel(VarConfig(schedule=DEFAULT_SCHEDULE))
    k = len(DEFAULT_SCHEDULE)
    return (model.n_image_tokens(), int(model.attention_mask(k).max()),
            DEFAULT_SCHEDULE.tokens_per_scale())


@pytest.mark.parametrize("case", ["full rows", "head", "decode round",
                                  "last decode round", "first decode round"])
def test_norm_linear_matches_the_composition_bit_for_bit(case):
    # the output and every gradient, taped and untaped, of the final norm
    # and head at the default model's B=4 shapes: a whole teacher-forcing
    # sequence, its depth rows (what the head reads), a cached decode round
    # of one scale's rows, the last round and the first round's start row
    n_img, _, tokens = default_layout()
    rows = {"full rows": 2 * n_img, "head": n_img, "decode round": tokens[2],
            "last decode round": tokens[-1], "first decode round": 1}[case]
    d, v = 128, 64
    arrays = normal_arrays(np.random.default_rng(9), [
        ((4, rows, d), 1.0), ((d,), 1.0), ((d,), 0.1), ((d, v), 0.1), ((v,), 0.1)])
    assert_same_bits(fused_and_composed(T.norm_linear, oracle.norm_linear, arrays,
                                        lambda op, t: [op(*t)]))


def test_norm_linear_grad():
    fd_gradcheck(T.norm_linear, [r(2, 4, 5), r(5), r(5), r(5, 3), r(3)])


def attention_rounds(op, inputs, rounds, counts, heads, keys):
    """``op`` (``T.attention`` or ``oracle.attention``) run once per round
    ``(lo, hi, lead)`` on one cache sized for ``keys`` keys: a round's rows
    are its own input, the first of ``inputs``, asking queries from row
    ``lead`` on, with those rows' slice of ``counts``, and passing keys and
    values for its rows below ``keys``, as in decoding; the other inputs
    are the norm's gain and bias and the weights. Returns every round's
    output."""
    cache = T.KVCache(keys)
    outs = []
    for x, (lo, hi, lead) in zip(inputs, rounds):
        outs.append(op(x, *inputs[len(rounds):], heads, counts[lo + lead:hi], cache, lead,
                       min(max(keys - lo, 0), hi - lo)))
    return outs


@pytest.mark.parametrize("case", ["full rows", "last block", "decode rounds",
                                  "last block decode rounds", "loss on the last round"])
def test_attention_sublayer_matches_the_composition_bit_for_bit(case):
    # the output and every gradient, taped and untaped, at the default
    # model's B=4 shapes and counts: a block over the whole sequence, the
    # last block (queries for the depth rows only), and the decode rounds
    # on one cache, earlier rounds' keys/values taking gradient from later
    # rounds' queries, also when only the last round's output is in the loss
    n_img, n_keys, _ = default_layout()
    d = 128
    rounds = {
        "full rows": [(0, 170, 0)],
        "last block": [(0, 170, n_img)],
        "decode rounds": [(lo, hi, 0) for lo, hi in DECODING_ROUNDS],
        "last block decode rounds": [(lo, hi, n_img if lo == 0 else 0)
                                     for lo, hi in DECODING_ROUNDS],
        "loss on the last round": [(lo, hi, 0) for lo, hi in DECODING_ROUNDS],
    }[case]
    gen = np.random.default_rng(11)
    arrays = normal_arrays(gen, [((4, hi - lo, d), 1.0) for lo, hi, _ in rounds] + [
        ((d,), 1.0), ((d,), 0.1), ((d, d), 0.1), ((d,), 0.1), ((d, 2 * d), 0.1),
        ((2 * d,), 0.1), ((d, d), 0.1), ((d,), 0.1)])

    def call(op, t):
        outs = attention_rounds(op, t, rounds, DEFAULT_COUNTS, 4, n_keys)
        return outs[-1:] if case == "loss on the last round" else outs

    assert_same_bits(fused_and_composed(T.attention, oracle.attention, arrays, call))


def test_attention_sublayer_taped_equals_untaped():
    # the untaped op never normalizes its exponentials and applies the
    # norm's affine in place; the taped one keeps the exponentials
    n_img, n_keys, _ = default_layout()
    gen = np.random.default_rng(12)
    arrays = normal_arrays(gen, [((2, 170, 128), 1.0), ((128,), 1.0), ((128,), 0.1),
                                 ((128, 128), 0.1), ((128,), 0.1), ((128, 256), 0.1),
                                 ((256,), 0.1), ((128, 128), 0.1), ((128,), 0.1)])
    for lead in (0, n_img):
        inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
        untaped = attention_rounds(T.attention, inputs, [(0, 170, lead)], DEFAULT_COUNTS,
                                   4, n_keys)[0].data
        with T.Tape():
            taped = attention_rounds(T.attention, inputs, [(0, 170, lead)],
                                     DEFAULT_COUNTS, 4, n_keys)[0].data
        assert taped.tobytes() == untaped.tobytes()


@pytest.mark.parametrize("last_only", [False, True])
def test_attention_sublayer_grad(last_only):
    # two rounds on one cache: three rows passing keys, then two rows of
    # which the second asks a query; with ``last_only`` the loss reads only
    # the second round, so the first round's rows get gradient only
    # through the keys/values the second round attends to
    rounds = [(0, 3, 0), (3, 5, 1)]
    counts = np.array([2, 2, 3, 0, 4])

    def fn(x1, x2, *weights):
        outs = attention_rounds(T.attention, [x1, x2, *weights], rounds, counts, 2, 4)
        if last_only:
            return outs[1]
        return T.concat([T.reshape(o, (-1,)) for o in outs], axis=0)

    fd_gradcheck(fn, [r(2, 3, 8), r(2, 2, 8), r(8), r(8), r(8, 8), r(8), r(8, 16),
                      r(16), r(8, 8), r(8)])


FROZEN_CASES = {  # op: (input shapes, call, sets of frozen weight and bias positions)
    "linear": ([(3, 4), (4, 5), (5,)], lambda t: [T.linear(*t)], [{1}, {2}]),
    "mlp": ([(2, 3, 4), (4,), (4,), (4, 8), (8,), (8, 4), (4,)], lambda t: [T.mlp(*t)],
            [{3, 6}, {4, 5}]),
    "norm_linear": ([(2, 4, 5), (5,), (5,), (5, 3), (3,)], lambda t: [T.norm_linear(*t)],
                    [{3}, {4}]),
    # the two rounds of test_attention_sublayer_grad; q_w, q_b, kv_w, kv_b,
    # w and b are inputs 4 to 9
    "attention": ([(2, 3, 8), (2, 2, 8), (8,), (8,), (8, 8), (8,), (8, 16), (16,),
                   (8, 8), (8,)],
                  lambda t: attention_rounds(T.attention, t, [(0, 3, 0), (3, 5, 1)],
                                             np.array([2, 2, 3, 0, 4]), 2, 4),
                  [{4, 7, 9}, {5, 6, 8}]),
}


@pytest.mark.parametrize("name", FROZEN_CASES)
def test_dense_ops_leave_frozen_parameters_without_gradient(name):
    # a weight or bias with requires_grad=False gets no gradient, and every
    # other input gets the bits of the call where all are trainable
    shapes, call, frozen_sets = FROZEN_CASES[name]
    arrays = [r(*s) for s in shapes]

    def grads(frozen):
        inputs = [T.Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)]
        with T.Tape():
            backward_weighted(call(inputs))
        return [t.grad for t in inputs]

    trainable = grads(set())
    assert all(g is not None for g in trainable)
    for frozen in frozen_sets:
        for i, (got, want) in enumerate(zip(grads(frozen), trainable)):
            if i in frozen:
                assert got is None, i
            else:
                assert got.tobytes() == want.tobytes(), i


# ---------------------------------------------------------------------------
# structural ops and elementwise
# ---------------------------------------------------------------------------

def test_elementwise_grads():
    fd_gradcheck(lambda a, b: T.add(a, b), [r(3, 4), r(3, 4)])
    fd_gradcheck(lambda a, b: T.sub(a, b), [r(2, 5), r(2, 5)])
    fd_gradcheck(lambda a, b: T.mul(a, b), [r(4, 4), r(4, 4)])
    fd_gradcheck(lambda a: T.scale(a, -1.7), [r(3, 3)])


def test_structural_grads():
    fd_gradcheck(lambda a: T.reshape(a, (6, 2)), [r(3, 4)])
    fd_gradcheck(lambda a, b: T.concat([a, b], axis=1), [r(2, 3), r(2, 2)])
    fd_gradcheck(lambda a: T.slice_axis(a, 1, 1, 3), [r(2, 5)])
    fd_gradcheck(lambda a: T.mean_all(a), [r(3, 3)])


def test_shape_mismatch_raises():
    with pytest.raises(T.DimensionError):
        T.add(T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros((2, 3))))
    x, g, w1, b1, w2, b2 = (T.Tensor(np.zeros(s)) for s in
                            ((3, 4), (4,), (4, 8), (8,), (8, 4), (4,)))
    with pytest.raises(T.DimensionError):
        T.linear(x, w1, b2)
    with pytest.raises(T.DimensionError):
        T.mlp(x, g, g, w1, b1, T.Tensor(np.zeros((8, 5))), T.Tensor(np.zeros(5)))
    with pytest.raises(T.DimensionError):
        T.mlp(x, g, g, w1, T.Tensor(np.zeros(4)), w2, b2)
    with pytest.raises(T.DimensionError):
        T.mlp(x, T.Tensor(np.zeros(3)), g, w1, b1, w2, b2)
    x3 = T.Tensor(np.zeros((1, 3, 4)))
    with pytest.raises(T.DimensionError):
        T.norm_linear(x3, g, g, w2, b2)
    with pytest.raises(T.DimensionError):
        T.norm_linear(x3, g, g, w1, b2)
    sub = [T.Tensor(np.zeros(s)) for s in ((4, 4), (4,), (4, 8), (8,), (4, 4), (4,))]
    for lead, keys, counts in ((3, 3, []), (0, 4, [1, 1, 1]), (0, 2, [1, 2, 3]),
                               (1, 3, [1, 2, 3]), (0, 3, [0, 1, 1])):
        with pytest.raises(T.DimensionError):
            T.attention(x3, g, g, *sub, 2, np.array(counts, np.int64), T.KVCache(keys),
                        lead, keys)


def test_linear_grad():
    fd_gradcheck(lambda x, w, b: T.linear(x, w, b), [r(3, 4), r(4, 5), r(5)])
    fd_gradcheck(lambda x, w, b: T.linear(x, w, b), [r(2, 3, 4), r(4, 2), r(2)])


def test_add_table_grad():
    fd_gradcheck(lambda x, t: T.add_table(x, t), [r(2, 3, 4), r(3, 4)])


def test_embedding_lookup_grad():
    idx = np.array([[0, 2], [2, 1]])
    fd_gradcheck(lambda t: T.embedding_lookup(t, idx), [r(3, 4)])


def test_embedding_lookup_out_of_range():
    with pytest.raises(IndexError):
        T.embedding_lookup(T.Tensor(np.zeros((3, 2))), np.array([3]))


def block_causal_mask(blocks):
    """Visible-key counts where each row sees its own block and all earlier
    ones."""
    return np.repeat(np.cumsum(blocks), blocks)


def packed_attention(qkv, heads, visible, cache=None, op=None):
    """``op`` (``oracle.multihead_attention`` by default) on a packed ``[B, L, 3D]``
    tensor: the queries are the q columns of its last ``len(visible)`` rows
    and the keys/values the k and v columns of every row, taken as taped
    slices so that gradients reach the packed rows."""
    length, d = qkv.shape[1], qkv.shape[2] // 3
    q = T.slice_axis(T.slice_axis(qkv, 2, 0, d), 1, max(length - len(visible), 0), length)
    kv = T.slice_axis(qkv, 2, d, 3 * d)
    return (op or oracle.multihead_attention)(q, kv, heads, visible, cache)


def test_attention_grad():
    mask = block_causal_mask([2, 1, 2])
    fd_gradcheck(lambda qkv: packed_attention(qkv, 2, mask),
                 [r(2, 5, 3 * 4)])


def test_cached_attention_matches_masked():
    mask = block_causal_mask([3, 2, 1, 4])
    qkv = T.Tensor(r(2, 10, 3 * 6))
    full = packed_attention(qkv, 3, mask).data
    cache = T.KVCache(10)
    parts = []
    for lo, hi in ((0, 3), (3, 5), (5, 6), (6, 10)):
        rows = T.Tensor(qkv.data[:, lo:hi])
        parts.append(packed_attention(rows, 3, mask[lo:hi], cache).data)
    assert len(cache) == 10
    assert np.allclose(np.concatenate(parts, axis=1), full, atol=1e-6)


def cached_rounds(qkv, heads, mask, bounds, op=None):
    """Attention of ``qkv`` run round by round through a KV cache, each
    round on a taped slice of the rows, joined back to [B, L, D]. As in
    decoding, a round passes keys and values only for its rows that are
    some row's key, the positions below ``mask.max()``, and none if it has
    no such row, and the cache is sized for those keys."""
    d, n_keys = qkv.shape[2] // 3, int(mask.max())
    cache = T.KVCache(n_keys)
    parts = []
    for lo, hi in bounds:
        rows = T.slice_axis(qkv, 1, lo, hi)
        keys = min(max(n_keys - lo, 0), hi - lo)
        kv = T.slice_axis(T.slice_axis(rows, 1, 0, keys), 2, d, 3 * d) if keys else None
        parts.append((op or oracle.multihead_attention)(
            T.slice_axis(rows, 2, 0, d), kv, heads, mask[lo:hi], cache))
    return T.concat(parts, axis=1)


def test_cached_attention_under_tape_matches_masked_grad():
    # rounds as in decoding: a prefix that sees itself, then blocks that see
    # only earlier rows, so gradients must reach earlier rounds' keys/values
    mask = np.repeat([3, 3, 5, 6], [3, 2, 1, 4])
    bounds = ((0, 3), (3, 5), (5, 6), (6, 10))
    data = r(2, 10, 3 * 6).astype(np.float32)
    w = r(2, 10, 6).astype(np.float32)
    grads = []
    for run in (lambda x: packed_attention(x, 3, mask),
                lambda x: cached_rounds(x, 3, mask, bounds)):
        qkv = T.Tensor(data, requires_grad=True)
        with T.Tape():
            T.sum_all(T.mul(run(qkv), T.Tensor(w))).backward()
        grads.append(qkv.grad)
    assert np.abs(grads[0][:, :, 6:]).max() > 0  # keys and values get gradient
    assert np.allclose(grads[1], grads[0], rtol=1e-5, atol=1e-5)
    small = ((0, 2), (2, 3), (3, 5))
    fd_gradcheck(lambda x: cached_rounds(x, 2, block_causal_mask([2, 1, 2]), small),
                 [r(2, 5, 3 * 4)])


def attention_and_grad(op, data, w, heads, visible, bounds=None, taped=True):
    """Output of ``op`` over float32 packed ``data`` and, when ``taped``, the
    ``qkv`` gradient of ``sum(w * output)``; with ``bounds`` the rows run as
    cached rounds."""
    qkv = T.Tensor(data, requires_grad=True)

    def run():
        if bounds is None:
            return packed_attention(qkv, heads, visible, op=op)
        return cached_rounds(qkv, heads, visible, bounds, op=op)

    if not taped:
        return run().data, None
    with T.Tape():
        out = run()
        T.sum_all(T.mul(out, T.Tensor(w))).backward()
    return out.data, qkv.grad


DEFAULT_COUNTS = VarModel(VarConfig(schedule=DEFAULT_SCHEDULE)).attention_mask(
    len(DEFAULT_SCHEDULE))
DECODING_ROUNDS = ((0, 86), (86, 90), (90, 106), (106, 170))


@pytest.mark.parametrize("case", ["all_rows", "query_subset", "cached_rounds",
                                  "untaped_cached_rounds_b8"])
def test_attention_matches_dense_oracle(case):
    # the default model's real counts at B=4: outputs and qkv gradients
    # within 1e-6 of one dense masked softmax (measured worst: 7.7e-7); and
    # untaped at B=8, the shape of an eval decode, whose last round adds no
    # keys, outputs within the same bound
    counts, bounds, batch, taped = DEFAULT_COUNTS, None, 4, True
    if case == "query_subset":
        counts = counts[-85:]  # the depth rows, as in the last block
    elif case == "cached_rounds":
        bounds = DECODING_ROUNDS
    elif case == "untaped_cached_rounds_b8":
        bounds, batch, taped = DECODING_ROUNDS, 8, False
    gen = np.random.default_rng(7)
    data = gen.standard_normal((batch, 170, 3 * 128)).astype(np.float32)
    w = gen.standard_normal((batch, len(counts), 128)).astype(np.float32)
    out, grad = attention_and_grad(oracle.multihead_attention, data, w, 4, counts, bounds,
                                   taped)
    ref_out, ref_grad = attention_and_grad(oracle.dense_attention, data, w, 4, counts,
                                           bounds, taped)
    assert out.shape == (batch, len(counts), 128)
    assert np.abs(out - ref_out).max() <= 1e-6
    if taped:
        assert np.abs(grad - ref_grad).max() <= 1e-6
    if case == "query_subset":  # rows asked for no query still pass on keys
        assert np.all(grad[:, :85, :128] == 0)
        assert np.abs(grad[:, :85, 128:]).max() > 0


def test_cache_rejects_keys_past_its_size():
    # a cache is sized once; one key past a full one would otherwise
    # broadcast into an empty slice and be lost
    cache = T.KVCache(2)
    cache.write(np.zeros((1, 1, 4, 2), np.float32), np.zeros((1, 1, 2, 4), np.float32))
    with pytest.raises(T.DimensionError):
        cache.write(np.zeros((1, 1, 4, 1), np.float32), np.zeros((1, 1, 1, 4), np.float32))
    assert len(cache) == 2


def test_attention_query_subset_grad():
    counts = block_causal_mask([2, 1, 2])[-3:]
    fd_gradcheck(lambda qkv: packed_attention(qkv, 2, counts), [r(2, 5, 3 * 4)])


@pytest.mark.parametrize("counts", [[3, 0], [3, 6], [2, 2, 2, 2, 2, 2]])
def test_attention_rejects_counts_outside_the_keys(counts):
    with pytest.raises(T.DimensionError):
        packed_attention(T.Tensor(r(1, 5, 3 * 4)), 2, np.array(counts))


def test_attention_taped_equals_untaped():
    # the untaped call never normalizes its probabilities, the taped one
    # does after taking its output; the outputs agree bit for bit
    counts = DEFAULT_COUNTS
    gen = np.random.default_rng(8)
    data = gen.standard_normal((2, 170, 3 * 128)).astype(np.float32)
    for bounds in (None, DECODING_ROUNDS):
        taped, _ = attention_and_grad(oracle.multihead_attention, data,
                                      np.ones((2, 170, 128), np.float32), 4, counts,
                                      bounds)
        untaped, _ = attention_and_grad(oracle.multihead_attention, data, None, 4, counts,
                                        bounds, taped=False)
        assert taped.tobytes() == untaped.tobytes()


# ---------------------------------------------------------------------------
# tape semantics
# ---------------------------------------------------------------------------

def test_shared_subexpression_accumulates():
    # oracle duplicates the shared node; gradients must agree
    xv = r(3, 3)
    x = T.Tensor(xv, requires_grad=True, dtype=np.float64)
    with T.Tape():
        s = T.mul(x, x)
        loss = T.sum_all(T.add(s, s))  # s used twice
        loss.backward()
    shared_grad = x.grad.copy()

    x1 = T.Tensor(xv, requires_grad=True, dtype=np.float64)
    with T.Tape():
        s1 = T.mul(x1, x1)
        s2 = T.mul(x1, x1)  # duplicated subexpression
        T.sum_all(T.add(s1, s2)).backward()
    assert np.allclose(shared_grad, x1.grad, rtol=1e-12)
    assert np.allclose(shared_grad, 4.0 * xv, rtol=1e-12)


def test_backward_grads_finite_and_shaped():
    x = T.Tensor(r(4, 3), requires_grad=True)
    w = T.Tensor(r(3, 2), requires_grad=True)
    b = T.Tensor(r(2), requires_grad=True)
    with T.Tape():
        out = T.mean_all(T.gelu(T.linear(x, w, b)))
        out.backward()
    for t in (x, w, b):
        assert t.grad is not None
        assert t.grad.shape == t.data.shape
        assert np.all(np.isfinite(t.grad))


def test_backward_consumes_the_tape():
    x = T.Tensor(r(3, 3), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
        assert len(tape.records) == 2
        loss.backward()
        assert tape.records == []
    assert np.allclose(x.grad, 2 * x.data)


def test_tape_left_without_backward_holds_no_records():
    x = T.Tensor(r(3, 3), requires_grad=True)
    with pytest.raises(ZeroDivisionError):
        with T.Tape() as tape:
            T.sum_all(T.mul(x, x))
            assert len(tape.records) == 2
            raise ZeroDivisionError
    assert tape.records == []


def test_no_tape_no_graph():
    x = T.Tensor(r(2, 2), requires_grad=True)
    y = T.mul(x, x)
    assert y.node.tape is None
    with pytest.raises(RuntimeError):
        T.sum_all(y).backward()


def test_forward_determinism_bit_identical():
    a, b = r(8, 8), r(8, 8)
    qkv = np.concatenate([a, b, a], axis=1)[None]
    mask = block_causal_mask([3, 5])
    ops = [
        lambda: T.linear(T.Tensor(a), T.Tensor(b), T.Tensor(a[0])).data,
        lambda: T.gelu(T.Tensor(a)).data,
        lambda: oracle.layer_norm(T.Tensor(a), T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))).data,
        lambda: T.norm_linear(T.Tensor(a[None]), T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)),
                              T.Tensor(b), T.Tensor(np.zeros(8))).data,
        lambda: T.resize_bilinear(T.Tensor(a), (5, 5)).data,
        lambda: packed_attention(T.Tensor(qkv), 2, mask).data,
    ]
    for op in ops:
        assert op().tobytes() == op().tobytes()


def test_float32_is_default():
    t = T.Tensor([1.0, 2.0])
    assert t.dtype == np.float32

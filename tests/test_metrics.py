import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthart import data, metrics
from depthart.data import DepthSample
from depthart.metrics import (METRIC_COLUMNS, DatasetRow, MetricsReport, absrel,
                              align_scale, delta1_err, fit_plane_tls,
                              plane_metrics, rank_models)
from depthart.var import VarConfig, VarModel
from depthart.vq import VqModel

import oracle

rng = np.random.default_rng(99)


def golden_section(f, lo, hi, tol=1e-10):
    """Independent 1-D search oracle on a convex objective."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# align_scale
# ---------------------------------------------------------------------------

def test_align_identity():
    gt = rng.uniform(1, 5, (6, 6))
    assert align_scale(gt, gt, np.ones((6, 6), bool)) == pytest.approx(1.0)


def test_align_exact_scaling():
    gt = rng.uniform(1, 5, (6, 6))
    assert align_scale(gt / 3.0, gt, np.ones((6, 6), bool)) == pytest.approx(3.0)


def test_align_matches_golden_section():
    for trial in range(20):
        r = np.random.default_rng(trial)
        pred = r.uniform(0.5, 4.0, 50)
        gt = pred * r.uniform(0.5, 2.0) + r.normal(0, 0.3, 50)
        gt = np.abs(gt) + 0.1
        mask = np.ones(50, bool)
        s_med = align_scale(pred, gt, mask)

        def objective(s):
            return np.abs(s * pred - gt).sum()

        ratios = gt / pred
        s_gs = golden_section(objective, ratios.min() - 1e-6, ratios.max() + 1e-6)
        assert abs(s_med - s_gs) < 1e-6


def test_align_excludes_nonpositive_pred():
    pred = np.array([2.0, -1.0, 0.0, 2.0])
    gt = np.array([4.0, 5.0, 5.0, 4.0])
    assert align_scale(pred, gt, np.ones(4, bool)) == pytest.approx(2.0)
    with pytest.raises(metrics.MetricError):
        align_scale(np.full(4, -1.0), gt, np.ones(4, bool))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 100.0))
def test_align_scale_invariance(seed, alpha):
    r = np.random.default_rng(seed)
    pred = r.uniform(0.2, 5.0, 40)
    gt = r.uniform(0.2, 5.0, 40)
    mask = np.ones(40, bool)
    a = absrel(pred * align_scale(pred, gt, mask), gt, mask)
    b = absrel(alpha * pred * align_scale(alpha * pred, gt, mask), gt, mask)
    assert abs(a - b) < 1e-9


# ---------------------------------------------------------------------------
# absrel / delta1
# ---------------------------------------------------------------------------

def test_absrel_cases():
    gt = rng.uniform(1, 4, (5, 5))
    ones = np.ones((5, 5), bool)
    assert absrel(gt, gt, ones) == pytest.approx(0.0)
    assert absrel(1.1 * gt, gt, ones) == pytest.approx(0.1, rel=1e-6)


def test_absrel_hand_case():
    gt = np.array([1.0, 2.0, 4.0, 8.0])
    pred = np.array([1.0, 1.0, 4.0, 16.0])
    assert absrel(pred, gt, np.ones(4, bool)) == pytest.approx(0.375)


def test_absrel_empty_mask():
    with pytest.raises(metrics.MetricError):
        absrel(np.ones(3), np.ones(3), np.zeros(3, bool))


def test_delta1_cases():
    gt = rng.uniform(1, 4, (4, 4))
    ones = np.ones((4, 4), bool)
    assert delta1_err(gt, gt, ones) == 0.0
    assert delta1_err(2.0 * gt, gt, ones) == 1.0  # forced s = 1


def test_delta1_half_at_ratio_1p3():
    gt = np.ones(10)
    pred = np.ones(10)
    pred[:5] = 1.3
    assert delta1_err(pred, gt, np.ones(10, bool)) == pytest.approx(0.5)


def test_delta1_symmetric():
    p = rng.uniform(0.5, 3.0, 30)
    g = rng.uniform(0.5, 3.0, 30)
    ones = np.ones(30, bool)
    assert delta1_err(p, g, ones) == delta1_err(g, p, ones)


# ---------------------------------------------------------------------------
# plane metrics
# ---------------------------------------------------------------------------

def wall_sample(z=5.0):
    """Synthetic fronto-parallel wall at camera depth z; n.(p) - z = 0."""
    h = w = 32
    depth = np.full((h, w), z, np.float32)
    return DepthSample(image=np.zeros((3, h, w), np.float32), depth=depth,
                       plane_labels=np.ones((h, w), np.int64),
                       plane_params=np.array([[0.0, 0.0, 1.0, -z]]))


def test_plane_metrics_perfect():
    s = wall_sample()
    fla, ori = plane_metrics(s.depth, s)
    assert fla == pytest.approx(0.0, abs=1e-6)
    assert ori == pytest.approx(0.0, abs=1e-6)


def test_plane_metrics_noise_bounded():
    # depth noise scaled so its plane-normal projection has 1 cm RMS;
    # for a fronto-parallel wall that projection equals the depth change
    s = wall_sample()
    noise = np.random.default_rng(3).normal(0.0, 0.01, s.depth.shape)
    noise *= 0.01 / math.sqrt(float(np.mean(noise ** 2)))
    fla, _ = plane_metrics(s.depth + noise.astype(np.float32), s)
    assert 0.0 < fla <= 1.0 + 1e-6


def test_plane_metrics_known_tilt():
    s = wall_sample(z=5.0)
    theta = math.radians(7.0)
    n_new = np.array([0.0, math.sin(theta), math.cos(theta)])
    p0 = np.array([0.0, 0.0, 5.0])  # rotation axis passes through this point
    d_new = -float(n_new @ p0)
    u, v = np.meshgrid(np.arange(32), np.arange(32), indexing="xy")
    # the pinhole of a 32 x 32 raster: focal length 32, centre (15.5, 15.5)
    dirs = np.stack([(u - 15.5) / 32, (v - 15.5) / 32, np.ones_like(u, float)], -1)
    pred = (-d_new) / (dirs @ n_new)
    _, ori = plane_metrics(pred.astype(np.float32), s)
    assert ori == pytest.approx(7.0, abs=0.5)


def test_plane_metrics_normal_sign_invariance():
    s = wall_sample()
    flipped = wall_sample()
    flipped.plane_params[0] = -flipped.plane_params[0]  # normal and offset
    a = plane_metrics(s.depth, s)
    b = plane_metrics(flipped.depth, flipped)
    assert a[1] == pytest.approx(b[1], abs=1e-9)


def test_plane_metrics_degenerate_skipped():
    s = wall_sample()
    # a mask covering a single pixel row of constant depth: collinear points
    m = np.zeros((32, 32), bool)
    m[5, 5:25] = True
    s.plane_labels = m.astype(np.int64)
    with pytest.raises(metrics.MetricError):
        plane_metrics(s.depth, s)


def test_fit_plane_tls_recovers_plane():
    r = np.random.default_rng(1)
    n = np.array([0.3, -0.5, 0.8])
    n /= np.linalg.norm(n)
    basis = np.linalg.svd(n[None])[2][1:]
    pts = r.normal(0, 1, (40, 2)) @ basis + np.array([1.0, 2.0, 3.0])
    fit = fit_plane_tls(pts)
    assert fit is not None
    got_n, got_d = fit
    assert abs(abs(got_n @ n) - 1.0) < 1e-9
    assert np.abs(pts @ got_n + got_d).max() < 1e-9


# ---------------------------------------------------------------------------
# ranking & report round trip
# ---------------------------------------------------------------------------

def row(ds, a, d, f, o):
    return DatasetRow(dataset=ds, absrel=a, delta1_err=d, pe_fla=f,
                      pe_ori=o, scale=1.0)


def test_rank_dominating():
    better = MetricsReport("m1", [row("d", 0.1, 0.1, 1.0, 5.0)])
    worse = MetricsReport("m2", [row("d", 0.2, 0.3, 2.0, 8.0)])
    assert rank_models([better, worse]) == [1.0, 2.0]


def test_rank_identical_reports_tie():
    a = MetricsReport("m1", [row("d", 0.1, 0.1, 1.0, 5.0)])
    b = MetricsReport("m2", [row("d", 0.1, 0.1, 1.0, 5.0)])
    assert rank_models([a, b]) == [1.5, 1.5]


def test_rank_three_model_hand_case():
    # manual ranking table:
    #   column      m1   m2   m3
    #   absrel      1    2    3
    #   delta1      2    1    3
    #   pe_fla      3    1    2
    #   pe_ori      1    3    2
    #   mean       1.75 1.75 2.5
    m1 = MetricsReport("m1", [row("d", 0.10, 0.20, 3.0, 4.0)])
    m2 = MetricsReport("m2", [row("d", 0.20, 0.10, 1.0, 9.0)])
    m3 = MetricsReport("m3", [row("d", 0.30, 0.30, 2.0, 6.0)])
    assert rank_models([m1, m2, m3]) == [1.75, 1.75, 2.5]


def test_rank_nan_cells_rank_last_and_tie():
    # pe_fla/pe_ori are NaN when no plane could be scored: such a cell is
    # worse than any number, and two NaN cells tie
    nan = float("nan")
    m1 = MetricsReport("m1", [row("d", 1.0, 0.1, nan, nan)])
    m2 = MetricsReport("m2", [row("d", nan, 0.2, nan, 3.0)])
    m3 = MetricsReport("m3", [row("d", 0.5, 0.3, 2.0, nan)])
    # absrel 2,3,1; delta1 1,2,3; pe_fla 2.5,2.5,1; pe_ori 2.5,1,2.5
    assert rank_models([m1, m2, m3]) == [2.0, 2.125, 1.875]


def test_rank_mismatched_datasets():
    a = MetricsReport("m1", [row("d1", 0.1, 0.1, 1.0, 5.0)])
    b = MetricsReport("m2", [row("d2", 0.1, 0.1, 1.0, 5.0)])
    with pytest.raises(metrics.MetricError):
        rank_models([a, b])


def test_report_csv_round_trip():
    rep = MetricsReport("model-x", [
        row("synthetic", 0.123456789, 0.25, 1.75, 8.125),
    ])
    rep.rows[0].scale = 1.0000152587890625
    back = MetricsReport.from_csv(rep.to_csv())
    assert back.model == rep.model
    for a, b in zip(back.rows, rep.rows):
        assert a == b


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eval_setup():
    """A default-size VQ and transformer, untrained, and rendered scenes
    with plane annotations."""
    vq = VqModel(seed=3)
    model = VarModel(VarConfig(schedule=vq.schedule, vocab=vq.codebook.size,
                               emb_dim=vq.emb_dim, width=32, heads=2, blocks=2),
                     seed=4, codebook_init=vq.codebook.vectors)
    samples = [data.render_scene(data.SceneSpec.from_seed(s)) for s in range(6)]
    return model, vq, samples


def test_prediction_reads_no_labels(eval_setup):
    model, vq, samples = eval_setup
    r = np.random.default_rng(15)
    blind = [DepthSample(image=s.image,
                         depth=np.where(r.uniform(size=s.depth.shape) < 0.1,
                                        r.uniform(0.5, 50.0, s.depth.shape), 0.0)
                         .astype(np.float32),
                         plane_labels=s.plane_labels, plane_params=s.plane_params)
             for s in samples]
    for a, b in zip(metrics.predict_depth_rasters(model, vq, samples),
                    metrics.predict_depth_rasters(model, vq, blind)):
        assert a.tobytes() == b.tobytes()


def test_eval_metrics_match_denormalized_oracle(eval_setup):
    # align_scale removes the per-sample 98th percentile the old path
    # multiplied in, up to float rounding
    model, vq, samples = eval_setup
    preds = metrics.predict_depth_rasters(model, vq, samples)
    got = metrics.evaluate_rasters(preds, samples, "m", "d").rows[0]
    want = metrics.evaluate_rasters(oracle.denormalized_predictions(model, vq, samples),
                                    samples, "m", "d").rows[0]
    for col in METRIC_COLUMNS:
        assert math.isfinite(getattr(want, col)), col
        assert getattr(got, col) == pytest.approx(getattr(want, col), rel=1e-6), col
    report, curve, _ = metrics.evaluate_scales(model, vq, samples, "m", "d")
    assert report.rows[0] == got
    assert [k for k, _ in curve] == [1, 2, 3, 4]
    assert curve[-1][1] == got.absrel


def test_curve_last_point_is_the_report_absrel_past_eight_samples(eval_setup):
    # np.mean adds through eight interleaved partial sums, so past 8
    # samples a sum in sample order can differ from it in the last bit (on
    # these 16 scenes one does); the curve and the report share one mean
    model, vq, samples = eval_setup
    more = samples + [data.render_scene(data.SceneSpec.from_seed(s)) for s in range(6, 16)]
    report, curve, _ = metrics.evaluate_scales(model, vq, more, "m", "d")
    assert curve[-1][1] == report.rows[0].absrel


def test_scale_rasters_read_no_depth(eval_setup):
    # every scale's rasters come from the images alone, and the last
    # scale's are predict_depth_rasters'
    model, vq, samples = eval_setup
    zeroed = [DepthSample(image=s.image, depth=np.zeros_like(s.depth),
                          plane_labels=np.zeros_like(s.plane_labels),
                          plane_params=np.zeros((0, 4)))
              for s in samples]
    got = list(metrics.predict_scale_rasters(model, vq, samples))
    blind = list(metrics.predict_scale_rasters(model, vq, zeroed))
    assert len(got) == len(blind) == 1
    (part, scales), (_, blind_scales) = got[0], blind[0]
    assert len(part) == len(samples) and len(scales) == len(vq.schedule)
    for a, b in zip(scales, blind_scales):
        assert a.tobytes() == b.tobytes()
    final = metrics.predict_depth_rasters(model, vq, samples)
    assert scales[-1].tobytes() == np.stack(final).tobytes()


def test_eval_scores_prediction_without_positive_pixel():
    # no scale aligns it, so it keeps scale 1 and clamps to a constant
    # raster, as in the scale curve; a plane fits that exactly, so it
    # gets no planarity score
    sample = data.render_scene(data.SceneSpec.from_seed(0))
    pred = np.full(sample.depth.shape, -0.2, np.float32)
    row = metrics.evaluate_rasters([pred], [sample], "m", "d").rows[0]
    clamped = np.full(sample.depth.shape, 1e-6, np.float32)
    assert row.absrel == absrel(clamped, sample.depth, sample.mask)
    assert row.delta1_err == 1.0
    assert math.isnan(row.pe_fla) and math.isnan(row.pe_ori)

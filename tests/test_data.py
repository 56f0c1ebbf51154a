import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthart import checkpoint, data
from depthart.data import (DepthSample, SceneSpec, backproject,
                           denormalize_depth, load_manifest, make_dataset,
                           normalize_depth, percentile_nearest_rank,
                           render_scene)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_deterministic():
    spec = SceneSpec.from_seed(42)
    a = render_scene(spec)
    b = render_scene(spec)
    assert a.image.tobytes() == b.image.tobytes()
    assert a.depth.tobytes() == b.depth.tobytes()
    assert a.mask.tobytes() == b.mask.tobytes()


def test_floor_only_scene_rows_constant():
    # fronto-parallel camera over a wall-like plane: constructed pose looking
    # straight along -z at the floor treated as a wall via a side-on view.
    # We verify the analytic property on the floor plane directly: along a
    # pixel row, z-depth varies only with the vertical pixel coordinate when
    # the camera has no roll, so each row of floor pixels is constant in x.
    spec = SceneSpec(seed=0, objects=(),
                     floor_albedo=(0.5, 0.5, 0.5),
                     eye=(0.0, 2.0, 0.0), target=(0.0, 0.0, -4.0),
                     light=(0.0, 1.0, 0.0))
    sample = render_scene(spec)
    rows_valid = sample.mask.all(axis=1)
    assert rows_valid.any()
    for v in np.where(rows_valid)[0]:
        row = sample.depth[v]
        assert np.allclose(row, row[0], rtol=1e-6)


def test_sphere_center_depth_analytic():
    z, r = 4.0, 0.8
    spec = SceneSpec(seed=1,
                     objects=(("sphere", (0.0, 2.0, -z), r, (0.8, 0.2, 0.2)),),
                     floor_albedo=(0.5, 0.5, 0.5),
                     eye=(0.0, 2.0, 0.0), target=(0.0, 2.0, -8.0),
                     light=(0.2, 1.0, 0.1))
    sample = render_scene(spec)
    h, w = sample.depth.shape
    fx = fy = w
    cx, cy = (w - 1) / 2, (h - 1) / 2
    # nearest pixel to the optical axis; compare against the exact
    # ray-sphere intersection for that pixel's actual ray
    u = int(round(cx))
    v = int(round(cy))
    dx, dy = (u - cx) / fx, (v - cy) / fy
    d = np.array([dx, -dy, 0.0]) + np.array([0.0, 0.0, -1.0])  # camera at +z
    # camera basis here: right=(−1? ) — use generic quadratic in world coords
    o = np.array(spec.eye)
    dirw = np.array([dx * -1.0, -dy, -1.0])
    # right-handed basis for this pose: fwd=(0,0,-1), right=cross(fwd,up)=(-1? )
    fwd = np.array([0.0, 0.0, -1.0])
    right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    dirw = dx * right + dy * down + fwd
    c = np.array([0.0, 2.0, -z])
    oc = o - c
    A = dirw @ dirw
    B = 2 * dirw @ oc
    C = oc @ oc - r * r
    t = (-B - np.sqrt(B * B - 4 * A * C)) / (2 * A)
    assert sample.depth[v, u] == pytest.approx(t, abs=1e-5)
    # coarse sanity: within half-pixel tolerance of z - r
    half_pixel_slack = (z / fx) * 2.0
    assert abs(sample.depth[v, u] - (z - r)) < half_pixel_slack


def test_explicit_spec_with_unusable_view_raises(count_calls):
    # a hand-built camera looking at the sky sees nothing; the caller's
    # scene must not be swapped for a random re-seeded one
    spec = SceneSpec(seed=0, objects=(),
                     floor_albedo=(0.5, 0.5, 0.5),
                     eye=(0.0, 2.0, 0.0), target=(0.0, 10.0, -4.0),
                     light=(0.0, 1.0, 0.0))
    calls = count_calls(data, "_render_once")
    with pytest.raises(data.DataError, match="unusable view"):
        render_scene(spec)
    assert len(calls) == 1


def test_plane_annotations_consistent_with_depth():
    for seed in [3, 17, 101, 999]:
        sample = render_scene(SceneSpec.from_seed(seed))
        pts = backproject(sample.depth.astype(np.float64))
        assert len(sample.plane_params), "every accepted scene carries a plane"
        for i, (*normal, offset) in enumerate(sample.plane_params):
            resid = np.abs(pts[sample.plane_labels == i + 1] @ normal + offset)
            assert resid.max() < 1e-4
        assert sample.depth[sample.mask].min() > 0
        assert np.all(sample.depth[~sample.mask] == 0)
        assert sample.image.min() >= 0 and sample.image.max() <= 1


def test_backproject_uses_the_pinhole_of_its_raster():
    # focal length W pixels and principal point ((W-1)/2, (H-1)/2) at any size
    pts = backproject(np.full((5, 7), 2.0))
    assert pts[2, 3].tolist() == [0.0, 0.0, 2.0]
    assert pts[0, 0].tolist() == pytest.approx([-3 / 7 * 2, -2 / 7 * 2, 2.0])
    assert pts[4, 6].tolist() == pytest.approx([3 / 7 * 2, 2 / 7 * 2, 2.0])


def test_plane_masks_disjoint_and_valid():
    # each pixel carries one label, that of the face the z-buffer kept, so
    # planes are disjoint by construction; every plane is big enough and
    # none reaches an invalid pixel
    for seed in range(64):
        sample = render_scene(SceneSpec.from_seed(seed))
        labels = sample.plane_labels
        assert labels.dtype == np.uint8 and labels.shape == sample.depth.shape
        counts = np.bincount(labels.reshape(-1), minlength=len(sample.plane_params) + 1)
        assert len(counts) == len(sample.plane_params) + 1
        assert (counts[1:] >= data.MIN_PLANE_PIXELS).all()
        assert not ((labels > 0) & ~sample.mask).any()


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_constant():
    d = np.full((4, 4), 3.0, np.float32)
    m = np.ones((4, 4), bool)
    out = normalize_depth(d, m)
    assert np.allclose(out, 2 * 3.0 / (3.0 + 1e-6) - 1, atol=1e-6)


def test_normalize_zero_maps_to_minus_one():
    d = np.array([[0.0, 5.0], [2.0, 1.0]], np.float32)
    m = np.array([[False, True], [True, True]])
    out = normalize_depth(d, m)
    assert out[0, 0] == -1.0


def test_normalize_ramp_percentile():
    d = np.arange(1.0, 101.0).reshape(10, 10)
    m = np.ones_like(d, bool)
    assert percentile_nearest_rank(d[m], 98.0) == 98.0
    out = normalize_depth(d, m)
    expected = 2 * 98.0 / (98.0 + 1e-6) - 1
    assert out.reshape(-1)[97] == pytest.approx(expected, rel=1e-6)


def test_normalize_empty_mask_errors():
    with pytest.raises(data.DataError):
        normalize_depth(np.ones((2, 2), np.float32), np.zeros((2, 2), bool))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_normalize_monotone_and_p98_near_one(seed):
    r = np.random.default_rng(seed)
    d = r.uniform(0.1, 50.0, size=(8, 8))
    m = r.random((8, 8)) < 0.8
    if not m.any():
        m[0, 0] = True
    out = normalize_depth(d, m)
    # strictly increasing in input
    flat_d = d.reshape(-1)
    flat_o = out.reshape(-1).astype(np.float64)
    order = np.argsort(flat_d)
    assert np.all(np.diff(flat_o[order]) >= 0)
    # the 98th-percentile pixel lands in (1 - 1e-5, 1]
    p98 = percentile_nearest_rank(d[m], 98.0)
    mapped = 2 * p98 / (p98 + 1e-6) - 1
    assert 1 - 1e-5 < mapped <= 1


def test_denormalize_round_trip():
    d = np.abs(np.random.default_rng(0).normal(4, 1, (6, 6))).astype(np.float32)
    m = np.ones((6, 6), bool)
    p98 = percentile_nearest_rank(d[m], 98.0)
    back = denormalize_depth(normalize_depth(d, m), p98)
    assert np.allclose(back, d, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _dir_digest(d):
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode())
        h.update(open(os.path.join(d, name), "rb").read())
    return h.hexdigest()


def test_make_dataset_manifest_and_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    make_dataset(4, 2, seed=9, out_dir=str(out1))
    make_dataset(4, 2, seed=9, out_dir=str(out2))
    lines = open(out1 / "manifest.tsv").read().strip().splitlines()
    assert len(lines) == 6
    assert all(len(ln.split("\t")) == 2 for ln in lines)
    splits = [ln.split("\t")[0] for ln in lines]
    assert splits.count("train") == 4 and splits.count("eval") == 2
    assert _dir_digest(str(out1)) == _dir_digest(str(out2))


def test_train_eval_seeds_disjoint():
    # seed layout guarantees disjoint ranges
    n_train, n_eval, seed = 10, 5, 123
    train_seeds = {seed + i for i in range(n_train)}
    eval_seeds = {seed + data.EVAL_SEED_OFFSET + j for j in range(n_eval)}
    assert not train_seeds & eval_seeds


def test_sample_round_trip(tmp_path):
    sample = render_scene(SceneSpec.from_seed(7))
    back = data.load_sample(str(tmp_path / data.save_sample(str(tmp_path), "s", sample)))
    assert np.allclose(back.depth, sample.depth, atol=1e-7)
    assert np.array_equal(back.mask, sample.mask)
    # image quantized to 8 bits on disk
    assert np.abs(back.image - sample.image).max() <= 0.5 / 255 + 1e-6
    assert back.plane_labels.dtype == np.uint8
    assert np.array_equal(back.plane_labels, sample.plane_labels)
    assert back.plane_params.shape == sample.plane_params.shape
    assert np.allclose(back.plane_params[:, :3], sample.plane_params[:, :3])
    assert np.allclose(back.plane_params[:, 3], sample.plane_params[:, 3], rtol=0, atol=1e-12)


def small_sample():
    """A 5 x 7 sample with one plane, small enough to truncate byte by byte."""
    r = np.random.default_rng(3)
    mask = r.random((5, 7)) < 0.7
    return DepthSample(image=r.random((3, 5, 7)).astype(np.float32),
                       depth=np.where(mask, r.uniform(1.0, 5.0, (5, 7)), 0.0)
                       .astype(np.float32),
                       plane_labels=mask.astype(np.int64),
                       plane_params=np.array([[0.0, 1.0, 0.0, -1.25]]))


def saved_with(tmp_path, sample, **entries):
    """Path of ``sample`` saved, then rewritten with ``entries`` replaced
    (an entry given as None is dropped)."""
    path = str(tmp_path / data.save_sample(str(tmp_path), "s", sample))
    stored = checkpoint.load(path)
    stored.update(entries)
    checkpoint.save(path, {k: v for k, v in stored.items() if v is not None})
    return path


@pytest.mark.parametrize("kind", ["depth", "mask", "image"])
def test_truncated_sample_file_raises_data_error_at_every_offset(tmp_path, kind):
    # Cuts inside the bytes of one kind: "image" from the container header
    # through the image entry, "depth" its entry, "mask" the plane masks
    # (plane_labels) and plane_params to the end. Together: every offset.
    path = tmp_path / data.save_sample(str(tmp_path), "s", small_sample())
    raw = path.read_bytes()
    ends, end = {}, 12
    for name, arr in checkpoint.load(str(path)).items():
        end += 2 + len(name) + 1 + 4 * arr.ndim + 4 * arr.size
        ends[name] = end
    assert end == len(raw)
    cuts = {"image": range(0, ends["image"]),
            "depth": range(ends["image"], ends["depth"]),
            "mask": range(ends["depth"], len(raw))}[kind]
    for cut in cuts:
        path.write_bytes(raw[:cut])
        with pytest.raises(data.DataError, match="s.dart"):
            data.load_sample(str(path))


@pytest.mark.parametrize("name", ["image", "depth", "plane_labels", "plane_params"])
def test_sample_file_missing_an_entry_raises_data_error(tmp_path, name):
    path = saved_with(tmp_path, small_sample(), **{name: None})
    with pytest.raises(data.DataError, match=f"s.dart: .*{name}"):
        data.load_sample(path)


def test_wrong_plane_params_width_raises_data_error(tmp_path):
    # float32 [n, 4] parameters, or one float64 too few, are not the layout
    for params in (np.zeros((1, 4), np.float32), np.zeros((1, 6), np.float32)):
        path = saved_with(tmp_path, small_sample(), plane_params=params)
        with pytest.raises(data.DataError, match="plane_params"):
            data.load_sample(path)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("row", [[np.nan, np.nan, np.nan, -1.25], [0.0, 1.0, 0.0, np.inf],
                                 [0.0, 0.0, 0.0, -1.25], [1e300, 0.0, 0.0, -1.25]],
                         ids=["nan_normal", "inf_offset", "zero_normal", "normal_length_overflows"])
def test_unusable_plane_params_raise_data_error(tmp_path, row):
    # plane_metrics divides by the normal's length and clamps the cosine, so
    # a NaN normal would score a perfect prediction 90 degrees off; each row
    # gives a NaN, zero or infinite length, or a non-finite offset
    params = np.array([row]).view(np.float32)
    path = saved_with(tmp_path, small_sample(), plane_params=params)
    with pytest.raises(data.DataError, match="s.dart: plane parameters must be finite"):
        data.load_sample(path)


def test_more_planes_than_uint8_labels_hold_raise_data_error(tmp_path):
    params = np.tile([[0.0, 1.0, 0.0, -1.25]], (256, 1)).view(np.float32)
    path = saved_with(tmp_path, small_sample(), plane_params=params)
    with pytest.raises(data.DataError, match="s.dart: 256 planes, more than 255"):
        data.load_sample(path)


def test_out_of_range_plane_labels_raise_data_error(tmp_path):
    sample = render_scene(SceneSpec.from_seed(7))
    n = len(sample.plane_params)
    labels = checkpoint.load(saved_with(tmp_path, sample))["plane_labels"]
    assert n and (labels == 0).any()
    for bad in (n + 1, -1, 0.5, np.nan):
        path = saved_with(tmp_path, sample, plane_labels=np.where(labels == 0, bad, labels))
        with pytest.raises(data.DataError, match=f"plane labels outside 0..{n}"):
            data.load_sample(path)
    # labels that name the last plane when its parameters are missing
    params = checkpoint.load(saved_with(tmp_path, sample))["plane_params"]
    with pytest.raises(data.DataError, match=f"plane labels outside 0..{n - 1}"):
        data.load_sample(saved_with(tmp_path, sample, plane_params=params[:-1]))


def test_image_values_outside_8_bit_raise_data_error(tmp_path):
    image = checkpoint.load(saved_with(tmp_path, small_sample()))["image"]
    for bad in (-1.0, 256.0, 0.5, np.nan):
        image[0, 0, 0] = bad
        with pytest.raises(data.DataError, match="not 8-bit integers"):
            data.load_sample(saved_with(tmp_path, small_sample(), image=image))


@pytest.mark.parametrize("kind", ["depth", "image", "plane_labels"])
def test_sample_files_of_different_sizes_raise_data_error(tmp_path, kind):
    stored = checkpoint.load(saved_with(tmp_path, small_sample()))
    path = saved_with(tmp_path, small_sample(), **{kind: stored[kind][..., :6]})
    with pytest.raises(data.DataError, match="sizes differ"):
        data.load_sample(path)


def test_load_manifest_split_filter(tmp_path):
    make_dataset(3, 2, seed=4, out_dir=str(tmp_path))
    assert len(load_manifest(str(tmp_path), "train")) == 3
    assert len(load_manifest(str(tmp_path), "eval")) == 2
    assert len(load_manifest(str(tmp_path))) == 5
    with pytest.raises(data.DataError):
        load_manifest(str(tmp_path), "nope")

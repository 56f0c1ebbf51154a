"""Synthetic scenes with exact depth, plus dataset persistence.

Scenes are ray-cast at a fixed resolution: a floor plane and up to three
boxes/spheres, Lambertian-shaded from one directional light. Every
primitive's intersector reports hit distance, normal, face id and the
world planes of its planar faces; one z-buffer pass over the primitive
list keeps the nearest hit per pixel, and each planar face that won
enough pixels (the floor, visible box faces) is annotated with its
camera-frame plane equation for the planarity metrics.

Depth is z-depth (distance along the optical axis). Every raster shares
one pinhole, so no sample stores intrinsics: an H x W raster has focal
length W pixels and its principal point at ((W - 1) / 2, (H - 1) / 2).

A sample in memory (``DepthSample``) holds the same entries as its file,
with the image scaled to [0, 1]. On disk, a dataset directory holds one
``checkpoint`` container per sample, ``{split}_{index:05d}.dart``, with
four float32 entries:
  image         [3, H, W]  8-bit values round(clip(x, 0, 1) * 255)
  depth         [H, W]     meters, finite and non-negative; 0 where invalid,
                           so the mask is depth > 0
  plane_labels  [H, W]     0 for no plane, i + 1 for plane i; n <= 255
  plane_params  [n, 8]     per plane the float64 (nx, ny, nz, d), camera
                           frame, stored as its bytes; finite, normal nonzero
and ``manifest.tsv``, UTF-8 lines "split<TAB>file".
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint

RESOLUTION = 32
EPS_NORM = 1e-6          # epsilon in the depth normalization
PERCENTILE = 98.0
AMBIENT = 0.18
MIN_PLANE_PIXELS = 16     # smallest plane that is annotated and scored
MAX_PLANES = 255          # plane labels are uint8; a 32 x 32 raster holds 64 planes
MIN_VALID_FRACTION = 0.55


class DataError(ValueError):
    """Dataset files or generation parameters are invalid."""


@dataclass
class DepthSample:
    """The entries of one sample file (module docstring); the mask is derived."""

    image: np.ndarray         # float32 [3, H, W] in [0, 1]; 8-bit on disk
    depth: np.ndarray         # float32 [H, W], meters; 0 where invalid
    plane_labels: np.ndarray  # uint8 [H, W]: 0 for no plane, i + 1 for plane i
    plane_params: np.ndarray  # float64 [n, 4]: plane i's (nx, ny, nz, d) with
    #                           n . p + d == 0 on it, camera frame

    @property
    def mask(self) -> np.ndarray:
        """Valid pixels, bool [H, W]: the positive depths."""
        return self.depth > 0


@dataclass(frozen=True)
class SceneSpec:
    """Everything the renderer needs; a pure function of the seed."""

    seed: int
    objects: tuple          # tuples ("sphere", center, radius, albedo) or
    #                         ("box", lo, hi, albedo)
    floor_albedo: tuple[float, float, float]
    eye: tuple[float, float, float]
    target: tuple[float, float, float]
    light: tuple[float, float, float]

    @classmethod
    def from_seed(cls, seed: int) -> "SceneSpec":
        rng = np.random.default_rng(np.random.SeedSequence([77, seed]))
        n_objects = int(rng.integers(0, 4))  # plus the floor: 1..4 primitives
        objects = []
        for _ in range(n_objects):
            pos = np.array([rng.uniform(-1.4, 1.4), 0.0, rng.uniform(-1.2, 1.2)])
            albedo = tuple(rng.uniform(0.25, 0.95, size=3).round(6))
            if rng.random() < 0.5:
                r = rng.uniform(0.25, 0.7)
                center = (pos[0], r, pos[2])
                objects.append(("sphere", center, float(r), albedo))
            else:
                half = rng.uniform(0.2, 0.6, size=3)
                lo = (pos[0] - half[0], 0.0, pos[2] - half[2])
                hi = (pos[0] + half[0], 2 * half[1], pos[2] + half[2])
                objects.append(("box", lo, hi, albedo))
        yaw = rng.uniform(0, 2 * np.pi)
        dist = rng.uniform(3.2, 4.8)
        height = rng.uniform(1.4, 2.4)
        eye = (dist * np.sin(yaw), height, dist * np.cos(yaw))
        target = (rng.uniform(-0.4, 0.4), rng.uniform(0.0, 0.5),
                  rng.uniform(-0.4, 0.4))
        lv = np.array([rng.uniform(-1, 1), rng.uniform(0.6, 1.6), rng.uniform(-1, 1)])
        lv /= np.linalg.norm(lv)
        return cls(seed=seed, objects=tuple(objects),
                   floor_albedo=tuple(rng.uniform(0.35, 0.85, size=3).round(6)),
                   eye=eye, target=target, light=tuple(lv))


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------


def _pixel_rays(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Camera-frame x and y [h, w] of each pixel's ray at z = 1, through
    the pinhole every raster shares: focal length w pixels, principal
    point ((w - 1) / 2, (h - 1) / 2)."""
    u, v = np.meshgrid(np.arange(w), np.arange(h), indexing="xy")
    return (u - (w - 1) / 2) / w, (v - (h - 1) / 2) / w


def _camera_rays(eye, target):
    """World-frame ray directions whose camera-z component is 1, so the
    hit parameter t is the z-depth directly."""
    eye = np.asarray(eye, float)
    fwd = np.asarray(target, float) - eye
    fwd /= np.linalg.norm(fwd)
    up_world = np.array([0.0, 1.0, 0.0])
    right = np.cross(fwd, up_world)
    nr = np.linalg.norm(right)
    if nr < 1e-8:  # looking straight down; pick an arbitrary right
        right = np.array([1.0, 0.0, 0.0])
    else:
        right /= nr
    down = np.cross(fwd, right)
    dx, dy = _pixel_rays(RESOLUTION, RESOLUTION)
    dirs = dx[..., None] * right + dy[..., None] * down + fwd
    rot = np.stack([right, down, fwd], axis=0)  # world -> camera
    return eye, dirs, rot


def _intersect_floor(eye, dirs):
    """The floor plane y = 0, normal +y."""
    t = np.full(dirs.shape[:2], np.inf)
    denom = dirs[..., 1]
    hit = np.abs(denom) > 1e-9
    tt = -eye[1] / np.where(hit, denom, 1.0)
    ok = hit & (tt > 0.05)
    t[ok] = tt[ok]
    up = np.array([0.0, 1.0, 0.0])
    return t, np.broadcast_to(up, dirs.shape), np.zeros(t.shape, int), [(up, 0.0)]


def _intersect_sphere(eye, dirs, center, radius):
    center = np.asarray(center, float)
    oc = eye - center
    a = (dirs * dirs).sum(-1)
    b = 2.0 * (dirs @ oc)
    c = oc @ oc - radius * radius
    disc = b * b - 4 * a * c
    t = np.full(dirs.shape[:2], np.inf)
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t0 = (-b - sq) / (2 * a)
    t1 = (-b + sq) / (2 * a)
    tt = np.where(t0 > 0.05, t0, t1)
    good = ok & (tt > 0.05)
    t[good] = tt[good]
    normals = np.zeros(dirs.shape)
    n = eye + dirs[good] * t[good][:, None] - center
    normals[good] = n / np.linalg.norm(n, axis=-1, keepdims=True)
    return t, normals, np.full(t.shape, -1), []


def _intersect_box(eye, dirs, lo, hi):
    """Slab method. The entry hit lies on face ``2*axis + high``, whose
    outward normal is -e_axis on the lo side and +e_axis on the hi side."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    inv = 1.0 / np.where(np.abs(dirs) > 1e-12, dirs, 1e-12)
    t_lo = (lo - eye) * inv
    t_hi = (hi - eye) * inv
    t1 = np.minimum(t_lo, t_hi)
    t2 = np.maximum(t_lo, t_hi)
    t_near = t1.max(-1)
    t_far = t2.min(-1)
    axis = t1.argmax(-1)
    ok = (t_near <= t_far) & (t_near > 0.05)
    t = np.where(ok, t_near, np.inf)
    # a ray moving towards -axis enters through the hi face
    high = np.take_along_axis(dirs, axis[..., None], axis=-1)[..., 0] <= 0
    normals = np.zeros(dirs.shape)
    np.put_along_axis(normals, axis[..., None], 2.0 * high[..., None] - 1.0, axis=-1)
    planes = []
    for ax in range(3):
        for s, bound in ((-1, lo[ax]), (1, hi[ax])):
            n_world = np.zeros(3)
            n_world[ax] = s
            planes.append((n_world, -s * bound))  # n . p - s*bound = 0
    return t, normals, 2 * axis + high, planes


_INTERSECT = {"floor": _intersect_floor, "sphere": _intersect_sphere,
              "box": _intersect_box}


def render_scene(spec: SceneSpec) -> DepthSample:
    """Ray-cast the scene once; ``DataError`` if the view is unusable: under
    ``MIN_VALID_FRACTION`` of the pixels hit something, or no plane is
    annotated. No seeded scene (``SceneSpec.from_seed``) is: its camera
    looks 9-42 degrees down with a 26.6-degree vertical half field of view,
    so about two thirds of the rows hit the floor (lowest valid fraction
    0.6875 over seeds 0-5999, 500000-501999 and 1000000-1000499)."""
    sample = _render_once(spec)
    valid_frac = sample.mask.mean()
    if valid_frac < MIN_VALID_FRACTION or not len(sample.plane_params):
        raise DataError(
            f"scene with seed {spec.seed}: unusable view (valid fraction "
            f"{valid_frac:.3f}, needs {MIN_VALID_FRACTION} and a plane of "
            f"{MIN_PLANE_PIXELS} pixels)")
    return sample


def _render_once(spec: SceneSpec) -> DepthSample:
    """One z-buffer pass over the primitives (the floor, then the objects),
    keeping per pixel the nearest hit's distance, primitive, face and
    normal; then Lambertian shading. Each planar face that won at least
    ``MIN_PLANE_PIXELS`` pixels becomes the next plane: its pixels get its
    label and its camera-frame equation is appended to the parameters."""
    eye, dirs, rot = _camera_rays(spec.eye, spec.target)
    best_t = np.full(dirs.shape[:2], np.inf)
    best_id = np.full(best_t.shape, -1)
    best_face = np.full(best_t.shape, -1)
    normals = np.zeros(dirs.shape)
    albedos, face_planes = [], []
    for pid, (kind, *params, albedo) in enumerate(
            (("floor", spec.floor_albedo),) + spec.objects):
        t, n, face, planes = _INTERSECT[kind](eye, dirs, *params)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_id[closer] = pid
        best_face[closer] = face[closer]
        normals[closer] = n[closer]
        albedos.append(albedo)
        face_planes.append(planes)

    valid = np.isfinite(best_t)
    lambert = np.clip(normals @ np.asarray(spec.light, float), 0.0, None)
    shade = AMBIENT + (1.0 - AMBIENT) * lambert
    image = np.where(valid[..., None],
                     np.asarray(albedos)[best_id] * shade[..., None], 0.0)

    labels = np.zeros(best_t.shape, np.uint8)
    params = []
    for pid, prim_planes in enumerate(face_planes):
        for face, (n_world, d_world) in enumerate(prim_planes):
            m = (best_id == pid) & (best_face == face)
            if m.sum() >= MIN_PLANE_PIXELS:
                params.append([*(rot @ n_world), n_world @ eye + d_world])
                labels[m] = len(params)
    return DepthSample(
        image=np.ascontiguousarray(np.clip(image, 0.0, 1.0).transpose(2, 0, 1),
                                   dtype=np.float32),
        depth=np.where(valid, best_t, 0.0).astype(np.float32),
        plane_labels=labels,
        plane_params=np.array(params, np.float64).reshape(-1, 4),
    )


def backproject(depth: np.ndarray) -> np.ndarray:
    """z-depth raster [H, W] -> camera-frame points [H, W, 3], through the
    pinhole of an H x W raster (module docstring)."""
    dx, dy = _pixel_rays(*depth.shape)
    return np.stack([dx * depth, dy * depth, depth], axis=-1)


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


def percentile_nearest_rank(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    v = np.sort(np.asarray(values).reshape(-1))
    if v.size == 0:
        raise DataError("percentile of empty set")
    rank = int(np.ceil(pct / 100.0 * v.size))
    rank = min(max(rank, 1), v.size)
    return float(v[rank - 1])


def normalize_depth(depth: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Map depth to roughly [-1, 1] by its own 98th-percentile: the raster
    is divided by (D98 + eps), doubled, and shifted so zero maps to -1."""
    if not np.asarray(mask).any():
        raise DataError("normalize_depth: empty mask")
    d98 = percentile_nearest_rank(depth[mask], PERCENTILE)
    return (depth / (d98 + EPS_NORM) * 2.0 - 1.0).astype(np.float32)


def depth_rasters(samples: list[DepthSample]) -> np.ndarray:
    """The VQ's input: each sample's normalized depth, stacked [N, 1, H, W]."""
    return np.stack([normalize_depth(s.depth, s.mask) for s in samples])[:, None]


def relative_depth(norm: np.ndarray) -> np.ndarray:
    """Normalized depth back to relative depth (x + 1) / 2, in units of
    the raster's 98th-percentile depth."""
    return (norm + 1.0) * 0.5


def denormalize_depth(norm: np.ndarray, d98: float) -> np.ndarray:
    return (relative_depth(norm) * (d98 + EPS_NORM)).astype(np.float32)


def depth_p98(depth: np.ndarray, mask: np.ndarray) -> float:
    return percentile_nearest_rank(depth[mask], PERCENTILE)


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------


def save_sample(out_dir: str, stem: str, sample: DepthSample) -> str:
    """Write ``sample``'s entries as the checkpoint container
    ``{stem}.dart`` and return its file name."""
    name = f"{stem}.dart"
    checkpoint.save(os.path.join(out_dir, name), {
        "image": np.round(np.clip(sample.image, 0.0, 1.0) * 255.0),
        "depth": sample.depth,
        "plane_labels": sample.plane_labels,
        "plane_params": np.ascontiguousarray(sample.plane_params,
                                             np.float64).view(np.float32),
    })
    return name


def load_sample(path: str) -> DepthSample:
    """Read a sample written by ``save_sample``; a malformed file raises
    ``DataError`` naming it."""
    try:
        entries = checkpoint.load(path)
    except checkpoint.CheckpointError as e:
        raise DataError(str(e)) from None
    try:
        image = checkpoint.entry(entries, "image", (3, None, None))
        depth = checkpoint.entry(entries, "depth", (None, None))
        labels = checkpoint.entry(entries, "plane_labels", (None, None))
        params = checkpoint.entry(entries, "plane_params", (None, 8)).view(np.float64)
    except checkpoint.CheckpointError as e:
        raise DataError(f"{path}: {e}") from None
    if not image.shape[1:] == depth.shape == labels.shape:
        raise DataError(f"{path}: image {image.shape[1:]}, depth {depth.shape} "
                        f"and plane label {labels.shape} sizes differ")
    if not (np.isfinite(depth) & (depth >= 0)).all():
        raise DataError(f"{path}: depth values must be finite and non-negative")
    if not (image == np.clip(np.round(image), 0, 255)).all():
        raise DataError(f"{path}: image values are not 8-bit integers")
    if len(params) > MAX_PLANES:
        raise DataError(f"{path}: {len(params)} planes, more than {MAX_PLANES}")
    length = np.linalg.norm(params[:, :3], axis=1)  # what the metrics divide by
    if not (np.isfinite(params).all() and ((length > 0) & (length < np.inf)).all()):
        raise DataError(f"{path}: plane parameters must be finite, normals nonzero")
    if not np.isin(labels, np.arange(len(params) + 1)).all():
        raise DataError(f"{path}: plane labels outside 0..{len(params)}")
    return DepthSample(image=image / np.float32(255), depth=depth,
                       plane_labels=labels.astype(np.uint8), plane_params=params)


EVAL_SEED_OFFSET = 500_000


def make_dataset(n_train: int, n_eval: int, seed: int, out_dir: str) -> str:
    """Render and persist train/eval splits with disjoint seed ranges.

    Returns the manifest path. Train sample i uses seed ``seed + i``; eval
    sample j uses ``seed + EVAL_SEED_OFFSET + j``.
    """
    if n_train <= 0 or n_eval <= 0:
        raise DataError("make_dataset: counts must be positive")
    if seed < 0:
        raise DataError(f"make_dataset: seed {seed} must be non-negative")
    if n_train >= EVAL_SEED_OFFSET:
        raise DataError("make_dataset: train split too large for seed layout")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for split, count, base in (("train", n_train, seed),
                               ("eval", n_eval, seed + EVAL_SEED_OFFSET)):
        for i in range(count):
            sample = render_scene(SceneSpec.from_seed(base + i))
            name = save_sample(out_dir, f"{split}_{i:05d}", sample)
            rows.append(f"{split}\t{name}")
    manifest = os.path.join(out_dir, "manifest.tsv")
    tmp = manifest + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    os.replace(tmp, manifest)
    return manifest


def load_manifest(data_dir: str, split: str | None = None) -> list[DepthSample]:
    manifest = os.path.join(data_dir, "manifest.tsv")
    if not os.path.exists(manifest):
        raise DataError(f"no manifest.tsv in {data_dir}")
    samples = []
    with open(manifest, "r", encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise DataError(f"{manifest}: line {line!r} is not split<TAB>file; "
                                f"rerun gen-data to rewrite the dataset")
            if split is None or parts[0] == split:
                samples.append(load_sample(os.path.join(data_dir, parts[1])))
    if split is not None and not samples:
        raise DataError(f"no samples for split {split!r} in {data_dir}")
    return samples

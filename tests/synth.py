"""Small synthetic depth samples for unit tests (no renderer involved)."""

import numpy as np

from depthart import tensor as T
from depthart.data import DepthSample
from depthart.tensor import Tensor


def smooth_field(rng, res, lo, hi, coarse=4):
    grid = rng.uniform(lo, hi, size=(1, coarse, coarse))
    return T.resize_bilinear(Tensor(grid), (res, res)).data[0]


def synth_samples(n, res=16, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        depth = smooth_field(rng, res, 1.5, 6.0).astype(np.float32)
        shade = smooth_field(rng, res, 0.1, 0.9)
        image = np.stack([shade * c for c in rng.uniform(0.4, 1.0, 3)])
        out.append(DepthSample(image=image.astype(np.float32), depth=depth,
                               plane_labels=np.zeros((res, res), np.int64),
                               plane_params=np.zeros((0, 4))))
    return out

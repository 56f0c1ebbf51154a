"""Scale alignment and the depth evaluation suite.

Predictions are scale-invariant, so every metric first removes one global
scale via the exact L1-optimal factor (a |pred|-weighted median of
gt/pred). AbsRel and the delta-threshold error follow the usual
definitions; the planarity pair back-projects annotated regions and fits
a total-least-squares plane.

Model evaluation runs one greedy decode per ``EVAL_CHUNK`` chunk of
images (``_greedy_maps``: one image-token encode, one ``infer_batch``).
``predict_depth_rasters`` decodes the final composition of those maps;
``evaluate_scales`` decodes every scale's composition and the VQ floor
from the same maps, so a model's report and its per-scale curve come
from one decode.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .data import (MIN_PLANE_PIXELS, DepthSample, backproject, depth_rasters,
                   relative_depth)
from .var import infer_batch

METRIC_COLUMNS = ("absrel", "delta1_err", "pe_fla", "pe_ori")
DELTA1 = 1.25      # ratio threshold of the delta error
EVAL_CHUNK = 32    # samples decoded per batch


class MetricError(ValueError):
    """Inputs violate a metric's preconditions."""


# --------------------------------------------------------------------------
# scale alignment
# --------------------------------------------------------------------------


def align_scale(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> float:
    """Exact minimizer of sum |s*pred - gt| over valid pixels.

    Equals the |pred|-weighted median of gt/pred; non-positive predictions
    are excluded from the median. Ties resolve to the lower candidate.
    """
    m = np.asarray(mask, bool) & (np.asarray(pred) > 0)
    if not m.any():
        raise MetricError("align_scale: no usable pixels")
    p = np.asarray(pred, np.float64)[m]
    g = np.asarray(gt, np.float64)[m]
    r = g / p
    w = np.abs(p)
    order = np.argsort(r, kind="stable")
    r, w = r[order], w[order]
    cw = np.cumsum(w)
    j = int(np.searchsorted(cw, 0.5 * cw[-1], side="left"))
    return float(r[j])


def absrel(pred_aligned: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> float:
    m = np.asarray(mask, bool)
    if not m.any():
        raise MetricError("absrel: empty mask")
    p = np.asarray(pred_aligned, np.float64)[m]
    g = np.asarray(gt, np.float64)[m]
    if (g <= 0).any():
        raise MetricError("absrel: ground truth must be positive on the mask")
    return float(np.mean(np.abs(p - g) / g))


def delta1_err(pred_aligned: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of pixels whose ratio (either direction) reaches
    ``DELTA1``; the complement of the usual delta accuracy, so lower is
    better."""
    m = np.asarray(mask, bool)
    if not m.any():
        raise MetricError("delta1_err: empty mask")
    p = np.asarray(pred_aligned, np.float64)[m]
    g = np.asarray(gt, np.float64)[m]
    if (g <= 0).any() or (p <= 0).any():
        raise MetricError("delta1_err: values must be positive on the mask")
    ratio = np.maximum(p / g, g / p)
    return float(np.mean(ratio >= DELTA1))


# --------------------------------------------------------------------------
# planarity
# --------------------------------------------------------------------------


def fit_plane_tls(points: np.ndarray):
    """Total-least-squares plane: returns (unit normal, offset) minimizing
    RMS point-plane distance, or None if the point spread is degenerate."""
    pts = np.asarray(points, np.float64)
    if pts.shape[0] < 3:
        return None
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[1] < 1e-9 * max(s[0], 1e-12):  # collinear spread: normal undefined
        return None
    normal = vt[2]
    return normal, float(-normal @ centroid)


def plane_metrics(pred_aligned: np.ndarray, sample: DepthSample) -> tuple[float, float]:
    """(pe-fla in cm, pe-ori in degrees), averaged over annotated planes.

    Back-projects masked pixels of the aligned prediction, fits a TLS
    plane, and measures RMS deviation from the fit and the folded angle
    between the fitted and annotated normals. Planes with fewer than
    ``MIN_PLANE_PIXELS`` usable pixels and degenerate fits are skipped.
    """
    usable = 0
    fla_sum = 0.0
    ori_sum = 0.0
    pts_all = backproject(np.asarray(pred_aligned, np.float64))
    valid = sample.mask & (np.asarray(pred_aligned) > 0)
    for i, gt_normal in enumerate(sample.plane_params[:, :3]):
        m = valid & (sample.plane_labels == i + 1)
        if m.sum() < MIN_PLANE_PIXELS:
            continue
        fit = fit_plane_tls(pts_all[m])
        if fit is None:
            continue
        normal, offset = fit
        dist = pts_all[m] @ normal + offset
        fla_sum += math.sqrt(float(np.mean(dist * dist))) * 100.0
        gt_n = gt_normal / np.linalg.norm(gt_normal)
        cosang = abs(float(normal @ gt_n))
        ori_sum += math.degrees(math.acos(min(1.0, max(-1.0, cosang))))
        usable += 1
    if usable == 0:
        raise MetricError("plane_metrics: no usable plane annotation")
    return fla_sum / usable, ori_sum / usable


# --------------------------------------------------------------------------
# reports and ranking
# --------------------------------------------------------------------------


@dataclass
class DatasetRow:
    dataset: str
    absrel: float
    delta1_err: float
    pe_fla: float
    pe_ori: float
    scale: float


@dataclass
class MetricsReport:
    model: str
    rows: list[DatasetRow] = field(default_factory=list)
    rank: float | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["model", "dataset", "absrel", "delta1_err",
                    "pe_fla", "pe_ori", "scale"])
        for r in self.rows:
            w.writerow([self.model, r.dataset, repr(r.absrel),
                        repr(r.delta1_err), repr(r.pe_fla), repr(r.pe_ori),
                        repr(r.scale)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "MetricsReport":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["model", "dataset", "absrel", "delta1_err",
                                   "pe_fla", "pe_ori", "scale"]:
            raise MetricError("metrics CSV: unexpected header")
        if len(rows) < 2:
            raise MetricError("metrics CSV: no rows")
        report = cls(model=rows[1][0] if rows[1] else "")
        for line, r in enumerate(rows[1:], start=2):
            if len(r) != 7 or r[0] != report.model:
                raise MetricError(f"metrics CSV line {line}: expected 7 fields "
                                  f"of model {report.model!r}, got {r!r}")
            try:
                values = [float(x) for x in r[2:]]
            except ValueError as e:
                raise MetricError(f"metrics CSV line {line}: {e}") from None
            report.rows.append(DatasetRow(r[1], *values))
        return report


def _ascending_ranks(values: list[float]) -> list[float]:
    """1 = best (smallest), NaN after every number; ties, NaNs among them,
    share the mean of their positions."""
    keys = [(True, 0.0) if math.isnan(v) else (False, v) for v in values]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and keys[order[j + 1]] == keys[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def rank_models(reports: list[MetricsReport]) -> list[float]:
    """Average ascending rank across every (dataset, metric) column."""
    if len(reports) < 2:
        raise MetricError("rank_models: need at least two reports")
    layout = [(r.dataset,) for r in reports[0].rows]
    for rep in reports[1:]:
        if [(r.dataset,) for r in rep.rows] != layout:
            raise MetricError("rank_models: reports cover different datasets")
    totals = [0.0] * len(reports)
    cells = 0
    for row_i in range(len(layout)):
        for col in METRIC_COLUMNS:
            vals = [getattr(rep.rows[row_i], col) for rep in reports]
            for mi, rk in enumerate(_ascending_ranks(vals)):
                totals[mi] += rk
        cells += len(METRIC_COLUMNS)
    ranks = [t / cells for t in totals]
    for rep, rk in zip(reports, ranks):
        rep.rank = rk
    return ranks


# --------------------------------------------------------------------------
# dataset-level evaluation
# --------------------------------------------------------------------------


def _align(pred: np.ndarray, sample: DepthSample) -> tuple[np.ndarray, float, bool]:
    """(prediction aligned and clamped at 1e-6, scale, whether it was fitted):
    one with no positive pixel under the mask keeps scale 1 instead."""
    try:
        s, fitted = align_scale(pred, sample.depth, sample.mask), True
    except MetricError:
        s, fitted = 1.0, False
    return np.maximum(pred * s, 1e-6), s, fitted


def evaluate_rasters(pred_depths: list[np.ndarray],
                     samples: list[DepthSample],
                     model_name: str, dataset_name: str) -> MetricsReport:
    """Aggregate aligned metrics of per-sample metric-depth predictions."""
    if len(pred_depths) != len(samples):
        raise MetricError("evaluate_rasters: length mismatch")
    absrels, deltas, flas, oris, scales = [], [], [], [], []
    for pred, sample in zip(pred_depths, samples):
        aligned, s, fitted = _align(pred, sample)
        absrels.append(absrel(aligned, sample.depth, sample.mask))
        deltas.append(delta1_err(aligned, sample.depth, sample.mask))
        scales.append(s)
        if not fitted:  # a constant raster, which any plane fits exactly
            continue
        try:
            fla, ori = plane_metrics(aligned, sample)
        except MetricError:
            continue
        flas.append(fla)
        oris.append(ori)
    row = DatasetRow(
        dataset=dataset_name,
        absrel=float(np.mean(absrels)),
        delta1_err=float(np.mean(deltas)),
        pe_fla=float(np.mean(flas)) if flas else float("nan"),
        pe_ori=float(np.mean(oris)) if oris else float("nan"),
        scale=float(np.mean(scales)),
    )
    return MetricsReport(model=model_name, rows=[row])


# --------------------------------------------------------------------------
# model evaluation pipelines
# --------------------------------------------------------------------------


def _greedy_maps(model, vq, samples: list[DepthSample]):
    """Per ``EVAL_CHUNK`` chunk of ``samples``: the chunk and its greedy
    per-scale maps, from one image-token encode and one ``infer_batch``.
    Reads only the images, never the depth or mask."""
    for lo in range(0, len(samples), EVAL_CHUNK):
        part = samples[lo:lo + EVAL_CHUNK]
        yield part, infer_batch(model, vq, vq.image_tokens(np.stack([s.image for s in part])))


def predict_depth_rasters(model, vq, samples: list[DepthSample]) -> list[np.ndarray]:
    """Greedy inference end to end: image -> token maps -> composed
    features -> decoded raster -> relative depth, one decode per chunk.
    The result is known up to one global factor, which ``align_scale``
    removes, so the ``scale`` an evaluation reports is in metres per unit
    of relative depth."""
    preds: list[np.ndarray] = []
    for _, z in _greedy_maps(model, vq, samples):
        preds += list(relative_depth(vq.decode_batch(vq.compose_batch(z))[:, 0]))
    return preds


def predict_scale_rasters(model, vq, samples: list[DepthSample]):
    """Per chunk, the chunk and the relative depth [B, H, W] decoded from
    each scale's composition of the same greedy maps; the last scale's
    rasters are those of ``predict_depth_rasters``."""
    for part, z in _greedy_maps(model, vq, samples):
        yield part, [relative_depth(vq.decode_batch(acc)[:, 0]) for acc in vq.compositions(z)]


def evaluate_scales(model, vq, samples: list[DepthSample], model_name: str,
                    dataset_name: str) -> tuple[MetricsReport, list[tuple[int, float]], float]:
    """Everything one greedy decode per chunk yields: the model's report
    (``evaluate_rasters`` of the last scale), the curve [(k, mean AbsRel
    after scale k)], and the autoencoder's floor, the mean AbsRel of the
    decoded decomposition of the ground truth. Every mean is the one
    ``evaluate_rasters`` takes, ``np.mean`` of the per-sample values, so
    the curve's last point is the report's AbsRel bit for bit."""
    final: list[np.ndarray] = []
    per_scale: list[list[float]] = [[] for _ in vq.schedule.sizes]
    floor: list[float] = []
    for part, scales in predict_scale_rasters(model, vq, samples):
        final += list(scales[-1])
        for k, preds in enumerate(scales):
            per_scale[k] += [absrel(_align(pred, s)[0], s.depth, s.mask)
                             for pred, s in zip(preds, part)]
        feats = vq.encode_batch(depth_rasters(part))
        rec = vq.decode_batch(vq.compose_batch(vq.decompose_batch(feats)))
        floor += [absrel(_align(pred, s)[0], s.depth, s.mask)
                  for pred, s in zip(relative_depth(rec[:, 0]), part)]
    report = evaluate_rasters(final, samples, model_name, dataset_name)
    curve = [(k + 1, float(np.mean(values))) for k, values in enumerate(per_scale)]
    return report, curve, float(np.mean(floor))


def write_scale_curve_csv(path: str, curve: list[tuple[int, float]],
                          floor: float) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["k", "absrel", "floor"])
        for k, val in curve:
            w.writerow([k, repr(float(val)), repr(float(floor))])

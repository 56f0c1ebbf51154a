"""One binary for the whole pipeline.

Subcommands: gen-data, train-vqvae, train-var, eval, rank.
Trainers read a key=value config file; flags win over file values. Every
command that writes outputs writes a JSON run manifest next to them;
``rank`` only prints. Exit codes: 0 ok, 2 usage error, 3 data error,
4 numeric divergence.

DEPTHART_THREADS caps the numeric backend's thread pool; it must be set
before the first numpy import, which this module guarantees for console
invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _cap_threads() -> None:
    n = os.environ.get("DEPTHART_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


_cap_threads()

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .checkpoint import CheckpointError  # noqa: E402
from .data import DataError, depth_rasters, load_manifest, make_dataset  # noqa: E402
from .metrics import (METRIC_COLUMNS, MetricError, MetricsReport,  # noqa: E402
                      evaluate_scales, rank_models, write_scale_curve_csv)
from .training import ConfigError, TrainConfig, fit, read_config  # noqa: E402
from .var import VarConfig, VarModel  # noqa: E402
from .vq import (DivergenceError, ScheduleError, VqModel, VqTrainConfig,  # noqa: E402
                 train_vqvae)

BUILD_ID = f"depthart-{__version__}"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


def _write_manifest(path: str, subcommand: str, config: dict, seed: int,
                    outputs: list[str], wall_time: float) -> None:
    for out in outputs:
        if not os.path.exists(out):
            raise DataError(f"manifest lists missing output {out}")
    payload = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "build": BUILD_ID,
        "outputs": outputs,
        "wall_time_s": wall_time,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def _overrides(args) -> dict[str, str]:
    out = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    t0 = time.monotonic()
    manifest = make_dataset(args.train, args.eval, args.seed, args.out)
    _write_manifest(os.path.join(args.out, "run_manifest.json"), "gen-data",
                    {"train": args.train, "eval": args.eval, "out": args.out},
                    args.seed, [manifest], time.monotonic() - t0)
    print(f"wrote {args.train}+{args.eval} samples under {args.out}")
    return EXIT_OK


VQ_CONFIG_KEYS = ("lr", "batch", "steps", "seed", "data_dir", "out_dir")


def cmd_train_vqvae(args) -> int:
    t0 = time.monotonic()
    raw = read_config(args.config, VQ_CONFIG_KEYS, _overrides(args))
    cfg = VqTrainConfig(steps=raw["steps"], warmup_steps=max(1, raw["steps"] // 10),
                        batch=raw["batch"], lr=raw["lr"], seed=raw["seed"])
    samples = load_manifest(raw["data_dir"], "train")
    rasters = depth_rasters(samples)
    masks = np.stack([s.mask for s in samples])[:, None].astype(np.float32)
    out_dir = raw["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    model, curve = train_vqvae(rasters, masks, cfg, out_dir=out_dir)
    ckpt = os.path.join(out_dir, "vqvae.dart")
    model.save(ckpt)
    _write_manifest(os.path.join(out_dir, "run_manifest.json"), "train-vqvae",
                    raw, cfg.seed, [ckpt, os.path.join(out_dir, "vqvae_loss.csv")],
                    time.monotonic() - t0)
    print(f"vq-vae trained, final loss {curve[-1][1]:.5f}, checkpoint {ckpt}")
    return EXIT_OK


def cmd_train_var(args) -> int:
    t0 = time.monotonic()
    overrides = _overrides(args)
    if args.regime:
        overrides["regime"] = args.regime
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    config = TrainConfig.from_file(args.config, overrides)
    vq = VqModel.load(args.vq)
    samples = load_manifest(config.data_dir, "train")
    model = VarModel(VarConfig(schedule=vq.schedule, vocab=vq.codebook.size,
                               emb_dim=vq.emb_dim),
                     seed=config.seed, codebook_init=vq.codebook.vectors)
    model, curve, train_seconds = fit(model, vq, samples, config)
    ckpt = os.path.join(config.out_dir, "model.dart")
    curve_path = os.path.join(config.out_dir, "loss.csv")
    _write_manifest(os.path.join(config.out_dir, "run_manifest.json"),
                    "train-var", config.__dict__.copy(), config.seed,
                    [ckpt, curve_path], time.monotonic() - t0)
    print(f"{config.regime} run done in {train_seconds:.1f}s, "
          f"final loss {curve[-1][1]:.5f}, checkpoint {ckpt}")
    return EXIT_OK


def _load_compatible(model_path: str, vq_path: str):
    model = VarModel.load(model_path)
    vq = VqModel.load(vq_path)
    cfg = model.config
    for what, mine, theirs in (("schedule", cfg.schedule.sizes, vq.schedule.sizes),
                               ("vocab", cfg.vocab, vq.codebook.size),
                               ("emb_dim", cfg.emb_dim, vq.emb_dim)):
        if mine != theirs:
            raise ScheduleError(f"{what} mismatch: model {mine} vs vq {theirs}")
    return model, vq


def cmd_eval(args) -> int:
    t0 = time.monotonic()
    model, vq = _load_compatible(args.model, args.vq)
    samples = load_manifest(args.data, args.split)
    name = args.name or os.path.splitext(os.path.basename(args.model))[0]
    report, curve, floor = evaluate_scales(
        model, vq, samples, name,
        f"{os.path.basename(os.path.normpath(args.data))}/{args.split}")
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(report.to_csv())
    scales = args.out + ".scales.csv"
    write_scale_curve_csv(scales, curve, floor)
    _write_manifest(args.out + ".manifest.json", "eval",
                    {"model": args.model, "vq": args.vq, "data": args.data,
                     "split": args.split}, 0, [args.out, scales],
                    time.monotonic() - t0)
    row = report.rows[0]
    print(f"{name}: absrel={row.absrel:.4f} delta1_err={row.delta1_err:.4f} "
          f"pe_fla={row.pe_fla:.3f}cm pe_ori={row.pe_ori:.3f}deg")
    print("  ".join(f"k={k}:{v:.4f}" for k, v in curve) + f"  floor:{floor:.4f}")
    return EXIT_OK


def cmd_rank(args) -> int:
    reports = []
    for path in args.reports:
        with open(path, "r", encoding="utf-8") as f:
            try:
                reports.append(MetricsReport.from_csv(f.read()))
            except MetricError as e:
                raise MetricError(f"{path}: {e}") from None
    rank_models(reports)
    print(_rank_table(reports), end="")
    return EXIT_OK


def _rank_table(reports) -> str:
    """The paper's results table: one line per model, the four metrics of
    each dataset (PE-fla in cm, PE-ori in degrees), then the Rank column,
    the model's mean ascending rank over all metric cells."""
    header = ["model"] + [f"{row.dataset}:{col}" for row in reports[0].rows
                          for col in METRIC_COLUMNS] + ["rank"]
    lines = [header]
    for rep in reports:
        lines.append([rep.model] + [f"{getattr(row, col):.4f}" for row in rep.rows
                                    for col in METRIC_COLUMNS] + [f"{rep.rank:.2f}"])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "".join("  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                             for i, (cell, w) in enumerate(zip(line, widths))) + "\n"
                   for line in lines)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="depthart",
                                description="next-scale autoregressive depth "
                                            "estimation pipeline")
    p.add_argument("--version", action="version", version=BUILD_ID)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="render a synthetic dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--train", type=int, required=True)
    g.add_argument("--eval", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gen_data)

    tv = sub.add_parser("train-vqvae", help="train the residual VQ autoencoder")
    tv.add_argument("--config", required=True)
    tv.add_argument("--set", action="append", metavar="KEY=VALUE")
    tv.set_defaults(fn=cmd_train_vqvae)

    ta = sub.add_parser("train-var", help="train the transformer")
    ta.add_argument("--config", required=True)
    ta.add_argument("--regime", choices=["tf", "depthart"])
    ta.add_argument("--vq", required=True)
    ta.add_argument("--seed", type=int)
    ta.add_argument("--set", action="append", metavar="KEY=VALUE")
    ta.set_defaults(fn=cmd_train_var)

    ev = sub.add_parser(
        "eval", help="evaluate a checkpoint",
        description="Decode each image once and write three files: OUT, the "
                    "model's metrics row; OUT.scales.csv, the AbsRel after "
                    "each scale and the VQ floor (k,absrel,floor); and "
                    "OUT.manifest.json, the run manifest.")
    ev.add_argument("--model", required=True)
    ev.add_argument("--vq", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--split", default="eval")
    ev.add_argument("--name")
    ev.set_defaults(fn=cmd_eval)

    rk = sub.add_parser("rank", help="rank models by their eval CSVs")
    rk.add_argument("reports", nargs="+", metavar="eval.csv")
    rk.set_defaults(fn=cmd_rank)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ScheduleError, CheckpointError, MetricError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())

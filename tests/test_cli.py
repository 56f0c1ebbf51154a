import hashlib
import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from depthart import checkpoint, cli, metrics
from depthart.data import DepthSample, load_manifest, save_sample
from depthart.metrics import MetricsReport
from depthart.var import VarModel
from depthart.vq import VqModel


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny end-to-end workspace: dataset, vq checkpoint, two var runs."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert cli.main(["gen-data", "--out", str(data), "--train", "6",
                     "--eval", "2", "--seed", "11"]) == 0

    vq_cfg = root / "vq.cfg"
    vq_out = root / "vq"
    vq_cfg.write_text(f"lr=2e-3\nbatch=4\nsteps=100\nseed=0\n"
                      f"data_dir={data}\nout_dir={vq_out}\n")
    assert cli.main(["train-vqvae", "--config", str(vq_cfg)]) == 0

    var_cfg = root / "var.cfg"
    var_cfg.write_text("regime=tf\nlr=1e-3\nwd=1e-2\nbatch=4\nsteps=8\n"
                       "decay_period=4\ndecay_gamma=0.8\nseed=0\n"
                       f"data_dir={data}\nout_dir={root / 'tf'}\n")
    assert cli.main(["train-var", "--config", str(var_cfg),
                     "--vq", str(vq_out / "vqvae.dart")]) == 0
    assert cli.main(["train-var", "--config", str(var_cfg),
                     "--regime", "depthart",
                     "--set", f"out_dir={root / 'da'}",
                     "--vq", str(vq_out / "vqvae.dart")]) == 0
    return root


def digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_gen_data_outputs_and_digests(workspace, tmp_path):
    data = workspace / "data"
    lines = (data / "manifest.tsv").read_text().strip().splitlines()
    assert len(lines) == 8
    assert (data / "run_manifest.json").exists()
    rerun = tmp_path / "again"
    assert cli.main(["gen-data", "--out", str(rerun), "--train", "6",
                     "--eval", "2", "--seed", "11"]) == 0
    for line in lines:
        for rel in line.split("\t")[1:]:
            assert digest(data / rel) == digest(rerun / rel)


def test_gen_data_unwritable_dir():
    assert cli.main(["gen-data", "--out", "/proc/nope/x", "--train", "1",
                     "--eval", "1", "--seed", "0"]) == 3


@pytest.mark.parametrize("flag,value", [("--train", "0"), ("--train", "-1"),
                                        ("--eval", "0"), ("--seed", "-1"),
                                        ("--train", "500000")])
def test_bad_gen_data_flag_is_a_usage_error_before_any_work(tmp_path, capsys, flag,
                                                            value):
    # a flag value make_dataset cannot lay out exits 2, as a bad config value
    # does, names the flag and its value, and nothing is written
    args = {"--train": "1", "--eval": "1", "--seed": "0", flag: value}
    out = tmp_path / "d"
    assert cli.main(["gen-data", "--out", str(out), *sum(args.items(), ())]) == 2
    err = capsys.readouterr().err
    assert f"{flag[2:]} " in err and f" {value} " in err
    assert not out.exists()


def test_usage_error_exit_code():
    assert cli.main(["train-var"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_missing_config_key_named(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("regime=tf\nlr=1e-4\n")
    code = cli.main(["train-var", "--config", str(bad),
                     "--vq", str(workspace / "vq" / "vqvae.dart")])
    assert code == 2
    assert "wd" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("train-vqvae", "batch", "0"), ("train-vqvae", "steps", "0"),
    ("train-vqvae", "lr", "0"), ("train-vqvae", "steps", "abc"),
    ("train-var", "lr", "fast"), ("train-var", "seed", "-1"),
    ("train-var", "wd", "-1")])
def test_malformed_trainer_config_is_a_usage_error(workspace, tmp_path, capsys,
                                                   command, key, value):
    args = [command, "--set", f"{key}={value}", "--set", f"out_dir={tmp_path}"]
    if command == "train-vqvae":
        args += ["--config", str(workspace / "vq.cfg")]
    else:
        args += ["--config", str(workspace / "var.cfg"),
                 "--vq", str(workspace / "vq" / "vqvae.dart")]
    assert cli.main(args) == 2
    assert repr(key) in capsys.readouterr().err


def test_zero_weight_decay_trains(workspace, tmp_path):
    # wd = 0 is a valid weight decay: AdamW then decays nothing
    out = tmp_path / "nowd"
    assert cli.main(["train-var", "--config", str(workspace / "var.cfg"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--set", "wd=0", "--set", "steps=2", "--set", f"out_dir={out}"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["wd"] == 0.0
    assert (out / "model.dart").exists()


@pytest.mark.parametrize("command,key", [
    ("train-vqvae", "out_dir"), ("train-vqvae", "data_dir"),
    ("train-var", "out_dir"), ("train-var", "data_dir")])
def test_empty_directory_is_a_usage_error_before_any_work(workspace, tmp_path,
                                                          capsys, monkeypatch,
                                                          command, key):
    # an empty out_dir would train and then save into the working directory,
    # or list a stale ./model.dart in the manifest; both exit 2 at once
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.dart").write_bytes(b"stale")
    (tmp_path / "loss.csv").write_text("stale\n")
    args = [command, "--set", f"{key}="]
    if command == "train-vqvae":
        args += ["--config", str(workspace / "vq.cfg")]
    else:
        args += ["--config", str(workspace / "var.cfg"),
                 "--vq", str(workspace / "vq" / "vqvae.dart")]
    assert cli.main(args) == 2
    assert repr(key) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv", "model.dart"]


def test_regimes_produce_distinct_checkpoints(workspace):
    a = VarModel.load(str(workspace / "tf" / "model.dart"))
    b = VarModel.load(str(workspace / "da" / "model.dart"))
    diff = any(not np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)
    assert diff


def test_train_var_deterministic_rerun(workspace, tmp_path):
    root = workspace
    cfg = tmp_path / "rerun.cfg"
    cfg.write_text("regime=tf\nlr=1e-3\nwd=1e-2\nbatch=4\nsteps=8\n"
                   "decay_period=4\ndecay_gamma=0.8\nseed=0\n"
                   f"data_dir={root / 'data'}\nout_dir={tmp_path / 'r1'}\n")
    assert cli.main(["train-var", "--config", str(cfg),
                     "--vq", str(root / "vq" / "vqvae.dart")]) == 0
    assert cli.main(["train-var", "--config", str(cfg),
                     "--set", f"out_dir={tmp_path / 'r2'}",
                     "--vq", str(root / "vq" / "vqvae.dart")]) == 0
    assert digest(workspace / "tf" / "model.dart") == digest(tmp_path / "r1" / "model.dart")
    assert digest(tmp_path / "r1" / "model.dart") == digest(tmp_path / "r2" / "model.dart")
    assert digest(tmp_path / "r1" / "loss.csv") == digest(tmp_path / "r2" / "loss.csv")


def test_eval_round_trip_and_outputs(workspace, tmp_path):
    out = tmp_path / "report.csv"
    code = cli.main(["eval", "--model", str(workspace / "tf" / "model.dart"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(workspace / "data"),
                     "--out", str(out)])
    assert code == 0
    report = MetricsReport.from_csv(out.read_text())
    assert report.rows[0].absrel >= 0
    assert 0 <= report.rows[0].delta1_err <= 1
    assert (tmp_path / "report.csv.manifest.json").exists()


def test_eval_schedule_mismatch_names_both(workspace, tmp_path, capsys):
    from depthart.vq import ScaleSchedule
    other = VqModel(schedule=ScaleSchedule(((1, 1), (2, 2))), codebook_size=64,
                    emb_dim=16, raster=8, seed=0)
    other_path = tmp_path / "othervq.dart"
    other.save(str(other_path))
    code = cli.main(["eval", "--model", str(workspace / "tf" / "model.dart"),
                     "--vq", str(other_path),
                     "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "(8, 8)" in err and "(2, 2)" in err


@pytest.mark.parametrize("field,value", [("vocab", 128), ("emb_dim", 8)])
def test_eval_vocab_or_emb_dim_mismatch_names_both(workspace, tmp_path, capsys,
                                                    field, value):
    from depthart.var import VarConfig
    from depthart.vq import DEFAULT_SCHEDULE
    model = VarModel(VarConfig(**{"schedule": DEFAULT_SCHEDULE, field: value}))
    model.save(str(tmp_path / "other.dart"))
    code = cli.main(["eval", "--model", str(tmp_path / "other.dart"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    vq = VqModel.load(str(workspace / "vq" / "vqvae.dart"))
    theirs = vq.codebook.size if field == "vocab" else vq.emb_dim
    assert f"{field} mismatch: model {value} vs vq {theirs}" in err


def eval_exit_code(workspace, data):
    return cli.main(["eval", "--model", str(workspace / "tf" / "model.dart"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(data), "--out", str(data.parent / "x.csv")])


def copy_with_eval_entries(workspace, tmp_path, stem="eval_00000", **entries):
    """A copy of the workspace dataset whose sample ``stem`` (by default
    the first eval sample) has ``entries`` replaced."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    path = str(data / f"{stem}.dart")
    stored = checkpoint.load(path)
    stored.update({k: f(stored[k]) for k, f in entries.items()})
    checkpoint.save(path, stored)
    return data


def with_pixel(value):
    """A corruption that sets the first pixel of a raster to ``value``."""
    def corrupt(raster):
        out = raster.copy()
        out[(0,) * out.ndim] = value
        return out
    return corrupt


def test_eval_with_truncated_sample_file_is_a_data_error(workspace, tmp_path,
                                                         capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    sample = data / "eval_00000.dart"
    sample.write_bytes(sample.read_bytes()[:-100])
    assert eval_exit_code(workspace, data) == 3
    assert "eval_00000.dart: truncated" in capsys.readouterr().err


def test_eval_with_out_of_range_plane_labels_is_a_data_error(workspace, tmp_path,
                                                             capsys):
    # one label past the plane count is out of range whatever the scene
    stored = checkpoint.load(str(workspace / "data" / "eval_00000.dart"))
    n_planes = stored["plane_params"].shape[0]
    data = copy_with_eval_entries(workspace, tmp_path,
                                  plane_labels=with_pixel(n_planes + 1))
    assert eval_exit_code(workspace, data) == 3
    err = capsys.readouterr().err
    assert "eval_00000.dart" in err and "plane labels outside" in err


@pytest.mark.parametrize("value", [np.inf, np.nan, -1.0], ids=["inf", "nan", "negative"])
def test_eval_with_non_finite_or_negative_depth_is_a_data_error(workspace, tmp_path,
                                                                 capsys, value):
    data = copy_with_eval_entries(workspace, tmp_path, depth=with_pixel(value))
    assert eval_exit_code(workspace, data) == 3
    err = capsys.readouterr().err
    assert "eval_00000.dart" in err and "finite and non-negative" in err


def test_train_vqvae_on_infinite_depth_is_a_data_error(workspace, tmp_path, capsys):
    # a data error, not a numeric divergence (exit 4)
    data = copy_with_eval_entries(workspace, tmp_path, stem="train_00000",
                                  depth=with_pixel(np.inf))
    cfg = tmp_path / "vq.cfg"
    cfg.write_text(f"lr=2e-3\nbatch=4\nsteps=4\nseed=0\n"
                   f"data_dir={data}\nout_dir={tmp_path / 'vq'}\n")
    assert cli.main(["train-vqvae", "--config", str(cfg)]) == 3
    assert "train_00000.dart" in capsys.readouterr().err


def test_eval_with_sample_files_of_different_sizes_is_a_data_error(workspace,
                                                                  tmp_path):
    data = copy_with_eval_entries(workspace, tmp_path,
                                  depth=lambda depth: depth[:16, :16])
    assert eval_exit_code(workspace, data) == 3


def test_eval_on_five_column_manifest_asks_to_rerun_gen_data(workspace, tmp_path,
                                                             capsys):
    # the layout that stored image, depth, mask and planes in four files
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.tsv").write_text(
        "eval\teval_00000.ppm\teval_00000.dpth\teval_00000.mask\t"
        "eval_00000.planes.txt\n")
    assert eval_exit_code(workspace, data) == 3
    err = capsys.readouterr().err
    assert str(data / "manifest.tsv") in err and "rerun gen-data" in err


def half_size_copy(src, dst):
    """A copy of dataset ``src`` at ``dst`` whose rasters are 16x16: each
    sample keeps every other row and column of its image, depth and plane
    labels."""
    shutil.copytree(src, dst)
    for split in ("train", "eval"):
        for i, s in enumerate(load_manifest(str(src), split)):
            save_sample(str(dst), f"{split}_{i:05d}", DepthSample(
                image=s.image[:, ::2, ::2], depth=s.depth[::2, ::2],
                plane_labels=s.plane_labels[::2, ::2], plane_params=s.plane_params))
    return dst


def assert_raster_size_error(code, capsys):
    assert code == 3
    err = capsys.readouterr().err
    assert "16x16" in err and "32x32" in err


def test_train_vqvae_on_other_raster_size_is_a_data_error(workspace, tmp_path,
                                                          capsys):
    data = half_size_copy(workspace / "data", tmp_path / "data")
    cfg = tmp_path / "vq.cfg"
    cfg.write_text(f"lr=2e-3\nbatch=4\nsteps=4\nseed=0\n"
                   f"data_dir={data}\nout_dir={tmp_path / 'vq'}\n")
    assert_raster_size_error(cli.main(["train-vqvae", "--config", str(cfg)]), capsys)
    assert not (tmp_path / "vq" / "vqvae_ckpt_latest.dart").exists()


def test_train_var_on_other_raster_size_is_a_data_error(workspace, tmp_path,
                                                        capsys):
    data = half_size_copy(workspace / "data", tmp_path / "data")
    code = cli.main(["train-var", "--config", str(workspace / "var.cfg"),
                     "--set", f"data_dir={data}",
                     "--set", f"out_dir={tmp_path / 'tf'}",
                     "--vq", str(workspace / "vq" / "vqvae.dart")])
    assert_raster_size_error(code, capsys)


def test_eval_on_other_raster_size_is_a_data_error(workspace, tmp_path, capsys):
    data = half_size_copy(workspace / "data", tmp_path / "data")
    code = cli.main(["eval", "--model", str(workspace / "tf" / "model.dart"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(data), "--out", str(tmp_path / "x.csv")])
    assert_raster_size_error(code, capsys)


def test_eval_with_vq_checkpoint_as_model_is_a_data_error(workspace, tmp_path,
                                                           capsys):
    vq = str(workspace / "vq" / "vqvae.dart")
    code = cli.main(["eval", "--model", vq, "--vq", vq,
                     "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "tok_emb" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [lambda raw: raw[:len(raw) // 2],
                                     lambda raw: b"NOPE" + raw[4:]],
                         ids=["truncated", "bad_magic"])
def test_eval_with_malformed_checkpoint_is_a_data_error(workspace, tmp_path,
                                                        corrupt):
    bad = tmp_path / "bad.dart"
    bad.write_bytes(corrupt((workspace / "tf" / "model.dart").read_bytes()))
    code = cli.main(["eval", "--model", str(bad),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3


def first_array_entry(raw):
    """(offset of its dims, offset of its payload, payload bytes) of the
    first entry of the checkpoint bytes ``raw`` with a non-empty payload
    of rank 1 or more."""
    off = 12
    while True:
        (nlen,) = struct.unpack_from("<H", raw, off)
        dims_at = off + 3 + nlen
        rank = raw[dims_at - 1]
        nbytes = 4 * math.prod(struct.unpack_from(f"<{rank}I", raw, dims_at))
        off = dims_at + 4 * rank + nbytes
        if rank and nbytes:
            return dims_at, dims_at + 4 * rank, nbytes


CONTAINER_FAULTS = {  # corruption of the file bytes, and the message it gets
    "header_cut": (lambda raw, at: raw[:at[0] + 2], "truncated at byte"),
    "payload_cut": (lambda raw, at: raw[:at[1] + at[2] // 2], "truncated at byte"),
    "bad_magic": (lambda raw, at: b"NOPE" + raw[4:], "bad magic"),
    "trailing_bytes": (lambda raw, at: raw + bytes(4), "trailing bytes"),
    "huge_dim": (lambda raw, at: raw[:at[0]] + struct.pack("<I", 2**32 - 1) + raw[at[0] + 4:],
                 "truncated at byte"),
}


@pytest.mark.parametrize("fault", CONTAINER_FAULTS)
@pytest.mark.parametrize("kind", ["sample", "vq", "model"])
def test_eval_with_a_malformed_container_names_the_file(workspace, tmp_path, capsys,
                                                        kind, fault):
    # a sample, VQ or model file cut inside an entry's header or payload,
    # with another magic, with bytes after its last entry, or with a dim
    # far past its end exits 3, naming the file, with no traceback
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    files = {"sample": data / "eval_00000.dart", "vq": tmp_path / "vqvae.dart",
             "model": tmp_path / "model.dart"}
    shutil.copy(workspace / "vq" / "vqvae.dart", files["vq"])
    shutil.copy(workspace / "tf" / "model.dart", files["model"])
    corrupt, message = CONTAINER_FAULTS[fault]
    raw = files[kind].read_bytes()
    files[kind].write_bytes(corrupt(raw, first_array_entry(raw)))
    code = cli.main(["eval", "--model", str(files["model"]), "--vq", str(files["vq"]),
                     "--data", str(data), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert f"{files[kind]}: {message}" in err and "Traceback" not in err


def entry_case(which, name, value, message, tag=""):
    return pytest.param(which, name, value, message,
                        id=f"{which}-{name}" + (f"-{tag}" if tag else ""))


NOT_A_COUNT = "must hold positive whole numbers"


@pytest.mark.parametrize("which,name,value,message", [
    entry_case("model", "block0/q_w", np.nan, "holds a non-finite value"),
    entry_case("model", "hp/width", np.nan, "holds a non-finite value"),
    entry_case("vq", "codebook", np.nan, "holds a non-finite value"),
    entry_case("vq", "enc/w1", np.nan, "holds a non-finite value"),
    entry_case("vq", "schedule", np.nan, "holds a non-finite value"),
    entry_case("vq", "hp/raster", np.nan, "holds a non-finite value"),
    entry_case("model", "hp/heads", 0.0, NOT_A_COUNT, "zero"),
    entry_case("model", "hp/heads", 2.5, NOT_A_COUNT, "fraction"),
    entry_case("model", "hp/blocks", -1.0, NOT_A_COUNT, "negative"),
    entry_case("model", "hp/heads", 3.0, "must divide 'hp/width'", "not_a_divisor"),
    entry_case("vq", "schedule", 1.5, NOT_A_COUNT, "fraction"),
    entry_case("vq", "hp/raster", 0.0, NOT_A_COUNT, "zero"),
    entry_case("vq", "schedule", np.array([[1, 1], [2, 2], [4, 4], [16, 16]], np.float32),
               "must end at the encoder's output (8, 8) of 'hp/raster' 32",
               "past_encoder")])
def test_eval_with_non_finite_checkpoint_entry_is_a_data_error(workspace, tmp_path,
                                                                capsys, which, name,
                                                                value, message):
    # non-finite values anywhere, hyperparameters that are not usable
    # counts, and a schedule the encoder cannot feed exit 3 with the entry
    # named
    code = eval_with_entry(workspace, tmp_path, which, name, value)
    assert code == 3
    assert f"{name!r} {message}" in capsys.readouterr().err


def eval_with_entry(workspace, tmp_path, which, name, value):
    """Exit code of ``eval`` with entry ``name`` of the model or VQ
    checkpoint set to ``value``: a scalar goes into its first element, an
    array replaces the whole entry."""
    paths = {"model": str(workspace / "tf" / "model.dart"),
             "vq": str(workspace / "vq" / "vqvae.dart")}
    entries = checkpoint.load(paths[which])
    entries[name] = value if np.ndim(value) else with_pixel(value)(entries[name])
    paths[which] = str(tmp_path / "bad.dart")
    checkpoint.save(paths[which], entries)
    return cli.main(["eval", "--model", paths["model"], "--vq", paths["vq"],
                     "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("which,name,value,message", [
    entry_case("model", "hp/width", 100000.0,
               "entry 'img_proj_w' has shape (16, 128), expected (16, 100000)", "huge"),
    entry_case("vq", "codebook", np.zeros((1, 100000), np.float32),
               "entry 'enc/w3' has shape (16, 32, 3, 3), expected (100000, 32, 3, 3)",
               "huge_emb_dim"),
    entry_case("model", "hp/blocks", 3.0, "entry 'block3/ln1_g' is not read", "fewer"),
    entry_case("model", "hp/blocks", 5.0, "no entry 'block4/ln1_g'", "more")])
def test_eval_with_entries_other_than_the_hyperparameters_imply_is_a_data_error(
        workspace, tmp_path, capsys, which, name, value, message):
    # every parameter entry is checked against the shape the hyperparameters
    # imply before anything is allocated from them: a huge width or
    # embedding size exits 3 naming the first misshapen entry, not with a
    # failed allocation, and a file with more blocks than hp/blocks names
    # the first block entry no block reads
    code = eval_with_entry(workspace, tmp_path, which, name, value)
    assert code == 3
    assert message in capsys.readouterr().err


def test_eval_writes_per_scale_curve(workspace, tmp_path):
    out = tmp_path / "report.csv"
    code = cli.main(["eval", "--model", str(workspace / "da" / "model.dart"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(workspace / "data"),
                     "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "report.csv.scales.csv").read_text().strip().splitlines()
    assert lines[0] == "k,absrel,floor"
    assert len(lines) == 5  # K=4 scales plus header
    floors = {ln.split(",")[2] for ln in lines[1:]}
    assert len(floors) == 1
    assert float(lines[-1].split(",")[1]) == MetricsReport.from_csv(
        out.read_text()).rows[0].absrel  # two eval samples sum exactly as np.mean
    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(out) + ".scales.csv"]
    assert cli.main(["scale-curve", "--model", "m", "--vq", "v",
                     "--data", "d", "--out", "o"]) == 2


def eval_run(workspace, run, out):
    """``eval`` of run ``run``'s ``model.dart`` on the workspace data, with
    the default model name."""
    return cli.main(["eval", "--model", str(workspace / run / "model.dart"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(workspace / "data"), "--out", str(out)])


def test_every_manifest_records_the_numeric_environment(workspace, tmp_path):
    assert eval_run(workspace, "tf", tmp_path / "report.csv") == 0
    manifests = [workspace / d / "run_manifest.json" for d in ("data", "vq", "tf", "da")]
    for path in manifests + [tmp_path / "report.csv.manifest.json"]:
        env = json.loads(path.read_text())["environment"]
        assert env.keys() == {"numpy", "blas", "blas_version", "DEPTHART_THREADS",
                              "cpus_usable", *cli.POOL_VARIABLES}, path
        assert env["numpy"] == np.__version__
        assert env["blas"] and env["blas_version"]
        assert env["DEPTHART_THREADS"] == os.environ.get("DEPTHART_THREADS")
        assert env["cpus_usable"] >= 1


THREADS_CHILD = """
import ctypes, json
from depthart import cli
import numpy as np
np.ones((64, 64)) @ np.ones((64, 64))
pool = None
try:
    libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
except OSError:
    libs = set()
for path in libs:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            pool = getattr(lib, name)()
print(json.dumps({"environment": cli._environment(), "blas_threads": pool}))
"""


@pytest.mark.parametrize("given, want", [
    ({"DEPTHART_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, {}),
    ({"DEPTHART_THREADS": "2", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "many",
      "MKL_NUM_THREADS": "0"}, {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, None),
], ids=["lowers", "keeps_smaller_replaces_invalid", "unset_caps_nothing"])
def test_depthart_threads_caps_every_pool_variable(given, want):
    # a fresh interpreter importing the CLI module: each pool variable ends
    # at the smaller of its own valid value and DEPTHART_THREADS, the run
    # manifest's environment records them, and numpy's OpenBLAS, where its
    # thread count can be read, runs that many threads (at most one per CPU)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in cli.POOL_VARIABLES and k != "DEPTHART_THREADS"}
    env |= given | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", THREADS_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    if want is None:  # no cap: the pool variables as given
        expected = {var: given.get(var) for var in cli.POOL_VARIABLES}
    else:
        expected = {var: given["DEPTHART_THREADS"] for var in cli.POOL_VARIABLES} | want
    env_out = out["environment"]
    assert {var: env_out[var] for var in cli.POOL_VARIABLES} == expected
    assert env_out["DEPTHART_THREADS"] == given.get("DEPTHART_THREADS")
    if out["blas_threads"] is not None:
        cpus = len(os.sched_getaffinity(0))
        assert out["blas_threads"] == min(int(expected["OPENBLAS_NUM_THREADS"]), cpus)


def test_eval_default_names_tell_runs_apart(workspace, tmp_path, capsys):
    reports = [tmp_path / "tf.csv", tmp_path / "da.csv"]
    for run, out in zip(("tf", "da"), reports):
        assert eval_run(workspace, run, out) == 0
    capsys.readouterr()
    assert cli.main(["rank"] + [str(p) for p in reports]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["tf/model", "da/model"]


def test_eval_decodes_each_chunk_once(workspace, tmp_path, monkeypatch, count_calls):
    monkeypatch.setattr(metrics, "EVAL_CHUNK", 1)  # two chunks of the two eval samples
    decodes = count_calls(metrics, "infer_batch")
    encodes = count_calls(VqModel, "image_tokens")
    assert cli.main(["eval", "--model", str(workspace / "tf" / "model.dart"),
                     "--vq", str(workspace / "vq" / "vqvae.dart"),
                     "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x.csv")]) == 0
    assert [a[2].shape[0] for a in decodes] == [1, 1]
    assert [a[1].shape[0] for a in encodes] == [1, 1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code(workspace, tmp_path):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text("regime=tf\nlr=1e18\nwd=1e-2\nbatch=4\nsteps=40\n"
                   "decay_period=10\ndecay_gamma=0.8\nseed=0\n"
                   f"data_dir={workspace / 'data'}\nout_dir={tmp_path / 'x'}\n")
    code = cli.main(["train-var", "--config", str(cfg),
                     "--vq", str(workspace / "vq" / "vqvae.dart")])
    assert code == 4
    assert (tmp_path / "x" / "loss.csv").exists()       # diagnostic retained
    assert (tmp_path / "x" / "ckpt_latest.dart").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_vqvae_divergence_keeps_loss_curve(workspace, tmp_path):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(f"lr=1e18\nbatch=4\nsteps=40\nseed=0\n"
                   f"data_dir={workspace / 'data'}\nout_dir={tmp_path / 'x'}\n")
    assert cli.main(["train-vqvae", "--config", str(cfg)]) == 4
    lines = (tmp_path / "x" / "vqvae_loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss,lr"
    assert [ln.split(",")[0] for ln in lines[1:]] == [str(i) for i in range(len(lines) - 1)]
    assert all(ln.endswith(",1e+18") for ln in lines[1:])
    assert (tmp_path / "x" / "vqvae_ckpt_latest.dart").exists()


def test_kill_leaves_loadable_checkpoint(workspace, tmp_path):
    cfg = tmp_path / "long.cfg"
    out = tmp_path / "killed"
    cfg.write_text("regime=tf\nlr=1e-3\nwd=1e-2\nbatch=4\nsteps=500\n"
                   "decay_period=100\ndecay_gamma=0.8\nseed=0\n"
                   f"data_dir={workspace / 'data'}\nout_dir={out}\n")
    # the child imports the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "depthart.cli", "train-var",
         "--config", str(cfg), "--vq", str(workspace / "vq" / "vqvae.dart")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    ckpt = out / "ckpt_latest.dart"
    deadline = time.time() + 120
    try:
        while time.time() < deadline:
            if ckpt.exists() and ckpt.stat().st_size > 0:
                break
            if proc.poll() is not None:
                pytest.fail("training process exited before checkpointing")
            time.sleep(0.2)
        else:
            pytest.fail("no checkpoint appeared in time")
        time.sleep(0.3)  # let any in-flight atomic rename settle
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
    model = VarModel.load(str(ckpt))
    assert model.config.schedule.sizes == ((1, 1), (2, 2), (4, 4), (8, 8))


def write_report(path, model, rows):
    """An eval CSV of ``model`` with (dataset, absrel, delta1_err, pe_fla,
    pe_ori) rows."""
    from depthart.metrics import DatasetRow
    report = MetricsReport(model, [DatasetRow(*r, scale=1.0) for r in rows])
    path.write_text(report.to_csv())
    return str(path)


def test_rank_prints_table_with_rank_column(tmp_path, capsys):
    a = write_report(tmp_path / "a.csv", "m1", [("d1", 0.1, 0.3, 2.0, 5.0),
                                               ("d2", 0.2, 0.4, 3.0, 6.0)])
    b = write_report(tmp_path / "b.csv", "m2", [("d1", 0.2, 0.2, 1.0, 9.0),
                                               ("d2", 0.1, 0.3, 2.0, 7.0)])
    c = write_report(tmp_path / "c.csv", "m3", [("d1", 0.3, 0.5, 4.0, 9.5),
                                               ("d2", 0.3, 0.5, 4.0, 9.5)])
    assert cli.main(["rank", a, b, c]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["model", "d1:absrel", "d1:delta1_err", "d1:pe_fla",
                                "d1:pe_ori", "d2:absrel", "d2:delta1_err",
                                "d2:pe_fla", "d2:pe_ori", "rank"]
    # m1: 1,2,2,1 on d1 and 2,2,2,1 on d2 -> 13/8; m2: 2,1,1,2 and
    # 1,1,1,2 -> 11/8; m3 is last in all eight cells
    assert [(cells[0], cells[-1]) for cells in map(str.split, lines[1:])] == \
        [("m1", "1.62"), ("m2", "1.38"), ("m3", "3.00")]
    assert lines[1].split()[1:5] == ["0.1000", "0.3000", "2.0000", "5.0000"]


@pytest.mark.parametrize("text", [
    "model,dataset,absrel\nm1,d1,0.1\n",                                   # header
    "model,dataset,absrel,delta1_err,pe_fla,pe_ori,scale\n",                 # no rows
    "model,dataset,absrel,delta1_err,pe_fla,pe_ori,scale\nm1,d1,0.1,0.2\n",  # short
    "model,dataset,absrel,delta1_err,pe_fla,pe_ori,scale\nm1,d1,x,1,1,1,1\n",
])
def test_rank_with_malformed_csv_is_a_data_error(tmp_path, capsys, text):
    good = write_report(tmp_path / "good.csv", "m1", [("d1", 0.1, 0.3, 2.0, 5.0)])
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert cli.main(["rank", good, str(bad)]) == 3
    assert "bad.csv" in capsys.readouterr().err


# faults applied to the bytes of a text input: a cut at half its length, a
# row of the wrong field count, a non-finite value, and another file (a
# sample checkpoint) in its place
TEXT_FAULTS = {
    "config": {"truncated": lambda raw: raw[:len(raw) // 2],
               "field_count": lambda raw: raw + b"bogus line\n",
               "non_finite": lambda raw: raw.replace(b"lr=2e-3", b"lr=inf"),
               "swapped": None},
    "manifest": {"truncated": lambda raw: raw[:len(raw) // 2],
                 "field_count": lambda raw: raw.replace(b".dart\n", b".dart\textra\n", 1),
                 "non_finite": lambda raw: raw.replace(b"eval\t", b"nan\t", 1),
                 "swapped": None},
    "eval_csv": {"truncated": lambda raw: raw[:len(raw) // 2],
                 "field_count": lambda raw: raw.replace(b",1.0\n", b"\n"),
                 "non_finite": lambda raw: raw.replace(b",0.1,", b",inf,"),
                 "swapped": None},
}


@pytest.mark.parametrize("fault", ["truncated", "field_count", "non_finite", "swapped"])
@pytest.mark.parametrize("kind", sorted(TEXT_FAULTS))
def test_a_malformed_text_input_names_the_file(workspace, tmp_path, capsys, kind,
                                               fault):
    # a trainer config, a dataset manifest or an eval CSV given to rank,
    # cut short, with a row of the wrong field count, with a non-finite
    # value, or swapped for a sample file, exits 2 (config) or 3 (data),
    # naming the file, with no traceback
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    cfg = tmp_path / "vq.cfg"
    cfg.write_text(f"lr=2e-3\nbatch=4\nsteps=4\nseed=0\n"
                   f"data_dir={data}\nout_dir={tmp_path / 'vq'}\n")
    good = write_report(tmp_path / "good.csv", "m1", [("d1", 0.2, 0.3, 2.0, 5.0)])
    report = write_report(tmp_path / "bad.csv", "m2", [("d1", 0.1, 0.3, 2.0, 5.0)])
    runs = {"config": (cfg, ["train-vqvae", "--config", str(cfg)]),
            "manifest": (data / "manifest.tsv",
                         ["eval", "--model", str(workspace / "tf" / "model.dart"),
                          "--vq", str(workspace / "vq" / "vqvae.dart"),
                          "--data", str(data), "--out", str(tmp_path / "x.csv")]),
            "eval_csv": (tmp_path / "bad.csv", ["rank", good, report])}
    path, argv = runs[kind]
    corrupt = TEXT_FAULTS[kind][fault]
    raw = path.read_bytes()
    path.write_bytes((data / "eval_00000.dart").read_bytes() if corrupt is None
                     else corrupt(raw))
    assert path.read_bytes() != raw
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == (2 if kind == "config" else 3), err
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "vq").exists() and not (tmp_path / "x.csv").exists()

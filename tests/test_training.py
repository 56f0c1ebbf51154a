import copy
import gc
import weakref

import numpy as np
import pytest

from depthart import tensor as T, training, var as var_mod
from depthart.optim import AdamW, step_lr
from depthart.tensor import Tensor
from depthart.training import (ConfigError, TrainConfig, depthart_step,
                               depthart_targets_batch, fit,
                               prepare_training_set, teacher_forcing_step)
from depthart.var import VarConfig, VarModel
from depthart.vq import (DivergenceError, ScaleSchedule, VqModel,
                         VqTrainConfig, train_vqvae)

import oracle
from synth import synth_samples

rng = np.random.default_rng(3)


@pytest.fixture(scope="module")
def trained_tiny_vq():
    samples = synth_samples(64, res=16, seed=10)
    from depthart.data import normalize_depth
    rasters = np.stack([normalize_depth(s.depth, s.mask) for s in samples])[:, None]
    masks = np.ones_like(rasters)
    model = VqModel(schedule=ScaleSchedule(((1, 1), (2, 2), (4, 4))),
                    codebook_size=12, emb_dim=4, raster=16, seed=1)
    model, curve = train_vqvae(rasters, masks,
                               VqTrainConfig(steps=400, warmup_steps=120,
                                             batch=8, lr=2e-3, seed=1),
                               model=model)
    return model


@pytest.fixture(scope="module")
def tiny_set(trained_tiny_vq):
    return prepare_training_set(trained_tiny_vq, synth_samples(8, res=16, seed=4))


def fresh_var(vq, seed=0):
    cfg = VarConfig(schedule=vq.schedule, vocab=vq.codebook.size,
                    emb_dim=vq.emb_dim, width=32, heads=2, blocks=2)
    return VarModel(cfg, seed=seed, codebook_init=vq.codebook.vectors)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_file_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("regime = tf\nlr=1e-4\nwd = 1e-2\nbatch=4\nsteps=100\n"
                 "decay_period=10\ndecay_gamma=0.8\nseed=3\n"
                 "data_dir=/data\nout_dir=/out\n# comment\n")
    cfg = TrainConfig.from_file(str(p))
    assert cfg.regime == "teacher_forcing"
    assert cfg.lr == 1e-4 and cfg.steps == 100 and cfg.seed == 3


def test_config_missing_key_named(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("regime=tf\nlr=1e-4\n")
    with pytest.raises(ConfigError, match="wd"):
        TrainConfig.from_file(str(p))


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("regime=tf\nlr=1e-4\nwd=1e-2\nbatch=4\nsteps=10\n"
                 "decay_period=5\ndecay_gamma=0.8\nseed=0\ndata_dir=a\n"
                 "out_dir=b\nbogus=1\n")
    with pytest.raises(ConfigError, match="bogus"):
        TrainConfig.from_file(str(p))


def test_config_validates_regime_and_positivity():
    with pytest.raises(ConfigError):
        TrainConfig(regime="nope")
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)


def test_step_lr_schedule():
    assert step_lr(1e-4, 0, 1000, 0.8) == 1e-4
    assert step_lr(1e-4, 999, 1000, 0.8) == 1e-4
    assert step_lr(1e-4, 1000, 1000, 0.8) == pytest.approx(0.8e-4)
    assert step_lr(1e-4, 2500, 1000, 0.8) == pytest.approx(0.64e-4)


def test_adamw_decoupled_decay():
    p = {"w": Tensor(np.array([10.0, -10.0], np.float32), requires_grad=True)}
    opt = AdamW(p, lr=0.1, weight_decay=0.5)
    p["w"].grad = np.zeros(2, np.float32)
    opt.step()
    # zero gradient: only the decay term moves the weights
    assert np.allclose(p["w"].data, [9.5, -9.5], atol=1e-6)


# ---------------------------------------------------------------------------
# refinement targets
# ---------------------------------------------------------------------------

def per_sample(z, b, schedule):
    """Sample b of the batched maps ``z``, as per-scale [h_k, w_k] grids."""
    return [zk[b].reshape(hw) for zk, hw in zip(z, schedule.sizes)]


def test_reduction_property_targets_equal_teacher(trained_tiny_vq):
    vq = trained_tiny_vq
    f = np.stack([np.random.default_rng(seed).standard_normal(
        (vq.emb_dim,) + vq.schedule.latent) for seed in range(10)]).astype(np.float32)
    teacher = vq.decompose_batch(f)
    targets = depthart_targets_batch(teacher, f, vq)
    for t, x in zip(targets, teacher):
        assert np.array_equal(t, x)


def test_targets_single_scale_ignores_z():
    vq = VqModel(schedule=ScaleSchedule(((4, 4),)), codebook_size=8,
                 emb_dim=3, raster=16, seed=2)
    f = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
    ta = depthart_targets_batch([np.zeros((1, 16), np.int32)], f, vq)
    tb = depthart_targets_batch([np.full((1, 16), 5, np.int32)], f, vq)
    assert np.array_equal(ta[0], tb[0])
    assert np.array_equal(ta[0], vq.nearest_batch(
        T.resize_bilinear(Tensor(f), (4, 4)).data, (4, 4)))


def test_targets_match_straightline_oracle(trained_tiny_vq):
    vq = trained_tiny_vq
    r = np.random.default_rng(8)
    f = r.standard_normal((3, vq.emb_dim) + vq.schedule.latent).astype(np.float32)
    z = [r.integers(0, vq.codebook.size, (3, n)) for n in vq.schedule.tokens_per_scale()]
    got = depthart_targets_batch(z, f, vq)
    for b in range(3):
        want = oracle.depthart_targets(per_sample(z, b, vq.schedule), f[b], vq)
        for k, w in enumerate(want):
            assert np.array_equal(got[k][b], w.reshape(-1))


def test_targets_batch_matches_single(trained_tiny_vq, tiny_set):
    # row b of a batch equals the batch of one holding sample b, and both
    # equal the straight-line recursion
    vq = trained_tiny_vq
    z = [t.copy() for t in tiny_set.teacher]
    z[1] = (z[1] + 3) % vq.codebook.size
    batched = depthart_targets_batch(z, tiny_set.f_depth, vq)
    for b in range(4):
        singles = depthart_targets_batch([zk[b:b + 1] for zk in z],
                                         tiny_set.f_depth[b:b + 1], vq)
        want = oracle.depthart_targets(per_sample(z, b, vq.schedule),
                                       tiny_set.f_depth[b], vq)
        for k, t in enumerate(singles):
            assert np.array_equal(batched[k][b], t[0])
            assert np.array_equal(t[0], want[k].reshape(-1))


def test_target_validity(trained_tiny_vq, tiny_set):
    z = [np.zeros_like(t) for t in tiny_set.teacher]
    targets = depthart_targets_batch(z, tiny_set.f_depth, trained_tiny_vq)
    for t in targets:
        assert t.min() >= 0 and t.max() < trained_tiny_vq.codebook.size


# ---------------------------------------------------------------------------
# regime steps
# ---------------------------------------------------------------------------

def test_loss_additivity(trained_tiny_vq, tiny_set):
    vq = trained_tiny_vq
    model = fresh_var(vq, seed=7)
    batch = tiny_set.batch(np.arange(4))
    k_total = len(vq.schedule)
    feats = var_mod.depth_input_features(model, vq, batch.teacher[:k_total - 1],
                                         k_total)
    seq = var_mod.embed_sequence(model, batch.image_tokens, feats)
    logits = var_mod.forward(model, seq, model.attention_mask(k_total))
    total = training._scale_loss([T.slice_axis(logits, 1, lo, hi)
                                  for lo, hi in model.depth_slices(k_total)],
                                 batch.teacher).item()
    parts = 0.0
    for (lo, hi), tgt in zip(model.depth_slices(k_total), batch.teacher):
        block = logits.data[:, lo:hi, :].reshape(-1, model.config.vocab)
        parts += T.softmax_cross_entropy(Tensor(block), tgt.reshape(-1)).item()
    assert total == pytest.approx(parts, abs=1e-6)


def test_one_hot_margin_loss_near_zero(trained_tiny_vq, tiny_set):
    # synthetic logits that already pick the teacher with margin 20
    vq = trained_tiny_vq
    model = fresh_var(vq, seed=8)
    batch = tiny_set.batch(np.arange(2))
    n_depth = sum(vq.schedule.tokens_per_scale())
    logits = np.zeros((2, n_depth, model.config.vocab), np.float32)
    flat_targets = np.concatenate([t.reshape(2, -1) for t in batch.teacher], axis=1)
    for b in range(2):
        logits[b, np.arange(n_depth), flat_targets[b]] = 20.0
    loss = training._scale_loss([Tensor(logits[:, lo:hi]) for lo, hi
                                 in model.depth_slices(len(batch.teacher))],
                                batch.teacher)
    assert loss.item() < 1e-6


def test_teacher_forcing_single_forward_per_batch(trained_tiny_vq, tiny_set,
                                                  count_calls):
    model = fresh_var(trained_tiny_vq, seed=9)
    opt = AdamW(model.params, lr=1e-4, weight_decay=1e-2)
    calls = count_calls(training, "forward")
    teacher_forcing_step(model, trained_tiny_vq, tiny_set.batch(np.arange(4)), opt)
    assert len(calls) == 1


def test_depthart_equals_teacher_forcing_when_predictions_match(
        trained_tiny_vq, tiny_set, monkeypatch):
    vq = trained_tiny_vq
    batch = tiny_set.batch(np.arange(4))
    model_a = fresh_var(vq, seed=11)
    model_b = fresh_var(vq, seed=11)
    loss_tf = teacher_forcing_step(model_a, vq, batch,
                                   AdamW(model_a.params, lr=1e-4))
    # force each decode round's pick to that scale of the teacher decomposition
    picks = iter(batch.teacher)
    monkeypatch.setattr(var_mod, "_greedy", lambda logits: next(picks).copy())
    loss_da = depthart_step(model_b, vq, batch, AdamW(model_b.params, lr=1e-4))
    assert next(picks, None) is None
    assert loss_da == loss_tf  # bitwise: same inputs, same targets, same math


def record_targets(monkeypatch):
    """Wrap ``training.depthart_targets_batch`` for the test; returns the
    list each call appends a dict of its ``predictions`` and ``targets`` to."""
    calls = []
    targets_batch = training.depthart_targets_batch

    def recording(z_idx, f_depth, vq):
        targets = targets_batch(z_idx, f_depth, vq)
        calls.append({"predictions": [z.copy() for z in z_idx],
                      "targets": [t.copy() for t in targets]})
        return targets

    monkeypatch.setattr(training, "depthart_targets_batch", recording)
    return calls


def test_no_step_or_decode_slices_a_parameter(trained_tiny_vq, tiny_set, count_calls):
    # each parameter is stored as the op that reads it takes it, so neither
    # step nor an untaped decode carves one apart per call
    vq = trained_tiny_vq
    model = fresh_var(vq, seed=17)
    batch = tiny_set.batch(np.arange(4))
    params = [id(p) for p in model.params.values()]
    calls = count_calls(T, "slice_axis")
    opt = AdamW(model.params, lr=1e-4)
    teacher_forcing_step(model, vq, batch, opt)
    depthart_step(model, vq, batch, opt)
    var_mod.infer_batch(model, vq, batch.image_tokens)
    assert calls  # activations are still sliced
    assert [a[0] for a in calls if id(a[0]) in params] == []


def test_depthart_targets_are_dynamic(trained_tiny_vq, tiny_set, monkeypatch):
    vq = trained_tiny_vq
    model = fresh_var(vq, seed=12)
    opt = AdamW(model.params, lr=5e-3)
    batch = tiny_set.batch(np.arange(4))
    calls = record_targets(monkeypatch)
    depthart_step(model, vq, batch, opt)
    depthart_step(model, vq, batch, opt)
    d1, d2 = calls
    changed = any(not np.array_equal(a, b)
                  for a, b in zip(d1["targets"], d2["targets"]))
    assert changed, "targets should track the model between steps"


def test_exposure_alignment_step_predictions_match_inference(
        trained_tiny_vq, tiny_set, monkeypatch):
    # the taped decode of a step predicts what untaped inference predicts on
    # the same weights, and the loss is taken on the logits it picked from
    vq = trained_tiny_vq
    model = fresh_var(vq, seed=13)
    batch = tiny_set.batch(np.arange(4))
    expected = var_mod.infer_batch(model, vq, batch.image_tokens)
    seen = []
    scale_loss = training._scale_loss

    def recording(blocks, targets):
        seen.append(np.concatenate([b.data for b in blocks], axis=1))
        return scale_loss(blocks, targets)

    monkeypatch.setattr(training, "_scale_loss", recording)
    calls = record_targets(monkeypatch)
    depthart_step(model, vq, batch, AdamW(model.params, lr=1e-4))
    (diags,) = calls
    assert len(seen) == 1
    k = len(vq.schedule)
    for (lo, hi), z, pred in zip(model.depth_slices(k), expected,
                                 diags["predictions"]):
        assert np.array_equal(pred, z)
        assert np.array_equal(seen[0][:, lo:hi].argmax(axis=-1), z)


def test_depthart_step_matches_two_pass_oracle(trained_tiny_vq, tiny_set):
    # one taped pass equals untaped decoding plus a full masked taped forward;
    # cached attention sums softmax over the visible keys only and gradients
    # reach earlier rounds' rows in another order, hence the tolerances
    vq = trained_tiny_vq
    model = fresh_var(vq, seed=16)
    batch = tiny_set.batch(np.arange(4))
    loss_ref, grads_ref = oracle.depthart_two_pass(model, vq, batch)

    class Capture:
        def step(self, lr=None):
            self.grads = {name: p.grad for name, p in model.params.items()}
            for p in model.params.values():
                p.grad = None

    opt = Capture()
    loss = depthart_step(model, vq, batch, opt)
    assert loss == pytest.approx(loss_ref, rel=1e-6)
    assert opt.grads.keys() == grads_ref.keys()
    for name, g in opt.grads.items():
        assert g is not None and grads_ref[name] is not None, name
        scale = np.abs(grads_ref[name]).max()
        assert np.abs(g - grads_ref[name]).max() <= 1e-5 * scale + 1e-8, name


def test_steps_free_their_graph_without_the_cyclic_collector(
        trained_tiny_vq, tiny_set, monkeypatch):
    """Every activation of a step dies by reference counting once the step
    returns: the tape must not keep a cycle through its records."""
    outputs = []
    gelu = T.gelu

    def spy(x):
        out = gelu(x)
        outputs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "gelu", spy)
    vq = trained_tiny_vq
    model = fresh_var(vq, seed=15)
    opt = AdamW(model.params, lr=1e-4)
    batch = tiny_set.batch(np.arange(4))
    samples = synth_samples(8, res=16, seed=42)
    from depthart.data import normalize_depth
    rasters = np.stack([normalize_depth(s.depth, s.mask) for s in samples])[:, None]
    steps = {
        "teacher_forcing_step": lambda: teacher_forcing_step(model, vq, batch, opt),
        "depthart_step": lambda: depthart_step(model, vq, batch, opt),
        "train_vqvae": lambda: train_vqvae(
            rasters, np.ones_like(rasters),
            VqTrainConfig(steps=2, warmup_steps=1, batch=4, seed=2),
            model=VqModel(schedule=vq.schedule, codebook_size=12, emb_dim=4,
                          raster=16, seed=2)),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, step in steps.items():
            outputs.clear()
            step()
            alive = sum(ref() is not None for ref in outputs)
            assert outputs and alive == 0, \
                f"{name}: {alive} of {len(outputs)} gelu outputs still alive"
    finally:
        if enabled:
            gc.enable()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_abort(trained_tiny_vq, tiny_set):
    model = fresh_var(trained_tiny_vq, seed=14)
    model.params["head_w"].data[:] = np.nan
    with pytest.raises(DivergenceError):
        teacher_forcing_step(model, trained_tiny_vq, tiny_set.batch(np.arange(2)),
                             AdamW(model.params))


# ---------------------------------------------------------------------------
# overfit runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def overfit_cfg():
    return TrainConfig(regime="teacher_forcing", lr=3e-3, wd=1e-2, batch=8,
                       steps=200, decay_period=1000, decay_gamma=0.8, seed=0)


def test_teacher_forcing_overfits(trained_tiny_vq, tiny_set, overfit_cfg):
    model = fresh_var(trained_tiny_vq, seed=20)
    _, curve, _ = fit(model, trained_tiny_vq, tiny_set, overfit_cfg)
    first = np.mean([l for _, l, _ in curve[:10]])
    last = np.mean([l for _, l, _ in curve[-10:]])
    assert last < 0.5 * first


def test_depthart_overfits(trained_tiny_vq, tiny_set, overfit_cfg):
    cfg = copy.replace(overfit_cfg, regime="depthart") if hasattr(copy, "replace") \
        else TrainConfig(**{**overfit_cfg.__dict__, "regime": "depthart"})
    model = fresh_var(trained_tiny_vq, seed=20)
    _, curve, _ = fit(model, trained_tiny_vq, tiny_set, cfg)
    first = np.mean([l for _, l, _ in curve[:10]])
    last = np.mean([l for _, l, _ in curve[-10:]])
    assert last < first


def test_overfit_infer_reproduces_teacher(trained_tiny_vq, tiny_set):
    cfg = TrainConfig(regime="teacher_forcing", lr=3e-3, wd=1e-2, batch=8,
                      steps=600, decay_period=1000, decay_gamma=0.8, seed=1)
    model = fresh_var(trained_tiny_vq, seed=21)
    fit(model, trained_tiny_vq, tiny_set, cfg)
    preds = var_mod.infer_batch(model, trained_tiny_vq, tiny_set.image_tokens)
    final = len(trained_tiny_vq.schedule) - 1
    agree = (preds[final] == tiny_set.teacher[final]).mean()
    assert agree >= 0.9


def test_fit_deterministic_same_seed(trained_tiny_vq, tiny_set):
    cfg = TrainConfig(regime="teacher_forcing", lr=1e-3, wd=1e-2, batch=4,
                      steps=30, decay_period=10, decay_gamma=0.8, seed=5)
    losses = []
    for _ in range(2):
        model = fresh_var(trained_tiny_vq, seed=30)
        _, curve, _ = fit(model, trained_tiny_vq, tiny_set, cfg)
        losses.append(curve[-1][1])
    assert losses[0] == losses[1]


def test_fit_regime_flag_switches_step_fn(trained_tiny_vq, tiny_set, monkeypatch):
    calls = {"teacher_forcing": 0, "depthart": 0}

    def wrap(name, fn):
        def inner(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return inner

    monkeypatch.setitem(training.STEP_FNS, "teacher_forcing",
                        wrap("teacher_forcing", teacher_forcing_step))
    monkeypatch.setitem(training.STEP_FNS, "depthart",
                        wrap("depthart", depthart_step))
    base = dict(lr=1e-3, wd=1e-2, batch=4, steps=3, decay_period=10,
                decay_gamma=0.8, seed=0)
    fit(fresh_var(trained_tiny_vq, 1), trained_tiny_vq, tiny_set,
        TrainConfig(regime="teacher_forcing", **base))
    fit(fresh_var(trained_tiny_vq, 1), trained_tiny_vq, tiny_set,
        TrainConfig(regime="depthart", **base))
    assert calls == {"teacher_forcing": 3, "depthart": 3}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_writes_outputs_and_divergence_keeps_checkpoint(
        trained_tiny_vq, tiny_set, tmp_path):
    out = tmp_path / "run"
    cfg = TrainConfig(regime="teacher_forcing", lr=1e-3, wd=1e-2, batch=4,
                      steps=25, decay_period=10, decay_gamma=0.8, seed=2,
                      out_dir=str(out))
    model = fresh_var(trained_tiny_vq, seed=31)
    fit(model, trained_tiny_vq, tiny_set, cfg)
    assert (out / "model.dart").exists()
    assert (out / "ckpt_latest.dart").exists()
    assert (out / "loss.csv").read_text().startswith("step,loss,lr")
    # divergence: keeps the periodic checkpoint and the partial curve
    out2 = tmp_path / "diverge"
    cfg2 = TrainConfig(regime="teacher_forcing", lr=1e18, wd=1e-2, batch=4,
                       steps=40, decay_period=10, decay_gamma=0.8, seed=2,
                       out_dir=str(out2))
    model2 = fresh_var(trained_tiny_vq, seed=32)
    with pytest.raises(DivergenceError):
        fit(model2, trained_tiny_vq, tiny_set, cfg2)
    assert (out2 / "loss.csv").exists()
    from depthart.var import VarModel as VM
    assert (out2 / "ckpt_latest.dart").exists()
    VM.load(str(out2 / "ckpt_latest.dart"))  # loadable


# ---------------------------------------------------------------------------
# vq training sanity
# ---------------------------------------------------------------------------

def test_vqvae_training_improves_and_uses_codebook(trained_tiny_vq):
    samples = synth_samples(32, res=16, seed=40)
    from depthart.data import normalize_depth
    rasters = np.stack([normalize_depth(s.depth, s.mask) for s in samples])[:, None]
    feats = trained_tiny_vq.encode_batch(rasters)
    used = set()
    for idx in trained_tiny_vq.decompose_batch(feats):
        used.update(np.unique(idx).tolist())
    assert len(used) >= trained_tiny_vq.codebook.size // 2
    assert oracle.min_pairwise_distance(trained_tiny_vq.codebook.vectors) > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_vqvae_divergence_aborts():
    samples = synth_samples(8, res=16, seed=41)
    from depthart.data import normalize_depth
    rasters = np.stack([normalize_depth(s.depth, s.mask) for s in samples])[:, None]
    masks = np.ones_like(rasters)
    model = VqModel(schedule=ScaleSchedule(((1, 1), (2, 2), (4, 4))),
                    codebook_size=12, emb_dim=4, raster=16, seed=3)
    with pytest.raises(DivergenceError):
        train_vqvae(rasters, masks,
                    VqTrainConfig(steps=60, warmup_steps=10, batch=4,
                                  lr=1e18, seed=3), model=model)

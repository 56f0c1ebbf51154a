"""Set-up, measured loops and output checks of the benchmark workloads.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned. An op is one optimizer step (training
workloads) or one eval batch (``eval``). README.md says why each workload
exists and defines every number this module produces.

Python's garbage collector is left at its defaults and never invoked
here: the autograd tape holds a reference cycle (``Tensor._tape`` <->
``Tape.records``), so a step's activations live until the cyclic collector
runs. Collecting by hand would hide that cost from ``peak_rss_mb`` and
``step_ms_p90``; pauses are only observed through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from depthart import (checkpoint, cli, data, metrics, optim, tensor, training,
                      var, vq as vq_mod)

import tracer

WORKLOADS = ("train_tf", "train_depthart", "eval", "train_vqvae")
REGIMES = {"train_tf": "teacher_forcing", "train_depthart": "depthart"}
MODULES = {"data": data, "vq": vq_mod, "var": var, "training": training,
           "tensor": tensor, "optim": optim, "metrics": metrics,
           "checkpoint": checkpoint, "cli": cli}


@dataclass(frozen=True)
class Plan:
    """Input sizes of one run. ``FULL`` is the benchmark; ``SMOKE`` only
    exercises the harness."""

    n_train: int = 64              # rendered training scenes
    n_eval: int = 64               # rendered held-out scenes
    vq_setup_steps: int = 20       # train_vqvae steps that build the set-up VQ
    vq_setup_warmup: int = 15      # of which plain-autoencoder warm-up
    warm_steps: int = 6            # teacher-forcing steps given to the eval model
    fit_steps: int = 20            # steps per training run (train_tf, train_depthart)
    vq_steps: int = 20             # steps per train_vqvae run
    eval_batch: int = 8            # scenes per eval op
    setup_repeats: int = 3         # set-ups per run; setup_s is their median
    min_ops: int = 100             # ops the untraced run needs: p90 keeps 10 beyond it
    var_config: dict = field(default_factory=dict)   # VarConfig overrides
    # seconds per op at the seed on the reference machine (2 vCPUs, 2 BLAS
    # threads); --seconds / op_seconds fixes how many ops a run does
    op_seconds: dict = field(default_factory=lambda: {
        "train_tf": 0.09, "train_depthart": 0.125, "eval": 0.075, "train_vqvae": 0.07})


FULL = Plan()
SMOKE = Plan(n_train=8, n_eval=4, vq_setup_steps=10, vq_setup_warmup=8, warm_steps=2,
             fit_steps=3, vq_steps=3, eval_batch=2, setup_repeats=2, min_ops=1,
             var_config={"width": 32, "heads": 2, "blocks": 1},
             op_seconds=dict.fromkeys(WORKLOADS, 0.25))

# The set-up VQ is trained on its own scenes with its own seed, the same for
# every --seed, like a shipped tokenizer checkpoint: --seed varies the scenes a
# workload trains on and evaluates, not the tokenizer. A 20-step VQ trained
# per seed used between 19 % and 47 % of its codebook, and absrel and
# final_loss then spread across seeds by more than any allowed bound. Its
# warm-up is long so the decoder learns the depth range before quantisation;
# with the train-vqvae command's steps // 10, about half the decoded pixels
# came out non-positive and absrel sat near its clamp floor of 1.
VQ_SEED = 1_000_000


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def vq_inputs(samples):
    """Normalized rasters and masks, as the train-vqvae command builds them."""
    rasters = np.stack([data.normalize_depth(s.depth, s.mask) for s in samples])[:, None]
    masks = np.stack([s.mask for s in samples])[:, None].astype(np.float32)
    return rasters, masks


def new_var(vq, seed: int, plan: Plan):
    cfg = var.VarConfig(schedule=vq.schedule, vocab=vq.codebook.size,
                        emb_dim=vq.emb_dim, **plan.var_config)
    return var.VarModel(cfg, seed=seed, codebook_init=vq.codebook.vectors)


def gen_data(out: str, n_train: int, n_eval: int, seed: int):
    """Render scenes with the gen-data command; returns the training split."""
    rc = cli.main(["gen-data", "--out", out, "--train", str(n_train),
                   "--eval", str(n_eval), "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"gen-data exited with {rc}")
    return data.load_manifest(out, "train")


def set_up(workload: str, seed: int, plan: Plan, workdir: str) -> None:
    """Write what the measured process loads into ``workdir``: the seed's
    scenes rendered by the gen-data command, a VQ from a short train_vqvae
    on scenes of ``VQ_SEED`` (train_vqvae trains its own instead), and for
    eval a transformer given a few teacher-forcing steps on those same
    scenes, so eval judges one fixed model on the seed's held-out scenes.
    Training workloads also encode their training set here, so that cost
    shows in setup_s."""
    train = gen_data(os.path.join(workdir, "data"), plan.n_train, plan.n_eval, seed)
    if workload == "train_vqvae":
        vq_inputs(train)
        return
    vq_train = gen_data(os.path.join(workdir, "vq_data"), plan.n_train, 1, VQ_SEED)
    rasters, masks = vq_inputs(vq_train)
    vq, _ = vq_mod.train_vqvae(rasters, masks, vq_mod.VqTrainConfig(
        steps=plan.vq_setup_steps, warmup_steps=plan.vq_setup_warmup, seed=VQ_SEED))
    vq.save(os.path.join(workdir, "vq.dart"))
    if workload == "eval":
        training.fit(new_var(vq, VQ_SEED, plan), vq, vq_train, training.TrainConfig(
            regime="teacher_forcing", steps=plan.warm_steps, seed=VQ_SEED,
            out_dir=os.path.join(workdir, "warm")))
    else:
        training.prepare_training_set(vq, train)


# --------------------------------------------------------------------------
# op log, probes and checks
# --------------------------------------------------------------------------


class OpLog:
    """Start and end of every op, and which ops failed."""

    def __init__(self):
        self.ops: list[tuple[float, float]] = []
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self._start = 0.0

    def begin(self) -> None:
        self._start = time.perf_counter()

    def end(self) -> None:
        t = time.perf_counter()
        self.ops.append((self._start, t))
        self._start = t

    def fail(self, index: int | None = None) -> None:
        """Mark an op failed; by default the one in progress."""
        self.failed.add(len(self.ops) if index is None else index)


class GcLog:
    """Collector pauses seen through gc.callbacks: (start, end, generation)."""

    def __init__(self):
        self.events: list[tuple[float, float, int]] = []
        self._t = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._t = time.perf_counter()
        else:
            self.events.append((self._t, time.perf_counter(), info["generation"]))


def tokens_valid(z, model, batch: int) -> bool:
    """Predictions hold one [B, n_k] integer map per scale, all in [0, vocab)."""
    sizes = model.config.schedule.tokens_per_scale()
    if len(z) != len(sizes):
        return False
    for zk, n in zip(z, sizes):
        zk = np.asarray(zk)
        if zk.shape != (batch, n) or not np.issubdtype(zk.dtype, np.integer):
            return False
        if zk.min() < 0 or zk.max() >= model.config.vocab:
            return False
    return True


def install_probes(patches: tracer.Patches, log: OpLog) -> None:
    """The only code the untraced run adds around depthart: a clock at the
    end of every optimizer step, and a check on every greedy decode."""
    step = optim.AdamW.__dict__["step"]

    @functools.wraps(step)
    def timed_step(self, *args, **kwargs):
        out = step(self, *args, **kwargs)
        log.end()
        return out

    patches.set(optim.AdamW, "step", timed_step)
    infer = var.infer_batch

    @functools.wraps(infer)
    def checked_infer(model, vq, img_tokens, *args, **kwargs):
        z = infer(model, vq, img_tokens, *args, **kwargs)
        if not tokens_valid(z, model, img_tokens.shape[0]):
            log.fail()
        return z

    patches.rebind(list(MODULES.values()), infer, checked_infer)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


# --------------------------------------------------------------------------
# measured loops
# --------------------------------------------------------------------------


class Run:
    """One measured process: loaded inputs, the op log and run results."""

    def __init__(self, spec: dict):
        self.workload = spec["workload"]
        self.seed = spec["seed"]
        self.plan = Plan(**spec["plan"])
        self.artifacts = spec["artifacts"]
        self.workdir = spec["workdir"]
        self.seconds = spec["seconds"]
        self.min_ops = spec["min_ops"]
        self.log = OpLog()
        self.samples = 0
        self.busy_s = 0.0
        self.final_losses: list[float] = []
        self.trained: list = []         # first trained model; every VQ for train_vqvae
        self.eval_absrel: dict[int, float] = {}
        self.model = None
        self.vq = None
        self.stale: list[str] = []      # bindings a tracer found changed on uninstall

    def load(self) -> None:
        data_dir = os.path.join(self.artifacts, "data")
        self.train = data.load_manifest(data_dir, "train")
        self.held_out = data.load_manifest(data_dir, "eval")
        if self.workload == "train_vqvae":
            self.rasters, self.masks = vq_inputs(self.train)
            return
        self.vq = vq_mod.VqModel.load(os.path.join(self.artifacts, "vq.dart"))
        if self.workload == "eval":
            self.model = var.VarModel.load(os.path.join(self.artifacts, "warm", "model.dart"))
        else:
            self.training_set = training.prepare_training_set(self.vq, self.train)

    # -- one op or one training run ----------------------------------------

    def run_seed(self) -> int:
        """Seed of the next training run. Runs differ in initialisation and
        batch order, so quality numbers cover several independent runs."""
        return self.seed * 1000 + len(self.final_losses)

    def _keep(self, model, tail: float) -> None:
        if not self.trained or self.workload == "train_vqvae":
            self.trained.append(model)
        self.final_losses.append(tail)

    def _fit_run(self, steps: int, out_dir: str) -> None:
        seed = self.run_seed()
        model = new_var(self.vq, seed, self.plan)
        cfg = training.TrainConfig(regime=REGIMES[self.workload], steps=steps,
                                   seed=seed, out_dir=out_dir)
        first = len(self.log.ops)
        self.log.begin()
        t0 = time.perf_counter()
        try:
            model, curve, _ = training.fit(model, self.vq, self.training_set, cfg)
        except Exception:           # the failing step counts; the next run starts fresh
            self._failed_op()
            curve = []
        self.busy_s += time.perf_counter() - t0
        for i, (_, loss, _) in enumerate(curve):
            if not math.isfinite(loss):
                self.log.fail(first + i)
        if curve and not os.path.isfile(os.path.join(out_dir, "model.dart")):
            self.log.fail(len(self.log.ops) - 1)
        self._count(first, cfg.batch)
        if curve:
            self._keep(model, _last_tenth(l for _, l, _ in curve))

    def _vq_run(self, steps: int, out_dir: str) -> None:
        cfg = vq_mod.VqTrainConfig(steps=steps, warmup_steps=max(1, steps // 10),
                                   seed=self.run_seed())
        os.makedirs(out_dir, exist_ok=True)
        first = len(self.log.ops)
        self.log.begin()
        t0 = time.perf_counter()
        try:
            model, curve = vq_mod.train_vqvae(self.rasters, self.masks, cfg, out_dir=out_dir)
            model.save(os.path.join(out_dir, "vqvae.dart"))
        except Exception:
            self._failed_op()
            curve = []
        self.busy_s += time.perf_counter() - t0
        if curve and not (_finite(model.codebook.vectors)
                          and all(_finite(p.data) for p in model.params.values())):
            self.log.fail(len(self.log.ops) - 1)
        self._count(first, min(cfg.batch, len(self.rasters)))
        if curve:
            self._keep(model, _last_tenth(l for _, l in curve))

    def _eval_op(self, index: int, batches: list) -> None:
        part = batches[index % len(batches)]
        self.log.begin()
        t0 = time.perf_counter()
        try:
            preds = metrics.predict_depth_rasters(self.model, self.vq, part)
            report = metrics.evaluate_rasters(preds, part, "bench", "eval")
        except Exception:
            self._failed_op()
            return
        self.log.end()
        self.busy_s += time.perf_counter() - t0
        shape = part[0].depth.shape
        row = report.rows[0]
        if (len(preds) != len(part) or any(p.shape != shape or not _finite(p) for p in preds)
                or not math.isfinite(row.absrel)):
            self.log.fail(len(self.log.ops) - 1)
        self._count(len(self.log.ops) - 1, len(part))
        self.eval_absrel[index % len(batches)] = row.absrel

    def _failed_op(self) -> None:
        self.log.errors.append(traceback.format_exc(limit=8))
        self.log.fail()
        self.log.end()

    def _count(self, first: int, per_op: int) -> None:
        self.samples += per_op * sum(1 for i in range(first, len(self.log.ops))
                                     if i not in self.log.failed)

    # -- phases -------------------------------------------------------------

    def warm_up(self) -> None:
        """One untimed unit of work: fills caches, finishes lazy set-up and
        grows the heap, which made the first timed run slower than the rest."""
        out = os.path.join(self.workdir, "warm")
        if self.workload in REGIMES:
            self._fit_run(self.plan.fit_steps, out)
        elif self.workload == "train_vqvae":
            self._vq_run(self.plan.vq_steps, out)
        else:
            batches = self._eval_batches()
            for b in range(len(batches)):
                self._eval_op(b, batches)
        self._reset()

    def _reset(self) -> None:
        self.log = OpLog()
        self.samples, self.busy_s = 0, 0.0
        self.final_losses, self.trained, self.eval_absrel = [], [], {}

    def _eval_batches(self) -> list:
        b = self.plan.eval_batch
        return [self.held_out[i:i + b] for i in range(0, len(self.held_out) - b + 1, b)]

    def measure(self, tr: tracer.Tracer | None = None) -> list[int]:
        """Run the ops that take ``seconds`` at the reference speed, and at
        least ``min_ops`` ops. The work is fixed rather than the time, so
        every run at a seed allocates and collects the same way and peak
        RSS and the step-time tail compare across runs. A run stops early
        only past four times ``seconds``.

        Work comes in units: a training run, or one pass over the eval
        batches. With a tracer, half the units are traced, in the order
        untraced, traced, traced, untraced, ..., so traced and untraced ops
        share one process and time window and drift cancels. Returns the
        indices of the traced ops."""
        out = os.path.join(self.workdir, "run")
        batches = self._eval_batches()
        ops = max(self.min_ops, round(self.seconds / self.plan.op_seconds[self.workload]))
        per_unit = {"eval": len(batches), "train_vqvae": self.plan.vq_steps}.get(
            self.workload, self.plan.fit_steps)
        traced_ops: list[int] = []
        t0 = time.perf_counter()
        for index in range(math.ceil(ops / per_unit)):
            if time.perf_counter() - t0 > 4 * self.seconds:
                break
            traced = tr is not None and index % 4 in (1, 2)
            first = len(self.log.ops)
            if traced:
                tr.install()
            try:
                if self.workload in REGIMES:
                    self._fit_run(self.plan.fit_steps, out)
                elif self.workload == "train_vqvae":
                    self._vq_run(self.plan.vq_steps, out)
                else:
                    for b in range(len(batches)):
                        self._eval_op(b, batches)
            finally:
                if traced:
                    self.stale += tr.uninstall()
            if traced:
                traced_ops.extend(range(first, len(self.log.ops)))
        self.checkpoint_path = (os.path.join(out, "vqvae.dart") if self.workload == "train_vqvae"
                                else os.path.join(self.artifacts, "warm", "model.dart")
                                if self.workload == "eval" else os.path.join(out, "model.dart"))
        return traced_ops

    # -- quality and invariants (outside the timed region) ------------------

    def quality(self) -> dict:
        """final_loss: mean over training runs of each run's last-tenth loss;
        eval: the held-out teacher-forcing loss of its model. absrel: eval
        over its batches; train_vqvae mean over runs of the trained VQ's
        reconstruction; train_tf/train_depthart the set-up VQ's
        reconstruction, the floor their transformer trains toward. A
        transformer trained for 20-40 steps is no absrel to bound: across
        runs at one seed its AbsRel jumped between 0.37 and 0.86."""
        if self.workload == "train_vqvae":
            vq = self.trained[0]
            absrels = [reconstruction_absrel(m, self.held_out) for m in self.trained]
            model = new_var(vq, self.seed, self.plan)
        elif self.workload == "eval":
            vq, model = self.vq, self.model
            absrels = list(self.eval_absrel.values())
            self.final_losses = [held_out_loss(model, vq, self.held_out)]
        else:
            vq, model = self.vq, self.trained[0]
            absrels = [reconstruction_absrel(vq, self.held_out)]
        teacher = training.prepare_training_set(vq, self.held_out).teacher
        used = np.unique(np.concatenate([t.reshape(-1) for t in teacher])).size
        return {"final_loss": _mean(self.final_losses), "absrel": _mean(absrels),
                "run_final_loss": self.final_losses, "run_absrel": absrels,
                "codebook_used_frac": used / vq.codebook.size,
                "invariants": invariants(model, vq, self.held_out[:4])}


def _last_tenth(losses) -> float:
    losses = list(losses)
    tail = losses[-max(1, len(losses) // 10):]
    return float(sum(tail) / len(tail))


def _mean(values) -> float:
    return sum(values) / len(values) if values else float("nan")


def reconstruction_absrel(vq, samples) -> float:
    """AbsRel of the autoencoder alone: encode the ground truth, decompose,
    compose, decode."""
    rasters, _ = vq_inputs(samples)
    feats = vq.encode_batch(rasters)
    dec = vq.decode_batch(vq.compose_batch(vq.decompose_batch(feats)))[:, 0]
    preds = [data.denormalize_depth(dec[i], data.depth_p98(s.depth, s.mask))
             for i, s in enumerate(samples)]
    return metrics.evaluate_rasters(preds, samples, "bench", "held-out").rows[0].absrel


def _teacher_logits(model, vq, image_tokens, maps):
    k = len(vq.schedule)
    feats = var.depth_input_features(model, vq, maps[:k - 1], k)
    seq = var.embed_sequence(model, image_tokens, feats)
    return var.forward(model, seq, model.attention_mask(k)).data


def held_out_loss(model, vq, samples) -> float:
    """Teacher-forcing loss on held-out scenes: per scale the mean token
    cross entropy, summed over scales (the training loss definition)."""
    ts = training.prepare_training_set(vq, samples)
    logits = _teacher_logits(model, vq, ts.image_tokens, ts.teacher).astype(np.float64)
    total = 0.0
    for (lo, hi), target in zip(model.depth_slices(len(ts.teacher)), ts.teacher):
        block = logits[:, lo:hi]
        top = block.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(block - top).sum(axis=-1)) + top[..., 0]
        picked = np.take_along_axis(block, target[..., None], axis=-1)[..., 0]
        total += float(np.mean(logz - picked))
    return total


def invariants(model, vq, samples) -> dict[str, bool]:
    """Two properties the training code relies on, checked on one batch:
    greedy decoding equals the argmax of one full masked forward over the
    decoded inputs (the mask is prefix-closed), and dynamic targets built
    from the teacher tokens are the teacher tokens."""
    ts = training.prepare_training_set(vq, samples)
    z = var.infer_batch(model, vq, ts.image_tokens)
    logits = _teacher_logits(model, vq, ts.image_tokens, z)
    k = len(vq.schedule)
    decode = all(np.array_equal(logits[:, lo:hi].argmax(axis=-1), zk)
                 for (lo, hi), zk in zip(model.depth_slices(k), z))
    teacher = vq.decompose_batch(ts.f_depth)
    targets = training.depthart_targets_batch(teacher, ts.f_depth, vq)
    return {"decode_equals_masked_forward": bool(decode),
            "targets_of_teacher_are_teacher": all(
                np.array_equal(t, s) for t, s in zip(targets, teacher))}


# --------------------------------------------------------------------------
# the measured process
# --------------------------------------------------------------------------


def run_child(spec: dict) -> dict:
    """Load, warm up and measure one workload. With ``traced`` set, a
    traced set-up runs first to time the set-up layers, loading is traced,
    and every second unit of work is traced (see ``Run.measure``)."""
    run = Run(spec)
    package = list(MODULES.values())
    pristine = tracer.snapshot(package)
    tr = tracer.Tracer(MODULES) if spec["traced"] else None
    out = {"workload": run.workload, "traced": bool(tr)}
    if tr:
        tr.install()
        t0 = time.perf_counter()
        set_up(run.workload, run.seed, run.plan, os.path.join(run.workdir, "setup"))
        out["traced_setup_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    run.load()
    out["load_s"] = time.perf_counter() - t0
    if tr:
        run.stale += tr.uninstall()
    run.warm_up()
    probes = tracer.Patches()
    install_probes(probes, run.log)
    gc_log = GcLog()
    gc.callbacks.append(gc_log)
    try:
        traced_ops = run.measure(tr)
    finally:
        gc.callbacks.remove(gc_log)
        run.stale += probes.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["not_restored"] = run.stale + tracer.changed_since(pristine, package)
    log = run.log
    traced = set(traced_ops)
    ok = [(i, e - s) for i, (s, e) in enumerate(log.ops) if i not in log.failed]
    out.update(attempted=len(log.ops), failed=len(log.failed), errors=log.errors[:3],
               op_s=[d for i, d in ok if i not in traced],
               traced_op_s=[d for i, d in ok if i in traced],
               samples=run.samples, busy_s=run.busy_s,
               gc={"collections": len(gc_log.events),
                   "gen2": sum(1 for e in gc_log.events if e[2] == 2),
                   "pause_s": sum(e[1] - e[0] for e in gc_log.events)})
    if tr:
        spans = tr.spans()
        layers, shapes = tracer.layer_metrics(
            spans, tr.records, [log.ops[i] for i in traced_ops], gc_log.events)
        out["layers"] = layers
        out["shapes"] = shapes
        out["spans"] = spans
    if run.trained or run.workload == "eval":
        out.update(run.quality())
        out["checkpoint_bytes"] = os.path.getsize(run.checkpoint_path)
    return out

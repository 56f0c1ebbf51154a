"""Span tracing of the depthart package from outside its code.

``Tracer.install`` replaces every public function and public method of the
depthart modules with a wrapper that records one span per call: name,
start, end, parent span, the shapes of the array arguments, whether a
gradient tape was active, and whether the call raised. A module-level
function is rebound wherever a depthart module bound it by import (for
example ``training.forward`` is ``var.forward``), including values of
module-level dicts such as ``training.STEP_FNS``. Backward closures handed
to ``tensor.Tape.record`` are wrapped too, so each op's backward pass gets
its own span, named after the op with a ``.bwd`` suffix and carrying the
op's input shapes. ``Tracer.uninstall`` puts every original back.

``layer_metrics`` turns the spans into the per-layer numbers of the
benchmark; the README next to this file defines each of them.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("data", "vq", "var", "training", "tensor", "optim", "metrics",
          "checkpoint", "cli")

# active_tape is the tape lookup every op makes; a span per call would time
# the wrapper, not the program. Tape.record gets the closure wrapper instead.
SKIP = {"tensor.active_tape", "tensor.Tape.record"}
# private helpers whose call counts feed a metric (render retries)
EXTRA = {"data": ("_render_once",)}

NAMED_OPS = ("linear", "multihead_attention", "layer_norm", "gelu",
             "softmax_cross_entropy", "conv2d", "resize_bilinear")

# span index fields
NAME, START, END, PARENT, SHAPES, TAPED, ERROR = range(7)


class Patches:
    """Attribute and dict-entry replacements that can all be undone."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = value
        else:
            original = owner.__dict__[key]
            setattr(owner, key, value)
        self._undo.append((owner, key, original, value))

    def rebind(self, modules, original, replacement) -> None:
        """Replace every module-level binding of ``original``, including
        values of module-level dicts."""
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, name, replacement)
                elif isinstance(val, dict) and not name.startswith("__"):
                    for key, item in list(val.items()):
                        if item is original:
                            self.set(val, key, replacement)

    def restore(self) -> list[str]:
        """Undo in reverse order. Returns the keys that no longer held the
        replacement, i.e. that someone else changed in between."""
        stale = []
        for owner, key, original, value in reversed(self._undo):
            current = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
            if current is not value:
                stale.append(str(key))
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()
        return stale


def snapshot(modules) -> dict:
    """Identity snapshot of every callable binding in the modules, their
    classes and their module-level dicts, to prove a later restore."""
    snap = {}
    for mod in modules:
        for name, val in vars(mod).items():
            if callable(val) or isinstance(val, (classmethod, staticmethod)):
                snap[(mod.__name__, name)] = val
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for attr, raw in val.__dict__.items():
                    if callable(raw) or isinstance(raw, (classmethod, staticmethod)):
                        snap[(mod.__name__, name, attr)] = raw
            elif isinstance(val, dict) and not name.startswith("__"):
                for key, item in val.items():
                    if callable(item):
                        snap[(mod.__name__, name, "[]", key)] = item
    return snap


def changed_since(snap: dict, modules) -> list[str]:
    """Names whose binding is no longer the object in ``snap``."""
    by_name = {m.__name__: m for m in modules}
    bad = []
    for key, val in snap.items():
        ns = vars(by_name[key[0]])
        if len(key) == 2:
            cur = ns.get(key[1])
        elif key[2] == "[]":
            cur = ns[key[1]].get(key[3])
        else:
            cur = ns[key[1]].__dict__.get(key[2])
        if cur is not val:
            bad.append(".".join(str(k) for k in key))
    return bad


class _TimedBackward:
    """Stands in for one backward closure on the tape and records its span.
    One slotted object per tape record keeps the tracer's own garbage
    small, so it perturbs the collector (and the tape's lifetime) little."""

    __slots__ = ("tracer", "name", "shapes", "fn")

    def __init__(self, tracer, name, shapes, fn):
        self.tracer, self.name, self.shapes, self.fn = tracer, name, shapes, fn

    def __call__(self, g):
        return self.tracer.call(self.name, self.shapes, self.fn, (g,), {})


class Tracer:
    """Records spans around every public depthart function while installed.

    Spans are stored column-wise in arrays and lists of strings, objects
    the cyclic collector does not track: a list per span made traced steps
    collect four times as often, which freed the tape's garbage sooner and
    made traced steps faster than untraced ones."""

    def __init__(self, modules: dict):
        self.modules = modules                  # layer name -> module
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.shapes: list[str] = []             # repr of the array arguments' shapes
        self.taped = array("b")
        self.errors = array("b")
        self.records = array("d")               # start time of each tape record
        self._stack: list[int] = []
        self._patches = Patches()
        self._tensor_types = (modules["tensor"].Tensor, np.ndarray)
        self._active_tape = modules["tensor"].active_tape

    def spans(self) -> list[tuple]:
        """Every span as (name, start, end, parent, shapes, taped, raised)."""
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.shapes, self.taped, self.errors))

    # -- wrapping -----------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute) of every public function and method."""
        out = []
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_") or name in EXTRA.get(layer, ())
                if not public:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((f"{layer}.{name}", mod, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, raw in list(obj.__dict__.items()):
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            out.append((f"{layer}.{name}.{attr}", obj, attr))
        return [t for t in out if t[0] not in SKIP]

    def _shapes(self, args) -> str:
        types = self._tensor_types
        shapes = []
        for a in args:
            if isinstance(a, types):
                shapes.append(a.shape)
            elif isinstance(a, (list, tuple)) and a and isinstance(a[0], types):
                shapes.append(tuple(x.shape for x in a if isinstance(x, types)))
        return repr(tuple(shapes))

    def call(self, name, shapes, fn, args, kwargs):
        """Run ``fn`` inside a span; ``shapes`` None means from ``args``."""
        i = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.shapes.append(self._shapes(args) if shapes is None else shapes)
        self.taped.append(self._active_tape() is not None)
        self.errors.append(0)
        self.ends.append(0.0)
        stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[i] = 1
            raise
        finally:
            self.ends[i] = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, None, fn, args, kwargs)

        return traced

    def _wrap_record(self, record):
        names, shapes, stack = self.names, self.shapes, self._stack
        records, clock = self.records, time.perf_counter

        def traced_record(tape, out, backward):
            records.append(clock())
            fwd = stack[-1] if stack else -1
            op = names[fwd] if fwd >= 0 else "tensor.unknown"
            return record(tape, out, _TimedBackward(
                self, op + ".bwd", shapes[fwd] if fwd >= 0 else "()", backward))

        return traced_record

    def install(self) -> None:
        package = list(self.modules.values())
        for name, owner, attr in self._targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                self._patches.set(owner, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isclass(owner):
                self._patches.set(owner, attr, self._wrap(name, raw))
            else:
                self._patches.rebind(package, raw, self._wrap(name, raw))
        tape_cls = self.modules["tensor"].Tape
        self._patches.set(tape_cls, "record",
                          self._wrap_record(tape_cls.__dict__["record"]))

    def uninstall(self) -> list[str]:
        return self._patches.restore()


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

PHASES = ("inference", "targets", "taped_forward", "backward", "optimizer")
_PHASE_OF = {"var.infer_batch": "inference",
             "training.depthart_targets_batch": "targets",
             "var.depth_input_features": "targets",
             "tensor.Tensor.backward": "backward",
             "optim.AdamW.step": "optimizer"}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list, records: list[float],
                  steps: list[tuple[float, float]],
                  gc_events: list[tuple[float, float, int]]) -> tuple[dict, dict]:
    """Per-layer metrics from spans grouped by step (or eval batch).

    ``steps`` holds the (start, end) of every op measured. A span belongs
    to the step its start falls in; spans outside every step (set-up,
    model loading, work between training runs) only feed per-call metrics.
    Returns (metrics, detail): metrics maps name -> value; detail holds the
    busiest input shapes of each tensor op.
    """
    n_steps = max(len(steps), 1)
    starts = [s for s, _ in steps]

    def step_of(t):
        i = bisect.bisect_right(starts, t) - 1
        return i if i >= 0 and t < steps[i][1] else -1

    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]

    # per name: step -> [inclusive s, self s, calls]; per-call lists over all spans
    per_step = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    per_call = defaultdict(list)
    errors = defaultdict(int)
    phase_of_span = [None] * len(spans)
    phase_time = defaultdict(lambda: defaultdict(float))
    shape_time = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for i, sp in enumerate(spans):
        name = sp[NAME]
        incl = sp[END] - sp[START]
        own = incl - child[i]
        st = step_of(sp[START])
        per_call[name].append((incl, own))
        errors[name] += sp[ERROR]
        inherited = phase_of_span[sp[PARENT]] if sp[PARENT] >= 0 else None
        phase = inherited or _PHASE_OF.get(name) or (
            "taped_forward" if sp[TAPED] else None)
        phase_of_span[i] = phase
        if st >= 0:
            cell = per_step[name][st]
            cell[0] += incl
            cell[1] += own
            cell[2] += 1
            if phase and not inherited:
                phase_time[st][phase] += incl
        if name.startswith("tensor."):
            cell = shape_time[name][sp[SHAPES]]
            cell[0] += 1
            cell[1] += own

    def med(name, field):
        col = per_step.get(name, {})
        return _median([col[s][field] if s in col else 0.0 for s in range(len(steps))])

    def mean(name, field):
        return sum(c[field] for c in per_step.get(name, {}).values()) / n_steps

    def call_med(name, field=0):
        return _median([c[field] for c in per_call.get(name, [])])

    ms = 1e3
    m: dict[str, float] = {}
    tensor_ops = {n for n in per_call if n.startswith("tensor.") and n.count(".") == 1}
    other = sorted(tensor_ops - {f"tensor.{op}" for op in NAMED_OPS})
    for op in NAMED_OPS:
        m[f"tensor.{op}.fwd_ms"] = med(f"tensor.{op}", 1) * ms
        m[f"tensor.{op}.bwd_ms"] = med(f"tensor.{op}.bwd", 1) * ms

    def summed_med(names, field):
        return _median([sum(per_step[n][s][field] for n in names if s in per_step.get(n, {}))
                        for s in range(len(steps))])

    m["tensor.other.fwd_ms"] = summed_med(other, 1) * ms
    m["tensor.other.bwd_ms"] = summed_med([n + ".bwd" for n in other], 1) * ms
    m["tensor.backward.ms"] = med("tensor.Tensor.backward", 0) * ms
    records_by_step = defaultdict(int)
    for t in records:
        records_by_step[step_of(t)] += 1
    m["tensor.tape_records"] = _median([records_by_step[s] for s in range(len(steps))])
    gc_by_step = defaultdict(lambda: [0.0, 0])
    for t0, t1, _gen in gc_events:
        st = step_of(t0)
        if st >= 0:
            gc_by_step[st][0] += t1 - t0
            gc_by_step[st][1] += 1
    m["tensor.gc_pause_ms"] = sum(v[0] for v in gc_by_step.values()) / n_steps * ms
    m["tensor.gc_collections"] = sum(v[1] for v in gc_by_step.values()) / n_steps

    for name in ("var.infer_batch", "var.forward"):
        m[f"{name}.ms"] = med(name, 0) * ms
        m[f"{name}.calls"] = med(name, 2)
    m["var.embed_sequence.ms"] = med("var.embed_sequence", 0) * ms
    m["var.depth_input_features.ms"] = med("var.depth_input_features", 0) * ms
    m["training.depthart_targets_batch.ms"] = med("training.depthart_targets_batch", 0) * ms
    m["vq.eta_batch.ms"] = med("vq.VqModel.eta_batch", 0) * ms
    m["vq.eta_batch.calls"] = med("vq.VqModel.eta_batch", 2)
    m["vq.nearest_batch.ms"] = med("vq.VqModel.nearest_batch", 0) * ms

    m["training.fit.self_ms"] = mean("training.fit", 1) * ms
    m["checkpoint.save.ms"] = mean("checkpoint.save", 0) * ms
    m["checkpoint.save.calls"] = mean("checkpoint.save", 2)
    m["optim.AdamW.step.ms"] = med("optim.AdamW.step", 0) * ms
    m["vq.train_vqvae.self_ms"] = mean("vq.train_vqvae", 1) * ms
    for name in ("encode_batch", "decompose_batch", "decode_batch", "compose_batch"):
        m[f"vq.{name}.ms"] = call_med(f"vq.VqModel.{name}") * ms

    m["metrics.predict_depth_rasters.self_ms"] = med("metrics.predict_depth_rasters", 1) * ms
    m["metrics.evaluate_rasters.self_ms"] = med("metrics.evaluate_rasters", 1) * ms
    m["metrics.plane_metrics.ms"] = med("metrics.plane_metrics", 0) * ms
    calls = len(per_call.get("metrics.plane_metrics", []))
    m["metrics.plane_metrics.skipped_frac"] = (
        errors["metrics.plane_metrics"] / calls if calls else 0.0)
    m["metrics.align_scale.ms"] = med("metrics.align_scale", 0) * ms

    m["data.render_scene.ms"] = call_med("data.render_scene") * ms
    scenes = len(per_call.get("data.render_scene", []))
    m["data.render_scene.retries"] = (
        (len(per_call.get("data._render_once", [])) - scenes) / scenes if scenes else 0.0)
    m["data.save_sample.ms"] = call_med("data.save_sample") * ms
    m["data.load_sample.ms"] = call_med("data.load_sample") * ms
    m["training.prepare_training_set.ms"] = call_med("training.prepare_training_set") * ms
    m["checkpoint.load.ms"] = call_med("checkpoint.load") * ms
    m["cli.gen_data.s"] = call_med("cli.cmd_gen_data")

    for phase in PHASES:
        m[f"phase.{phase}_frac"] = _median(
            [phase_time[s][phase] / (e - b) for s, (b, e) in enumerate(steps)])
    m["phase.other_frac"] = 1.0 - sum(m[f"phase.{p}_frac"] for p in PHASES)
    in_steps = sum(c[2] for col in per_step.values() for c in col.values())
    m["trace.spans_per_step"] = in_steps / n_steps

    detail = {}
    for name, by_shape in shape_time.items():
        top = sorted(by_shape.items(), key=lambda kv: -kv[1][1])[:5]
        detail[name] = [{"shapes": s, "calls": c, "self_ms": t * ms} for s, (c, t) in top]
    return m, detail

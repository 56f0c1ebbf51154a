"""Dense float32 tensors with reverse-mode automatic differentiation.

The engine is tape-based. A ``Tensor`` is its array ``data`` plus a
gradient node (``_Grad``: the gradient, ``requires_grad``, the recording
tape, and the shape and dtype of the data, but not the data). While a
``Tape`` is active, every primitive op appends a record holding its
output's node and a closure that propagates the output gradient to its
inputs' nodes. Records are appended in construction order, which is a
topological order of the DAG, so ``backward()`` is a single reverse sweep
that visits each node exactly once. Outside a tape, ops run as plain
numpy and build no graph.

``backward()`` consumes the tape: it pops each record before running its
closure, so every closure and the activations only it kept are freed
during the sweep, and leaving the ``with Tape()`` block drops whatever
records remain (a step that raised before ``backward()``). A recorded
node points at its tape but the emptied tape points at nothing, so a
step's graph is freed by reference counting, without waiting for the
cyclic garbage collector.

Parameters and activations are float32. Tests may build float64 tensors
(``dtype=np.float64``) to sharpen finite-difference checks; the kernels
are dtype-preserving.

No implicit broadcasting: elementwise ops require exact shape equality.
The few places that need a broadcast (bias add, positional-table add)
are explicit named ops with hand-written backward passes. Attention takes
no additive mask: it gets each query row's count of visible keys and
never scores the keys beyond it. It projects queries and keys/values
only for the row ranges its caller names: the rows some row reads.

A recorded op keeps exactly the arrays its backward pass reads, and
every one stays alive until ``backward()``; the refinement step records
several decode rounds on one tape. Its closure captures its inputs'
nodes and shapes, never a ``Tensor``, so an output that no backward pass
reads (a residual sum, a projection whose consumer keeps only its own
copy) is freed as soon as the forward drops it. A transformer block is
two records, each fused with its layer norm and residual add, so no
record keeps a norm's output or a row slice of one. ``mlp`` is a block's
second norm, MLP and residual add, and keeps the normalized rows, their
scale and the GELU output and slope, where a composition of
``layer_norm``, ``linear``, ``gelu``, ``linear`` and ``add`` also kept
the norm's output, the pre-activation, the gate and the output.
``attention`` is its first norm, the query and key/value projections of
row ranges of it, attention over the keys of its ``KVCache``, the output
projection and the residual add. It keeps the normalized rows, their
scale, each run's unnormalized exponentials with their row sums, and the
cache's key/value buffers, which every decode round of one cache shares;
the composition of ``layer_norm``, ``linear``, attention, ``linear`` and
``add`` also kept the queries and the attention output. ``norm_linear``
is the final norm and the head's projection in one record, which keeps
the normalized rows and their scale. The backward
passes rebuild what they dropped with the forward's own ops: the norm's
output for the weight gradients, and in ``attention`` the queries, one
GEMM of those rows, and the attention output, from the kept
exponentials, so every gradient keeps the composition's bits (selective
recomputation: Korthikanti et al., Reducing Activation Recomputation in
Large Transformer Models, 2022; the attention output recomputed from
what the softmax kept: Dao et al., FlashAttention, 2022).

Every dense projection (``linear``, and those in ``mlp``, ``norm_linear``
and ``attention``) is ``_project`` forward and ``_project_grads``, the
one weight-gradient contraction over rows, backward.

Untaped, an op may skip work its backward pass would need: attention
never normalizes its exponentials, ``gelu`` and the norms in ``mlp``
and ``attention`` work in place, and ``mlp`` computes no GELU slope. A
taped call computes its output the same way, so the two agree bit for
bit.

Each thread has its own stack of active tapes, so a tape records only
the ops of the thread that opened it, and other threads may run
inference while one trains. A tape and the tensors recorded on it belong
to that thread.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


# --------------------------------------------------------------------------
# tape
# --------------------------------------------------------------------------

class _TapeStack(threading.local):
    """The active tapes of the current thread, innermost last."""

    def __init__(self) -> None:
        self.tapes: list["Tape"] = []


_TAPE_STACK = _TapeStack()


class Tape:
    """Ordered record of primitive ops for one forward pass.

    Usage::

        with Tape():
            loss = ...   # ops get recorded
            loss.backward()
    """

    def __init__(self) -> None:
        self.records: list[tuple["_Grad", Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self
        self.records.clear()

    def record(self, out: "Tensor", backward: Callable[[np.ndarray], None]) -> None:
        out.node.tape = self
        self.records.append((out.node, backward))


def active_tape() -> Optional[Tape]:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


# --------------------------------------------------------------------------
# tensor
# --------------------------------------------------------------------------


class _Grad:
    """A tensor's place in the gradient graph: its gradient, whether it is a
    leaf that wants one, the tape that recorded it, and the shape and dtype
    of its data, without the data. Backward closures hold these nodes, so
    the tape keeps no array its backward passes do not read. ``sibling`` is
    another output of the op recorded on this node, whose gradient runs
    that record too: ``backward()`` calls a closure whose own output has no
    gradient (with None) when its sibling has one."""

    __slots__ = ("grad", "requires_grad", "tape", "shape", "dtype", "sibling")

    def __init__(self, shape: tuple[int, ...], dtype, requires_grad: bool) -> None:
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.tape: Optional[Tape] = None
        self.shape = shape
        self.dtype = dtype
        self.sibling: Optional[_Grad] = None

    def needs(self) -> bool:
        return self.requires_grad or self.tape is not None

    def accumulate(self, g: np.ndarray) -> None:
        """Accumulate a gradient the caller may still alias (copies once)."""
        if self.grad is None:
            if g.dtype != self.dtype:
                g = g.astype(self.dtype)
            self.grad = g.copy()
        else:
            self.grad += g

    def accumulate_owned(self, g: np.ndarray) -> None:
        """Accumulate a freshly-allocated gradient buffer (takes ownership)."""
        if self.grad is None:
            self.grad = g if g.dtype == self.dtype else g.astype(self.dtype)
        else:
            self.grad += g


class Tensor:
    """N-dimensional float array ``data`` plus its gradient node ``node``.

    ``grad`` is populated by ``backward()`` for every tensor on the path
    from the loss to a leaf with ``requires_grad=True``; it always has the
    same shape as ``data``. Both live on the node and read and write
    through to it.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if dtype is None:  # the engine's working precision
            arr = arr.astype(np.float32, copy=False)
        self.data: np.ndarray = arr
        self.node = _Grad(arr.shape, arr.dtype, bool(requires_grad))

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self.node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.node.requires_grad = bool(value)

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- graph participation --------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from this scalar through its tape, consuming it.

        Each record is popped before its closure runs, so the tape is empty
        afterwards and a second call propagates nothing."""
        tape = self.node.tape
        if tape is None:
            raise RuntimeError("backward() on a tensor that is not on a tape")
        if self.data.size != 1:
            raise RuntimeError("backward() requires a scalar output")
        self.node.grad = np.ones_like(self.data)
        records = tape.records
        while records:
            out, fn = records.pop()
            if out.grad is not None or (out.sibling is not None
                                        and out.sibling.grad is not None):
                fn(out.grad)


def _maybe_record(out: Tensor, parents: Sequence[_Grad],
                  backward: Callable[[np.ndarray], None]) -> Tensor:
    """Record ``out`` on the active tape if some parent node needs a grad."""
    tape = active_tape()
    if tape is not None and any(p.needs() for p in parents):
        tape.record(out, backward)
    return out


# --------------------------------------------------------------------------
# elementwise / structural ops
# --------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, dtype=a.dtype)
    na, nb = a.node, b.node

    def backward(g):
        if na.needs():
            na.accumulate(g)
        if nb.needs():
            nb.accumulate(g)

    return _maybe_record(out, (na, nb), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data, dtype=a.dtype)
    na, nb = a.node, b.node

    def backward(g):
        if na.needs():
            na.accumulate(g)
        if nb.needs():
            nb.accumulate_owned(-g)

    return _maybe_record(out, (na, nb), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, dtype=a.dtype)
    na, nb, ad, bd = a.node, b.node, a.data, b.data

    def backward(g):
        if na.needs():
            na.accumulate_owned(g * bd)
        if nb.needs():
            nb.accumulate_owned(g * ad)

    return _maybe_record(out, (na, nb), backward)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, dtype=a.dtype)
    na = a.node

    def backward(g):
        if na.needs():
            na.accumulate_owned(g * s)

    return _maybe_record(out, (na,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), dtype=a.dtype)
    na = a.node

    def backward(g):
        if na.needs():
            na.accumulate(g.reshape(na.shape))

    return _maybe_record(out, (na,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(tensors)
    if not parts:
        raise DimensionError("concat: need at least one tensor")
    out = Tensor(np.concatenate([t.data for t in parts], axis=axis),
                 dtype=parts[0].dtype)
    nodes = [t.node for t in parts]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in parts])

    def backward(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n.needs():
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                n.accumulate(g[tuple(idx)])

    return _maybe_record(out, nodes, backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(np.ascontiguousarray(a.data[idx]), dtype=a.dtype)
    na = a.node

    def backward(g):
        if na.needs():
            buf = np.zeros(na.shape, na.dtype)
            buf[idx] = g
            na.accumulate_owned(buf)

    return _maybe_record(out, (na,), backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(dtype=a.dtype), dtype=a.dtype)
    na = a.node

    def backward(g):
        if na.needs():
            na.accumulate_owned(np.full(na.shape, g, na.dtype))

    return _maybe_record(out, (na,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean(dtype=a.dtype), dtype=a.dtype)
    na = a.node

    def backward(g):
        if na.needs():
            na.accumulate_owned(np.full(na.shape, g / n, na.dtype))

    return _maybe_record(out, (na,), backward)


# --------------------------------------------------------------------------
# linear algebra
# --------------------------------------------------------------------------


def _project(rows: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``rows[N, D] @ w + b``, the bias added in place: every dense
    projection's forward, and what a backward pass runs to rebuild one."""
    y = rows @ w
    np.add(y, b, out=y)
    return y


def _project_grads(rows: np.ndarray, g2: np.ndarray, nw: _Grad, nb: _Grad) -> None:
    """Send the gradient ``g2[N, F]`` of ``_project(rows, w, b)`` to the
    weight and bias nodes ``nw`` and ``nb``: every dense projection's
    weight-gradient contraction over its rows."""
    if nw.needs():
        nw.accumulate_owned(rows.T @ g2)
    if nb.needs():
        nb.accumulate_owned(g2.sum(axis=0))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``: ``_project`` forward and
    ``_project_grads`` for the weight and bias gradients."""
    if x.data.shape[-1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise DimensionError(
            f"linear: weight {w.shape} and bias {b.shape} do not fit x {x.shape}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = Tensor(_project(x2, w.data, b.data).reshape(x.data.shape[:-1] + w.data.shape[1:]),
                 dtype=x.dtype)
    nx, nw, nb, wd = x.node, w.node, b.node, w.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if nx.needs():
            nx.accumulate_owned((g2 @ wd.T).reshape(nx.shape))
        _project_grads(x2, g2, nw, nb)

    return _maybe_record(out, (nx, nw, nb), backward)


def add_table(x: Tensor, t: Tensor) -> Tensor:
    """Add a per-position table ``t[L, D]`` to every batch row of ``x[B, L, D]``."""
    if x.data.ndim != 3 or t.data.shape != x.data.shape[1:]:
        raise DimensionError(
            f"add_table: expected x[B,L,D] and t[L,D], got {x.shape} and {t.shape}")
    out = Tensor(x.data + t.data[None, :, :], dtype=x.dtype)
    nx, nt = x.node, t.node

    def backward(g):
        if nx.needs():
            nx.accumulate(g)
        if nt.needs():
            nt.accumulate_owned(g.sum(axis=0))

    return _maybe_record(out, (nx, nt), backward)


# --------------------------------------------------------------------------
# nonlinearities and normalization
# --------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_gate(x: np.ndarray) -> np.ndarray:
    """The GELU gate s = (1 + tanh u) / 2 with u = c x (1 + a x^2), in one
    fresh buffer over 7 passes."""
    s = x * x  # avoids slow float pow
    s *= _GELU_C * _GELU_A
    s += _GELU_C
    s *= x
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def _gelu_slope(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """dy/dx of y = s x, given the gate s of x, in one fresh buffer:
    s + x s (1 - s) 2 c (1 + 3 a x^2), as (1 - tanh^2 u) / 2 is 2 s (1 - s)."""
    du = x * x
    du *= 6.0 * _GELU_C * _GELU_A
    du += 2.0 * _GELU_C
    du *= x
    du *= 1.0 - s
    du *= s
    du += s
    return du


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh form (GPT-2 convention): y = s x with ``_gelu_gate`` s.
    One fresh buffer, plus one keeping s for the backward pass when the op
    is recorded; 8 passes over the array forward and 9 backward. The
    transformer's MLP uses ``mlp``, which keeps the slope instead."""
    xd, nx = x.data, x.node
    s = _gelu_gate(xd)
    recorded = active_tape() is not None and nx.needs()
    y = s * xd if recorded else np.multiply(s, xd, out=s)
    out = Tensor(y, dtype=x.dtype)

    def backward(g):
        if nx.needs():
            du = _gelu_slope(xd, s)
            du *= g
            nx.accumulate_owned(du)

    return _maybe_record(out, (nx,), backward)


LN_EPS = 1e-5  # added to the variance before the square root


def _normalize(x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(xhat, inv)`` of the rows of ``x2[N, D]``: each row shifted to mean
    0 and scaled to variance 1 (``xhat``, a fresh buffer), and the scale
    ``inv`` [N, 1], one over its standard deviation. Row means and
    variances are ``einsum`` reductions."""
    d = x2.shape[1]
    xhat = x2 - (np.einsum("nc->n", x2) / d)[:, None]
    inv = (1.0 / np.sqrt(np.einsum("nc,nc->n", xhat, xhat) / d + LN_EPS))[:, None]
    xhat *= inv
    return xhat, inv


def _affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """The layer norm's output ``xhat * gain + bias``, in ``out`` or fresh.
    The forward pass and the backward passes that rebuild it run these
    same two ops, so both get the same bits."""
    h = np.multiply(xhat, gain, out=out)
    h += bias
    return h


def _normalize_backward(g2: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                        gain: np.ndarray, nx: _Grad, ngain: _Grad,
                        nbias: _Grad) -> None:
    """Send the gradient ``g2[N, D]`` of the rows ``xhat * gain + bias`` to
    the norm's input ``nx`` and to the gain and bias."""
    d = g2.shape[1]
    if ngain.needs():
        ngain.accumulate_owned(np.einsum("nc,nc->c", g2, xhat))
    if nbias.needs():
        nbias.accumulate_owned(g2.sum(axis=0))
    if nx.needs():
        gy = g2 * gain
        m1 = np.einsum("nc->n", gy) / d
        m2 = np.einsum("nc,nc->n", gy, xhat) / d
        gy -= m1[:, None]
        gy -= xhat * m2[:, None]
        gy *= inv
        nx.accumulate_owned(gy.reshape(nx.shape))


def _check_norm(name: str, x: Tensor, gain: Tensor, bias: Tensor) -> None:
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(f"{name}: gain/bias must match the last axis of x {x.shape}")


def mlp(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
        w2: Tensor, b2: Tensor) -> Tensor:
    """``x + gelu(n @ w1 + b1) @ w2 + b2`` over the last axis of ``x``, where
    ``n = xhat * gain + bias`` is the layer norm of ``x``, as one tape
    record: a pre-norm transformer block's MLP with its norm and residual
    add. The bits are those of ``add(x, linear(gelu(linear(layer_norm(x,
    gain, bias), w1, b1)), w2, b2))``, each projection through ``_project``
    and ``_project_grads``.

    Recorded, it keeps only what its backward pass reads: the normalized
    rows ``xhat`` and their scale, the GELU output y (for the ``w2``
    gradient) and the GELU slope dy/du, which the forward computes with
    ``gelu``'s backward sequence; the gradient then needs only the
    multiply by the incoming one. The norm's output, the pre-activation u,
    the gate and the projection output are dropped; the backward pass
    rebuilds the norm's output from ``xhat`` for the ``w1`` gradient.
    Untaped, the norm's affine runs in place and no slope is computed."""
    d, hidden = w1.data.shape
    d_out = w2.data.shape[1]
    _check_norm("mlp", x, gain, bias)
    if (x.data.shape[-1] != d or b1.data.shape != (hidden,)
            or w2.data.shape[0] != hidden or b2.data.shape != (d_out,) or d_out != d):
        raise DimensionError(
            f"mlp: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape} "
            f"and b2 {b2.shape} do not chain back to the width of x")
    nx, ngain, nbias, nw1, nb1, nw2, nb2 = parents = (
        x.node, gain.node, bias.node, w1.node, b1.node, w2.node, b2.node)
    gd, bd, w1d, w2d = gain.data, bias.data, w1.data, w2.data
    recorded = active_tape() is not None and any(n.needs() for n in parents)
    xhat, inv = _normalize(x.data.reshape(-1, d))
    u = _project(_affine(xhat, gd, bd, out=None if recorded else xhat), w1d, b1.data)
    s = _gelu_gate(u)
    du = _gelu_slope(u, s) if recorded else None
    y = np.multiply(s, u, out=s)
    del u  # freed before the projection allocates
    out = Tensor(x.data + _project(y, w2d, b2.data).reshape(x.data.shape), dtype=x.dtype)

    def backward(g):
        g2 = g.reshape(-1, d)
        if nx.needs():  # the residual path, first as in the composition
            nx.accumulate(g)
        _project_grads(y, g2, nw2, nb2)
        dh = g2 @ w2d.T
        dh *= du
        _project_grads(_affine(xhat, gd, bd), dh, nw1, nb1)
        _normalize_backward(dh @ w1d.T, xhat, inv, gd, nx, ngain, nbias)

    return _maybe_record(out, parents, backward)


def norm_linear(x: Tensor, gain: Tensor, bias: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``n @ w + b`` over the last axis of ``x``, where ``n = xhat * gain +
    bias`` is the layer norm of ``x``, as one tape record: the final norm
    and the head. The bits are those of ``linear(layer_norm(x, gain,
    bias), w, b)``; its projection is ``_project`` / ``_project_grads``.

    Recorded, it keeps the normalized rows ``xhat`` and their scale, not
    the norm's output: the backward pass rebuilds that with ``_affine``,
    the forward's own two ops, for the weight gradient. Untaped, the
    norm's affine runs in place."""
    d = x.data.shape[-1]
    _check_norm("norm_linear", x, gain, bias)
    if w.data.shape[0] != d or b.data.shape != w.data.shape[1:]:
        raise DimensionError(
            f"norm_linear: weight {w.shape} and bias {b.shape} do not fit x {x.shape}")
    nx, ngain, nbias, nw, nb = parents = (x.node, gain.node, bias.node, w.node, b.node)
    gd, bd, wd = gain.data, bias.data, w.data
    recorded = active_tape() is not None and any(n.needs() for n in parents)
    xhat, inv = _normalize(x.data.reshape(-1, d))
    y2 = _project(_affine(xhat, gd, bd, out=None if recorded else xhat), wd, b.data)
    out = Tensor(y2.reshape(x.data.shape[:-1] + (-1,)), dtype=x.dtype)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        _project_grads(_affine(xhat, gd, bd), g2, nw, nb)
        _normalize_backward(g2 @ wd.T, xhat, inv, gd, nx, ngain, nbias)

    return _maybe_record(out, parents, backward)


# --------------------------------------------------------------------------
# lookup and loss
# --------------------------------------------------------------------------


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``table[V, C]`` by an integer index array."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("embedding_lookup: indices must be integers")
    v = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise IndexError(f"embedding_lookup: index out of range [0, {v})")
    out = Tensor(table.data[idx], dtype=table.dtype)
    nt = table.node

    def backward(g):
        if nt.needs():
            buf = np.zeros(nt.shape, nt.dtype)
            np.add.at(buf, idx.reshape(-1), g.reshape(-1, nt.shape[1]))
            nt.accumulate_owned(buf)

    return _maybe_record(out, (nt,), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of ``-log softmax(logits)[i, targets[i]]`` over rows."""
    if logits.data.ndim != 2:
        raise DimensionError("softmax_cross_entropy: logits must be [N, V]")
    t = np.asarray(targets)
    n, v = logits.data.shape
    if t.shape != (n,):
        raise DimensionError("softmax_cross_entropy: targets must be [N]")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"softmax_cross_entropy: target index out of range [0, {v})")
    ld = logits.data
    m = ld.max(axis=1, keepdims=True)
    e = np.exp(ld - m)
    z = e.sum(axis=1, keepdims=True)
    logp = (ld - m) - np.log(z)
    loss = -logp[np.arange(n), t].mean(dtype=ld.dtype)
    out = Tensor(loss, dtype=logits.dtype)
    nl = logits.node

    def backward(g):
        if nl.needs():
            p = e / z
            p[np.arange(n), t] -= 1.0
            nl.accumulate_owned(p * (g / n))

    return _maybe_record(out, (nl,), backward)


# --------------------------------------------------------------------------
# attention (fused)
# --------------------------------------------------------------------------


class KVCache:
    """Keys and values of the rows one attention layer has seen. Keys are
    stored key-major, ``k[B, H, dh, keys]``, so a score GEMM reads a
    contiguous prefix of each row; values are ``v[B, H, keys, dh]``.
    ``len()`` counts the keys written, which fill the first slots. The
    buffers are allocated on the first write, which brings the batch, head
    and dtype, with room for ``keys`` keys, the count a caller derives from
    its mask, and each later write fills the next slots in place. A slot
    is never rewritten, so backward passes recorded in earlier rounds may
    read the buffers a later round writes.
    ``rows`` counts the sequence rows the layer has seen, which its caller
    advances; it exceeds the keys once rows arrive that no later row reads,
    and those are never cached. Under a tape the cache also keeps each
    round's ``kv`` gradient node with the position of its first key, so
    that later rounds can send key/value gradients back to the rows they
    attended to."""

    def __init__(self, keys: int) -> None:
        self.keys = keys
        self.k: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.written = 0
        self.rows = 0
        self.rounds: list[tuple[_Grad, int]] = []

    def __len__(self) -> int:
        return self.written

    def write(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append keys ``k[B, H, dh, n]`` and values ``v[B, H, n, dh]``;
        DimensionError if they do not fit in ``keys``."""
        lo, hi = self.written, self.written + k.shape[3]
        if hi > self.keys:
            raise DimensionError(f"KVCache: {hi} keys do not fit its {self.keys}")
        if self.k is None:
            self.k = np.empty(k.shape[:3] + (self.keys,), k.dtype)
            self.v = np.empty(v.shape[:2] + (self.keys, v.shape[3]), v.dtype)
        self.k[..., lo:hi] = k
        self.v[:, :, lo:hi] = v
        self.written = hi


def attention(x: Tensor, gain: Tensor, bias: Tensor, q_w: Tensor, q_b: Tensor,
              kv_w: Tensor, kv_b: Tensor, w: Tensor, b: Tensor, heads: int,
              visible: np.ndarray, cache: KVCache, lead: int, keys: int) -> Tensor:
    """A pre-norm transformer block's attention sublayer as one tape record:
    ``x[:, lead:] + a @ w + b`` for the rows ``x[B, L, D]`` after the ones
    ``cache`` holds, where ``a`` is the multi-head attention of the queries
    ``n[:, lead:] @ q_w + q_b`` over the cache's keys and values followed
    by ``n[:, :keys] @ kv_w + kv_b`` (keys in the first D columns), and
    ``n = xhat * gain + bias`` is the layer norm of ``x``. The call writes
    the new keys into the cache. Query row i sees only the first
    ``visible[i]`` keys. The bits are those of a layer norm, a ``linear``
    of its query rows and one of its key rows, attention, ``linear`` and
    ``add`` on the rows of ``x`` from ``lead`` (``tests/oracle.attention``);
    each projection runs through ``_project`` and ``_project_grads``.

    Each run of query rows with equal counts scores, exponentiates and
    averages its own key prefix, so no score is computed for a key a row
    may not see, and the output is divided by the row sums of the
    exponentials (Dao et al., FlashAttention, 2022).

    Recorded, it keeps the normalized rows ``xhat`` and their scale, each
    run's unnormalized exponentials and their row sums, the cache's
    buffers, which every round of one cache shares, and the gradient nodes
    of every round's keys/values: not the queries, the attention output or
    the norm's output. The backward pass rebuilds the queries with the
    forward's own ops, one ``[rows, D] @ [D, D]`` GEMM on the affine rows
    the ``q_w`` gradient reads anyway, and each run's attention output as
    ``(p @ v) / total``, the forward's own ops, before it normalizes the
    exponentials with the forward's ``p /= total``; so every gradient has
    the composition's bits (selective recomputation: Korthikanti et al.,
    Reducing Activation Recomputation in Large Transformer Models, 2022).
    The keys/values get a gradient node, registered in ``cache.rounds``,
    through which later rounds send their key/value gradients; it is the
    output's sibling, so the record runs when either has a gradient, and
    the node sums the later rounds' parts before its own round's.
    Untaped, the norm's affine runs in place, each range is read from its
    output, and the exponentials are never normalized."""
    if x.data.ndim != 3:
        raise DimensionError(f"attention: expected x [B, L, D], got {x.shape}")
    bsz, length, d = x.data.shape
    _check_norm("attention", x, gain, bias)
    if (d % heads or q_w.data.shape != (d, d) or q_b.data.shape != (d,)
            or kv_w.data.shape != (d, 2 * d) or kv_b.data.shape != (2 * d,)
            or w.data.shape != (d, d) or b.data.shape != (d,)
            or not 0 <= lead < length or not 0 <= keys <= length):
        raise DimensionError(
            f"attention: {heads} heads, q_w {q_w.shape}, q_b {q_b.shape}, kv_w "
            f"{kv_w.shape}, kv_b {kv_b.shape}, w {w.shape}, b {b.shape}, query rows "
            f"from {lead} and {keys} key rows do not fit x {x.shape}")
    dh, nq = d // heads, length - lead
    first = len(cache)  # position of the first new key
    if nq != len(visible) or visible.min() < 1 or visible.max() > first + keys:
        raise DimensionError(
            f"attention: {nq} query rows need as many counts, "
            f"each in [1, {first + keys}]")
    seen = int(visible.max())  # keys any query sees
    nx, ngain, nbias, nqw, nqb, nkvw, nkvb, nw, nb = (
        x.node, gain.node, bias.node, q_w.node, q_b.node, kv_w.node, kv_b.node,
        w.node, b.node)
    parents = [nx, ngain, nbias, nqw, nqb, nw, nb] + ([nkvw, nkvb] if keys else [])
    parents += [src for src, _ in cache.rounds]
    tape = active_tape()
    recorded = tape is not None and any(n.needs() for n in parents)
    gd, bd, qwd, qbd, kvwd, wd = gain.data, bias.data, q_w.data, q_b.data, kv_w.data, w.data
    xhat, inv = _normalize(x.data.reshape(-1, d))
    xhat3 = xhat.reshape(bsz, length, d)
    if not recorded:  # the norm's output in place, its ranges read from it
        normed = _affine(xhat3, gd, bd, out=xhat3)

    def project(lo, hi, wt, bt):
        rows = _affine(xhat3[:, lo:hi], gd, bd) if recorded \
            else np.ascontiguousarray(normed[:, lo:hi])
        return _project(rows.reshape(-1, d), wt, bt)

    nkv = None  # the new keys/values' gradient node
    if keys:
        arr = project(0, keys, kvwd, kv_b.data).reshape(bsz, keys, 2, heads, dh)
        cache.write(arr[:, :, 0].transpose(0, 2, 3, 1), arr[:, :, 1].transpose(0, 2, 1, 3))
        if recorded:
            nkv = _Grad((bsz, keys, 2 * d), x.dtype, False)
            nkv.tape = tape
            cache.rounds.append((nkv, first))
        del arr
    qh = project(lead, length, qwd, qbd).reshape(bsz, nq, heads, dh).transpose(0, 2, 1, 3)
    k, v = cache.k, cache.v
    rounds = cache.rounds[:]  # (kv node, position of its first key); later calls append
    edges = [0, *(np.flatnonzero(np.diff(visible)) + 1).tolist(), nq]
    runs = list(zip(edges[:-1], edges[1:]))  # query rows [lo, hi) of equal count
    inv_sqrt = 1.0 / math.sqrt(dh)
    heads_out = np.empty((bsz, nq, heads, dh), dtype=xhat.dtype)
    exps = []  # each run's unnormalized exponentials and their row sums
    for lo, hi in runs:
        n = int(visible[lo])
        p = qh[:, :, lo:hi] @ k[..., :n]  # scores, then in place exponentials
        p *= inv_sqrt
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        total = np.einsum("...ij->...i", p)[..., None]
        np.divide(p @ v[:, :, :n], total, out=heads_out[:, lo:hi].transpose(0, 2, 1, 3))
        if recorded:
            exps.append((p, total))
    del qh, p  # the queries are freed before the projection allocates
    o2 = _project(heads_out.reshape(-1, d), wd, b.data)
    del heads_out
    out = Tensor(x.data[:, lead:] + o2.reshape(bsz, nq, d), dtype=x.dtype)
    if not recorded:
        return out

    def backward(g):
        if g is not None:
            g2 = g.reshape(-1, d)
            if nx.needs():  # the residual path, first as in the composition
                buf = np.zeros(nx.shape, nx.dtype)
                buf[:, lead:] = g
                nx.accumulate_owned(buf)
            att = np.empty((bsz, nq, heads, dh), dtype=xhat.dtype)
            for (lo, hi), (p, total) in zip(runs, exps):
                n = p.shape[-1]
                np.divide(p @ v[:, :, :n], total, out=att[:, lo:hi].transpose(0, 2, 1, 3))
                p /= total  # the probabilities
            _project_grads(att.reshape(-1, d), g2, nw, nb)
            del att
            gh = np.ascontiguousarray(
                (g2 @ wd.T).reshape(bsz, nq, heads, dh).transpose(0, 2, 1, 3))
            rows_q = _affine(xhat3[:, lead:], gd, bd).reshape(-1, d)
            qc = np.ascontiguousarray(
                _project(rows_q, qwd, qbd).reshape(bsz, nq, heads, dh).transpose(0, 2, 1, 3))
            dq = np.empty((bsz, nq, heads, dh), dtype=g.dtype)
            dk = np.zeros((bsz, heads, seen, dh), dtype=g.dtype)
            dv = np.zeros_like(dk)
            for (lo, hi), (p, _) in zip(runs, exps):
                n = p.shape[-1]
                ds = gh[:, :, lo:hi] @ v[:, :, :n].swapaxes(-1, -2)
                ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
                ds *= p
                ds *= inv_sqrt
                dq[:, lo:hi] = (ds @ k[..., :n].swapaxes(-1, -2)).transpose(0, 2, 1, 3)
                # for a one-row run these are outer products, which numpy's
                # matmul computes without BLAS, about 20x slower than multiply
                mm = np.multiply if hi - lo == 1 else np.matmul
                dk[:, :, :n] += mm(ds.swapaxes(-1, -2), qc[:, :, lo:hi])
                dv[:, :, :n] += mm(p.swapaxes(-1, -2), gh[:, :, lo:hi])
            del gh, qc
            for src, lo in rounds:
                n = src.shape[1]
                rows = max(min(lo + n, seen) - lo, 0)  # rows of src among the keys
                dsrc = np.zeros((bsz, n, 2, heads, dh), dtype=g.dtype)
                dsrc[:, :rows, 0] = dk[:, :, lo:lo + rows].transpose(0, 2, 1, 3)
                dsrc[:, :rows, 1] = dv[:, :, lo:lo + rows].transpose(0, 2, 1, 3)
                src.accumulate_owned(dsrc.reshape(bsz, n, 2 * d))
            del dk, dv
        dn = np.zeros((bsz, length, d), nx.dtype)  # the gradient of the normalized rows
        gkv = None if nkv is None else nkv.grad
        if gkv is not None:  # the key/value range, then the query range
            g2 = gkv.reshape(-1, 2 * d)
            _project_grads(_affine(xhat3[:, :keys], gd, bd).reshape(-1, d), g2, nkvw, nkvb)
            dn[:, :keys] += (g2 @ kvwd.T).reshape(bsz, keys, d)
        if g is not None:
            dq2 = dq.reshape(-1, d)
            _project_grads(rows_q, dq2, nqw, nqb)
            dn[:, lead:] += (dq2 @ qwd.T).reshape(bsz, nq, d)
        _normalize_backward(dn.reshape(-1, d), xhat, inv, gd, nx, ngain, nbias)

    out.node.sibling = nkv
    tape.record(out, backward)
    return out


# --------------------------------------------------------------------------
# conv2d (one GEMM per kernel tap on the phase-split input) and bilinear
# resize (one product per axis)
# --------------------------------------------------------------------------

def _phase_interiors(buf: np.ndarray, h: int, wd: int, stride: int,
                     padding: int, hq: int, wq: int):
    """``(view, index)`` pairs, one per phase of ``buf[B, s*s, C, L]``: the
    view is where the input pixels ``x[index]`` sit on that phase's
    ``[hq, wq]`` grid. Together the indices cover every input pixel once."""
    s = stride
    grid = buf[..., :hq * wq].reshape(buf.shape[0], s * s, buf.shape[2], hq, wq)
    out = []
    for p in range(s * s):
        ya, xa = (p // s - padding) % s, (p % s - padding) % s  # first x row, col
        r0, c0 = (ya + padding) // s, (xa + padding) // s
        rows = slice(r0, r0 + len(range(ya, h, s)))
        cols = slice(c0, c0 + len(range(xa, wd, s)))
        out.append((grid[:, p, :, rows, cols], np.s_[:, :, ya::s, xa::s]))
    return out


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over ``x[B, Cin, H, W]`` with ``w[Cout, Cin, kh, kw]``.

    The padded input is split once into stride x stride phases, each
    flattened per channel (for stride 1 the padded input itself). Kernel
    offset (i, j) then reads one phase at a fixed flat offset, as a
    ``[Cin, H2*Wq]`` matrix per sample on the "wide" output grid of Wq
    columns per row, of which the first W2 are real. The output is the sum
    over offsets of ``w[:, :, i, j] @ window``, cropped to W2 columns; the
    backward pass runs the same windows the other way. No column buffer is
    built (Anderson et al., Low-memory GEMM-based convolution algorithms
    for deep neural networks, 2017). Where the contracted side has one
    channel (Cin = 1 forward, Cout = 1 input gradient), a per-offset
    product would be an outer product, so its kh*kw shifted copies are
    stacked and contracted in one GEMM instead. Each sample is its own
    GEMM, so a row of a batch gets the bits of a batch of one."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv2d: x must be [B,Cin,H,W], w [Cout,Cin,kh,kw]")
    if x.data.shape[1] != w.data.shape[1]:
        raise DimensionError(
            f"conv2d: channel mismatch {x.data.shape[1]} vs {w.data.shape[1]}")
    bsz, cin, h, wd = x.data.shape
    cout, _, kh, kw = w.data.shape
    s, dt = stride, x.data.dtype
    hp, wp = h + 2 * padding, wd + 2 * padding
    h2, w2 = (hp - kh) // s + 1, (wp - kw) // s + 1
    hq, wq = -(-hp // s), -(-wp // s)
    n = h2 * wq  # one window: h2 rows of the wide grid
    lq = hq * wq + (kw - 1) // s  # the zero tail holds the last window's end
    # kernel offset (i, j) reads phase (i % s, j % s) at (i // s, j // s)
    taps = [(i, j, (i % s) * s + j % s, (i // s) * wq + j // s)
            for i in range(kh) for j in range(kw)]
    xq = np.zeros((bsz, s * s, cin, lq), dtype=dt)
    for view, index in _phase_interiors(xq, h, wd, s, padding, hq, wq):
        view[...] = x.data[index]
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # [kh, kw, Cout, Cin]
    if cin == 1:
        stack = np.empty((bsz, kh * kw, h2, w2), dtype=dt)
        for t, (_, _, p, o) in enumerate(taps):
            stack[:, t] = xq[:, p, 0, o:o + n].reshape(bsz, h2, wq)[..., :w2]
        stack = stack.reshape(bsz, kh * kw, h2 * w2)
        y = w.data.reshape(cout, kh * kw) @ stack
    else:
        yw = np.zeros((bsz, cout, n), dtype=dt)
        part = np.empty_like(yw)
        for i, j, p, o in taps:
            yw += np.matmul(wt[i, j], xq[:, p, :, o:o + n], out=part)
        y = np.ascontiguousarray(yw.reshape(bsz, cout, h2, wq)[..., :w2])
    y = y.reshape(bsz, cout, h2, w2)
    if b is not None:
        y += b.data[:, None, None]
    out = Tensor(y, dtype=x.dtype)
    nx, nw, wk = x.node, w.node, w.data
    nb = None if b is None else b.node
    parents = (nx, nw) if b is None else (nx, nw, nb)

    def backward(g):
        if nb is not None and nb.needs():
            nb.accumulate_owned(g.sum(axis=(0, 2, 3)))
        need_w, need_x = nw.needs(), nx.needs()
        if need_w and cin == 1:
            dw = (g.reshape(bsz, cout, h2 * w2) @ stack.swapaxes(1, 2)).sum(axis=0)
            nw.accumulate_owned(dw.reshape(nw.shape))
            need_w = False
        if not (need_w or need_x):
            return
        gw = np.zeros((bsz, cout, h2, wq), dtype=dt)
        gw[..., :w2] = g
        gw = gw.reshape(bsz, cout, n)
        dw = np.empty_like(wk) if need_w else None
        if cout == 1:
            # the kh*kw shifts of g onto the phase grid, one per kernel offset;
            # per phase, dx is one GEMM of them with the kernel (the
            # correlation of g with the flipped kernel) and dw one with xq
            shifted = np.zeros((bsz, kh, kw, lq), dtype=dt)
            for i, j, _, o in taps:
                shifted[:, i, j, o:o + n] = gw[:, 0]
            dq = np.empty_like(xq)
            for p in range(s * s):
                a, c = divmod(p, s)
                sp = shifted[:, a::s, c::s].reshape(bsz, -1, lq)  # this phase's offsets
                if need_w:
                    dwp = dw[0, :, a::s, c::s]
                    dwp[...] = (xq[:, p] @ sp.swapaxes(1, 2)).sum(axis=0).reshape(dwp.shape)
                if need_x:
                    np.matmul(wk[0, :, a::s, c::s].reshape(cin, -1), sp, out=dq[:, p])
        else:
            if need_w:
                for i, j, p, o in taps:
                    dw[:, :, i, j] = (gw @ xq[:, p, :, o:o + n].swapaxes(1, 2)).sum(axis=0)
            if need_x:
                dq = np.zeros_like(xq)
                part = np.empty((bsz, cin, n), dtype=dt)
                for i, j, p, o in taps:
                    dq[:, p, :, o:o + n] += np.matmul(wt[i, j].T, gw, out=part)
        if need_w:
            nw.accumulate_owned(dw)
        if need_x:
            dx = np.empty(nx.shape, nx.dtype)
            for view, index in _phase_interiors(dq, h, wd, s, padding, hq, wq):
                dx[index] = view
            nx.accumulate_owned(dx)

    return _maybe_record(out, parents, backward)


_RESIZE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _axis_weights(n_src: int, n_dst: int) -> np.ndarray:
    """[n_dst, n_src] float32 bilinear weights along one axis, align-corners:
    destination i reads source position p = i*(n_src-1)/(n_dst-1), and
    source j gets the tent weight max(0, 1 - |p - j|). Built once per
    extent pair."""
    hit = _RESIZE_CACHE.get((n_src, n_dst))
    if hit is None:
        pos = np.arange(n_dst)[:, None] * (n_src - 1) / max(n_dst - 1, 1)
        hit = np.maximum(0.0, 1.0 - np.abs(pos - np.arange(n_src))).astype(np.float32)
        _RESIZE_CACHE[(n_src, n_dst)] = hit
    return hit


def resize_bilinear(x: Tensor, size: tuple[int, int]) -> Tensor:
    """Bilinear resize of the trailing two axes to ``size``, align-corners
    (the corner pixels of input and output coincide). Differentiable. Each
    ``[h, w]`` map becomes ``wy @ map @ wx.T`` with the per-axis weights
    ``wy = _axis_weights(h, h')`` and ``wx = _axis_weights(w, w')``; its
    gradient is ``wy.T @ g @ wx``."""
    h2, w2 = int(size[0]), int(size[1])
    if h2 < 1 or w2 < 1:
        raise DimensionError("resize_bilinear: target extents must be >= 1")
    if x.data.ndim < 2:
        raise DimensionError("resize_bilinear: input must have spatial axes")
    h, w = x.data.shape[-2], x.data.shape[-1]
    wy = _axis_weights(h, h2).astype(x.data.dtype, copy=False)
    wx = _axis_weights(w, w2).astype(x.data.dtype, copy=False)
    y = wy @ x.data.reshape(-1, h, w) @ wx.T
    out = Tensor(y.reshape(x.data.shape[:-2] + (h2, w2)), dtype=x.dtype)
    nx = x.node

    def backward(g):
        if nx.needs():
            nx.accumulate_owned((wy.T @ g.reshape(-1, h2, w2) @ wx).reshape(nx.shape))

    return _maybe_record(out, (nx,), backward)

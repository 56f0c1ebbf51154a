"""Dense float32 tensors with reverse-mode automatic differentiation.

The engine is tape-based: while a ``Tape`` is active, every primitive op
appends a record holding the output tensor and a closure that propagates
the output gradient to the inputs. Records are appended in construction
order, which is a topological order of the DAG, so ``backward()`` is a
single reverse sweep that visits each node exactly once. Outside a tape,
ops run as plain numpy and build no graph.

``backward()`` consumes the tape: it pops each record before running its
closure, so every closure and the activations only it kept are freed
during the sweep, and leaving the ``with Tape()`` block drops whatever
records remain (a step that raised before ``backward()``). A recorded
tensor points at its tape but the emptied tape points at nothing, so a
step's graph is freed by reference counting, without waiting for the
cyclic garbage collector.

Parameters and activations are float32. Tests may build float64 tensors
(``dtype=np.float64``) to sharpen finite-difference checks; the kernels
are dtype-preserving.

No implicit broadcasting: elementwise ops require exact shape equality.
The few places that need a broadcast (bias add, positional-table add)
are explicit named ops with hand-written backward passes. Attention takes
no additive mask: it gets each query row's count of visible keys and
never scores the keys beyond it. It takes the queries and the keys/values
as two tensors, so a caller projects only the rows it reads.

Untaped, an op may skip work its backward pass would need: attention
never normalizes its probabilities, and ``layer_norm`` and ``gelu`` work
in place. A taped call computes its output the same way, so the two
agree bit for bit.

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
        self.records: list[tuple["Tensor", Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self
        self.records.clear()

    def record(self, out: "Tensor", backward: Callable[[np.ndarray], None]) -> None:
        out._tape = self
        self.records.append((out, backward))


def active_tape() -> Optional[Tape]:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


# --------------------------------------------------------------------------
# tensor
# --------------------------------------------------------------------------


class Tensor:
    """N-dimensional float array, optionally participating in the grad tape.

    ``grad`` is populated by ``backward()`` for every tensor on the path
    from the loss to a leaf with ``requires_grad=True``; it always has the
    same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if dtype is None:  # the engine's working precision
            arr = arr.astype(np.float32, copy=False)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._tape: Optional[Tape] = None

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

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- graph participation --------------------------------------------------

    def _needs_grad(self) -> bool:
        return self.requires_grad or self._tape is not None

    def _accumulate(self, g: np.ndarray) -> None:
        """Accumulate a gradient the caller may still alias (copies once)."""
        if self.grad is None:
            if g.dtype != self.data.dtype:
                g = g.astype(self.data.dtype)
            self.grad = g.copy()
        else:
            self.grad += g

    def _accumulate_owned(self, g: np.ndarray) -> None:
        """Accumulate a freshly-allocated gradient buffer (takes ownership)."""
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else g.astype(self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse sweep from this scalar through its tape, consuming it.

        Each record is popped before its closure runs, so the tape is empty
        afterwards and a second call propagates nothing."""
        if self._tape is None:
            raise RuntimeError("backward() on a tensor that is not on a tape")
        if self.data.size != 1:
            raise RuntimeError("backward() requires a scalar output")
        self.grad = np.ones_like(self.data)
        records = self._tape.records
        while records:
            out, fn = records.pop()
            if out.grad is not None:
                fn(out.grad)


def _maybe_record(out: Tensor, parents: Sequence[Tensor],
                  backward: Callable[[np.ndarray], None]) -> Tensor:
    tape = active_tape()
    if tape is not None and any(p._needs_grad() for p in parents):
        tape.record(out, backward)
    return out


# --------------------------------------------------------------------------
# elementwise / structural ops
# --------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            a._accumulate(g)
        if b._needs_grad():
            b._accumulate(g)

    return _maybe_record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data, dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            a._accumulate(g)
        if b._needs_grad():
            b._accumulate_owned(-g)

    return _maybe_record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            a._accumulate_owned(g * b.data)
        if b._needs_grad():
            b._accumulate_owned(g * a.data)

    return _maybe_record(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            a._accumulate_owned(g * s)

    return _maybe_record(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            a._accumulate(g.reshape(a.data.shape))

    return _maybe_record(out, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(tensors)
    if not parts:
        raise DimensionError("concat: need at least one tensor")
    out = Tensor(np.concatenate([t.data for t in parts], axis=axis),
                 dtype=parts[0].dtype)
    sizes = [t.data.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if t._needs_grad():
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _maybe_record(out, parts, backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(np.ascontiguousarray(a.data[idx]), dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            buf = np.zeros_like(a.data)
            buf[idx] = g
            a._accumulate_owned(buf)

    return _maybe_record(out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(dtype=a.dtype), dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            a._accumulate_owned(np.full_like(a.data, g))

    return _maybe_record(out, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean(dtype=a.dtype), dtype=a.dtype)

    def backward(g):
        if a._needs_grad():
            a._accumulate_owned(np.full_like(a.data, g / n))

    return _maybe_record(out, (a,), backward)


# --------------------------------------------------------------------------
# linear algebra
# --------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``; fused bias add."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(
            f"linear: input width {x.data.shape[-1]} != weight rows {w.data.shape[0]}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y2 = x2 @ w.data
    if b is not None:
        if b.data.shape != (w.data.shape[1],):
            raise DimensionError("linear: bias shape mismatch")
        np.add(y2, b.data, out=y2)
    out_shape = x.data.shape[:-1] + (w.data.shape[1],)
    out = Tensor(y2.reshape(out_shape), dtype=x.dtype)
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x._needs_grad():
            x._accumulate_owned((g2 @ w.data.T).reshape(x.data.shape))
        if w._needs_grad():
            w._accumulate_owned(x2.T @ g2)
        if b is not None and b._needs_grad():
            b._accumulate_owned(g2.sum(axis=0))

    return _maybe_record(out, parents, backward)


def add_table(x: Tensor, t: Tensor) -> Tensor:
    """Add a per-position table ``t[L, D]`` to every batch row of ``x[B, L, D]``."""
    if x.data.ndim != 3 or t.data.shape != x.data.shape[1:]:
        raise DimensionError(
            f"add_table: expected x[B,L,D] and t[L,D], got {x.shape} and {t.shape}")
    out = Tensor(x.data + t.data[None, :, :], dtype=x.dtype)

    def backward(g):
        if x._needs_grad():
            x._accumulate(g)
        if t._needs_grad():
            t._accumulate_owned(g.sum(axis=0))

    return _maybe_record(out, (x, t), backward)


# --------------------------------------------------------------------------
# nonlinearities and normalization
# --------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh form (GPT-2 convention): y = s x with s = (1 + tanh u) / 2
    and u = c x (1 + a x^2). One fresh buffer, plus one keeping s for the
    backward pass when the op is recorded; 8 passes over the array forward
    and 9 backward."""
    xd = x.data
    s = xd * xd  # avoids slow float pow
    s *= _GELU_C * _GELU_A
    s += _GELU_C
    s *= xd
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    recorded = active_tape() is not None and x._needs_grad()
    y = s * xd if recorded else np.multiply(s, xd, out=s)
    out = Tensor(y, dtype=x.dtype)

    def backward(g):
        if x._needs_grad():
            # dy/dx = s + x s (1 - s) 2 c (1 + 3 a x^2), as (1 - tanh^2 u) / 2
            # is 2 s (1 - s)
            du = xd * xd
            du *= 6.0 * _GELU_C * _GELU_A
            du += 2.0 * _GELU_C
            du *= xd
            du *= 1.0 - s
            du *= s
            du += s
            du *= g
            x._accumulate_owned(du)

    return _maybe_record(out, (x,), backward)


LN_EPS = 1e-5  # added to the variance before the square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then affine. Row
    means and variances are ``einsum`` reductions; untaped, the affine is
    applied in place."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError("layer_norm: gain/bias must match last axis")
    x2 = x.data.reshape(-1, d)
    xhat = x2 - (np.einsum("nc->n", x2) / d)[:, None]
    inv = (1.0 / np.sqrt(np.einsum("nc,nc->n", xhat, xhat) / d + LN_EPS))[:, None]
    xhat *= inv
    recorded = active_tape() is not None and any(
        t._needs_grad() for t in (x, gain, bias))
    y = xhat * gain.data if recorded else np.multiply(xhat, gain.data, out=xhat)
    y += bias.data
    out = Tensor(y.reshape(x.data.shape), dtype=x.dtype)

    def backward(g):
        g2 = g.reshape(-1, d)
        if gain._needs_grad():
            gain._accumulate_owned(np.einsum("nc,nc->c", g2, xhat))
        if bias._needs_grad():
            bias._accumulate_owned(g2.sum(axis=0))
        if x._needs_grad():
            gy = g2 * gain.data
            m1 = np.einsum("nc->n", gy) / d
            m2 = np.einsum("nc,nc->n", gy, xhat) / d
            gy -= m1[:, None]
            gy -= xhat * m2[:, None]
            gy *= inv
            x._accumulate_owned(gy.reshape(x.data.shape))

    return _maybe_record(out, (x, gain, bias), backward)


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

    def backward(g):
        if table._needs_grad():
            buf = np.zeros_like(table.data)
            np.add.at(buf, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
            table._accumulate_owned(buf)

    return _maybe_record(out, (table,), backward)


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

    def backward(g):
        if logits._needs_grad():
            p = e / z
            p[np.arange(n), t] -= 1.0
            logits._accumulate_owned(p * (g / n))

    return _maybe_record(out, (logits,), backward)


# --------------------------------------------------------------------------
# attention (fused)
# --------------------------------------------------------------------------


class KVCache:
    """Keys and values of the rows one attention layer has seen (a fresh
    one for a ``multihead_attention`` call given none). Keys are stored
    key-major, ``k[B, H, dh, L]``, so a score GEMM reads a contiguous prefix
    of each row; values are ``v[B, H, L, dh]``. ``len()`` counts the L
    cached keys. ``rows`` counts the sequence rows the layer has seen,
    which its caller advances; it exceeds the keys once rows arrive that no
    later row reads, and those are never cached. Under a tape the cache
    also keeps each round's ``kv`` Tensor with the position of its first
    key, so that later rounds can send key/value gradients back to the
    rows they attended to."""

    def __init__(self) -> None:
        self.k: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.rows = 0
        self.rounds: list[tuple[Tensor, int]] = []

    def __len__(self) -> int:
        return 0 if self.k is None else self.k.shape[3]


def multihead_attention(q: Tensor, kv: Optional[Tensor], heads: int,
                        visible: np.ndarray,
                        cache: Optional[KVCache] = None) -> Tensor:
    """Fused attention of the query rows ``q[B, N, D]`` over keys and values
    ``kv[B, M, 2D]`` (keys in the first D columns), where query row i sees
    only the first ``visible[i]`` keys. The output is ``[B, N, D]``.

    The keys are those of ``cache`` followed by the rows of ``kv``, and the
    cache gains them; without a cache the call runs over a fresh empty
    one, so the keys are the rows of ``kv``. ``kv`` may be None when the
    call adds no keys. Each run of query rows with equal counts scores,
    exponentiates and averages its own key prefix, so no score is computed
    for a key a row may not see. The output is divided by the row sums of
    the exponentials, and the ``[B, H, r, n]`` probabilities are normalized
    only on a tape, where the backward pass keeps them (Dao et al.,
    FlashAttention, 2022); the output's bits are the same either way. The
    whole block is one tape record, which keeps the training loop off the
    Python floor. Recorded on a tape, the backward pass sends the query
    gradient to ``q`` and the key/value gradient of every visible key to
    the ``kv`` rows it came from, earlier rounds' rows included.
    """
    if q.data.ndim != 3 or q.data.shape[-1] % heads != 0:
        raise DimensionError("multihead_attention: expected q [B, N, D]")
    b, nq, d = q.data.shape
    dh = d // heads
    nk = 0 if kv is None else kv.data.shape[1]
    if kv is not None and kv.data.shape != (b, nk, 2 * d):
        raise DimensionError(
            f"multihead_attention: kv {kv.shape} does not match q {q.shape}")
    if cache is None:
        cache = KVCache()
    first = len(cache)  # position of kv's first key
    seen = int(visible.max()) if nq else 0  # keys any query sees
    if nq != len(visible) or (nq and (visible.min() < 1 or seen > first + nk)):
        raise DimensionError(
            f"multihead_attention: {nq} query rows need as many counts, "
            f"each in [1, {first + nk}]")
    qh = q.data.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3)
    if kv is not None:
        arr = kv.data.reshape(b, nk, 2, heads, dh)
        k = arr[:, :, 0].transpose(0, 2, 3, 1)
        v = arr[:, :, 1].transpose(0, 2, 1, 3)
        if cache.k is None:
            cache.k, cache.v = np.ascontiguousarray(k), np.ascontiguousarray(v)
        else:
            cache.k = np.concatenate([cache.k, k], axis=3)
            cache.v = np.concatenate([cache.v, v], axis=2)
        if active_tape() is not None and kv._needs_grad():
            cache.rounds.append((kv, first))
    k, v = cache.k, cache.v
    rounds = cache.rounds[:]  # (kv rows, position of their first key); later calls append
    taped = active_tape() is not None and (q._needs_grad() or bool(rounds))
    edges = [0, *(np.flatnonzero(np.diff(visible)) + 1).tolist(), nq] if nq else []
    runs = list(zip(edges[:-1], edges[1:]))  # query rows [lo, hi) of equal count
    inv_sqrt = 1.0 / math.sqrt(dh)
    heads_out = np.empty((b, nq, heads, dh), dtype=q.dtype)
    probs = []
    for lo, hi in runs:
        n = int(visible[lo])
        p = qh[:, :, lo:hi] @ k[..., :n]  # scores, then in place exponentials
        p *= inv_sqrt
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        total = np.einsum("...ij->...i", p)[..., None]
        np.divide(p @ v[:, :, :n], total, out=heads_out[:, lo:hi].transpose(0, 2, 1, 3))
        if taped:
            p /= total
            probs.append(p)
    out = Tensor(heads_out.reshape(b, nq, d), dtype=q.dtype)

    def backward(g):
        qc = np.ascontiguousarray(qh)
        gh = np.ascontiguousarray(
            g.reshape(b, nq, heads, dh).transpose(0, 2, 1, 3))
        dq = np.empty((b, nq, heads, dh), dtype=g.dtype)
        dk = np.zeros((b, heads, seen, dh), dtype=g.dtype)
        dv = np.zeros_like(dk)
        for (lo, hi), p in zip(runs, probs):
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
        if q._needs_grad():
            q._accumulate_owned(dq.reshape(b, nq, d))
        for src, lo in rounds:
            n = src.data.shape[1]
            keys = max(min(lo + n, seen) - lo, 0)  # rows of src among the keys
            dsrc = (np.empty if keys == n else np.zeros)((b, n, 2, heads, dh), dtype=g.dtype)
            dsrc[:, :keys, 0] = dk[:, :, lo:lo + keys].transpose(0, 2, 1, 3)
            dsrc[:, :keys, 1] = dv[:, :, lo:lo + keys].transpose(0, 2, 1, 3)
            src._accumulate_owned(dsrc.reshape(b, n, 2 * d))

    return _maybe_record(out, [q] + [src for src, _ in rounds], backward)


# --------------------------------------------------------------------------
# conv2d (one GEMM per kernel tap on the phase-split input) and bilinear
# resize (matrix form)
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
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if b is not None and b._needs_grad():
            b._accumulate_owned(g.sum(axis=(0, 2, 3)))
        need_w, need_x = w._needs_grad(), x._needs_grad()
        if need_w and cin == 1:
            dw = (g.reshape(bsz, cout, h2 * w2) @ stack.swapaxes(1, 2)).sum(axis=0)
            w._accumulate_owned(dw.reshape(w.data.shape))
            need_w = False
        if not (need_w or need_x):
            return
        gw = np.zeros((bsz, cout, h2, wq), dtype=dt)
        gw[..., :w2] = g
        gw = gw.reshape(bsz, cout, n)
        dw = np.empty_like(w.data) if need_w else None
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
                    np.matmul(w.data[0, :, a::s, c::s].reshape(cin, -1), sp, out=dq[:, p])
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
            w._accumulate_owned(dw)
        if need_x:
            dx = np.empty_like(x.data)
            for view, index in _phase_interiors(dq, h, wd, s, padding, hq, wq):
                dx[index] = view
            x._accumulate_owned(dx)

    return _maybe_record(out, parents, backward)


_RESIZE_CACHE: dict[tuple, np.ndarray] = {}


def _axis_weights(n_src: int, n_dst: int) -> np.ndarray:
    """[n_dst, n_src] bilinear weight matrix, align-corners convention."""
    m = np.zeros((n_dst, n_src))
    if n_src == 1:
        m[:, 0] = 1.0
        return m
    for i in range(n_dst):
        pos = i * (n_src - 1) / (n_dst - 1) if n_dst > 1 else 0.0
        lo = int(math.floor(pos))
        hi = min(lo + 1, n_src - 1)
        f = pos - lo
        m[i, lo] += 1.0 - f
        m[i, hi] += f
    return m


def resize_matrix(src_hw: tuple[int, int], dst_hw: tuple[int, int]) -> np.ndarray:
    """Dense ``[dst_h*dst_w, src_h*src_w]`` bilinear interpolation matrix."""
    key = (src_hw, dst_hw)
    hit = _RESIZE_CACHE.get(key)
    if hit is None:
        wy = _axis_weights(src_hw[0], dst_hw[0])
        wx = _axis_weights(src_hw[1], dst_hw[1])
        hit = np.kron(wy, wx).astype(np.float32)
        _RESIZE_CACHE[key] = hit
    return hit


def resize_bilinear(x: Tensor, size: tuple[int, int]) -> Tensor:
    """Bilinear resize of the trailing two axes, align-corners. Differentiable."""
    h2, w2 = int(size[0]), int(size[1])
    if h2 < 1 or w2 < 1:
        raise DimensionError("resize_bilinear: target extents must be >= 1")
    if x.data.ndim < 2:
        raise DimensionError("resize_bilinear: input must have spatial axes")
    h, w = x.data.shape[-2], x.data.shape[-1]
    r = resize_matrix((h, w), (h2, w2)).astype(x.data.dtype, copy=False)
    lead = x.data.shape[:-2]
    y = x.data.reshape(-1, h * w) @ r.T
    out = Tensor(y.reshape(lead + (h2, w2)), dtype=x.dtype)

    def backward(g):
        if x._needs_grad():
            gx = g.reshape(-1, h2 * w2) @ r
            x._accumulate_owned(gx.reshape(x.data.shape))

    return _maybe_record(out, (x,), backward)

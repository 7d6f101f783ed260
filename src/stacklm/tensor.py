"""Dense tensors with reverse-mode differentiation on an explicit tape.

The design goal is an auditable core rather than a general array library:
tensors are plain row-major numpy arrays, every differentiable primitive is a
free function, and the tape records primitives in execution order so the
backward pass can pop them in exact reverse order, freeing each node's saved
activations and output gradient as it goes.  Broadcasting is limited to the
patterns a transformer needs (trailing-dimension bias adds and constant mask
adds).

The recording rule has no exceptions: while a tape is active, every
primitive applied is recorded, and ``Tape.backward`` fills ``grad`` on every
input it reaches.  With no active tape nothing is recorded.

No gradient array is written after the tape hands it to a tensor: a first
gradient is taken over without a copy and later ones are summed out of
place, so one array may be the gradient of several tensors (``add``,
``reshape`` and ``transpose`` hand on their upstream gradient or a view).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

# Additive mask value for attention logits.  Large enough that exp() of a
# masked score underflows to exactly 0.0 in both float32 and float64.
MASK_VALUE = -1e9

# Python floats, not numpy scalars: under NumPy 2 promotion a float64
# scalar would lift float32 activations to float64.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A dense array plus its gradient slot.

    ``data`` is always a numpy float array; ``grad`` is filled in (same
    shape) by ``Tape.backward`` on every tensor the backward pass reaches.
    ``grad`` may share memory with another tensor's gradient, so it is
    read, never written: the tape replaces it rather than adding in place.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class Tape:
    """Ordered record of primitive applications for one backward pass.

    While the tape is active (``with Tape() as tape:``), every primitive
    applied appends one node ``(inputs, output, backward_fn)``, whatever
    its inputs.  ``backward`` pops the nodes in exact reverse order, a
    reverse topological order of the recorded graph, fills ``grad`` on
    every input it reaches and drops each node once it has run.  A tape
    is single-use.
    """

    def __init__(self):
        self._nodes: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False

    def record(self, inputs, output: Tensor, backward_fn) -> None:
        self._nodes.append((tuple(inputs), output, backward_fn))

    def backward(self, root: Tensor, seed_grad: Optional[np.ndarray] = None) -> None:
        """Propagate gradients from ``root`` back through every recorded node.

        ``seed_grad`` defaults to ones (the usual scalar-loss case); it is
        copied, as it may be the caller's array.  Raises if the tape was
        already consumed; re-record the forward pass instead.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by backward(); re-record the forward pass")
        self._consumed = True
        if seed_grad is None:
            seed_grad = np.ones_like(root.data)
        _accumulate(root, np.array(seed_grad, dtype=root.dtype))
        while self._nodes:
            inputs, output, backward_fn = self._nodes.pop()
            if output.grad is None:
                continue
            for tensor, grad in zip(inputs, backward_fn(output.grad)):
                if grad is not None:
                    _accumulate(tensor, grad)


_ACTIVE_TAPE: Optional[Tape] = None


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if grad.shape != tensor.data.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match tensor shape {tensor.data.shape}")
    grad = grad.astype(tensor.dtype, copy=False)
    tensor.grad = grad if tensor.grad is None else tensor.grad + grad


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(inputs, out, backward_fn)
    return out


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape`` (trailing-aligned)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise / structural primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` is a same-shape tensor or one that broadcasts
    against ``a`` trailing-aligned, such as a bias."""
    out = a.data + b.data
    if out.shape != a.data.shape:
        raise ShapeError(f"add result shape {out.shape} must match left operand {a.data.shape}")

    def backward(g):
        return g, _sum_to_shape(g, b.data.shape)

    return _record((a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with the same broadcasting contract as ``add``."""
    out = a.data * b.data
    if out.shape != a.data.shape:
        raise ShapeError(f"mul result shape {out.shape} must match left operand {a.data.shape}")

    def backward(g):
        return _sum_to_shape(g * b.data, a.data.shape), _sum_to_shape(g * a.data, b.data.shape)

    return _record((a, b), out, backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        return (g * c,)

    return _record((a,), a.data * np.asarray(c, dtype=a.dtype), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported shapes: 2-D x 2-D, N-D x 2-D (applying a weight matrix to a
    batch), and N-D x N-D with identical leading batch dimensions
    (attention).  Backward accumulates dA = dC @ B^T and dB = A^T @ dC.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} x {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions disagree: {ad.shape} x {bd.shape}")
    out = ad @ bd

    def backward(g):
        da = g @ np.swapaxes(bd, -1, -2)
        if bd.ndim == 2 and ad.ndim > 2:
            db = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            db = np.swapaxes(ad, -1, -2) @ g
        return da, db

    return _record((a, b), out, backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _record((a,), np.transpose(a.data, axes), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _record((a,), a.data.reshape(shape), backward)


def _gather(a: Tensor, axis: int, key) -> Tensor:
    """``a.data`` indexed by ``key`` along ``axis`` (basic indexing); the
    gradient scatters into zeros."""
    index = [slice(None)] * a.ndim
    index[axis] = key
    index = tuple(index)

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _record((a,), a.data[index].copy(), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis (used to split fused projections)."""
    return _gather(a, axis, slice(start, start + length))


def select(a: Tensor, index: int, axis: int) -> Tensor:
    """Pick one position along ``axis`` (removing the axis)."""
    return _gather(a, axis, index)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        return (np.full_like(a.data, g),)

    return _record((a,), np.asarray(a.data.sum(), dtype=a.dtype), backward)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


# Odd rational erf(x) ~ x * P(x^2) / Q(x^2) on [-4, 4], the float32
# approximation of Eigen and XLA; Horner order, highest power first.
_ERF_P = (
    -2.72614225801306e-10,
    2.77068142495902e-08,
    -2.10102402082508e-06,
    -5.69250639462346e-05,
    -7.34990630326855e-04,
    -2.95459980854025e-03,
    -1.60960333262415e-02,
)
_ERF_Q = (
    -1.45660718464996e-05,
    -2.13374055278905e-04,
    -1.68282697438203e-03,
    -7.37332916720468e-03,
    -1.42647390514189e-02,
)
_erf64 = np.vectorize(math.erf, otypes=[np.float64])


def _horner(z2: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    acc = z2 * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= z2
    acc += coeffs[-1]
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function, in the dtype of ``x``.

    float32 evaluates the clamped rational in float32 (absolute error at
    most 2**-21 against ``math.erf``: float32 rounding in P and Q, not the
    fit, sets that floor).  Beyond |x| = 4, erf is 1 in float32.  Any other
    dtype goes through ``math.erf`` element by element, in float64.
    """
    if x.dtype != np.float32:
        return np.asarray(_erf64(x))
    z = np.clip(x, -4.0, 4.0).reshape(-1)  # 1-D: ufuncs return 0-d results as scalars
    z2 = z * z
    p = _horner(z2, _ERF_P)
    p *= z
    p /= _horner(z2, _ERF_Q)
    # rounding in P / Q can overshoot 1 by an ulp, which would push the
    # gelu cdf outside [0, 1]
    return np.clip(p, -1.0, 1.0, out=p).reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf) GELU, x * Phi(x).

    Phi(x) = (1 + erf(x / sqrt(2))) / 2; in float32 that erf is within
    2**-21 (~4.8e-7) absolute of the exact value (see ``_erf``).  The
    backward uses the exact normal density of the unclamped input.
    """
    x = a.data
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def backward(g):
        d = x * x
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x
        d += cdf
        d *= g
        return (d,)

    return _record((a,), out, backward)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _record((a,), out, backward)


def softmax(a: Tensor, additive_mask: Optional[np.ndarray] = None) -> Tensor:
    """Row softmax over the last axis, with an optional constant additive
    mask (e.g. causal or padding mask built from ``MASK_VALUE``)."""
    x = a.data
    if additive_mask is not None:
        x = x + additive_mask
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record((a,), out, backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm needs a non-empty last dimension")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        reduce_axes = tuple(range(x.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        return dx, dgain, dbias

    return _record((x, gain, bias), out, backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather; the backward pass is a scatter-add into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range [0, {table.shape[0]}) in embedding lookup")
    out = table.data[ids]

    def backward(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (dtable,)

    return _record((table,), out, backward)


def dropout(x: Tensor, p: float, rng: Optional["DropoutRng"], layer: int, slot: int) -> Tensor:
    """Inverted dropout.

    ``rng`` carries the counter-based stream; passing ``None`` (evaluation
    mode) or ``p == 0`` makes this the identity.  The keep mask is a pure
    function of (seed, step, example id, layer, slot) so recomputation and
    sharded execution reproduce it exactly.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    mask = rng.keep_mask(layer, slot, x.shape, p).astype(x.dtype, copy=False)

    def backward(g):
        return (g * mask,)

    return _record((x,), x.data * mask, backward)


_MASK64 = (1 << 64) - 1
_GOLDEN32 = np.uint32(0x9E3779B9)  # 2**32 / golden ratio, odd: a full-period counter stride


def _mix64(z: int) -> int:
    """SplitMix64 output function on a Python int (a 64-bit bijection)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(key: int, *fields: int) -> int:
    for field in fields:
        key = _mix64(key ^ (field & _MASK64))
    return key


def _lowbias32(x: np.ndarray) -> np.ndarray:
    """In-place 32-bit avalanche finalizer ("lowbias32") on a uint32 array."""
    x ^= x >> 16
    x *= np.uint32(0x7FEB352D)
    x ^= x >> 15
    x *= np.uint32(0x846CA68B)
    x ^= x >> 16
    return x


class DropoutRng:
    """Counter-based dropout stream.

    Masks are derived per example row from ``(seed, step, example_id,
    layer, slot)``, never from call timing or the row's position in the
    batch, so a forward pass replayed for activation recomputation, or run
    shard-by-shard, draws identical masks.

    In the style of counter-based generators (Salmon et al., "Parallel
    Random Numbers: As Easy as 1, 2, 3", SC'11): SplitMix64 folds the key
    fields into one 32-bit key per row, element ``i`` of the row gets the
    counter ``key + i * golden`` (mod 2**32), and the lowbias32 finalizer
    turns counters into uniform 32-bit words.  An element is kept when its
    word is at least ``ceil(p * 2**32)``, so all rows are drawn in one
    vectorized pass.
    """

    _DOMAIN = 0x51AC  # keeps dropout draws disjoint from init/masking draws

    def __init__(self, seed: int, step: int, example_ids: Sequence[int]):
        base = _fold(self._DOMAIN, int(seed), int(step))
        self._row_keys = [_fold(base, int(ex)) for ex in example_ids]

    def keep_mask(self, layer: int, slot: int, shape: tuple[int, ...], p: float) -> np.ndarray:
        """Float32 inverted-dropout mask: 0 or ``1 / (1 - p)`` per element."""
        if len(shape) < 2 or shape[0] != len(self._row_keys):
            raise ShapeError(f"dropout input leading dim {shape[:1]} must match {len(self._row_keys)} example rows")
        keys = np.array([_fold(k, layer, slot) >> 32 for k in self._row_keys], dtype=np.uint32)
        counters = np.arange(math.prod(shape[1:]), dtype=np.uint32) * _GOLDEN32
        words = _lowbias32(keys[:, None] + counters)
        # p < 1, but ceil(p * 2**32) reaches 2**32 for p within 2**-32 of 1
        threshold = np.uint32(min(math.ceil(p * 2.0**32), 2**32 - 1))
        scale = np.float32(1.0 / (1.0 - p))
        return np.multiply(words >= threshold, scale, dtype=np.float32).reshape(shape)


# ---------------------------------------------------------------------------
# Fused loss head
# ---------------------------------------------------------------------------


def softmax_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
    normalizer: Optional[float] = None,
) -> Tensor:
    """Mean of -log softmax(logits)[target] over positions with nonzero mask.

    ``logits`` is (..., V); ``targets`` holds integer ids of shape
    logits.shape[:-1]; ``mask`` is a same-shape weight array (defaults to
    all ones).  Positions with zero weight contribute nothing.  A zero total
    weight yields a zero loss with zero gradient.  ``normalizer`` overrides
    the denominator (the mask sum) so a batch shard can be normalized by
    the full-batch weight.
    """
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} must equal logits shape {logits.shape[:-1]}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(f"target id out of range [0, {vocab})")
    if mask is None:
        mask = np.ones(targets.shape, dtype=logits.dtype)
    mask = np.asarray(mask, dtype=logits.dtype)

    x = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(x).sum(axis=-1, keepdims=True))
    log_probs = x - logsumexp
    flat_lp = log_probs.reshape(-1, vocab)
    flat_t = targets.reshape(-1)
    nll = -flat_lp[np.arange(flat_t.size), flat_t].reshape(targets.shape)
    total_weight = float(mask.sum()) if normalizer is None else float(normalizer)
    if total_weight == 0.0:
        mask, total_weight = np.zeros_like(mask), 1.0
    loss = np.asarray((nll * mask).sum() / total_weight, dtype=logits.dtype)

    def backward(g):
        probs = np.exp(log_probs)
        flat_p = probs.reshape(-1, vocab).copy()
        flat_p[np.arange(flat_t.size), flat_t] -= 1.0
        weighted = flat_p * (mask.reshape(-1, 1) / total_weight)
        return (g * weighted.reshape(logits.data.shape),)

    return _record((logits,), loss, backward)


# ---------------------------------------------------------------------------
# Activation recomputation
# ---------------------------------------------------------------------------


def checkpoint(fn: Callable[[Tensor], Tensor], x: Tensor) -> Tensor:
    """Run ``fn`` discarding intermediate activations; recompute on backward.

    The forward pass executes ``fn`` unrecorded (values only).  The tape
    gets a single node whose backward replays ``fn`` on a private sub-tape
    and pushes the upstream gradient through it.  Parameters captured by
    ``fn`` accumulate their gradients during the replay exactly as they
    would have on the flat tape, so results are bit-identical provided
    ``fn`` draws randomness from counter-based streams only.
    """
    global _ACTIVE_TAPE
    tape = _ACTIVE_TAPE
    if tape is None:
        return fn(x)
    _ACTIVE_TAPE = None
    try:
        primary = fn(x)
    finally:
        _ACTIVE_TAPE = tape

    def backward(g):
        proxy = Tensor(x.data)
        with Tape() as sub:
            replay = fn(proxy)
        if not np.array_equal(replay.data, primary.data):
            raise RuntimeError("recomputed activations disagree with the original forward pass")
        sub.backward(replay, seed_grad=g)
        return (proxy.grad,)

    return _record((x,), primary.data, backward)

"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

The primitive set is deliberately small: exactly what a relative-position
Transformer encoder and its losses need. There is no general broadcasting
engine; ``add`` supports the single (rows, d) + (d,) bias case and everything
else requires matching shapes.

A ``Tape`` is single-owner: one forward computation per tape, never shared
across concurrent executions. Tensors are immutable values after creation
(callers must not mutate the backing array they pass in). Running ops on
tensors that carry no tape performs a plain forward computation with no
recording, which is what the finite-difference checker relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand dimensions incompatible with the requested operation."""


class ContractError(RuntimeError):
    """An operation was invoked outside its contract."""


class Tensor:
    """Immutable dense float64 value, optionally bound to a tape node.

    Extended-precision (longdouble) arrays are passed through unchanged;
    the finite-difference checker uses them for its reference evaluations.
    Creation rejects NaN/Inf unless ``check=False``, which ops pass for their
    own outputs; gradient sanity is enforced separately by the trainer.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape: "Tape | None" = None,
                 node_id: int | None = None, check: bool = True):
        data = np.asarray(values)
        if data.dtype != np.float64 and data.dtype != np.longdouble:
            data = data.astype(np.float64)
        if not data.flags["C_CONTIGUOUS"]:
            data = np.ascontiguousarray(data)
        if check and not np.all(np.isfinite(data)):
            raise ContractError("tensor creation rejected: non-finite values")
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def constant(values, check: bool = True) -> Tensor:
    """Tensor that participates in ops but receives no gradient."""
    return Tensor(values, check=check)


@dataclass
class Node:
    """One recorded operation: kind, input node ids, and per-input VJPs.

    The VJP closures capture whatever forward values the backward rule needs.
    """

    op: str
    inputs: tuple[int, ...]
    vjps: tuple[Callable[[Array], Array], ...]


class Tape:
    """Append-only record of one forward pass, in topological order."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, values, check: bool = True) -> Tensor:
        """Register a differentiable input (parameter) on the tape."""
        node_id = self._record("leaf", (), ())
        return Tensor(values, tape=self, node_id=node_id, check=check)

    def _record(self, op: str, inputs: tuple[int, ...],
                vjps: tuple[Callable[[Array], Array], ...]) -> int:
        next_id = len(self.nodes)
        for i in inputs:
            if i >= next_id:
                raise ContractError("tape order violated: input after output")
        self.nodes.append(Node(op, inputs, vjps))
        return next_id


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Gradients of a scalar loss with respect to every reachable node.

    Walks the tape once in reverse; d(loss)/d(loss) = 1.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ContractError("loss is not a node of this tape")
    if loss.data.shape != ():
        raise ContractError("backward requires a scalar loss")
    slots: dict[int, Array] = {loss.node_id: np.ones(())}
    for node_id in range(len(tape.nodes) - 1, -1, -1):
        grad = slots.get(node_id)
        if grad is None:
            continue
        node = tape.nodes[node_id]
        for parent, vjp in zip(node.inputs, node.vjps):
            contribution = vjp(grad)
            held = slots.get(parent)
            slots[parent] = contribution if held is None else held + contribution
    return {nid: Tensor(g, check=False) for nid, g in slots.items()}


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, check=False)


def _apply(op: str, data: Array,
           parents: Sequence[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    tape = None
    for tensor, _ in parents:
        if tensor.tape is None:
            continue
        if tape is None:
            tape = tensor.tape
        elif tape is not tensor.tape:
            raise ContractError(f"{op}: operands belong to different tapes")
    if tape is None:
        return Tensor(data, check=False)
    taped = [(t.node_id, vjp) for t, vjp in parents if t.tape is not None]
    ids = tuple(i for i, _ in taped)
    vjps = tuple(v for _, v in taped)
    node_id = tape._record(op, ids, vjps)
    return Tensor(data, tape=tape, node_id=node_id, check=False)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _swap_last(x: Array) -> Array:
    return x.swapaxes(-1, -2)


def matmul(a, b) -> Tensor:
    """Matrix product; 3-D operands are stacks of matrices (head batching).

    Accepted rank pairs: 2@2, 2@3, 3@2, 3@3. The leading (stack) dimension
    must match when both operands carry one.
    """
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim not in (2, 3):
        raise ShapeError(f"matmul requires 2-D/3-D operands, got {a.dims} @ {b.dims}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.dims} @ {b.dims}")
    if ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"matmul stack dims differ: {a.dims} @ {b.dims}")
    out = ad @ bd

    def vjp_a(g: Array) -> Array:
        ga = g @ _swap_last(bd)
        return ga.sum(axis=0) if ga.ndim > ad.ndim else ga

    def vjp_b(g: Array) -> Array:
        gb = _swap_last(ad) @ g
        return gb.sum(axis=0) if gb.ndim > bd.ndim else gb

    return _apply("matmul", out, [(a, vjp_a), (b, vjp_b)])


def add(a, b) -> Tensor:
    """Elementwise sum with two bias-broadcast cases.

    Shapes: identical; (..., d) + (d,); (h, rows, d) + (h, 1, d).
    """
    a, b = _lift(a), _lift(b)
    if a.dims == b.dims:
        return _apply("add", a.data + b.data, [
            (a, lambda g: g),
            (b, lambda g: g),
        ])
    if b.data.ndim == 1 and a.data.ndim >= 2 and a.dims[-1] == b.dims[0]:
        axes = tuple(range(a.data.ndim - 1))
        return _apply("add", a.data + b.data, [
            (a, lambda g: g),
            (b, lambda g: g.sum(axis=axes)),
        ])
    if (a.data.ndim == 3 and b.data.ndim == 3 and b.dims[1] == 1
            and a.dims[0] == b.dims[0] and a.dims[2] == b.dims[2]):
        return _apply("add", a.data + b.data, [
            (a, lambda g: g),
            (b, lambda g: g.sum(axis=1, keepdims=True)),
        ])
    raise ShapeError(f"add shapes incompatible: {a.dims} + {b.dims}")


def mul(a, b) -> Tensor:
    """Elementwise product of same-shape tensors."""
    a, b = _lift(a), _lift(b)
    if a.dims != b.dims:
        raise ShapeError(f"mul shapes differ: {a.dims} * {b.dims}")
    ad, bd = a.data, b.data
    return _apply("mul", ad * bd, [
        (a, lambda g: g * bd),
        (b, lambda g: g * ad),
    ])


def scale(a, s: float) -> Tensor:
    a = _lift(a)
    s = float(s)
    return _apply("scale", a.data * s, [(a, lambda g: g * s)])


def softmax(a) -> Tensor:
    """Softmax along the last axis, computed with max subtraction."""
    a = _lift(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: Array) -> Array:
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _apply("softmax", y, [(a, vjp)])


def log_softmax(a) -> Tensor:
    """log(softmax(a)) along the last axis without forming the log of 0."""
    a = _lift(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    p = np.exp(y)

    def vjp(g: Array) -> Array:
        return g - p * g.sum(axis=-1, keepdims=True)

    return _apply("log_softmax", y, [(a, vjp)])


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """Smooth tanh-form GELU (exact derivative of the tanh form)."""
    a = _lift(a)
    x = a.data
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    y = 0.5 * x * (1.0 + t)

    def vjp(g: Array) -> Array:
        d_inner = _GELU_C * (1.0 + (3 * 0.044715) * x * x)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)

    return _apply("gelu", y, [(a, vjp)])


def layer_norm(x, gamma, beta) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine;
    1e-5 is added to the variance before the square root."""
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a (rows, d) input, got {x.dims}")
    d = x.dims[1]
    if gamma.dims != (d,) or beta.dims != (d,):
        raise ShapeError("layer_norm scale/shift must be d-vectors")
    xd, gd = x.data, gamma.data
    inv_d = 1.0 / d
    mu = xd.sum(axis=-1, keepdims=True) * inv_d
    xc = xd - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    y = gd * xhat + beta.data

    def vjp_x(g: Array) -> Array:
        dxhat = g * gd
        return inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) * inv_d
                      - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True)
                                * inv_d))

    return _apply("layer_norm", y, [
        (x, vjp_x),
        (gamma, lambda g: (g * xhat).sum(axis=0)),
        (beta, lambda g: g.sum(axis=0)),
    ])


def transpose(a) -> Tensor:
    """Swap the last two axes (matrix transpose per stack element)."""
    a = _lift(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects >= 2-D, got {a.dims}")
    return _apply("transpose", np.ascontiguousarray(_swap_last(a.data)),
                  [(a, lambda g: np.ascontiguousarray(_swap_last(g)))])


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _lift(a)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.dims} to {shape}")
    old = a.dims
    return _apply("reshape", a.data.reshape(shape),
                  [(a, lambda g: g.reshape(old))])


def gather_rows(x, idx) -> Tensor:
    """Select rows by integer index (embedding-style lookup)."""
    x = _lift(x)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {x.dims}")
    index = np.asarray(idx, dtype=np.intp)
    if index.ndim != 1:
        raise ShapeError("gather_rows index must be 1-D")
    if index.size and (index.min() < 0 or index.max() >= x.dims[0]):
        raise ContractError("gather_rows index out of range")
    xd = x.data
    shape = xd.shape

    def vjp(g: Array) -> Array:
        out = np.zeros(shape)
        np.add.at(out, index, g)
        return out

    return _apply("gather_rows", xd[index].copy(), [(x, vjp)])


def fill_rows(x, idx, v) -> Tensor:
    """Copy of x with the rows in idx replaced by the vector v."""
    x, v = _lift(x), _lift(v)
    if x.data.ndim != 2 or v.data.ndim != 1 or v.dims[0] != x.dims[1]:
        raise ShapeError(f"fill_rows expects (rows, d) and (d,), got {x.dims}, {v.dims}")
    index = np.asarray(idx, dtype=np.intp)
    if index.size and (index.min() < 0 or index.max() >= x.dims[0]):
        raise ContractError("fill_rows index out of range")
    out = x.data.copy()
    out[index] = v.data
    d = v.dims[0]

    def vjp_x(g: Array) -> Array:
        gx = g.copy()
        gx[index] = 0.0
        return gx

    def vjp_v(g: Array) -> Array:
        return g[index].sum(axis=0) if index.size else np.zeros(d)

    return _apply("fill_rows", out, [(x, vjp_x), (v, vjp_v)])


def masked_fill(x, mask, value: float) -> Tensor:
    """Replace entries where mask is true with a constant (no grad there).

    The mask must match the trailing axes of x; a (T, T) mask applies to
    every element of a (h, T, T) stack.
    """
    x = _lift(x)
    m = np.asarray(mask, dtype=bool)
    if m.shape != x.dims[x.data.ndim - m.ndim:]:
        raise ShapeError(f"mask shape {m.shape} does not trail tensor {x.dims}")
    out = np.where(m, value, x.data)
    return _apply("masked_fill", out, [(x, lambda g: np.where(m, 0.0, g))])


# offset->pairwise index grids, keyed by T
_REL_INDEX_CACHE: dict[int, tuple[Array, Array]] = {}


def _rel_indices(t_len: int) -> tuple[Array, Array]:
    cached = _REL_INDEX_CACHE.get(t_len)
    if cached is None:
        rows = np.arange(t_len)[:, None]
        cols = rows - np.arange(t_len)[None, :] + t_len - 1
        rows = np.broadcast_to(rows, (t_len, t_len)).copy()
        rows.setflags(write=False)
        cols.setflags(write=False)
        cached = (rows, cols)
        _REL_INDEX_CACHE[t_len] = cached
    return cached


def rel_position_gather(x) -> Tensor:
    """Map per-offset scores (..., T, 2T-1) to pairwise scores (..., T, T).

    Column o of the input holds the score for relative offset o - (T-1), so
    out[..., i, j] = x[..., i, i - j + T - 1]. Each output reads its own
    input entry, so the backward pass scatters without accumulating.
    """
    x = _lift(x)
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"expected (..., T, 2T-1) offset scores, got {x.dims}")
    t_len = x.dims[-2]
    if x.dims[-1] != 2 * t_len - 1:
        raise ShapeError(f"expected (..., T, 2T-1) offset scores, got {x.dims}")
    rows, cols = _rel_indices(t_len)
    xd = x.data

    def vjp(g: Array) -> Array:
        out = np.zeros_like(xd)
        out[..., rows, cols] = g
        return out

    return _apply("rel_position_gather", xd[..., rows, cols], [(x, vjp)])


def merge_heads(x) -> Tensor:
    """(h, T, e) -> (T, h*e): concatenate per-head outputs along features."""
    x = _lift(x)
    if x.data.ndim != 3:
        raise ShapeError(f"merge_heads expects (h, T, e), got {x.dims}")
    h, t_len, e = x.dims
    out = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(t_len, h * e)

    def vjp(g: Array) -> Array:
        return np.ascontiguousarray(g.reshape(t_len, h, e).transpose(1, 0, 2))

    return _apply("merge_heads", out, [(x, vjp)])


def sum_all(a) -> Tensor:
    a = _lift(a)
    shape = a.dims
    return _apply("sum_all", np.asarray(a.data.sum()),
                  [(a, lambda g: np.broadcast_to(g, shape).copy())])


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from the supplied generator.

    Train-mode only: callers skip the op entirely at evaluation time.
    """
    x = _lift(x)
    if not 0.0 <= rate < 1.0:
        raise ContractError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return x
    keep = (rng.random(x.dims) >= rate) / (1.0 - rate)
    return _apply("dropout", x.data * keep, [(x, lambda g: g * keep)])


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

#: step sizes finite_diff_check accepts: below them rounding swamps the
#: central difference, above them curvature does
FD_EPS_MIN, FD_EPS_MAX = 1e-7, 1e-3


def _fd_slope(build_loss, frozen: dict[str, Tensor], buffer: Array,
              flat_index: int, eps) -> float:
    """Central difference through one entry of an aliased parameter buffer."""
    flat = buffer.reshape(-1)
    saved = flat[flat_index]
    flat[flat_index] = saved + eps
    hi = build_loss(frozen).data.reshape(())
    flat[flat_index] = saved - eps
    lo = build_loss(frozen).data.reshape(())
    flat[flat_index] = saved
    return float((hi - lo) / (2 * eps))


def finite_diff_check(build_loss: Callable[[dict[str, Tensor]], Tensor],
                      params: dict[str, Array],
                      eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``build_loss`` must map a name->Tensor dict to a scalar Tensor and be
    deterministic (dropout disabled). Every parameter entry is perturbed by
    +/- eps; the relative error is |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).

    Entries whose float64 central difference is too noisy to decide (those
    with near-zero gradients, where the difference quotient sits at rounding
    level) are re-evaluated with an extended-precision forward pass, which
    sharpens the reference slope without touching the gradients under test.
    """
    if not FD_EPS_MIN <= eps <= FD_EPS_MAX:
        raise ContractError(f"finite_diff_check eps must lie in "
                            f"[{FD_EPS_MIN:g}, {FD_EPS_MAX:g}]")

    tape = Tape()
    leaves = {name: tape.leaf(np.asarray(value, dtype=np.float64))
              for name, value in params.items()}
    loss = build_loss(leaves)
    grads = backward(tape, loss)
    grad_flat = {}
    for name, leaf in leaves.items():
        g = grads.get(leaf.node_id)
        grad_flat[name] = (np.zeros(leaf.data.size) if g is None
                           else g.data.reshape(-1))

    buffers = {name: leaf.data.copy() for name, leaf in leaves.items()}
    frozen = {name: Tensor(buf, check=False) for name, buf in buffers.items()}

    def rel_err(g_ad: float, g_fd: float) -> float:
        return abs(g_ad - g_fd) / max(1e-8, abs(g_ad) + abs(g_fd))

    worst = 0.0
    undecided: list[tuple[str, int]] = []
    for name, buf in buffers.items():
        for i in range(buf.size):
            g_fd = _fd_slope(build_loss, frozen, buf, i, eps)
            err = rel_err(grad_flat[name][i], g_fd)
            if err > 1e-5:
                undecided.append((name, int(i)))
            elif err > worst:
                worst = err

    if undecided and np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        precise = {name: buf.astype(np.longdouble)
                   for name, buf in buffers.items()}
        frozen_hp = {name: Tensor(buf, check=False)
                     for name, buf in precise.items()}
        eps_hp = np.longdouble(eps)
        for name, i in undecided:
            g_fd = _fd_slope(build_loss, frozen_hp, precise[name], i, eps_hp)
            worst = max(worst, rel_err(grad_flat[name][i], g_fd))
    else:
        for name, i in undecided:  # pragma: no cover - non-x86 fallback
            g_fd = _fd_slope(build_loss, frozen, buffers[name], i, eps)
            worst = max(worst, rel_err(grad_flat[name][i], g_fd))
    return worst

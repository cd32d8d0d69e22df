"""Dense float32 or float64 tensors with reverse-mode differentiation on an
explicit tape.

An op computes in its operands' dtype: float32 tensors stay float32 through
every kernel and VJP, and float64 ones float64, so a pass computes in the
dtype of the parameter arrays it binds (``encoder.bind_params`` takes them as
they are). The constants an op makes itself (the backward seed, zero
gradients, dropout scales) follow their operand's dtype, because under NumPy
2's promotion rules a float64 array, even a 0-d one, would upcast a float32
operand and everything after it. Python floats are weak scalars and never
upcast.

The primitive set is deliberately small: exactly what a relative-position
Transformer encoder and its losses need (``matmul``, ``add``, ``mul``,
``scale``, ``softmax``, ``log_softmax``, ``gelu``, ``layer_norm``,
``transpose``, ``reshape``, ``gather_rows``, ``fill_rows``,
``rel_position_gather``, ``split_heads``, ``merge_heads``, ``sum_all``,
``segment_sum``, ``dropout``), with no general broadcasting: ``add`` takes
identical shapes or a (..., d) + (d,) bias, ``matmul`` 2-D @ 2-D or 3-D @
3-D stacks, and every other op matching shapes. ``softmax`` takes a boolean
mask of the entries it must not read. ``split_heads(x, h, n)`` maps (R, h*e)
features to (h*R/n, n, e) stacks, head-major, and ``merge_heads`` maps them
back, so every parameter is a matrix or a vector.

Batches add no axis. The encoder folds a group of padded utterances into
the ranks a single utterance already uses: position-wise ops see (B*T, d)
rows, attention sees (heads*B, T, .) stacks, and ``segment_sum`` turns
per-row loss terms into one loss per utterance. So every VJP handles
exactly the shapes it did for one utterance. The relative shift
(``rel_position_gather``) is a strided view of its input, with no index
arrays. ``dropout`` multiplies by a boolean mask the caller draws with
``keep_mask``, so that each utterance of a group can draw its own.

Each primitive checks its operands' shapes and its contract, then calls its
one forward kernel: a numpy function (``np.matmul``, ``np.add``, ...) or a
``_fwd_<op>`` function written with ``...`` and negative axes, so that it
broadcasts over any leading axes. Static facts a kernel cannot read from its
operands' trailing axes (``reshape``'s source shape, ``sum_all``'s rank) are
passed in as arguments. Taped, tapeless and replayed evaluation all run that
kernel, so every op has exactly one forward implementation.

A ``Tape`` is single-owner: it takes one forward pass and then one backward
pass, never shared across concurrent executions. ``backward`` frees what it
has consumed as it walks: once a node's gradient has gone to its inputs, the
node's gradient slot and VJP closures (and the forward arrays they captured)
are dropped, so a used tape cannot be walked again. Tensors are immutable
values after creation (callers must not mutate the backing array they pass
in). Running ops on tensors that carry no tape performs a plain forward
computation with no recording: the path for forward-only work.
No tensor or op checks its values for NaN or infinity; the command line
has numpy raise ``FloatingPointError`` where a value first goes non-finite.

A recording tape (``Tape(record=True)``) additionally keeps, for every node,
the kernel call that made it (kernel, arguments with arrays for tensors, the
node ids of its taped inputs) and its output array; ``backward`` leaves that
log alone. ``finite_diff_check`` records the loss once per precision. For
each parameter it then replays only the kernel calls downstream of it, on
chunks of perturbed copies stacked along a new leading axis, as many as
``FD_STACK_ENTRIES`` allows for the largest replayed value (but at least
``FD_MIN_CHUNK``): each replayed value is shaped (2n, 1, ..., 1, *recorded
shape), padded to one rank so that the recorded operands broadcast against
it, and each kernel runs once per chunk. Per copy this is the arithmetic of
a full forward pass on the same inputs: stacked matmuls run one GEMM per
slice, row reductions run along a contiguous last axis, and ``sum_all``
reduces one contiguous run per copy. So each replayed loss is bitwise the
loss that pass would give.
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
    """Immutable dense value, optionally bound to a tape node.

    Float64, float32 and extended-precision (longdouble) arrays are passed
    through unchanged: float32 is the training compute dtype, and the
    finite-difference checker uses longdouble for its reference evaluations.
    Any other dtype (integers, booleans) becomes float64.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape: "Tape | None" = None,
                 node_id: int | None = None):
        data = np.asarray(values)
        if (data.dtype != np.float64 and data.dtype != np.float32
                and data.dtype != np.longdouble):
            data = data.astype(np.float64)
        if not data.flags["C_CONTIGUOUS"]:
            data = np.ascontiguousarray(data)
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


def constant(values) -> Tensor:
    """Tensor that participates in ops but receives no gradient."""
    return Tensor(values)


@dataclass
class Node:
    """One recorded operation: kind, input node ids, and per-input VJPs.

    The VJP closures capture whatever forward values the backward rule needs.
    """

    op: str
    inputs: tuple[int, ...]
    vjps: tuple[Callable[[Array], Array], ...]


#: one recorded kernel call: kernel, arguments (arrays for tensors), (argument
#: position, input node id) per taped argument, and the output array; a leaf
#: records (None, (), (), value)
Call = tuple[Callable[..., Array] | None, tuple, tuple[tuple[int, int], ...],
             Array]


class Tape:
    """Append-only record of one forward pass, in topological order; a
    node's entry becomes None once ``backward`` has consumed it.

    With ``record=True`` the tape also fills ``calls``, one ``Call`` per
    node, which ``backward`` does not free.
    """

    def __init__(self, record: bool = False):
        self.nodes: list[Node | None] = []
        self.used = False
        self.calls: list[Call] | None = [] if record else None

    def leaf(self, values) -> Tensor:
        """Register a differentiable input (parameter) on the tape."""
        node_id = self._record("leaf", (), ())
        tensor = Tensor(values, tape=self, node_id=node_id)
        if self.calls is not None:
            self.calls.append((None, (), (), tensor.data))
        return tensor

    def _record(self, op: str, inputs: tuple[int, ...],
                vjps: tuple[Callable[[Array], Array], ...]) -> int:
        next_id = len(self.nodes)
        for i in inputs:
            if i >= next_id:
                raise ContractError("tape order violated: input after output")
        self.nodes.append(Node(op, inputs, vjps))
        return next_id


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Gradients of a scalar loss with respect to every reachable leaf, plus
    the loss's own seed d(loss)/d(loss) = 1.

    Walks the tape once in reverse, dropping each node (its VJP closures and
    the forward arrays they hold) and each interior gradient as soon as they
    have been consumed, so the tape can be walked only once.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ContractError("loss is not a node of this tape")
    if loss.data.shape != ():
        raise ContractError("backward requires a scalar loss")
    if tape.used:
        raise ContractError("backward already consumed this tape")
    tape.used = True
    nodes = tape.nodes
    slots: dict[int, Array] = {loss.node_id: np.ones((), loss.data.dtype)}
    kept: dict[int, Array] = {loss.node_id: slots[loss.node_id]}
    for node_id in range(len(nodes) - 1, -1, -1):
        node, nodes[node_id] = nodes[node_id], None
        grad = slots.pop(node_id, None)
        if grad is None:
            continue
        if node.op == "leaf":
            kept[node_id] = grad
        for parent, vjp in zip(node.inputs, node.vjps):
            held = slots.get(parent)
            slots[parent] = vjp(grad) if held is None else held + vjp(grad)
    return {nid: Tensor(g) for nid, g in kept.items()}


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _apply(kernel: Callable[..., Array], args: tuple, data: Array,
           parents: Sequence[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    """Output ``data`` of the kernel call ``kernel(*args)``, in which each
    Tensor argument stands for its array; recorded on the operands' tape,
    if any, with one VJP per taped parent."""
    tape = None
    for tensor, _ in parents:
        if tensor.tape is None:
            continue
        if tape is None:
            tape = tensor.tape
        elif tape is not tensor.tape:
            raise ContractError(f"{kernel.__name__.removeprefix('_fwd_')}: "
                                "operands belong to different tapes")
    if tape is None:
        return Tensor(data)
    op = kernel.__name__.removeprefix("_fwd_")
    taped = [(t.node_id, vjp) for t, vjp in parents if t.tape is not None]
    ids = tuple(i for i, _ in taped)
    vjps = tuple(v for _, v in taped)
    node_id = tape._record(op, ids, vjps)
    out = Tensor(data, tape=tape, node_id=node_id)
    if tape.calls is not None:
        slots = tuple((pos, arg.node_id) for pos, arg in enumerate(args)
                      if isinstance(arg, Tensor) and arg.tape is tape)
        arrays = tuple(arg.data if isinstance(arg, Tensor) else arg
                       for arg in args)
        tape.calls.append((kernel, arrays, slots, out.data))
    return out


# ---------------------------------------------------------------------------
# primitives: shape and contract checks, one forward kernel, the VJPs
# ---------------------------------------------------------------------------


def _swap_last(x: Array) -> Array:
    return x.swapaxes(-1, -2)


def matmul(a, b) -> Tensor:
    """Matrix product: 2-D @ 2-D, or 3-D @ 3-D stacks of matrices of equal
    length, one product per stack element (head batching)."""
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != ad.ndim:
        raise ShapeError(f"matmul requires 2-D @ 2-D or 3-D @ 3-D operands, "
                         f"got {a.dims} @ {b.dims}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.dims} @ {b.dims}")
    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul stack dims differ: {a.dims} @ {b.dims}")
    return _apply(np.matmul, (a, b), np.matmul(ad, bd), [
        (a, lambda g: g @ _swap_last(bd)),
        (b, lambda g: _swap_last(ad) @ g),
    ])


def add(a, b) -> Tensor:
    """Elementwise sum of identical shapes, or (..., d) + (d,) bias."""
    a, b = _lift(a), _lift(b)
    if a.dims == b.dims:
        return _apply(np.add, (a, b), np.add(a.data, b.data), [
            (a, lambda g: g),
            (b, lambda g: g),
        ])
    if b.data.ndim == 1 and a.data.ndim >= 2 and a.dims[-1] == b.dims[0]:
        axes = tuple(range(a.data.ndim - 1))
        return _apply(np.add, (a, b), np.add(a.data, b.data), [
            (a, lambda g: g),
            (b, lambda g: g.sum(axis=axes)),
        ])
    raise ShapeError(f"add shapes incompatible: {a.dims} + {b.dims}")


def mul(a, b) -> Tensor:
    """Elementwise product of same-shape tensors."""
    a, b = _lift(a), _lift(b)
    if a.dims != b.dims:
        raise ShapeError(f"mul shapes differ: {a.dims} * {b.dims}")
    ad, bd = a.data, b.data
    return _apply(np.multiply, (a, b), np.multiply(ad, bd), [
        (a, lambda g: g * bd),
        (b, lambda g: g * ad),
    ])


def scale(a, s: float) -> Tensor:
    a = _lift(a)
    s = float(s)
    return _apply(np.multiply, (a, s), np.multiply(a.data, s),
                  [(a, lambda g: g * s)])


def _fwd_softmax(a: Array, blocked: Array) -> Array:
    a = np.where(blocked, -np.inf, a)
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a, blocked) -> Tensor:
    """Softmax along the last axis, with max subtraction, of ``a`` with -inf
    (weight 0, no gradient) where the boolean ``blocked`` is true; the mask
    matches the trailing axes of ``a``, as (T, T) for a (h, T, T) stack."""
    a = _lift(a)
    m = np.asarray(blocked, dtype=bool)
    if m.shape != a.dims[a.data.ndim - m.ndim:]:
        raise ShapeError(f"mask shape {m.shape} does not trail tensor {a.dims}")
    y = _fwd_softmax(a.data, m)

    def vjp(g: Array) -> Array:
        return np.where(m, 0.0, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _apply(_fwd_softmax, (a, m), y, [(a, vjp)])


def _fwd_log_softmax(a: Array) -> Array:
    shifted = a - a.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(a) -> Tensor:
    """log(softmax(a)) along the last axis without forming the log of 0."""
    a = _lift(a)
    y = _fwd_log_softmax(a.data)

    def vjp(g: Array) -> Array:
        return g - np.exp(y) * g.sum(axis=-1, keepdims=True)

    return _apply(_fwd_log_softmax, (a,), y, [(a, vjp)])


_GELU_C = math.sqrt(2.0 / math.pi)


def _fwd_gelu(x: Array) -> tuple[Array, Array]:
    """The output and the tanh term its VJP reuses."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu(a) -> Tensor:
    """Smooth tanh-form GELU (exact derivative of the tanh form)."""
    a = _lift(a)
    x = a.data
    y, _ = _fwd_gelu(x)

    def vjp(g: Array) -> Array:
        t = _fwd_gelu(x)[1]     # recomputed, so the tape holds x alone
        d_inner = _GELU_C * (1.0 + (3 * 0.044715) * x * x)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)

    return _apply(_fwd_gelu, (a,), y, [(a, vjp)])


def _fwd_layer_norm(x: Array, gamma: Array,
                    beta: Array) -> tuple[Array, Array, Array]:
    """The output, and the normalized rows and inverse deviations its VJPs
    reuse."""
    inv_d = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * inv_d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return gamma * xhat + beta, xhat, inv


def layer_norm(x, gamma, beta) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine;
    1e-5 is added to the variance before the square root."""
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a (rows, d) input, got {x.dims}")
    d = x.dims[1]
    if gamma.dims != (d,) or beta.dims != (d,):
        raise ShapeError("layer_norm scale/shift must be d-vectors")
    gd = gamma.data
    inv_d = 1.0 / d
    y, xhat, inv = _fwd_layer_norm(x.data, gd, beta.data)

    def vjp_x(g: Array) -> Array:
        dxhat = g * gd
        return inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) * inv_d
                      - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True)
                                * inv_d))

    return _apply(_fwd_layer_norm, (x, gamma, beta), y, [
        (x, vjp_x),
        (gamma, lambda g: (g * xhat).sum(axis=0)),
        (beta, lambda g: g.sum(axis=0)),
    ])


def _fwd_transpose(a: Array) -> Array:
    return np.ascontiguousarray(_swap_last(a))


def transpose(a) -> Tensor:
    """Swap the last two axes (matrix transpose per stack element)."""
    a = _lift(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects >= 2-D, got {a.dims}")
    return _apply(_fwd_transpose, (a,), _fwd_transpose(a.data),
                  [(a, lambda g: np.ascontiguousarray(_swap_last(g)))])


def _fwd_reshape(a: Array, old: tuple[int, ...],
                 shape: tuple[int, ...]) -> Array:
    """Reshape the trailing axes, which have shape ``old``, to ``shape``."""
    return a.reshape(a.shape[:a.ndim - len(old)] + shape)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """Same values in a new shape; reshaping to the current shape records
    nothing and returns ``a`` itself."""
    a = _lift(a)
    shape = tuple(shape)
    old = a.dims
    if shape == old:
        return a
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"cannot reshape {a.dims} to {shape}")
    return _apply(_fwd_reshape, (a, old, shape),
                  _fwd_reshape(a.data, old, shape),
                  [(a, lambda g: g.reshape(old))])


def _fwd_gather_rows(x: Array, index: Array) -> Array:
    return x[..., index, :]


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
    shape = x.dims

    def vjp(g: Array) -> Array:
        out = np.zeros(shape, g.dtype)
        np.add.at(out, index, g)
        return out

    return _apply(_fwd_gather_rows, (x, index),
                  _fwd_gather_rows(x.data, index), [(x, vjp)])


def _fwd_fill_rows(x: Array, index: Array, v: Array) -> Array:
    out = np.empty(np.broadcast_shapes(x.shape, v.shape), dtype=x.dtype)
    out[...] = x
    out[..., index, :] = v
    return out


def fill_rows(x, idx, v) -> Tensor:
    """Copy of x with the rows in idx replaced by the vector v."""
    x, v = _lift(x), _lift(v)
    if x.data.ndim != 2 or v.data.ndim != 1 or v.dims[0] != x.dims[1]:
        raise ShapeError(f"fill_rows expects (rows, d) and (d,), got {x.dims}, {v.dims}")
    index = np.asarray(idx, dtype=np.intp)
    if index.size and (index.min() < 0 or index.max() >= x.dims[0]):
        raise ContractError("fill_rows index out of range")
    d = v.dims[0]

    def vjp_x(g: Array) -> Array:
        gx = g.copy()
        gx[index] = 0.0
        return gx

    def vjp_v(g: Array) -> Array:
        return g[index].sum(axis=0) if index.size else np.zeros(d, g.dtype)

    return _apply(_fwd_fill_rows, (x, index, v),
                  _fwd_fill_rows(x.data, index, v.data),
                  [(x, vjp_x), (v, vjp_v)])


def _rel_view(x: Array) -> Array:
    """(..., T, T) view of (..., T, 2T-1) offset scores at [..., i, i-j+T-1]:
    row i starts one row and one column after row i - 1, and j steps back
    one column."""
    t_len = x.shape[-2]
    row, col = x.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        x[..., 0, t_len - 1:], shape=x.shape[:-1] + (t_len,),
        strides=x.strides[:-2] + (row + col, -col))


def _fwd_rel_position_gather(x: Array) -> Array:
    return _rel_view(x).copy()


def rel_position_gather(x) -> Tensor:
    """Map per-offset scores (..., T, 2T-1) to pairwise scores (..., T, T).

    Column o of the input holds the score for relative offset o - (T-1), so
    out[..., i, j] = x[..., i, i - j + T - 1]. Each output reads its own
    input entry, so the backward pass writes the gradient through the same
    view of a zero array, without accumulating.
    """
    x = _lift(x)
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"expected (..., T, 2T-1) offset scores, got {x.dims}")
    t_len = x.dims[-2]
    if x.dims[-1] != 2 * t_len - 1:
        raise ShapeError(f"expected (..., T, 2T-1) offset scores, got {x.dims}")
    shape = x.dims

    def vjp(g: Array) -> Array:
        out = np.zeros(shape, g.dtype)
        _rel_view(out)[...] = g
        return out

    return _apply(_fwd_rel_position_gather, (x,),
                  _fwd_rel_position_gather(x.data), [(x, vjp)])


def _fwd_split_heads(x: Array, heads: int, length: int) -> Array:
    *lead, rows, width = x.shape
    split = np.swapaxes(x.reshape(*lead, rows, heads, width // heads), -3, -2)
    return np.ascontiguousarray(split).reshape(
        *lead, heads * rows // length, length, width // heads)


def split_heads(x, heads: int, length: int) -> Tensor:
    """(R, h*e) -> (h*R/length, length, e): head h takes feature columns
    h*e .. (h+1)*e - 1, in stacks h*R/length onwards, ``length`` rows each;
    the inverse of ``merge_heads``."""
    x = _lift(x)
    if (x.data.ndim != 2 or heads < 1 or x.dims[1] % heads or length < 1
            or x.dims[0] % length):
        raise ShapeError(f"split_heads expects (n*{length}, {heads}*e), "
                         f"got {x.dims}")
    return _apply(_fwd_split_heads, (x, heads, length),
                  _fwd_split_heads(x.data, heads, length),
                  [(x, lambda g: _fwd_merge_heads(g, heads))])


def _fwd_merge_heads(x: Array, heads: int) -> Array:
    *lead, stacks, length, e = x.shape
    rows = stacks // heads * length
    split = np.swapaxes(x.reshape(*lead, heads, rows, e), -3, -2)
    return np.ascontiguousarray(split).reshape(*lead, rows, heads * e)


def merge_heads(x, heads: int) -> Tensor:
    """(h*n, length, e) -> (n*length, h*e), head-major: concatenate each
    row's per-head features; the inverse of ``split_heads``."""
    x = _lift(x)
    if x.data.ndim != 3 or heads < 1 or x.dims[0] % heads:
        raise ShapeError(f"merge_heads expects ({heads}*n, length, e), "
                         f"got {x.dims}")
    length = x.dims[1]
    return _apply(_fwd_merge_heads, (x, heads), _fwd_merge_heads(x.data, heads),
                  [(x, lambda g: _fwd_split_heads(g, heads, length))])


def _fwd_sum_all(a: Array, rank: int) -> Array:
    """Sum of the trailing ``rank`` axes, each as one contiguous run."""
    return np.asarray(a.reshape(a.shape[:a.ndim - rank] + (-1,)).sum(axis=-1))


def sum_all(a) -> Tensor:
    a = _lift(a)
    shape = a.dims
    rank = len(shape)
    return _apply(_fwd_sum_all, (a, rank), _fwd_sum_all(a.data, rank),
                  [(a, lambda g: np.broadcast_to(g, shape).copy())])


def _fwd_segment_sum(a: Array, bounds: Array, rank: int) -> Array:
    """Per segment, the sum of rows bounds[i] .. bounds[i+1] of the trailing
    ``rank`` axes, each segment summed as one contiguous run."""
    lead = a.shape[:a.ndim - rank]
    width = math.prod(a.shape[a.ndim - rank + 1:])
    flat = a.reshape(lead + (-1,))
    out = np.empty(lead + (bounds.size - 1,), dtype=a.dtype)
    for i in range(bounds.size - 1):
        out[..., i] = flat[..., bounds[i] * width:bounds[i + 1] * width].sum(
            axis=-1)
    return out


def segment_sum(a, bounds) -> Tensor:
    """(n,) sums of n runs of consecutive rows: entry i sums every value in
    rows bounds[i] .. bounds[i+1] - 1 of ``a`` (an empty run sums to 0).

    Each run is reduced as one contiguous run, as ``sum_all`` reduces a
    whole array, so a run covering all of ``a`` gives ``sum_all``'s value.
    """
    a = _lift(a)
    edges = np.asarray(bounds, dtype=np.intp)
    if a.data.ndim < 1 or edges.ndim != 1 or edges.size < 2:
        raise ShapeError(f"segment_sum needs rows and >= 2 bounds, got "
                         f"{a.dims} and {edges.shape}")
    if (edges[0] != 0 or edges[-1] != a.dims[0]
            or np.any(np.diff(edges) < 0)):
        raise ContractError("segment_sum bounds must rise from 0 to the row "
                            "count")
    shape, rank = a.dims, a.data.ndim
    counts = np.diff(edges)

    def vjp(g: Array) -> Array:
        rows = np.repeat(g, counts)
        return np.ascontiguousarray(np.broadcast_to(
            rows.reshape((-1,) + (1,) * (rank - 1)), shape))

    return _apply(_fwd_segment_sum, (a, edges, rank),
                  _fwd_segment_sum(a.data, edges, rank), [(a, vjp)])


def keep_mask(rate: float, rng: np.random.Generator,
              shape: tuple[int, ...]) -> Array:
    """Which entries inverted dropout keeps, from one ``rng.random(shape)``
    draw: those whose draw is at least ``rate``."""
    if not 0.0 <= rate < 1.0:
        raise ContractError("dropout rate must lie in [0, 1)")
    return rng.random(shape) >= rate


def dropout(x, rate: float, kept: Array) -> Tensor:
    """Inverted dropout: x times kept / (1 - rate), for a boolean mask the
    caller draws with ``keep_mask``, so it can assemble one mask from
    several draws. The tape holds the boolean mask, not its scales.

    Train-mode only: callers skip the op entirely at evaluation time. A
    recording tape rejects it, because a replay would need a fresh mask.
    """
    x = _lift(x)
    if not 0.0 <= rate < 1.0:
        raise ContractError("dropout rate must lie in [0, 1)")
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != x.dims:
        raise ShapeError(f"dropout mask {kept.shape} does not match {x.dims}")
    if x.tape is not None and x.tape.calls is not None:
        raise ContractError("dropout cannot run on a recording tape")
    scale, dtype = 1.0 - rate, x.data.dtype
    keep = np.divide(kept, scale, dtype=dtype)
    return _apply(np.multiply, (x, keep), np.multiply(x.data, keep),
                  [(x, lambda g: g * np.divide(kept, scale, dtype=dtype))])


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

#: step sizes finite_diff_check accepts: below them rounding swamps the
#: central difference, above them curvature does
FD_EPS_MIN, FD_EPS_MAX = 1e-7, 1e-3


#: a parameter's entries are replayed n at a time, as 2n stacked copies of
#: every value downstream of it. n is the most that keeps the largest such
#: stack within FD_STACK_ENTRIES entries, so small problems replay in long
#: chunks and pay less per-kernel overhead while each stack stays cache
#: sized; but never below FD_MIN_CHUNK, under which the per-kernel overhead
#: dominates. Measured on the grad-check problems: --quick (largest values
#: 96-176 entries, n 46-85) ran its slopes 1.2x faster than at n = 16 with
#: the same time at twice the budget, and the full problem (largest 768 and
#: 1,536 entries) ran 1.2x slower at n = 10 than at n = 16 or 21
FD_STACK_ENTRIES = 2 ** 14
FD_MIN_CHUNK = 16


def _central(hi, lo, eps):
    return (hi - lo) / (2 * eps)


class _Recording:
    """``build_loss`` evaluated once on a recording tape, at one dtype."""

    def __init__(self, build_loss, params: dict[str, Array], dtype):
        self.tape = Tape(record=True)
        self.leaves = {name: self.tape.leaf(np.asarray(value, dtype=dtype))
                       for name, value in params.items()}
        self.loss = build_loss(self.leaves)
        self.rank = max(value.ndim for *_, value in self.tape.calls)

    def slopes(self, name: str, indices, eps) -> list[float]:
        """Central-difference slope of the loss through each flat entry of
        parameter ``name``.

        Only the kernel calls that read the parameter, directly or through
        earlier calls, run again, each once per chunk of entries; a chunk
        of n stacks 2n copies of each replayed value, and n is as large as
        ``FD_STACK_ENTRIES`` allows for the largest of them, but at least
        ``FD_MIN_CHUNK``. Every other operand comes from the tape.
        """
        leaf_id, loss_id = self.leaves[name].node_id, self.loss.node_id
        calls = self.tape.calls
        reached, steps = {leaf_id}, []
        for node_id in range(leaf_id + 1, loss_id + 1):
            kernel, args, slots, value = calls[node_id]
            moved = tuple((pos, src) for pos, src in slots if src in reached)
            if moved:
                reached.add(node_id)
                steps.append((node_id, kernel, args, moved, value.shape))
        indices = np.asarray(indices, dtype=np.intp)
        if loss_id not in reached:
            return [0.0] * indices.size
        last_use = {src: k for k, step in enumerate(steps)
                    for _, src in step[3]}
        drops: list[list[int]] = [[] for _ in steps]
        for src, k in last_use.items():
            drops[k].append(src)
        largest = max(math.prod(shape) for *_, shape in steps)
        per_chunk = max(FD_MIN_CHUNK, FD_STACK_ENTRIES // (2 * largest))
        slopes: list[float] = []
        for start in range(0, indices.size, per_chunk):
            chunk = indices[start:start + per_chunk]
            losses = self._stacked_losses(leaf_id, steps, drops, chunk, eps)
            n = chunk.size
            slopes.extend(float(s) for s in _central(losses[:n], losses[n:],
                                                     eps))
        return slopes

    def _stacked_losses(self, leaf_id: int, steps, drops, chunk: Array,
                        eps) -> Array:
        """The 2n losses with entry chunk[i] of the leaf at +eps (row i)
        and at -eps (row n + i). Every replayed value is shaped
        (2n, 1, ..., 1, *recorded shape), padded to one rank, so operands
        read from the tape broadcast against it."""
        depth = 2 * chunk.size

        def stacked(shape: tuple[int, ...]) -> tuple[int, ...]:
            return (depth,) + (1,) * (self.rank - len(shape)) + shape

        base = self.tape.calls[leaf_id][3]
        flat = np.repeat(base.reshape(1, -1), depth, axis=0)
        saved = base.reshape(-1)[chunk]
        rows = np.arange(chunk.size)
        flat[rows, chunk] = saved + eps
        flat[chunk.size + rows, chunk] = saved - eps
        values = {leaf_id: flat.reshape(stacked(base.shape))}
        for (node_id, kernel, args, moved, shape), drop in zip(steps, drops):
            call = list(args)
            for pos, src in moved:
                call[pos] = values[src]
            out = kernel(*call)
            if type(out) is tuple:
                out = out[0]
            values[node_id] = np.ascontiguousarray(out).reshape(stacked(shape))
            for src in drop:
                del values[src]
        return values[self.loss.node_id].reshape(depth)


def finite_diff_check(build_loss: Callable[[dict[str, Tensor]], Tensor],
                      params: dict[str, Array],
                      eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``build_loss`` must map a name->Tensor dict to a scalar Tensor through a
    fixed composition of autodiff primitives: no Python branch on tensor
    values and no dropout, so that one recorded pass fixes every kernel call
    the loss makes. It runs once on float64 leaves (the gradients and the
    recording) and, when some entry is undecided, once more on longdouble
    leaves. Every parameter entry is perturbed by +/- eps; the relative
    error is |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|). A non-finite
    gradient entry or slope makes the result ``math.inf``.

    The slopes come from a stacked replay: for each parameter, chunks of n
    entries are perturbed together as 2n copies stacked along a leading
    axis, and only the kernel calls downstream of that parameter run again,
    once per chunk. n is the most that keeps 2n copies of the largest
    downstream value within ``FD_STACK_ENTRIES`` entries, but at least
    ``FD_MIN_CHUNK``: 46 to 85 at ``grad-check --quick``, and the floor of
    16 at the full ``grad-check`` size. A parameter the loss never reads
    runs nothing and has slope 0. Each copy's loss is bitwise the loss a
    full forward pass would give.

    Entries whose float64 central difference is too noisy to decide (those
    with near-zero gradients, where the difference quotient sits at rounding
    level) are re-evaluated with an extended-precision replay, which
    sharpens the reference slope without touching the gradients under test.
    """
    if not FD_EPS_MIN <= eps <= FD_EPS_MAX:
        raise ContractError(f"finite_diff_check eps must lie in "
                            f"[{FD_EPS_MIN:g}, {FD_EPS_MAX:g}]")

    record = _Recording(build_loss, params, np.float64)
    grads = backward(record.tape, record.loss)
    grad_flat = {}
    for name, leaf in record.leaves.items():
        g = grads.get(leaf.node_id)
        grad_flat[name] = (np.zeros(leaf.data.size) if g is None
                           else g.data.reshape(-1))
        if not np.all(np.isfinite(grad_flat[name])):
            return math.inf

    def rel_err(g_ad: float, g_fd: float) -> float:
        return abs(g_ad - g_fd) / max(1e-8, abs(g_ad) + abs(g_fd))

    worst = 0.0
    undecided: dict[str, list[int]] = {}
    for name, leaf in record.leaves.items():
        for i, g_fd in enumerate(record.slopes(name, range(leaf.data.size),
                                               eps)):
            if not math.isfinite(g_fd):
                return math.inf
            err = rel_err(grad_flat[name][i], g_fd)
            if err > 1e-5:
                undecided.setdefault(name, []).append(i)
            elif err > worst:
                worst = err

    if undecided and np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        record = _Recording(build_loss, {name: leaf.data for name, leaf
                                         in record.leaves.items()},
                            np.longdouble)
        eps = np.longdouble(eps)
    # without a wider longdouble (non-x86) the float64 slopes are re-read
    for name, indices in undecided.items():
        for i, g_fd in zip(indices, record.slopes(name, indices, eps)):
            if not math.isfinite(g_fd):
                return math.inf
            worst = max(worst, rel_err(grad_flat[name][i], g_fd))
    return worst

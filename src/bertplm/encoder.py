"""Relative-position Transformer encoder over phoneme posterior sequences.

Input tokens are distribution-weighted pools of the phoneme embedding rows,
so a frame's embedding is exactly E^T h for its posterior h. Prediction
targets are hidden from the network in two ways at once: their input rows are
replaced by a learnable mask vector, and the attention mask blocks their
columns for everyone but themselves. Context rows attend to context columns
only; target rows attend to context plus self. No absolute positions enter
anywhere; attention scores see only relative offsets, which is what makes
orderings of the same context set equivalent.

The encoder runs on a ``Group``: utterances padded to one length and stacked
along the rows, so one pass (and one tape) serves them all. A single
utterance is a group of one. The group keeps its plans' context sets in one
form, the (B, T) boolean ``context`` mask, and builds its padded frames and
its (B, T, T) ``blocked`` mask from them once; ``encode`` tiles ``blocked``
across heads once per pass and hands that one stack to every block, and
``attentive_pool`` pools over ``context``. Every softmax takes its mask as
an operand. A pass that reads only the target rows (pre-training) asks
``encode`` for them, and the last block then runs at those rows only: no
row attends to a target column but the target itself, so that block's
context rows feed nothing.

A pass computes in the dtype of the parameter arrays it is given
(``bind_params`` binds them as they are): the frames and the offset table it
reads are cast to that dtype too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class SequenceLengthError(ValueError):
    """Sequence longer than the configured maximum."""


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    layers: int
    d_model: int
    d_ff: int
    heads: int
    max_seq_len: int
    dropout: float

    def __post_init__(self):
        if min(self.vocab_size, self.layers, self.d_model, self.d_ff,
               self.heads, self.max_seq_len) < 1:
            raise ValueError("all encoder dimensions must be positive")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even for sinusoidal offsets")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


def param_shapes(config: EncoderConfig,
                 classes: int | None = None) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape map for every learnable array, each a matrix
    or a vector. The attention projections wq, wk, wv and wr are (d, d) with
    head h in columns h*dh .. (h+1)*dh - 1, as are the (d,) u/v biases; wo
    takes head h's features in rows h*dh .. (h+1)*dh - 1."""
    d = config.d_model
    shapes: dict[str, tuple[int, ...]] = {
        "embed": (config.vocab_size, d),
        "mask_vec": (d,),
        "pool_query": (d,),
    }
    for i in range(config.layers):
        prefix = f"layer{i}"
        for key in ("wq", "wk", "wv", "wr", "wo"):
            shapes[f"{prefix}.{key}"] = (d, d)
        shapes[f"{prefix}.u_bias"] = (d,)
        shapes[f"{prefix}.v_bias"] = (d,)
        shapes[f"{prefix}.ln1.gamma"] = (d,)
        shapes[f"{prefix}.ln1.beta"] = (d,)
        shapes[f"{prefix}.ln2.gamma"] = (d,)
        shapes[f"{prefix}.ln2.beta"] = (d,)
        shapes[f"{prefix}.ffn.w1"] = (d, config.d_ff)
        shapes[f"{prefix}.ffn.b1"] = (config.d_ff,)
        shapes[f"{prefix}.ffn.w2"] = (config.d_ff, d)
        shapes[f"{prefix}.ffn.b2"] = (d,)
    if classes is not None:
        shapes["classifier"] = (classes, d)
    return shapes


def init_params(config: EncoderConfig, rng: np.random.Generator,
                classes: int | None = None,
                init_std: float = 0.02) -> dict[str, np.ndarray]:
    """N(0, init_std^2) draws in ``param_shapes`` order, but ones for
    layer-norm scales and zeros for shifts and FFN biases. A projection is
    drawn as (heads, d, dh) and draw h laid into head h's columns. Every
    array is C-contiguous."""
    params = {}
    for name, shape in param_shapes(config, classes).items():
        if name.endswith((".gamma",)):
            params[name] = np.ones(shape)
        elif name.endswith((".beta", ".b1", ".b2")):
            params[name] = np.zeros(shape)
        elif name.endswith((".wq", ".wk", ".wv", ".wr")):
            # at head width 1 the reshape is a strided view, not a copy
            params[name] = np.ascontiguousarray(rng.normal(
                scale=init_std, size=(config.heads, shape[0], config.head_dim)
            ).transpose(1, 0, 2).reshape(shape))
        else:
            params[name] = rng.normal(scale=init_std, size=shape)
    return params


class Group:
    """Utterances, each with its mask plan, scored in one pass.

    The sequences are padded with zero frames to the longest length T
    (``length``) and folded into the row axis: frame t of utterance b is
    row b*T + t. The group builds its padded ``frames``, its (B, T)
    ``context`` mask and its ``blocked`` attention mask in that layout once,
    read-only, so the loss and the oracle read targets from ``frames`` by
    row, the classifier pools over ``context``, and no caller rebuilds a
    mask. A real row sees its plan's context columns, every row (padding
    included) sees itself, and no real row sees padding, so every
    utterance's rows compute what they would alone. A single utterance is
    a group of one, with no padding.

    For a pass that computes its last block at the target rows only, the
    group also lays its targets out as query slots: K per utterance, K the
    largest k of its plans, utterance-major, slot j of utterance b at frame
    ``query_positions[b, j]``. Utterance b's first k slots hold its targets
    in ``target_rows`` order; the rest pad it to K and sit at frame 0, a
    real row, so they compute finite values that nothing reads.
    """

    def __init__(self, sequences, plans):
        self.sequences = tuple(sequences)
        self.plans = tuple(plans)
        if not self.sequences or len(self.plans) != len(self.sequences):
            raise ad.ContractError("a group needs one plan per sequence, "
                                   "and at least one sequence")
        if len({seq.vocab_size for seq in self.sequences}) != 1:
            raise ad.ShapeError("group sequences differ in vocabulary size")
        self.lengths = tuple(seq.length for seq in self.sequences)
        for plan, t_len in zip(self.plans, self.lengths):
            plan.check_partition(t_len)
        self.size = len(self.sequences)
        self.length = max(self.lengths)
        self.vocab_size = self.sequences[0].vocab_size
        #: every plan's targets as rows, utterance by utterance
        self.target_rows = np.concatenate(
            [b * self.length + np.asarray(plan.target_idx, dtype=np.intp)
             for b, plan in enumerate(self.plans)])
        #: utterance b's targets are entries bounds[b] .. bounds[b+1] - 1 of
        #: ``target_rows``
        self.target_bounds = np.concatenate(
            ([0], np.cumsum([plan.k for plan in self.plans])))
        slots = max(plan.k for plan in self.plans)
        #: (size, K) query positions, targets first, then padding at 0
        self.query_positions = np.zeros((self.size, slots), dtype=np.intp)
        for b, plan in enumerate(self.plans):
            self.query_positions[b, :plan.k] = plan.target_idx
        #: the query slots of ``target_rows``, in its order
        self.target_slots = np.concatenate(
            [b * slots + np.arange(plan.k, dtype=np.intp)
             for b, plan in enumerate(self.plans)])
        #: (size * length, V) posterior rows, zero on padding
        frames = np.zeros((self.size, self.length, self.vocab_size))
        for b, seq in enumerate(self.sequences):
            frames[b, :seq.length] = seq.frames
        self.frames = frames.reshape(-1, self.vocab_size)
        #: (size, length), true at each plan's context frames
        self.context = np.zeros((self.size, self.length), dtype=bool)
        for b, plan in enumerate(self.plans):
            self.context[b, list(plan.context_idx)] = True
        #: (size, length, length), true where row i of utterance b may not
        #: attend to column j
        real_row = np.arange(self.length) < np.asarray(self.lengths)[:, None]
        allowed = real_row[:, :, None] & self.context[:, None, :]
        self.blocked = ~(allowed | np.eye(self.length, dtype=bool))
        for array in (self.target_rows, self.target_bounds,
                      self.query_positions, self.target_slots, self.frames,
                      self.context, self.blocked):
            array.flags.writeable = False


class GroupDropout:
    """Train-mode dropout over a group's rows or attention weights.

    Utterance b's masks come from ``rngs[b]``, one draw per site at the
    utterance's unpadded shape, in the order a pass over the utterance alone
    draws them, so its masks do not depend on the group it is in. Padding
    entries are kept. At the group's query rows (``queries=True``) each
    site still draws the utterance's full mask and keeps the rows at its
    query positions, so every generator is consumed as in a full pass.
    """

    def __init__(self, rate: float, rngs, group: Group):
        if len(rngs) != group.size:
            raise ad.ContractError("dropout needs one generator per utterance")
        self.rate, self.rngs, self.group = rate, tuple(rngs), group

    def rows(self, x: Tensor, queries: bool = False) -> Tensor:
        """(B*T, d) rows, or (B*K, d) query rows."""
        g, width = self.group, x.dims[-1]
        kept = np.ones((g.size, x.dims[0] // g.size, width), dtype=bool)
        for b, (rng, n) in enumerate(zip(self.rngs, g.lengths)):
            mask = ad.keep_mask(self.rate, rng, (n, width))
            if queries:
                kept[b] = mask[g.query_positions[b]]
            else:
                kept[b, :n] = mask
        return ad.dropout(x, self.rate, kept.reshape(x.dims))

    def weights(self, x: Tensor, heads: int, queries: bool = False) -> Tensor:
        """(heads*B, T, T) attention weights, head-major, or
        (heads*B, K, T) at the query rows."""
        g = self.group
        kept = np.ones((heads, g.size) + x.dims[1:], dtype=bool)
        for b, (rng, n) in enumerate(zip(self.rngs, g.lengths)):
            mask = ad.keep_mask(self.rate, rng, (heads, n, n))
            if queries:
                kept[:, b, :, :n] = mask[:, g.query_positions[b]]
            else:
                kept[:, b, :n, :n] = mask
        return ad.dropout(x, self.rate, kept.reshape(x.dims))


# one (2 * max_seq_len - 1, width) table per (width, max_seq_len, dtype);
# every shorter T reads a slice of it
_SINUSOID_CACHE: dict[tuple[int, int, np.dtype], np.ndarray] = {}


def relative_sinusoids(t_len: int, width: int, max_seq_len: int,
                       dtype=np.float64) -> np.ndarray:
    """(2T-1, width) sinusoidal embeddings of offsets -(T-1) .. T-1, as a
    read-only view, computed in float64 and cast to ``dtype``.

    Frequencies span geometrically from 1 down to ~1/(2 * max_seq_len), so
    even the slowest component varies across the offsets the model can see;
    a component constant over all offsets would be invisible to attention
    (softmax is shift-invariant per row) and its projection untrainable.
    """
    if not 1 <= t_len <= max_seq_len:
        raise SequenceLengthError(f"T={t_len} outside 1 .. {max_seq_len}")
    key = (width, max_seq_len, np.dtype(dtype))
    table = _SINUSOID_CACHE.get(key)
    if table is None:
        offsets = np.arange(-(max_seq_len - 1), max_seq_len, dtype=np.float64)
        base = 2.0 * max_seq_len
        inv_freq = base ** (-np.arange(0, width, 2) / width)
        angles = offsets[:, None] * inv_freq[None, :]
        table = np.empty((2 * max_seq_len - 1, width))
        table[:, 0::2] = np.sin(angles)
        table[:, 1::2] = np.cos(angles)
        table = table.astype(dtype, copy=False)
        table.setflags(write=False)
        _SINUSOID_CACHE[key] = table
    return table[max_seq_len - t_len:max_seq_len + t_len - 1]


def rel_attention_block(x: Tensor, blocked: np.ndarray,
                        layer_params: dict[str, Tensor], config: EncoderConfig,
                        dropout: GroupDropout | None = None,
                        queries: np.ndarray | None = None) -> Tensor:
    """One encoder block: relative-position attention, then feed-forward.

    Per head: score(i,j) = ((q_i + u) . k_j + (q_i + v) . r(i-j)) / sqrt(dh)
    where r is a learned projection of the sinusoidal offset table. The
    block's one ``ad.softmax`` call turns the scaled scores into the
    attention weights; pairs where the (heads*B, T, T) boolean stack
    ``blocked`` is true (a group's ``blocked`` tiled across heads,
    head-major) get no weight in it. Post-norm residual wiring. ``x``
    holds B utterances of T rows each. Position-wise work runs on the
    (B*T, d) rows; ``split_heads`` takes them straight to (heads*B, T, dh)
    stacks, so every head of every utterance is one stacked computation,
    and ``merge_heads`` takes them back. Dropout runs exactly when
    ``dropout`` is given.

    Given ``queries``, a group's (B, K) ``query_positions``, the block
    computes only those rows and returns them as (B*K, d), utterance-major:
    keys, values and offsets still come from every row, but queries, scores,
    weights, ``wo``, both layer norms and the FFN run on the K query rows of
    each utterance, as (heads*B, K, T) stacks. Each query row equals the row
    at its position in the full block, up to rounding: no row's output
    depends on another's beyond its keys and values.
    """
    stacks, t_len = blocked.shape[0], blocked.shape[-1]
    heads, dh = config.heads, config.head_dim
    picked = queries is not None
    if picked:
        size, q_len = queries.shape
        x_q = ad.gather_rows(
            x, (np.arange(size)[:, None] * t_len + queries).reshape(-1))
        positions = np.tile(queries, (heads, 1))
        blocked = blocked[np.arange(stacks)[:, None], positions]
    else:
        x_q, q_len = x, t_len
    rows = x_q.dims[0]
    rel_table = ad.constant(
        relative_sinusoids(t_len, config.d_model, config.max_seq_len,
                           x.data.dtype))

    q = ad.matmul(x_q, layer_params["wq"])          # (B*q_len, d)
    k = ad.split_heads(ad.matmul(x, layer_params["wk"]), heads, t_len)
    v = ad.split_heads(ad.matmul(x, layer_params["wv"]), heads, t_len)
    r = ad.split_heads(ad.matmul(rel_table, layer_params["wr"]), heads,
                       2 * t_len - 1)
    content = ad.matmul(
        ad.split_heads(ad.add(q, layer_params["u_bias"]), heads, q_len),
        ad.transpose(k))
    by_offset = ad.reshape(
        ad.matmul(ad.split_heads(ad.add(q, layer_params["v_bias"]), heads,
                                 rows),
                  ad.transpose(r)),
        (stacks, q_len, 2 * t_len - 1))
    shifted = (ad.rel_query_gather(by_offset, positions) if picked
               else ad.rel_position_gather(by_offset))
    scores = ad.scale(ad.add(content, shifted), 1.0 / math.sqrt(dh))
    weights = ad.softmax(scores, blocked)
    if dropout is not None:
        weights = dropout.weights(weights, heads, queries=picked)
    attn = ad.matmul(ad.merge_heads(ad.matmul(weights, v), heads),
                     layer_params["wo"])
    if dropout is not None:
        attn = dropout.rows(attn, queries=picked)
    x = ad.layer_norm(ad.add(x_q, attn),
                      layer_params["ln1.gamma"], layer_params["ln1.beta"])

    hidden = ad.gelu(ad.add(ad.matmul(x, layer_params["ffn.w1"]),
                            layer_params["ffn.b1"]))
    hidden = ad.add(ad.matmul(hidden, layer_params["ffn.w2"]),
                    layer_params["ffn.b2"])
    if dropout is not None:
        hidden = dropout.rows(hidden, queries=picked)
    return ad.layer_norm(ad.add(x, hidden),
                         layer_params["ln2.gamma"], layer_params["ln2.beta"])


def bind_params(params: dict[str, np.ndarray],
                tape: ad.Tape | None = None) -> dict[str, Tensor]:
    """Every parameter array, as it is, as a leaf on the tape; without a
    tape, as a plain tensor, so a forward-only pass records nothing. Float64
    and float32 arrays bind without a copy, and the pass, its gradients
    included, computes in their dtype."""
    if tape is None:
        return {name: Tensor(array) for name, array in params.items()}
    return {name: tape.leaf(array) for name, array in params.items()}


def encode(bound: dict[str, Tensor], config: EncoderConfig, group: Group,
           drop_rngs=None, targets_only: bool = False) -> Tensor:
    """Full forward pass over a group; row b*T + t of the result is the
    hidden state of utterance b at frame t (T = ``group.length``; rows
    past an utterance's end are padding). With ``targets_only`` the result
    is instead the hidden states at ``group.target_rows``, in that order,
    and the last block runs at the group's query rows only.

    Input row t is sum_v frames[t, v] * embed[v], the group's frames cast
    to the embedding's dtype; a vocabulary that differs from the
    embedding's rows is a ``ShapeError``. Every target row's input is then
    the mask vector instead, so the target rows, which carry the prediction
    representations, can never see their own content.
    Dropout (train mode) runs exactly when ``drop_rngs``, one generator per
    utterance, is given; each utterance draws its masks from its own
    generator as it would alone. The group's ``blocked`` mask is tiled
    across heads once, and every block receives that one stack.
    """
    t_len = group.length
    if t_len > config.max_seq_len:
        raise SequenceLengthError(f"T={t_len} exceeds max {config.max_seq_len}")
    frames = ad.constant(
        np.asarray(group.frames, dtype=bound["embed"].data.dtype))
    x = ad.fill_rows(ad.matmul(frames, bound["embed"]), group.target_rows,
                     bound["mask_vec"])
    dropout = None
    if drop_rngs is not None and config.dropout > 0.0:
        dropout = GroupDropout(config.dropout, drop_rngs, group)
        x = dropout.rows(x)
    blocked = np.tile(group.blocked, (config.heads, 1, 1))
    blocked.flags.writeable = False
    for i in range(config.layers):
        prefix = f"layer{i}."
        layer = {name[len(prefix):]: tensor for name, tensor in bound.items()
                 if name.startswith(prefix)}
        last = targets_only and i == config.layers - 1
        x = rel_attention_block(
            x, blocked, layer, config, dropout=dropout,
            queries=group.query_positions if last else None)
    return ad.gather_rows(x, group.target_slots) if targets_only else x


def predict_phonemes(hidden_at_targets: Tensor, embedding: Tensor) -> Tensor:
    """Phoneme logits via weight tying with the input embedding."""
    if hidden_at_targets.dims[0] < 1:
        raise ad.ContractError("need at least one target row")
    return ad.matmul(hidden_at_targets, ad.transpose(embedding))


def attentive_pool(hidden: Tensor, pool_query: Tensor,
                   pooled: np.ndarray) -> Tensor:
    """Single-head attention pooling with a trainable query, once per row of
    the (B, T) boolean mask ``pooled`` over the (B*T, d) rows of ``hidden``;
    returns (B, d).

    Pooled vector b weights the rows b*T + t where pooled[b, t] is true by
    softmax over them of (pool_query . h) / sqrt(d) and averages them. Every
    row is scored, and the masked softmax gives the others weight 0.
    """
    pooled = np.asarray(pooled, dtype=bool)
    if pooled.ndim != 2 or not pooled.any(axis=1).all():
        raise ad.ContractError("attentive_pool needs at least one valid position")
    (size, t_len), d = pooled.shape, hidden.dims[1]
    scores = ad.scale(ad.matmul(hidden, ad.reshape(pool_query, (d, 1))),
                      1.0 / math.sqrt(d))
    weights = ad.softmax(ad.reshape(scores, (size, 1, t_len)),
                         ~pooled[:, None, :])
    return ad.reshape(ad.matmul(weights, ad.reshape(hidden, (size, t_len, d))),
                      (size, d))

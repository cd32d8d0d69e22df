"""Relative-position Transformer encoder over phoneme posterior sequences.

Input tokens are distribution-weighted pools of the phoneme embedding rows,
so a frame's embedding is exactly E^T h for its posterior h. Prediction
targets are hidden from the network in two ways at once: their input rows are
replaced by a learnable mask vector, and the attention mask blocks their
columns for everyone but themselves. Context rows attend to context columns
only; target rows attend to context plus self. No absolute positions enter
anywhere; attention scores see only relative offsets, which is what makes
orderings of the same context set equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import PhonemePosteriorSequence

if TYPE_CHECKING:  # pragma: no cover
    from .objective import MaskPlan

NEG_INF = float("-inf")


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
    """Canonical name -> shape map for every learnable array.

    Attention projections are stacked over heads in the leading axis; the
    output projection concatenates head features row-wise, so wo is (d, d).
    """
    d, dh, nh = config.d_model, config.head_dim, config.heads
    shapes: dict[str, tuple[int, ...]] = {
        "embed": (config.vocab_size, d),
        "mask_vec": (d,),
        "pool_query": (d,),
    }
    for i in range(config.layers):
        prefix = f"layer{i}"
        shapes[f"{prefix}.wq"] = (nh, d, dh)
        shapes[f"{prefix}.wk"] = (nh, d, dh)
        shapes[f"{prefix}.wv"] = (nh, d, dh)
        shapes[f"{prefix}.wr"] = (nh, d, dh)
        shapes[f"{prefix}.wo"] = (d, d)
        shapes[f"{prefix}.u_bias"] = (nh, 1, dh)
        shapes[f"{prefix}.v_bias"] = (nh, 1, dh)
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
    params = {}
    for name, shape in param_shapes(config, classes).items():
        if name.endswith((".gamma",)):
            params[name] = np.ones(shape)
        elif name.endswith((".beta", ".b1", ".b2")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(scale=init_std, size=shape)
    return params


@dataclass(frozen=True)
class AttentionMask:
    """allowed[i, j] is true when position i may attend to position j."""

    allowed: np.ndarray

    def __post_init__(self):
        if self.allowed.ndim != 2 or self.allowed.shape[0] != self.allowed.shape[1]:
            raise ValueError("attention mask must be square")
        if not self.allowed.any(axis=1).all():
            raise ValueError("attention mask has an all-blocked row")

    @classmethod
    def from_plan(cls, plan: "MaskPlan") -> "AttentionMask":
        t_len = len(plan.context_idx) + len(plan.target_idx)
        allowed = np.zeros((t_len, t_len), dtype=bool)
        context = np.asarray(plan.context_idx, dtype=np.intp)
        targets = np.asarray(plan.target_idx, dtype=np.intp)
        allowed[:, context] = True          # everyone sees the context
        allowed[targets, :] = False
        allowed[np.ix_(targets, context)] = True
        allowed[targets, targets] = True    # targets also see themselves
        return cls(allowed)


@lru_cache(maxsize=512)
def _mask_for_plan(plan: "MaskPlan") -> AttentionMask:
    return AttentionMask.from_plan(plan)


# one (2 * max_seq_len - 1, width) table per (width, max_seq_len); every
# shorter T reads a slice of it
_SINUSOID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def relative_sinusoids(t_len: int, width: int, max_seq_len: int) -> np.ndarray:
    """(2T-1, width) sinusoidal embeddings of offsets -(T-1) .. T-1, as a
    read-only view.

    Frequencies span geometrically from 1 down to ~1/(2 * max_seq_len), so
    even the slowest component varies across the offsets the model can see;
    a component constant over all offsets would be invisible to attention
    (softmax is shift-invariant per row) and its projection untrainable.
    """
    if not 1 <= t_len <= max_seq_len:
        raise SequenceLengthError(f"T={t_len} outside 1 .. {max_seq_len}")
    key = (width, max_seq_len)
    table = _SINUSOID_CACHE.get(key)
    if table is None:
        offsets = np.arange(-(max_seq_len - 1), max_seq_len, dtype=np.float64)
        base = 2.0 * max_seq_len
        inv_freq = base ** (-np.arange(0, width, 2) / width)
        angles = offsets[:, None] * inv_freq[None, :]
        table = np.empty((2 * max_seq_len - 1, width))
        table[:, 0::2] = np.sin(angles)
        table[:, 1::2] = np.cos(angles)
        table.setflags(write=False)
        _SINUSOID_CACHE[key] = table
    return table[max_seq_len - t_len:max_seq_len + t_len - 1]


def embed_posteriors(embedding: Tensor, seq: PhonemePosteriorSequence) -> Tensor:
    """Row t of the output is sum_v frames[t, v] * embedding[v]."""
    if seq.vocab_size != embedding.dims[0]:
        raise ad.ShapeError(
            f"sequence V={seq.vocab_size} != embedding rows {embedding.dims[0]}")
    return ad.matmul(ad.constant(seq.frames, check=False), embedding)


def apply_mask_plan(embeddings: Tensor, plan: "MaskPlan", mask_vec: Tensor) -> Tensor:
    """Replace target rows with the learnable mask vector."""
    t_len = embeddings.dims[0]
    plan.check_partition(t_len)
    return ad.fill_rows(embeddings, plan.target_idx, mask_vec)


@dataclass
class AttentionCapture:
    """Optional sink for attention internals, one (heads, T, T) array per
    block: pre-mask scaled scores and post-softmax weights."""

    scores: list[np.ndarray] = field(default_factory=list)
    weights: list[np.ndarray] = field(default_factory=list)


def rel_attention_block(x: Tensor, mask: AttentionMask,
                        layer_params: dict[str, Tensor], config: EncoderConfig,
                        drop_rng: np.random.Generator | None = None,
                        capture: AttentionCapture | None = None) -> Tensor:
    """One encoder block: relative-position attention, then feed-forward.

    Per head: score(i,j) = ((q_i + u) . k_j + (q_i + v) . r(i-j)) / sqrt(dh)
    where r is a learned projection of the sinusoidal offset table. Blocked
    pairs are set to -inf before the softmax. Post-norm residual wiring.
    All heads run as one stacked computation. Dropout runs exactly when
    ``drop_rng`` is given.
    """
    t_len = x.dims[0]
    rel_table = ad.constant(
        relative_sinusoids(t_len, config.d_model, config.max_seq_len),
        check=False)
    blocked = ~mask.allowed

    q = ad.matmul(x, layer_params["wq"])            # (heads, T, dh)
    k = ad.matmul(x, layer_params["wk"])
    v = ad.matmul(x, layer_params["wv"])
    r = ad.matmul(rel_table, layer_params["wr"])    # (heads, 2T-1, dh)
    content = ad.matmul(ad.add(q, layer_params["u_bias"]), ad.transpose(k))
    by_offset = ad.matmul(ad.add(q, layer_params["v_bias"]), ad.transpose(r))
    scores = ad.scale(ad.add(content, ad.rel_position_gather(by_offset)),
                      1.0 / math.sqrt(config.head_dim))
    if capture is not None:
        capture.scores.append(scores.data.copy())
    weights = ad.softmax(ad.masked_fill(scores, blocked, NEG_INF))
    if capture is not None:
        capture.weights.append(weights.data.copy())
    if drop_rng is not None:
        weights = ad.dropout(weights, config.dropout, drop_rng)
    attn = ad.matmul(ad.merge_heads(ad.matmul(weights, v)),
                     layer_params["wo"])
    if drop_rng is not None:
        attn = ad.dropout(attn, config.dropout, drop_rng)
    x = ad.layer_norm(ad.add(x, attn),
                      layer_params["ln1.gamma"], layer_params["ln1.beta"])

    hidden = ad.gelu(ad.add(ad.matmul(x, layer_params["ffn.w1"]),
                            layer_params["ffn.b1"]))
    hidden = ad.add(ad.matmul(hidden, layer_params["ffn.w2"]),
                    layer_params["ffn.b2"])
    if drop_rng is not None:
        hidden = ad.dropout(hidden, config.dropout, drop_rng)
    return ad.layer_norm(ad.add(x, hidden),
                         layer_params["ln2.gamma"], layer_params["ln2.beta"])


def bind_params(params: dict[str, np.ndarray],
                tape: ad.Tape | None = None) -> dict[str, Tensor]:
    """Every parameter array as a leaf on the tape; without a tape, as a
    plain tensor, so a forward-only pass records nothing."""
    if tape is None:
        return {name: Tensor(array, check=False)
                for name, array in params.items()}
    return {name: tape.leaf(array, check=False) for name, array in params.items()}


_LAYER_KEYS = ("wq", "wk", "wv", "wr", "wo", "u_bias", "v_bias",
               "ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta",
               "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


@lru_cache(maxsize=None)
def _layer_names(index: int) -> dict[str, str]:
    return {key: f"layer{index}.{key}" for key in _LAYER_KEYS}


def _layer_view(bound: dict[str, Tensor], index: int) -> dict[str, Tensor]:
    return {key: bound[full] for key, full in _layer_names(index).items()}


def encode(bound: dict[str, Tensor], config: EncoderConfig,
           seq: PhonemePosteriorSequence, plan: "MaskPlan",
           drop_rng: np.random.Generator | None = None,
           capture: AttentionCapture | None = None) -> Tensor:
    """Full forward pass; row t of the result is the hidden state at frame t.

    Target rows carry the prediction representations: their inputs were
    replaced by the mask vector, so they can never see their own content.
    Dropout (train mode) runs exactly when ``drop_rng`` is given.
    """
    t_len = seq.length
    if t_len > config.max_seq_len:
        raise SequenceLengthError(f"T={t_len} exceeds max {config.max_seq_len}")
    plan.check_partition(t_len)
    x = embed_posteriors(bound["embed"], seq)
    x = apply_mask_plan(x, plan, bound["mask_vec"])
    if drop_rng is not None:
        x = ad.dropout(x, config.dropout, drop_rng)
    mask = _mask_for_plan(plan)
    for i in range(config.layers):
        x = rel_attention_block(x, mask, _layer_view(bound, i), config,
                                drop_rng=drop_rng, capture=capture)
    return x


def predict_phonemes(hidden_at_targets: Tensor, embedding: Tensor) -> Tensor:
    """Phoneme logits via weight tying with the input embedding."""
    if hidden_at_targets.dims[0] < 1:
        raise ad.ContractError("need at least one target row")
    return ad.matmul(hidden_at_targets, ad.transpose(embedding))


def attentive_pool(hidden: Tensor, pool_query: Tensor,
                   valid_idx) -> Tensor:
    """Single-head attention pooling with a trainable query.

    weights = softmax over valid positions of (pool_query . h_t) / sqrt(d);
    the result is the weight-averaged hidden state, a d-vector.
    """
    valid = np.asarray(valid_idx, dtype=np.intp)
    if valid.size == 0:
        raise ad.ContractError("attentive_pool needs at least one valid position")
    d = hidden.dims[1]
    rows = ad.gather_rows(hidden, valid)
    scores = ad.scale(ad.matmul(rows, ad.reshape(pool_query, (d, 1))),
                      1.0 / math.sqrt(d))
    weights = ad.softmax(ad.transpose(scores))
    return ad.reshape(ad.matmul(weights, rows), (d,))

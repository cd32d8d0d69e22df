"""Mask-plan sampling and the pre-training / fine-tuning objectives.

A mask plan partitions a sequence's frames into a context set and a target
set. The sampler draws the target count k uniformly from {1 .. budget_max}
with budget_max = max(1, floor(mask_ratio_max * #eligible)), then a uniform
k-subset of the eligible (non-major-SIL) frames. Major-SIL frames are never
targets; predicting silence is as pointless as predicting the spaces of a
sentence, but silence frames still serve as context because their SIL mass
encodes volume.

The pre-training loss is soft cross entropy between predicted phoneme
distributions and the original posterior rows at the targets. Per-target
averaging is the default; the plain sum over targets is available through
``weighting="sum"`` for comparison (the two differ by a per-plan factor k,
which is exactly the gap quantified by the oracle module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import LabeledUtterance, PhonemePosteriorSequence, is_major_sil
from .encoder import (EncoderConfig, attentive_pool, bind_params, encode,
                      predict_phonemes)


class SamplingError(RuntimeError):
    """No eligible frame to sample a target from; skip the utterance."""


@dataclass(frozen=True)
class MaskPlan:
    """Disjoint context/target index sets covering [0, T)."""

    context_idx: tuple[int, ...]
    target_idx: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "context_idx", tuple(sorted(self.context_idx)))
        object.__setattr__(self, "target_idx", tuple(sorted(self.target_idx)))
        if set(self.context_idx) & set(self.target_idx):
            raise ad.ContractError("mask plan sets overlap")

    @property
    def k(self) -> int:
        return len(self.target_idx)

    def check_partition(self, t_len: int) -> None:
        combined = set(self.context_idx) | set(self.target_idx)
        if combined != set(range(t_len)):
            raise ad.ContractError(
                f"mask plan does not partition [0, {t_len})")

    @classmethod
    def full_context(cls, t_len: int) -> "MaskPlan":
        """Evaluation-time plan: nothing masked."""
        return cls(tuple(range(t_len)), ())

    @classmethod
    def from_context_set(cls, context, t_len: int) -> "MaskPlan":
        context = tuple(sorted(context))
        targets = tuple(i for i in range(t_len) if i not in set(context))
        return cls(context, targets)


def sample_mask_plan(seq: PhonemePosteriorSequence, sil_index: int,
                     rho_max: float, tau: float,
                     rng: np.random.Generator) -> MaskPlan:
    """Draw a mask plan: uniform target count, uniform subset of eligibles."""
    if not 0.0 < rho_max <= 1.0:
        raise ValueError("rho_max must lie in (0, 1]")
    eligible = [t for t in range(seq.length)
                if not is_major_sil(seq.frames[t], sil_index, tau)]
    if not eligible:
        raise SamplingError(
            f"{seq.utterance_id or 'sequence'}: every frame is major-SIL")
    budget_max = max(1, math.floor(rho_max * len(eligible)))
    k = int(rng.integers(1, budget_max + 1))
    targets = rng.choice(len(eligible), size=k, replace=False)
    target_idx = tuple(eligible[i] for i in targets)
    context_idx = tuple(t for t in range(seq.length)
                        if t not in set(target_idx))
    return MaskPlan(context_idx, target_idx)


@dataclass
class LossBreakdown:
    plm_loss: float
    cls_loss: float | None
    total: float


def soft_cross_entropy(logits: Tensor, target_dists: np.ndarray) -> Tensor:
    """Mean over rows of -sum_v target[v] * log softmax(logits)[v].

    Each row's value is bounded below by the entropy of its target, with
    equality exactly when the prediction matches the target.
    """
    targets = np.asarray(target_dists, dtype=np.float64)
    if targets.shape != logits.dims:
        raise ad.ShapeError(
            f"targets {targets.shape} do not match logits {logits.dims}")
    k = targets.shape[0]
    per_row_sum = ad.scale(ad.sum_all(ad.mul(ad.constant(targets, check=False),
                                             ad.log_softmax(logits))), -1.0)
    return ad.scale(per_row_sum, 1.0 / k)


def _masked_regression(hidden: Tensor, embed: Tensor,
                       seq: PhonemePosteriorSequence, plan: MaskPlan,
                       weighting: str) -> Tensor:
    """Soft cross entropy of the predictions at the targets against their
    original posterior rows: averaged over targets, or summed for "sum"."""
    logits = predict_phonemes(ad.gather_rows(hidden, plan.target_idx), embed)
    loss = soft_cross_entropy(logits, seq.frames[list(plan.target_idx)])
    return ad.scale(loss, float(plan.k)) if weighting == "sum" else loss


def _plm_term(bound: dict[str, Tensor], config: EncoderConfig,
              seq: PhonemePosteriorSequence, plan: MaskPlan,
              weighting: str, train: bool,
              drop_rng: np.random.Generator | None) -> Tensor:
    if weighting not in ("mean", "sum"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if plan.k < 1:
        raise ad.ContractError("pre-training loss needs at least one target")
    hidden = encode(bound, config, seq, plan,
                    drop_rng=drop_rng if train else None)
    return _masked_regression(hidden, bound["embed"], seq, plan, weighting)


def _loss_and_grads(params: dict[str, np.ndarray], want_grads: bool, build):
    """Evaluate ``build(bound) -> (cls or None, plm, total)``, on a fresh
    tape only when gradients are requested; backpropagate the total to a
    name->gradient dict then."""
    tape = ad.Tape() if want_grads else None
    bound = bind_params(params, tape)
    cls, plm, total = build(bound)
    breakdown = LossBreakdown(plm_loss=plm.item(),
                              cls_loss=None if cls is None else cls.item(),
                              total=total.item())
    if not want_grads:
        return breakdown
    grads = ad.backward(tape, total)
    by_name = {name: grads[tensor.node_id].data
               for name, tensor in bound.items() if tensor.node_id in grads}
    return breakdown, by_name


def bert_plm_loss(params: dict[str, np.ndarray], config: EncoderConfig,
                  seq: PhonemePosteriorSequence, plan: MaskPlan,
                  weighting: str = "mean",
                  drop_rng: np.random.Generator | None = None,
                  want_grads: bool = False):
    """Masked-regression loss against the original posterior rows.

    Gradient flows to every encoder parameter, including the mask vector.
    Dropout runs exactly when ``drop_rng`` is given. Returns a LossBreakdown,
    plus a name->gradient dict when requested.
    """
    plan.check_partition(seq.length)

    def build(bound):
        loss = _plm_term(bound, config, seq, plan, weighting, True, drop_rng)
        return None, loss, loss

    return _loss_and_grads(params, want_grads, build)


def _finetune_term(bound: dict[str, Tensor], config: EncoderConfig,
                   utterance: LabeledUtterance, plan: MaskPlan,
                   lam: float, weighting: str, train: bool,
                   drop_rng: np.random.Generator | None
                   ) -> tuple[Tensor, Tensor, Tensor]:
    """(cls, plm, total) on one shared forward pass."""
    classes = bound["classifier"].dims[0]
    seq = utterance.sequence
    hidden = encode(bound, config, seq, plan,
                    drop_rng=drop_rng if train else None)

    pooled = attentive_pool(hidden, bound["pool_query"], plan.context_idx)
    logits = ad.matmul(ad.reshape(pooled, (1, config.d_model)),
                       ad.transpose(bound["classifier"]))
    one_hot = np.zeros((1, classes))
    one_hot[0, utterance.label] = 1.0
    cls = ad.scale(ad.sum_all(ad.mul(ad.constant(one_hot, check=False),
                                     ad.log_softmax(logits))), -1.0)

    if plan.k >= 1:
        plm = _masked_regression(hidden, bound["embed"], seq, plan, weighting)
    else:
        plm = ad.constant(0.0)
    return cls, plm, ad.add(cls, ad.scale(plm, lam))


def finetune_loss(params: dict[str, np.ndarray], config: EncoderConfig,
                  utterance: LabeledUtterance, plan: MaskPlan,
                  lam: float = 1.0, weighting: str = "mean",
                  drop_rng: np.random.Generator | None = None,
                  want_grads: bool = False):
    """Classification loss plus lam times the masked loss, one forward pass.

    The classifier pools over context positions only (target rows carry the
    mask vector, not content), so the masked frames act as input dropout.
    Dropout runs exactly when ``drop_rng`` is given.
    """
    if "classifier" not in params:
        raise ad.ContractError("fine-tuning requires a classifier head")
    classes = params["classifier"].shape[0]
    if not 0 <= utterance.label < classes:
        raise ad.ContractError(
            f"label {utterance.label} out of range for {classes} classes")
    plan.check_partition(utterance.sequence.length)

    def build(bound):
        return _finetune_term(bound, config, utterance, plan, lam, weighting,
                              True, drop_rng)

    return _loss_and_grads(params, want_grads, build)

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

Both losses score a ``Group`` of utterances in one pass and report the sum
of their per-utterance losses; a single utterance is a group of one. A loss
computes in the dtype of the parameter arrays it is given, its targets,
counts and labels included, and returns its gradients in that dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import (LabeledUtterance, PhonemePosteriorSequence,
                     major_sil_frames)
from .encoder import (EncoderConfig, Group, attentive_pool, bind_params,
                      encode, predict_phonemes)


class SamplingError(RuntimeError):
    """No eligible frame to sample a target from; skip the utterance."""


@dataclass(frozen=True)
class MaskPlan:
    """Disjoint context/target index sets covering [0, T), each index
    listed once."""

    context_idx: tuple[int, ...]
    target_idx: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "context_idx", tuple(sorted(self.context_idx)))
        object.__setattr__(self, "target_idx", tuple(sorted(self.target_idx)))
        for idx in (self.context_idx, self.target_idx):
            if len(set(idx)) != len(idx):
                raise ad.ContractError("mask plan repeats an index")
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
        excluded = set(context)
        targets = tuple(i for i in range(t_len) if i not in excluded)
        return cls(context, targets)


def sample_mask_plan(seq: PhonemePosteriorSequence, sil_index: int,
                     rho_max: float, tau: float,
                     rng: np.random.Generator) -> MaskPlan:
    """Draw a mask plan: uniform target count, uniform subset of eligibles."""
    if not 0.0 < rho_max <= 1.0:
        raise ValueError("rho_max must lie in (0, 1]")
    eligible = np.flatnonzero(~major_sil_frames(seq.frames, sil_index, tau))
    if not eligible.size:
        raise SamplingError(
            f"{seq.utterance_id or 'sequence'}: every frame is major-SIL")
    budget_max = max(1, math.floor(rho_max * eligible.size))
    k = int(rng.integers(1, budget_max + 1))
    targets = rng.choice(eligible.size, size=k, replace=False)
    target_idx = tuple(int(t) for t in eligible[targets])
    chosen = set(target_idx)
    context_idx = tuple(t for t in range(seq.length) if t not in chosen)
    return MaskPlan(context_idx, target_idx)


@dataclass
class LossBreakdown:
    """Losses of one evaluation: the masked-regression loss and the total
    minimised (for fine-tuning, the class loss plus lam times it). For a
    group, each is the sum over its utterances."""

    plm_loss: float
    total: float


def soft_cross_entropy(logits: Tensor, target_dists: np.ndarray,
                       bounds=None) -> Tensor:
    """Per run of rows, the mean over its rows of -sum_v target[v] * log
    softmax(logits)[v]; (n,) for the n runs that ``bounds`` delimits (as in
    ``segment_sum``), one run of every row by default. An empty run scores 0.

    Each row's value is bounded below by the entropy of its target, with
    equality exactly when the prediction matches the target. The targets and
    the inverse counts take the logits' dtype.
    """
    dtype = logits.data.dtype
    targets = np.asarray(target_dists, dtype=dtype)
    if targets.shape != logits.dims:
        raise ad.ShapeError(
            f"targets {targets.shape} do not match logits {logits.dims}")
    edges = [0, targets.shape[0]] if bounds is None else bounds
    counts = np.diff(edges)
    inverse = np.array([1.0 / k if k else 0.0 for k in counts.tolist()],
                       dtype=dtype)
    per_run_sum = ad.scale(ad.segment_sum(
        ad.mul(ad.constant(targets), ad.log_softmax(logits)),
        edges), -1.0)
    return ad.mul(per_run_sum, ad.constant(inverse))


def _masked_regression(at_targets: Tensor, embed: Tensor, group: Group,
                       weighting: str) -> Tensor:
    """Per utterance, soft cross entropy of the predictions from the hidden
    states ``at_targets`` at ``group.target_rows`` against their original
    posterior rows: averaged over its targets, or summed for "sum". The
    group has at least one target; an utterance without targets scores 0;
    (B,)."""
    rows = group.target_rows
    logits = predict_phonemes(at_targets, embed)
    loss = soft_cross_entropy(logits, group.frames[rows], group.target_bounds)
    if weighting == "sum":
        ks = np.array([float(plan.k) for plan in group.plans],
                      dtype=at_targets.data.dtype)
        loss = ad.mul(loss, ad.constant(ks))
    return loss


def _plm_losses(bound: dict[str, Tensor], config: EncoderConfig,
                group: Group, weighting: str, drop_rngs) -> Tensor:
    """(B,) masked-regression losses of a group's utterances. The loss reads
    the target rows alone, so the encoder runs its last block at them
    only."""
    if weighting not in ("mean", "sum"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if min(plan.k for plan in group.plans) < 1:
        raise ad.ContractError("pre-training loss needs at least one target")
    at_targets = encode(bound, config, group, drop_rngs=drop_rngs,
                        targets_only=True)
    return _masked_regression(at_targets, bound["embed"], group, weighting)


def _plm_term(bound: dict[str, Tensor], config: EncoderConfig,
              seq: PhonemePosteriorSequence, plan: MaskPlan,
              weighting: str, train: bool,
              drop_rng: np.random.Generator | None) -> Tensor:
    """One utterance's loss as a scalar, through a group of one."""
    rngs = [drop_rng] if train and drop_rng is not None else None
    return ad.sum_all(_plm_losses(bound, config, Group([seq], [plan]),
                                  weighting, rngs))


def _loss_and_grads(params: dict[str, np.ndarray], want_grads: bool, build):
    """Evaluate ``build(bound) -> (plm, total)``, each (B,) per utterance, on
    a fresh tape only when gradients are requested; report their sums and
    backpropagate the summed total to a name->gradient dict then."""
    tape = ad.Tape() if want_grads else None
    bound = bind_params(params, tape)
    plm, total = build(bound)
    loss = ad.sum_all(total)
    breakdown = LossBreakdown(plm_loss=float(plm.data.sum()),
                              total=loss.item())
    if not want_grads:
        return breakdown
    grads = ad.backward(tape, loss)
    by_name = {name: grads[tensor.node_id].data
               for name, tensor in bound.items() if tensor.node_id in grads}
    return breakdown, by_name


def bert_plm_loss(params: dict[str, np.ndarray], config: EncoderConfig,
                  group: Group, weighting: str = "mean", drop_rngs=None,
                  want_grads: bool = False):
    """Masked-regression loss against the original posterior rows, summed
    over the group's utterances.

    Gradient flows to every encoder parameter, including the mask vector.
    Dropout runs exactly when ``drop_rngs`` (one generator per utterance)
    is given. Returns a LossBreakdown, plus a name->gradient dict of the
    summed loss when requested.
    """

    def build(bound):
        losses = _plm_losses(bound, config, group, weighting, drop_rngs)
        return losses, losses

    return _loss_and_grads(params, want_grads, build)


def _finetune_losses(bound: dict[str, Tensor], config: EncoderConfig,
                     group: Group, labels, lam: float, weighting: str,
                     drop_rngs) -> tuple[Tensor, Tensor, Tensor]:
    """(cls, plm, total), each (B,), on one shared forward pass."""
    classes = bound["classifier"].dims[0]
    hidden = encode(bound, config, group, drop_rngs=drop_rngs)

    pooled = attentive_pool(hidden, bound["pool_query"], group.context)
    logits = ad.matmul(pooled, ad.transpose(bound["classifier"]))
    one_hot = np.zeros((group.size, classes), hidden.data.dtype)
    one_hot[np.arange(group.size), list(labels)] = 1.0
    cls = soft_cross_entropy(logits, one_hot, np.arange(group.size + 1))

    if group.target_rows.size:
        plm = _masked_regression(ad.gather_rows(hidden, group.target_rows),
                                 bound["embed"], group, weighting)
    else:
        plm = ad.constant(np.zeros(group.size, hidden.data.dtype))
    return cls, plm, ad.add(cls, ad.scale(plm, lam))


def _finetune_term(bound: dict[str, Tensor], config: EncoderConfig,
                   utterance: LabeledUtterance, plan: MaskPlan,
                   lam: float, weighting: str, train: bool,
                   drop_rng: np.random.Generator | None
                   ) -> tuple[Tensor, Tensor, Tensor]:
    """One utterance's (cls, plm, total) as scalars, through a group of
    one."""
    rngs = [drop_rng] if train and drop_rng is not None else None
    terms = _finetune_losses(bound, config,
                             Group([utterance.sequence], [plan]),
                             [utterance.label], lam, weighting, rngs)
    return tuple(ad.sum_all(term) for term in terms)


def finetune_loss(params: dict[str, np.ndarray], config: EncoderConfig,
                  group: Group, labels, lam: float = 1.0,
                  weighting: str = "mean", drop_rngs=None,
                  want_grads: bool = False):
    """Classification loss plus lam times the masked loss, one forward pass,
    summed over the group's utterances (``labels`` holds one label each).

    The classifier pools over context positions only (target rows carry the
    mask vector, not content), so the masked frames act as input dropout.
    An utterance whose plan has no target adds no masked loss. Dropout runs
    exactly when ``drop_rngs`` is given.
    """
    if "classifier" not in params:
        raise ad.ContractError("fine-tuning requires a classifier head")
    classes = params["classifier"].shape[0]
    labels = tuple(labels)
    if len(labels) != group.size:
        raise ad.ContractError("fine-tuning needs one label per utterance")
    for label in labels:
        if not 0 <= label < classes:
            raise ad.ContractError(
                f"label {label} out of range for {classes} classes")

    def build(bound):
        return _finetune_losses(bound, config, group, labels, lam, weighting,
                                drop_rngs)[1:]   # (plm, total)

    return _loss_and_grads(params, want_grads, build)

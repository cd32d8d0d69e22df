"""Optimization loops, checkpointing, evaluation, and ablation harnesses.

Pre-training touches sequences only; the code path has no label accessor, so
labels cannot leak into it. Fine-tuning resamples a fresh mask plan per step
(the masked frames act as input dropout) and early-stops on validation error.
Both stages run the same minibatch loop (shuffle, accumulate, average, Adam);
they differ only in the per-utterance loss and in what happens to an
utterance without an eligible target: pre-training skips it, fine-tuning
trains it with nothing masked. All shuffling, plan sampling, dropout and init
draw from named substreams of one seed, which makes checkpoints bitwise
reproducible.

Checkpoint format (.ckpt): magic "CKP1"; u32 entry count; per entry u16 name
length, name bytes (UTF-8), u8 rank, rank u32 dims, then little-endian f32
payload; finally a u32-length-prefixed UTF-8 dump of the resolved config,
after which nothing may follow. Optimizer moments are stored under "adam.m."
/ "adam.v." name prefixes and the step counter as the scalar entry "step".
Checkpoints are written and read one entry at a time (the format does not
depend on it), so neither side holds the whole payload; an entry holding a
NaN or an infinity is a data error.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (Config, ConfigError, config_text, encoder_config,
                     parse_config_text)
from .corpus import (SIL_THRESHOLD, ByteReader, CorpusFormatError,
                     LabeledUtterance, PhonemePosteriorSequence, read_corpus)
from .encoder import (EncoderConfig, attentive_pool, bind_params, encode,
                      init_params)
from .objective import (MaskPlan, SamplingError, bert_plm_loss,
                        finetune_loss, sample_mask_plan)
from .rng import stream

CHECKPOINT_MAGIC = b"CKP1"
MAX_RANK = 64  # numpy arrays have at most 64 dimensions

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    """Training cannot proceed (bad data, exploding gradients)."""


class DataError(ValueError):
    """Input data inconsistent with the requested operation."""


@dataclass
class OptimState:
    """Adam first/second moments per parameter, step count and rate."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    lr: float

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float) -> "OptimState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()},
                   step=0, lr=lr)


def adam_step(params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray],
              state: OptimState) -> None:
    """Bias-corrected Adam update, in place; missing gradients count as 0."""
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.step
    correction2 = 1.0 - ADAM_BETA2 ** state.step
    for name in sorted(params):
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(params[name])
        elif not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        params[name] -= state.lr * (m / correction1) / (
            np.sqrt(v / correction2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    arrays: dict[str, np.ndarray]
    config: Config
    step: int
    optim: OptimState | None = None


def _write_entry(out, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    dims = array.shape
    out.write(struct.pack("<H", len(encoded)) + encoded
              + struct.pack(f"<B{len(dims)}I", len(dims), *dims))
    out.write(np.ascontiguousarray(array, dtype="<f4"))


def save_checkpoint(path, params: dict[str, np.ndarray], config: Config,
                    step: int, optim: OptimState | None = None) -> None:
    """Atomic write, one entry at a time: temp file then rename."""
    entries: dict[str, np.ndarray] = dict(sorted(params.items()))
    if optim is not None:
        for name, arr in sorted(optim.m.items()):
            entries[f"adam.m.{name}"] = arr
        for name, arr in sorted(optim.v.items()):
            entries[f"adam.v.{name}"] = arr
    entries["step"] = np.asarray(float(step))
    text = config_text(config).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(CHECKPOINT_MAGIC + struct.pack("<I", len(entries)))
        for name, arr in entries.items():
            _write_entry(out, name, np.asarray(arr, dtype=np.float64))
        out.write(struct.pack("<I", len(text)) + text)
    tmp.replace(path)


def _read_entries(reader: ByteReader) -> tuple[dict[str, np.ndarray], Config]:
    """Every entry, one at a time, then the config text; an entry holding a
    NaN or an infinity is rejected at the offset of that value."""
    (count,) = reader.unpack("<I")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len, "entry name")
        (rank,) = reader.unpack("<B")
        if rank > MAX_RANK:
            raise CorpusFormatError(f"entry {name!r} has rank {rank} > "
                                    f"{MAX_RANK}", reader.offset - 1)
        dims = reader.unpack(f"<{rank}I")
        start = reader.offset
        data = np.frombuffer(reader.take(4 * math.prod(dims)), dtype="<f4")
        finite = np.isfinite(data)
        if not finite.all():
            raise CorpusFormatError(f"entry {name!r} holds a non-finite value",
                                    start + 4 * int(finite.argmin()))
        entries[name] = data.astype(np.float64).reshape(dims)
    (text_len,) = reader.unpack("<I")
    config = parse_config_text(reader.text(text_len, "config text"))
    reader.end()
    return entries, config


def load_checkpoint(path) -> Checkpoint:
    """Read one entry at a time from the file (never the whole payload)."""
    with ByteReader(path) as reader:
        magic = reader.magic(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"bad checkpoint magic {magic!r}")
        try:
            entries, config = _read_entries(reader)
        except (CorpusFormatError, ConfigError) as exc:
            raise DataError(f"checkpoint {path}: {exc}") from None

    if "step" not in entries:
        raise DataError(f"checkpoint {path}: no 'step' entry")
    step = entries.pop("step")
    if step.size != 1:
        raise DataError(f"checkpoint {path}: 'step' is not one number")
    step = int(step.reshape(()))
    params = {k: v for k, v in entries.items() if not k.startswith("adam.")}
    optim = None
    m = {k[len("adam.m."):]: v for k, v in entries.items()
         if k.startswith("adam.m.")}
    v2 = {k[len("adam.v."):]: v for k, v in entries.items()
          if k.startswith("adam.v.")}
    if m:
        optim = OptimState(m=m, v=v2, step=step, lr=config.lr)
    return Checkpoint(arrays=params, config=config, step=step, optim=optim)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass
class EvalMetrics:
    error_rate: float
    macro_f1: float
    micro_f1: float
    confusion: np.ndarray
    zero_support_classes: tuple[int, ...] = ()


def metrics_from_confusion(confusion: np.ndarray) -> EvalMetrics:
    """Single-label metrics; micro-F1 equals accuracy, macro averages
    per-class F1 with zero-support classes contributing 0 (and flagged)."""
    total = confusion.sum()
    if total == 0:
        raise DataError("empty evaluation set: error rate undefined")
    correct = np.trace(confusion)
    accuracy = correct / total
    f1s = []
    zero_support = []
    for c in range(confusion.shape[0]):
        support = confusion[c].sum()
        predicted = confusion[:, c].sum()
        if support == 0:
            zero_support.append(c)
            f1s.append(0.0)
            continue
        precision = confusion[c, c] / predicted if predicted else 0.0
        recall = confusion[c, c] / support
        f1s.append(0.0 if precision + recall == 0
                   else 2 * precision * recall / (precision + recall))
    return EvalMetrics(error_rate=float(1.0 - accuracy),
                       macro_f1=float(np.mean(f1s)),
                       micro_f1=float(accuracy),
                       confusion=confusion,
                       zero_support_classes=tuple(zero_support))


# ---------------------------------------------------------------------------
# progress log
# ---------------------------------------------------------------------------


class ProgressLog:
    """Collects step/split/metric/value records; optionally tees to a file."""

    def __init__(self, path=None, echo: bool = False):
        self.records: list[tuple[int, str, str, float]] = []
        self._file = open(path, "w", encoding="utf-8") if path else None
        self._echo = echo

    def log(self, step: int, split: str, metric: str, value: float) -> None:
        self.records.append((step, split, metric, value))
        line = f"{step}\t{split}\t{metric}\t{value:.6f}"
        if self._file:
            self._file.write(line + "\n")
            self._file.flush()
        if self._echo:
            print(line)

    def close(self) -> None:
        if self._file:
            self._file.close()
            self._file = None


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _as_sequences(corpus) -> list[PhonemePosteriorSequence]:
    if isinstance(corpus, (str, Path)):
        return read_corpus(corpus)
    return list(corpus)


def _accumulate(grads_acc: dict[str, np.ndarray], losses: list,
                result) -> None:
    """Add one utterance's ``(loss, grads)`` (or nothing for None) into the
    minibatch sums. The first kept utterance's arrays become the sums: no
    two entries of a loss's gradient dict share memory, so adding into them
    in place is safe. Returning drops this utterance's dict before the next
    utterance runs."""
    if result is None:
        return
    loss, grads = result
    losses.append(loss)
    for name, grad in grads.items():
        if name in grads_acc:
            grads_acc[name] += grad
        else:
            grads_acc[name] = grad


def _train_steps(params, optim: OptimState, order, batch_size: int,
                 utterance_grads):
    """One epoch of minibatch Adam over ``order``, yielding each step's
    losses right after the step. ``utterance_grads(idx)`` gives (loss, grads)
    or None to skip; a minibatch with nothing kept takes no step."""
    for start in range(0, len(order), batch_size):
        grads_acc: dict[str, np.ndarray] = {}
        losses = []
        for idx in order[start:start + batch_size]:
            _accumulate(grads_acc, losses, utterance_grads(int(idx)))
        if not losses:
            continue
        for grad in grads_acc.values():
            grad /= len(losses)
        adam_step(params, grads_acc, optim)
        yield losses


def _mean_plm_loss(params, enc_config, cfg, pairs) -> float:
    values = [bert_plm_loss(params, enc_config, seq, plan,
                            weighting=cfg.plm_weighting).plm_loss
              for seq, plan in pairs]
    return float(np.mean(values)) if values else float("nan")


def pretrain(corpus, cfg: Config, seed: int, sil_index: int,
             log: ProgressLog | None = None,
             checkpoint_path=None) -> Checkpoint:
    """Masked pre-training over an unlabeled corpus; labels are never read.

    Per epoch: shuffle, sample a fresh plan per utterance, accumulate
    gradients over micro-batches, Adam step. A held-out slice (fixed plans)
    is scored every epoch, including once before training as step 0; when
    ``checkpoint_path`` is given the checkpoint is rewritten every epoch.
    """
    sequences = _as_sequences(corpus)
    if not sequences:
        raise TrainingError("pre-training corpus is empty")
    enc_config = encoder_config(cfg, sequences[0].vocab_size)
    log = log or ProgressLog()

    order = stream(seed, "split").permutation(len(sequences))
    n_held = int(len(sequences) * cfg.heldout_fraction)
    held = [sequences[i] for i in order[:n_held]]
    train = [sequences[i] for i in order[n_held:]]
    if not train:
        raise TrainingError("held-out split consumed the whole corpus")

    held_pairs = []
    for i, seq in enumerate(held):
        try:
            held_pairs.append((seq, sample_mask_plan(
                seq, sil_index, cfg.mask_ratio_max, SIL_THRESHOLD,
                stream(seed, "heldout-plan", i))))
        except SamplingError:
            continue

    params = init_params(enc_config, stream(seed, "init"))
    optim = OptimState.for_params(params, lr=cfg.lr)
    if held_pairs:
        log.log(0, "heldout", "plm_loss",
                _mean_plm_loss(params, enc_config, cfg, held_pairs))

    for epoch in range(cfg.epochs):
        def utterance_grads(idx):
            try:
                plan = sample_mask_plan(
                    train[idx], sil_index, cfg.mask_ratio_max,
                    SIL_THRESHOLD, stream(seed, "plan", epoch, idx))
            except SamplingError:
                return None
            breakdown, grads = bert_plm_loss(
                params, enc_config, train[idx], plan,
                weighting=cfg.plm_weighting,
                drop_rng=stream(seed, "drop", epoch, idx), want_grads=True)
            return breakdown.plm_loss, grads

        order = stream(seed, "shuffle", epoch).permutation(len(train))
        for losses in _train_steps(params, optim, order, cfg.batch_size,
                                   utterance_grads):
            log.log(optim.step, "train", "plm_loss", float(np.mean(losses)))
        if held_pairs:
            log.log(optim.step, "heldout", "plm_loss",
                    _mean_plm_loss(params, enc_config, cfg, held_pairs))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, cfg, optim.step, optim)
    if optim.step == 0:
        raise TrainingError("every utterance was skipped: no eligible frames")
    return Checkpoint(arrays=params, config=cfg, step=optim.step, optim=optim)


def _predict_label(bound, enc_config, seq) -> int:
    plan = MaskPlan.full_context(seq.length)
    hidden = encode(bound, enc_config, seq, plan)
    pooled = attentive_pool(hidden, bound["pool_query"], plan.context_idx)
    logits = bound["classifier"].data @ pooled.data
    return int(logits.argmax())


def evaluate(params: dict[str, np.ndarray], enc_config: EncoderConfig,
             utterances: list[LabeledUtterance]) -> EvalMetrics:
    """Argmax intent prediction with nothing masked."""
    if "classifier" not in params:
        raise DataError("checkpoint has no classifier head")
    classes = params["classifier"].shape[0]
    confusion = np.zeros((classes, classes), dtype=np.int64)
    bound = bind_params(params)
    for utt in utterances:
        if not 0 <= utt.label < classes:
            raise DataError(f"label {utt.label} out of range ({classes} classes)")
        predicted = _predict_label(bound, enc_config, utt.sequence)
        confusion[utt.label, predicted] += 1
    return metrics_from_confusion(confusion)


def finetune(init: Checkpoint | None, train_utts: list[LabeledUtterance],
             test_utts: list[LabeledUtterance], cfg: Config, seed: int,
             sil_index: int, classes: int, log: ProgressLog | None = None
             ) -> tuple[Checkpoint, EvalMetrics | None]:
    """Multi-task fine-tuning with early stopping on validation error.

    Starts from a pre-trained checkpoint when given, otherwise from fresh
    random weights; a classifier head is added either way. The checkpoint's
    layers, d, d_ff and heads must equal ``cfg``'s. Returns the best
    (by validation error) parameters and their metrics on the test split,
    or None for the metrics when there is no test split.
    """
    if not train_utts:
        raise DataError("fine-tuning needs labeled training data")
    for utt in train_utts + test_utts:
        if not 0 <= utt.label < classes:
            raise DataError(f"label {utt.label} out of range ({classes} classes)")
    if init is not None:
        differing = [f"{key} {getattr(init.config, key)} in the checkpoint, "
                     f"{getattr(cfg, key)} in this run"
                     for key in ("layers", "d", "d_ff", "heads")
                     if getattr(init.config, key) != getattr(cfg, key)]
        if differing:
            raise DataError("checkpoint model differs: " + "; ".join(differing))
    enc_config = encoder_config(cfg, train_utts[0].sequence.vocab_size)
    log = log or ProgressLog()

    params = init_params(enc_config, stream(seed, "ft-init"), classes=classes)
    if init is not None:
        for name, arr in init.arrays.items():
            if name in params:
                if params[name].shape != arr.shape:
                    raise DataError(f"checkpoint shape mismatch for {name!r}")
                params[name] = arr.copy()
    optim = OptimState.for_params(params, lr=cfg.lr)

    order = stream(seed, "ft-split").permutation(len(train_utts))
    n_val = max(1, int(len(train_utts) * cfg.val_fraction)) \
        if len(train_utts) > 1 else 0
    val = [train_utts[i] for i in order[:n_val]]
    train = [train_utts[i] for i in order[n_val:]]

    best_error = float("inf")
    best_params = {k: v.copy() for k, v in params.items()}
    patience_left = cfg.patience

    for epoch in range(cfg.finetune_epochs):
        def utterance_grads(idx):
            seq = train[idx].sequence
            try:
                plan = sample_mask_plan(
                    seq, sil_index, cfg.mask_ratio_max, SIL_THRESHOLD,
                    stream(seed, "ft-plan", epoch, idx))
            except SamplingError:
                plan = MaskPlan.full_context(seq.length)
            breakdown, grads = finetune_loss(
                params, enc_config, train[idx], plan, lam=cfg.finetune_lambda,
                weighting=cfg.plm_weighting,
                drop_rng=stream(seed, "ft-drop", epoch, idx), want_grads=True)
            return breakdown.total, grads

        order = stream(seed, "ft-shuffle", epoch).permutation(len(train))
        epoch_losses = []
        for losses in _train_steps(params, optim, order, cfg.batch_size,
                                   utterance_grads):
            epoch_losses += losses
        if epoch_losses:
            log.log(optim.step, "train", "total_loss", float(np.mean(epoch_losses)))
        if val:
            val_error = evaluate(params, enc_config, val).error_rate
            log.log(optim.step, "val", "error_rate", val_error)
            if val_error < best_error - 1e-12:
                best_error = val_error
                best_params = {k: v.copy() for k, v in params.items()}
                patience_left = cfg.patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    break
        else:
            best_params = {k: v.copy() for k, v in params.items()}

    checkpoint = Checkpoint(arrays=best_params, config=cfg, step=optim.step)
    if not test_utts:
        return checkpoint, None
    metrics = evaluate(best_params, enc_config, test_utts)
    log.log(optim.step, "test", "error_rate", metrics.error_rate)
    return checkpoint, metrics


# ---------------------------------------------------------------------------
# ablation harnesses
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    setting: float
    error_rate: float
    macro_f1: float
    best: bool = False


def ablate_mask_ratio(unlabeled, train_utts, test_utts, ratios, cfg: Config,
                      seed: int, sil_index: int, classes: int,
                      log: ProgressLog | None = None) -> list[AblationRow]:
    """Pre-train + fine-tune once per mask-ratio bound, fixed seeds."""
    if any(not 0.0 < r <= 1.0 for r in ratios):
        raise ValueError("mask ratios must lie in (0, 1]")
    if not test_utts:
        raise DataError("empty evaluation set: error rate undefined")
    rows = []
    for ratio in ratios:
        run_cfg = replace(cfg, mask_ratio_max=float(ratio))
        ckpt = pretrain(unlabeled, run_cfg, seed=seed, sil_index=sil_index,
                        log=log)
        _, metrics = finetune(ckpt, train_utts, test_utts, run_cfg, seed=seed,
                              sil_index=sil_index, classes=classes, log=log)
        rows.append(AblationRow(setting=float(ratio),
                                error_rate=metrics.error_rate,
                                macro_f1=metrics.macro_f1))
    best = min(range(len(rows)), key=lambda i: rows[i].error_rate)
    rows[best].best = True
    return rows


@dataclass
class FractionRow:
    fraction: float
    pretrained_accuracy: float
    fresh_accuracy: float

    @property
    def gap(self) -> float:
        return self.pretrained_accuracy - self.fresh_accuracy


def ablate_fraction(unlabeled, train_utts, test_utts, fractions, cfg: Config,
                    seed: int, sil_index: int, classes: int,
                    log: ProgressLog | None = None) -> list[FractionRow]:
    """Fine-tune pretrained vs fresh on nested fractions of the labels."""
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    if not test_utts:
        raise DataError("empty evaluation set: error rate undefined")
    ckpt = pretrain(unlabeled, cfg, seed=seed, sil_index=sil_index, log=log)
    order = stream(seed, "fraction").permutation(len(train_utts))
    rows = []
    for fraction in fractions:
        count = max(1, int(round(fraction * len(train_utts))))
        subset = [train_utts[i] for i in order[:count]]
        _, with_pretrain = finetune(ckpt, subset, test_utts, cfg, seed=seed,
                                    sil_index=sil_index, classes=classes, log=log)
        _, fresh = finetune(None, subset, test_utts, cfg, seed=seed,
                            sil_index=sil_index, classes=classes, log=log)
        rows.append(FractionRow(
            fraction=float(fraction),
            pretrained_accuracy=1.0 - with_pretrain.error_rate,
            fresh_accuracy=1.0 - fresh.error_rate))
    return rows

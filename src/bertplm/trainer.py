"""Optimization loops, checkpointing, evaluation, and ablation harnesses.

Pre-training touches sequences only; the code path has no label accessor, so
labels cannot leak into it. Fine-tuning resamples a fresh mask plan per step
(the masked frames act as input dropout) and early-stops on validation error.
Both stages run the same minibatch loop (shuffle, plan, score the kept
utterances as length groups with one tape each, average, Adam); they differ
only in the loss and in what happens to an utterance without an eligible
target: pre-training skips it, fine-tuning trains it with nothing masked,
as it does an utterance whose plan leaves no context frame to pool over.
All shuffling, plan sampling, dropout and init draw from named substreams of
one seed, which makes checkpoints bitwise reproducible.

Training keeps one precision, float32 (``TRAIN_DTYPE``): ``pretrain`` and
``finetune`` cast their starting parameters to it once, and from then on the
parameters, each step's gradient sum and the Adam moments are float32, and
every training, held-out, validation and test pass binds the parameters
themselves. This module alone picks that dtype: the encoder, the losses and
``evaluate`` compute in the dtype of the arrays they are given, so the
oracle and the finite-difference check, which bind float64 arrays, stay
float64. An Adam step whose arithmetic overflows float32 stops training
with a ``TrainingError`` naming the parameter. A checkpoint holds the
float32 state exactly.

Checkpoint format (.ckpt): magic "CKP1"; u32 entry count; per entry u16 name
length, name bytes (UTF-8), u8 rank, rank u32 dims, then little-endian f32
payload; finally a u32-length-prefixed UTF-8 dump of the resolved config,
after which nothing may follow. Optimizer moments are stored under "adam.m."
/ "adam.v." name prefixes and the step counter as the scalar entry "step".
Checkpoints are written and read one entry at a time (the format does not
depend on it), so neither side holds the whole payload; an entry holding a
NaN or an infinity is a data error. A loaded entry is the stored float32
array, read-only; fine-tuning trains its own copy.
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
                     LabeledUtterance, PhonemePosteriorSequence)
# unused here; perfbench's tracer binds the name trainer.read_corpus
from .corpus import read_corpus  # noqa: F401
from .encoder import (EncoderConfig, Group, attentive_pool, bind_params,
                      encode, init_params, param_shapes)
from .objective import (MaskPlan, SamplingError, bert_plm_loss,
                        finetune_loss, sample_mask_plan)
from .rng import stream

CHECKPOINT_MAGIC = b"CKP1"
MAX_RANK = 64  # numpy arrays have at most 64 dimensions

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

#: entries of one parameter that ``adam_step`` averages, checks and steps
#: together: the chunk's six float32 rows (parameter, moments, gradient sum,
#: two scratch rows) take 0.75 MB, inside a 2 MB L2 cache; with float64 rows
#: on such a core 2^14 and 2^15 ran fastest, 2^12 and 2^17 slower
ADAM_CHUNK = 1 << 15

#: the dtype of the parameters, gradient sums and Adam moments in training
TRAIN_DTYPE = np.float32


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
              state: OptimState, count: int = 1) -> None:
    """Bias-corrected Adam update, in place, on the mean gradient
    ``grads / count`` (a missing entry counts as 0), in the dtype of each
    parameter. A non-finite mean gradient raises ``TrainingError``, and so
    does a step whose arithmetic overflows the parameter's dtype; the
    parameters before it, in name order, and its chunks before the
    offending one have then been stepped.

    Each parameter is walked in chunks of ``ADAM_CHUNK`` entries, and each
    chunk is averaged, checked and stepped while it is in cache; per entry
    the operations and their order are those of averaging the whole sum and
    then stepping, so the result is bitwise the same. The parameters and
    moments must be C-contiguous, as ``OptimState`` makes them.
    """
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.step
    correction2 = 1.0 - ADAM_BETA2 ** state.step
    lr = state.lr
    try:
        with np.errstate(over="raise"):
            for name in sorted(params):
                arrays = [params[name], state.m[name], state.v[name]]
                if not all(a.flags.c_contiguous for a in arrays):
                    raise ValueError(
                        f"adam_step needs C-contiguous arrays for {name!r}")
                param, m, v = (a.reshape(-1) for a in arrays)
                total = grads.get(name)
                if total is not None:
                    total = np.ascontiguousarray(total).reshape(-1)
                rows = min(param.size, ADAM_CHUNK)
                mean = np.empty(rows, dtype=param.dtype)
                scratch = np.empty(rows, dtype=param.dtype)
                for lo in range(0, param.size, ADAM_CHUNK):
                    hi = min(lo + ADAM_CHUNK, param.size)
                    g, t = mean[:hi - lo], scratch[:hi - lo]
                    if total is None:
                        g.fill(0.0)
                    else:
                        np.copyto(g, total[lo:hi])
                        g /= count
                        if not np.isfinite(g).all():
                            raise TrainingError(
                                f"non-finite gradient for parameter {name!r}")
                    m_part, v_part = m[lo:hi], v[lo:hi]
                    m_part *= ADAM_BETA1
                    m_part += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
                    v_part *= ADAM_BETA2
                    np.multiply(g, 1.0 - ADAM_BETA2, out=t)
                    v_part += np.multiply(t, g, out=t)
                    np.divide(v_part, correction2, out=t)
                    np.sqrt(t, out=t)
                    t += ADAM_EPS
                    np.divide(m_part, correction1, out=g)
                    g *= lr
                    param[lo:hi] -= np.divide(g, t, out=g)
    except FloatingPointError:
        raise TrainingError(f"parameter {name!r} overflows "
                            f"{param.dtype.name}") from None


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
    payload = np.empty(dims, dtype="<f4")
    try:
        with np.errstate(over="raise"):
            np.copyto(payload, array)
    except FloatingPointError:
        raise TrainingError(f"checkpoint entry {name!r} overflows float32"
                            ) from None
    out.write(struct.pack("<H", len(encoded)) + encoded
              + struct.pack(f"<B{len(dims)}I", len(dims), *dims))
    out.write(payload)


def save_checkpoint(path, params: dict[str, np.ndarray], config: Config,
                    step: int, optim: OptimState | None = None) -> None:
    """Atomic write, one entry at a time: temp file then rename. An entry
    beyond float32's range raises ``TrainingError``; that or any other
    failure (a full disk's ``OSError``) leaves no file, temp file included."""
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
    try:
        with open(tmp, "wb") as out:
            out.write(CHECKPOINT_MAGIC + struct.pack("<I", len(entries)))
            for name, arr in entries.items():
                _write_entry(out, name, arr)
            out.write(struct.pack("<I", len(text)) + text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_entries(reader: ByteReader) -> tuple[dict[str, np.ndarray], Config]:
    """Every entry, one at a time, then the config text; an entry holding a
    NaN or an infinity is rejected at the offset of that value, and a
    repeated entry name at the offset of the repeat."""
    (count,) = reader.unpack("<I")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        entry_start = reader.offset
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len, "entry name")
        if name in entries:
            raise CorpusFormatError(f"entry {name!r} appears twice",
                                    entry_start)
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
        entries[name] = data.astype(np.float32, copy=False).reshape(dims)
        entries[name].flags.writeable = False
    (text_len,) = reader.unpack("<I")
    config = parse_config_text(reader.text(text_len, "config text"))
    reader.end()
    return entries, config


def load_checkpoint(path) -> Checkpoint:
    """Read one entry at a time from the file (never the whole payload).
    Every entry comes back as stored: a read-only float32 array."""
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


def check_model_arrays(arrays: dict[str, np.ndarray],
                       enc_config: EncoderConfig) -> None:
    """DataError naming the first checkpoint entry that does not fit the
    model ``enc_config`` describes: a parameter that is missing or has
    another shape, or an entry that is no parameter. A classifier head is
    optional; if present, any class count fits."""
    head = arrays.get("classifier")
    classes = head.shape[0] if head is not None and head.ndim else None
    expected = param_shapes(enc_config, classes)
    for name, shape in expected.items():
        if name not in arrays:
            raise DataError(f"checkpoint has no entry {name!r}")
        if arrays[name].shape != shape:
            raise DataError(f"checkpoint entry {name!r} has shape "
                            f"{arrays[name].shape}, the model needs {shape}")
    for name in arrays:
        if name not in expected:
            raise DataError(f"checkpoint entry {name!r} is not a model "
                            "parameter")


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


def length_groups(lengths, max_seq_len: int) -> list[list[int]]:
    """Positions into ``lengths``, split into the groups they are scored in.

    Positions are sorted by length (ties keep their order) and a group takes
    the next one while its size times its longest length stays within
    ``max_seq_len``, so a group never holds more padded frames than one
    utterance of the maximal length.
    """
    groups: list[list[int]] = []
    for pos in sorted(range(len(lengths)), key=lengths.__getitem__):
        if groups and (len(groups[-1]) + 1) * lengths[pos] <= max_seq_len:
            groups[-1].append(pos)
        else:
            groups.append([pos])
    return groups


def _groups(pairs, max_seq_len: int):
    """The ``length_groups`` of (sequence, plan) ``pairs``, each as its
    positions into ``pairs`` and the ``Group`` it is scored as."""
    for members in length_groups([seq.length for seq, _ in pairs],
                                 max_seq_len):
        yield members, Group([pairs[m][0] for m in members],
                             [pairs[m][1] for m in members])


def _train_steps(params, optim: OptimState, order, batch_size: int,
                 max_seq_len: int, plan_for, group_grads):
    """One epoch of minibatch Adam over ``order``, yielding each step's
    per-group loss sums and kept-utterance count right after the step.

    ``plan_for(idx)`` gives utterance idx's (sequence, plan), or None to
    skip it. A minibatch's kept utterances run as ``_groups``, one tape
    each: ``group_grads(indices, group)`` gives the group's summed
    (loss, grads), computed on ``params``. The step averages the gradients
    over the kept utterances; a minibatch with nothing kept takes no step.
    Later groups are added in place into the first group's gradient arrays,
    which belong to the step alone.
    """
    for start in range(0, len(order), batch_size):
        indices, pairs = [], []
        for idx in order[start:start + batch_size]:
            planned = plan_for(int(idx))
            if planned is not None:
                indices.append(int(idx))
                pairs.append(planned)
        if not pairs:
            continue
        sums: dict[str, np.ndarray] = {}
        losses = []
        for members, group in _groups(pairs, max_seq_len):
            loss, grads = group_grads([indices[m] for m in members], group)
            losses.append(loss)
            for name, grad in grads.items():
                if name in sums:
                    sums[name] += grad
                else:
                    sums[name] = grad
            del grads   # free this group's arrays before the next group runs
        adam_step(params, sums, optim, len(pairs))
        del sums   # free the step's gradients before the caller runs
        yield losses, len(pairs)


def _mean_plm_loss(params, enc_config, cfg, pairs) -> float:
    if not pairs:
        return float("nan")
    losses = [bert_plm_loss(params, enc_config, group,
                            weighting=cfg.plm_weighting).plm_loss
              for _, group in _groups(pairs, enc_config.max_seq_len)]
    return float(np.sum(losses)) / len(pairs)


def pretrain(sequences: list[PhonemePosteriorSequence], cfg: Config,
             seed: int, sil_index: int, log: ProgressLog | None = None,
             checkpoint_path=None) -> Checkpoint:
    """Masked pre-training over unlabeled sequences; labels are never read.

    Per epoch: shuffle, sample a fresh plan per utterance, sum gradients
    over each minibatch's length groups, Adam step on their mean. A
    held-out slice (fixed plans) is scored every epoch, including once
    before training as step 0; when ``checkpoint_path`` is given the
    checkpoint is rewritten every epoch. After each epoch's last ``train``
    row an ``epoch skipped`` row counts the utterances skipped for lack of
    an eligible target. The sequences are trained on as given: reading and
    checking a corpus file is the caller's step (the CLI's ``_read_corpus``).
    """
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

    params = {name: p.astype(TRAIN_DTYPE) for name, p
              in init_params(enc_config, stream(seed, "init")).items()}
    optim = OptimState.for_params(params, lr=cfg.lr)
    if held_pairs:
        log.log(0, "heldout", "plm_loss",
                _mean_plm_loss(params, enc_config, cfg, held_pairs))

    for epoch in range(cfg.epochs):
        skipped = []

        def plan_for(idx):
            try:
                return train[idx], sample_mask_plan(
                    train[idx], sil_index, cfg.mask_ratio_max,
                    SIL_THRESHOLD, stream(seed, "plan", epoch, idx))
            except SamplingError:
                skipped.append(idx)
                return None

        def group_grads(indices, group):
            breakdown, grads = bert_plm_loss(
                params, enc_config, group, weighting=cfg.plm_weighting,
                drop_rngs=[stream(seed, "drop", epoch, idx)
                           for idx in indices],
                want_grads=True)
            return breakdown.plm_loss, grads

        order = stream(seed, "shuffle", epoch).permutation(len(train))
        for losses, count in _train_steps(params, optim, order,
                                          cfg.batch_size, cfg.max_seq_len,
                                          plan_for, group_grads):
            log.log(optim.step, "train", "plm_loss",
                    float(np.sum(losses)) / count)
        log.log(optim.step, "epoch", "skipped", len(skipped))
        if optim.step == 0:   # eligibility depends on the frames alone
            raise TrainingError(
                "every utterance was skipped: no eligible frames")
        if held_pairs:
            log.log(optim.step, "heldout", "plm_loss",
                    _mean_plm_loss(params, enc_config, cfg, held_pairs))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, cfg, optim.step, optim)
    return Checkpoint(arrays=params, config=cfg, step=optim.step, optim=optim)


def evaluate(params: dict[str, np.ndarray], enc_config: EncoderConfig,
             utterances: list[LabeledUtterance]) -> EvalMetrics:
    """Argmax intent prediction with nothing masked, one forward pass per
    length group, computed in the dtype of the arrays in ``params``."""
    if "classifier" not in params:
        raise DataError("checkpoint has no classifier head")
    classes = params["classifier"].shape[0]
    for utt in utterances:
        if not 0 <= utt.label < classes:
            raise DataError(f"label {utt.label} out of range ({classes} classes)")
    confusion = np.zeros((classes, classes), dtype=np.int64)
    bound = bind_params(params)
    pairs = [(u.sequence, MaskPlan.full_context(u.sequence.length))
             for u in utterances]
    for members, group in _groups(pairs, enc_config.max_seq_len):
        hidden = encode(bound, enc_config, group)
        pooled = attentive_pool(hidden, bound["pool_query"], group.context)
        logits = pooled.data @ bound["classifier"].data.T
        for m, row in zip(members, logits):
            confusion[utterances[m].label, int(row.argmax())] += 1
    return metrics_from_confusion(confusion)


def finetune(init: Checkpoint | None, train_utts: list[LabeledUtterance],
             test_utts: list[LabeledUtterance], cfg: Config, seed: int,
             sil_index: int, classes: int, log: ProgressLog | None = None
             ) -> tuple[Checkpoint, EvalMetrics | None]:
    """Multi-task fine-tuning with early stopping on validation error.

    Starts from a pre-trained checkpoint when given, otherwise from fresh
    random weights; a classifier head is added either way. The checkpoint's
    layers, d, d_ff, heads and max_seq_len must equal ``cfg``'s (the
    relative-offset table takes its frequencies from max_seq_len); its
    dropout may differ. Returns the best (by validation error) parameters
    and their metrics on the test split, or None for the metrics when there
    is no test split. A positive
    ``val_fraction`` holds out at least one utterance; at 0, or with a
    single training utterance, there is no validation split and the last
    epoch's parameters are returned. An utterance with no eligible target,
    or whose plan leaves no context frame to pool over, trains with nothing
    masked, counted by the ``epoch fallback_full_context`` row.
    """
    if not train_utts:
        raise DataError("fine-tuning needs labeled training data")
    for utt in train_utts + test_utts:
        if not 0 <= utt.label < classes:
            raise DataError(f"label {utt.label} out of range ({classes} classes)")
    if init is not None:
        differing = [f"{key} {getattr(init.config, key)} in the checkpoint, "
                     f"{getattr(cfg, key)} in this run"
                     for key in ("layers", "d", "d_ff", "heads", "max_seq_len")
                     if getattr(init.config, key) != getattr(cfg, key)]
        if differing:
            raise DataError("checkpoint model differs: " + "; ".join(differing))
    enc_config = encoder_config(cfg, train_utts[0].sequence.vocab_size)
    log = log or ProgressLog()

    params = init_params(enc_config, stream(seed, "ft-init"), classes=classes)
    if init is not None:
        check_model_arrays(init.arrays, enc_config)
        for name, arr in init.arrays.items():
            if params[name].shape != arr.shape:
                raise DataError(f"checkpoint classifier has "
                                f"{arr.shape[0]} classes, the data {classes}")
            params[name] = arr
    params = {name: p.astype(TRAIN_DTYPE) for name, p in params.items()}
    optim = OptimState.for_params(params, lr=cfg.lr)

    order = stream(seed, "ft-split").permutation(len(train_utts))
    n_val = 0
    if cfg.val_fraction > 0 and len(train_utts) > 1:
        n_val = max(1, int(len(train_utts) * cfg.val_fraction))
    val = [train_utts[i] for i in order[:n_val]]
    train = [train_utts[i] for i in order[n_val:]]

    best_params = params   # with a validation split, the best epoch's copy
    best_error = float("inf")
    patience_left = cfg.patience

    for epoch in range(cfg.finetune_epochs):
        fallbacks = []

        def plan_for(idx):
            seq = train[idx].sequence
            try:
                plan = sample_mask_plan(
                    seq, sil_index, cfg.mask_ratio_max, SIL_THRESHOLD,
                    stream(seed, "ft-plan", epoch, idx))
            except SamplingError:
                plan = None
            if plan is not None and plan.context_idx:   # pooled over context
                return seq, plan
            fallbacks.append(idx)
            return seq, MaskPlan.full_context(seq.length)

        def group_grads(indices, group):
            breakdown, grads = finetune_loss(
                params, enc_config, group, [train[i].label for i in indices],
                lam=cfg.finetune_lambda, weighting=cfg.plm_weighting,
                drop_rngs=[stream(seed, "ft-drop", epoch, idx)
                           for idx in indices],
                want_grads=True)
            return breakdown.total, grads

        order = stream(seed, "ft-shuffle", epoch).permutation(len(train))
        epoch_losses, epoch_count = [], 0
        for losses, count in _train_steps(params, optim, order,
                                          cfg.batch_size, cfg.max_seq_len,
                                          plan_for, group_grads):
            epoch_losses += losses
            epoch_count += count
        if epoch_count:
            log.log(optim.step, "train", "total_loss",
                    float(np.sum(epoch_losses)) / epoch_count)
        log.log(optim.step, "epoch", "fallback_full_context", len(fallbacks))
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
                      seed: int, sil_index: int, classes: int
                      ) -> list[AblationRow]:
    """Pre-train + fine-tune once per mask-ratio bound, fixed seeds."""
    if any(not 0.0 < r <= 1.0 for r in ratios):
        raise ValueError("mask ratios must lie in (0, 1]")
    if not test_utts:
        raise DataError("empty evaluation set: error rate undefined")
    rows = []
    for ratio in ratios:
        run_cfg = replace(cfg, mask_ratio_max=float(ratio))
        ckpt = pretrain(unlabeled, run_cfg, seed=seed, sil_index=sil_index)
        _, metrics = finetune(ckpt, train_utts, test_utts, run_cfg, seed=seed,
                              sil_index=sil_index, classes=classes)
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
                    seed: int, sil_index: int, classes: int
                    ) -> list[FractionRow]:
    """Fine-tune pretrained vs fresh on nested fractions of the labels."""
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    if not test_utts:
        raise DataError("empty evaluation set: error rate undefined")
    ckpt = pretrain(unlabeled, cfg, seed=seed, sil_index=sil_index)
    order = stream(seed, "fraction").permutation(len(train_utts))
    rows = []
    for fraction in fractions:
        count = max(1, int(round(fraction * len(train_utts))))
        subset = [train_utts[i] for i in order[:count]]
        _, with_pretrain = finetune(ckpt, subset, test_utts, cfg, seed=seed,
                                    sil_index=sil_index, classes=classes)
        _, fresh = finetune(None, subset, test_utts, cfg, seed=seed,
                            sil_index=sil_index, classes=classes)
        rows.append(FractionRow(
            fraction=float(fraction),
            pretrained_accuracy=1.0 - with_pretrain.error_rate,
            fresh_accuracy=1.0 - fresh.error_rate))
    return rows

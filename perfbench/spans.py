"""Span tracing installed from the benchmark's side of the program boundary.

A ``Tracer`` rebinds public names in the modules that look them up (the
call ``tr.pretrain(...)`` in ``bertplm.cli`` reads ``bertplm.trainer.pretrain``;
``encode(...)`` inside ``bertplm.objective`` reads ``bertplm.objective.encode``)
to wrappers that record one span per call: name, start, end, parent, the
top-level operation it belongs to, the exception type it raised, and a few
facts about its arguments (frames, tape nodes, bytes). Spans stay in memory
and are written out when the run ends. Nothing inside ``bertplm`` is edited,
and ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

MARK = "_perfbench_span"

# span record fields
ROOT, OP, SID, PARENT, NAME, START, END, ERR, FACTS = range(9)


def encoder_forward_flops(config, t_len: int) -> int:
    """Multiply-add FLOPs (2 per MAC) of the matmuls in one ``encode`` call.

    Counts the embedding pool, the q/k/v/r projections, content and offset
    scores, attention-weighted values, the output projection and the two FFN
    matmuls. Elementwise work, softmax and layer norm are not counted.
    """
    d, d_ff, v = config.d_model, config.d_ff, config.vocab_size
    offsets = 2 * t_len - 1
    per_layer = (3 * t_len * d * d        # q, k, v
                 + offsets * d * d         # r
                 + t_len * t_len * d       # content scores
                 + t_len * offsets * d     # offset scores
                 + t_len * t_len * d       # weights @ v
                 + t_len * d * d           # wo
                 + 2 * t_len * d * d_ff)   # ffn
    return 2 * (t_len * v * d + config.layers * per_layer)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _encode_facts(args, kwargs):
    config, seq = _arg(args, kwargs, 1, "config"), _arg(args, kwargs, 2, "seq")
    return {"frames": seq.length,
            "flops": encoder_forward_flops(config, seq.length)}


def _backward_facts(args, kwargs):
    return {"nodes": len(_arg(args, kwargs, 0, "tape").nodes)}


def _file_bytes(args, kwargs, *_result):
    """Size of the file named by the first argument (read before a reader
    runs, after a writer returns)."""
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _plan_facts(args, kwargs, result):
    return {"k": result.k}


def targets(bp) -> list[tuple[object, str, str, object, object]]:
    """(module, attribute, span name, facts-before, facts-after) per binding.

    ``bp`` is a namespace holding the imported ``bertplm`` modules. A public
    function is listed once per module that looks it up by name, so calls
    from ``trainer``, ``objective`` and ``oracle`` are all seen, and once in
    its defining module for callers that go through the module attribute.
    """
    ad, cfg, cli, cp, enc, obj, orc, rng, tr = (
        bp.autodiff, bp.config, bp.cli, bp.corpus, bp.encoder, bp.objective,
        bp.oracle, bp.rng, bp.trainer)
    return [
        (cli, "main", "cli.main", None, None),
        (cfg, "parse_config", "config.parse_config", None, None),
        (cli, "parse_config", "config.parse_config", None, None),
        (cfg, "parse_config_text", "config.parse_config_text", None, None),
        (tr, "parse_config_text", "config.parse_config_text", None, None),
        (tr, "pretrain", "trainer.pretrain", None, None),
        (tr, "finetune", "trainer.finetune", None, None),
        (tr, "evaluate", "trainer.evaluate", None, None),
        (tr, "adam_step", "trainer.adam_step", None, None),
        (tr, "load_checkpoint", "trainer.load_checkpoint", None, None),
        (tr, "save_checkpoint", "trainer.save_checkpoint", None, _file_bytes),
        (obj, "bert_plm_loss", "objective.bert_plm_loss", None, None),
        (tr, "bert_plm_loss", "objective.bert_plm_loss", None, None),
        (obj, "finetune_loss", "objective.finetune_loss", None, None),
        (tr, "finetune_loss", "objective.finetune_loss", None, None),
        (obj, "sample_mask_plan", "objective.sample_mask_plan", None, _plan_facts),
        (tr, "sample_mask_plan", "objective.sample_mask_plan", None, _plan_facts),
        (enc, "encode", "encoder.encode", _encode_facts, None),
        (obj, "encode", "encoder.encode", _encode_facts, None),
        (tr, "encode", "encoder.encode", _encode_facts, None),
        (orc, "encode", "oracle.forward", _encode_facts, None),
        (enc, "rel_attention_block", "encoder.rel_attention_block", None, None),
        (enc, "attentive_pool", "encoder.attentive_pool", None, None),
        (obj, "attentive_pool", "encoder.attentive_pool", None, None),
        (tr, "attentive_pool", "encoder.attentive_pool", None, None),
        (ad, "backward", "autodiff.backward", _backward_facts, None),
        (ad, "finite_diff_check", "autodiff.finite_diff_check", None, None),
        (rng, "stream", "rng.stream", None, None),
        (tr, "stream", "rng.stream", None, None),
        (cp, "stream", "rng.stream", None, None),
        (cli, "stream", "rng.stream", None, None),
        (orc, "verify_theorem", "oracle.verify_theorem", None, None),
        (orc, "perm_plm_expectation", "oracle.perm_plm_expectation", None, None),
        (orc, "subset_regression_expectation",
         "oracle.subset_regression_expectation", None, None),
        (cp, "generate_corpus", "corpus.generate_corpus", None, None),
        (cp, "write_corpus", "corpus.write_corpus", None, None),
        (cp, "write_manifest", "corpus.write_manifest", None, None),
        (cp, "write_vocab", "corpus.write_vocab", None, None),
        (cp, "read_corpus", "corpus.read_corpus", _file_bytes, None),
        (tr, "read_corpus", "corpus.read_corpus", _file_bytes, None),
        (cp, "read_manifest", "corpus.read_manifest", _file_bytes, None),
        (cp, "read_vocab", "corpus.read_vocab", _file_bytes, None),
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        if parent is None:
            root, op = sid, sid
        else:
            root = parent[ROOT]
            op = sid if parent[NAME].startswith("bench.") else parent[OP]
        record = [root, op, sid, None if parent is None else parent[SID],
                  name, 0.0, 0.0, "", None]
        self.spans.append(record)
        self._stack.append(record)
        record[START] = self.clock()
        return record

    def _close(self, record: list) -> None:
        record[END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; its name starts 'bench.'."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def call(self, name: str, fn, args, kwargs, before=None, after=None):
        facts = before(args, kwargs) if before else None
        record = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record[ERR] = type(exc).__name__
            raise
        finally:
            self._close(record)
        if after is not None:
            facts = {**(facts or {}), **after(args, kwargs, result)}
        record[FACTS] = facts
        return result

    # installation ----------------------------------------------------------

    def _wrapper(self, name, fn, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, before, after)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self, rows) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, attr, name, before, after in rows:
            original = getattr(module, attr)
            if hasattr(original, MARK):
                raise RuntimeError(f"{module.__name__}.{attr} already wrapped")
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, before, after))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def installed_wrappers(rows) -> list[str]:
    """Names of listed bindings that currently hold a span wrapper."""
    return [f"{module.__name__}.{attr}" for module, attr, *_ in rows
            if hasattr(getattr(module, attr), MARK)]


# analysis ------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s in spans:
        covered = 0.0
        cursor = s[START]
        for start, end in sorted(children.get(s[SID], ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append((s[END] - s[START]) - covered)
    return out


def _has_ancestor(s, by_id, name) -> bool:
    parent = s[PARENT]
    while parent is not None:
        p = by_id[parent]
        if p[NAME] == name:
            return True
        parent = p[PARENT]
    return False


#: (metric, unit, better) reported by a traced run, in print order
LAYER_METRICS = [
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.backward_calls", "count", "lower"),
    ("autodiff.tape_nodes_per_call", "count", "lower"),
    ("autodiff.fd_check_s", "s", "lower"),
    ("encoder.encode_s", "s", "lower"),
    ("encoder.encode_calls", "count", "lower"),
    ("encoder.frames_encoded", "frames", "lower"),
    ("encoder.block_s", "s", "lower"),
    ("encoder.pool_s", "s", "lower"),
    ("encoder.fwd_gflop_per_s", "GFLOP/s", "higher"),
    ("objective.loss_s", "s", "lower"),
    ("objective.loss_self_s", "s", "lower"),
    ("objective.sample_plan_s", "s", "lower"),
    ("objective.plans_sampled", "count", "higher"),
    ("objective.sampling_errors", "count", "lower"),
    ("objective.mean_k", "count", "higher"),
    ("rng.stream_calls", "count", "lower"),
    ("rng.stream_s", "s", "lower"),
    ("trainer.adam_s", "s", "lower"),
    ("trainer.adam_steps", "count", "higher"),
    ("trainer.loop_self_s", "s", "lower"),
    ("trainer.evaluate_s", "s", "lower"),
    ("trainer.ckpt_save_s", "s", "lower"),
    ("trainer.ckpt_load_s", "s", "lower"),
    ("trainer.ckpt_bytes", "bytes", "lower"),
    ("trainer.skipped_utts", "count", "lower"),
    ("trainer.fallback_full_context", "count", "lower"),
    ("oracle.perm_s", "s", "lower"),
    ("oracle.subset_s", "s", "lower"),
    ("oracle.predictor_calls", "count", "higher"),
    ("oracle.forward_passes", "count", "lower"),
    ("oracle.cache_hit_ratio", "ratio", "higher"),
    ("corpus.generate_s", "s", "lower"),
    ("corpus.write_s", "s", "lower"),
    ("corpus.read_s", "s", "lower"),
    ("corpus.bytes_read", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(spans, pass_roots, setup_roots, predictor_calls: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-module metrics of a traced run.

    ``pass_roots``/``setup_roots`` are the root span ids of the traced passes
    and of the traced set-up. Times and counts are means per traced pass,
    except ``corpus.generate_s`` and ``corpus.write_s``, which are per set-up;
    ``tape_nodes_per_call``, ``mean_k``, ``fwd_gflop_per_s`` and
    ``cache_hit_ratio`` are ratios over all traced passes. A ratio whose base
    is zero reads 0. ``predictor_calls`` is the benchmark's own count of
    calls into the encoder-backed theorem predictor during the traced passes.
    """
    by_id = {s[SID]: s for s in spans}
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)    # span seconds
    own: dict[str, float] = defaultdict(float)      # self seconds
    calls: dict[str, int] = defaultdict(int)
    facts: dict[str, float] = defaultdict(float)
    setup: dict[str, float] = defaultdict(float)
    errors = skipped = fallback = 0
    pass_set, setup_set = set(pass_roots), set(setup_roots)
    for s, self_s in zip(spans, selfs):
        name = s[NAME]
        if s[ROOT] in setup_set:
            setup[name] += s[END] - s[START]
            continue
        if s[ROOT] not in pass_set:
            continue
        total[name] += s[END] - s[START]
        own[name] += self_s
        calls[name] += 1
        for key, value in (s[FACTS] or {}).items():
            facts[f"{name}:{key}"] += value
        if name == "objective.sample_mask_plan" and s[ERR] == "SamplingError":
            errors += 1
            if _has_ancestor(s, by_id, "trainer.pretrain"):
                skipped += 1
            elif _has_ancestor(s, by_id, "trainer.finetune"):
                fallback += 1

    def ratio(num, den):
        return num / den if den else 0.0

    encoders = ("encoder.encode", "oracle.forward")
    encode_s = sum(total[n] for n in encoders)
    losses = ("objective.bert_plm_loss", "objective.finetune_loss")
    readers = ("corpus.read_corpus", "corpus.read_manifest", "corpus.read_vocab")
    plans = calls["objective.sample_mask_plan"] - errors
    per_pass = {
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "autodiff.fd_check_s": total["autodiff.finite_diff_check"],
        "encoder.encode_s": encode_s,
        "encoder.encode_calls": sum(calls[n] for n in encoders),
        "encoder.frames_encoded": sum(facts[f"{n}:frames"] for n in encoders),
        "encoder.block_s": total["encoder.rel_attention_block"],
        "encoder.pool_s": total["encoder.attentive_pool"],
        "objective.loss_s": sum(total[n] for n in losses),
        "objective.loss_self_s": sum(own[n] for n in losses),
        "objective.sample_plan_s": total["objective.sample_mask_plan"],
        "objective.plans_sampled": plans,
        "objective.sampling_errors": errors,
        "rng.stream_calls": calls["rng.stream"],
        "rng.stream_s": total["rng.stream"],
        "trainer.adam_s": total["trainer.adam_step"],
        "trainer.adam_steps": calls["trainer.adam_step"],
        "trainer.loop_self_s": own["trainer.pretrain"] + own["trainer.finetune"],
        "trainer.evaluate_s": total["trainer.evaluate"],
        "trainer.ckpt_save_s": total["trainer.save_checkpoint"],
        "trainer.ckpt_load_s": total["trainer.load_checkpoint"],
        "trainer.ckpt_bytes": facts["trainer.save_checkpoint:bytes"],
        "trainer.skipped_utts": skipped,
        "trainer.fallback_full_context": fallback,
        "oracle.perm_s": total["oracle.perm_plm_expectation"],
        "oracle.subset_s": total["oracle.subset_regression_expectation"],
        "oracle.predictor_calls": predictor_calls,
        "oracle.forward_passes": calls["oracle.forward"],
        "corpus.read_s": sum(total[n] for n in readers),
        "corpus.bytes_read": sum(facts[f"{n}:bytes"] for n in readers),
        "cli.self_s": own["cli.main"],
        "config.parse_s":
            total["config.parse_config"] + total["config.parse_config_text"],
    }
    passes = max(1, len(pass_roots))
    setups = max(1, len(setup_roots))
    out = {key: value / passes for key, value in per_pass.items()}
    out.update({
        "autodiff.tape_nodes_per_call": ratio(
            facts["autodiff.backward:nodes"], calls["autodiff.backward"]),
        "encoder.fwd_gflop_per_s": ratio(
            sum(facts[f"{n}:flops"] for n in encoders) / 1e9, encode_s),
        "objective.mean_k": ratio(facts["objective.sample_mask_plan:k"], plans),
        "oracle.cache_hit_ratio": 1.0 - ratio(
            calls["oracle.forward"], predictor_calls) if predictor_calls else 0.0,
        "corpus.generate_s": setup["corpus.generate_corpus"] / setups,
        "corpus.write_s": sum(setup[n] for n in (
            "corpus.write_corpus", "corpus.write_manifest",
            "corpus.write_vocab")) / setups,
        "trace.overhead_s": overhead_s,
    })
    return {name: float(out[name]) for name, _, _ in LAYER_METRICS}


def write_spans(spans, path) -> None:
    """One TSV line per span: root, op, id, parent, name, start, end, err."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("root\top\tid\tparent\tname\tstart_s\tend_s\terror\tfacts\n")
        for s in spans:
            fact_text = ",".join(f"{k}={v}" for k, v in (s[FACTS] or {}).items())
            parent = "" if s[PARENT] is None else s[PARENT]
            fh.write(f"{s[ROOT]}\t{s[OP]}\t{s[SID]}\t{parent}\t{s[NAME]}\t"
                     f"{s[START]:.9f}\t{s[END]:.9f}\t{s[ERR]}\t{fact_text}\n")

"""The benchmark's three workloads, each a closed loop of identical passes.

A workload object generates its inputs from the workload seed in ``setup``
(files for the CLI pipeline, in-memory sequences otherwise) and then runs
``run_pass`` as often as the time budget allows. Every pass does the same
work on the same inputs, so a pass's outputs are deterministic and each
pass checks them. The program is reached only through the public names of
``bertplm`` modules, looked up at call time, so a tracer can see the calls.

tiny-pipeline  profile=tiny, default grammar (T 12-32), through
               ``cli.main``: pretrain -> finetune --ckpt --test-data ->
               evaluate. Python and tape bookkeeping bound.
full-long      full profile, long utterances of mixed length (T 120-320),
               batch_size 2, one epoch, then one checkpoint save with Adam
               state and one load. Matmul and O(T^2) attention bound.
verify         theorem oracle with the random and frozen-encoder predictors
               (T 2-6), then finite differences over both losses of the
               ``grad-check --quick`` encoder. Forward only, no optimizer,
               no checkpoint and no corpus file.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def derive_seed(seed: int, tag: str) -> int:
    """Independent 63-bit integer seed for one input set of a workload."""
    digest = hashlib.blake2b(f"{seed}|{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Checks:
    """Counts output checks; a failed check is recorded and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


class StampedLines(io.TextIOBase):
    """Text sink that keeps each completed line with the time it ended.

    Standard output is redirected here while the program runs, so the
    ``step<TAB>split<TAB>metric<TAB>value`` rows a ``ProgressLog`` echoes
    carry the time they were printed. A ``train`` row is printed right
    after ``adam_step`` returns, so consecutive ``train`` rows delimit one
    optimizer step without any hook inside the program.
    """

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = self.clock()
        *done, self._partial = (self._partial + text).split("\n")
        self.lines.extend((now, line) for line in done)
        return len(text)

    def rows(self, start: int = 0) -> list[tuple[float, int, str, str, float]]:
        """Parsed progress rows (time, step, split, metric, value) from line
        index ``start`` on; other lines are skipped."""
        out = []
        for stamp, line in self.lines[start:]:
            parts = line.split("\t")
            if len(parts) != 4:
                continue
            try:
                out.append((stamp, int(parts[0]), parts[1], parts[2],
                            float(parts[3])))
            except ValueError:
                continue
        return out

    def value_after(self, prefix: str, start: int = 0) -> float | None:
        """The number that follows ``prefix`` on the last line starting with
        it, or None."""
        for _, line in reversed(self.lines[start:]):
            if line.startswith(prefix):
                try:
                    return float(line[len(prefix):].split()[0])
                except (IndexError, ValueError):
                    return None
        return None


def check_training_rows(checks: Checks, rows, split: str, metric: str,
                        label: str) -> tuple[list[float], list[float]]:
    """Check every (split, metric) value is finite; return values, stamps."""
    values, stamps = [], []
    for stamp, step, row_split, row_metric, value in rows:
        if row_split == split and row_metric == metric:
            checks.check(math.isfinite(value),
                         f"{label}: {split} {metric} at step {step} is {value}")
            values.append(value)
            stamps.append(stamp)
    return values, stamps


def check_heldout(checks: Checks, rows, label: str,
                  must_drop: bool) -> float | None:
    """Held-out losses are finite and, with ``must_drop``, the last is below
    step 0's. Return the last."""
    held, _ = check_training_rows(checks, rows, "heldout", "plm_loss", label)
    if not checks.check(len(held) >= 2, f"{label}: fewer than 2 held-out rows"):
        return None
    if must_drop:
        checks.check(held[-1] < held[0], f"{label}: held-out loss {held[-1]} "
                                         f"not below step-0 {held[0]}")
    return held[-1]


def check_round_trip(checks: Checks, saved, loaded, label: str) -> None:
    """Reloaded arrays (parameters and Adam moments) and step equal the
    saved checkpoint's, rounded to float32, the storage precision."""
    def flat(ckpt):
        arrays = dict(ckpt.arrays)
        if ckpt.optim is not None:
            arrays.update({f"adam.m.{k}": v for k, v in ckpt.optim.m.items()})
            arrays.update({f"adam.v.{k}": v for k, v in ckpt.optim.v.items()})
        return arrays

    want, got = flat(saved), flat(loaded)
    same = want.keys() == got.keys() and all(
        np.array_equal(np.asarray(a, dtype=np.float32).astype(np.float64),
                       got[k]) for k, a in want.items())
    checks.check(same, f"{label}: reloaded checkpoint differs from saved")
    checks.check(loaded.step == saved.step,
                 f"{label}: reloaded step {loaded.step} != {saved.step}")


def check_repeatable(workload, checks: Checks, losses: list[float]) -> None:
    """Every pass trains on the same inputs with the same seed, so its
    losses repeat the first pass's bit for bit."""
    if workload.first_losses is None:
        workload.first_losses = losses
    else:
        checks.check(losses == workload.first_losses,
                     f"{workload.name}: losses differ from the first pass")


def step_intervals(stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def _digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# tiny-pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TinySizes:
    pretrain_utts: int = 400
    train_utts: int = 200
    test_utts: int = 100
    epochs: int = 2
    finetune_epochs: int = 2


class TinyPipeline:
    name = "tiny-pipeline"

    def __init__(self, bp, seed: int, workdir: Path, sizes=TinySizes()):
        self.bp, self.seed, self.dir, self.sizes = bp, seed, Path(workdir), sizes
        self.first_losses = None

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self) -> str:
        """Write corpora, manifests, vocabulary and config; return a digest
        of every input byte."""
        cp, s = self.bp.corpus, self.sizes
        grammar = cp.default_grammar()
        pre = cp.generate_corpus(grammar, s.pretrain_utts,
                                 seed=derive_seed(self.seed, "pretrain"),
                                 id_prefix="pre")
        train = cp.generate_corpus(grammar, s.train_utts,
                                   seed=derive_seed(self.seed, "train"),
                                   id_prefix="tr")
        test = cp.generate_corpus(grammar, s.test_utts,
                                  seed=derive_seed(self.seed, "test"),
                                  id_prefix="te")
        vocab_size = grammar.vocab.size
        cp.write_corpus([u.sequence for u in pre], self.path("pre.pps"),
                        vocab_size)
        cp.write_corpus([u.sequence for u in train], self.path("train.pps"),
                        vocab_size)
        cp.write_manifest(train, self.path("train.tsv"))
        cp.write_corpus([u.sequence for u in test], self.path("test.pps"),
                        vocab_size)
        cp.write_manifest(test, self.path("test.tsv"))
        cp.write_vocab(grammar.vocab, self.path("vocab.txt"))
        Path(self.path("run.cfg")).write_text(
            f"profile = tiny\nepochs = {s.epochs}\n"
            f"finetune_epochs = {s.finetune_epochs}\n", encoding="utf-8")
        self.vocab = grammar.vocab
        self.pre_frames = sum(u.sequence.length for u in pre)
        self.train_frames = sum(u.sequence.length for u in train)
        # the test split as the CLI sees it: float32 frames read back
        self.test = cp.join_labels(
            cp.read_corpus(self.path("test.pps"), expected_vocab_size=vocab_size),
            cp.read_manifest(self.path("test.tsv")))
        names = ("pre.pps", "train.pps", "train.tsv", "test.pps", "test.tsv",
                 "vocab.txt", "run.cfg")
        return _digest(*(Path(self.path(n)).read_bytes() for n in names))

    def _cli(self, checks: Checks, sink: StampedLines, argv: list[str]) -> float:
        err = io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(err):
            code = self.bp.cli.main(argv)
        elapsed = time.perf_counter() - started
        checks.check(code == 0, f"bertplm {argv[0]} exited {code}: "
                                f"{err.getvalue().strip()[-300:]}")
        return elapsed

    def run_pass(self, checks: Checks, traced: bool = False) -> dict:
        bp, p = self.bp, self.path
        common = ["--config", p("run.cfg"), "--seed", str(self.seed),
                  "--vocab", p("vocab.txt")]
        sink = StampedLines()
        label = self.name

        started = time.perf_counter()
        pretrain_s = self._cli(checks, sink, [
            "pretrain", *common, "--data", p("pre.pps"), "--out", p("pre.ckpt")])
        rows = sink.rows()
        losses, stamps = check_training_rows(checks, rows, "train", "plm_loss",
                                             label + " pretrain")
        heldout = check_heldout(checks, rows, label + " pretrain",
                                must_drop=True)
        epochs = sum(1 for r in rows if r[2] == "heldout") - 1

        t0 = time.perf_counter()
        ckpt = bp.trainer.load_checkpoint(p("pre.ckpt"))
        load_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        bp.trainer.save_checkpoint(p("copy.ckpt"), ckpt.arrays, ckpt.config,
                                   ckpt.step, ckpt.optim)
        save_s = time.perf_counter() - t0
        check_round_trip(checks, ckpt, bp.trainer.load_checkpoint(p("copy.ckpt")),
                         label)

        mark = len(sink.lines)
        finetune_s = self._cli(checks, sink, [
            "finetune", *common, "--data", p("train.pps"),
            "--manifest", p("train.tsv"), "--ckpt", p("pre.ckpt"),
            "--test-data", p("test.pps"), "--test-manifest", p("test.tsv"),
            "--out", p("ft.ckpt")])
        ft_losses, _ = check_training_rows(checks, sink.rows(mark), "train",
                                           "total_loss", label + " finetune")

        mark = len(sink.lines)
        self._cli(checks, sink, [
            "evaluate", *common, "--ckpt", p("ft.ckpt"), "--data", p("test.pps"),
            "--manifest", p("test.tsv")])
        cli_error = sink.value_after("error_rate\t", mark)

        ft = bp.trainer.load_checkpoint(p("ft.ckpt"))
        enc_cfg = bp.config.encoder_config(ft.config, self.vocab.size)
        t0 = time.perf_counter()
        metrics = bp.trainer.evaluate(ft.arrays, enc_cfg, self.test)
        eval_s = time.perf_counter() - t0
        checks.check(int(metrics.confusion.sum()) == len(self.test),
                     f"{label}: confusion total {int(metrics.confusion.sum())}"
                     f" != {len(self.test)} utterances")
        checks.check(cli_error is not None
                     and abs(metrics.error_rate - cli_error) < 1e-6,
                     f"{label}: evaluate error {metrics.error_rate} != CLI "
                     f"{cli_error}")
        wall = time.perf_counter() - started

        check_repeatable(self, checks, losses + ft_losses)
        return {
            "wall_s": wall,
            "pretrain_frames_per_s": epochs * self.pre_frames / pretrain_s,
            "step_s": step_intervals(stamps),
            "finetune_frames_per_s":
                len(ft_losses) * self.train_frames / finetune_s,
            "eval_utts_per_s": len(self.test) / eval_s,
            "ckpt_save_s": save_s,
            "ckpt_load_s": load_s,
            "heldout_plm_loss": heldout,
            "test_error_rate": float(metrics.error_rate),
        }


# ---------------------------------------------------------------------------
# full-long
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LongSizes:
    utterances: int = 11          # one held out, five steps of two
    min_len: int = 120
    max_len: int = 320            # exclusive: T stays below max_seq_len
    pool: int = 400
    overrides: tuple = (("batch_size", "2"), ("epochs", "1"),
                        ("heldout_fraction", "0.1"))


class FullLong:
    name = "full-long"

    def __init__(self, bp, seed: int, workdir: Path, sizes=LongSizes()):
        self.bp, self.seed, self.dir, self.sizes = bp, seed, Path(workdir), sizes
        self.first_losses = None

    def setup(self) -> str:
        """Pick one utterance per length bin from a generated pool, so every
        seed trains on the same spread of lengths in a different order."""
        cp, s = self.bp.corpus, self.sizes
        base = cp.default_grammar()
        grammar = cp.SynthGrammar(
            vocab=base.vocab, templates=base.templates, dur_min=8, dur_max=70,
            sil_min=3, sil_max=30, confusion=base.confusion,
            sharpness=base.sharpness)
        self.cfg = self.bp.config.parse_config(None, dict(s.overrides))
        pool = cp.generate_corpus(grammar, s.pool,
                                  seed=derive_seed(self.seed, "long"),
                                  max_seq_len=s.max_len - 1, id_prefix="long")
        edges = np.linspace(s.min_len, s.max_len, s.utterances + 1)
        chosen = {}
        for utt in pool:
            b = int(np.searchsorted(edges, utt.sequence.length, side="right")) - 1
            if 0 <= b < s.utterances:
                chosen.setdefault(b, utt.sequence)
        if len(chosen) != s.utterances:
            empty = sorted(set(range(s.utterances)) - set(chosen))
            raise RuntimeError(f"length bins {empty} empty in a pool of {s.pool}")
        self.sequences = [chosen[b] for b in range(s.utterances)]
        self.vocab = grammar.vocab
        self.frames = sum(q.length for q in self.sequences)
        return _digest(*(q.frames.tobytes() for q in self.sequences))

    def run_pass(self, checks: Checks, traced: bool = False) -> dict:
        tr, label = self.bp.trainer, self.name
        sink = StampedLines()
        path = str(self.dir / "long.ckpt")
        started = time.perf_counter()
        with redirect_stdout(sink):
            log = tr.ProgressLog(echo=True)
            ckpt = tr.pretrain(self.sequences, self.cfg, seed=self.seed,
                               sil_index=self.vocab.sil_index, log=log)
        pretrain_s = time.perf_counter() - started
        rows = sink.rows()
        losses, stamps = check_training_rows(checks, rows, "train", "plm_loss",
                                             label)
        # five full-width steps move the held-out loss by less than its
        # noise (it rose on 3 of 8 seeds at lr 3e-5, more often at higher
        # rates), so only finiteness and repeatability are checked here
        heldout = check_heldout(checks, rows, label, must_drop=False)

        t0 = time.perf_counter()
        tr.save_checkpoint(path, ckpt.arrays, self.cfg, ckpt.step, ckpt.optim)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded = tr.load_checkpoint(path)
        load_s = time.perf_counter() - t0
        check_round_trip(checks, ckpt, loaded, label)
        wall = time.perf_counter() - started

        check_repeatable(self, checks, losses)
        return {
            "wall_s": wall,
            "pretrain_frames_per_s": self.cfg.epochs * self.frames / pretrain_s,
            "step_s": step_intervals(stamps),
            "ckpt_save_s": save_s,
            "ckpt_load_s": load_s,
            "heldout_plm_loss": heldout,
        }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySizes:
    max_t: int = 6
    trials: int = 3
    fd_eps: float = 1e-5


class Verify:
    name = "verify"

    def __init__(self, bp, seed: int, workdir: Path, sizes=VerifySizes()):
        self.bp, self.seed, self.sizes = bp, seed, sizes

    def setup(self) -> str:
        """Frozen-predictor weights and the grad-check --quick problem."""
        bp, seed = self.bp, self.seed
        enc = bp.encoder
        self.frozen_cfg = enc.EncoderConfig(vocab_size=4, layers=2, d_model=8,
                                            d_ff=12, heads=2, max_seq_len=16,
                                            dropout=0.0)
        self.frozen_params = enc.init_params(
            self.frozen_cfg, bp.rng.stream(seed, "frozen"))
        self.fd_cfg = enc.EncoderConfig(vocab_size=6, layers=1, d_model=16,
                                        d_ff=24, heads=2, max_seq_len=16,
                                        dropout=0.0)
        t_len = 6
        self.fd_seq = bp.oracle.random_sequence(
            t_len, self.fd_cfg.vocab_size, bp.rng.stream(seed, "gc"),
            "grad-check")
        targets = tuple(range(t_len))[2::3]
        self.fd_plan = bp.objective.MaskPlan(
            tuple(i for i in range(t_len) if i not in targets), targets)
        self.fd_params = enc.init_params(self.fd_cfg, bp.rng.stream(seed, "gc-init"),
                                         classes=5, init_std=0.1)
        self.fd_utt = bp.corpus.LabeledUtterance(self.fd_seq, 1)
        return _digest(*(a.tobytes() for a in self.frozen_params.values()),
                       *(a.tobytes() for a in self.fd_params.values()),
                       self.fd_seq.frames.tobytes())

    def run_pass(self, checks: Checks, traced: bool = False) -> dict:
        bp, seed, s = self.bp, self.seed, self.sizes
        tol_theorem = bp.cli.THEOREM_TOLERANCE
        tol_grad = bp.cli.GRAD_TOLERANCE
        predictor_calls = 0
        started = time.perf_counter()

        frozen = bp.oracle.make_frozen_predictor(self.frozen_params,
                                                 self.frozen_cfg)
        if traced:
            inner = frozen

            def frozen(seq, context, target):
                nonlocal predictor_calls
                predictor_calls += 1
                return inner(seq, context, target)

        synthetic = bp.oracle.random_set_predictor(seed)
        for t_len in range(2, s.max_t + 1):
            for c in range(1, t_len):
                for name, predictor in (("synthetic", synthetic),
                                        ("frozen", frozen)):
                    reports = bp.oracle.verify_theorem(
                        predictor, t_len, c, trials=s.trials,
                        rng=bp.rng.stream(seed, "vt", name, t_len, c))
                    for r in reports:
                        checks.check(r.dev_exact <= tol_theorem,
                                     f"theorem {name} T={t_len} c={c}: "
                                     f"dev_exact {r.dev_exact:.3e}")
        theorem_s = time.perf_counter() - started

        evals = 0
        nonfinite = 0
        cfg, seq, plan, utt = self.fd_cfg, self.fd_seq, self.fd_plan, self.fd_utt
        obj = bp.objective

        def counted(loss):
            nonlocal evals, nonfinite
            evals += 1
            if not np.all(np.isfinite(loss.data)):
                nonfinite += 1
            return loss

        def build_plm(bound):
            return counted(obj._plm_term(bound, cfg, seq, plan, "mean", False,
                                         None))

        def build_finetune(bound):
            return counted(obj._finetune_term(bound, cfg, utt, plan, 1.0, "mean",
                                              False, None)[2])

        t0 = time.perf_counter()
        for name, build in (("bert_plm_loss", build_plm),
                            ("finetune_loss", build_finetune)):
            err = bp.autodiff.finite_diff_check(build, self.fd_params,
                                                eps=s.fd_eps)
            checks.check(err <= tol_grad,
                         f"finite differences {name}: {err:.3e} > {tol_grad}")
        fd_s = time.perf_counter() - t0
        checks.check(nonfinite == 0, f"{nonfinite} of {evals} finite-difference "
                                     "losses are not finite")
        return {
            "wall_s": time.perf_counter() - started,
            "theorem_s": theorem_s,
            "gradcheck_evals_per_s": evals / fd_s,
            "predictor_calls": predictor_calls,
        }


WORKLOADS = {cls.name: cls for cls in (TinyPipeline, FullLong, Verify)}

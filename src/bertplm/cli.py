"""Command-line surface.

Subcommands: gen-data, pretrain, finetune, evaluate, verify-theorem,
grad-check, ablate-mask, ablate-fraction. Exit codes: 0 success, 1 usage
error, 2 data/format error, 3 verification failure (theorem or gradient
check beyond tolerance). All randomness flows from --seed. Every corpus is
validated once at load against the config that will run it.
"""

from __future__ import annotations

import argparse
import sys

from . import autodiff as ad
from . import corpus as cp
from . import oracle
from . import trainer as tr
from .config import Config, ConfigError, config_text, encoder_config, parse_config
from .encoder import init_params
from .objective import MaskPlan, _finetune_term, _plm_term
from .rng import stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

THEOREM_TOLERANCE = 1e-9
GRAD_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; we use 1
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--config", default=None, help="key = value config file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="config override, repeatable")
    sub.add_argument("--print-config", action="store_true",
                     help="dump the fully-resolved config and continue")


def _resolve_config(args) -> Config:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    cfg = parse_config(args.config, overrides)
    if args.print_config:
        print(config_text(cfg), end="")
    return cfg


def _add_ablation_inputs(sub):
    _add_common(sub)
    sub.add_argument("--data", required=True,
                     help="unlabeled pre-training corpus")
    for flag in ("--train-data", "--train-manifest", "--test-data",
                 "--test-manifest", "--vocab"):
        sub.add_argument(flag, required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="bertplm", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("gen-data", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--utterances", type=int, required=True)
    p.add_argument("--out", required=True, help="corpus (.pps) path")
    p.add_argument("--manifest", default=None, help="labels TSV path")
    p.add_argument("--vocab", default=None, help="vocabulary file path")

    p = subs.add_parser("pretrain", help="masked pre-training (labels unused)")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="progress log path")

    p = subs.add_parser("finetune", help="supervised fine-tuning")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--ckpt", default=None, help="pre-trained init (else fresh)")
    p.add_argument("--test-data", default=None)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)

    p = subs.add_parser("evaluate", help="metrics on a labeled corpus")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)

    p = subs.add_parser("verify-theorem",
                        help="brute-force permutation/subset equivalence check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-T", type=int, default=5, dest="max_t")
    p.add_argument("--trials", type=int, default=20)

    p = subs.add_parser("grad-check",
                        help="finite-difference check of the full encoder")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--quick", action="store_true",
                   help="small widths instead of the full tiny profile")

    p = subs.add_parser("ablate-mask", help="mask-ratio grid experiment")
    _add_ablation_inputs(p)
    p.add_argument("--ratios", default="0.05,0.10,0.15,0.20",
                   help="comma-separated mask ratio bounds")

    p = subs.add_parser("ablate-fraction",
                        help="label-fraction experiment, pretrained vs fresh")
    _add_ablation_inputs(p)
    p.add_argument("--fractions", default="0.2,0.5,0.7,1.0")

    return parser


def _checked(sequences, cfg: Config, source: str):
    """The sequences, once none breaks an invariant under ``cfg``; else a
    DataError naming the first offending utterance."""
    for seq in sequences:
        violations = cp.validate_sequence(seq, cfg.max_seq_len)
        if violations:
            raise tr.DataError(f"{source}: utterance {seq.utterance_id!r}: "
                               f"{violations[0]}")
    return sequences


def _read_corpus(path, vocab, cfg: Config):
    """A corpus file, validated at load for the config that will run it."""
    return _checked(cp.read_corpus(path, expected_vocab_size=vocab.size),
                    cfg, path)


def _load_labeled(data_path, manifest_path, vocab, cfg: Config):
    sequences = _read_corpus(data_path, vocab, cfg)
    return cp.join_labels(sequences, cp.read_manifest(manifest_path))


def _ablation_inputs(args, cfg: Config):
    """Vocabulary, unlabeled corpus, train and test splits, class count."""
    vocab = cp.read_vocab(args.vocab)
    unlabeled = _read_corpus(args.data, vocab, cfg)
    train = _load_labeled(args.train_data, args.train_manifest, vocab, cfg)
    test = _load_labeled(args.test_data, args.test_manifest, vocab, cfg)
    classes = max((u.label for u in train + test), default=-1) + 1
    return vocab, unlabeled, train, test, classes


def _unit_fractions(text: str, flag: str) -> list[float]:
    """Comma-separated floats, at least one, each in (0, 1]."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated floats, got {text!r}")
    if not values or not all(0.0 < v <= 1.0 for v in values):
        raise UsageError(f"{flag} expects values in (0, 1], got {text!r}")
    return values


def cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    grammar = cp.default_grammar()
    utterances = cp.generate_corpus(grammar, args.utterances, seed=args.seed,
                                    max_seq_len=cfg.max_seq_len)
    _checked([u.sequence for u in utterances], cfg, "generated corpus")
    cp.write_corpus([u.sequence for u in utterances], args.out,
                    grammar.vocab.size)
    if args.manifest:
        cp.write_manifest(utterances, args.manifest)
    if args.vocab:
        cp.write_vocab(grammar.vocab, args.vocab)
    # the channel is frozen once written; record how it was produced
    print(f"wrote {len(utterances)} utterances "
          f"({sum(u.sequence.length for u in utterances)} frames) to {args.out} "
          f"[seed={args.seed}]")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    vocab = cp.read_vocab(args.vocab)
    sequences = _read_corpus(args.data, vocab, cfg)
    log = tr.ProgressLog(args.log, echo=True)
    try:  # pretrain rewrites the checkpoint after every epoch
        ckpt = tr.pretrain(sequences, cfg, seed=args.seed,
                           sil_index=vocab.sil_index, log=log,
                           checkpoint_path=args.out)
    finally:
        log.close()
    print(f"checkpoint ({ckpt.step} steps) written to {args.out}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    if bool(args.test_data) != bool(args.test_manifest):
        raise UsageError("--test-data and --test-manifest go together")
    cfg = _resolve_config(args)
    vocab = cp.read_vocab(args.vocab)
    train = _load_labeled(args.data, args.manifest, vocab, cfg)
    test = []
    if args.test_data:
        test = _load_labeled(args.test_data, args.test_manifest, vocab, cfg)
    classes = max((u.label for u in train + test), default=-1) + 1
    init = tr.load_checkpoint(args.ckpt) if args.ckpt else None
    log = tr.ProgressLog(args.log, echo=True)
    try:
        ckpt, metrics = tr.finetune(init, train, test, cfg, seed=args.seed,
                                    sil_index=vocab.sil_index, classes=classes,
                                    log=log)
    finally:
        log.close()
    tr.save_checkpoint(args.out, ckpt.arrays, cfg, ckpt.step)
    print(f"checkpoint written to {args.out}")
    if metrics is not None:
        print(f"test error_rate={metrics.error_rate:.4f} "
              f"macro_f1={metrics.macro_f1:.4f} micro_f1={metrics.micro_f1:.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _resolve_config(args)
    vocab = cp.read_vocab(args.vocab)
    ckpt = tr.load_checkpoint(args.ckpt)
    utterances = _load_labeled(args.data, args.manifest, vocab, ckpt.config)
    enc_cfg = encoder_config(ckpt.config, vocab.size)
    metrics = tr.evaluate(ckpt.arrays, enc_cfg, utterances)
    print(f"error_rate\t{metrics.error_rate:.6f}")
    print(f"macro_f1\t{metrics.macro_f1:.6f}")
    print(f"micro_f1\t{metrics.micro_f1:.6f}")
    if metrics.zero_support_classes:
        print(f"zero_support_classes\t{metrics.zero_support_classes}")
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    if not 2 <= args.max_t <= oracle.PERM_LIMIT:
        raise UsageError(f"--max-T must lie in [2, {oracle.PERM_LIMIT}]")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    frozen_cfg = oracle.EncoderConfig(vocab_size=4, layers=2, d_model=8,
                                      d_ff=12, heads=2, max_seq_len=16,
                                      dropout=0.0)
    frozen = oracle.make_frozen_predictor(
        init_params(frozen_cfg, stream(args.seed, "frozen")), frozen_cfg)
    synthetic = oracle.random_set_predictor(args.seed)
    print("T\tc\tdev_exact\tdev_paper\ttrials")
    worst = 0.0
    for t_len in range(2, args.max_t + 1):
        for c in range(1, t_len):
            reports = []
            for name, p in (("synthetic", synthetic), ("frozen", frozen)):
                reports.extend(oracle.verify_theorem(
                    p, t_len, c, trials=args.trials,
                    rng=stream(args.seed, "vt", name, t_len, c)))
            dev_exact = max(r.dev_exact for r in reports)
            dev_paper = max(r.dev_paper for r in reports)
            worst = max(worst, dev_exact)
            print(f"{t_len}\t{c}\t{dev_exact:.3e}\t{dev_paper:.3e}\t{len(reports)}")
    if worst > THEOREM_TOLERANCE:
        print(f"FAIL: max dev_exact {worst:.3e} > {THEOREM_TOLERANCE}",
              file=sys.stderr)
        return EXIT_VERIFY
    print(f"ok: max dev_exact {worst:.3e} <= {THEOREM_TOLERANCE}")
    return EXIT_OK


def grad_check_problem(seed: int, quick: bool):
    """Parameters and the two loss builders ``grad-check`` checks: the full
    encoder at the tiny profile's widths, or at smaller ones with ``quick``."""
    if quick:
        enc_cfg = oracle.EncoderConfig(vocab_size=6, layers=1, d_model=16,
                                       d_ff=24, heads=2, max_seq_len=16,
                                       dropout=0.0)
        t_len = 6
    else:
        enc_cfg = oracle.EncoderConfig(vocab_size=8, layers=2, d_model=64,
                                       d_ff=128, heads=4, max_seq_len=16,
                                       dropout=0.0)
        t_len = 12
    rng = stream(seed, "gc")
    seq = oracle.random_sequence(t_len, enc_cfg.vocab_size, rng, "grad-check")
    eligible = list(range(t_len))
    targets = tuple(eligible[2::3])
    plan = MaskPlan(tuple(i for i in eligible if i not in targets), targets)
    params = init_params(enc_cfg, stream(seed, "gc-init"), classes=5,
                         init_std=0.1)
    utterance = cp.LabeledUtterance(seq, 1)

    def build_plm(bound):
        return _plm_term(bound, enc_cfg, seq, plan, "mean", False, None)

    def build_finetune(bound):
        return _finetune_term(bound, enc_cfg, utterance, plan, 1.0, "mean",
                              False, None)[2]

    return params, {"bert_plm_loss": build_plm, "finetune_loss": build_finetune}


def cmd_grad_check(args) -> int:
    if not ad.FD_EPS_MIN <= args.eps <= ad.FD_EPS_MAX:
        raise UsageError(
            f"--eps must lie in [{ad.FD_EPS_MIN:g}, {ad.FD_EPS_MAX:g}]")
    params, builds = grad_check_problem(args.seed, args.quick)
    worst = 0.0
    for name, build in builds.items():
        err = ad.finite_diff_check(build, params, eps=args.eps)
        worst = max(worst, err)
        print(f"{name}\tmax_rel_err\t{err:.3e}")
    if worst > GRAD_TOLERANCE:
        print(f"FAIL: {worst:.3e} > {GRAD_TOLERANCE}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"ok: max relative error {worst:.3e} <= {GRAD_TOLERANCE}")
    return EXIT_OK


def cmd_ablate_mask(args) -> int:
    cfg = _resolve_config(args)
    ratios = _unit_fractions(args.ratios, "--ratios")
    vocab, unlabeled, train, test, classes = _ablation_inputs(args, cfg)
    rows = tr.ablate_mask_ratio(unlabeled, train, test, ratios, cfg,
                                seed=args.seed, sil_index=vocab.sil_index,
                                classes=classes)
    print("mask_ratio_max\terror_rate\tmacro_f1\tbest")
    for row in rows:
        marker = "*" if row.best else ""
        print(f"{row.setting:.2f}\t{row.error_rate:.4f}\t{row.macro_f1:.4f}\t{marker}")
    return EXIT_OK


def cmd_ablate_fraction(args) -> int:
    cfg = _resolve_config(args)
    fractions = _unit_fractions(args.fractions, "--fractions")
    vocab, unlabeled, train, test, classes = _ablation_inputs(args, cfg)
    rows = tr.ablate_fraction(unlabeled, train, test, fractions, cfg,
                              seed=args.seed, sil_index=vocab.sil_index,
                              classes=classes)
    print("fraction\tacc_pretrained\tacc_fresh\tgap")
    for row in rows:
        print(f"{row.fraction:.2f}\t{row.pretrained_accuracy:.4f}"
              f"\t{row.fresh_accuracy:.4f}\t{row.gap:+.4f}")
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "verify-theorem": cmd_verify_theorem,
    "grad-check": cmd_grad_check,
    "ablate-mask": cmd_ablate_mask,
    "ablate-fraction": cmd_ablate_fraction,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage()
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (cp.CorpusFormatError, cp.GenerationError, tr.DataError,
            tr.TrainingError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

The heavy criteria pin their runtime budgets; everything here is seeded and
deterministic, so reruns produce identical numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from bertplm import autodiff as ad
from bertplm import oracle
from bertplm import trainer as tr
from bertplm.config import parse_config
from bertplm.corpus import (LabeledUtterance, PhonemePosteriorSequence,
                            default_grammar, generate_corpus,
                            major_sil_frames)
from bertplm.encoder import (EncoderConfig, Group, bind_params, encode,
                             init_params)
from bertplm.objective import (MaskPlan, _finetune_term, _plm_term,
                               sample_mask_plan)
from bertplm.rng import stream
from predictors import uniform_predictor

LOG4 = math.log(4.0)


def report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def grammar():
    return default_grammar()


def test_criterion_1_theorem_oracle():
    started = time.monotonic()
    frozen_cfg = EncoderConfig(vocab_size=4, layers=2, d_model=8, d_ff=12,
                               heads=2, max_seq_len=16, dropout=0.0)
    frozen = oracle.make_frozen_predictor(
        init_params(frozen_cfg, stream(7, "frozen")), frozen_cfg)
    synthetic = oracle.random_set_predictor(7)

    worst_exact = 0.0
    pairs = 0
    for t_len in (2, 3, 4, 5):
        for c in range(1, t_len):
            for name, predictor in (("synthetic", synthetic), ("frozen", frozen)):
                reports = oracle.verify_theorem(
                    predictor, t_len, c, trials=20,
                    rng=stream(7, "acc1", name, t_len, c))
                worst_exact = max(worst_exact,
                                  max(r.dev_exact for r in reports))
            pairs += 1
    assert worst_exact <= 1e-9

    # closed forms at T=3, c=1, V=4 document the sum-form weighting gap
    uniform = uniform_predictor(4)
    seq = oracle.random_sequence(3, 4, stream(7, "acc1-closed"))
    table = oracle.score_table(uniform, seq, c=1)
    lhs = oracle.perm_plm_expectation(table, c=1)
    rhs_paper = oracle.subset_regression_expectation(table, 1)[1]
    assert abs(lhs - (-2 * LOG4)) <= 1e-12
    assert abs(rhs_paper - (-1.5 * LOG4)) <= 1e-12

    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(1, f"theorem oracle, {pairs} (T,c) pairs x 40 trials, "
              f"max dev_exact={worst_exact:.2e}, closed forms exact, "
              f"{elapsed:.0f}s < 120s")


def test_criterion_2_gradient_fidelity():
    started = time.monotonic()
    enc_cfg = EncoderConfig(vocab_size=8, layers=2, d_model=64, d_ff=128,
                            heads=4, max_seq_len=16, dropout=0.0)
    t_len = 12
    seq = oracle.random_sequence(t_len, 8, stream(19, "acc2"), "acc2")
    plan = MaskPlan.from_context_set((0, 1, 3, 4, 6, 7, 9, 10), t_len)
    classes = 5
    params = init_params(enc_cfg, stream(19, "acc2-init"), classes=classes,
                         init_std=0.1)
    utterance = LabeledUtterance(seq, 2)

    def build_plm(bound):
        return _plm_term(bound, enc_cfg, seq, plan, "mean", False, None)

    def build_finetune(bound):
        return _finetune_term(bound, enc_cfg, utterance, plan, 1.0, "mean",
                              False, None)[2]

    err_plm = ad.finite_diff_check(build_plm, params, eps=1e-5)
    err_ft = ad.finite_diff_check(build_finetune, params, eps=1e-5)
    assert err_plm <= 1e-4
    assert err_ft <= 1e-4

    elapsed = time.monotonic() - started
    assert elapsed < 300
    entries = sum(p.size for p in params.values())
    report(2, f"gradient fidelity over {entries} entries x 2 losses, "
              f"max rel err plm={err_plm:.2e} finetune={err_ft:.2e}, "
              f"{elapsed:.0f}s < 300s")


def test_criterion_3_no_leakage(monkeypatch):
    softmax = ad.softmax
    weights = []

    def recording_softmax(x, blocked):
        out = softmax(x, blocked)
        weights.append(out.data.copy())
        return out

    monkeypatch.setattr(ad, "softmax", recording_softmax)
    enc_cfg = EncoderConfig(vocab_size=6, layers=2, d_model=16, d_ff=24,
                            heads=2, max_seq_len=32, dropout=0.0)
    worst_delta = 0.0
    checked_targets = 0
    for trial in range(100):
        rng = stream(23, "acc3", trial)
        params = init_params(enc_cfg, rng, init_std=0.1)
        t_len = int(rng.integers(4, 13))
        seq = oracle.random_sequence(t_len, 6, rng, f"acc3-{trial}")
        plan = sample_mask_plan(seq, sil_index=0, rho_max=0.5, tau=0.999,
                                rng=rng)

        weights.clear()
        tape = ad.Tape()
        group = Group([seq], [plan])
        base = encode(bind_params(params, tape), enc_cfg, group).data
        assert len(weights) == enc_cfg.layers
        allowed = ~group.blocked[0]
        for stacked in weights:
            assert np.all(stacked[:, ~allowed] == 0.0)

        for target in plan.target_idx:
            frames = seq.frames.copy()
            frames[target] = rng.dirichlet(np.ones(6))
            tape2 = ad.Tape()
            perturbed = encode(bind_params(params, tape2), enc_cfg,
                               Group([PhonemePosteriorSequence(frames)], [plan])
                               ).data
            worst_delta = max(worst_delta,
                              float(np.abs(perturbed - base).max()))
            checked_targets += 1
    assert worst_delta <= 1e-12
    report(3, f"no leakage over 100 triples / {checked_targets} target "
              f"perturbations, max output delta={worst_delta:.1e}, "
              f"blocked attention mass exactly 0")


def test_criterion_4_mask_law(grammar):
    # part 1: uniformity at T=8, no SIL, rho_max=0.5 over 100k plans
    frames = np.full((8, 6), 0.01)
    frames[:, 1] = 1.0 - 0.05
    seq = PhonemePosteriorSequence(frames / frames.sum(1, keepdims=True),
                                   utterance_id="acc4")
    draws = 100_000
    k_counts = np.zeros(5)
    position_counts = np.zeros(8)
    subset_counts: dict[tuple, int] = {}
    for i in range(draws):
        plan = sample_mask_plan(seq, sil_index=0, rho_max=0.5, tau=0.5,
                                rng=stream(29, "acc4", i))
        k_counts[plan.k] += 1
        for t in plan.target_idx:
            position_counts[t] += 1
        subset_counts[plan.target_idx] = subset_counts.get(plan.target_idx, 0) + 1

    chi = stats.chisquare(k_counts[1:], [draws / 4] * 4)
    assert chi.pvalue > 0.01

    marginal = np.mean([1, 2, 3, 4]) / 8 / 4 * 4  # E[k]/T = 2.5/8
    marginal = 2.5 / 8
    sigma = math.sqrt(draws * marginal * (1 - marginal))
    assert np.all(np.abs(position_counts - draws * marginal) <= 3 * sigma)

    worst_subset_sigma = 0.0
    for subset, count in subset_counts.items():
        k = len(subset)
        p = 0.25 / math.comb(8, k)
        sd = math.sqrt(draws * p * (1 - p))
        worst_subset_sigma = max(worst_subset_sigma,
                                 abs(count - draws * p) / sd)
    assert worst_subset_sigma <= 3.0

    # part 2: no major-SIL frame is ever targeted, over >= 1M frames
    sil = grammar.vocab.sil_index
    total_frames = 0
    sil_targets = 0
    batch = 0
    while total_frames < 1_000_000:
        utts = generate_corpus(grammar, 2000, seed=3000 + batch,
                               id_prefix=f"acc4-{batch}")
        for n, utt in enumerate(utts):
            seq2 = utt.sequence
            total_frames += seq2.length
            plan = sample_mask_plan(seq2, sil, rho_max=0.5, tau=0.5,
                                    rng=stream(31, "acc4b", batch, n))
            major = major_sil_frames(seq2.frames, sil, 0.5)
            sil_targets += int(major[list(plan.target_idx)].sum())
        batch += 1
    assert sil_targets == 0
    report(4, f"mask law: chi-square p={chi.pvalue:.3f} on k, positions and "
              f"all {len(subset_counts)} subsets within 3 sigma "
              f"(worst {worst_subset_sigma:.2f}), {sil_targets} major-SIL "
              f"targets in {total_frames} frames")


def test_criterion_5_pretraining_effectiveness(grammar):
    started = time.monotonic()
    corpus = [u.sequence for u in generate_corpus(grammar, 2000, seed=500,
                                                  id_prefix="acc5")]
    cfg = parse_config(None, {"profile": "tiny", "epochs": "10"})
    log = tr.ProgressLog()
    tr.pretrain(corpus, cfg, seed=5, sil_index=grammar.vocab.sil_index,
                log=log)
    held = [v for _, split, _, v in log.records if split == "heldout"]
    assert len(held) == 11  # step 0 plus one per epoch
    drop = (held[0] - held[-1]) / held[0]
    assert drop >= 0.20
    elapsed = time.monotonic() - started
    assert elapsed < 1800
    report(5, f"held-out masked loss {held[0]:.3f} -> {held[-1]:.3f} "
              f"({100 * drop:.0f}% drop >= 20%) in 10 epochs, "
              f"{elapsed:.0f}s < 1800s")


def test_criterion_6_transfer_benefit(grammar):
    started = time.monotonic()
    sil = grammar.vocab.sil_index
    unlabeled = [u.sequence for u in generate_corpus(grammar, 2000, seed=100,
                                                     id_prefix="unl")]
    train = generate_corpus(grammar, 250, seed=101, id_prefix="tr")
    test = generate_corpus(grammar, 250, seed=102, id_prefix="te")
    cfg = parse_config(None, {"profile": "tiny", "epochs": "10",
                              "patience": "5", "finetune_epochs": "40",
                              "val_fraction": "0.2"})

    acc = {(f, kind): [] for f in (0.2, 1.0) for kind in ("pre", "fresh")}
    for seed in (1, 2, 3):
        ckpt = tr.pretrain(unlabeled, cfg, seed=seed, sil_index=sil)
        order = stream(seed, "frac").permutation(len(train))
        for fraction in (0.2, 1.0):
            subset = [train[i] for i in order[:int(fraction * len(train))]]
            for init, kind in ((ckpt, "pre"), (None, "fresh")):
                _, metrics = tr.finetune(init, subset, test, cfg, seed=seed,
                                         sil_index=sil, classes=5)
                acc[(fraction, kind)].append(1.0 - metrics.error_rate)

    mean = {key: float(np.mean(v)) for key, v in acc.items()}
    gap20 = mean[(0.2, "pre")] - mean[(0.2, "fresh")]
    gap100 = mean[(1.0, "pre")] - mean[(1.0, "fresh")]
    assert mean[(0.2, "pre")] >= mean[(0.2, "fresh")]
    assert gap100 <= gap20
    elapsed = time.monotonic() - started
    assert elapsed < 3600
    report(6, f"transfer benefit over 3 seeds: 20% data "
              f"pre={mean[(0.2, 'pre')]:.3f} vs fresh={mean[(0.2, 'fresh')]:.3f} "
              f"(gap {gap20:+.3f}); 100% data gap {gap100:+.3f} <= 20% gap; "
              f"{elapsed:.0f}s < 3600s")


def test_criterion_7_mask_ratio_ablation(grammar):
    sil = grammar.vocab.sil_index
    unlabeled = [u.sequence for u in generate_corpus(grammar, 400, seed=700,
                                                     id_prefix="ab-unl")]
    train = generate_corpus(grammar, 150, seed=701, id_prefix="ab-tr")
    test = generate_corpus(grammar, 100, seed=702, id_prefix="ab-te")
    cfg = parse_config(None, {"profile": "tiny", "epochs": "4",
                              "finetune_epochs": "10"})
    rows = tr.ablate_mask_ratio(unlabeled, train, test,
                                ratios=[0.05, 0.10, 0.15, 0.20],
                                cfg=cfg, seed=77, sil_index=sil, classes=5)
    assert [r.setting for r in rows] == [0.05, 0.10, 0.15, 0.20]
    assert all(0.0 <= r.error_rate <= 1.0 for r in rows)
    flagged = [r for r in rows if r.best]
    assert len(flagged) == 1
    assert flagged[0].error_rate == min(r.error_rate for r in rows)
    table = "; ".join(f"{r.setting:.2f}->{r.error_rate:.3f}"
                      + ("*" if r.best else "") for r in rows)
    report(7, f"mask-ratio grid complete: {table} (* = argmin; no claim "
              f"that any ratio wins at this scale)")


def test_criterion_8_round_trip_and_determinism(grammar, tmp_path):
    # corpus round trip is bitwise at f32
    from bertplm.corpus import read_corpus, write_corpus
    utts = generate_corpus(grammar, 10, seed=800, id_prefix="acc8")
    corpus_path = tmp_path / "acc8.pps"
    write_corpus([u.sequence for u in utts], corpus_path, grammar.vocab.size)
    loaded = read_corpus(corpus_path)
    for original, read in zip(utts, loaded):
        assert read.frames.astype("<f4").tobytes() == \
            original.sequence.frames.astype("<f4").tobytes()
        assert read.utterance_id == original.sequence.utterance_id

    # identical seeds give bitwise-identical checkpoints; checkpoints
    # round-trip bitwise at stored precision
    cfg = parse_config(None, {"profile": "tiny", "d": "16", "d_ff": "24",
                              "heads": "2", "layers": "1", "epochs": "2",
                              "batch_size": "4", "dropout": "0.1"})
    payloads = []
    for run in range(2):
        ckpt = tr.pretrain([u.sequence for u in utts], cfg, seed=88,
                           sil_index=grammar.vocab.sil_index)
        path = tmp_path / f"acc8-{run}.ckpt"
        tr.save_checkpoint(path, ckpt.arrays, cfg, ckpt.step, ckpt.optim)
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]

    reloaded = tr.load_checkpoint(tmp_path / "acc8-0.ckpt")
    resaved = tmp_path / "acc8-resave.ckpt"
    tr.save_checkpoint(resaved, reloaded.arrays, reloaded.config,
                       reloaded.step, reloaded.optim)
    assert resaved.read_bytes() == payloads[0]
    report(8, "corpus and checkpoint formats round-trip bitwise; "
              "same-seed training is bitwise reproducible")

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bertplm import autodiff as ad
from bertplm import objective as obj
from bertplm.corpus import LabeledUtterance, PhonemePosteriorSequence
from bertplm.encoder import EncoderConfig, init_params
from bertplm.rng import stream

CONFIG = EncoderConfig(vocab_size=6, layers=1, d_model=8, d_ff=12, heads=2,
                       max_seq_len=32, dropout=0.0)


def simplex_sequence(t_len, vocab_size, rng, utt_id="seq"):
    rows = rng.dirichlet(np.ones(vocab_size), size=t_len)
    return PhonemePosteriorSequence(rows, utterance_id=utt_id)


def sequence_with_sil(sil_rows, content_rows, vocab_size=6):
    frames = np.full((sil_rows + content_rows, vocab_size), 0.02)
    frames[:sil_rows, 0] = 0.9
    frames[sil_rows:, 1] = 0.9
    frames /= frames.sum(axis=1, keepdims=True)
    return PhonemePosteriorSequence(frames, utterance_id="sil-mix")


class TestSampleMaskPlan:
    def test_floor_forces_single_target(self):
        # 8 eligible frames at rho 0.15 -> budget max(1, floor(1.2)) = 1
        seq = sequence_with_sil(sil_rows=2, content_rows=8)
        for i in range(20):
            plan = obj.sample_mask_plan(seq, sil_index=0, rho_max=0.15,
                                        tau=0.5, rng=stream(1, "floor", i))
            assert plan.k == 1

    def test_major_sil_frames_are_always_context(self):
        seq = sequence_with_sil(sil_rows=3, content_rows=5)
        for i in range(200):
            plan = obj.sample_mask_plan(seq, sil_index=0, rho_max=1.0,
                                        tau=0.5, rng=stream(2, "sil", i))
            assert not set(plan.target_idx) & {0, 1, 2}
            assert {0, 1, 2} <= set(plan.context_idx)

    def test_all_sil_raises(self):
        seq = sequence_with_sil(sil_rows=4, content_rows=0)
        with pytest.raises(obj.SamplingError):
            obj.sample_mask_plan(seq, sil_index=0, rho_max=0.5, tau=0.5,
                                 rng=stream(3, "allsil"))

    def test_exact_combinatorial_law_at_small_t(self):
        # T=4, no SIL, rho 1.0: joint law over (k, subset) is
        # P = (1/4) * 1/C(4, k); chi-square over all 15 outcomes
        seq = sequence_with_sil(sil_rows=0, content_rows=4)
        outcomes = {}
        draws = 40_000
        for i in range(draws):
            plan = obj.sample_mask_plan(seq, sil_index=0, rho_max=1.0,
                                        tau=0.5, rng=stream(4, "law", i))
            outcomes[plan.target_idx] = outcomes.get(plan.target_idx, 0) + 1
        assert len(outcomes) == 15
        observed, expected = [], []
        for subset, count in outcomes.items():
            observed.append(count)
            expected.append(draws * 0.25 / math.comb(4, len(subset)))
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.floats(0.05, 1.0), st.integers(0, 2**31))
    def test_plan_invariants(self, t_len, rho_max, seed):
        seq = simplex_sequence(t_len, 6, stream(seed, "inv"))
        try:
            plan = obj.sample_mask_plan(seq, sil_index=0, rho_max=rho_max,
                                        tau=0.5, rng=stream(seed, "inv2"))
        except obj.SamplingError:
            assert all(seq.frames[t, 0] > 0.5 for t in range(t_len))
            return
        plan.check_partition(t_len)
        eligible = [t for t in range(t_len) if seq.frames[t, 0] <= 0.5]
        budget = max(1, math.floor(rho_max * len(eligible)))
        assert 1 <= plan.k <= budget
        assert all(seq.frames[t, 0] <= 0.5 for t in plan.target_idx)


class TestSoftCrossEntropy:
    def test_one_hot_target_uniform_logits(self):
        logits = ad.constant(np.zeros((1, 4)))
        target = np.array([[0.0, 1.0, 0.0, 0.0]])
        loss = obj.soft_cross_entropy(logits, target)
        assert abs(loss.item() - math.log(4)) <= 1e-12

    def test_equality_iff_prediction_matches_target(self):
        target = np.array([[0.4, 0.3, 0.2, 0.1]])
        logits = ad.constant(np.log(target))
        loss = obj.soft_cross_entropy(logits, target)
        entropy = -float((target * np.log(target)).sum())
        assert abs(loss.item() - entropy) <= 1e-12

    def test_half_half_target_matching_logits(self):
        target = np.array([[0.5, 0.5, 0.0, 0.0]])
        logits = ad.constant(np.array([[10.0, 10.0, -40.0, -40.0]]))
        loss = obj.soft_cross_entropy(logits, target)
        assert abs(loss.item() - math.log(2)) <= 1e-12

    @settings(max_examples=50)
    @given(st.integers(1, 5), st.integers(2, 7), st.integers(0, 2**31))
    def test_gibbs_lower_bound(self, rows, vocab, seed):
        rng = stream(seed, "gibbs")
        targets = rng.dirichlet(np.ones(vocab), size=rows)
        logits = ad.constant(rng.normal(size=(rows, vocab), scale=2.0))
        loss = obj.soft_cross_entropy(logits, targets).item()
        with np.errstate(divide="ignore", invalid="ignore"):
            log_t = np.where(targets > 0, np.log(targets), 0.0)
        mean_entropy = float(-(targets * log_t).sum(axis=1).mean())
        assert loss >= mean_entropy - 1e-10


class TestBertPlmLoss:
    def test_zero_embedding_gives_log_v(self):
        params = init_params(CONFIG, stream(5, "init"))
        params["embed"] = np.zeros_like(params["embed"])
        seq = simplex_sequence(5, 6, stream(5, "s"))
        plan = obj.MaskPlan.from_context_set((0, 2, 4), 5)
        breakdown = obj.bert_plm_loss(params, CONFIG, seq, plan)
        assert abs(breakdown.plm_loss - math.log(6)) <= 1e-12

    def test_single_target_equals_its_soft_ce(self):
        params = init_params(CONFIG, stream(6, "init"))
        seq = simplex_sequence(4, 6, stream(6, "s"))
        plan = obj.MaskPlan.from_context_set((0, 1, 3), 4)
        assert plan.k == 1
        breakdown = obj.bert_plm_loss(params, CONFIG, seq, plan)
        # recompute through the generic path
        from bertplm.encoder import bind_params, encode, predict_phonemes
        tape = ad.Tape()
        bound = bind_params(params, tape)
        hidden = encode(bound, CONFIG, seq, plan)
        logits = predict_phonemes(ad.gather_rows(hidden, [2]), bound["embed"])
        expected = obj.soft_cross_entropy(logits, seq.frames[[2]])
        assert breakdown.plm_loss == expected.item()

    def test_gradient_reaches_mask_vector(self):
        params = init_params(CONFIG, stream(7, "init"))
        seq = simplex_sequence(5, 6, stream(7, "s"))
        plan = obj.MaskPlan.from_context_set((0, 1, 4), 5)
        _, grads = obj.bert_plm_loss(params, CONFIG, seq, plan, want_grads=True)
        assert np.abs(grads["mask_vec"]).max() > 0
        assert set(grads) >= {"embed", "mask_vec", "layer0.wq"}

    def test_sum_weighting_scales_by_k(self):
        params = init_params(CONFIG, stream(8, "init"))
        seq = simplex_sequence(6, 6, stream(8, "s"))
        plan = obj.MaskPlan.from_context_set((0, 1, 2), 6)
        mean = obj.bert_plm_loss(params, CONFIG, seq, plan, weighting="mean")
        total = obj.bert_plm_loss(params, CONFIG, seq, plan, weighting="sum")
        assert abs(total.plm_loss - 3 * mean.plm_loss) <= 1e-12

    @pytest.mark.parametrize("weighting", ["mean", "sum"])
    def test_forward_only_loss_equals_taped_loss(self, weighting):
        # the held-out rows of pretrain come from the forward-only path
        params = init_params(CONFIG, stream(13, "init"))
        seq = simplex_sequence(7, 6, stream(13, "s"))
        plan = obj.MaskPlan.from_context_set((0, 2, 3, 6), 7)
        tapeless = obj.bert_plm_loss(params, CONFIG, seq, plan,
                                     weighting=weighting)
        taped, _ = obj.bert_plm_loss(params, CONFIG, seq, plan,
                                     weighting=weighting, want_grads=True)
        assert tapeless == taped


class TestFinetuneLoss:
    def test_lambda_zero_total_equals_cls(self):
        params = init_params(CONFIG, stream(9, "init"), classes=3)
        utt = LabeledUtterance(simplex_sequence(5, 6, stream(9, "s")), 1)
        plan = obj.MaskPlan.from_context_set((0, 2, 3), 5)
        breakdown = obj.finetune_loss(params, CONFIG, utt, plan, lam=0.0)
        assert breakdown.total == breakdown.cls_loss
        assert breakdown.plm_loss > 0

    def test_confident_correct_logit_drives_cls_to_zero(self):
        from bertplm.encoder import attentive_pool, bind_params, encode

        params = init_params(CONFIG, stream(10, "init"), classes=2)
        utt = LabeledUtterance(simplex_sequence(4, 6, stream(10, "s")), 1)
        plan = obj.MaskPlan.full_context(4)
        # point a huge correct-class row along the actual pooled vector
        tape = ad.Tape()
        bound = bind_params(params, tape)
        hidden = encode(bound, CONFIG, utt.sequence, plan)
        pooled = attentive_pool(hidden, bound["pool_query"], plan.context_idx).data
        params["classifier"] = np.zeros_like(params["classifier"])
        params["classifier"][1] = 1e4 * pooled / float(pooled @ pooled)
        breakdown = obj.finetune_loss(params, CONFIG, utt, plan, lam=0.0)
        assert breakdown.cls_loss <= 1e-6

    def test_missing_head_rejected(self):
        params = init_params(CONFIG, stream(11, "init"))
        utt = LabeledUtterance(simplex_sequence(4, 6, stream(11, "s")), 0)
        with pytest.raises(ad.ContractError):
            obj.finetune_loss(params, CONFIG, utt, obj.MaskPlan.full_context(4))

    def test_label_out_of_range(self):
        params = init_params(CONFIG, stream(12, "init"), classes=2)
        utt = LabeledUtterance(simplex_sequence(4, 6, stream(12, "s")), 5)
        with pytest.raises(ad.ContractError):
            obj.finetune_loss(params, CONFIG, utt, obj.MaskPlan.full_context(4))

    def test_shared_gradient_path_passes_fd_check(self):
        params = init_params(CONFIG, stream(13, "init"), classes=3, init_std=0.1)
        utt = LabeledUtterance(simplex_sequence(5, 6, stream(13, "s")), 2)
        plan = obj.MaskPlan.from_context_set((0, 1, 3), 5)

        def build(bound):
            from bertplm.encoder import attentive_pool, encode, predict_phonemes
            hidden = encode(bound, CONFIG, utt.sequence, plan)
            pooled = attentive_pool(hidden, bound["pool_query"], plan.context_idx)
            logits = ad.matmul(ad.reshape(pooled, (1, CONFIG.d_model)),
                               ad.transpose(bound["classifier"]))
            one_hot = np.zeros((1, 3))
            one_hot[0, utt.label] = 1.0
            cls = ad.scale(ad.sum_all(ad.mul(ad.constant(one_hot),
                                             ad.log_softmax(logits))), -1.0)
            logits_t = predict_phonemes(ad.gather_rows(hidden, plan.target_idx),
                                        bound["embed"])
            plm = obj.soft_cross_entropy(logits_t, utt.sequence.frames[list(plan.target_idx)])
            return ad.add(cls, plm)

        assert ad.finite_diff_check(build, params, eps=1e-5) <= 1e-4

    def test_breakdown_total_is_cls_plus_lambda_plm(self):
        params = init_params(CONFIG, stream(14, "init"), classes=3)
        utt = LabeledUtterance(simplex_sequence(6, 6, stream(14, "s")), 0)
        plan = obj.MaskPlan.from_context_set((0, 1, 2, 5), 6)
        breakdown = obj.finetune_loss(params, CONFIG, utt, plan, lam=0.7)
        assert abs(breakdown.total
                   - (breakdown.cls_loss + 0.7 * breakdown.plm_loss)) <= 1e-12


DROPOUT_CONFIG = EncoderConfig(vocab_size=6, layers=2, d_model=8, d_ff=12,
                               heads=2, max_seq_len=32, dropout=0.2)


@pytest.mark.parametrize("stage, context", [
    ("pretrain", (0, 1, 4)), ("finetune", (0, 2, 3)),
    ("finetune", (0, 1, 2, 3, 4))])
def test_gradient_entries_share_no_memory(stage, context):
    # the training loop adds later utterances into the first one's arrays
    # in place, which is safe only if every entry owns its memory
    params = init_params(DROPOUT_CONFIG, stream(15, "init"),
                         classes=3 if stage == "finetune" else None)
    utt = LabeledUtterance(simplex_sequence(5, 6, stream(15, "s")), 1)
    plan = obj.MaskPlan.from_context_set(context, 5)
    if stage == "pretrain":
        _, grads = obj.bert_plm_loss(params, DROPOUT_CONFIG, utt.sequence,
                                     plan, drop_rng=stream(15, "d"),
                                     want_grads=True)
    else:
        _, grads = obj.finetune_loss(params, DROPOUT_CONFIG, utt, plan,
                                     drop_rng=stream(15, "d"), want_grads=True)
    unused = set() if stage == "finetune" else {"pool_query"}  # never pooled
    assert set(grads) == set(params) - unused
    names = sorted(grads)
    for i, name in enumerate(names):
        assert grads[name].flags.writeable
        for other in names[i + 1:]:
            assert not np.shares_memory(grads[name], grads[other]), (name, other)
        for param in params.values():
            assert not np.shares_memory(grads[name], param), name

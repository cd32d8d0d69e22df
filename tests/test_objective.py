import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bertplm import autodiff as ad
from bertplm import objective as obj
from bertplm.corpus import LabeledUtterance, PhonemePosteriorSequence
from bertplm.encoder import EncoderConfig, Group, init_params
from bertplm.rng import stream

CONFIG = EncoderConfig(vocab_size=6, layers=1, d_model=8, d_ff=12, heads=2,
                       max_seq_len=32, dropout=0.0)


def simplex_sequence(t_len, vocab_size, rng, utt_id="seq"):
    rows = rng.dirichlet(np.ones(vocab_size), size=t_len)
    return PhonemePosteriorSequence(rows, utterance_id=utt_id)


def one(seq, plan):
    return Group([seq], [plan])


def sequence_with_sil(sil_rows, content_rows, vocab_size=6):
    frames = np.full((sil_rows + content_rows, vocab_size), 0.02)
    frames[:sil_rows, 0] = 0.9
    frames[sil_rows:, 1] = 0.9
    frames /= frames.sum(axis=1, keepdims=True)
    return PhonemePosteriorSequence(frames, utterance_id="sil-mix")


class TestMaskPlan:
    def test_repeated_index_rejected(self):
        # a repeated target would be scored twice and count twice in k
        for context, targets in [((0, 2), (1, 1)), ((0, 0, 2), (1,))]:
            with pytest.raises(ad.ContractError, match="repeats an index"):
                obj.MaskPlan(context, targets)
        assert obj.MaskPlan((0, 2), (1,)).k == 1


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
        breakdown = obj.bert_plm_loss(params, CONFIG, one(seq, plan))
        assert abs(breakdown.plm_loss - math.log(6)) <= 1e-12

    def test_single_target_equals_its_soft_ce(self):
        params = init_params(CONFIG, stream(6, "init"))
        seq = simplex_sequence(4, 6, stream(6, "s"))
        plan = obj.MaskPlan.from_context_set((0, 1, 3), 4)
        assert plan.k == 1
        breakdown = obj.bert_plm_loss(params, CONFIG, one(seq, plan))
        # recompute through the generic path
        from bertplm.encoder import bind_params, encode, predict_phonemes
        tape = ad.Tape()
        bound = bind_params(params, tape)
        hidden = encode(bound, CONFIG, one(seq, plan))
        logits = predict_phonemes(ad.gather_rows(hidden, [2]), bound["embed"])
        expected = obj.soft_cross_entropy(logits, seq.frames[[2]])
        assert breakdown.plm_loss == expected.item()

    def test_gradient_reaches_mask_vector(self):
        params = init_params(CONFIG, stream(7, "init"))
        seq = simplex_sequence(5, 6, stream(7, "s"))
        plan = obj.MaskPlan.from_context_set((0, 1, 4), 5)
        _, grads = obj.bert_plm_loss(params, CONFIG, one(seq, plan),
                                     want_grads=True)
        assert np.abs(grads["mask_vec"]).max() > 0
        assert set(grads) >= {"embed", "mask_vec", "layer0.wq"}

    def test_sum_weighting_scales_by_k(self):
        params = init_params(CONFIG, stream(8, "init"))
        seq = simplex_sequence(6, 6, stream(8, "s"))
        plan = obj.MaskPlan.from_context_set((0, 1, 2), 6)
        mean = obj.bert_plm_loss(params, CONFIG, one(seq, plan), weighting="mean")
        total = obj.bert_plm_loss(params, CONFIG, one(seq, plan), weighting="sum")
        assert abs(total.plm_loss - 3 * mean.plm_loss) <= 1e-12

    @pytest.mark.parametrize("weighting", ["mean", "sum"])
    def test_forward_only_loss_equals_taped_loss(self, weighting):
        # the held-out rows of pretrain come from the forward-only path
        params = init_params(CONFIG, stream(13, "init"))
        seq = simplex_sequence(7, 6, stream(13, "s"))
        plan = obj.MaskPlan.from_context_set((0, 2, 3, 6), 7)
        tapeless = obj.bert_plm_loss(params, CONFIG, one(seq, plan),
                                     weighting=weighting)
        taped, _ = obj.bert_plm_loss(params, CONFIG, one(seq, plan),
                                     weighting=weighting, want_grads=True)
        assert tapeless == taped


class TestFinetuneLoss:
    def test_lambda_zero_total_equals_cls(self):
        from bertplm.encoder import attentive_pool, bind_params, encode

        params = init_params(CONFIG, stream(9, "init"), classes=3)
        utt = LabeledUtterance(simplex_sequence(5, 6, stream(9, "s")), 1)
        plan = obj.MaskPlan.from_context_set((0, 2, 3), 5)
        group = one(utt.sequence, plan)
        breakdown = obj.finetune_loss(params, CONFIG, group, [utt.label],
                                      lam=0.0)
        # the classification loss, by hand: -log softmax(logits)[label]
        bound = bind_params(params)
        pooled = attentive_pool(encode(bound, CONFIG, group),
                                bound["pool_query"], group.context).data[0]
        logits = params["classifier"] @ pooled
        cls = math.log(np.exp(logits).sum()) - logits[utt.label]
        assert abs(breakdown.total - cls) <= 1e-12
        assert breakdown.plm_loss > 0

    def test_confident_correct_logit_drives_cls_to_zero(self):
        from bertplm.encoder import attentive_pool, bind_params, encode

        params = init_params(CONFIG, stream(10, "init"), classes=2)
        utt = LabeledUtterance(simplex_sequence(4, 6, stream(10, "s")), 1)
        plan = obj.MaskPlan.full_context(4)
        # point a huge correct-class row along the actual pooled vector
        tape = ad.Tape()
        bound = bind_params(params, tape)
        group = one(utt.sequence, plan)
        hidden = encode(bound, CONFIG, group)
        pooled = attentive_pool(hidden, bound["pool_query"],
                                group.context).data[0]
        params["classifier"] = np.zeros_like(params["classifier"])
        params["classifier"][1] = 1e4 * pooled / float(pooled @ pooled)
        breakdown = obj.finetune_loss(params, CONFIG, one(utt.sequence, plan),
                                      [utt.label], lam=0.0)
        assert breakdown.total <= 1e-6

    def test_missing_head_rejected(self):
        params = init_params(CONFIG, stream(11, "init"))
        utt = LabeledUtterance(simplex_sequence(4, 6, stream(11, "s")), 0)
        with pytest.raises(ad.ContractError):
            obj.finetune_loss(params, CONFIG,
                              one(utt.sequence, obj.MaskPlan.full_context(4)),
                              [utt.label])

    def test_label_out_of_range(self):
        params = init_params(CONFIG, stream(12, "init"), classes=2)
        utt = LabeledUtterance(simplex_sequence(4, 6, stream(12, "s")), 5)
        with pytest.raises(ad.ContractError):
            obj.finetune_loss(params, CONFIG,
                              one(utt.sequence, obj.MaskPlan.full_context(4)),
                              [utt.label])

    def test_shared_gradient_path_passes_fd_check(self):
        params = init_params(CONFIG, stream(13, "init"), classes=3, init_std=0.1)
        utt = LabeledUtterance(simplex_sequence(5, 6, stream(13, "s")), 2)
        plan = obj.MaskPlan.from_context_set((0, 1, 3), 5)

        def build(bound):
            from bertplm.encoder import attentive_pool, encode, predict_phonemes
            group = one(utt.sequence, plan)
            hidden = encode(bound, CONFIG, group)
            pooled = attentive_pool(hidden, bound["pool_query"], group.context)
            logits = ad.matmul(pooled, ad.transpose(bound["classifier"]))
            one_hot = np.zeros((1, 3))
            one_hot[0, utt.label] = 1.0
            cls = ad.scale(ad.sum_all(ad.mul(ad.constant(one_hot),
                                             ad.log_softmax(logits))), -1.0)
            logits_t = predict_phonemes(ad.gather_rows(hidden, plan.target_idx),
                                        bound["embed"])
            plm = obj.soft_cross_entropy(logits_t, utt.sequence.frames[list(plan.target_idx)])
            return ad.add(cls, ad.sum_all(plm))

        assert ad.finite_diff_check(build, params, eps=1e-5) <= 1e-4

    def test_breakdown_total_is_cls_plus_lambda_plm(self):
        params = init_params(CONFIG, stream(14, "init"), classes=3)
        utt = LabeledUtterance(simplex_sequence(6, 6, stream(14, "s")), 0)
        plan = obj.MaskPlan.from_context_set((0, 1, 2, 5), 6)
        breakdown = obj.finetune_loss(params, CONFIG, one(utt.sequence, plan),
                                      [utt.label], lam=0.7)
        cls = obj.finetune_loss(params, CONFIG, one(utt.sequence, plan),
                                [utt.label], lam=0.0).total
        assert abs(breakdown.total
                   - (cls + 0.7 * breakdown.plm_loss)) <= 1e-12


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
        _, grads = obj.bert_plm_loss(params, DROPOUT_CONFIG,
                                     one(utt.sequence, plan),
                                     drop_rngs=[stream(15, "d")],
                                     want_grads=True)
    else:
        _, grads = obj.finetune_loss(params, DROPOUT_CONFIG,
                                     one(utt.sequence, plan), [utt.label],
                                     drop_rngs=[stream(15, "d")],
                                     want_grads=True)
    unused = set() if stage == "finetune" else {"pool_query"}  # never pooled
    assert set(grads) == set(params) - unused
    names = sorted(grads)
    for i, name in enumerate(names):
        assert grads[name].flags.writeable
        for other in names[i + 1:]:
            assert not np.shares_memory(grads[name], grads[other]), (name, other)
        for param in params.values():
            assert not np.shares_memory(grads[name], param), name


class TestGroupEqualsItsMembers:
    """A group's summed loss and gradients equal the sums over its members
    scored alone, to rounding: the group pads and folds its utterances, so
    the summation order differs and the match is not bitwise."""

    @staticmethod
    def members():
        rng = stream(16, "members")
        seqs = [simplex_sequence(t_len, 6, rng, f"m{t_len}")
                for t_len in (7, 3, 9, 5)]
        contexts = [(0, 2, 3, 6), (0, 1, 2), (1, 2, 4, 5, 8), (0, 3)]
        plans = [obj.MaskPlan.from_context_set(c, s.length)
                 for c, s in zip(contexts, seqs)]
        return seqs, plans

    @staticmethod
    def close(got, want):
        assert got.keys() == want.keys()
        for name in want:
            bound = 1e-12 * np.maximum(1.0, np.abs(want[name]))
            assert np.all(np.abs(got[name] - want[name]) <= bound), name

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_gradients_and_losses_match_groups_of_one(self, stage):
        seqs, plans = self.members()
        labels = [0, 2, 1, 2]
        assert plans[1].k == 0  # fine-tuning's fallback plan
        # pre-training needs a target in every plan
        members = [0, 2, 3] if stage == "pretrain" else [0, 1, 2, 3]
        params = init_params(DROPOUT_CONFIG, stream(16, "init"),
                             classes=3 if stage == "finetune" else None)

        def run(members, lam=0.7, want_grads=True):
            group = Group([seqs[i] for i in members], [plans[i] for i in members])
            rngs = [stream(16, "drop", i) for i in members]
            if stage == "pretrain":
                return obj.bert_plm_loss(params, DROPOUT_CONFIG, group,
                                         drop_rngs=rngs, want_grads=want_grads)
            return obj.finetune_loss(params, DROPOUT_CONFIG, group,
                                     [labels[i] for i in members], lam=lam,
                                     drop_rngs=rngs, want_grads=want_grads)

        def close_sum(got, want):
            assert abs(got - sum(want)) <= 1e-12 * max(1.0, abs(sum(want)))

        together, grads = run(members)
        alone = [run([i]) for i in members]
        summed = {name: sum(g[name] for _, g in alone) for name in grads}
        self.close(grads, summed)
        for field in ("plm_loss", "total"):
            close_sum(getattr(together, field),
                      [getattr(b, field) for b, _ in alone])
        if stage == "finetune":   # the classification loss alone
            close_sum(run(members, 0.0, False).total,
                      [run([i], 0.0, False).total for i in members])

    def test_group_loss_passes_fd_check(self):
        seqs, plans = self.members()
        config = EncoderConfig(vocab_size=6, layers=1, d_model=8, d_ff=12,
                               heads=2, max_seq_len=32, dropout=0.0)
        params = init_params(config, stream(17, "init"), classes=3,
                             init_std=0.1)
        group = Group(seqs, plans)

        def build(bound):
            return ad.sum_all(obj._finetune_losses(
                bound, config, group, [0, 2, 1, 2], 0.7, "sum", None)[2])

        assert ad.finite_diff_check(build, params, eps=1e-5) <= 1e-4


class TestSamplePlanReference:
    @staticmethod
    def per_frame(seq, sil_index, rho_max, tau, rng):
        """The sampler as first written: one SIL comparison per frame."""
        eligible = [t for t in range(seq.length)
                    if not seq.frames[t, sil_index] > tau]
        if not eligible:
            raise obj.SamplingError("every frame is major-SIL")
        budget_max = max(1, math.floor(rho_max * len(eligible)))
        k = int(rng.integers(1, budget_max + 1))
        targets = rng.choice(len(eligible), size=k, replace=False)
        target_idx = tuple(eligible[i] for i in targets)
        context_idx = tuple(t for t in range(seq.length)
                            if t not in set(target_idx))
        return obj.MaskPlan(context_idx, target_idx)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.floats(0.05, 1.0), st.floats(0.05, 0.95),
           st.integers(0, 2**31))
    def test_plans_equal_the_per_frame_reference(self, t_len, rho_max, tau,
                                                 seed):
        rng = stream(seed, "ref-frames")
        frames = rng.dirichlet(np.full(4, 0.3), size=t_len)
        seq = PhonemePosteriorSequence(frames, utterance_id="ref")
        try:
            want = self.per_frame(seq, 0, rho_max, tau, stream(seed, "ref"))
        except obj.SamplingError:
            with pytest.raises(obj.SamplingError):
                obj.sample_mask_plan(seq, 0, rho_max, tau, stream(seed, "ref"))
            return
        got = obj.sample_mask_plan(seq, 0, rho_max, tau, stream(seed, "ref"))
        assert got == want
        context = set(want.context_idx)
        assert obj.MaskPlan.from_context_set(context, t_len) == want

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertplm import oracle
from bertplm.encoder import EncoderConfig, init_params
from bertplm.rng import stream

LOG4 = math.log(4.0)


def recursive_perm_expectation(p, seq, c):
    """Independent enumerator: memoized recursion over context prefixes.

    rec(S) is the expected remaining contribution when the first |S|
    positions of a uniformly random order form the set S.
    """
    t_len = seq.length
    memo = {}

    def rec(context: frozenset) -> float:
        if len(context) == t_len:
            return 0.0
        cached = memo.get(context)
        if cached is not None:
            return cached
        step = len(context) + 1
        remaining = [j for j in range(t_len) if j not in context]
        acc = 0.0
        for j in remaining:
            term = p(seq, context, j) if step > c else 0.0
            acc += term + rec(context | {j})
        value = acc / len(remaining)
        memo[context] = value
        return value

    return rec(frozenset())


class TestClosedForms:
    def test_uniform_predictor_lhs(self):
        # context-ignoring uniform predictor: each of the T-c terms is -log V
        p = oracle.uniform_predictor(4)
        seq = oracle.random_sequence(3, 4, stream(0, "u"))
        lhs = oracle.perm_plm_expectation(p, seq, c=1)
        assert abs(lhs - (-2 * LOG4)) <= 1e-12

    def test_uniform_predictor_exact_matches_and_paper_gap(self):
        p = oracle.uniform_predictor(4)
        seq = oracle.random_sequence(3, 4, stream(1, "u"))
        exact, paper = oracle.subset_regression_expectation(p, seq, c=1)
        assert abs(exact - (-2 * LOG4)) <= 1e-12
        assert abs(paper - (-1.5 * LOG4)) <= 1e-12
        # the sum-form deviates by exactly 0.5 log V here
        assert abs(abs(exact - paper) - 0.5 * LOG4) <= 1e-12

    def test_last_element_average_by_hand_enumeration(self):
        # c = T-1 at T=3: only the last draw contributes; every permutation
        # conditions it on the other two positions
        p = oracle.random_set_predictor(7)
        seq = oracle.random_sequence(3, 4, stream(2, "u"))
        by_hand = []
        for order in permutations(range(3)):
            by_hand.append(p(seq, frozenset(order[:2]), order[2]))
        expected = sum(by_hand) / 6.0
        lhs = oracle.perm_plm_expectation(p, seq, c=2)
        assert abs(lhs - expected) <= 1e-12
        # equivalently: (1/T) sum_j p(j | all-but-j)
        direct = sum(p(seq, frozenset({0, 1, 2}) - {j}, j) for j in range(3)) / 3.0
        assert abs(lhs - direct) <= 1e-12

    def test_single_target_degenerate_case_modes_coincide(self):
        p = oracle.random_set_predictor(8)
        seq = oracle.random_sequence(4, 4, stream(3, "u"))
        exact, paper = oracle.subset_regression_expectation(p, seq, c=3)
        assert abs(exact - paper) <= 1e-12


class TestEnumeration:
    def test_matches_independent_recursion(self):
        p = oracle.random_set_predictor(11)
        seq = oracle.random_sequence(4, 4, stream(11, "rec"), "rec-seq")
        lhs = oracle.perm_plm_expectation(p, seq, c=2)
        other = recursive_perm_expectation(p, seq, c=2)
        assert abs(lhs - other) <= 1e-12

    def test_exact_mode_equals_permutation_expectation(self):
        p = oracle.random_set_predictor(12)
        seq = oracle.random_sequence(5, 4, stream(12, "eq"), "eq-seq")
        lhs = oracle.perm_plm_expectation(p, seq, c=2)
        rhs = oracle.subset_regression_expectation(p, seq, c=2)[0]
        assert abs(lhs - rhs) <= 1e-10

    def test_factorial_guard(self):
        p = oracle.uniform_predictor(4)
        seq = oracle.random_sequence(9, 4, stream(4, "u"))
        with pytest.raises(ValueError):
            oracle.perm_plm_expectation(p, seq, c=1)

    def test_cutting_point_bounds(self):
        p = oracle.uniform_predictor(4)
        seq = oracle.random_sequence(3, 4, stream(5, "u"))
        for bad_c in (0, 3):
            with pytest.raises(ValueError):
                oracle.perm_plm_expectation(p, seq, c=bad_c)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_identity_property(self, t_len, data):
        c = data.draw(st.integers(1, t_len - 1))
        seed = data.draw(st.integers(0, 2**31))
        p = oracle.random_set_predictor(seed)
        seq = oracle.random_sequence(t_len, 4, stream(seed, "prop"),
                                     f"prop-{seed}")
        lhs = oracle.perm_plm_expectation(p, seq, c)
        rhs = oracle.subset_regression_expectation(p, seq, c)[0]
        assert abs(lhs - rhs) <= 1e-10


class TestVerifyTheorem:
    def test_reports_and_deviations(self):
        p = oracle.random_set_predictor(20)
        reports = oracle.verify_theorem(p, t_len=4, c=2, trials=5,
                                        rng=stream(20, "vt"))
        assert len(reports) == 5
        for report in reports:
            assert report.dev_exact <= 1e-9

    def test_paper_mode_coincides_at_last_cut(self):
        p = oracle.random_set_predictor(21)
        for report in oracle.verify_theorem(p, t_len=4, c=3, trials=3,
                                            rng=stream(21, "vt")):
            assert report.dev_paper <= 1e-9

    def test_paper_gap_is_half_logv_for_uniform(self):
        p = oracle.uniform_predictor(4)
        report = oracle.verify_theorem(p, t_len=3, c=1, trials=1,
                                       rng=stream(22, "vt"))[0]
        assert abs(report.dev_paper - 0.5 * LOG4) <= 1e-12
        assert report.dev_exact <= 1e-12


class TestFrozenPredictor:
    CONFIG = EncoderConfig(vocab_size=5, layers=2, d_model=8, d_ff=12,
                           heads=2, max_seq_len=16, dropout=0.0)

    def test_iteration_order_of_context_is_irrelevant(self):
        params = init_params(self.CONFIG, stream(30, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(4, 5, stream(30, "s"), "ord")
        forward = p(seq, frozenset([0, 2]), 3)
        # fresh predictor, context built in a different order
        p2 = oracle.make_frozen_predictor(params, self.CONFIG)
        backward = p2(seq, frozenset([2, 0]), 3)
        assert forward == backward

    def test_all_but_one_matches_direct_forward(self):
        from bertplm import autodiff as ad
        from bertplm.encoder import bind_params, encode, predict_phonemes
        from bertplm.objective import MaskPlan

        params = init_params(self.CONFIG, stream(31, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(2, 5, stream(31, "s"), "direct")
        value = p(seq, frozenset([0]), 1)

        tape = ad.Tape()
        bound = bind_params(params, tape)
        hidden = encode(bound, self.CONFIG, seq, MaskPlan((0,), (1,)))
        logits = predict_phonemes(ad.gather_rows(hidden, [1]), bound["embed"])
        expected = ad.log_softmax(logits).data[0, int(seq.frames[1].argmax())]
        assert value == float(expected)

    def test_every_score_equals_a_taped_forward(self):
        from itertools import combinations

        from bertplm import autodiff as ad
        from bertplm.encoder import bind_params, encode, predict_phonemes
        from bertplm.objective import MaskPlan

        params = init_params(self.CONFIG, stream(33, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(4, 5, stream(33, "s"), "taped")
        for size in range(1, 4):
            for context in combinations(range(4), size):
                plan = MaskPlan.from_context_set(context, 4)
                bound = bind_params(params, ad.Tape())
                hidden = encode(bound, self.CONFIG, seq, plan)
                logits = predict_phonemes(
                    ad.gather_rows(hidden, plan.target_idx), bound["embed"])
                log_probs = ad.log_softmax(logits).data
                for row, j in enumerate(plan.target_idx):
                    expected = log_probs[row, int(seq.frames[j].argmax())]
                    assert p(seq, frozenset(context), j) == float(expected)

    def test_theorem_holds_for_the_real_network(self):
        params = init_params(self.CONFIG, stream(32, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        for report in oracle.verify_theorem(p, t_len=4, c=2, trials=3,
                                            rng=stream(32, "vt"), vocab_size=5):
            assert report.dev_exact <= 1e-9

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertplm import oracle
from bertplm.encoder import EncoderConfig, init_params
from bertplm.rng import stream, stream_key
from predictors import uniform_predictor

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


def expectations(p, seq, c):
    """(lhs, (exact, paper)), both sides read from one score table."""
    table = oracle.score_table(p, seq, c)
    return (oracle.perm_plm_expectation(table, c),
            oracle.subset_regression_expectation(table, c))


def counting_predictor(inner):
    """(predictor, asked): ``asked`` lists every (context, target) the
    predictor is asked, in order."""
    asked = []

    def predictor(seq, context, target):
        asked.append((context, target))
        return inner(seq, context, target)

    return predictor, asked


class TestClosedForms:
    def test_uniform_predictor_lhs(self):
        # context-ignoring uniform predictor: each of the T-c terms is -log V
        p = uniform_predictor(4)
        seq = oracle.random_sequence(3, 4, stream(0, "u"))
        lhs, _ = expectations(p, seq, c=1)
        assert abs(lhs - (-2 * LOG4)) <= 1e-12

    def test_uniform_predictor_exact_matches_and_paper_gap(self):
        p = uniform_predictor(4)
        seq = oracle.random_sequence(3, 4, stream(1, "u"))
        _, (exact, paper) = expectations(p, seq, c=1)
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
        lhs, _ = expectations(p, seq, c=2)
        assert abs(lhs - expected) <= 1e-12
        # equivalently: (1/T) sum_j p(j | all-but-j)
        direct = sum(p(seq, frozenset({0, 1, 2}) - {j}, j) for j in range(3)) / 3.0
        assert abs(lhs - direct) <= 1e-12

    def test_single_target_degenerate_case_modes_coincide(self):
        p = oracle.random_set_predictor(8)
        seq = oracle.random_sequence(4, 4, stream(3, "u"))
        _, (exact, paper) = expectations(p, seq, c=3)
        assert abs(exact - paper) <= 1e-12


class TestEnumeration:
    def test_matches_independent_recursion(self):
        p = oracle.random_set_predictor(11)
        seq = oracle.random_sequence(4, 4, stream(11, "rec"), "rec-seq")
        lhs, _ = expectations(p, seq, c=2)
        other = recursive_perm_expectation(p, seq, c=2)
        assert abs(lhs - other) <= 1e-12

    def test_exact_mode_equals_permutation_expectation(self):
        p = oracle.random_set_predictor(12)
        seq = oracle.random_sequence(5, 4, stream(12, "eq"), "eq-seq")
        lhs, (rhs, _) = expectations(p, seq, c=2)
        assert abs(lhs - rhs) <= 1e-10

    def test_factorial_guard(self):
        # refused before any subset is enumerated or any conditional asked
        p, asked = counting_predictor(uniform_predictor(4))
        seq = oracle.random_sequence(oracle.PERM_LIMIT + 1, 4, stream(4, "u"))
        with pytest.raises(ValueError, match="T! enumeration"):
            oracle.score_table(p, seq, c=1)
        assert asked == []

    def test_cutting_point_bounds(self):
        p, asked = counting_predictor(uniform_predictor(4))
        seq = oracle.random_sequence(3, 4, stream(5, "u"))
        for bad_c in (0, 3):
            with pytest.raises(ValueError, match="cutting point"):
                oracle.score_table(p, seq, c=bad_c)
        assert asked == []

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_identity_property(self, t_len, data):
        c = data.draw(st.integers(1, t_len - 1))
        seed = data.draw(st.integers(0, 2**31))
        p = oracle.random_set_predictor(seed)
        seq = oracle.random_sequence(t_len, 4, stream(seed, "prop"),
                                     f"prop-{seed}")
        lhs, (rhs, _) = expectations(p, seq, c)
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
        p = uniform_predictor(4)
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
        from bertplm.encoder import Group, bind_params, encode, predict_phonemes
        from bertplm.objective import MaskPlan

        params = init_params(self.CONFIG, stream(31, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(2, 5, stream(31, "s"), "direct")
        value = p(seq, frozenset([0]), 1)

        tape = ad.Tape()
        bound = bind_params(params, tape)
        hidden = encode(bound, self.CONFIG, Group([seq], [MaskPlan((0,), (1,))]))
        logits = predict_phonemes(ad.gather_rows(hidden, [1]), bound["embed"])
        expected = ad.log_softmax(logits).data[0, int(seq.frames[1].argmax())]
        assert value == float(expected)

    def test_every_score_equals_a_taped_forward(self):
        from itertools import combinations

        from bertplm import autodiff as ad
        from bertplm.encoder import Group, bind_params, encode, predict_phonemes
        from bertplm.objective import MaskPlan

        params = init_params(self.CONFIG, stream(33, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(4, 5, stream(33, "s"), "taped")
        for size in range(1, 4):
            for context in combinations(range(4), size):
                plan = MaskPlan.from_context_set(context, 4)
                bound = bind_params(params, ad.Tape())
                hidden = encode(bound, self.CONFIG, Group([seq], [plan]))
                logits = predict_phonemes(
                    ad.gather_rows(hidden, plan.target_idx), bound["embed"])
                log_probs = ad.log_softmax(logits).data
                for row, j in enumerate(plan.target_idx):
                    expected = log_probs[row, int(seq.frames[j].argmax())]
                    assert p(seq, frozenset(context), j) == float(expected)

    def test_sequences_sharing_an_id_do_not_share_scores(self):
        params = init_params(self.CONFIG, stream(34, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        rng = stream(34, "s")
        first = oracle.random_sequence(3, 5, rng)
        second = oracle.random_sequence(3, 5, rng)
        assert first.utterance_id == second.utterance_id
        context = frozenset({0})
        p(first, context, 1)
        fresh = oracle.make_frozen_predictor(params, self.CONFIG)
        assert p(second, context, 1) == fresh(second, context, 1)
        assert p(second, context, 1) != p(first, context, 1)

    def test_theorem_holds_for_the_real_network(self):
        params = init_params(self.CONFIG, stream(32, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        for report in oracle.verify_theorem(p, t_len=4, c=2, trials=3,
                                            rng=stream(32, "vt"), vocab_size=5):
            assert report.dev_exact <= 1e-9


def taped_scores(params, config, seq, context):
    """{j: score} from a taped group-of-one forward for one context set."""
    from bertplm import autodiff as ad
    from bertplm.encoder import Group, bind_params, encode, predict_phonemes
    from bertplm.objective import MaskPlan

    plan = MaskPlan.from_context_set(context, seq.length)
    bound = bind_params(params, ad.Tape())
    hidden = encode(bound, config, Group([seq], [plan]))
    logits = predict_phonemes(ad.gather_rows(hidden, plan.target_idx),
                              bound["embed"])
    log_probs = ad.log_softmax(logits).data
    return {j: float(log_probs[row, int(seq.frames[j].argmax())])
            for row, j in enumerate(plan.target_idx)}


class TestBatchedFrozenPredictor:
    CONFIG = TestFrozenPredictor.CONFIG

    def test_every_context_set_at_t6_equals_a_taped_forward(self):
        from itertools import combinations

        params = init_params(self.CONFIG, stream(40, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(6, 5, stream(40, "s"), "t6")
        checked = 0
        for size in range(1, 6):
            for context in combinations(range(6), size):
                context = frozenset(context)
                for j, expected in taped_scores(params, self.CONFIG, seq,
                                                context).items():
                    assert p(seq, context, j) == expected
                checked += 1
        assert checked == 2**6 - 2

    def test_spot_checks_at_perm_limit(self):
        t_len = oracle.PERM_LIMIT
        params = init_params(self.CONFIG, stream(41, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(t_len, 5, stream(41, "s"), "t8")
        everything = frozenset(range(t_len))
        for context in (frozenset({0}), frozenset({7}), frozenset({2, 5}),
                        frozenset({1, 3, 4, 6}), everything - {0},
                        everything - {3}, everything - {7}):
            for j, expected in taped_scores(params, self.CONFIG, seq,
                                            context).items():
                assert p(seq, context, j) == expected

    def test_single_target_plans_equal_a_taped_forward(self):
        # a group of one with one target multiplies a single row, which BLAS
        # rounds as a vector-matrix product, not as a row of a GEMM
        params = init_params(self.CONFIG, stream(44, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        for trial in range(10):
            seq = oracle.random_sequence(6, 5, stream(44, "s", trial), "one")
            for j in range(6):
                context = frozenset(range(6)) - {j}
                expected = taped_scores(params, self.CONFIG, seq, context)
                assert p(seq, context, j) == expected[j], (trial, j)

    def test_one_encoder_pass_per_sequence(self, monkeypatch):
        from itertools import combinations

        calls = []
        real_encode = oracle.encode

        def counting_encode(*args, **kwargs):
            calls.append(args[2].size)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(oracle, "encode", counting_encode)
        params = init_params(self.CONFIG, stream(42, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        rng = stream(42, "s")
        first = oracle.random_sequence(4, 5, rng, "shared")
        second = oracle.random_sequence(4, 5, rng, "shared")

        def ask_everything(seq):
            for size in range(1, 4):
                for context in combinations(range(4), size):
                    context = frozenset(context)
                    for j in set(range(4)) - context:
                        p(seq, context, j)

        ask_everything(first)
        assert calls == [2**4 - 1]
        ask_everything(first)
        assert calls == [2**4 - 1]
        ask_everything(second)
        assert calls == [2**4 - 1, 2**4 - 1]

    def test_only_the_last_sequence_is_kept(self, monkeypatch):
        calls = []
        real_encode = oracle.encode

        def counting_encode(*args, **kwargs):
            calls.append(args[2].size)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(oracle, "encode", counting_encode)
        params = init_params(self.CONFIG, stream(45, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        rng = stream(45, "s")
        first = oracle.random_sequence(3, 5, rng, "first")
        second = oracle.random_sequence(3, 5, rng, "second")
        context = frozenset({0})
        value = p(first, context, 1)
        p(second, context, 1)
        assert p(first, context, 1) == value
        assert calls == [2**3 - 1] * 3

    def test_empty_context_equals_a_taped_forward(self):
        params = init_params(self.CONFIG, stream(43, "init"))
        p = oracle.make_frozen_predictor(params, self.CONFIG)
        seq = oracle.random_sequence(3, 5, stream(43, "s"), "empty")
        expected = taped_scores(params, self.CONFIG, seq, frozenset())
        for j in range(3):
            assert p(seq, frozenset(), j) == expected[j]


class TestSharedMemo:
    def test_each_conditional_is_asked_once_per_trial(self):
        inner = oracle.random_set_predictor(50)
        asked = []

        def counting(seq, context, target):
            asked.append((seq.utterance_id, context, target))
            return inner(seq, context, target)

        t_len, c = 5, 2
        reports = oracle.verify_theorem(counting, t_len, c, trials=1,
                                        rng=stream(50, "vt"))
        assert reports[0].dev_exact <= 1e-12
        assert len(asked) == len(set(asked))
        # every (S, j) with c <= |S| <= T-1 and j outside S
        distinct = sum(math.comb(t_len, size) * (t_len - size)
                       for size in range(c, t_len))
        assert len(asked) == distinct


def walk_perm_expectation(p, seq, c):
    """The walk the table form replaced: every order's terms, one by one,
    summed with ``math.fsum``."""
    memo, terms = {}, []
    for order in permutations(range(seq.length)):
        for t in range(c + 1, seq.length + 1):
            key = (frozenset(order[:t - 1]), order[t - 1])
            if key not in memo:
                memo[key] = p(seq, *key)
            terms.append(memo[key])
    return math.fsum(terms) / math.factorial(seq.length)


def walk_subset_expectation(p, seq, c):
    """The subset enumeration the table form replaced, over frozensets."""
    t_len = seq.length
    exact_k, paper_k = [], []
    for k in range(1, t_len - c + 1):
        totals = []
        for context in combinations(range(t_len), t_len - k):
            context = frozenset(context)
            totals.append(math.fsum(p(seq, context, j) for j in range(t_len)
                                    if j not in context))
        exact_k.append(math.fsum(total / k for total in totals) / len(totals))
        paper_k.append(math.fsum(totals) / len(totals))
    return math.fsum(exact_k), math.fsum(paper_k) / (t_len - c)


def assert_equals_the_walk(p, seq):
    for c in range(1, seq.length):
        table = oracle.score_table(p, seq, c)
        lhs = walk_perm_expectation(p, seq, c)
        rhs = walk_subset_expectation(p, seq, c)
        assert oracle.perm_plm_expectation(table, c).hex() == lhs.hex(), c
        for ours, theirs in zip(oracle.subset_regression_expectation(table, c),
                                rhs):
            assert ours.hex() == theirs.hex(), c


class TestTableForm:
    @pytest.mark.parametrize("t_len", range(2, 9))
    def test_random_predictor_expectations_equal_the_walk(self, t_len):
        p = oracle.random_set_predictor(60 + t_len)
        seq = oracle.random_sequence(t_len, 4, stream(60, "walk", t_len),
                                     f"walk-{t_len}")
        assert_equals_the_walk(p, seq)

    @pytest.mark.parametrize("t_len", range(2, 7))
    def test_frozen_predictor_expectations_equal_the_walk(self, t_len):
        config = TestFrozenPredictor.CONFIG
        p = oracle.make_frozen_predictor(init_params(config, stream(61, "init")),
                                         config)
        seq = oracle.random_sequence(t_len, config.vocab_size,
                                     stream(61, "walk", t_len), "walk")
        assert_equals_the_walk(p, seq)

    @pytest.mark.parametrize("t_len", range(2, 7))
    def test_order_counts_equal_a_count_over_permutations(self, t_len):
        expected = np.zeros((t_len, 2**t_len, t_len), dtype=np.int64)
        for order in permutations(range(t_len)):
            for t in range(1, t_len + 1):
                mask = sum(1 << j for j in order[:t - 1])
                expected[t - 1, mask, order[t - 1]] += 1
        assert np.array_equal(oracle._order_counts(t_len), expected)

    @pytest.mark.parametrize("c", [0, 1, 2, 3])
    def test_read_below_the_tables_cutting_point_raises(self, c):
        seq = oracle.random_sequence(4, 4, stream(65, "s"), "cut")
        table = oracle.score_table(oracle.random_set_predictor(1), seq, 2)
        if c < 2:
            with pytest.raises(ValueError, match="below its cutting point"):
                oracle.perm_plm_expectation(table, c)
            with pytest.raises(ValueError, match="below its cutting point"):
                oracle.subset_regression_expectation(table, c)
        else:
            lhs = oracle.perm_plm_expectation(table, c)
            exact, _ = oracle.subset_regression_expectation(table, c)
            assert abs(lhs - exact) <= 1e-10

    def test_table_holds_exactly_the_conditionals_asked(self):
        inner = oracle.random_set_predictor(62)
        asked = {}

        def recording(seq, context, target):
            asked[context, target] = inner(seq, context, target)
            return asked[context, target]

        t_len, c = 5, 2
        seq = oracle.random_sequence(t_len, 4, stream(62, "s"), "table")
        table = oracle.score_table(recording, seq, c)
        for mask in range(2**t_len):
            context = frozenset(j for j in range(t_len) if mask >> j & 1)
            for j in range(t_len):
                if (context, j) in asked:
                    assert table[mask, j] == asked[context, j]
                else:
                    assert np.isnan(table[mask, j])
                    assert j in context or len(context) < c

    def test_exact_dot_is_exactly_rounded(self):
        rng = stream(63, "dot")
        values = rng.uniform(-5.0, -0.05, size=200)
        counts = rng.integers(1, 2**25, size=200).astype(np.float64)
        exact = sum(Fraction(int(n)) * Fraction(v)
                    for n, v in zip(counts, values))
        assert oracle._exact_dot(counts, values) == float(exact)

    def test_theorem_holds_at_perm_limit(self):
        t_len = oracle.PERM_LIMIT
        p = oracle.random_set_predictor(64)
        for c in (1, t_len - 1):
            report = oracle.verify_theorem(p, t_len, c, trials=1,
                                           rng=stream(64, "vt", c))[0]
            assert report.dev_exact <= 1e-9


class TestReusedPhilox:
    LOW, HIGH = -5.0, -0.05

    def fresh(self, seed, seq, context, target):
        key = stream_key(seed, seq.utterance_id, tuple(sorted(context)),
                         target)
        unit = np.random.Generator(np.random.Philox(key=key)).random()
        return self.LOW + (self.HIGH - self.LOW) * unit

    def test_every_conditional_equals_a_fresh_generator(self):
        p = oracle.random_set_predictor(70)
        seq = oracle.random_sequence(6, 4, stream(70, "s"), "philox")
        checked = 0
        for size in range(6):
            for context in combinations(range(6), size):
                context = frozenset(context)
                for j in set(range(6)) - context:
                    assert p(seq, context, j) == self.fresh(70, seq, context, j)
                    checked += 1
        assert checked == 6 * 2**5

    def test_interleaved_predictors_keep_their_own_values(self):
        first, second = (oracle.random_set_predictor(71),
                         oracle.random_set_predictor(72))
        seq = oracle.random_sequence(4, 4, stream(71, "s"), "interleaved")
        for size in range(4):
            for context in combinations(range(4), size):
                context = frozenset(context)
                for j in set(range(4)) - context:
                    a, b = first(seq, context, j), second(seq, context, j)
                    assert a == self.fresh(71, seq, context, j)
                    assert b == self.fresh(72, seq, context, j)
                    assert first(seq, context, j) == a

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertplm import autodiff as ad
from bertplm import encoder as enc
from bertplm.corpus import PhonemePosteriorSequence
from bertplm.objective import MaskPlan, _plm_term
from bertplm.rng import stream

TINY = enc.EncoderConfig(vocab_size=6, layers=2, d_model=16, d_ff=24,
                         heads=2, max_seq_len=64, dropout=0.0)


def random_sequence(t_len, vocab_size, rng, utt_id="seq"):
    rows = rng.dirichlet(np.ones(vocab_size), size=t_len)
    return PhonemePosteriorSequence(rows, utterance_id=utt_id)


def bound_params(config, seed, classes=None):
    params = enc.init_params(config, stream(seed, "init"), classes=classes)
    tape = ad.Tape()
    return params, enc.bind_params(params, tape), tape


# ---------------------------------------------------------------------------
# naive reference implementation (independent loops, scalar math)
# ---------------------------------------------------------------------------


def ref_sinusoids(t_len, width, max_seq_len):
    table = np.zeros((2 * t_len - 1, width))
    for row, offset in enumerate(range(-(t_len - 1), t_len)):
        for i in range(width // 2):
            angle = offset * (2.0 * max_seq_len) ** (-2 * i / width)
            table[row, 2 * i] = math.sin(angle)
            table[row, 2 * i + 1] = math.cos(angle)
    return table


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    out = np.zeros_like(x)
    for t in range(x.shape[0]):
        mu = sum(x[t]) / len(x[t])
        var = sum((v - mu) ** 2 for v in x[t]) / len(x[t])
        out[t] = gamma * (x[t] - mu) / math.sqrt(var + eps) + beta
    return out


def ref_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    vec = np.vectorize(lambda v: 0.5 * v * (1 + math.tanh(c * (v + 0.044715 * v ** 3))))
    return vec(x)


def ref_block(x, allowed, lp, config):
    t_len, d = x.shape
    dh = config.head_dim
    sinus = ref_sinusoids(t_len, d, config.max_seq_len)
    attn_out = np.zeros((t_len, d))
    for h in range(config.heads):
        q = x @ lp["wq"][h]
        k = x @ lp["wk"][h]
        v = x @ lp["wv"][h]
        r = sinus @ lp["wr"][h]
        u_bias = lp["u_bias"][h, 0]
        v_bias = lp["v_bias"][h, 0]
        out_h = np.zeros((t_len, dh))
        for i in range(t_len):
            exps, idx = [], []
            for j in range(t_len):
                if not allowed[i, j]:
                    continue
                score = (np.dot(q[i] + u_bias, k[j])
                         + np.dot(q[i] + v_bias, r[i - j + t_len - 1]))
                exps.append(score / math.sqrt(dh))
                idx.append(j)
            top = max(exps)
            weights = [math.exp(e - top) for e in exps]
            z = sum(weights)
            for w_ij, j in zip(weights, idx):
                out_h[i] += (w_ij / z) * v[j]
        attn_out += out_h @ lp["wo"][h * dh:(h + 1) * dh]
    y = ref_layer_norm(x + attn_out, lp["ln1.gamma"], lp["ln1.beta"])
    ffn = ref_gelu(y @ lp["ffn.w1"] + lp["ffn.b1"]) @ lp["ffn.w2"] + lp["ffn.b2"]
    return ref_layer_norm(y + ffn, lp["ln2.gamma"], lp["ln2.beta"])


# ---------------------------------------------------------------------------


class TestEmbedPosteriors:
    def test_one_hot_selects_embedding_row(self):
        rng = stream(1, "emb")
        embedding = ad.constant(rng.normal(size=(5, 8)))
        frames = np.zeros((1, 5))
        frames[0, 3] = 1.0
        out = enc.embed_posteriors(embedding, PhonemePosteriorSequence(frames))
        np.testing.assert_array_equal(out.data[0], embedding.data[3])

    def test_uniform_row_gives_mean(self):
        rng = stream(2, "emb")
        embedding = ad.constant(rng.normal(size=(5, 8)))
        frames = np.full((1, 5), 0.2)
        out = enc.embed_posteriors(embedding, PhonemePosteriorSequence(frames))
        np.testing.assert_allclose(out.data[0], embedding.data.mean(axis=0))

    def test_half_volume_frame_is_midpoint(self):
        # 0.5 SIL / 0.5 "S" pools to the midpoint of the two embedding rows
        rng = stream(3, "emb")
        embedding = ad.constant(rng.normal(size=(5, 8)))
        frames = np.zeros((1, 5))
        frames[0, 0] = 0.5
        frames[0, 4] = 0.5
        out = enc.embed_posteriors(embedding, PhonemePosteriorSequence(frames))
        np.testing.assert_allclose(
            out.data[0], 0.5 * (embedding.data[0] + embedding.data[4]))

    def test_vocab_mismatch(self):
        with pytest.raises(ad.ShapeError):
            enc.embed_posteriors(ad.constant(np.zeros((4, 8))),
                                 PhonemePosteriorSequence(np.full((2, 6), 1 / 6)))


class TestApplyMaskPlan:
    def test_empty_target_set_is_identity(self):
        x = ad.constant(stream(4, "m").normal(size=(4, 8)))
        w = ad.constant(np.full(8, 9.0))
        out = enc.apply_mask_plan(x, MaskPlan.full_context(4), w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_target_fills_every_row(self):
        x = ad.constant(stream(5, "m").normal(size=(3, 8)))
        w = ad.constant(np.arange(8.0))
        out = enc.apply_mask_plan(x, MaskPlan((), (0, 1, 2)), w)
        np.testing.assert_array_equal(out.data, np.tile(np.arange(8.0), (3, 1)))

    def test_context_rows_unchanged_bitwise(self):
        x = ad.constant(stream(6, "m").normal(size=(4, 8)))
        w = ad.constant(np.zeros(8))
        out = enc.apply_mask_plan(x, MaskPlan((0, 2), (1, 3)), w)
        assert out.data[0].tobytes() == x.data[0].tobytes()
        assert out.data[2].tobytes() == x.data[2].tobytes()

    def test_bad_plan_rejected(self):
        x = ad.constant(np.zeros((4, 8)))
        with pytest.raises(ad.ContractError):
            enc.apply_mask_plan(x, MaskPlan((0, 1), (3,)), ad.constant(np.zeros(8)))


class TestAttentionBlock:
    def test_constant_input_scores_are_toeplitz(self):
        params, bound, _ = bound_params(TINY, 7)
        x = ad.constant(np.tile(stream(7, "tok").normal(size=16), (5, 1)))
        mask = enc.AttentionMask(np.ones((5, 5), dtype=bool))
        capture = enc.AttentionCapture()
        enc.rel_attention_block(x, mask, {k[7:]: v for k, v in bound.items()
                                          if k.startswith("layer0.")},
                                TINY, capture=capture)
        for scores in capture.scores[0]:  # (heads, T, T)
            for i in range(4):
                for j in range(4):
                    assert abs(scores[i, j] - scores[i + 1, j + 1]) <= 1e-12

    def test_self_only_mask_gives_identity_weights(self):
        params, bound, _ = bound_params(TINY, 8)
        x = ad.constant(stream(8, "tok").normal(size=(5, 16)))
        mask = enc.AttentionMask(np.eye(5, dtype=bool))
        capture = enc.AttentionCapture()
        enc.rel_attention_block(x, mask, {k[7:]: v for k, v in bound.items()
                                          if k.startswith("layer0.")},
                                TINY, capture=capture)
        for weights in capture.weights[0]:
            np.testing.assert_array_equal(weights, np.eye(5))

    def test_matches_naive_reference(self):
        params, bound, _ = bound_params(TINY, 9)
        x_data = stream(9, "tok").normal(size=(6, 16))
        allowed = np.ones((6, 6), dtype=bool)
        allowed[0, 3] = allowed[4, 1] = allowed[5, 5] = False
        out = enc.rel_attention_block(
            ad.constant(x_data), enc.AttentionMask(allowed),
            {k[7:]: v for k, v in bound.items() if k.startswith("layer0.")},
            TINY)
        layer0 = {k[7:]: v for k, v in params.items() if k.startswith("layer0.")}
        expected = ref_block(x_data, allowed, layer0, TINY)
        assert np.abs(out.data - expected).max() <= 1e-10


class TestEncode:
    def test_single_frame_full_context(self):
        params, bound, _ = bound_params(TINY, 10)
        seq = random_sequence(1, 6, stream(10, "s"))
        out = enc.encode(bound, TINY, seq, MaskPlan.full_context(1))
        assert out.dims == (1, 16)

    def test_target_content_cannot_leak(self):
        params, bound, _ = bound_params(TINY, 11)
        rng = stream(11, "s")
        seq = random_sequence(7, 6, rng)
        plan = MaskPlan.from_context_set((0, 2, 3, 6), 7)
        base = enc.encode(bound, TINY, seq, plan).data
        for target in plan.target_idx:
            frames = seq.frames.copy()
            frames[target] = rng.dirichlet(np.ones(6))
            perturbed = PhonemePosteriorSequence(frames)
            tape2 = ad.Tape()
            bound2 = enc.bind_params(params, tape2)
            out = enc.encode(bound2, TINY, perturbed, plan).data
            assert np.abs(out - base).max() <= 1e-12

    def test_blocked_columns_carry_zero_attention(self):
        params, bound, _ = bound_params(TINY, 12)
        seq = random_sequence(8, 6, stream(12, "s"))
        plan = MaskPlan.from_context_set((0, 1, 4, 5), 8)
        capture = enc.AttentionCapture()
        enc.encode(bound, TINY, seq, plan, capture=capture)
        allowed = enc.AttentionMask.from_plan(plan).allowed
        for stacked in capture.weights:
            for weights in stacked:
                assert np.all(weights[~allowed] == 0.0)

    def test_swapping_context_contents_moves_outputs(self):
        # relative positions matter: exchanging the contents of two context
        # frames must change hidden states elsewhere
        params, bound, _ = bound_params(TINY, 13)
        rng = stream(13, "s")
        rows = rng.dirichlet(np.ones(6), size=6)
        plan = MaskPlan.from_context_set((0, 1, 2, 4, 5), 6)
        base = enc.encode(bound, TINY, PhonemePosteriorSequence(rows), plan).data
        swapped = rows.copy()
        swapped[[1, 4]] = swapped[[4, 1]]
        tape2 = ad.Tape()
        bound2 = enc.bind_params(params, tape2)
        moved = enc.encode(bound2, TINY, PhonemePosteriorSequence(swapped), plan).data
        assert np.abs(moved[0] - base[0]).max() > 1e-6

    def test_sequence_too_long(self):
        params, bound, _ = bound_params(TINY, 14)
        seq = random_sequence(TINY.max_seq_len + 1, 6, stream(14, "s"))
        with pytest.raises(enc.SequenceLengthError):
            enc.encode(bound, TINY, seq, MaskPlan.full_context(seq.length))


class TestPredictPhonemes:
    def test_orthonormal_embedding_argmax(self):
        embedding = ad.constant(np.eye(4))
        hidden = ad.constant(np.eye(4)[2:3])
        logits = enc.predict_phonemes(hidden, embedding)
        assert logits.data.argmax() == 2

    def test_zero_hidden_gives_uniform(self):
        logits = enc.predict_phonemes(ad.constant(np.zeros((2, 5))),
                                      ad.constant(stream(15, "e").normal(size=(7, 5))))
        np.testing.assert_array_equal(logits.data, np.zeros((2, 7)))
        probs = ad.softmax(logits)
        np.testing.assert_allclose(probs.data, 1 / 7)

    def test_shapes(self):
        logits = enc.predict_phonemes(ad.constant(np.zeros((3, 5))),
                                      ad.constant(np.zeros((7, 5))))
        assert logits.dims == (3, 7)


class TestAttentivePool:
    def test_identical_rows_pool_to_themselves(self):
        row = stream(16, "p").normal(size=8)
        hidden = ad.constant(np.tile(row, (5, 1)))
        pooled = enc.attentive_pool(hidden, ad.constant(stream(16, "q").normal(size=8)),
                                    range(5))
        np.testing.assert_allclose(pooled.data, row, atol=1e-12)

    def test_single_valid_position(self):
        hidden = ad.constant(stream(17, "p").normal(size=(4, 8)))
        pooled = enc.attentive_pool(hidden, ad.constant(np.ones(8)), [2])
        np.testing.assert_allclose(pooled.data, hidden.data[2])

    def test_zero_query_gives_mean(self):
        hidden = ad.constant(stream(18, "p").normal(size=(6, 8)))
        pooled = enc.attentive_pool(hidden, ad.constant(np.zeros(8)), [0, 2, 5])
        np.testing.assert_allclose(pooled.data, hidden.data[[0, 2, 5]].mean(axis=0))

    def test_no_valid_positions(self):
        with pytest.raises(ad.ContractError):
            enc.attentive_pool(ad.constant(np.zeros((3, 8))),
                               ad.constant(np.zeros(8)), [])

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_output_in_convex_hull(self, seed, n_valid):
        rng = stream(seed, "hull")
        hidden = ad.constant(rng.normal(size=(6, 5)))
        query = ad.constant(rng.normal(size=5, scale=3.0))
        valid = sorted(rng.choice(6, size=n_valid, replace=False).tolist())
        pooled = enc.attentive_pool(hidden, query, valid).data
        rows = hidden.data[valid]
        assert np.all(pooled >= rows.min(axis=0) - 1e-12)
        assert np.all(pooled <= rows.max(axis=0) + 1e-12)


class TestEncoderGradients:
    def test_full_small_encoder_gradcheck(self):
        config = enc.EncoderConfig(vocab_size=4, layers=1, d_model=8, d_ff=12,
                                   heads=2, max_seq_len=16, dropout=0.0)
        params = enc.init_params(config, stream(19, "init"), init_std=0.05)
        seq = random_sequence(5, 4, stream(19, "s"))
        plan = MaskPlan.from_context_set((0, 2, 4), 5)

        def build(bound):
            return _plm_term(bound, config, seq, plan, "mean", False, None)

        assert ad.finite_diff_check(build, params, eps=1e-5) <= 1e-4


class TestTapelessBinding:
    def test_leaves_and_outputs_carry_no_tape(self):
        params = enc.init_params(TINY, stream(20, "init"), classes=3)
        bound = enc.bind_params(params)
        assert all(t.tape is None and t.node_id is None for t in bound.values())
        seq = random_sequence(6, 6, stream(20, "s"))
        plan = MaskPlan.from_context_set((0, 2, 3, 5), 6)
        hidden = enc.encode(bound, TINY, seq, plan)
        pooled = enc.attentive_pool(hidden, bound["pool_query"],
                                    plan.context_idx)
        logits = enc.predict_phonemes(ad.gather_rows(hidden, plan.target_idx),
                                      bound["embed"])
        assert all(t.tape is None for t in (hidden, pooled, logits))

        taped = enc.bind_params(params, ad.Tape())
        reference = enc.encode(taped, TINY, seq, plan)
        assert hidden.data.tobytes() == reference.data.tobytes()

    def test_forward_only_callers_build_no_tape(self, monkeypatch):
        from bertplm import objective as obj
        from bertplm import oracle
        from bertplm import trainer as tr
        from bertplm.corpus import LabeledUtterance

        params = enc.init_params(TINY, stream(21, "init"), classes=3)
        seq = random_sequence(5, 6, stream(21, "s"), "u")
        plan = MaskPlan.from_context_set((0, 1, 3), 5)

        def no_tape(*args, **kwargs):
            raise AssertionError("a forward-only pass built a Tape")

        monkeypatch.setattr(ad, "Tape", no_tape)
        obj.bert_plm_loss(params, TINY, seq, plan)
        obj.finetune_loss(params, TINY, LabeledUtterance(seq, 1), plan)
        tr.evaluate(params, TINY, [LabeledUtterance(seq, 2)])
        predictor = oracle.make_frozen_predictor(params, TINY)
        predictor(seq, frozenset({0, 1}), 4)

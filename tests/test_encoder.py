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


def one(seq, plan):
    return enc.Group([seq], [plan])


def pooled(t_len, *frame_sets):
    """(B, T) pool mask, true at frame_sets[b] in row b."""
    mask = np.zeros((len(frame_sets), t_len), dtype=bool)
    for b, frames in enumerate(frame_sets):
        mask[b, list(frames)] = True
    return mask


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
        cols = slice(h * dh, (h + 1) * dh)
        q = x @ lp["wq"][:, cols]
        k = x @ lp["wk"][:, cols]
        v = x @ lp["wv"][:, cols]
        r = sinus @ lp["wr"][:, cols]
        u_bias = lp["u_bias"][cols]
        v_bias = lp["v_bias"][cols]
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


def ref_mask(plan):
    """Context rows see the context; target rows see the context and
    themselves."""
    t_len = len(plan.context_idx) + len(plan.target_idx)
    allowed = np.zeros((t_len, t_len), dtype=bool)
    context = np.asarray(plan.context_idx, dtype=np.intp)
    targets = np.asarray(plan.target_idx, dtype=np.intp)
    allowed[:, context] = True
    allowed[targets, :] = False
    allowed[np.ix_(targets, context)] = True
    allowed[targets, targets] = True
    return allowed


# ---------------------------------------------------------------------------


class TestInitParams:
    def test_every_parameter_is_a_matrix_or_a_vector(self):
        shapes = enc.param_shapes(TINY, classes=3)
        assert {len(s) for s in shapes.values()} == {1, 2}
        assert shapes["layer1.wr"] == (16, 16)
        assert shapes["layer1.v_bias"] == (16,)

    @pytest.mark.parametrize("heads", [1, 4, 8])
    def test_every_array_is_c_contiguous(self, heads):
        config = enc.EncoderConfig(vocab_size=6, layers=1, d_model=8, d_ff=12,
                                   heads=heads, max_seq_len=16, dropout=0.0)
        params = enc.init_params(config, stream(5, "init"), classes=3)
        assert all(a.flags["C_CONTIGUOUS"] for a in params.values())

    def test_head_blocks_equal_a_per_head_draw(self):
        # the projections were once stored as (heads, d, dh) stacks: the
        # same seed lays the same draws into head h's columns
        params = enc.init_params(TINY, stream(5, "init"))
        rng = stream(5, "init")
        heads, d, dh = TINY.heads, TINY.d_model, TINY.head_dim
        for name, shape in enc.param_shapes(TINY).items():
            if name.endswith((".gamma", ".beta", ".b1", ".b2")):
                continue
            if name.endswith((".wq", ".wk", ".wv", ".wr")):
                stack = rng.normal(scale=0.02, size=(heads, d, dh))
                for h in range(heads):
                    assert params[name][:, h * dh:(h + 1) * dh].tobytes() \
                        == stack[h].tobytes(), name
            elif name.endswith(("u_bias", "v_bias")):
                stack = rng.normal(scale=0.02, size=(heads, 1, dh))
                assert params[name].tobytes() == stack.tobytes(), name
            else:
                drawn = rng.normal(scale=0.02, size=shape)
                assert params[name].tobytes() == drawn.tobytes(), name


def softmax_calls(monkeypatch):
    """Record (scores, weights) of every ``ad.softmax`` call: the scaled,
    pre-mask scores it is given and the weights it returns."""
    softmax = ad.softmax
    calls = []

    def spy(x, blocked):
        out = softmax(x, blocked)
        calls.append((x.data.copy(), out.data.copy()))
        return out

    monkeypatch.setattr(ad, "softmax", spy)
    return calls


def first_block_inputs(monkeypatch, frames, *plans):
    """The input ``encode`` hands its first block, one pass per plan over
    one sequence of ``frames``, and the parameters."""
    block = enc.rel_attention_block
    received = []

    def spy(x, *args, **kwargs):
        received.append(x.data.copy())
        return block(x, *args, **kwargs)

    monkeypatch.setattr(enc, "rel_attention_block", spy)
    params = enc.init_params(TINY, stream(30, "init"))
    for plan in plans:
        enc.encode(enc.bind_params(params), TINY,
                   one(PhonemePosteriorSequence(frames), plan))
    assert len(received) == TINY.layers * len(plans)
    return received[::TINY.layers], params


class TestEmbedPosteriors:
    """``encode``'s input row t is sum_v frames[t, v] * embed[v]."""

    def test_one_hot_selects_embedding_row(self, monkeypatch):
        frames = np.zeros((1, 6))
        frames[0, 3] = 1.0
        (x,), params = first_block_inputs(monkeypatch, frames,
                                          MaskPlan.full_context(1))
        np.testing.assert_array_equal(x[0], params["embed"][3])

    def test_uniform_row_gives_mean(self, monkeypatch):
        (x,), params = first_block_inputs(monkeypatch, np.full((1, 6), 1 / 6),
                                          MaskPlan.full_context(1))
        np.testing.assert_allclose(x[0], params["embed"].mean(axis=0))

    def test_half_volume_frame_is_midpoint(self, monkeypatch):
        # 0.5 SIL / 0.5 "S" pools to the midpoint of the two embedding rows
        frames = np.zeros((1, 6))
        frames[0, 0] = 0.5
        frames[0, 4] = 0.5
        (x,), params = first_block_inputs(monkeypatch, frames,
                                          MaskPlan.full_context(1))
        np.testing.assert_allclose(
            x[0], 0.5 * (params["embed"][0] + params["embed"][4]))

    def test_vocab_mismatch(self):
        bound = enc.bind_params(enc.init_params(TINY, stream(30, "init")))
        seq = PhonemePosteriorSequence(np.full((2, 4), 1 / 4))
        with pytest.raises(ad.ShapeError):
            enc.encode(bound, TINY, one(seq, MaskPlan.full_context(2)))


class TestApplyMaskPlan:
    """``encode`` replaces every target row's input with the mask vector."""

    FRAMES = stream(4, "m").dirichlet(np.ones(6), size=4)

    def test_empty_target_set_is_identity(self, monkeypatch):
        (x,), params = first_block_inputs(monkeypatch, self.FRAMES,
                                          MaskPlan.full_context(4))
        assert x.tobytes() == (self.FRAMES @ params["embed"]).tobytes()

    def test_all_target_fills_every_row(self, monkeypatch):
        (x,), params = first_block_inputs(monkeypatch, self.FRAMES,
                                          MaskPlan((), (0, 1, 2, 3)))
        np.testing.assert_array_equal(x, np.tile(params["mask_vec"], (4, 1)))

    def test_context_rows_unchanged_bitwise(self, monkeypatch):
        (full, masked), params = first_block_inputs(
            monkeypatch, self.FRAMES, MaskPlan.full_context(4),
            MaskPlan((0, 2), (1, 3)))
        for row in (0, 2):
            assert masked[row].tobytes() == full[row].tobytes()
        for row in (1, 3):
            assert masked[row].tobytes() == params["mask_vec"].tobytes()

    def test_bad_plan_rejected(self):
        seq = PhonemePosteriorSequence(self.FRAMES)
        with pytest.raises(ad.ContractError):
            one(seq, MaskPlan((0, 1), (3,)))
        with pytest.raises(ad.ContractError):
            one(seq, MaskPlan.full_context(3))


def direct_sinusoids(t_len, width, max_seq_len):
    """The offset table for one T built on its own, as numpy computes it."""
    offsets = np.arange(-(t_len - 1), t_len, dtype=np.float64)
    inv_freq = (2.0 * max_seq_len) ** (-np.arange(0, width, 2) / width)
    angles = offsets[:, None] * inv_freq[None, :]
    table = np.empty((2 * t_len - 1, width))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


class TestRelativeSinusoids:
    @pytest.mark.parametrize("width,max_seq_len", [(16, 16), (64, 320),
                                                   (576, 320)])
    def test_one_table_serves_every_length(self, monkeypatch, width,
                                           max_seq_len):
        monkeypatch.setattr(enc, "_SINUSOID_CACHE", {})
        for t_len in range(1, max_seq_len + 1):
            table = enc.relative_sinusoids(t_len, width, max_seq_len)
            assert not table.flags.writeable
            assert table.tobytes() == direct_sinusoids(
                t_len, width, max_seq_len).tobytes(), t_len
        assert len(enc._SINUSOID_CACHE) == 1

    def test_length_beyond_maximum_rejected(self):
        with pytest.raises(enc.SequenceLengthError):
            enc.relative_sinusoids(17, 8, 16)


class TestAttentionBlock:
    def test_constant_input_scores_are_toeplitz(self, monkeypatch):
        params, bound, _ = bound_params(TINY, 7)
        x = ad.constant(np.tile(stream(7, "tok").normal(size=16), (5, 1)))
        blocked = np.zeros((TINY.heads, 5, 5), dtype=bool)
        calls = softmax_calls(monkeypatch)
        enc.rel_attention_block(x, blocked, {k[7:]: v for k, v in bound.items()
                                             if k.startswith("layer0.")},
                                TINY)
        assert len(calls) == 1
        for scores in calls[0][0]:  # (heads, T, T)
            for i in range(4):
                for j in range(4):
                    assert abs(scores[i, j] - scores[i + 1, j + 1]) <= 1e-12

    def test_self_only_mask_gives_identity_weights(self, monkeypatch):
        params, bound, _ = bound_params(TINY, 8)
        x = ad.constant(stream(8, "tok").normal(size=(5, 16)))
        blocked = np.tile(~np.eye(5, dtype=bool), (TINY.heads, 1, 1))
        calls = softmax_calls(monkeypatch)
        enc.rel_attention_block(x, blocked, {k[7:]: v for k, v in bound.items()
                                             if k.startswith("layer0.")},
                                TINY)
        assert len(calls) == 1
        for weights in calls[0][1]:
            np.testing.assert_array_equal(weights, np.eye(5))

    def test_matches_naive_reference(self):
        params, bound, _ = bound_params(TINY, 9)
        x_data = stream(9, "tok").normal(size=(6, 16))
        allowed = np.ones((6, 6), dtype=bool)
        allowed[0, 3] = allowed[4, 1] = allowed[5, 5] = False
        out = enc.rel_attention_block(
            ad.constant(x_data), np.tile(~allowed, (TINY.heads, 1, 1)),
            {k[7:]: v for k, v in bound.items() if k.startswith("layer0.")},
            TINY)
        layer0 = {k[7:]: v for k, v in params.items() if k.startswith("layer0.")}
        expected = ref_block(x_data, allowed, layer0, TINY)
        assert np.abs(out.data - expected).max() <= 1e-10


class TestEncode:
    def test_single_frame_full_context(self):
        params, bound, _ = bound_params(TINY, 10)
        seq = random_sequence(1, 6, stream(10, "s"))
        out = enc.encode(bound, TINY, one(seq, MaskPlan.full_context(1)))
        assert out.dims == (1, 16)

    def test_target_content_cannot_leak(self):
        params, bound, _ = bound_params(TINY, 11)
        rng = stream(11, "s")
        seq = random_sequence(7, 6, rng)
        plan = MaskPlan.from_context_set((0, 2, 3, 6), 7)
        base = enc.encode(bound, TINY, one(seq, plan)).data
        for target in plan.target_idx:
            frames = seq.frames.copy()
            frames[target] = rng.dirichlet(np.ones(6))
            perturbed = PhonemePosteriorSequence(frames)
            tape2 = ad.Tape()
            bound2 = enc.bind_params(params, tape2)
            out = enc.encode(bound2, TINY, one(perturbed, plan)).data
            assert np.abs(out - base).max() <= 1e-12

    def test_blocked_columns_carry_zero_attention(self, monkeypatch):
        params, bound, _ = bound_params(TINY, 12)
        seq = random_sequence(8, 6, stream(12, "s"))
        plan = MaskPlan.from_context_set((0, 1, 4, 5), 8)
        calls = softmax_calls(monkeypatch)
        enc.encode(bound, TINY, one(seq, plan))
        assert len(calls) == TINY.layers
        allowed = ref_mask(plan)
        for _, stacked in calls:
            for weights in stacked:
                assert np.all(weights[~allowed] == 0.0)

    def test_swapping_context_contents_moves_outputs(self):
        # relative positions matter: exchanging the contents of two context
        # frames must change hidden states elsewhere
        params, bound, _ = bound_params(TINY, 13)
        rng = stream(13, "s")
        rows = rng.dirichlet(np.ones(6), size=6)
        plan = MaskPlan.from_context_set((0, 1, 2, 4, 5), 6)
        base = enc.encode(bound, TINY, one(PhonemePosteriorSequence(rows), plan)).data
        swapped = rows.copy()
        swapped[[1, 4]] = swapped[[4, 1]]
        tape2 = ad.Tape()
        bound2 = enc.bind_params(params, tape2)
        moved = enc.encode(bound2, TINY,
                           one(PhonemePosteriorSequence(swapped), plan)).data
        assert np.abs(moved[0] - base[0]).max() > 1e-6

    def test_sequence_too_long(self):
        params, bound, _ = bound_params(TINY, 14)
        seq = random_sequence(TINY.max_seq_len + 1, 6, stream(14, "s"))
        with pytest.raises(enc.SequenceLengthError):
            enc.encode(bound, TINY, one(seq, MaskPlan.full_context(seq.length)))


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
        probs = ad.softmax(logits, np.zeros(logits.dims, dtype=bool))
        np.testing.assert_allclose(probs.data, 1 / 7)

    def test_shapes(self):
        logits = enc.predict_phonemes(ad.constant(np.zeros((3, 5))),
                                      ad.constant(np.zeros((7, 5))))
        assert logits.dims == (3, 7)


class TestAttentivePool:
    def test_identical_rows_pool_to_themselves(self):
        row = stream(16, "p").normal(size=8)
        hidden = ad.constant(np.tile(row, (5, 1)))
        out = enc.attentive_pool(hidden, ad.constant(stream(16, "q").normal(size=8)),
                                 pooled(5, range(5)))
        np.testing.assert_allclose(out.data[0], row, atol=1e-12)

    def test_single_valid_position(self):
        hidden = ad.constant(stream(17, "p").normal(size=(4, 8)))
        out = enc.attentive_pool(hidden, ad.constant(np.ones(8)), pooled(4, [2]))
        np.testing.assert_allclose(out.data[0], hidden.data[2])

    def test_zero_query_gives_mean(self):
        hidden = ad.constant(stream(18, "p").normal(size=(6, 8)))
        out = enc.attentive_pool(hidden, ad.constant(np.zeros(8)),
                                 pooled(3, [0, 2], [2]))
        np.testing.assert_allclose(out.data[0],
                                   hidden.data[[0, 2]].mean(axis=0))
        np.testing.assert_allclose(out.data[1], hidden.data[5])

    def test_no_valid_positions(self):
        with pytest.raises(ad.ContractError):
            enc.attentive_pool(ad.constant(np.zeros((6, 8))),
                               ad.constant(np.zeros(8)), pooled(3, [1], []))

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_output_in_convex_hull(self, seed, n_valid):
        rng = stream(seed, "hull")
        hidden = ad.constant(rng.normal(size=(6, 5)))
        query = ad.constant(rng.normal(size=5, scale=3.0))
        valid = sorted(rng.choice(6, size=n_valid, replace=False).tolist())
        out = enc.attentive_pool(hidden, query, pooled(6, valid)).data[0]
        rows = hidden.data[valid]
        assert np.all(out >= rows.min(axis=0) - 1e-12)
        assert np.all(out <= rows.max(axis=0) + 1e-12)


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
        hidden = enc.encode(bound, TINY, one(seq, plan))
        vector = enc.attentive_pool(hidden, bound["pool_query"],
                                    pooled(6, plan.context_idx))
        logits = enc.predict_phonemes(ad.gather_rows(hidden, plan.target_idx),
                                      bound["embed"])
        assert all(t.tape is None for t in (hidden, vector, logits))

        taped = enc.bind_params(params, ad.Tape())
        reference = enc.encode(taped, TINY, one(seq, plan))
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
        obj.bert_plm_loss(params, TINY, one(seq, plan))
        obj.finetune_loss(params, TINY, one(seq, plan), [1])
        tr.evaluate(params, TINY, [LabeledUtterance(seq, 2)])
        predictor = oracle.make_frozen_predictor(params, TINY)
        predictor(seq, frozenset({0, 1}), 4)


class TestGroups:
    def test_no_leakage_between_utterances(self):
        # in the style of acceptance criterion 3: perturbing any frame of
        # one utterance moves no hidden row or loss of another
        from bertplm import objective as obj

        worst = 0.0
        for trial in range(20):
            rng = stream(22, "leak", trial)
            params = enc.init_params(TINY, rng, init_std=0.1)
            bound = enc.bind_params(params)
            lengths = rng.integers(2, 9, size=int(rng.integers(2, 5)))
            seqs = [random_sequence(int(n), 6, rng, f"g{i}")
                    for i, n in enumerate(lengths)]
            plans = [obj.sample_mask_plan(s, 0, 0.5, 0.999, rng) for s in seqs]
            group = enc.Group(seqs, plans)
            base = enc.encode(bound, TINY, group).data
            base_losses = obj._plm_losses(bound, TINY, group, "mean", None).data
            t_len = group.length
            for j, seq in enumerate(seqs):
                for frame in range(seq.length):
                    frames = seq.frames.copy()
                    frames[frame] = rng.dirichlet(np.ones(6))
                    moved = list(seqs)
                    moved[j] = PhonemePosteriorSequence(frames)
                    group2 = enc.Group(moved, plans)
                    out = enc.encode(bound, TINY, group2).data
                    losses = obj._plm_losses(bound, TINY, group2, "mean",
                                             None).data
                    others = [b for b in range(len(seqs)) if b != j]
                    for b in others:
                        rows = slice(b * t_len, b * t_len + seqs[b].length)
                        worst = max(worst, float(np.abs(
                            out[rows] - base[rows]).max()),
                            abs(float(losses[b] - base_losses[b])))
        assert worst <= 1e-12

    def test_members_compute_what_they_compute_alone(self):
        from bertplm import objective as obj

        params = enc.init_params(TINY, stream(23, "init"), init_std=0.1)
        bound = enc.bind_params(params)
        rng = stream(23, "s")
        seqs = [random_sequence(n, 6, rng) for n in (4, 9, 6)]
        plans = [obj.sample_mask_plan(s, 0, 0.5, 0.999, rng) for s in seqs]
        together = enc.encode(bound, TINY, enc.Group(seqs, plans)).data
        for b, (seq, plan) in enumerate(zip(seqs, plans)):
            alone = enc.encode(bound, TINY, one(seq, plan)).data
            rows = together[b * 9:b * 9 + seq.length]
            assert np.abs(rows - alone).max() <= 1e-12

    def test_padding_attends_only_to_itself(self):
        seqs = [random_sequence(n, 6, stream(24, "s", n)) for n in (2, 4)]
        group = enc.Group(seqs, [MaskPlan.full_context(2),
                                 MaskPlan((0, 3), (1, 2))])
        allowed = ~group.blocked
        assert allowed.shape == (2, 4, 4)
        np.testing.assert_array_equal(allowed[0, :2, :2], True)
        np.testing.assert_array_equal(allowed[0, :2, 2:], False)
        np.testing.assert_array_equal(allowed[0, 2:], [[0, 0, 1, 0],
                                                       [0, 0, 0, 1]])
        np.testing.assert_array_equal(allowed[1], ref_mask(group.plans[1]))
        np.testing.assert_array_equal(group.context, [[1, 1, 0, 0],
                                                      [1, 0, 0, 1]])
        np.testing.assert_array_equal(group.target_rows, [5, 6])
        np.testing.assert_array_equal(group.target_bounds, [0, 0, 2])
        assert group.frames.shape == (8, 6)
        np.testing.assert_array_equal(group.frames[2:4], 0.0)

    def test_masks_follow_the_four_assignment_reference(self):
        from bertplm import objective as obj

        rng = stream(26, "masks")
        for trial in range(50):
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 6)))
            seqs = [random_sequence(int(n), 6, rng) for n in lengths]
            plans = [obj.sample_mask_plan(s, 0, 0.6, 0.999, rng) for s in seqs]
            group = enc.Group(seqs, plans)
            allowed = ~group.blocked
            t_len = group.length
            for b, (plan, n) in enumerate(zip(plans, lengths)):
                expected = np.eye(t_len, dtype=bool)
                expected[:n, :n] = ref_mask(plan)
                np.testing.assert_array_equal(allowed[b], expected)

    def test_every_block_receives_one_blocked_stack(self, monkeypatch):
        seqs = [random_sequence(n, 6, stream(27, "s", n)) for n in (3, 5)]
        group = enc.Group(seqs, [MaskPlan((0, 2), (1,)),
                                 MaskPlan((1, 2, 4), (0, 3))])
        for array in (group.context, group.blocked, group.frames):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        block = enc.rel_attention_block
        received = []

        def spy(x, blocked, *args, **kwargs):
            received.append(blocked)
            return block(x, blocked, *args, **kwargs)

        monkeypatch.setattr(enc, "rel_attention_block", spy)
        params = enc.init_params(TINY, stream(27, "init"))
        enc.encode(enc.bind_params(params), TINY, group)
        assert len(received) == TINY.layers
        assert all(blocked is received[0] for blocked in received)
        assert received[0].shape == (TINY.heads * 2, 5, 5)
        np.testing.assert_array_equal(
            received[0], np.concatenate([group.blocked] * TINY.heads))

    def test_group_needs_one_partitioning_plan_per_sequence(self):
        seq = random_sequence(3, 6, stream(25, "s"))
        with pytest.raises(ad.ContractError):
            enc.Group([seq], [])
        with pytest.raises(ad.ContractError):
            enc.Group([seq], [MaskPlan.full_context(2)])
        with pytest.raises(ad.ShapeError):
            enc.Group([seq, random_sequence(3, 5, stream(25, "t"))],
                      [MaskPlan.full_context(3)] * 2)

    def test_group_dropout_draws_each_member_alone(self):
        config = enc.EncoderConfig(vocab_size=6, layers=1, d_model=8, d_ff=12,
                                   heads=2, max_seq_len=16, dropout=0.3)
        seqs = [random_sequence(n, 6, stream(26, "s", n)) for n in (3, 5)]
        group = enc.Group(seqs, [MaskPlan.full_context(s.length) for s in seqs])
        drop = enc.GroupDropout(0.3, [stream(26, "d", b) for b in range(2)],
                                group)
        rows = drop.rows(ad.constant(np.ones((10, 8)))).data.reshape(2, 5, 8)
        weights = drop.weights(ad.constant(np.ones((4, 5, 5))), 2).data
        weights = weights.reshape(2, 2, 5, 5)
        for b, n in enumerate((3, 5)):
            rng = stream(26, "d", b)
            kept = ad.keep_mask(0.3, rng, (n, 8))
            np.testing.assert_array_equal(rows[b, :n], kept / 0.7)
            kept = ad.keep_mask(0.3, rng, (2, n, n))
            np.testing.assert_array_equal(weights[:, b, :n, :n], kept / 0.7)
        np.testing.assert_array_equal(rows[0, 3:], 1.0 / 0.7)  # padding kept
        np.testing.assert_array_equal(weights[:, 0, 3:], 1.0 / 0.7)


class TestQueryRows:
    """``encode(..., targets_only=True)`` runs the last block at the target
    rows only; its rows, loss and gradients equal the full pass's at those
    rows."""

    CONFIG = enc.EncoderConfig(vocab_size=6, layers=2, d_model=16, d_ff=24,
                               heads=2, max_seq_len=16, dropout=0.2)

    def padded_group(self):
        # unequal lengths and unequal k, so query slots and frames are padded
        rng = stream(28, "s")
        seqs = [random_sequence(n, 6, rng, f"q{n}") for n in (7, 4, 9)]
        plans = [MaskPlan.from_context_set((0, 2, 5, 6), 7),
                 MaskPlan.from_context_set((0, 1, 2), 4),
                 MaskPlan.from_context_set((1, 3, 4, 8), 9)]
        return enc.Group(seqs, plans)

    def test_group_lays_targets_out_as_query_slots(self):
        group = self.padded_group()
        np.testing.assert_array_equal(group.query_positions,
                                      [[1, 3, 4, 0, 0], [3, 0, 0, 0, 0],
                                       [0, 2, 5, 6, 7]])
        np.testing.assert_array_equal(group.target_slots,
                                      [0, 1, 2, 5, 10, 11, 12, 13, 14])

    @pytest.mark.parametrize("dropout", [False, True])
    def test_loss_and_gradients_equal_the_full_block(self, dropout):
        from bertplm import objective as obj

        group = self.padded_group()
        params = enc.init_params(self.CONFIG, stream(28, "init"),
                                 init_std=0.3)

        def run(targets_only):
            tape = ad.Tape()
            bound = enc.bind_params(params, tape)
            rngs = ([stream(28, "drop", b) for b in range(group.size)]
                    if dropout else None)
            hidden = enc.encode(bound, self.CONFIG, group, drop_rngs=rngs,
                                targets_only=targets_only)
            if not targets_only:
                hidden = ad.gather_rows(hidden, group.target_rows)
            loss = ad.sum_all(obj._masked_regression(hidden, bound["embed"],
                                                     group, "mean"))
            grads = ad.backward(tape, loss)
            return hidden.data, loss.item(), {
                name: grads[t.node_id].data for name, t in bound.items()
                if t.node_id in grads}

        rows, loss, grads = run(True)
        full_rows, full_loss, full_grads = run(False)
        assert rows.shape == (9, 16) and rows.dtype == np.float64
        assert np.abs(rows - full_rows).max() <= 1e-12
        assert abs(loss - full_loss) <= 1e-12 * abs(full_loss)
        assert grads.keys() == full_grads.keys()
        for name, grad in grads.items():
            assert (np.abs(grad - full_grads[name]).max()
                    <= 1e-12 * np.abs(full_grads[name]).max()), name

    def test_pretraining_loss_takes_the_query_path(self, monkeypatch):
        from bertplm import objective as obj

        block = enc.rel_attention_block
        outputs = []

        def spy(*args, queries=None, **kwargs):
            out = block(*args, queries=queries, **kwargs)
            outputs.append(None if queries is None else out.dims)
            return out

        monkeypatch.setattr(enc, "rel_attention_block", spy)
        group = self.padded_group()
        params = enc.init_params(self.CONFIG, stream(29, "init"), classes=3)
        obj.bert_plm_loss(params, self.CONFIG, group)
        assert outputs == [None, (3 * 5, 16)]
        outputs.clear()
        obj.finetune_loss(params, self.CONFIG, group, [0, 1, 2])
        assert outputs == [None, None]

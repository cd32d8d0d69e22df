import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertplm import autodiff as ad
from bertplm.cli import grad_check_problem
from bertplm.rng import stream


def triple_loop_matmul(a, b):
    """Naive reference product, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(np.eye(2), a)
        np.testing.assert_array_equal(out.data, a)

    def test_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(p, b)
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_against_triple_loop(self):
        rng = stream(3, "matmul")
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = ad.matmul(a, b)
        assert np.abs(out.data - triple_loop_matmul(a, b)).max() <= 1e-12

    def test_shape_error(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("a, b", [((4, 3), (2, 3, 5)), ((2, 4, 3), (3, 5)),
                                      ((2, 4, 3), (3, 3, 5))])
    def test_mixed_ranks_and_stack_lengths_rejected(self, a, b):
        with pytest.raises(ad.ShapeError):
            ad.matmul(np.zeros(a), np.zeros(b))


def open_softmax(values):
    """Softmax with no entry blocked."""
    values = np.asarray(values)
    return ad.softmax(values, np.zeros(values.shape, dtype=bool))


class TestSoftmax:
    def test_symmetry(self):
        out = open_softmax(np.zeros(3))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_stability(self):
        out = open_softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_long_hand(self):
        # e^{x-3} / sum for x = [1, 2, 3], evaluated with scalar math.exp
        e = [math.exp(1 - 3), math.exp(2 - 3), math.exp(3 - 3)]
        z = sum(e)
        expected = [v / z for v in e]
        out = open_softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12))
    def test_rows_sum_to_one(self, values):
        out = open_softmax(np.array(values))
        assert abs(out.data.sum() - 1.0) <= 1e-12


class TestLayerNorm:
    def test_constant_row_normalizes_to_zero(self):
        x = np.full((1, 5), 3.7)
        out = ad.layer_norm(x, np.ones(5), np.zeros(5))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_gamma_zero_gives_beta(self):
        rng = stream(4, "ln")
        x = rng.normal(size=(3, 6))
        beta = rng.normal(size=6)
        out = ad.layer_norm(x, np.zeros(6), beta)
        np.testing.assert_allclose(out.data, np.tile(beta, (3, 1)))

    def test_row_statistics(self):
        rng = stream(5, "ln")
        x = rng.normal(size=(1, 64), scale=3.0)
        out = ad.layer_norm(x, np.ones(64), np.zeros(64))
        assert abs(out.data.mean()) <= 1e-10
        # variance is (var / (var + eps)) of unit, eps-adjusted
        assert abs(out.data.var() - 1.0) <= 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        loss = ad.sum_all(x)
        grads = ad.backward(tape, loss)
        np.testing.assert_array_equal(grads[x.node_id].data, np.ones((2, 3)))

    def test_dot_with_self_gives_2x(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.5, -2.0, 0.25]))
        loss = ad.sum_all(ad.mul(x, x))
        grads = ad.backward(tape, loss)
        np.testing.assert_allclose(grads[x.node_id].data, 2 * x.data)

    def test_reuse_accumulates(self):
        # y = x*x + x  =>  dy/dx = 2x + 1
        tape = ad.Tape()
        x = tape.leaf(np.array([0.5, -1.0]))
        loss = ad.sum_all(ad.add(ad.mul(x, x), x))
        grads = ad.backward(tape, loss)
        np.testing.assert_allclose(grads[x.node_id].data, 2 * x.data + 1)

    def test_loss_must_be_scalar(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ad.ContractError):
            ad.backward(tape, ad.mul(x, x))

    def test_seed_of_one_at_loss(self):
        tape = ad.Tape()
        x = tape.leaf(np.array(2.0))
        loss = ad.sum_all(x)
        grads = ad.backward(tape, loss)
        assert grads[loss.node_id].data == 1.0

    def test_returns_only_leaf_gradients_and_the_seed(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        loss = ad.sum_all(ad.mul(x, x))
        assert set(ad.backward(tape, loss)) == {x.node_id, loss.node_id}

    def test_second_backward_raises(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(tape, loss)
        with pytest.raises(ad.ContractError, match="already consumed"):
            ad.backward(tape, loss)

    def test_backward_frees_captured_forward_arrays(self):
        tape = ad.Tape()
        x = tape.leaf(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
        scaled = ad.scale(x, 2.0)
        captured = weakref.ref(scaled.data)  # held by gelu's VJP
        loss = ad.sum_all(ad.gelu(scaled))
        del scaled
        gc.collect()
        assert captured() is not None
        ad.backward(tape, loss)
        assert captured() is None
        assert all(node is None for node in tape.nodes)

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = stream(6, "mlp")
        params = {
            "w1": rng.normal(size=(5, 8), scale=0.5),
            "b1": rng.normal(size=8, scale=0.5),
            "w2": rng.normal(size=(8, 3), scale=0.5),
            "b2": rng.normal(size=3, scale=0.5),
        }
        x = ad.constant(rng.normal(size=(4, 5)))
        target = ad.constant(rng.dirichlet(np.ones(3), size=4))

        def build(p):
            h = ad.gelu(ad.add(ad.matmul(x, p["w1"]), p["b1"]))
            logits = ad.add(ad.matmul(h, p["w2"]), p["b2"])
            return ad.scale(ad.sum_all(ad.mul(target, ad.log_softmax(logits))),
                            -1.0)

        assert ad.finite_diff_check(build, params, eps=1e-5) <= 1e-6


def fd_slope(loss_at, buffer, flat_index, eps) -> float:
    """Central difference through one entry of the parameter buffer that
    ``loss_at`` reads, by two full evaluations: the reference the stacked
    replay of ``finite_diff_check`` reproduces."""
    flat = buffer.reshape(-1)
    saved = flat[flat_index]
    flat[flat_index] = saved + eps
    hi = loss_at().data.reshape(())
    flat[flat_index] = saved - eps
    lo = loss_at().data.reshape(())
    flat[flat_index] = saved
    return float(ad._central(hi, lo, eps))


class TestFiniteDiffCheck:
    def test_linear_function_is_exact(self):
        rng = stream(7, "lin")
        x = ad.constant(rng.normal(size=6))

        def build(p):
            return ad.sum_all(ad.mul(p["w"], x))

        err = ad.finite_diff_check(build, {"w": rng.normal(size=6)}, eps=1e-5)
        assert err <= 1e-10

    def test_softmax_cross_entropy_toy(self):
        rng = stream(8, "sce")
        x = ad.constant(rng.normal(size=(3, 4)))
        target = ad.constant(rng.dirichlet(np.ones(5), size=3))

        def build(p):
            logits = ad.matmul(x, p["w"])
            return ad.scale(ad.sum_all(ad.mul(target, ad.log_softmax(logits))),
                            -1.0)

        err = ad.finite_diff_check(build, {"w": rng.normal(size=(4, 5))}, eps=1e-5)
        assert err <= 1e-6

    def test_eps_contract(self):
        with pytest.raises(ad.ContractError):
            ad.finite_diff_check(lambda p: ad.sum_all(p["w"]), {"w": np.ones(2)}, eps=0.5)

    def test_non_finite_slope_gives_inf(self):
        # w[0] + eps overflows w * c and inf * 0 is NaN; the loss is finite
        # at w and at w[0] - eps, and its gradient 2w is finite
        c = ad.constant([np.finfo(np.float64).max / (1 + 0.5e-5), 0.0, 0.0])
        zero = ad.constant(np.zeros(3))

        def build(p):
            w = p["w"]
            return ad.add(ad.sum_all(ad.mul(w, w)),
                          ad.sum_all(ad.mul(ad.mul(w, c), zero)))

        with np.errstate(over="ignore", invalid="ignore"):
            err = ad.finite_diff_check(build, {"w": np.array([1.0, 2.0, 3.0])})
        assert err == math.inf

    def test_non_finite_gradient_gives_inf(self):
        # gelu(-1e200) is -0.0, but its derivative there evaluates 0 * inf
        def build(p):
            return ad.sum_all(ad.gelu(p["w"]))

        with np.errstate(over="ignore", invalid="ignore"):
            err = ad.finite_diff_check(build,
                                       {"w": np.array([-1e200, 1.0, 2.0])})
        assert err == math.inf

    @pytest.mark.parametrize("loss", ["bert_plm_loss", "finetune_loss"])
    def test_build_loss_runs_once_per_precision(self, loss):
        params, builds = grad_check_problem(3, quick=True)
        dtypes = []

        def counted(bound):
            dtypes.append(bound["embed"].data.dtype)
            return builds[loss](bound)

        assert ad.finite_diff_check(counted, params) <= 1e-4
        # this problem has undecided entries: where longdouble is wider than
        # float64, they are re-checked on one longdouble recording
        wider = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
        assert dtypes == [np.dtype(np.float64)] + (
            [np.dtype(np.longdouble)] if wider else [])

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("loss", ["bert_plm_loss", "finetune_loss"])
    def test_replayed_slopes_equal_full_forward_slopes(self, loss, dtype):
        """Every entry of every parameter, including those the PLM loss never
        reads (pool_query, classifier)."""
        params, builds = grad_check_problem(3, quick=True)
        build = builds[loss]
        record = ad._Recording(build, params, dtype)
        eps = dtype(1e-5)
        for name, leaf in record.leaves.items():
            buffers = {n: l.data.copy() for n, l in record.leaves.items()}
            frozen = {n: ad.Tensor(b) for n, b in buffers.items()}
            indices = range(leaf.data.size)
            replayed = np.array(list(record.slopes(name, indices, eps)))
            full = np.array([fd_slope(lambda: build(frozen), buffers[name],
                                      i, eps) for i in indices])
            assert replayed.tobytes() == full.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_chunked_slopes_equal_one_chunk(self, monkeypatch, dtype):
        """With no floor, a budget of 1 replays one entry per chunk and 2**10
        replays 3 to 5 (the largest downstream values of these parameters
        hold 96 to 144 entries)."""
        params, builds = grad_check_problem(3, quick=True)
        record = ad._Recording(builds["bert_plm_loss"], params, dtype)
        eps = dtype(1e-5)
        monkeypatch.setattr(ad, "FD_MIN_CHUNK", 1)
        for name in ("embed", "mask_vec", "layer0.wq", "layer0.ffn.b2"):
            indices = range(record.leaves[name].data.size)
            monkeypatch.setattr(ad, "FD_STACK_ENTRIES", 10 ** 9)
            whole = np.array(record.slopes(name, indices, eps))
            for budget in (1, 2 ** 10):
                monkeypatch.setattr(ad, "FD_STACK_ENTRIES", budget)
                chunked = np.array(record.slopes(name, indices, eps))
                assert chunked.tobytes() == whole.tobytes(), (name, budget)

    def test_recording_tape_rejects_dropout(self):
        tape = ad.Tape(record=True)
        with pytest.raises(ad.ContractError):
            ad.dropout(tape.leaf(np.ones(3)), 0.5,
                       ad.keep_mask(0.5, stream(1, "drop"), (3,)))


class TestPrimitives:
    def test_gather_rows_forward_and_backward(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(12.0).reshape(4, 3))
        picked = ad.gather_rows(x, [2, 0, 2])
        np.testing.assert_array_equal(picked.data, x.data[[2, 0, 2]])
        loss = ad.sum_all(picked)
        grads = ad.backward(tape, loss)
        expected = np.zeros((4, 3))
        expected[2] = 2.0
        expected[0] = 1.0
        np.testing.assert_array_equal(grads[x.node_id].data, expected)

    def test_fill_rows(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((4, 2)))
        v = tape.leaf(np.array([5.0, 6.0]))
        out = ad.fill_rows(x, [1, 3], v)
        np.testing.assert_array_equal(out.data[[1, 3]], [[5.0, 6.0]] * 2)
        np.testing.assert_array_equal(out.data[[0, 2]], np.ones((2, 2)))
        grads = ad.backward(tape, ad.sum_all(out))
        np.testing.assert_array_equal(grads[v.node_id].data, [2.0, 2.0])
        gx = grads[x.node_id].data
        assert gx[1].sum() == 0 and gx[3].sum() == 0 and gx[0].sum() == 2

    def test_blocked_softmax_blocks_gradient(self):
        rng = stream(14, "softmax")
        x = rng.normal(size=(2, 3, 4))
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, 1] = mask[2, 0] = mask[2, 3] = True
        weights = rng.normal(size=(2, 3, 4))
        tape = ad.Tape()
        leaf = tape.leaf(x)
        out = ad.softmax(leaf, mask)
        assert np.all(out.data[:, mask] == 0.0)
        kept = np.exp(np.where(mask, -np.inf, x))
        np.testing.assert_allclose(out.data,
                                   kept / kept.sum(axis=-1, keepdims=True),
                                   rtol=1e-14)
        loss = ad.sum_all(ad.mul(out, ad.constant(weights)))
        grad = ad.backward(tape, loss)[leaf.node_id].data
        assert np.all(grad[:, mask] == 0.0)
        with pytest.raises(ad.ShapeError):
            ad.softmax(x, mask.T)

        def build(p):
            return ad.sum_all(ad.mul(ad.softmax(p["x"], mask),
                                     ad.constant(weights)))

        assert ad.finite_diff_check(build, {"x": x}, eps=1e-5) <= 1e-8

    def test_rel_position_gather(self):
        for t_len in (3, 1):
            x = np.arange(t_len * (2.0 * t_len - 1)).reshape(t_len, -1)
            out = ad.rel_position_gather(x)
            expected = np.array([[x[i, i - j + t_len - 1]
                                  for j in range(t_len)]
                                 for i in range(t_len)])
            np.testing.assert_array_equal(out.data, expected)

    def test_rel_position_gather_gradient(self):
        rng = stream(9, "rel")

        def build(p):
            return ad.sum_all(ad.gelu(ad.rel_position_gather(p["x"])))

        err = ad.finite_diff_check(build, {"x": rng.normal(size=(4, 7))}, eps=1e-5)
        assert err <= 1e-8

    def test_rel_position_gather_stack_backward_matches_add_at(self):
        rng = stream(10, "rel")
        heads, t_len = 3, 5
        x = rng.normal(size=(heads, t_len, 2 * t_len - 1))
        g = rng.normal(size=(heads, t_len, t_len))
        tape = ad.Tape()
        leaf = tape.leaf(x)
        out = ad.rel_position_gather(leaf)
        grad = ad.backward(tape, ad.sum_all(ad.mul(out, g)))[leaf.node_id].data
        rows = np.arange(t_len)[:, None]
        cols = rows - np.arange(t_len)[None, :] + t_len - 1
        expected = np.zeros_like(x)
        np.add.at(expected, (np.arange(heads)[:, None, None], rows, cols), g)
        assert grad.tobytes() == expected.tobytes()

    def test_segment_sum_forward_and_backward(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(12.0).reshape(4, 3))
        sums = ad.segment_sum(x, [0, 1, 1, 4])
        np.testing.assert_array_equal(sums.data, [3.0, 0.0, 63.0])
        whole = ad.segment_sum(ad.constant(x.data), [0, 4])
        assert whole.data.tobytes() == ad.sum_all(x).data.reshape(1).tobytes()
        loss = ad.sum_all(ad.mul(sums, ad.constant(np.array([2.0, 5.0, -1.0]))))
        grads = ad.backward(tape, loss)
        np.testing.assert_array_equal(grads[x.node_id].data,
                                      [[2.0] * 3, [-1.0] * 3, [-1.0] * 3,
                                       [-1.0] * 3])
        with pytest.raises(ad.ContractError):
            ad.segment_sum(x, [0, 3, 2, 4])
        with pytest.raises(ad.ContractError):
            ad.segment_sum(x, [0, 3])

    def test_reshape_to_same_shape_records_nothing(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 3)))
        assert ad.reshape(x, (2, 3)) is x
        assert len(tape.nodes) == 1

    def test_dropout_reproducible_and_inverted(self):
        x = ad.constant(np.ones((50, 20)))
        a = ad.dropout(x, 0.3, ad.keep_mask(0.3, stream(11, "drop"), x.dims)).data
        b = ad.dropout(x, 0.3, ad.keep_mask(0.3, stream(11, "drop"), x.dims)).data
        np.testing.assert_array_equal(a, b)
        kept = a[a != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)

    @pytest.mark.parametrize("a, b", [((2, 4, 3), (2, 1, 3)), ((4, 3), (4,)),
                                      ((3,), (4, 3))])
    def test_add_takes_only_equal_shapes_or_a_trailing_bias(self, a, b):
        with pytest.raises(ad.ShapeError):
            ad.add(np.zeros(a), np.zeros(b))

    def test_split_heads_inverts_merge_heads(self):
        x = np.arange(24.0).reshape(4, 6)
        heads = ad.split_heads(x, 3, 4)
        assert heads.dims == (3, 4, 2)
        np.testing.assert_array_equal(heads.data[1], x[:, 2:4])
        assert ad.merge_heads(heads, 3).data.tobytes() == x.tobytes()
        # two utterances of two rows: stack h*2 + b is head h of rows
        # 2b .. 2b + 1
        stacks = ad.split_heads(x, 3, 2)
        assert stacks.dims == (6, 2, 2)
        np.testing.assert_array_equal(stacks.data[2 * 1 + 1], x[2:4, 2:4])
        assert ad.merge_heads(stacks, 3).data.tobytes() == x.tobytes()
        stack = stream(12, "heads").normal(size=(6, 4, 2))
        assert ad.split_heads(ad.merge_heads(stack, 3), 3, 4).data.tobytes() \
            == stack.tobytes()
        with pytest.raises(ad.ShapeError):
            ad.split_heads(x, 4, 4)
        with pytest.raises(ad.ShapeError):
            ad.split_heads(x, 3, 3)
        with pytest.raises(ad.ShapeError):
            ad.merge_heads(stack, 4)

    def test_split_heads_gradient(self):
        rng = stream(13, "heads")
        weights = rng.normal(size=(6, 5, 2))

        def build(p):
            return ad.sum_all(ad.mul(ad.gelu(ad.split_heads(p["x"], 3, 5)),
                                     ad.constant(weights)))

        err = ad.finite_diff_check(build, {"x": rng.normal(size=(10, 6))},
                                   eps=1e-5)
        assert err <= 1e-8

    def test_mixing_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ad.ContractError):
            ad.add(a, b)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        def run():
            rng = stream(12, "det")
            tape = ad.Tape()
            w = tape.leaf(rng.normal(size=(6, 6)))
            x = ad.constant(rng.normal(size=(4, 6)))
            h = ad.dropout(ad.gelu(ad.matmul(x, w)), 0.2,
                           ad.keep_mask(0.2, stream(12, "det", "drop"), (4, 6)))
            loss = ad.sum_all(ad.mul(h, h))
            grads = ad.backward(tape, loss)
            return loss.item(), grads[w.node_id].data.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


# ---------------------------------------------------------------------------
# forward kernels on a stacked leading axis
# ---------------------------------------------------------------------------


def _gather(x):
    return ad.gather_rows(x, [2, 0, 2])


def _fill(x, v):
    return ad.fill_rows(x, [1, 3], v)


def _softmax(x):
    """Softmax with one entry of the first and last rows blocked; each row
    keeps at least one entry."""
    blocked = np.zeros(x.dims[-2:], dtype=bool)
    blocked[0, -1] = blocked[-1, 0] = True
    return ad.softmax(x, blocked)


def _segments(x):
    rows = x.dims[0]
    return ad.segment_sum(x, [0, 1, 1, rows - 1, rows])


#: name -> (primitive, operand shapes given (h, rows, d), operands that may
#: be stacked)
KERNEL_CASES = {
    "matmul 2@2": (ad.matmul, lambda h, r, d: [(r, d), (d, r + 1)], (0, 1)),
    "matmul 3@3": (ad.matmul, lambda h, r, d: [(h, r, d), (h, d, r)], (0, 1)),
    "add same": (ad.add, lambda h, r, d: [(h, r, d), (h, r, d)], (0, 1)),
    "add bias 2-D": (ad.add, lambda h, r, d: [(r, d), (d,)], (0, 1)),
    "add bias 3-D": (ad.add, lambda h, r, d: [(h, r, d), (d,)], (0, 1)),
    "mul": (ad.mul, lambda h, r, d: [(r, d), (r, d)], (0, 1)),
    "scale": (lambda a: ad.scale(a, 0.3), lambda h, r, d: [(h, r, d)], (0,)),
    "softmax": (_softmax, lambda h, r, d: [(h, r, d + 2)], (0,)),
    "log_softmax": (ad.log_softmax, lambda h, r, d: [(r, d)], (0,)),
    "gelu": (ad.gelu, lambda h, r, d: [(r, d)], (0,)),
    "layer_norm": (ad.layer_norm, lambda h, r, d: [(r, d), (d,), (d,)],
                   (0, 1, 2)),
    "transpose": (ad.transpose, lambda h, r, d: [(h, r, d)], (0,)),
    "reshape to column": (lambda a: ad.reshape(a, (a.dims[0], 1)),
                          lambda h, r, d: [(d,)], (0,)),
    "reshape to vector": (lambda a: ad.reshape(a, (a.data.size,)),
                          lambda h, r, d: [(d, 1)], (0,)),
    "gather_rows": (_gather, lambda h, r, d: [(r + 3, d)], (0,)),
    "fill_rows": (_fill, lambda h, r, d: [(r + 4, d), (d,)], (0, 1)),
    "rel_position_gather": (ad.rel_position_gather,
                            lambda h, r, d: [(h, r, 2 * r - 1)], (0,)),
    "merge_heads": (lambda a: ad.merge_heads(a, 3),
                    lambda h, r, d: [(3 * h, r, d)], (0,)),
    "split_heads": (lambda a: ad.split_heads(a, 3, a.dims[0] // 2),
                    lambda h, r, d: [(2 * r, 3 * d)], (0,)),
    "sum_all": (ad.sum_all, lambda h, r, d: [(h, r, d)], (0,)),
    "segment_sum": (_segments, lambda h, r, d: [(r + 2, h, d)], (0,)),
    "sum_all scalar": (ad.sum_all, lambda h, r, d: [()], (0,)),
}


def assert_same_values(got, expected):
    """Bitwise equality of finite arrays, including longdouble ones, whose
    storage carries padding bytes: equal values with equal signs."""
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestStackedKernels:
    """The kernel a recording tape records for each primitive, run once with
    one operand replaced by a stack of variants shaped (n, 1, ..., 1,
    *shape), equals the primitive's forward on each variant, bitwise."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("case,which", [
        (case, which) for case, (_, _, stackable) in sorted(KERNEL_CASES.items())
        for which in stackable])
    @settings(max_examples=10, deadline=None)
    @given(heads=st.integers(1, 3), rows=st.integers(1, 5),
           width=st.integers(1, 6), depth=st.integers(1, 4),
           extra_rank=st.integers(0, 2), seed=st.integers(0, 2 ** 16))
    def test_each_slice_equals_a_forward(self, case, which, dtype, heads,
                                         rows, width, depth, extra_rank,
                                         seed):
        op, shapes, _ = KERNEL_CASES[case]
        rng = stream(seed, "kernels")
        operands = [rng.normal(size=s).astype(dtype)
                    for s in shapes(heads, rows, width)]
        tape = ad.Tape(record=True)
        leaves = [tape.leaf(o) for o in operands]
        op(*leaves)
        kernel, args, slots, value = tape.calls[-1]
        pos = next(p for p, src in slots if src == leaves[which].node_id)
        rank = max([value.ndim] + [o.ndim for o in operands]) + extra_rank

        def stacked(shape):
            return (depth,) + (1,) * (rank - len(shape)) + shape

        shape = operands[which].shape
        variants = [rng.normal(size=shape).astype(dtype) for _ in range(depth)]
        call = list(args)
        call[pos] = np.stack(variants).reshape(stacked(shape))
        got = kernel(*call)
        if type(got) is tuple:
            got = got[0]
        got = np.ascontiguousarray(got).reshape(stacked(value.shape))
        for i, variant in enumerate(variants):
            one = list(operands)
            one[which] = variant
            expected = op(*[ad.constant(o) for o in one]).data
            assert_same_values(got[i].reshape(expected.shape), expected)


    @pytest.mark.parametrize("quick", [True, False])
    def test_cases_cover_every_kernel_of_both_losses(self, quick):
        """Every kernel that either ``grad-check`` loss records is recorded
        by some ``KERNEL_CASES`` entry, so a primitive the encoder starts
        using cannot skip the test above."""
        covered = set()
        for op, shapes, _ in KERNEL_CASES.values():
            tape = ad.Tape(record=True)
            op(*[tape.leaf(np.ones(s)) for s in shapes(2, 3, 4)])
            covered.update(kernel for kernel, *_ in tape.calls if kernel)
        params, builds = grad_check_problem(3, quick=quick)
        for name, build in builds.items():
            tape = ad.Tape(record=True)
            build({key: tape.leaf(value) for key, value in params.items()})
            used = {kernel for kernel, *_ in tape.calls if kernel}
            missing = sorted(kernel.__name__ for kernel in used - covered)
            assert not missing, (name, missing)

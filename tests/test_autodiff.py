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


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(np.zeros(3))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_stability(self):
        out = ad.softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_long_hand(self):
        # e^{x-3} / sum for x = [1, 2, 3], evaluated with scalar math.exp
        e = [math.exp(1 - 3), math.exp(2 - 3), math.exp(3 - 3)]
        z = sum(e)
        expected = [v / z for v in e]
        out = ad.softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12))
    def test_rows_sum_to_one(self, values):
        out = ad.softmax(np.array(values))
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
            frozen = {n: ad.Tensor(b, check=False) for n, b in buffers.items()}
            indices = range(leaf.data.size)
            replayed = np.array(list(record.slopes(name, indices, eps)))
            full = np.array([ad._fd_slope(lambda: build(frozen), buffers[name],
                                          i, eps) for i in indices])
            assert replayed.tobytes() == full.tobytes(), name

    def test_recording_tape_rejects_dropout(self):
        tape = ad.Tape(record=True)
        with pytest.raises(ad.ContractError):
            ad.dropout(tape.leaf(np.ones(3)), 0.5, stream(1, "drop"))


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

    def test_masked_fill_blocks_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        mask = np.array([[False, True], [False, False]])
        out = ad.masked_fill(x, mask, -7.0)
        assert out.data[0, 1] == -7.0
        grads = ad.backward(tape, ad.sum_all(out))
        np.testing.assert_array_equal(grads[x.node_id].data, 1.0 - mask)

    def test_rel_position_gather(self):
        t_len = 3
        x = np.arange(15.0).reshape(3, 5)
        out = ad.rel_position_gather(x)
        expected = np.array([[x[i, i - j + t_len - 1] for j in range(t_len)]
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

    def test_dropout_reproducible_and_inverted(self):
        x = ad.constant(np.ones((50, 20)))
        a = ad.dropout(x, 0.3, stream(11, "drop")).data
        b = ad.dropout(x, 0.3, stream(11, "drop")).data
        np.testing.assert_array_equal(a, b)
        kept = a[a != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)

    def test_mixing_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ad.ContractError):
            ad.add(a, b)

    def test_nonfinite_rejected_at_creation(self):
        with pytest.raises(ad.ContractError):
            ad.Tensor(np.array([1.0, np.nan]))


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        def run():
            rng = stream(12, "det")
            tape = ad.Tape()
            w = tape.leaf(rng.normal(size=(6, 6)))
            x = ad.constant(rng.normal(size=(4, 6)))
            h = ad.dropout(ad.gelu(ad.matmul(x, w)), 0.2, stream(12, "det", "drop"))
            loss = ad.sum_all(ad.mul(h, h))
            grads = ad.backward(tape, loss)
            return loss.item(), grads[w.node_id].data.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

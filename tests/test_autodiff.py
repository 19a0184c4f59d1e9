from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgzsl import autodiff as ad
from kgzsl.errors import ContractError, ShapeError

from .helpers import layer_norm_reference


def rng():
    return np.random.Generator(np.random.PCG64(1234))


def weighted_sum(out, r):
    """Reduce an op output to a scalar with fixed random weights."""
    c = ad.constant(r.normal(size=out.shape))
    return ad.sum(ad.multiply(out, c))


def p(r, *shape, name=None):
    return ad.Tensor(r.normal(size=shape), requires_grad=True, name=name)


class TestForwardValues:
    def test_matmul_matrix_vector(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([1.0, 1.0])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [3.0, 7.0])

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(ShapeError) as err:
            ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0, 2.0]]))
        assert "matmul" in str(err.value)

    def test_matmul_t_is_product_with_transpose(self):
        r = rng()
        a, b = ad.Tensor(r.normal(size=(3, 4))), ad.Tensor(r.normal(size=(2, 4)))
        np.testing.assert_allclose(ad.matmul_t(a, b).data, a.data @ b.data.T, rtol=1e-12)
        with pytest.raises(ShapeError):
            ad.matmul_t(a, ad.Tensor(r.normal(size=(4, 2))))

    def test_stacked_products_equal_per_item_products_bitwise(self):
        # the level-batched aggregators rely on each stacked op rounding
        # exactly like the same op on one item
        r = rng()
        x = ad.Tensor(r.normal(size=(4, 3, 5)))
        w = ad.Tensor(r.normal(size=(2, 5)))
        v = ad.Tensor(r.normal(size=5))
        y = ad.Tensor(r.normal(size=(4, 6, 5)))
        z = ad.Tensor(r.normal(size=(4, 5, 2)))
        for i in range(4):
            xi = ad.Tensor(x.data[i])
            assert ad.matmul_t(x, w).data[i].tobytes() == ad.matmul_t(xi, w).data.tobytes()
            assert (ad.matmul_t(x, y).data[i].tobytes()
                    == ad.matmul_t(xi, ad.Tensor(y.data[i])).data.tobytes())
            assert (ad.matmul(x, z).data[i].tobytes()
                    == ad.matmul(xi, ad.Tensor(z.data[i])).data.tobytes())
            for j in range(3):
                row = ad.Tensor(x.data[i, j])
                assert ad.matvec(w, x).data[i, j].tobytes() == ad.matmul(w, row).data.tobytes()
                assert ad.dot_rows(x, v).data[i, j].tobytes() == ad.matmul(v, row).data.tobytes()

    def test_stacked_shape_errors(self):
        r = rng()
        x = ad.Tensor(r.normal(size=(4, 3, 5)))
        with pytest.raises(ShapeError):
            ad.matmul_t(x, ad.Tensor(r.normal(size=(2, 3, 5))))
        with pytest.raises(ShapeError):
            ad.matvec(ad.Tensor(r.normal(size=(2, 4))), x)
        with pytest.raises(ShapeError):
            ad.dot_rows(x, ad.Tensor(r.normal(size=4)))
        with pytest.raises(ShapeError):
            ad.reshape(x, (5, 5))
        with pytest.raises(ShapeError):
            ad.mean(x, axis=2)

    def test_gather_takes_rows_and_sums_repeated_gradients(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = ad.gather(a, np.array([[2, 0], [2, 2]]))
        np.testing.assert_array_equal(out.data[1, 1], [5.0, 6.0])
        ad.backward(ad.sum(out))
        np.testing.assert_array_equal(a.grad, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])
        with pytest.raises(ContractError):
            ad.gather(a, np.array([3]))

    def test_add_bias_broadcast(self):
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([10.0, 20.0])
        np.testing.assert_array_equal(ad.add(m, b).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_softmax_rows_sum_to_one(self):
        x = ad.Tensor([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = ad.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), [1.0, 1.0])

    def test_softmax_shift_invariant(self):
        x = np.array([1.0, 5.0, -2.0])
        a = ad.softmax(ad.Tensor(x)).data
        b = ad.softmax(ad.Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_cross_entropy_matches_log_softmax(self):
        logits = ad.Tensor([0.2, -1.0, 3.0])
        value = ad.cross_entropy(logits, 1).data
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        np.testing.assert_allclose(value, -np.log(probs[1]), rtol=1e-12)

    def test_binary_cross_entropy_matches_naive(self):
        x = np.array([0.5, -0.3, 2.0])
        y = np.array([1.0, 0.0, 1.0])
        out = ad.binary_cross_entropy(ad.Tensor(x), y).data
        sig = 1 / (1 + np.exp(-x))
        naive = -(y * np.log(sig) + (1 - y) * np.log(1 - sig))
        np.testing.assert_allclose(out, naive, rtol=1e-10)

    def test_l2_loss_fixed_gradient(self):
        w = ad.Tensor([1.0, 2.0], requires_grad=True)
        target = ad.Tensor([0.0, 0.0])
        loss = ad.l2_loss(w, target)
        assert loss.data == 5.0
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_leaky_relu_slope(self):
        x = ad.Tensor([-1.0, 2.0])
        np.testing.assert_allclose(ad.leaky_relu(x, 0.2).data, [-0.2, 2.0])

    def test_layer_norm_zero_mean_unit_var(self):
        r = rng()
        x = ad.Tensor(r.normal(size=7))
        out = ad.layer_norm(x, ad.Tensor(np.ones(7)), ad.Tensor(np.zeros(7)))
        assert abs(out.data.mean()) < 1e-9
        assert abs(out.data.std() - 1.0) < 1e-3


def scaled_arrays(shape, min_exp, max_exp):
    """Float64 arrays of `shape`: entries in [-1, 1] or a signed zero, times 10**e."""
    unit = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0])
    return st.tuples(
        hnp.arrays(np.float64, shape, elements=unit),
        st.integers(min_exp, max_exp),
    ).map(lambda pair: pair[0] * 10.0 ** pair[1])


@st.composite
def layer_norm_inputs(draw):
    d = draw(st.integers(1, 6))
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))
    x = draw(scaled_arrays(lead + (d,), -150, 150))
    if draw(st.booleans()):
        # constant rows: zero variance
        x = np.broadcast_to(x[..., :1], x.shape).copy()
    gain = draw(hnp.arrays(np.float64, d, elements=st.floats(-2.0, 2.0)))
    bias = draw(hnp.arrays(np.float64, d, elements=st.floats(-2.0, 2.0)))
    return x, gain, bias


class TestNumpyEquivalence:
    """The sum-and-divide statistics are bitwise the np.mean / np.var ones."""

    @settings(max_examples=200, deadline=None)
    @given(layer_norm_inputs())
    def test_layer_norm_forward_equals_numpy_oracle(self, case):
        x, gain, bias = case
        out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias)).data
        assert out.tobytes() == layer_norm_reference(x, gain, bias).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([((5,), None), ((3, 4), None), ((3, 4), 0), ((3, 4), 1),
                         ((2, 3, 4), None), ((2, 3, 4), 0), ((2, 3, 4), 1)])
        .flatmap(lambda case: st.tuples(scaled_arrays(case[0], -100, 100), st.just(case[1])))
    )
    def test_mean_equals_np_mean(self, case):
        x, axis = case
        assert ad.mean(ad.Tensor(x), axis=axis).data.tobytes() == np.mean(x, axis=axis).tobytes()


# a table-driven grad check over every op keeps each case tiny
GRAD_CASES = {}


def grad_case(name):
    def deco(fn):
        GRAD_CASES[name] = fn
        return fn
    return deco


@grad_case("matmul_mat_mat")
def _(r):
    a, b = p(r, 3, 4), p(r, 4, 2)
    return lambda: weighted_sum(ad.matmul(a, b), rng()), {"a": a, "b": b}


@grad_case("matmul_mat_vec")
def _(r):
    a, b = p(r, 3, 4), p(r, 4)
    return lambda: weighted_sum(ad.matmul(a, b), rng()), {"a": a, "b": b}


@grad_case("matmul_vec_mat")
def _(r):
    a, b = p(r, 4), p(r, 4, 2)
    return lambda: weighted_sum(ad.matmul(a, b), rng()), {"a": a, "b": b}


@grad_case("matmul_vec_vec")
def _(r):
    a, b = p(r, 5), p(r, 5)
    return lambda: ad.matmul(a, b), {"a": a, "b": b}


@grad_case("matmul_t")
def _(r):
    a, b = p(r, 3, 4), p(r, 2, 4)
    return lambda: weighted_sum(ad.matmul_t(a, b), rng()), {"a": a, "b": b}


@grad_case("add_same")
def _(r):
    a, b = p(r, 3, 2), p(r, 3, 2)
    return lambda: weighted_sum(ad.add(a, b), rng()), {"a": a, "b": b}


@grad_case("add_bias")
def _(r):
    a, b = p(r, 3, 2), p(r, 2)
    return lambda: weighted_sum(ad.add(a, b), rng()), {"a": a, "b": b}


@grad_case("subtract")
def _(r):
    a, b = p(r, 4), p(r, 4)
    return lambda: weighted_sum(ad.subtract(a, b), rng()), {"a": a, "b": b}


@grad_case("multiply")
def _(r):
    a, b = p(r, 3, 2), p(r, 3, 2)
    return lambda: weighted_sum(ad.multiply(a, b), rng()), {"a": a, "b": b}


@grad_case("multiply_scalar")
def _(r):
    a, s = p(r, 4), p(r)
    return lambda: weighted_sum(ad.multiply(a, s), rng()), {"a": a, "s": s}


@grad_case("divide")
def _(r):
    a = p(r, 4)
    b = ad.Tensor(r.uniform(0.5, 2.0, size=4), requires_grad=True)
    return lambda: weighted_sum(ad.divide(a, b), rng()), {"a": a, "b": b}


@grad_case("divide_scalar")
def _(r):
    a = p(r, 4)
    s = ad.Tensor(r.uniform(0.5, 2.0), requires_grad=True)
    return lambda: weighted_sum(ad.divide(a, s), rng()), {"a": a, "s": s}


@grad_case("add_const_scale")
def _(r):
    a = p(r, 3)
    return lambda: ad.sum(ad.scale(ad.add_const(a, 2.5), -1.7)), {"a": a}


@grad_case("concat_1d")
def _(r):
    a, b, c = p(r, 2), p(r, 3), p(r, 1)
    return lambda: weighted_sum(ad.concat([a, b, c]), rng()), {"a": a, "b": b, "c": c}


@grad_case("concat_2d_axis1")
def _(r):
    a, b = p(r, 2, 3), p(r, 2, 2)
    return lambda: weighted_sum(ad.concat([a, b], axis=1), rng()), {"a": a, "b": b}


@grad_case("stack_vectors")
def _(r):
    a, b = p(r, 3), p(r, 3)
    return lambda: weighted_sum(ad.stack([a, b]), rng()), {"a": a, "b": b}


@grad_case("stack_scalars")
def _(r):
    a, b = p(r), p(r)
    return lambda: weighted_sum(ad.stack([a, b]), rng()), {"a": a, "b": b}


@grad_case("transpose")
def _(r):
    a = p(r, 2, 4)
    return lambda: weighted_sum(ad.transpose(a), rng()), {"a": a}


@grad_case("element")
def _(r):
    a = p(r, 5)
    return lambda: ad.multiply(ad.element(a, 2), ad.element(a, 4)), {"a": a}


@grad_case("row")
def _(r):
    a = p(r, 3, 4)
    return lambda: weighted_sum(ad.row(a, 1), rng()), {"a": a}


@grad_case("sum_all")
def _(r):
    a = p(r, 3, 2)
    return lambda: ad.sum(a), {"a": a}


@grad_case("sum_axis0")
def _(r):
    a = p(r, 3, 2)
    return lambda: weighted_sum(ad.sum(a, axis=0), rng()), {"a": a}


@grad_case("sum_axis1")
def _(r):
    a = p(r, 3, 2)
    return lambda: weighted_sum(ad.sum(a, axis=1), rng()), {"a": a}


@grad_case("sum_axis1_3d")
def _(r):
    a = p(r, 2, 3, 4)
    return lambda: weighted_sum(ad.sum(a, axis=1), rng()), {"a": a}


@grad_case("mean_all")
def _(r):
    a = p(r, 4)
    return lambda: ad.mean(a), {"a": a}


@grad_case("mean_axis0")
def _(r):
    a = p(r, 3, 2)
    return lambda: weighted_sum(ad.mean(a, axis=0), rng()), {"a": a}


@grad_case("mean_axis1")
def _(r):
    a = p(r, 3, 2)
    return lambda: weighted_sum(ad.mean(a, axis=1), rng()), {"a": a}


@grad_case("sigmoid")
def _(r):
    a = p(r, 6)
    return lambda: weighted_sum(ad.sigmoid(a), rng()), {"a": a}


@grad_case("tanh")
def _(r):
    a = p(r, 6)
    return lambda: weighted_sum(ad.tanh(a), rng()), {"a": a}


@grad_case("relu")
def _(r):
    a = p(r, 6)
    return lambda: weighted_sum(ad.relu(a), rng()), {"a": a}


@grad_case("leaky_relu")
def _(r):
    a = p(r, 6)
    return lambda: weighted_sum(ad.leaky_relu(a, 0.2), rng()), {"a": a}


@grad_case("exp")
def _(r):
    a = p(r, 5)
    return lambda: weighted_sum(ad.exp(a), rng()), {"a": a}


@grad_case("log")
def _(r):
    a = ad.Tensor(r.uniform(0.5, 2.0, size=5), requires_grad=True)
    return lambda: weighted_sum(ad.log(a), rng()), {"a": a}


@grad_case("softmax_1d")
def _(r):
    a = p(r, 5)
    return lambda: weighted_sum(ad.softmax(a), rng()), {"a": a}


@grad_case("softmax_2d")
def _(r):
    a = p(r, 3, 4)
    return lambda: weighted_sum(ad.softmax(a, axis=1), rng()), {"a": a}


@grad_case("layer_norm_1d")
def _(r):
    x, g_, b = p(r, 6), p(r, 6), p(r, 6)
    return lambda: weighted_sum(ad.layer_norm(x, g_, b), rng()), {"x": x, "g": g_, "b": b}


@grad_case("layer_norm_2d")
def _(r):
    x, g_, b = p(r, 3, 5), p(r, 5), p(r, 5)
    return lambda: weighted_sum(ad.layer_norm(x, g_, b), rng()), {"x": x, "g": g_, "b": b}


@grad_case("matmul_stacked")
def _(r):
    a, b = p(r, 2, 3, 4), p(r, 2, 4, 3)
    return lambda: weighted_sum(ad.matmul(a, b), rng()), {"a": a, "b": b}


@grad_case("matmul_t_stacked_shared")
def _(r):
    a, b = p(r, 2, 3, 4), p(r, 5, 4)
    return lambda: weighted_sum(ad.matmul_t(a, b), rng()), {"a": a, "b": b}


@grad_case("matmul_t_stacked")
def _(r):
    a, b = p(r, 2, 3, 4), p(r, 2, 5, 4)
    return lambda: weighted_sum(ad.matmul_t(a, b), rng()), {"a": a, "b": b}


@grad_case("matvec")
def _(r):
    w, x = p(r, 3, 4), p(r, 2, 5, 4)
    return lambda: weighted_sum(ad.matvec(w, x), rng()), {"w": w, "x": x}


@grad_case("dot_rows")
def _(r):
    x, v = p(r, 2, 3, 4), p(r, 4)
    return lambda: weighted_sum(ad.dot_rows(x, v), rng()), {"x": x, "v": v}


@grad_case("gather")
def _(r):
    a = p(r, 4, 3)
    index = np.array([[3, 0, 3], [1, 1, 2]])
    return lambda: weighted_sum(ad.gather(a, index), rng()), {"a": a}


@grad_case("reshape")
def _(r):
    a = p(r, 2, 6)
    return lambda: weighted_sum(ad.reshape(a, (3, 1, 4)), rng()), {"a": a}


@grad_case("add_bias_3d")
def _(r):
    a, b = p(r, 2, 3, 4), p(r, 4)
    return lambda: weighted_sum(ad.add(a, b), rng()), {"a": a, "b": b}


@grad_case("mean_axis1_3d")
def _(r):
    a = p(r, 2, 3, 4)
    return lambda: weighted_sum(ad.mean(a, axis=1), rng()), {"a": a}


@grad_case("softmax_3d")
def _(r):
    a = p(r, 2, 3, 4)
    return lambda: weighted_sum(ad.softmax(a, axis=-1), rng()), {"a": a}


@grad_case("layer_norm_3d")
def _(r):
    x, g_, b = p(r, 2, 3, 5), p(r, 5), p(r, 5)
    return lambda: weighted_sum(ad.layer_norm(x, g_, b), rng()), {"x": x, "g": g_, "b": b}


@grad_case("cross_entropy")
def _(r):
    a = p(r, 5)
    return lambda: ad.cross_entropy(a, 2), {"a": a}


@grad_case("binary_cross_entropy")
def _(r):
    a = p(r, 5)
    y = (r.random(5) > 0.5).astype(float)
    return lambda: weighted_sum(ad.binary_cross_entropy(a, y), rng()), {"a": a}


@grad_case("l2_loss")
def _(r):
    a, b = p(r, 4), p(r, 4)
    return lambda: ad.l2_loss(a, b), {"a": a, "b": b}


class TestGradCheckAllOps:
    @pytest.mark.parametrize("name", sorted(GRAD_CASES))
    def test_op(self, name):
        fn, params = GRAD_CASES[name](rng())
        report = ad.grad_check(fn, params)
        assert report.passed, f"{name}: {report.max_rel_err}"

    def test_negative_control_fails(self):
        # a deliberately wrong backward must be caught, or the whole
        # gradient suite proves nothing
        t = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)

        def bad_square():
            out_data = t.data ** 2

            def backward(g):
                t._accumulate(g * 3.0 * t.data)  # true factor is 2
            out = ad._make(out_data, (t,), backward)
            return ad.sum(out)

        report = ad.grad_check(bad_square, {"t": t})
        assert not report.passed
        assert report.worst() > 1e-3


class TestBackward:
    def test_reuse_accumulates(self):
        w = ad.Tensor([3.0], requires_grad=True)
        # loss = w*w + 2w, d/dw = 2w + 2 = 8
        loss = ad.sum(ad.add(ad.multiply(w, w), ad.scale(w, 2.0)))
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        w = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.multiply(w, w))

    def test_tape_traverses_each_op_once(self):
        calls = []
        t = ad.Tensor([1.0], requires_grad=True)

        def counted_identity():
            def backward(g):
                calls.append(1)
                t._accumulate(g)
            return ad._make(t.data.copy(), (t,), backward)

        mid = counted_identity()
        loss = ad.sum(ad.add(mid, mid))  # diamond reuse
        ad.backward(loss)
        assert len(calls) == 1
        np.testing.assert_allclose(t.grad, [2.0])

    def test_deep_chain_does_not_recurse(self):
        t = ad.Tensor([1.0], requires_grad=True)
        x = t
        for _ in range(5000):
            x = ad.scale(x, 1.0)
        ad.backward(ad.sum(x))
        np.testing.assert_allclose(t.grad, [1.0])

    def test_no_grad_blocks_recording(self):
        w = ad.Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            out = ad.multiply(w, w)
        assert not out.requires_grad
        assert out._parents == ()


class TestInit:
    def test_glorot_bounds_and_determinism(self):
        r1 = np.random.Generator(np.random.PCG64(7))
        r2 = np.random.Generator(np.random.PCG64(7))
        w1 = ad.glorot((20, 30), r1)
        w2 = ad.glorot((20, 30), r2)
        np.testing.assert_array_equal(w1, w2)
        limit = np.sqrt(6.0 / 50.0)
        assert np.all(np.abs(w1) <= limit)
        assert w1.std() > 0

    def test_zeros_param(self):
        b = ad.zeros_param((4,), name="bias")
        np.testing.assert_array_equal(b.data, np.zeros(4))
        assert b.requires_grad


class TestAdam:
    def test_first_step_is_lr_sized(self):
        w = ad.Tensor([5.0], requires_grad=True)
        opt = ad.Adam({"w": w}, lr=0.001)
        loss = ad.l2_loss(w, ad.Tensor([0.0]))
        ad.backward(loss)
        opt.step()
        np.testing.assert_allclose(w.data, [5.0 - 0.001], atol=1e-9)

    def test_converges_on_quadratic(self):
        w = ad.Tensor([4.0, -2.0], requires_grad=True)
        target = ad.Tensor([1.0, 3.0])
        opt = ad.Adam({"w": w}, lr=0.05)
        for _ in range(2000):
            opt.zero_grad()
            loss = ad.l2_loss(w, target)
            ad.backward(loss)
            opt.step()
        np.testing.assert_allclose(w.data, [1.0, 3.0], atol=1e-4)

    def test_weight_decay_is_decoupled(self):
        w1 = ad.Tensor([2.0], requires_grad=True)
        w2 = ad.Tensor([2.0], requires_grad=True)
        for w, wd in ((w1, 0.0), (w2, 0.1)):
            opt = ad.Adam({"w": w}, lr=0.01, weight_decay=wd)
            loss = ad.l2_loss(w, ad.Tensor([0.0]))
            ad.backward(loss)
            opt.step()
        # decay moves the weight by exactly lr * wd * w on top of the
        # adaptive step, independent of the gradient magnitude
        np.testing.assert_allclose(w1.data[0] - w2.data[0], 0.01 * 0.1 * 2.0, rtol=1e-9)

    def test_skips_parameters_without_grad(self):
        w = ad.Tensor([1.0], requires_grad=True)
        untouched = ad.Tensor([9.0], requires_grad=True)
        opt = ad.Adam({"w": w, "u": untouched}, lr=0.1)
        loss = ad.l2_loss(w, ad.Tensor([0.0]))
        ad.backward(loss)
        opt.step()
        np.testing.assert_array_equal(untouched.data, [9.0])


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        r = rng()
        params = {"w": p(r, 3, 2, name="w"), "b": p(r, 2, name="b")}
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(params, path)
        loaded = ad.load_checkpoint(path)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k].data)

    def test_serialization_is_byte_stable(self, tmp_path):
        r = rng()
        params = {"w": p(r, 4, 4)}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ad.save_checkpoint(params, p1)
        ad.save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema(self, tmp_path):
        params = {"w": ad.Tensor([[1.0, 2.0]], requires_grad=True)}
        path = tmp_path / "c.json"
        ad.save_checkpoint(params, path)
        obj = json.loads(path.read_text())
        assert obj == {"w": {"shape": [1, 2], "data": [1.0, 2.0]}}

    def test_load_into_checks_shapes(self, tmp_path):
        path = tmp_path / "c.json"
        ad.save_checkpoint({"w": ad.Tensor([1.0, 2.0], requires_grad=True)}, path)
        target = {"w": ad.Tensor([[1.0], [2.0]], requires_grad=True)}
        with pytest.raises(ShapeError):
            ad.load_into(target, path)

    def test_load_into_missing_param(self, tmp_path):
        path = tmp_path / "c.json"
        ad.save_checkpoint({"w": ad.Tensor([1.0], requires_grad=True)}, path)
        with pytest.raises(ContractError):
            ad.load_into({"other": ad.Tensor([1.0], requires_grad=True)}, path)

    def test_load_into_extra_param(self, tmp_path):
        path = tmp_path / "c.json"
        ad.save_checkpoint({"w": ad.Tensor([1.0], requires_grad=True),
                            "stale": ad.Tensor([2.0], requires_grad=True)}, path)
        target = {"w": ad.Tensor([0.0], requires_grad=True)}
        with pytest.raises(ContractError) as err:
            ad.load_into(target, path)
        assert "stale" in str(err.value)

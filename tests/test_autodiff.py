from __future__ import annotations

import ast
import base64
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgzsl import autodiff as ad
from kgzsl.aggregators import ACTIVATIONS, TransformerPoolLayer
from kgzsl.encoders import SentenceEncoder
from kgzsl.errors import ContractError, DataError, ShapeError
from kgzsl.zeroshot import BilinearHead

from .helpers import (ComposedTransformerLayer, ReferenceAdam, composed_bilinear_scores,
                      id_keyed_tape_order, layer_norm_reference)


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

    @given(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
           st.one_of(st.integers(1, 64), st.just(300)), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_dot_rows_equals_per_row_products_bitwise(self, lead, width, seed):
        r = np.random.default_rng(seed)
        x, v = r.normal(size=lead + (width,)), r.normal(size=width)
        want = np.array([xi @ v for xi in x.reshape(-1, width)]).reshape(lead)
        assert ad.dot_rows(ad.constant(x), ad.constant(v)).data.tobytes() == want.tobytes()

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


def block_tensors(r, width, out_dim=3):
    """Random parameters of a transformer group over rows `width` wide:
    the block's 14, then the (out_dim, 2 width) combine weight."""
    proj = max(1, width // 2)
    shapes = [(proj, width)] + [(proj, proj)] * 4 + [(proj,)] * 4 + [
        (proj, proj), (proj,), (proj, proj), (proj,), (width, proj), (out_dim, 2 * width)]
    return [p(r, *shape) for shape in shapes]


@grad_case("transformer_block")
def _(r):
    prev, params = p(r, 5, 6), block_tensors(r, 6)
    rows = np.array([[0, 3, 3], [3, 1, 1]])
    named = {"prev": prev, **{f"w{i}": t for i, t in enumerate(params)}}
    return lambda: weighted_sum(ad.transformer_block(prev, rows, *params), rng()), named


@grad_case("bilinear_scores")
def _(r):
    theta, b, a, phis = p(r, 4), p(r, 4, 3), p(r, 3, 5), p(r, 6, 5)
    named = {"theta": theta, "b": b, "a": a, "phis": phis}
    return lambda: weighted_sum(ad.bilinear_scores(theta, b, a, phis), rng()), named


@grad_case("bilinear_scores_list")
def _(r):
    theta, b, a = p(r, 3), p(r, 3, 2), p(r, 2, 4)
    phi0, phi1 = p(r, 4), p(r, 4)
    named = {"theta": theta, "b": b, "a": a, "phi0": phi0, "phi1": phi1}
    # phi0 is a candidate twice
    return lambda: weighted_sum(ad.bilinear_scores(theta, b, a, [phi0, phi1, phi0]), rng()), named


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

    @pytest.mark.parametrize("name", sorted(GRAD_CASES))
    def test_every_gradient_is_an_array_of_its_tensors_shape(self, name):
        # a first write must leave a fresh float64 array, not a numpy
        # scalar, for 0-d tensors too (the loss; a () factor of multiply
        # or divide), in C order, as every later += and reduction expects
        fn, _ = GRAD_CASES[name](rng())
        loss = fn()
        ad.backward(loss)
        written = [t for t in ad.Tape.from_output(loss)._ordered if t.grad is not None]
        assert loss in written
        for t in written:
            assert type(t.grad) is np.ndarray and t.grad.dtype == np.float64, (name, t)
            assert t.grad.shape == t.data.shape and t.grad.flags.c_contiguous, (name, t)

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

    def test_every_recording_op_has_a_case(self):
        # a public op that records a tape node must be named by some case
        # (`scale` by add_const_scale), or its backward goes unchecked
        tree = ast.parse(inspect.getsource(ad))
        ops = [f.name for f in tree.body
               if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
               and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "_make" for n in ast.walk(f))]
        assert "bilinear_scores" in ops and "scale" in ops
        assert [op for op in ops if not any(op in case for case in GRAD_CASES)] == []


def transformer_layer(in_dim, out_dim, activation, seed):
    return ComposedTransformerLayer(in_dim, out_dim, activation=activation,
                                    rng=np.random.Generator(np.random.PCG64(seed)))


# one layer's parameters through the fused op and through the composed oracle
FUSED, COMPOSED = TransformerPoolLayer.forward_group, ComposedTransformerLayer.forward_group


class TestTransformerBlock:
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 4),
        count=st.integers(1, 6),
        in_dim=st.integers(1, 6),
        out_dim=st.integers(1, 4),
        mode=st.sampled_from(["train", "eval", "no_grad"]),
        prev_grad=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_composed_ops(self, seed, batch, count, in_dim, out_dim, mode, prev_grad):
        r = np.random.Generator(np.random.PCG64(seed))
        # fewer rows than members, so rows repeat within and across sets,
        # and some rows are equal, so the canonical order has ties
        num_rows = int(r.integers(1, batch * count + 1))
        data = r.normal(size=(num_rows, in_dim))
        data[r.random(num_rows) < 0.3] = data[0]
        prev = ad.Tensor(data, requires_grad=prev_grad)
        rows = r.integers(0, num_rows, size=(batch, count))
        # some upstream gradients are signed zeros
        weights = ad.constant(r.normal(size=(batch, out_dim)) * (r.random((batch, out_dim)) > 0.3))

        def run(forward_group, layer):
            leaves = [prev, *layer.parameters().values()]
            for t in leaves:
                t.zero_grad()
            if mode == "no_grad":
                with ad.no_grad():
                    out = forward_group(layer, prev, rows)
                assert not out.requires_grad
                return out.data.tobytes(), []
            out = forward_group(layer, prev, rows)
            if mode == "eval":
                return out.data.tobytes(), []
            ad.backward(ad.sum(ad.multiply(out, weights)))
            assert all(t.grad is not None for t in leaves[1:])
            assert (prev.grad is not None) == prev_grad
            return out.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in leaves]

        for activation in sorted(ACTIVATIONS):
            layer = transformer_layer(in_dim, out_dim, activation, seed)
            assert run(FUSED, layer) == run(COMPOSED, layer), activation

    def test_three_level_stack_two_groups_per_level(self):
        # each level runs two member counts over shared rows of the level
        # below, so prev's gradient adds up over both groups of every
        # level in the tape's order
        r = rng()
        widths = [5, 4, 3, 2]
        layers = [transformer_layer(d_in, d_out, "tanh", i) for i, (d_in, d_out) in
                  enumerate(zip(widths, widths[1:]))]
        base = ad.Tensor(r.normal(size=(6, widths[0])), requires_grad=True)
        weights = ad.constant(r.normal(size=(4, widths[-1])))
        groups = [(r.integers(0, 6, size=(2, 3)), r.integers(0, 6, size=(4, 2)))
                  for _ in layers]
        leaves = [base] + [t for layer in layers for t in layer.parameters().values()]

        def run(forward_group):
            for t in leaves:
                t.zero_grad()
            prev = base
            for layer, (small, large) in zip(layers, groups):
                prev = ad.concat([forward_group(layer, prev, small), forward_group(layer, prev, large)])
            ad.backward(ad.sum(ad.multiply(ad.gather(prev, np.arange(4)), weights)))
            return prev.data.tobytes(), [t.grad.tobytes() for t in leaves]

        assert run(FUSED) == run(COMPOSED)

    def test_is_one_tape_node(self):
        r = rng()
        prev = p(r, 4, 4)
        out = ad.transformer_block(prev, np.array([[0, 1, 1], [2, 3, 0]]), *block_tensors(r, 4))
        # the op, prev and its 15 parameters
        assert len(ad.Tape.from_output(out)) == 17
        # with its activation, a group is two nodes
        layer = TransformerPoolLayer(4, 3, rng=r)
        assert len(ad.Tape.from_output(layer.forward_group(ad.constant(prev.data), np.array([[0, 1]])))) == 18

    @pytest.mark.parametrize("shape", [(5, 5), (2, 3, 4), (4, 3)])
    def test_wrong_member_width_names_op(self, shape):
        r = rng()
        rows = np.zeros((1, 2), dtype=int)
        with pytest.raises(ShapeError) as err:
            ad.transformer_block(p(r, *shape), rows, *block_tensors(r, 4))
        assert "transformer_block" in str(err.value)

    @pytest.mark.parametrize("shape", [(3, 7), (3, 9), (6,)])
    def test_wrong_combine_width_names_op(self, shape):
        r = rng()
        params = block_tensors(r, 4)
        with pytest.raises(ShapeError) as err:
            ad.transformer_block(p(r, 5, 4), np.zeros((1, 2), dtype=int), *params[:-1], p(r, *shape))
        assert "transformer_block" in str(err.value)

    @pytest.mark.parametrize("rows", [np.zeros((1, 2)), np.zeros(2, dtype=int), np.zeros((1, 0), dtype=int)])
    def test_rows_not_an_integer_matrix_names_op(self, rows):
        r = rng()
        with pytest.raises(ShapeError) as err:
            ad.transformer_block(p(r, 5, 4), rows, *block_tensors(r, 4))
        assert "transformer_block" in str(err.value)

    @pytest.mark.parametrize("rows", [[[0, 5]], [[-1, 0]], [[5]]])
    def test_rows_out_of_range(self, rows):
        r = rng()
        with pytest.raises(ContractError) as err:
            ad.transformer_block(p(r, 5, 4), np.array(rows), *block_tensors(r, 4))
        assert "transformer_block" in str(err.value)


def attention_scores(layer, prev, rows):
    """The block's (B, M, M) attention scores before their softmax."""
    x0 = prev[rows] @ layer.p_in.data.T
    n1 = layer_norm_reference(x0, layer.ln1_g.data, layer.ln1_b.data)
    q, k = n1 @ layer.wq.data.T, n1 @ layer.wk.data.T
    return (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(layer.proj_dim))


class TestTransformerSoftmaxMax:
    """The fused block takes its softmax max over the leading axis of a
    contiguous copy; the composed oracle's `ad.softmax` over the last."""

    # each case sets the query and key weights so some row's maximum is
    # a zero, is tied, or is infinite (overflow in q k', so some rows are NaN)
    CASES = {
        "zero-max": lambda wq, wk: (np.zeros_like(wq), wk),
        "tied": lambda wq, wk: (wq, wk),
        "infinite": lambda wq, wk: (wq * 1e200, wk * 1e200),
        "some-infinite": lambda wq, wk: (wq * 1.4e154, wk * 1.4e154),
    }

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_composed_ops(self, case, mode):
        r = np.random.Generator(np.random.PCG64(77))
        prev = ad.Tensor(r.normal(size=(5, 6)), requires_grad=True)
        # repeated members have equal keys: tied scores in every query row
        rows = np.array([[0, 1, 1, 2], [3, 3, 3, 3], [4, 2, 0, 2]])
        layer = transformer_layer(6, 3, "tanh", 78)
        layer.wq.data, layer.wk.data = self.CASES[case](layer.wq.data, layer.wk.data)
        weights = ad.constant(r.normal(size=(3, 3)))
        with np.errstate(all="ignore"):
            scores = attention_scores(layer, prev.data, rows)
            top = scores.max(axis=-1, keepdims=True)
            if case == "zero-max":
                assert (scores == 0.0).all()
            elif case == "tied":
                assert ((scores == top).sum(axis=-1) > 1).any()
            elif case == "infinite":
                assert np.isposinf(scores).any() and np.isneginf(scores).any()
            else:
                assert np.isinf(scores).any() and np.isinf(top).any() and np.isfinite(top).any()

            def bits(a):
                # every number keeps its bits; a NaN's sign is outside the
                # block's contract (its docstring says so)
                return np.where(np.isnan(a), np.nan, a).tobytes()

            def run(forward_group):
                leaves = [prev, *layer.parameters().values()]
                for t in leaves:
                    t.zero_grad()
                out = forward_group(layer, prev, rows)
                if mode == "eval":
                    return bits(out.data), []
                ad.backward(ad.sum(ad.multiply(out, weights)))
                return bits(out.data), [bits(t.grad) for t in leaves]

            assert run(FUSED) == run(COMPOSED)

    @pytest.mark.parametrize("seed", range(4))
    def test_exp_after_either_zero_sign_is_the_same_bits(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        x = r.normal(size=200) * r.choice([1e-310, 1.0, 300.0], size=200)
        x[r.random(200) < 0.2] = 0.0
        x[r.random(200) < 0.2] = -0.0
        x[:4] = [np.inf, -np.inf, np.nan, -0.0]
        assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
        with np.errstate(over="ignore"):
            assert np.exp(x - 0.0).tobytes() == np.exp(x - (-0.0)).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_leading_axis_max_gives_the_softmax_the_same_bits(self, seed):
        # whole rows of mixed-sign zeros, whose maximum's sign may depend on order
        r = np.random.Generator(np.random.PCG64(seed))
        scores = r.normal(size=(6, 5, 5))
        scores[r.random((6, 5, 5)) < 0.5] = -0.0
        scores[r.random((6, 5, 5)) < 0.5] = 0.0
        scores[0, 1] = [-0.0, 0.0, -0.0, 0.0, -1.0]
        scores[1, 2] = [0.0, -0.0, -1.0, 0.0, -0.0]
        scores[2, 3] = [np.inf, 1.0, np.inf, -np.inf, 0.0]
        scores[3, 4] = [-np.inf] * 5

        def softmax(top):
            e = np.exp(scores - top)
            return (e / np.add.reduce(e, axis=-1, keepdims=True)).tobytes()

        with np.errstate(invalid="ignore"):
            last = np.maximum.reduce(scores, axis=-1, keepdims=True)
            leading = np.maximum.reduce(np.ascontiguousarray(scores.transpose(2, 0, 1)), axis=0)[..., None]
            assert last.shape == leading.shape
            np.testing.assert_array_equal(last, leading)
            assert softmax(last) == softmax(leading)


def signed_zeros(r, *shape):
    """Normal draws with some entries +0.0 and some -0.0."""
    x = r.normal(size=shape)
    x[r.random(shape) < 0.2] = 0.0
    x[r.random(shape) < 0.1] = -0.0
    return x


class TestBilinearScores:
    @given(
        seed=st.integers(0, 2**32 - 1),
        classes=st.integers(1, 5),
        rank=st.integers(1, 4),
        phi_dim=st.integers(1, 4),
        form=st.sampled_from(["tensor", "rows", "leaves"]),
        phis_grad=st.booleans(),
        theta_kind=st.sampled_from(["leaf", "constant", "sentence"]),
        examples=st.integers(1, 3),
        loss=st.sampled_from(["cross_entropy", "weighted"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_composed_ops(self, seed, classes, rank, phi_dim, form, phis_grad,
                                           theta_kind, examples, loss):
        r = np.random.Generator(np.random.PCG64(seed))
        sent = SentenceEncoder(input_dim=3, hidden_dim=2, attn_dim=2, rng=r)
        theta_dim = sent.output_dim if theta_kind == "sentence" else int(r.integers(1, 5))
        b = ad.Tensor(signed_zeros(r, theta_dim, rank), requires_grad=True)
        a = ad.Tensor(signed_zeros(r, rank, phi_dim), requires_grad=True)
        base = ad.Tensor(signed_zeros(r, classes, phi_dim), requires_grad=phis_grad)
        leaf_phis = [ad.Tensor(signed_zeros(r, phi_dim), requires_grad=phis_grad)
                     for _ in range(classes)]
        # candidates repeat, so one tensor can be listed twice
        picks = r.integers(0, classes, size=int(r.integers(1, classes + 2)))
        thetas = [signed_zeros(r, theta_dim) for _ in range(examples)]
        tokens = [r.normal(size=(int(r.integers(1, 4)), 3)) for _ in range(examples)]
        theta_leaves = [ad.Tensor(t, requires_grad=theta_kind == "leaf") for t in thetas]
        leaves = [b, a, base, *leaf_phis, *theta_leaves, *sent.parameters().values()]

        def run(scores_fn):
            for t in leaves:
                t.zero_grad()
            # phis computed from a shared tensor push into it in tape order
            src = ad.tanh(base)
            if form == "tensor":
                phis, count = src, classes
            else:
                pool = leaf_phis if form == "leaves" else [ad.row(src, i) for i in range(classes)]
                phis, count = [pool[i] for i in picks], len(picks)
            values, losses = [], []
            for i in range(examples):
                theta = sent.encode(tokens[i]) if theta_kind == "sentence" else theta_leaves[i]
                scores = scores_fn(theta, b, a, phis)
                values.append(scores.data.tobytes())
                if loss == "cross_entropy":
                    losses.append(ad.cross_entropy(scores, i % count))
                else:
                    weights = ad.constant(signed_zeros(np.random.default_rng(i), count))
                    losses.append(ad.sum(ad.multiply(scores, weights)))
            ad.backward(ad.mean(ad.stack(losses)))
            return values, [None if t.grad is None else t.grad.tobytes() for t in leaves]

        assert run(ad.bilinear_scores) == run(composed_bilinear_scores)

    def test_head_scores_are_one_tape_node(self):
        r = rng()
        head = BilinearHead(3, 4, 2, rng=r)
        phis = [p(r, 4) for _ in range(5)]
        theta = p(r, 3)
        # the op, B, A, theta and the five phis
        assert len(ad.Tape.from_output(head.scores(theta, phis))) == 9
        assert len(ad.Tape.from_output(head.scores(theta, ad.stack(phis)))) == 10
        # the chain's stack, matmul_t and two matmuls
        assert len(ad.Tape.from_output(composed_bilinear_scores(theta, head.b, head.a, phis))) == 12

    def test_no_grad_records_nothing(self):
        r = rng()
        with ad.no_grad():
            out = ad.bilinear_scores(p(r, 3), p(r, 3, 2), p(r, 2, 4), p(r, 5, 4))
        assert not out.requires_grad and out._parents == ()

    def test_zero_candidates_is_a_contract_error(self):
        r = rng()
        with pytest.raises(ContractError):
            ad.bilinear_scores(p(r, 3), p(r, 3, 2), p(r, 2, 4), [])

    @pytest.mark.parametrize("theta, b, a, phis", [
        # ragged phis
        ((3,), (3, 2), (2, 4), [(4,), (5,)]),
        # phis of the wrong width, as a list and as a matrix
        ((3,), (3, 2), (2, 4), [(5,), (5,)]),
        ((3,), (3, 2), (2, 4), (6, 5)),
        # a matrix where the phis are vectors, and a 1-D phi matrix
        ((3,), (3, 2), (2, 4), [(1, 4)]),
        ((3,), (3, 2), (2, 4), (4,)),
        # theta not a vector, or not B's height
        ((1, 3), (3, 2), (2, 4), (6, 4)),
        ((2,), (3, 2), (2, 4), (6, 4)),
        # B and A that do not chain
        ((3,), (3, 2), (3, 4), (6, 4)),
        ((3,), (3,), (2, 4), (6, 4)),
    ])
    def test_wrong_shapes_are_shape_errors(self, theta, b, a, phis):
        r = rng()
        phis = [p(r, *s) for s in phis] if isinstance(phis, list) else p(r, *phis)
        with pytest.raises(ShapeError) as err:
            ad.bilinear_scores(p(r, *theta), p(r, *b), p(r, *a), phis)
        assert "bilinear_scores" in str(err.value)


@st.composite
def tape_dags(draw):
    """The output of a random DAG of recorded nodes over a few leaves,
    each node with one to four parents drawn with repeats, so parents
    are shared between nodes and repeated within one."""
    leaves = [ad.Tensor(np.zeros(1), requires_grad=draw(st.booleans()) or i == 0)
              for i in range(draw(st.integers(1, 4)))]
    nodes = list(leaves)
    for _ in range(draw(st.integers(1, 12))):
        picks = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=4))
        nodes.append(ad._make(np.zeros(1), [nodes[i] for i in picks], None))
    return nodes[-1]


class TestBackward:
    @given(tape_dags())
    @settings(max_examples=150, deadline=None)
    def test_tape_order_equals_id_keyed_walk(self, out):
        ordered = ad.Tape.from_output(out)._ordered
        oracle = id_keyed_tape_order(out)
        assert len(ordered) == len(oracle)
        assert all(x is y for x, y in zip(ordered, oracle))

    def test_reuse_accumulates(self):
        w = ad.Tensor([3.0], requires_grad=True)
        # loss = w*w + 2w, d/dw = 2w + 2 = 8
        loss = ad.sum(ad.add(ad.multiply(w, w), ad.scale(w, 2.0)))
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, [8.0])

    def test_negative_zero_contributions_leave_positive_zero(self):
        # the bits of zeros_like(data) += g, which checkpoint digests rest
        # on: a leaf whose every contribution is -0.0 holds +0.0
        minus = ad.constant([-0.0, -0.0, -0.0])
        w = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(ad.sum(ad.add(ad.multiply(w, minus), ad.multiply(w, minus))))
        # row writes straight into a zero buffer rather than through _accumulate
        m = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        ad.backward(ad.sum(ad.multiply(ad.row(m, 1), minus)))
        for grad in (w.grad, m.grad):
            assert grad.tobytes() == np.zeros(grad.shape).tobytes()

    def test_binary_cross_entropy_gradient_at_extreme_logits(self):
        # exp(-x) overflows for x below about -709.8; the sigmoid there is 0.0
        x = ad.Tensor([-1000.0, 1000.0, 0.5], requires_grad=True)
        y = np.array([1.0, 0.0, 1.0])
        loss = ad.sum(ad.binary_cross_entropy(x, y))
        ad.backward(loss)
        assert loss.data == 2000.0 + np.log1p(np.exp(-0.5))
        np.testing.assert_array_equal(x.grad, [-1.0, 1.0, 1.0 / (1.0 + np.exp(-0.5)) - 1.0])

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

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_step_matches_per_parameter_reference_bitwise(self, weight_decay):
        r = np.random.default_rng(7)
        shapes = {"w": (3, 4), "b": (5,), "s": (), "t": (2, 3, 2)}
        init = {k: r.normal(size=shape) for k, shape in shapes.items()}
        params = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        ref_params = {k: ad.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt = ad.Adam(params, lr=0.01, weight_decay=weight_decay)
        ref = ReferenceAdam(ref_params, lr=0.01, weight_decay=weight_decay)
        for step in range(300):
            # some parameters get no gradient on some steps, and every 50th
            # step none does
            live = r.random(len(shapes)) < 0.7 if step % 50 else np.zeros(len(shapes), dtype=bool)
            for (k, shape), has_grad in zip(shapes.items(), live):
                g = r.normal(size=shape) * 10.0 ** r.integers(-6, 3) if has_grad else None
                params[k].grad = ref_params[k].grad = g
            if step == 150:
                # a restore assigns new arrays, as `_fit` does
                for k in shapes:
                    params[k].data = params[k].data.copy()
            opt.step()
            ref.step()
        for k in shapes:
            assert params[k].data.tobytes() == ref_params[k].data.tobytes()
        assert opt._m.tobytes() == np.concatenate([ref._m[k].ravel() for k in shapes]).tobytes()
        assert opt._v.tobytes() == np.concatenate([ref._v[k].ravel() for k in shapes]).tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_in_place_step_matches_reference_with_signed_zero_grads(self, weight_decay):
        # a few steps: all live, one parameter without a gradient (the
        # span path), then all live again; gradients hold zeros of both
        # signs
        r = np.random.default_rng(11)
        shapes = {"w": (2, 3), "b": (3,), "s": ()}
        init = {k: signed_zeros(r, *shape) for k, shape in shapes.items()}
        params = {k: ad.Tensor(x.copy(), requires_grad=True) for k, x in init.items()}
        ref_params = {k: ad.Tensor(x.copy(), requires_grad=True) for k, x in init.items()}
        opt = ad.Adam(params, lr=0.02, weight_decay=weight_decay)
        ref = ReferenceAdam(ref_params, lr=0.02, weight_decay=weight_decay)
        for missing in (None, "b", None, "w", None):
            for k, shape in shapes.items():
                g = None if k == missing else signed_zeros(r, *shape)
                params[k].grad = ref_params[k].grad = g
            opt.step()
            ref.step()
            for k in shapes:
                assert params[k].data.tobytes() == ref_params[k].data.tobytes(), (missing, k)
        assert opt._m.tobytes() == np.concatenate([ref._m[k].ravel() for k in shapes]).tobytes()
        assert opt._v.tobytes() == np.concatenate([ref._v[k].ravel() for k in shapes]).tobytes()

    def test_skips_parameters_without_grad(self):
        w = ad.Tensor([1.0], requires_grad=True)
        untouched = ad.Tensor([9.0], requires_grad=True)
        opt = ad.Adam({"w": w, "u": untouched}, lr=0.1)
        loss = ad.l2_loss(w, ad.Tensor([0.0]))
        ad.backward(loss)
        opt.step()
        np.testing.assert_array_equal(untouched.data, [9.0])


def _b64(values):
    """The checkpoint form of a list of floats: base64 of their little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


# each way a stored checkpoint is refused, as an edit of a good one holding
# "a" (2,) and "b" (2, 3) under MODEL_HASH "ab12", and the words its error says
REFUSALS = {
    "hash-missing": (lambda obj: obj.pop(ad.MODEL_HASH), "stores no model config hash"),
    "hash-other": (lambda obj: obj.update({ad.MODEL_HASH: "cd34"}), "trained under another model config"),
    "extra-name": (lambda obj: obj.update(stale={"shape": [1], "data": _b64([1.0])}),
                   r"parameters the model lacks: \['stale'\]"),
    "missing-name": (lambda obj: obj.pop("b"), r"is missing parameters \['b'\]"),
    "record-list": (lambda obj: obj.update(b=[1.0] * 6), "'b' is not a JSON object"),
    "shape-negative": (lambda obj: obj["b"].update(shape=[-1]), r"'b' has shape \[-1\], want \[2, 3\]"),
    "shape-int": (lambda obj: obj["b"].update(shape=2), r"'b' has shape 2, want \[2, 3\]"),
    "shape-bool": (lambda obj: obj["b"].update(shape=[True]), r"'b' has shape \[True\], want \[2, 3\]"),
    "shape-missing": (lambda obj: obj["b"].pop("shape"), r"'b' has shape None, want \[2, 3\]"),
    "shape-other": (lambda obj: obj["b"].update(shape=[3, 2]), r"'b' has shape \[3, 2\], want \[2, 3\]"),
    "data-old-format": (lambda obj: obj["b"].update(data=[1.0] * 6), "'b' values are not base64 float64 bytes"),
    "data-strings": (lambda obj: obj["b"].update(data=["1.5", "2"] * 3), "'b' values are not base64"),
    "data-bools": (lambda obj: obj["b"].update(data=[True, False] * 3), "'b' values are not base64"),
    "data-bool": (lambda obj: obj["b"].update(data=True), "'b' values are not base64"),
    "data-nested": (lambda obj: obj["b"].update(data=[[1.0] * 3] * 2), "'b' values are not base64"),
    "data-missing": (lambda obj: obj["b"].pop("data"), "'b' values are not base64"),
    "data-bad-base64": (lambda obj: obj["b"].update(data="not base64!"), "'b' values are not base64"),
    "data-non-ascii": (lambda obj: obj["b"].update(data="é" * 4), "'b' values are not base64"),
    "data-cut": (lambda obj: obj["b"].update(data=obj["b"]["data"][:-1]), "'b' values are not base64"),
    "data-short": (lambda obj: obj["b"].update(data=_b64([1.0] * 5)), "'b' values are 40 bytes, want 48"),
    "data-long": (lambda obj: obj["b"].update(data=_b64([1.0] * 7)), "'b' values are 56 bytes, want 48"),
    "data-nan": (lambda obj: obj["b"].update(data=_b64([1.0] * 5 + [float("nan")])), "'b' holds a non-finite"),
    "data-neginf": (lambda obj: obj["b"].update(data=_b64([float("-inf")] + [1.0] * 5)), "'b' holds a non-finite"),
    "data-posinf": (lambda obj: obj["b"].update(data=_b64([1.0] * 5 + [float("inf")])), "'b' holds a non-finite"),
}


class TestCheckpoint:
    @staticmethod
    def live(seed):
        r = np.random.Generator(np.random.PCG64(seed))
        return {"a": p(r, 2), "b": p(r, 2, 3)}

    def test_round_trip_exact(self, tmp_path):
        r = rng()
        params = {"w": p(r, 3, 2, name="w"), "b": p(r, 2, name="b")}
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(params, path, "ab12")
        loaded = {k: ad.Tensor(np.zeros_like(v.data), requires_grad=True) for k, v in params.items()}
        ad.load_into(loaded, path, "ab12")
        for k in params:
            np.testing.assert_array_equal(loaded[k].data, params[k].data)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array(-0.0))
    @example(np.zeros((0, 3)))
    @example(np.array([[0.0, -0.0, 5e-324, -5e-324],
                       [1.1125369292536007e-308, -2.2250738585072014e-308,
                        1.7976931348623157e308, -1.7976931348623157e308]]))
    def test_round_trip_is_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "round_trip.json"
        ad.save_checkpoint({"w": ad.Tensor(values, requires_grad=True)}, path, "ab12")
        loaded = {"w": ad.Tensor(np.full(values.shape, 7.0), requires_grad=True)}
        ad.load_into(loaded, path, "ab12")
        got = loaded["w"].data
        assert got.dtype == np.float64 and got.shape == values.shape
        assert got.tobytes() == values.tobytes()
        # Adam.step updates p.data in place, and score_matrix's key reads strides
        assert got.flags.writeable and got.flags.c_contiguous

    def test_serialization_is_byte_stable(self, tmp_path):
        r = rng()
        params = {"w": p(r, 4, 4)}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ad.save_checkpoint(params, p1, "ab12")
        ad.save_checkpoint(params, p2, "ab12")
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema(self, tmp_path):
        params = {"w": ad.Tensor([[1.0, 2.0]], requires_grad=True)}
        path = tmp_path / "c.json"
        ad.save_checkpoint(params, path, "ab12")
        # canonical JSON; the data is base64 of 1.0 and 2.0 as little-endian float64
        assert path.read_text() == '{"model_sha256":"ab12","w":{"data":"AAAAAAAA8D8AAAAAAAAAQA==","shape":[1,2]}}'
        # the hash is no parameter: exactly {"w"} loads, with no extra name
        target = {"w": ad.Tensor([[0.0, 0.0]], requires_grad=True)}
        ad.load_into(target, path, "ab12")
        np.testing.assert_array_equal(target["w"].data, [[1.0, 2.0]])

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_each_refusal_names_the_path_and_loads_nothing(self, tmp_path, case):
        good, path = tmp_path / "good.json", tmp_path / "bad.json"
        ad.save_checkpoint(self.live(1), good, "ab12")
        obj = json.loads(good.read_text())
        edit, words = REFUSALS[case]
        edit(obj)
        path.write_text(json.dumps(obj))
        live = self.live(2)
        before = {name: t.data.tobytes() for name, t in live.items()}
        with pytest.raises(DataError, match=f"^checkpoint {re.escape(str(path))} .*{words}"):
            ad.load_into(live, path, "ab12")
        # "a" passes every check before "b" is refused, and still is not assigned
        assert {name: t.data.tobytes() for name, t in live.items()} == before

    # each case keeps its text as its id
    @pytest.mark.parametrize("text,match", [pytest.param(text, match, id=text) for text, match in [
        ('{"w": {"shape": [1], "data": "AAAAAAAA8D8="', "is not valid JSON"),  # truncated
        ('[]', "is not a JSON object"),
        ('"ab12"', "is not a JSON object"),
    ]])
    def test_file_that_is_no_checkpoint_is_data_error(self, tmp_path, text, match):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^checkpoint {re.escape(str(path))} {match}"):
            ad.load_into({"w": ad.Tensor([0.0], requires_grad=True)}, path, "ab12")

    def test_non_finite_parameter_is_written_and_refused_on_load(self, tmp_path):
        path = tmp_path / "c.json"
        ad.save_checkpoint({"w": ad.Tensor([1.0], requires_grad=True),
                            "b": ad.Tensor([1.0, float("nan")], requires_grad=True)}, path, "ab12")
        target = {"w": ad.Tensor([0.0], requires_grad=True), "b": ad.Tensor([0.0, 0.0], requires_grad=True)}
        with pytest.raises(DataError, match="'b' holds a non-finite"):
            ad.load_into(target, path, "ab12")

"""Minimal reverse-mode automatic differentiation over float64 arrays.

A Tensor wraps an ndarray plus the closure that pushes gradients to its
parents.  backward() builds a Tape (the topologically ordered record of
the operations reachable from the loss) and traverses it exactly once.
A tensor's first gradient write stores g + 0.0 as a fresh C-order
float64 array of its shape (the bits of zeros += g: -0.0 becomes +0.0);
later writes add in place, so reuse of a tensor sums contributions.
Beyond its numpy arithmetic, a tape node costs a few Python calls: the
op, a Tensor that keeps the op's float64 array as it is, the backward
closure, and one such write per gradient it pushes.
Two ops fuse a chain of elementary ops into a single tape node whose
values and gradients are bitwise those of the chain: transformer_block
(a transformer aggregator group's gathers, attention block and combine)
and bilinear_scores (one example's bilinear scores against every
candidate class).

Shapes are checked strictly: the only implicit broadcasts anywhere are
adding a (n,) bias to every row of a (..., n) tensor, a 2-D right
operand shared by every item of a (B, m, n) stack, and multiplying or
dividing by a scalar () tensor.  Everything else must match exactly and
raises ShapeError naming the op.

The 3-D cases exist so a whole group of same-size neighborhoods runs
as one op.  Each keeps numpy's per-item product (one BLAS call per
stacked item, with the shapes a single item would use), so a stacked
result is bitwise the result of running the items one at a time.
"""

import base64
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import canonical_json, read_json, write_output
from .errors import ContractError, DataError, ShapeError

_grad_enabled = True
_F64 = np.dtype(np.float64)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (for eval forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        # an op's float64 array is kept as it is, as np.asarray would keep it
        self.data = (data if type(data) is np.ndarray and data.dtype is _F64
                     else np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        # g has this tensor's shape.  A first write is the bits of
        # np.zeros(shape) += g (-0.0 becomes +0.0) in C order, which later
        # reductions' summation order rests on; a ufunc hands a 0-d result
        # back as a scalar, so a 0-d tensor names its output array
        if self.grad is not None:
            self.grad += g
        elif self.data.ndim:
            self.grad = np.add(g, 0.0, order="C")
        else:
            self.grad = np.add(g, 0.0, out=np.empty(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def _make(data, parents, backward_fn):
    """Wire up an op result; skips recording when grads are off."""
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward_fn
                break
    return out


def _shape_err(op, *tensors):
    shapes = ", ".join(str(t.data.shape) for t in tensors)
    return ShapeError(f"{op}: incompatible shapes {shapes}")


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


def _weight_grad(w, g, x):
    """matmul_t's gradient for a 2-D right operand w shared by the rows of x."""
    if w.requires_grad:
        rows, cols = w.data.shape
        w._accumulate(g.reshape(-1, rows).T @ x.reshape(-1, cols))


def _bias_grad(b, g):
    """add's gradient for a bias b broadcast over the rows of g."""
    if b.requires_grad:
        b._accumulate(np.add.reduce(g.reshape(-1, b.data.shape[0]), axis=0))


# ---------------------------------------------------------------- arithmetic


def add(a, b):
    if a.data.shape == b.data.shape:
        def backward(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g)
        return _make(a.data + b.data, (a, b), backward)
    if a.data.ndim >= 2 and b.data.ndim == 1 and a.data.shape[-1] == b.data.shape[0]:
        # rows plus a broadcast bias
        def backward(g):
            if a.requires_grad:
                a._accumulate(g)
            _bias_grad(b, g)
        return _make(a.data + b.data, (a, b), backward)
    raise _shape_err("add", a, b)


def subtract(a, b):
    if a.data.shape != b.data.shape:
        raise _shape_err("subtract", a, b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)
    return _make(a.data - b.data, (a, b), backward)


def multiply(a, b):
    """Elementwise product; one operand may be a scalar ()."""
    if a.data.shape == b.data.shape or not a.data.ndim or not b.data.ndim:
        def backward(g):
            if a.requires_grad:
                ga = g * b.data
                a._accumulate(ga if a.data.ndim else np.sum(ga))
            if b.requires_grad:
                gb = g * a.data
                b._accumulate(gb if b.data.ndim else np.sum(gb))
        return _make(a.data * b.data, (a, b), backward)
    raise _shape_err("multiply", a, b)


def divide(a, b):
    """Elementwise quotient; the divisor may be a scalar ()."""
    if a.data.shape == b.data.shape or not b.data.ndim:
        def backward(g):
            if a.requires_grad:
                a._accumulate(g / b.data)
            if b.requires_grad:
                gb = -g * a.data / (b.data * b.data)
                b._accumulate(gb if b.data.ndim else np.sum(gb))
        return _make(a.data / b.data, (a, b), backward)
    raise _shape_err("divide", a, b)


def add_const(a, c):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
    return _make(a.data + float(c), (a,), backward)


def scale(a, c):
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)
    return _make(a.data * c, (a,), backward)


def matmul(a, b):
    an, bn = a.data.ndim, b.data.ndim
    ash, bsh = a.data.shape, b.data.shape
    if an == 2 and bn == 2 and ash[1] == bsh[0]:
        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
    elif an == 2 and bn == 1 and ash[1] == bsh[0]:
        def backward(g):
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
    elif an == 1 and bn == 2 and ash[0] == bsh[0]:
        def backward(g):
            if a.requires_grad:
                a._accumulate(b.data @ g)
            if b.requires_grad:
                b._accumulate(np.outer(a.data, g))
    elif an == 1 and bn == 1 and ash == bsh:
        def backward(g):
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)
    elif an == 3 and bn == 3 and ash[0] == bsh[0] and ash[2] == bsh[1]:
        # one product per stacked item
        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.transpose(0, 2, 1))
            if b.requires_grad:
                b._accumulate(a.data.transpose(0, 2, 1) @ g)
    else:
        raise _shape_err("matmul", a, b)
    return _make(a.data @ b.data, (a, b), backward)


def matmul_t(a, b):
    """a @ b^T as one node, per stacked item when a is 3-D.

    Same product as matmul(a, transpose(b)) without the transpose node,
    for row-batch projections x W^T such as the transformer
    aggregator's and the bilinear head's.  A 3-D `a` of shape (B, m, n)
    takes either a shared 2-D (p, n) `b` or a (B, p, n) stack, giving
    (B, m, p) either way.
    """
    an, bn = a.data.ndim, b.data.ndim
    if an not in (2, 3) or bn not in (2, an) or a.data.shape[-1] != b.data.shape[-1] or (
            bn == 3 and a.data.shape[0] != b.data.shape[0]):
        raise _shape_err("matmul_t", a, b)
    b_t = b.data.T if bn == 2 else b.data.transpose(0, 2, 1)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data)
        if bn == 2:
            _weight_grad(b, g, a.data)
        elif b.requires_grad:
            b._accumulate(g.transpose(0, 2, 1) @ a.data)
    return _make(a.data @ b_t, (a, b), backward)


def matvec(w, x):
    """w @ x for every trailing vector of x: (o, n) and (..., n) -> (..., o).

    Computed as a stack of matrix-vector products rather than x @ w^T,
    which rounds differently, so each row equals matmul(w, row).
    """
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[1]:
        raise _shape_err("matvec", w, x)
    out_dim, in_dim = w.data.shape

    def backward(g):
        if w.requires_grad:
            w._accumulate(g.reshape(-1, out_dim).T @ x.data.reshape(-1, in_dim))
        if x.requires_grad:
            x._accumulate(g @ w.data)
    return _make((w.data @ x.data[..., None])[..., 0], (w, x), backward)


def dot_rows(x, v):
    """x_i . v for every trailing vector x_i of x: (..., n) and (n,) -> (...).

    Each entry is one dot product, rounded like matmul(v, x_i) of two
    1-D tensors: one `np.vecdot` runs that 1-D x 1-D product's kernel
    per row.  x @ v or an elementwise product and sum round differently.
    """
    if v.data.ndim != 1 or x.data.ndim < 1 or x.data.shape[-1] != v.data.shape[0]:
        raise _shape_err("dot_rows", x, v)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[..., None] * v.data)
        if v.requires_grad:
            v._accumulate((g[..., None] * x.data).reshape(-1, v.data.shape[0]).sum(axis=0))
    return _make(np.vecdot(x.data, v.data), (x, v), backward)


# ------------------------------------------------------------ restructuring


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    if any(t.data.ndim != ndim for t in tensors) or axis >= ndim:
        raise _shape_err("concat", *tensors)
    offsets = [0]
    for t in tensors:
        offsets.append(offsets[-1] + t.data.shape[axis])

    def backward(g):
        for t, start, stop in zip(tensors, offsets, offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * ndim
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def stack(tensors):
    """Stack same-shape tensors along a new leading axis."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("stack of zero tensors")
    arrays = [t.data for t in tensors]
    shape = arrays[0].shape
    for x in arrays:
        if x.shape != shape:
            raise _shape_err("stack", *tensors)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(g[i])
    # np.stack's copy without its Python wrapper
    return _make(np.array(arrays), tensors, backward)


def reshape(a, shape):
    """The same values in a new shape of the same size."""
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))
    return _make(a.data.reshape(shape), (a,), backward)


def gather(a, index):
    """a[index] along the first axis, for an integer array `index`.

    The result has shape index.shape + a.shape[1:]; rows taken more
    than once receive the sum of their gradients.
    """
    index = np.asarray(index)
    if a.data.ndim < 1 or index.dtype.kind not in "iu":
        raise _shape_err("gather", a)
    _check_index("gather", a, index)

    def backward(g):
        _gather_grad(a, index, g)
    return _make(a.data[index], (a,), backward)


def _check_index(op, a, index):
    if index.size and (np.minimum.reduce(index, axis=None) < 0
                       or np.maximum.reduce(index, axis=None) >= a.data.shape[0]):
        raise ContractError(f"{op}: index out of range for {a.data.shape}")


def _gather_grad(a, index, g):
    """gather's gradient: g summed into the rows of a that `index` took."""
    if a.requires_grad:
        buf = np.zeros(a.data.shape)
        np.add.at(buf, index, g)
        a._accumulate(buf)


def transpose(a):
    if a.data.ndim != 2:
        raise _shape_err("transpose", a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)
    return _make(a.data.T.copy(), (a,), backward)


def element(a, index):
    """Scalar () view of one element of a 1-D tensor."""
    if a.data.ndim != 1:
        raise _shape_err("element", a)
    index = int(index)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros(a.data.shape)
            buf[index] = g
            a._accumulate(buf)
    return _make(a.data[index].copy(), (a,), backward)


def row(a, index):
    """One row of a 2-D tensor as a 1-D tensor."""
    if a.data.ndim != 2:
        raise _shape_err("row", a)
    index = int(index)

    def backward(g):
        if a.requires_grad:
            # straight into the row: only that row of the gradient is
            # non-zero, so a full-size g would be a buffer and an add of zeros
            if a.grad is None:
                a.grad = np.zeros(a.data.shape)
            a.grad[index] += g
    return _make(a.data[index].copy(), (a,), backward)


# ---------------------------------------------------------------- reductions


def sum(a, axis=None):  # noqa: A001 - mirrors np.sum, always used qualified
    """Sum of all entries, or over axis 0 or 1 of a 2-D or 3-D tensor."""
    if axis is not None and (a.data.ndim not in (2, 3) or axis not in (0, 1)):
        raise _shape_err("sum(axis)", a)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))
    return _make(a.data.sum(axis=axis), (a,), backward)


def mean(a, axis=None):
    """Mean of all entries, or over axis 0 or 1 of a 2-D or 3-D tensor."""
    if axis is not None and (a.data.ndim not in (2, 3) or axis not in (0, 1)):
        raise _shape_err("mean(axis)", a)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        if not a.requires_grad:
            return
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape) / count)
    # sum then divide is what np.mean computes, without its Python wrapper
    return _make(a.data.sum(axis=axis) / count, (a,), backward)


# -------------------------------------------------------------- nonlinearity


def sigmoid(a):
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out * (1.0 - out))
    return _make(out, (a,), backward)


def tanh(a):
    out = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out * out))
    return _make(out, (a,), backward)


def relu(a):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))
    return _make(np.maximum(a.data, 0.0), (a,), backward)


def leaky_relu(a, slope=0.2):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.where(a.data > 0, 1.0, slope))
    return _make(np.where(a.data > 0, a.data, slope * a.data), (a,), backward)


def exp(a):
    out = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out)
    return _make(out, (a,), backward)


def log(a):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)
    return _make(np.log(a.data), (a,), backward)


def softmax(a, axis=-1):
    if a.data.ndim not in (1, 2, 3):
        raise _shape_err("softmax", a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * out).sum(axis=axis, keepdims=True)
            a._accumulate(out * (g - inner))
    return _make(out, (a,), backward)


def _layer_norm_forward(x, gain, bias, eps=1e-5):
    """Layer norm of the array x over its last axis: (out, xhat, inv)."""
    d = gain.data.shape[0]
    # the sums and divisions of np.mean and np.var, so bitwise equal to
    # them, without their Python wrappers; temporaries are reused in place
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    c = x - mu
    sq = c * c
    var = np.add.reduce(sq, axis=-1, keepdims=True)
    var /= d
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat = np.multiply(c, inv, out=c)
    out = np.multiply(xhat, gain.data, out=sq)
    out += bias.data
    return out, xhat, inv


def _layer_norm_param_grads(g, gain, bias, xhat):
    """Push the output gradient g into the gain and bias tensors."""
    d = gain.data.shape[0]
    if gain.requires_grad:
        gain._accumulate(np.add.reduce((g * xhat).reshape(-1, d), axis=0))
    if bias.requires_grad:
        bias._accumulate(np.add.reduce(g.reshape(-1, d), axis=0))


def _layer_norm_input_grad(g, gain, xhat, inv):
    """The input's gradient for the output gradient g:
    inv * (dxhat - m1 - xhat * m2), computed in place."""
    d = gain.data.shape[0]
    dxhat = g * gain.data
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= d
    t = dxhat * xhat
    m2 = np.add.reduce(t, axis=-1, keepdims=True)
    m2 /= d
    dxhat -= m1
    dxhat -= np.multiply(xhat, m2, out=t)
    dxhat *= inv
    return dxhat


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift.

    Accepts (d,), (k, d) or (B, k, d) inputs; gain and bias are (d,).
    """
    if gain.data.shape != bias.data.shape or gain.data.ndim != 1:
        raise _shape_err("layer_norm", gain, bias)
    if x.data.shape[-1] != gain.data.shape[0] or x.data.ndim not in (1, 2, 3):
        raise _shape_err("layer_norm", x, gain)
    out, xhat, inv = _layer_norm_forward(x.data, gain, bias, eps)

    def backward(g):
        _layer_norm_param_grads(g, gain, bias, xhat)
        if x.requires_grad:
            x._accumulate(_layer_norm_input_grad(g, gain, xhat, inv))
    return _make(out, (x, gain, bias), backward)


def transformer_block(prev, rows, p_in, wq, wk, wv, wo, ln1_g, ln1_b, ln2_g, ln2_b,
                      ff1, ff1_b, ff2, ff2_b, p_out, w):
    """The transformer aggregator's group before its activation, as one node.

    prev is the (N, n) level below and rows a (B, M) integer array of
    its rows: each node first, then its members.  Each member set
    prev[rows[i]] is projected by p_in (p, n), run through single-head
    attention and a relu feedforward, each behind layer norm and a
    residual, projected back by p_out (n, p) and averaged over its M
    members into a_v; the result is w [h_v ; a_v], (B, o) for a w of
    shape (o, 2n), with h_v = prev[rows[:, 0]].

    The whole group is one tape node.  Its forward is the composition
    of gather, matmul_t, layer_norm, matmul_t, scale, softmax, matmul,
    add, relu, mean, concat and matvec, expression for expression, and
    the backward is their backwards, in the order the tape would run
    them, so values and gradients keep every bit, NaNs aside: with
    infinite attention scores a gradient's NaN can carry the other
    sign.  Intermediate gradients skip the +0.0 of a first _accumulate:
    a zero's sign cannot reach a leaf, whose own first write adds it,
    nor prev, whose gather buffers start at +0.0.  Reductions call the
    ufuncs' `reduce` directly, which is what the ndarray methods run.  The
    softmax max is taken over the leading axis of a contiguous
    (M, B, M) copy of the scores, numpy's fast reduction, rather than
    over their short last axis: a max is the same value in any order
    but for the sign of a zero maximum, and exp(x - (+0.0)) and
    exp(x - (-0.0)) are the same bits for every x.
    """
    rows = np.asarray(rows)
    if prev.data.ndim != 2 or p_in.data.ndim != 2 or p_in.data.shape[1] != prev.data.shape[1]:
        raise _shape_err("transformer_block", prev, p_in)
    width = prev.data.shape[1]
    if w.data.ndim != 2 or w.data.shape[1] != 2 * width:
        raise _shape_err("transformer_block", prev, w)
    if rows.ndim != 2 or not rows.shape[1] or rows.dtype.kind not in "iu":
        raise ShapeError(f"transformer_block: rows must be a (B, M) integer array, got {rows.shape}")
    _check_index("transformer_block", prev, rows)
    proj = p_in.data.shape[0]
    count = rows.shape[1]
    c = 1.0 / math.sqrt(proj)

    # each step's temporary is updated in place; a sum that swaps the
    # composed form's operands rounds the same, as + commutes bitwise
    members = prev.data[rows]
    x0 = members @ p_in.data.T
    n1, xhat1, inv1 = _layer_norm_forward(x0, ln1_g, ln1_b)
    q = n1 @ wq.data.T
    k = n1 @ wk.data.T
    v = n1 @ wv.data.T
    attn = q @ k.transpose(0, 2, 1)
    attn *= c
    attn -= np.maximum.reduce(np.ascontiguousarray(attn.transpose(2, 0, 1)), axis=0)[..., None]
    np.exp(attn, out=attn)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)
    mixed = attn @ v
    x1 = mixed @ wo.data.T
    x1 += x0
    n2, xhat2, inv2 = _layer_norm_forward(x1, ln2_g, ln2_b)
    hidden = n2 @ ff1.data.T
    hidden += ff1_b.data
    act = np.maximum(hidden, 0.0)
    x2 = act @ ff2.data.T
    x2 += ff2_b.data
    x2 += x1
    back = x2 @ p_out.data.T
    a_v = np.add.reduce(back, axis=1)
    a_v /= count
    combined = np.concatenate([prev.data[rows[:, 0]], a_v], axis=1)

    def backward(g):
        # matvec, then concat: h_v's gather, then the block
        _weight_grad(w, g, combined)
        d_combined = g @ w.data
        _gather_grad(prev, rows[:, 0], d_combined[:, :width])
        d_back = np.divide(d_combined[:, None, width:], count, out=np.empty(back.shape))
        _weight_grad(p_out, d_back, x2)
        d_x2 = d_back @ p_out.data
        _bias_grad(ff2_b, d_x2)
        _weight_grad(ff2, d_x2, act)
        d_hidden = (d_x2 @ ff2.data) * (hidden > 0)
        _bias_grad(ff1_b, d_hidden)
        _weight_grad(ff1, d_hidden, n2)
        d_n2 = d_hidden @ ff1.data
        _layer_norm_param_grads(d_n2, ln2_g, ln2_b, xhat2)
        # x1 feeds a residual add and layer norm 2: the add's backward runs first
        d_x1 = d_x2 + _layer_norm_input_grad(d_n2, ln2_g, xhat2, inv2)
        _weight_grad(wo, d_x1, mixed)
        d_mixed = d_x1 @ wo.data
        d_attn = d_mixed @ v.transpose(0, 2, 1)
        d_v = attn.transpose(0, 2, 1) @ d_mixed
        d_scores = d_attn - np.add.reduce(d_attn * attn, axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= c
        d_q = d_scores @ k
        d_k = d_scores.transpose(0, 2, 1) @ q
        _weight_grad(wq, d_q, n1)
        _weight_grad(wk, d_k, n1)
        _weight_grad(wv, d_v, n1)
        # n1 feeds q, k and v, whose backwards run in that order
        d_n1 = d_q @ wq.data + d_k @ wk.data + d_v @ wv.data
        _layer_norm_param_grads(d_n1, ln1_g, ln1_b, xhat1)
        # as for x1: the residual add's contribution first, then layer norm 1's
        d_x0 = d_x1 + _layer_norm_input_grad(d_n1, ln1_g, xhat1, inv1)
        _weight_grad(p_in, d_x0, members)
        if prev.requires_grad:
            _gather_grad(prev, rows, d_x0 @ p_in.data)

    parents = (prev, p_in, wq, wk, wv, wo, ln1_g, ln1_b, ln2_g, ln2_b,
               ff1, ff1_b, ff2, ff2_b, p_out, w)
    return _make((w.data @ combined[..., None])[..., 0], parents, backward)


def bilinear_scores(theta, b, a, phis):
    """theta' B A phi_c for every candidate c, as one (C,) node.

    theta is (t,), b is B (t, r), a is A (r, e), and phis is a (C, e)
    tensor or a list of C (e,) tensors, stacked in order.  The forward
    is matmul(matmul_t(stack(phis), a), matmul(theta, b)), expression for
    expression, and the backward is that chain's backwards: into a and
    the phis (the phis first when they come as one tensor), then theta
    and b.  Values and gradients keep every bit whenever no phi is
    computed from theta or b, whose contributions the chain's tape would
    push only after the phis' own backwards.  Intermediate gradients
    skip the +0.0 of a first _accumulate: their values reach a tensor
    only through products and sums, where a zero's sign can change no
    nonzero result, and every tensor's first write adds +0.0 itself.
    """
    listed = isinstance(phis, list)
    if listed:
        if not phis:
            raise ContractError("bilinear_scores of zero candidates")
        arrays = [t.data for t in phis]
        shape = arrays[0].shape
        phis_grad = False
        for t in phis:
            if t.data.shape != shape:
                raise _shape_err("bilinear_scores", *phis)
            if t.requires_grad:
                phis_grad = True
        stacked = np.array(arrays)
    else:
        stacked = phis.data
        phis_grad = phis.requires_grad
    if (theta.data.ndim != 1 or b.data.ndim != 2 or a.data.ndim != 2 or stacked.ndim != 2
            or theta.data.shape[0] != b.data.shape[0] or b.data.shape[1] != a.data.shape[0]
            or stacked.shape[1] != a.data.shape[1]):
        raise ShapeError(f"bilinear_scores: incompatible shapes theta {theta.data.shape}, "
                         f"B {b.data.shape}, A {a.data.shape}, phis {stacked.shape}")
    left = theta.data @ b.data
    projected = stacked @ a.data.T

    def backward(g):
        if phis_grad or a.requires_grad:
            # np.outer's products, without its Python wrapper
            d_projected = g[:, None] * left
            if phis_grad:
                d_stacked = d_projected @ a.data
                if not listed:
                    phis._accumulate(d_stacked)
            _weight_grad(a, d_projected, stacked)
            if listed and phis_grad:
                for t, d in zip(phis, d_stacked):
                    if t.requires_grad:
                        t._accumulate(d)
        if theta.requires_grad or b.requires_grad:
            d_left = projected.T @ g
            if theta.requires_grad:
                theta._accumulate(b.data @ d_left)
            if b.requires_grad:
                b._accumulate(theta.data[:, None] * d_left)

    # the tape walk visits parents last to first: b, theta, a, then the
    # phis, the order in which it visits the chain's inputs
    parents = (*phis, a, theta, b) if listed else (phis, a, theta, b)
    return _make(projected @ left, parents, backward)


# -------------------------------------------------------------------- losses


def cross_entropy(logits, target):
    """Negative log softmax probability of the integer target class."""
    if logits.data.ndim != 1:
        raise _shape_err("cross_entropy", logits)
    target = int(target)
    if not 0 <= target < logits.data.shape[0]:
        raise ContractError(f"cross_entropy: target {target} out of range for {logits.data.shape}")
    z = logits.data - np.maximum.reduce(logits.data)
    e = np.exp(z)
    total = np.add.reduce(e)
    probs = e / total
    value = np.log(total) - z[target]

    def backward(g):
        if logits.requires_grad:
            grad = probs.copy()
            grad[target] -= 1.0
            logits._accumulate(g * grad)
    return _make(value, (logits,), backward)


def binary_cross_entropy(logits, labels):
    """Elementwise BCE against {0,1} labels, from raw logits.

    Labels are data, not parameters; no gradient flows to them.  The
    stable form max(x,0) - x*y + log(1+exp(-|x|)) is used.
    """
    y = labels.data if isinstance(labels, Tensor) else np.asarray(labels, dtype=np.float64)
    if y.shape != logits.data.shape:
        raise ShapeError(f"binary_cross_entropy: labels {y.shape} vs logits {logits.data.shape}")
    x = logits.data
    value = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        if logits.requires_grad:
            # exp(-x) is inf below about -709.8, where 1 / (1 + inf) = 0.0 is exact
            with np.errstate(over="ignore"):
                sig = 1.0 / (1.0 + np.exp(-x))
            logits._accumulate(g * (sig - y))
    return _make(value, (logits,), backward)


def l2_loss(a, b):
    """Sum of squared differences, as a scalar."""
    if a.data.shape != b.data.shape:
        raise _shape_err("l2_loss", a, b)
    diff = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 2.0 * diff)
        if b.requires_grad:
            b._accumulate(g * -2.0 * diff)
    return _make((diff * diff).sum(), (a, b), backward)


# ------------------------------------------------------------------ backward


class Tape:
    """Ordered record of the ops reachable from one output tensor."""

    def __init__(self, ordered):
        self._ordered = ordered

    @classmethod
    def from_output(cls, out):
        # iterative postorder so deep chains (long sequences) cannot
        # blow the recursion limit; a Tensor hashes by identity, so the
        # visited set holds the tensors themselves
        ordered = []
        visited = set()
        stack = [(out, False)]
        push, pop, visit, done = stack.append, stack.pop, visited.add, ordered.append
        while stack:
            node, expanded = pop()
            if expanded:
                done(node)
                continue
            if node in visited:
                continue
            visit(node)
            push((node, True))
            for p in node._parents:
                if p not in visited:
                    push((p, False))
        return cls(ordered)

    def __len__(self):
        return len(self._ordered)

    def run_backward(self, out):
        out._accumulate(np.ones(out.data.shape))
        for node in reversed(self._ordered):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def backward(loss):
    """Propagate d(loss)/d(param) into every reachable parameter's .grad."""
    if loss.data.ndim:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    Tape.from_output(loss).run_backward(loss)


# ------------------------------------------------------------ init and adam


def glorot(shape, rng):
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def param(shape, rng, name=None):
    return Tensor(glorot(shape, rng), requires_grad=True, name=name)


def zeros_param(shape, name=None):
    return Tensor(np.zeros(shape), requires_grad=True, name=name)


class Adam:
    """Adam with decoupled weight decay.

    `params` maps names to tensors.  Decay is applied directly to the
    weights, scaled by lr, outside the adaptive moment update.
    Parameters with no gradient are skipped, and their moments keep
    their values.

    Both moments live in one flat buffer each, in `params` order.  A step
    concatenates the live gradients once and runs the elementwise update
    over them in one pass, in place with one temporary, so each weight
    rounds exactly as a step over that tensor alone would.  The
    parameters stay arrays of their own: callers may assign `p.data`
    (as `zeroshot._fit` restores its best epoch), which would cut views
    into a shared buffer.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params, lr=0.001, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        sizes = [p.data.size for p in self.params.values()]
        self._bounds = np.cumsum([0] + sizes)
        self._m = np.zeros(self._bounds[-1])
        self._v = np.zeros(self._bounds[-1])
        self._t = 0

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self._t += 1
        b1, b2 = self.BETAS
        live = [(i, p) for i, p in enumerate(self.params.values()) if p.grad is not None]
        if not live:
            return
        g = np.concatenate([p.grad.ravel() for _, p in live])
        # the live parameters' span of the moment buffers
        whole = len(live) == len(self.params)
        if whole:
            m, v = self._m, self._v
        else:
            span = np.concatenate([np.arange(self._bounds[i], self._bounds[i + 1]) for i, _ in live])
            m, v = self._m[span], self._v[span]
        # m * b1 + (1 - b1) g and v * b2 + (1 - b2) g g, in place with one
        # temporary; a product with swapped operands rounds the same
        tmp = np.multiply(g, 1 - b1)
        m *= b1
        m += tmp
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        if not whole:
            self._m[span] = m
            self._v[span] = v
        # update = mhat / (sqrt(vhat) + eps), into g's buffer
        np.divide(v, 1 - b2 ** self._t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.EPS
        update = np.divide(m, 1 - b1 ** self._t, out=g)
        update /= tmp
        if self.weight_decay:
            # decoupled: decay the pre-step weight, outside the moments
            np.concatenate([p.data.ravel() for _, p in live], out=tmp)
            tmp *= self.weight_decay
            update += tmp
        update *= self.lr
        start = 0
        for _, p in live:
            p.data -= update[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size


# ---------------------------------------------------------------- grad check


@dataclass
class GradCheckReport:
    tol: float
    step: float
    max_rel_err: dict = field(default_factory=dict)
    passed: bool = True

    def worst(self):
        return max(self.max_rel_err.values()) if self.max_rel_err else 0.0


def grad_check(fn, params, step=1e-4, tol=1e-3):
    """Compare analytic gradients of fn() against central differences.

    Args:
        fn: zero-argument callable returning a scalar loss Tensor; must
            be deterministic and capture `params`.
        params: dict of name to Tensor with requires_grad set.

    Returns a report; failures are reported, never raised.
    """
    for p in params.values():
        p.zero_grad()
    loss = fn()
    backward(loss)
    analytic = {
        k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for k, p in params.items()
    }

    report = GradCheckReport(tol=tol, step=step)
    for key, p in params.items():
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(fn().data)
            flat[i] = orig - step
            down = float(fn().data)
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * step)
        a = analytic[key]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-4)
        rel = np.abs(a - numeric) / denom
        worst = float(rel.max()) if rel.size else 0.0
        report.max_rel_err[key] = worst
        if worst > tol:
            report.passed = False
    return report


# --------------------------------------------------------------- checkpoint


# the checkpoint entry that holds the hash of the model config it was trained under
MODEL_HASH = "model_sha256"


def save_checkpoint(params, path, model_hash):
    """Write parameters as canonical JSON, `model_hash` beside them under
    MODEL_HASH; returns the file's sha256.  Each parameter is {"shape": [...],
    "data": padded standard base64 of its little-endian float64 bytes in C
    order}, so every bit round-trips."""
    obj = {
        name: {"shape": list(p.data.shape),
               "data": base64.b64encode(np.ascontiguousarray(p.data, dtype="<f8").tobytes()).decode("ascii")}
        for name, p in params.items()
    }
    obj[MODEL_HASH] = model_hash
    return write_output(path, canonical_json(obj))


def load_into(params, path, model_hash):
    """Load a checkpoint trained under `model_hash` into live parameter tensors.

    The one judge of a checkpoint: it must be a JSON object holding
    `model_hash` and exactly the names of `params`, each with the live
    shape and finite float64 data as `save_checkpoint` writes them.  Each
    refusal is a DataError naming the path and the parameter at fault, and
    assigns nothing.  Loaded arrays are fresh, writeable and C-contiguous.
    """
    obj = read_json(path, DataError, "checkpoint")
    if not isinstance(obj, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    if MODEL_HASH not in obj:
        raise DataError(f"checkpoint {path} stores no model config hash")
    # parameters that fit in name and shape can still come from another
    # model block, say another activation
    if obj.pop(MODEL_HASH) != model_hash:
        raise DataError(f"checkpoint {path} was trained under another model config than this run's")
    extra = sorted(set(obj) - set(params))
    if extra:
        raise DataError(f"checkpoint {path} has parameters the model lacks: {extra}")
    missing = sorted(set(params) - set(obj))
    if missing:
        raise DataError(f"checkpoint {path} is missing parameters {missing}")
    loaded = {}
    for name, p in params.items():
        where = f"checkpoint {path} parameter {name!r}"
        rec = obj[name]
        if not isinstance(rec, dict):
            raise DataError(f"{where} is not a JSON object")
        shape = rec.get("shape")
        # a bool would pass the shape compare, since True == 1
        if (not isinstance(shape, list) or any(type(n) is not int for n in shape)
                or tuple(shape) != p.data.shape):
            raise DataError(f"{where} has shape {shape!r}, want {list(p.data.shape)}")
        try:
            raw = base64.b64decode(rec.get("data"), validate=True)
        except (TypeError, ValueError):  # not a string; not base64 (binascii.Error)
            raise DataError(f"{where} values are not base64 float64 bytes") from None
        if len(raw) != 8 * p.data.size:
            raise DataError(f"{where} values are {len(raw)} bytes, want {8 * p.data.size} (float64)")
        # a copy: a view of `raw` is read-only, and Adam.step updates p.data in place
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(p.data.shape)
        if not np.isfinite(arr).all():
            raise DataError(f"{where} holds a non-finite value")
        loaded[name] = arr
    for name, p in params.items():
        p.data = loaded[name]

"""Minimal reverse-mode automatic differentiation over float64 arrays.

A Tensor wraps an ndarray plus the closure that pushes gradients to its
parents.  backward() builds a Tape (the topologically ordered record of
the operations reachable from the loss) and traverses it exactly once,
accumulating gradients with +=, so reuse of a tensor sums contributions.

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

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

_grad_enabled = True


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
        self.data = np.asarray(data, dtype=np.float64)
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def _make(data, parents, backward_fn):
    """Wire up an op result; skips recording when grads are off."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _shape_err(op, *tensors):
    shapes = ", ".join(str(t.shape) for t in tensors)
    return ShapeError(f"{op}: incompatible shapes {shapes}")


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


# ---------------------------------------------------------------- arithmetic


def add(a, b):
    if a.shape == b.shape:
        def backward(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g)
        return _make(a.data + b.data, (a, b), backward)
    if a.data.ndim >= 2 and b.data.ndim == 1 and a.shape[-1] == b.shape[0]:
        # rows plus a broadcast bias
        def backward(g):
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g.reshape(-1, b.shape[0]).sum(axis=0))
        return _make(a.data + b.data, (a, b), backward)
    raise _shape_err("add", a, b)


def subtract(a, b):
    if a.shape != b.shape:
        raise _shape_err("subtract", a, b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)
    return _make(a.data - b.data, (a, b), backward)


def multiply(a, b):
    """Elementwise product; one operand may be a scalar ()."""
    if a.shape == b.shape or a.shape == () or b.shape == ():
        def backward(g):
            if a.requires_grad:
                ga = g * b.data
                a._accumulate(np.sum(ga) if a.shape == () else ga)
            if b.requires_grad:
                gb = g * a.data
                b._accumulate(np.sum(gb) if b.shape == () else gb)
        return _make(a.data * b.data, (a, b), backward)
    raise _shape_err("multiply", a, b)


def divide(a, b):
    """Elementwise quotient; the divisor may be a scalar ()."""
    if a.shape == b.shape or b.shape == ():
        def backward(g):
            if a.requires_grad:
                a._accumulate(g / b.data)
            if b.requires_grad:
                gb = -g * a.data / (b.data * b.data)
                b._accumulate(np.sum(gb) if b.shape == () else gb)
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
    if an == 2 and bn == 2 and a.shape[1] == b.shape[0]:
        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
    elif an == 2 and bn == 1 and a.shape[1] == b.shape[0]:
        def backward(g):
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
    elif an == 1 and bn == 2 and a.shape[0] == b.shape[0]:
        def backward(g):
            if a.requires_grad:
                a._accumulate(b.data @ g)
            if b.requires_grad:
                b._accumulate(np.outer(a.data, g))
    elif an == 1 and bn == 1 and a.shape == b.shape:
        def backward(g):
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)
    elif an == 3 and bn == 3 and a.shape[0] == b.shape[0] and a.shape[2] == b.shape[1]:
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
    if an not in (2, 3) or bn not in (2, an) or a.shape[-1] != b.shape[-1] or (
            bn == 3 and a.shape[0] != b.shape[0]):
        raise _shape_err("matmul_t", a, b)
    b_t = b.data.T if bn == 2 else b.data.transpose(0, 2, 1)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data)
        if b.requires_grad:
            if bn == 2:
                b._accumulate(g.reshape(-1, b.shape[0]).T @ a.data.reshape(-1, b.shape[1]))
            else:
                b._accumulate(g.transpose(0, 2, 1) @ a.data)
    return _make(a.data @ b_t, (a, b), backward)


def matvec(w, x):
    """w @ x for every trailing vector of x: (o, n) and (..., n) -> (..., o).

    Computed as a stack of matrix-vector products rather than x @ w^T,
    which rounds differently, so each row equals matmul(w, row).
    """
    if w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise _shape_err("matvec", w, x)
    out_dim, in_dim = w.shape

    def backward(g):
        if w.requires_grad:
            w._accumulate(g.reshape(-1, out_dim).T @ x.data.reshape(-1, in_dim))
        if x.requires_grad:
            x._accumulate(g @ w.data)
    return _make((w.data @ x.data[..., None])[..., 0], (w, x), backward)


def dot_rows(x, v):
    """x_i . v for every trailing vector x_i of x: (..., n) and (n,) -> (...).

    Each entry is one dot product, rounded like matmul(v, x_i) of two
    1-D tensors; x @ v or an elementwise product and sum round
    differently.
    """
    if v.data.ndim != 1 or x.data.ndim < 1 or x.shape[-1] != v.shape[0]:
        raise _shape_err("dot_rows", x, v)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[..., None] * v.data)
        if v.requires_grad:
            v._accumulate((g[..., None] * x.data).reshape(-1, v.shape[0]).sum(axis=0))
    return _make((x.data[..., None, :] @ v.data[:, None])[..., 0, 0], (x, v), backward)


# ------------------------------------------------------------ restructuring


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    if any(t.data.ndim != ndim for t in tensors) or axis >= ndim:
        raise _shape_err("concat", *tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

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
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise _shape_err("stack", *tensors)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(g[i])
    return _make(np.stack([t.data for t in tensors]), tensors, backward)


def reshape(a, shape):
    """The same values in a new shape of the same size."""
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))
    return _make(a.data.reshape(shape), (a,), backward)


def gather(a, index):
    """a[index] along the first axis, for an integer array `index`.

    The result has shape index.shape + a.shape[1:]; rows taken more
    than once receive the sum of their gradients.
    """
    index = np.asarray(index)
    if a.data.ndim < 1 or index.dtype.kind not in "iu":
        raise _shape_err("gather", a)
    if index.size and (index.min() < 0 or index.max() >= a.shape[0]):
        raise ContractError(f"gather: index out of range for {a.shape}")

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, index, g)
            a._accumulate(buf)
    return _make(a.data[index], (a,), backward)


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
            buf = np.zeros_like(a.data)
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
            # straight into the row: a row per member of every node of a
            # level would otherwise allocate a level-sized buffer each
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
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
        a._accumulate(np.broadcast_to(g, a.shape))
    return _make(a.data.sum(axis=axis), (a,), backward)


def mean(a, axis=None):
    """Mean of all entries, or over axis 0 or 1 of a 2-D or 3-D tensor."""
    if axis is not None and (a.data.ndim not in (2, 3) or axis not in (0, 1)):
        raise _shape_err("mean(axis)", a)
    count = a.data.size if axis is None else a.shape[axis]

    def backward(g):
        if not a.requires_grad:
            return
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / count)
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


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift.

    Accepts (d,), (k, d) or (B, k, d) inputs; gain and bias are (d,).
    """
    if gain.shape != bias.shape or gain.data.ndim != 1:
        raise _shape_err("layer_norm", gain, bias)
    if x.shape[-1] != gain.shape[0] or x.data.ndim not in (1, 2, 3):
        raise _shape_err("layer_norm", x, gain)
    d = gain.shape[0]
    # the sums and divisions of np.mean and np.var, so bitwise equal to
    # them, without their Python wrappers
    c = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (c * c).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = c * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.sum(axis=-1, keepdims=True) / d
            m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
            x._accumulate(inv * (dxhat - m1 - xhat * m2))
    return _make(out, (x, gain, bias), backward)


# -------------------------------------------------------------------- losses


def cross_entropy(logits, target):
    """Negative log softmax probability of the integer target class."""
    if logits.data.ndim != 1:
        raise _shape_err("cross_entropy", logits)
    target = int(target)
    if not 0 <= target < logits.shape[0]:
        raise ContractError(f"cross_entropy: target {target} out of range for {logits.shape}")
    z = logits.data - logits.data.max()
    e = np.exp(z)
    probs = e / e.sum()
    value = np.log(e.sum()) - z[target]

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
    if y.shape != logits.shape:
        raise ShapeError(f"binary_cross_entropy: labels {y.shape} vs logits {logits.shape}")
    x = logits.data
    value = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-x))
            logits._accumulate(g * (sig - y))
    return _make(value, (logits,), backward)


def l2_loss(a, b):
    """Sum of squared differences, as a scalar."""
    if a.shape != b.shape:
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
        # blow the recursion limit
        ordered = []
        visited = set()
        stack = [(out, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                ordered.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return cls(ordered)

    def __len__(self):
        return len(self._ordered)

    def run_backward(self, out):
        out._accumulate(np.ones_like(out.data))
        for node in reversed(self._ordered):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def backward(loss):
    """Propagate d(loss)/d(param) into every reachable parameter's .grad."""
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
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
    Parameters with no gradient are skipped.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params, lr=0.001, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._t = 0

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self._t += 1
        b1, b2 = self.BETAS
        for key, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[key]
            v = self._v[key]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self._t)
            vhat = v / (1 - b2 ** self._t)
            update = mhat / (np.sqrt(vhat) + self.EPS)
            if self.weight_decay:
                # decoupled: decay the pre-step weight, outside the moments
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


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


def save_checkpoint(params, path):
    """Write parameters as deterministic JSON: name -> shape + flat data."""
    obj = {
        name: {"shape": list(p.data.shape), "data": [float(x) for x in p.data.reshape(-1)]}
        for name, p in params.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path):
    """Read a checkpoint back as {name: ndarray}."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    out = {}
    for name, rec in obj.items():
        out[name] = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
    return out


def load_into(params, path):
    """Load a checkpoint into live parameter tensors.

    The checkpoint must hold exactly the model's parameter names, each
    with the live tensor's shape.
    """
    stored = load_checkpoint(path)
    extra = sorted(set(stored) - set(params))
    if extra:
        raise ContractError(f"checkpoint has parameters the model lacks: {extra}")
    for name, p in params.items():
        if name not in stored:
            raise ContractError(f"checkpoint missing parameter {name!r}")
        if stored[name].shape != p.data.shape:
            raise ShapeError(
                f"checkpoint parameter {name!r} has shape {stored[name].shape}, want {p.data.shape}"
            )
        p.data = stored[name]

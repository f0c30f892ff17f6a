"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and records the operations applied to it;
``backward()`` on a scalar result walks the recorded graph in reverse
topological order and fills ``.grad`` on every leaf that requires it.

Rules this engine enforces:
  * everything is float64, row-major;
  * any primitive producing a NaN/Inf raises NumericError naming the op;
  * calling backward twice without clearing leaf grads is an error
    (accumulation across passes hides training bugs);
  * graph recording and backward are single-threaded; independent graphs
    may be evaluated concurrently since there is no shared mutable state.
"""

from __future__ import annotations

import numpy as np

_grad_enabled = True


class ShapeError(ValueError):
    """Operand shapes incompatible for the requested op."""


class NumericError(ArithmeticError):
    """A primitive produced a non-finite value."""


class ContractError(RuntimeError):
    """An operation was called outside its contract."""


class no_grad:
    """Context manager disabling graph recording (pure forward evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _finite_or_raise(op: str, arr: np.ndarray) -> np.ndarray:
    # a non-finite element poisons the sum, so this is a one-pass check
    if not np.isfinite(np.sum(arr)):
        raise NumericError(f"op '{op}' produced non-finite values")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None

    # -- introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    # -- graph plumbing ------------------------------------------------

    def _is_leaf(self) -> bool:
        return self._backward is None

    def backward(self):
        backward(self)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __getitem__(self, key):
        return tensor_slice(self, key)

    # method mirrors of the free functions, for fluent chains
    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op: str, data: np.ndarray, parents, backward_fn) -> Tensor:
    """Wrap an op result; attaches the backward closure only when needed."""
    out = Tensor(_finite_or_raise(op, np.asarray(data, dtype=np.float64)))
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) into the grads of all requires_grad leaves.

    `loss` must be scalar. Erroring on pre-existing leaf grads forces an
    explicit zero_grad between optimization steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward() on a tensor with no recorded graph")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    for node in topo:
        if node._is_leaf() and node.grad is not None:
            raise ContractError(
                "backward() would accumulate into an existing grad; "
                "call zero_grad() on leaves between passes"
            )

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._is_leaf():
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# -- elementwise arithmetic ---------------------------------------------


def _binary_shapes_ok(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes_ok("add", a, b)
    return _make("add", a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes_ok("sub", a, b)
    return _make("sub", a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes_ok("mul", a, b)
    return _make("mul", a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes_ok("div", a, b)
    return _make("div", a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def neg(a: Tensor) -> Tensor:
    return _make("neg", -a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make("exp", out_data, (a,), lambda g: (g * out_data,))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _make("sqrt", out_data, (a,), lambda g: (g * 0.5 / out_data,))


def abs_(a: Tensor) -> Tensor:
    return _make("abs", np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def sin(a: Tensor) -> Tensor:
    return _make("sin", np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),))


def cos(a: Tensor) -> Tensor:
    return _make("cos", np.cos(a.data), (a,), lambda g: (-g * np.sin(a.data),))


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    return _make("sigmoid", out_data, (a,),
                 lambda g: (g * out_data * (1.0 - out_data),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make("relu", np.where(mask, a.data, 0.0), (a,),
                 lambda g: (g * mask,))


# -- linear algebra / shape --------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return _make("matmul", a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        inv = None
    else:
        axes = tuple(axes)
        inv = tuple(int(i) for i in np.argsort(axes))
    return _make(
        "transpose", np.transpose(a.data, axes), (a,),
        lambda g: (np.transpose(g, inv) if inv is not None else np.transpose(g),),
    )


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from None
    return _make("reshape", out_data, (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of an empty list")
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat(axis={axis}): incompatible shapes {[t.shape for t in tensors]}"
        ) from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make("concat", out_data, tuple(tensors), bw)


def tensor_slice(a: Tensor, key) -> Tensor:
    out_data = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return (full,)

    return _make("slice", out_data, (a,), bw)


# -- reductions ---------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make("sum", a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.shape).copy(),)

    return _make("mean", a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        gs = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - gs),)

    return _make("softmax", out_data, (a,), bw)

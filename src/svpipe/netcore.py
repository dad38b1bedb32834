"""Minimal feed-forward network substrate with hand-derived gradients.

Everything is plain float64 numpy: affine layers with a small set of
activations, explicit forward/backward passes, SGD and Adam steps, the one
minibatch-SGD training loop and learning-rate rule every network shares, and
the one quadratic penalty that pulls parameters toward a fixed anchor (joint
and e2e training's starting system, or zero for full-batch DPLDA).
No autodiff, no GPU; batches are matrices of shape (B, dim).
"""

from __future__ import annotations

import logging
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, OptimizerError, ShapeError, StateError

logger = logging.getLogger(__name__)

# model files store an activation as its index here, so the order is fixed
Activation = typing.Literal["linear", "sigmoid", "tanh", "softmax", "lengthnorm"]
ACTIVATIONS = typing.get_args(Activation)

# Adam moment decay rates and denominator guard (Kingma and Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class Layer:
    """One affine layer: y = act(x @ weight.T + bias).

    weight has shape (out, in); "lengthnorm" scales each affine output row
    to unit Euclidean norm (zero rows stay zero).
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: Activation

    @property
    def n_in(self):
        return self.weight.shape[1]

    @property
    def n_out(self):
        return self.weight.shape[0]


@dataclass
class Mlp:
    """Ordered affine layers; adjacent layer widths must chain."""

    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ShapeError(f"unknown activation {layer.activation!r}")
            if layer.weight.ndim != 2 or layer.bias.ndim != 1:
                raise ShapeError(f"layer {i}: weight must be 2-d, bias 1-d")
            if layer.bias.shape[0] != layer.weight.shape[0]:
                raise ShapeError(f"layer {i}: bias length != output width")
            if not (np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()):
                raise ShapeError(f"layer {i}: non-finite parameters")
            if layer.activation == "softmax" and i != len(self.layers) - 1:
                raise ShapeError("softmax is only valid as the final activation")
            if i > 0 and layer.n_in != self.layers[i - 1].n_out:
                raise ShapeError(
                    f"layer {i}: input width {layer.n_in} does not chain with "
                    f"previous output width {self.layers[i - 1].n_out}"
                )

    @property
    def n_in(self):
        return self.layers[0].n_in

    @property
    def n_out(self):
        return self.layers[-1].n_out

    def parameters(self):
        """Flat parameter list [W0, b0, W1, b1, ...] (references, not copies)."""
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def set_parameters(self, params):
        if len(params) != 2 * len(self.layers):
            raise ShapeError("parameter list length does not match the network")
        for i, layer in enumerate(self.layers):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != layer.weight.shape or b.shape != layer.bias.shape:
                raise ShapeError(f"layer {i}: parameter shape mismatch")
            layer.weight = np.asarray(w, dtype=np.float64)
            layer.bias = np.asarray(b, dtype=np.float64)

    def copy(self):
        """Deep copy of the same class (a subclass stays a subclass)."""
        return type(self)(
            [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )


def init_mlp(widths, activations, seed=0):
    """Build an Mlp with uniform +-sqrt(6/(fan_in+fan_out)) weights.

    widths: [in, h1, ..., out]; activations: one tag per layer.
    """
    if len(activations) != len(widths) - 1:
        raise ShapeError("need one activation per layer")
    rng = np.random.default_rng(seed)
    layers = []
    for (n_in, n_out), act in zip(zip(widths[:-1], widths[1:]), activations):
        bound = np.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-bound, bound, size=(n_out, n_in))
        layers.append(Layer(w, np.zeros(n_out), act))
    return Mlp(layers)


def _affine(x, layer):
    z = x @ layer.weight.T
    z += layer.bias
    return z


def _activate(z, kind):
    """Activation of a fresh pre-activation z; sigmoid and softmax overwrite z."""
    if kind == "linear":
        return z
    if kind == "sigmoid":
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "softmax":
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        return z
    if kind == "lengthnorm":
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        return z / safe
    raise ShapeError(f"unknown activation {kind!r}")


def forward(net: Mlp, x) -> list[np.ndarray]:
    """Run the net on a (B, n_in) batch.

    Returns a list of length n_layers + 1: entry 0 is the input, entry l the
    output of layer l, so the last entry is the network output. The full list
    is the cache consumed by backward().
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("input must be a (batch, dim) matrix")
    if x.shape[0] < 1:
        raise InputError("empty batch")
    if x.shape[1] != net.n_in:
        raise ShapeError(f"input width {x.shape[1]} != network input {net.n_in}")
    if not np.isfinite(x).all():
        raise InputError("non-finite values in network input")
    acts = [x]
    for layer in net.layers:
        acts.append(_activate(_affine(acts[-1], layer), layer.activation))
    return acts


def _activation_backward(layer, a_in, a_out, grad):
    """Gradient w.r.t. the affine pre-activation, given grad w.r.t. output."""
    kind = layer.activation
    if kind == "linear":
        return grad
    if kind == "sigmoid":
        dz = grad * a_out
        dz *= 1.0 - a_out
        return dz
    if kind == "tanh":
        return grad * (1.0 - a_out * a_out)
    if kind == "softmax":
        dz = grad * a_out
        inner = dz.sum(axis=1, keepdims=True)
        np.subtract(grad, inner, out=dz)
        dz *= a_out
        return dz
    if kind == "lengthnorm":
        # norm is lost in the output; recompute the pre-activation
        z = _affine(a_in, layer)
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        inner = (grad * a_out).sum(axis=1, keepdims=True)
        dz = (grad - a_out * inner) / safe
        return np.where(norms > 0.0, dz, 0.0)
    raise ShapeError(f"unknown activation {kind!r}")


def backward(net: Mlp, acts, grad_output, input_grad=True):
    """Backpropagate grad_output (B, n_out) through a cached forward pass.

    Returns (grads, grad_input) where grads is a flat list aligned with
    net.parameters(): [dW0, db0, dW1, db1, ...]. With input_grad=False the
    gradient w.r.t. the network input is not computed and grad_input is None.
    """
    if len(acts) != len(net.layers) + 1:
        raise StateError("activation cache does not match the network depth")
    for i, layer in enumerate(net.layers):
        if acts[i + 1].shape[1] != layer.n_out or acts[i].shape[1] != layer.n_in:
            raise StateError(f"activation cache widths inconsistent at layer {i}")
    grad = np.asarray(grad_output, dtype=np.float64)
    if grad.shape != acts[-1].shape:
        raise ShapeError("grad_output shape must match the network output")
    grads = [None] * (2 * len(net.layers))
    for l in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[l]
        dz = _activation_backward(layer, acts[l], acts[l + 1], grad)
        grads[2 * l] = dz.T @ acts[l]
        grads[2 * l + 1] = dz.sum(axis=0)
        grad = dz @ layer.weight if l > 0 or input_grad else None
    return grads, grad


def sgd_step(params, grads, lr, l1_weight=0.0):
    """params <- params - lr * (grads + l1_weight * sign(params)); sign(0)=0."""
    if lr <= 0.0:
        raise OptimizerError("learning rate must be positive")
    if l1_weight < 0.0:
        raise OptimizerError("l1 weight must be non-negative")
    out = []
    for p, g in zip(params, grads, strict=True):
        if not np.isfinite(g).all():
            raise OptimizerError("non-finite gradient in sgd_step")
        if l1_weight == 0.0:
            # the term 0 * sign(p) can only matter where p and g are both
            # zeros, and there it is +0.0 (np.sign(-0.0) is +0.0): "+ 0.0"
            # keeps the bits without the sign pass, plain g would not
            # (p = g = -0.0 would give -0.0 instead of +0.0)
            out.append(p - lr * (g + 0.0))
        else:
            out.append(p - lr * (g + l1_weight * np.sign(p)))
    return out


def lr_schedule_step(history, lr):
    """Halve lr iff the latest epoch's cost is no better than the best before it."""
    if len(history) < 1:
        raise InputError("need at least one completed epoch")
    return lr * 0.5 if len(history) > 1 and history[-1] >= min(history[:-1]) else lr


@dataclass
class SgdSchedule:
    """Minibatch SGD settings; no field has a default."""

    lr: float
    n_epochs: int
    batch_size: int
    seed: int
    l1_weight: float

    def __post_init__(self):
        if not self.lr > 0.0:
            raise ConfigError(f"learning rate must be positive, not {self.lr}")
        if self.n_epochs < 0:
            raise ConfigError(f"epoch count must be >= 0, not {self.n_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, not {self.batch_size}")
        if not self.l1_weight >= 0.0:
            raise ConfigError(f"l1 weight must be non-negative, not {self.l1_weight}")


def train_sgd(net: Mlp, inputs, targets, loss_fn, schedule: SgdSchedule):
    """Minibatch SGD of loss_fn(net output, target rows) over aligned rows.

    loss_fn(outputs, targets) returns (mean batch loss, gradient w.r.t. the
    outputs). Rows are reshuffled every epoch by a generator seeded with
    schedule.seed; each batch takes one sgd_step with the schedule's L1
    weight. An epoch's cost is the row-weighted mean batch loss plus the L1
    term of the parameters at the epoch's end, and lr_schedule_step halves
    the rate on it. Returns (trained copy of net, per-epoch costs); zero
    epochs return an untrained copy and an empty history.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.shape[0] != targets.shape[0]:
        raise InputError("target rows do not align with the inputs")
    if inputs.shape[0] == 0:
        raise InputError("empty training set")
    n_rows = inputs.shape[0]
    rng = np.random.default_rng(schedule.seed)
    model = net.copy()
    lr = schedule.lr
    history = []
    for epoch in range(schedule.n_epochs):
        order = rng.permutation(n_rows)
        total = 0.0
        for lo in range(0, n_rows, schedule.batch_size):
            idx = order[lo : lo + schedule.batch_size]
            acts = forward(model, inputs[idx])
            loss, grad = loss_fn(acts[-1], targets[idx])
            grads, _ = backward(model, acts, grad, input_grad=False)
            model.set_parameters(
                sgd_step(model.parameters(), grads, lr, schedule.l1_weight)
            )
            total += loss * idx.shape[0]
        l1_term = schedule.l1_weight * sum(np.abs(p).sum() for p in model.parameters())
        history.append(total / n_rows + l1_term)
        logger.debug("sgd epoch %d: cost %.6f lr %.4g", epoch, history[-1], lr)
        lr = lr_schedule_step(history, lr)
    return model, history


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus the learning rate."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    lr: float

    @classmethod
    def create(cls, params, lr):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step=0,
            lr=lr,
        )


def adam_step(state: AdamState, params, grads):
    """One Adam update with bias correction; mutates state, returns new params."""
    if len(state.m) != len(params):
        raise OptimizerError("Adam state does not match the parameter list")
    state.step += 1
    t = state.step
    c1 = 1.0 - _ADAM_BETA1**t
    c2 = 1.0 - _ADAM_BETA2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads, strict=True)):
        if g.shape != p.shape:
            raise OptimizerError(f"gradient {i} shape {g.shape} != param {p.shape}")
        if not np.isfinite(g).all():
            raise OptimizerError("non-finite gradient in adam_step")
        state.m[i] = _ADAM_BETA1 * state.m[i] + (1.0 - _ADAM_BETA1) * g
        state.v[i] = _ADAM_BETA2 * state.v[i] + (1.0 - _ADAM_BETA2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS))
    return out


def penalty_to_snapshot(params, anchor, weight):
    """Quadratic pull of params toward the anchor, a list of the same shapes.

    Returns (penalty, grads): penalty = weight * sum_g sum((p - p0)^2), and
    the gradient 2 * weight * (p - p0) for each group; the weight must be
    finite and non-negative. Joint and e2e training pull toward the system's
    anchor with it, full-batch DPLDA pulls (lam, gamma, c) toward zero.
    """
    if not 0.0 <= weight < np.inf:
        raise InputError(f"penalty weight must be finite and non-negative, not {weight}")
    if len(params) != len(anchor):
        raise ShapeError("anchor group count does not match the parameters")
    penalty = 0.0
    grads = []
    for p, p0 in zip(params, anchor):
        if p.shape != p0.shape:
            raise ShapeError("anchor shape does not match the live parameters")
        diff = p - p0
        penalty += weight * float((diff * diff).sum())
        grads.append(2.0 * weight * diff)
    return penalty, grads

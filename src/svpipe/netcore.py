"""Minimal feed-forward network substrate with hand-derived gradients.

Everything is plain float64 numpy: affine layers with a small set of
activations, explicit forward/backward passes, SGD and Adam steps, and a
quadratic penalty that pulls parameters back toward a reference snapshot.
No autodiff, no GPU; batches are matrices of shape (B, dim).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, OptimizerError, ShapeError, StateError

ACTIVATIONS = ("linear", "sigmoid", "tanh", "softmax", "lengthnorm")

# stable codes used by the model container format
ACTIVATION_CODES = {name: i for i, name in enumerate(ACTIVATIONS)}
ACTIVATION_NAMES = {i: name for name, i in ACTIVATION_CODES.items()}


@dataclass
class Layer:
    """One affine layer: y = act(x @ weight.T + bias).

    weight has shape (out, in); "lengthnorm" scales each affine output row
    to unit Euclidean norm (zero rows stay zero).
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: str

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
        return Mlp(
            [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )

    def to_tensors(self, prefix=""):
        tensors = {f"{prefix}n_layers": np.float64(len(self.layers))}
        for i, layer in enumerate(self.layers):
            tensors[f"{prefix}layers.{i}.weight"] = layer.weight
            tensors[f"{prefix}layers.{i}.bias"] = layer.bias
            tensors[f"{prefix}layers.{i}.activation"] = np.float64(
                ACTIVATION_CODES[layer.activation]
            )
        return tensors

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        n = int(tensors[f"{prefix}n_layers"])
        layers = []
        for i in range(n):
            code = int(tensors[f"{prefix}layers.{i}.activation"])
            layers.append(
                Layer(
                    np.array(tensors[f"{prefix}layers.{i}.weight"], dtype=np.float64),
                    np.array(tensors[f"{prefix}layers.{i}.bias"], dtype=np.float64),
                    ACTIVATION_NAMES[code],
                )
            )
        return cls(layers)


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
        out.append(p - lr * (g + l1_weight * np.sign(p)))
    return out


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus hyperparameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(cls, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step=0,
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(state: AdamState, params, grads):
    """One Adam update with bias correction; mutates state, returns new params."""
    if len(state.m) != len(params):
        raise OptimizerError("Adam state does not match the parameter list")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads, strict=True)):
        if g.shape != p.shape:
            raise OptimizerError(f"gradient {i} shape {g.shape} != param {p.shape}")
        if not np.isfinite(g).all():
            raise OptimizerError("non-finite gradient in adam_step")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


@dataclass
class ParamSnapshot:
    """Reference copy of a parameter list with one penalty weight per group."""

    values: list[np.ndarray]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (len(self.values),):
            raise ShapeError("one penalty weight per parameter group required")


def make_snapshot(params, weight):
    """Freeze copies of params with a shared (or per-group) penalty weight."""
    weights = np.broadcast_to(np.asarray(weight, dtype=np.float64), (len(params),))
    return ParamSnapshot([np.array(p, dtype=np.float64) for p in params], weights.copy())


def penalty_to_snapshot(params, snapshot: ParamSnapshot):
    """Quadratic pull toward the snapshot.

    Returns (penalty, grads): penalty = sum_g w_g * sum((p - p0)^2), and the
    gradient 2 * w_g * (p - p0) for each group.
    """
    if len(params) != len(snapshot.values):
        raise ShapeError("snapshot group count does not match the parameters")
    penalty = 0.0
    grads = []
    for p, p0, w in zip(params, snapshot.values, snapshot.weights, strict=True):
        if p.shape != p0.shape:
            raise ShapeError("snapshot shape does not match the live parameters")
        diff = p - p0
        penalty += w * float((diff * diff).sum())
        grads.append(2.0 * w * diff)
    return penalty, grads

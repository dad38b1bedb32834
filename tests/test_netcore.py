import math

import numpy as np
import pytest

from conftest import finite_difference, max_rel_err
from svpipe import netcore
from svpipe.errors import InputError, OptimizerError, ShapeError, StateError


def test_zero_softmax_net_is_uniform():
    net = netcore.Mlp([netcore.Layer(np.zeros((4, 3)), np.zeros(4), "softmax")])
    out = netcore.forward(net, np.random.default_rng(0).standard_normal((5, 3)))[-1]
    assert np.allclose(out, 0.25, atol=1e-15)


def test_identity_affine_linear_passthrough():
    net = netcore.Mlp([netcore.Layer(np.eye(3), np.zeros(3), "linear")])
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert np.array_equal(netcore.forward(net, x)[-1], x)


def test_forward_matches_elementwise_oracle():
    # independent oracle: per-element loops + math.exp/tanh
    rng = np.random.default_rng(2)
    net = netcore.init_mlp([5, 4, 3], ["sigmoid", "tanh"], seed=3)
    x = rng.standard_normal((3, 5))
    out = netcore.forward(net, x)[-1]

    expected = np.zeros((3, 3))
    for b in range(3):
        h = []
        for o in range(4):
            z = net.layers[0].bias[o]
            for i in range(5):
                z += net.layers[0].weight[o, i] * x[b, i]
            h.append(1.0 / (1.0 + math.exp(-z)))
        for o in range(3):
            z = net.layers[1].bias[o]
            for i in range(4):
                z += net.layers[1].weight[o, i] * h[i]
            expected[b, o] = math.tanh(z)
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_forward_deterministic_bitwise():
    net = netcore.init_mlp([6, 5, 2], ["tanh", "lengthnorm"], seed=4)
    x = np.random.default_rng(5).standard_normal((7, 6))
    a = netcore.forward(net, x)[-1]
    b = netcore.forward(net, x)[-1]
    assert np.array_equal(a, b)


def test_softmax_rows_sum_to_one():
    net = netcore.init_mlp([4, 6], ["softmax"], seed=6)
    out = netcore.forward(net, np.random.default_rng(7).standard_normal((10, 4)))[-1]
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_lengthnorm_rows_unit_norm_and_zero_row():
    net = netcore.init_mlp([3, 4], ["lengthnorm"], seed=8)
    x = np.random.default_rng(9).standard_normal((6, 3))
    out = netcore.forward(net, x)[-1]
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12
    # zero pre-activation row stays zero, with zero gradient
    net0 = netcore.Mlp([netcore.Layer(np.zeros((4, 3)), np.zeros(4), "lengthnorm")])
    acts = netcore.forward(net0, x)
    assert np.array_equal(acts[-1], np.zeros((6, 4)))
    grads, gin = netcore.backward(net0, acts, np.ones((6, 4)))
    assert np.array_equal(gin, np.zeros((6, 3)))


def test_backward_zero_grad_output():
    net = netcore.init_mlp([4, 3, 2], ["sigmoid", "linear"], seed=10)
    acts = netcore.forward(net, np.random.default_rng(11).standard_normal((5, 4)))
    grads, gin = netcore.backward(net, acts, np.zeros((5, 2)))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
    assert np.array_equal(gin, np.zeros((5, 4)))


def test_backward_linear_closed_form():
    # loss = sum of outputs: dW[o, i] = column sum of inputs, db = B * ones
    rng = np.random.default_rng(12)
    net = netcore.Mlp([netcore.Layer(rng.standard_normal((3, 5)), rng.standard_normal(3), "linear")])
    x = rng.standard_normal((7, 5))
    acts = netcore.forward(net, x)
    grads, _ = netcore.backward(net, acts, np.ones((7, 3)))
    assert np.allclose(grads[0], np.outer(np.ones(3), x.sum(axis=0)), atol=1e-12)
    assert np.allclose(grads[1], 7.0 * np.ones(3), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backward_matches_finite_differences(seed):
    # randomized nets up to 4 layers, every activation type somewhere
    rng = np.random.default_rng(seed)
    layouts = [
        ([5, 4, 3], ["sigmoid", "softmax"]),
        ([4, 6, 5, 2], ["tanh", "sigmoid", "lengthnorm"]),
        ([3, 4, 4, 3, 2], ["linear", "tanh", "sigmoid", "linear"]),
    ]
    widths, acts_kind = layouts[seed % len(layouts)]
    net = netcore.init_mlp(widths, acts_kind, seed=seed + 100)
    x = rng.standard_normal((4, widths[0]))
    direction = rng.standard_normal((4, widths[-1]))

    x_before = x.copy()
    acts = netcore.forward(net, x)
    assert np.array_equal(x, x_before)  # activations run in place, never on x
    grads, grad_in = netcore.backward(net, acts, direction)
    param_grads, no_grad_in = netcore.backward(net, acts, direction, input_grad=False)
    assert no_grad_in is None
    for g, g_only in zip(grads, param_grads, strict=True):
        assert np.array_equal(g, g_only)

    def loss():
        return float((netcore.forward(net, x)[-1] * direction).sum())

    for p, g in zip(net.parameters(), grads):
        fd = finite_difference(loss, p)
        assert max_rel_err(g, fd, floor=1e-6) < 1e-4
    fd_in = finite_difference(lambda: float((netcore.forward(net, x)[-1] * direction).sum()), x)
    assert max_rel_err(grad_in, fd_in, floor=1e-6) < 1e-4


def test_sgd_step_cases():
    p = [np.array([1.0, -2.0])]
    out = netcore.sgd_step(p, [np.zeros(2)], lr=0.1, l1_weight=0.0)
    assert np.array_equal(out[0], p[0])
    # frozen: param=1, grad=0, lr=0.1, l1=0.5 -> 0.95
    out = netcore.sgd_step([np.array([1.0])], [np.array([0.0])], lr=0.1, l1_weight=0.5)
    assert np.allclose(out[0], [0.95], atol=1e-15)
    # random step vs scalar recomputation
    rng = np.random.default_rng(13)
    params = [rng.standard_normal((3, 2)), rng.standard_normal(4)]
    grads = [rng.standard_normal((3, 2)), rng.standard_normal(4)]
    stepped = netcore.sgd_step(params, grads, lr=0.07, l1_weight=0.2)
    for p, g, s in zip(params, grads, stepped):
        expect = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            sign = 0.0 if p[idx] == 0 else (1.0 if p[idx] > 0 else -1.0)
            expect[idx] = p[idx] - 0.07 * (g[idx] + 0.2 * sign)
        assert np.allclose(s, expect, atol=1e-15)


def test_adam_zero_grads_identity():
    params = [np.array([1.0, 2.0])]
    state = netcore.AdamState.create(params, lr=0.1)
    out = netcore.adam_step(state, params, [np.zeros(2)])
    assert np.array_equal(out[0], params[0])
    assert state.step == 1


def test_adam_first_step_sign_direction():
    g = np.array([3.0, -0.5, 1e-3])
    params = [np.zeros(3)]
    state = netcore.AdamState.create(params, lr=0.01)
    out = netcore.adam_step(state, params, [g])
    assert np.allclose(out[0], -0.01 * np.sign(g), atol=1e-5)


def test_adam_matches_reference_loop():
    # independent re-implementation of the update rule
    rng = np.random.default_rng(14)
    p = rng.standard_normal(5)
    params = [p.copy()]
    state = netcore.AdamState.create(params, lr=0.05)
    ref = p.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 11):
        g = rng.standard_normal(5)
        params = netcore.adam_step(state, params, [g.copy()])
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert np.allclose(params[0], ref, atol=1e-12)


def test_adam_lr_zero_identity():
    rng = np.random.default_rng(15)
    params = [rng.standard_normal((2, 2))]
    state = netcore.AdamState.create(params, lr=0.0)
    out = netcore.adam_step(state, params, [rng.standard_normal((2, 2))])
    assert np.array_equal(out[0], params[0])


def test_penalty_to_snapshot():
    rng = np.random.default_rng(16)
    params = [rng.standard_normal((2, 3)), rng.standard_normal(4)]
    snap = netcore.make_snapshot(params, 0.5)
    pen, grads = netcore.penalty_to_snapshot(params, snap)
    assert pen == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
    snap0 = netcore.make_snapshot([np.zeros((2, 3)), np.zeros(4)], 0.0)
    pen, _ = netcore.penalty_to_snapshot(params, snap0)
    assert pen == 0.0
    # random case vs scalar loop
    ref = [rng.standard_normal((2, 3)), rng.standard_normal(4)]
    snap = netcore.ParamSnapshot([r.copy() for r in ref], np.array([0.3, 0.7]))
    pen, grads = netcore.penalty_to_snapshot(params, snap)
    expect = 0.0
    for p, r, w in zip(params, ref, [0.3, 0.7]):
        for a, b in zip(p.ravel(), r.ravel()):
            expect += w * (a - b) ** 2
    assert abs(pen - expect) < 1e-12
    for p, r, w, g in zip(params, ref, [0.3, 0.7], grads):
        assert np.allclose(g, 2 * w * (p - r), atol=1e-15)


def test_error_cases():
    net = netcore.init_mlp([3, 2], ["linear"], seed=0)
    with pytest.raises(ShapeError):
        netcore.forward(net, np.zeros((2, 4)))
    with pytest.raises(InputError):
        netcore.forward(net, np.array([[np.nan, 0.0, 1.0]]))
    with pytest.raises(ShapeError):
        netcore.init_mlp([3, 4, 2], ["softmax", "linear"], seed=0)
    acts = netcore.forward(net, np.zeros((2, 3)))
    with pytest.raises(StateError):
        netcore.backward(net, acts[:-1], np.zeros((2, 2)))
    with pytest.raises(OptimizerError):
        netcore.sgd_step([np.ones(2)], [np.array([np.inf, 0.0])], lr=0.1)
    state = netcore.AdamState.create([np.ones(2)], lr=0.1)
    with pytest.raises(OptimizerError):
        netcore.adam_step(state, [np.ones(2)], [np.array([np.nan, 0.0])])

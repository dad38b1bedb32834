import math

import numpy as np
import pytest

from conftest import finite_difference, max_rel_err
from svpipe import netcore
from svpipe.errors import ConfigError, InputError, OptimizerError, ShapeError, StateError
from svpipe.ivecnet import cosine_loss
from svpipe.statsnet import frame_cross_entropy


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


def test_sgd_step_without_l1_keeps_signed_zero_bits():
    # with l1_weight == 0 the step skips the sign pass; it must still give
    # the bits of the full expression, signed zeros included
    values = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]
    p = np.repeat(values, len(values))
    g = np.tile(values, len(values))
    for lr in (0.1, 0.5, 1.0):
        full = p - lr * (g + 0.0 * np.sign(p))
        (out,) = netcore.sgd_step([p], [g], lr=lr, l1_weight=0.0)
        assert out.tobytes() == full.tobytes()
        # the grid tells the two forms apart: plain p - lr * g differs
        assert (p - lr * g).tobytes() != full.tobytes()


def test_lr_schedule_rules():
    assert netcore.lr_schedule_step([0.5, 0.4], 0.2) == 0.2
    assert netcore.lr_schedule_step([0.4, 0.4], 0.2) == 0.1
    # replay: two halvings after epochs 3 and 4
    lr = 1.0
    history = [0.5, 0.4, 0.45, 0.45]
    lrs = []
    for upto in range(2, 5):
        lr = netcore.lr_schedule_step(history[:upto], lr)
        lrs.append(lr)
    assert lrs == [1.0, 0.5, 0.25]
    with pytest.raises(InputError):
        netcore.lr_schedule_step([], 0.1)


# the statistics-network and embedding-network training loops as they were
# before train_sgd replaced both; each returns (net, history, final lr)
def _reference_stats_net_loop(net, frames, targets, lr, n_epochs, batch_frames, seed):
    rng = np.random.default_rng(seed)
    model = net.copy()
    best = np.inf
    history = []
    for epoch in range(n_epochs):
        order = rng.permutation(frames.shape[0])
        total = 0.0
        for lo in range(0, frames.shape[0], batch_frames):
            idx = order[lo : lo + batch_frames]
            acts = netcore.forward(model, frames[idx])
            loss, grad = frame_cross_entropy(acts[-1], targets[idx])
            grads, _ = netcore.backward(model, acts, grad, input_grad=False)
            model.set_parameters(netcore.sgd_step(model.parameters(), grads, lr))
            total += loss * idx.shape[0]
        epoch_loss = total / frames.shape[0]
        history.append(epoch_loss)
        if epoch_loss >= best:
            lr *= 0.5
        best = min(best, epoch_loss)
    return model, history, lr


def _reference_ivec_net_loop(net, inputs, refs, lr, l1_weight, n_epochs, batch_size, seed):
    rng = np.random.default_rng(seed)
    model = net.copy()
    best = np.inf
    history = []
    for epoch in range(n_epochs):
        order = rng.permutation(inputs.shape[0])
        total = 0.0
        for lo in range(0, inputs.shape[0], batch_size):
            idx = order[lo : lo + batch_size]
            acts = netcore.forward(model, inputs[idx])
            loss, grad = cosine_loss(acts[-1], refs[idx])
            grads, _ = netcore.backward(model, acts, grad, input_grad=False)
            model.set_parameters(
                netcore.sgd_step(model.parameters(), grads, lr, l1_weight=l1_weight)
            )
            total += loss * idx.shape[0]
        l1_term = l1_weight * sum(np.abs(p).sum() for p in model.parameters())
        epoch_loss = total / inputs.shape[0] + l1_term
        history.append(epoch_loss)
        if epoch_loss >= best:
            lr *= 0.5
        best = min(best, epoch_loss)
    return model, history, lr


def _assert_same_training(trained, history, ref_net, ref_history):
    assert history == ref_history
    for a, b in zip(trained.parameters(), ref_net.parameters(), strict=True):
        assert np.array_equal(a, b)


def test_train_sgd_matches_the_stats_net_loop():
    rng = np.random.default_rng(17)
    frames = rng.standard_normal((300, 6))
    targets = netcore.forward(netcore.init_mlp([6, 4], ["softmax"], seed=18), frames)[-1]
    net = netcore.init_mlp([6, 10, 4], ["sigmoid", "softmax"], seed=19)
    schedule = netcore.SgdSchedule(lr=2.0, n_epochs=20, batch_size=64, seed=3, l1_weight=0.0)
    trained, history = netcore.train_sgd(net, frames, targets, frame_cross_entropy, schedule)
    ref_net, ref_history, ref_lr = _reference_stats_net_loop(
        net, frames, targets, schedule.lr, schedule.n_epochs, 64, 3
    )
    _assert_same_training(trained, history, ref_net, ref_history)
    assert ref_lr < schedule.lr  # the schedule halved at least once


def test_train_sgd_matches_the_ivec_net_loop():
    rng = np.random.default_rng(20)
    inputs = rng.standard_normal((90, 8))
    refs = netcore.forward(netcore.init_mlp([8, 5], ["lengthnorm"], seed=21), inputs)[-1]
    net = netcore.init_mlp([8, 12, 5], ["tanh", "lengthnorm"], seed=22)
    schedule = netcore.SgdSchedule(lr=1.0, n_epochs=20, batch_size=16, seed=4, l1_weight=1e-3)
    trained, history = netcore.train_sgd(net, inputs, refs, cosine_loss, schedule)
    ref_net, ref_history, ref_lr = _reference_ivec_net_loop(
        net, inputs, refs, schedule.lr, schedule.l1_weight, schedule.n_epochs, 16, 4
    )
    _assert_same_training(trained, history, ref_net, ref_history)
    assert ref_lr < schedule.lr  # the schedule halved at least once


@pytest.mark.parametrize(
    "field, value",
    [("lr", 0.0), ("lr", -0.1), ("lr", float("nan")), ("n_epochs", -1),
     ("batch_size", 0), ("l1_weight", -1e-5)],
)
def test_sgd_schedule_rejects_bad_values(field, value):
    good = dict(lr=0.1, n_epochs=0, batch_size=1, seed=0, l1_weight=0.0)
    netcore.SgdSchedule(**good)
    with pytest.raises(ConfigError):
        netcore.SgdSchedule(**{**good, field: value})


def test_train_sgd_zero_epochs_and_row_checks():
    net = netcore.init_mlp([3, 2], ["softmax"], seed=23)
    schedule = netcore.SgdSchedule(lr=0.1, n_epochs=0, batch_size=4, seed=0, l1_weight=0.0)
    x = np.random.default_rng(24).standard_normal((5, 3))
    trained, history = netcore.train_sgd(net, x, np.full((5, 2), 0.5), frame_cross_entropy, schedule)
    assert history == []
    assert trained is not net
    for a, b in zip(trained.parameters(), net.parameters(), strict=True):
        assert np.array_equal(a, b)
    with pytest.raises(InputError):
        netcore.train_sgd(net, x[:0], np.zeros((0, 2)), frame_cross_entropy, schedule)
    with pytest.raises(InputError):
        netcore.train_sgd(net, x, np.full((4, 2), 0.5), frame_cross_entropy, schedule)


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
    pen, grads = netcore.penalty_to_snapshot(params, [p.copy() for p in params], 0.5)
    assert pen == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
    pen, _ = netcore.penalty_to_snapshot(params, [np.zeros((2, 3)), np.zeros(4)], 0.0)
    assert pen == 0.0
    # random case vs scalar loop
    ref = [rng.standard_normal((2, 3)), rng.standard_normal(4)]
    pen, grads = netcore.penalty_to_snapshot(params, [r.copy() for r in ref], 0.3)
    expect = 0.0
    for p, r in zip(params, ref):
        for a, b in zip(p.ravel(), r.ravel()):
            expect += 0.3 * (a - b) ** 2
    assert abs(pen - expect) < 1e-12
    for p, r, g in zip(params, ref, grads):
        assert np.allclose(g, 2 * 0.3 * (p - r), atol=1e-15)


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

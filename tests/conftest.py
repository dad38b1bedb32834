import contextlib
import types
import weakref

import numpy as np
import pytest

from svpipe import netcore
from svpipe.corpus import SynthConfig, synth_corpus


def finite_difference(fn, array, eps=1e-5):
    """Central finite differences of a scalar fn() w.r.t. an array it reads.

    Mutates entries in place and restores them; fn takes no arguments.
    """
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        up = fn()
        array[idx] = orig - eps
        down = fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def max_rel_err(approx, exact, floor=1e-8):
    return float(
        (np.abs(np.asarray(approx) - np.asarray(exact))
         / np.maximum(floor, np.abs(exact))).max()
    )


def assert_close_to_max(got, want, tol=1e-12):
    """|got - want| within tol times the largest |want|, over the whole array."""
    want = np.asarray(want)
    assert np.abs(np.asarray(got) - want).max() <= tol * np.abs(want).max()


def dplda_score(params, phi_i, phi_j):
    """Oracle for dplda.score_pairs: one trial's quadratic form, term by term."""
    return float(
        phi_i @ params.lam @ phi_j
        + phi_j @ params.lam @ phi_i
        + phi_i @ params.gamma @ phi_i
        + phi_j @ params.gamma @ phi_j
        + (phi_i + phi_j) @ params.c
        + params.k
    )


@contextlib.contextmanager
def live_activation_caches(net):
    """Count the forward caches of net that are alive, by weak reference.

    Wraps netcore.forward. Each call on net opens one cache, which stays
    alive until the last array the call created has been freed, wherever
    the caller kept it. Yields the counts: live now and max_live so far.
    """
    caches = types.SimpleNamespace(live=0, max_live=0)
    forward = netcore.forward

    def counting_forward(called_net, x):
        acts = forward(called_net, x)
        if called_net is net:
            caches.live += 1
            caches.max_live = max(caches.max_live, caches.live)
            remaining = [len(acts) - 1]

            def freed():
                remaining[0] -= 1
                if remaining[0] == 0:
                    caches.live -= 1

            for array in acts[1:]:
                weakref.finalize(array, freed)
        return acts

    netcore.forward = counting_forward
    try:
        yield caches
    finally:
        netcore.forward = forward


@pytest.fixture(scope="session")
def small_corpus():
    """Fast corpus for module-level tests (not the acceptance desk config)."""
    cfg = SynthConfig(
        n_speakers=12,
        utts_per_speaker=6,
        min_frames=60,
        max_frames=140,
        dim=8,
        speaker_dim=5,
        channel_dim=2,
        noise_scale=1.5,
        nonlinearity=1.0,
        seed=7,
        frame_rate_hz=100.0,
    )
    return synth_corpus(cfg)

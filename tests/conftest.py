import numpy as np
import pytest

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

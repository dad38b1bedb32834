import numpy as np
import pytest

from svpipe import metrics
from svpipe.errors import MetricError


def sweep_oracle(scores, is_target, p_target=None):
    """Exhaustive threshold sweep: midpoints between sorted scores + extremes."""
    scores = np.asarray(scores, dtype=float)
    is_target = np.asarray(is_target, dtype=bool)
    uniq = np.unique(scores)
    thresholds = [uniq[0] - 1.0]
    thresholds += [0.5 * (a + b) for a, b in zip(uniq[:-1], uniq[1:])]
    thresholds += [uniq[-1] + 1.0]
    n_tar = is_target.sum()
    n_non = (~is_target).sum()
    points = []
    for th in thresholds:
        accept = scores >= th
        p_miss = (~accept & is_target).sum() / n_tar
        p_fa = (accept & ~is_target).sum() / n_non
        points.append((p_miss, p_fa))
    if p_target is None:
        return points
    norm = min(p_target, 1 - p_target)
    return min(p_target * m + (1 - p_target) * f for m, f in points) / norm


def test_eer_perfect_separation():
    t = metrics.ScoredTrials(np.array([5.0, 4.0, 1.0, 0.0]), np.array([1, 1, 0, 0], bool))
    assert metrics.eer(t) == 0.0


def test_eer_frozen_example():
    # targets {0.9, 0.4}, non-targets {0.6, 0.1}: P_miss = P_fa = 0.5 between 0.4 and 0.6
    t = metrics.ScoredTrials(np.array([0.9, 0.4, 0.6, 0.1]), np.array([1, 1, 0, 0], bool))
    assert metrics.eer(t) == pytest.approx(0.5, abs=1e-15)


def test_eer_inverted_labels_degenerate():
    t = metrics.ScoredTrials(np.array([0.0, 0.1, 5.0, 6.0]), np.array([1, 1, 0, 0], bool))
    assert metrics.eer(t) == pytest.approx(1.0, abs=1e-15)


def test_min_dcf_perfect_and_operating_points():
    t = metrics.ScoredTrials(np.array([5.0, 4.0, 1.0, 0.0]), np.array([1, 1, 0, 0], bool))
    assert metrics.min_dcf(t, 0.01) == 0.0
    assert metrics.OPERATING_POINTS == (0.01, 0.005)


def test_min_dcf_matches_exhaustive_sweep():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(1000)
    labels = rng.random(1000) < 0.3
    t = metrics.ScoredTrials(scores, labels)
    for p in (0.5, 0.1, 0.01, 0.005):
        assert abs(metrics.min_dcf(t, p) - sweep_oracle(scores, labels, p)) < 1e-12


def eer_sweep_oracle(scores, is_target):
    """Brute-force ROC from comparisons, then the pinned linear interpolation."""
    points = sweep_oracle(scores, is_target)
    for k in range(1, len(points)):
        m0, f0 = points[k - 1]
        m1, f1 = points[k]
        if m1 - f1 >= 0.0:
            if m1 == f1:
                return m1
            t = (f0 - m0) / ((m1 - m0) - (f1 - f0))
            return m0 + t * (m1 - m0)
    raise AssertionError("no crossing found")


def test_eer_matches_sweep_crossing():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(1000) + np.where(rng.random(1000) < 0.4, 1.0, 0.0)
    labels = scores > np.median(scores)  # correlated labels, messy ROC
    scores = scores + 0.5 * rng.standard_normal(1000)
    t = metrics.ScoredTrials(scores, labels)
    assert abs(metrics.eer(t) - eer_sweep_oracle(scores, labels)) < 1e-12


def test_c_primary_is_mean_of_two_costs():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(500)
    labels = rng.random(500) < 0.2
    t = metrics.ScoredTrials(scores, labels)
    expect = 0.5 * (metrics.min_dcf(t, 0.01) + metrics.min_dcf(t, 0.005))
    assert metrics.c_primary(t) == expect
    perfect = metrics.ScoredTrials(np.array([2.0, 1.0, -1.0]), np.array([1, 1, 0], bool))
    assert metrics.c_primary(perfect) == 0.0


def test_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(800)
    labels = rng.random(800) < 0.25
    base = metrics.ScoredTrials(scores, labels)
    for transform in (np.exp, lambda s: 3.0 * s - 7.0):
        mapped = metrics.ScoredTrials(transform(scores), labels)
        assert abs(metrics.eer(base) - metrics.eer(mapped)) < 1e-12
        assert abs(metrics.min_dcf(base, 0.01) - metrics.min_dcf(mapped, 0.01)) < 1e-12
        assert abs(metrics.c_primary(base) - metrics.c_primary(mapped)) < 1e-12


def test_min_dcf_bounded_by_one_and_ordering_independent():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal(300)
    labels = rng.random(300) < 0.5
    t = metrics.ScoredTrials(scores, labels)
    assert metrics.min_dcf(t, 0.01) <= 1.0
    assert 0.0 <= metrics.eer(t) <= 1.0
    perm = rng.permutation(300)
    shuffled = metrics.ScoredTrials(scores[perm], labels[perm])
    assert metrics.eer(t) == metrics.eer(shuffled)
    assert metrics.c_primary(t) == metrics.c_primary(shuffled)


def test_single_class_errors():
    with pytest.raises(MetricError):
        metrics.eer(metrics.ScoredTrials(np.array([1.0, 2.0]), np.array([1, 1], bool)))
    with pytest.raises(MetricError):
        metrics.min_dcf(
            metrics.ScoredTrials(np.array([1.0, 2.0]), np.array([0, 0], bool)), 0.01
        )
    with pytest.raises(MetricError):
        metrics.min_dcf(
            metrics.ScoredTrials(np.array([1.0, 2.0]), np.array([1, 0], bool)), 1.5
        )


def test_shared_operating_points_give_bit_identical_metrics():
    rng = np.random.default_rng(3)
    for n, levels in [(500, 7), (2000, 40), (300, None)]:
        scores = rng.standard_normal(n)
        if levels is not None:  # many tied scores
            scores = np.round(scores * levels / 4) / levels
        is_target = rng.random(n) < 0.2
        shared = metrics.ScoredTrials(scores, is_target)
        got = [
            metrics.c_primary(shared),
            metrics.eer(shared),
            metrics.min_dcf(shared, 0.01),
            metrics.min_dcf(shared, 0.005),
        ]
        fresh = [
            metrics.c_primary(metrics.ScoredTrials(scores, is_target)),
            metrics.eer(metrics.ScoredTrials(scores, is_target)),
            metrics.min_dcf(metrics.ScoredTrials(scores, is_target), 0.01),
            metrics.min_dcf(metrics.ScoredTrials(scores, is_target), 0.005),
        ]
        assert [v.hex() for v in got] == [v.hex() for v in fresh]
        assert shared.operating_points is shared.operating_points


@pytest.mark.parametrize("tie", [-np.inf, np.inf])
def test_tied_infinite_scores_share_one_operating_point(tie):
    # 10 non-targets then 1 target at one score, then 10 targets: an infinite
    # tie is one threshold, as a finite one is, whatever the file order
    finite = np.copysign(50.0, tie)
    labels = np.array([0] * 10 + [1] * 11, bool)
    at = {s: metrics.ScoredTrials(np.r_[np.full(11, s), np.full(10, 5.0)], labels)
          for s in (finite, tie)}
    if tie < 0:
        assert metrics.eer(at[finite]) == pytest.approx(1 / 12)
        assert metrics.c_primary(at[finite]) == pytest.approx(1 / 11)
    for metric in (metrics.eer, metrics.c_primary):
        assert metric(at[tie]) == metric(at[finite])
    assert len(at[tie].operating_points[0]) == 3


def test_nan_score_is_an_error():
    with pytest.raises(MetricError, match="1 of 4 scores are NaN"):
        metrics.ScoredTrials(np.array([np.nan, 1.0, 0.0, -1.0]), np.array([1, 1, 0, 0], bool))

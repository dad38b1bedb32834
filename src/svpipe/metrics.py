"""Detection metrics: EER and two-operating-point average minimum cost.

All metrics operate on the achievable operating points of the score-threshold
decision rule (accept when score >= threshold), so they are invariant under
any strictly increasing transform of the scores.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MetricError

OPERATING_POINTS = (0.01, 0.005)


@dataclass
class ScoredTrials:
    """Scores with boolean target labels; needs both classes for EER/DCF.

    The operating points are computed on first use and kept, so every metric
    of one instance shares one sort; the scores and labels must not change
    after construction.
    """

    scores: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.scores.ndim != 1 or self.scores.shape != self.is_target.shape:
            raise MetricError("scores and labels must be equal-length vectors")
        if self.scores.shape[0] < 1:
            raise MetricError("no trials")

    @functools.cached_property
    def operating_points(self):
        """Miss/false-alarm rates at every achievable threshold.

        Returns (p_miss, p_fa) over the decision rule "accept iff score >= t",
        swept from accept-everything to reject-everything; ties share a point.
        """
        n_target = int(self.is_target.sum())
        n_non = self.is_target.shape[0] - n_target
        if n_target == 0 or n_non == 0:
            raise MetricError("need at least one target and one non-target trial")
        order = np.argsort(self.scores, kind="mergesort")
        sorted_scores = self.scores[order]
        sorted_target = self.is_target[order]
        # split index i: reject the i lowest scores; achievable i are the first
        # occurrences of each distinct score, plus reject-all
        boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
        splits = np.concatenate([[0], boundaries, [sorted_scores.shape[0]]])
        miss_counts = np.concatenate([[0], np.cumsum(sorted_target)])
        fa_counts = n_non - np.concatenate([[0], np.cumsum(~sorted_target)])
        p_miss = miss_counts[splits] / n_target
        p_fa = fa_counts[splits] / n_non
        return p_miss, p_fa


def eer(trials: ScoredTrials):
    """Equal error rate via linear interpolation on the ROC."""
    p_miss, p_fa = trials.operating_points
    diff = p_miss - p_fa
    k = int(np.argmax(diff >= 0.0))  # diff is non-decreasing; k >= 1
    if diff[k] == 0.0:
        return float(p_miss[k])
    d_miss = p_miss[k] - p_miss[k - 1]
    d_fa = p_fa[k] - p_fa[k - 1]
    t = (p_fa[k - 1] - p_miss[k - 1]) / (d_miss - d_fa)
    return float(p_miss[k - 1] + t * d_miss)


def min_dcf(trials: ScoredTrials, p_target):
    """Minimum normalized detection cost at the given target prior.

    min over thresholds of p*Pmiss + (1-p)*Pfa (unit costs), divided by the
    cost of the better default decision, so the reject-all decision bounds
    the result above by 1.
    """
    if not 0.0 < p_target < 1.0:
        raise MetricError("target prior must lie strictly inside (0, 1)")
    p_miss, p_fa = trials.operating_points
    costs = p_target * p_miss + (1.0 - p_target) * p_fa
    norm = min(p_target, 1.0 - p_target)
    return float(costs.min() / norm)


def c_primary(trials: ScoredTrials):
    """Average of the minimum costs at the 0.01 and 0.005 target priors."""
    return 0.5 * (min_dcf(trials, OPERATING_POINTS[0]) + min_dcf(trials, OPERATING_POINTS[1]))

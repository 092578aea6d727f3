"""Sample-quality metrics: 2-Wasserstein distance and energy distance.

Both metrics are exact at every sample count.

w2_distance is the optimal-transport cost between two equal-size empirical
sets. In 1D it is the sorted coupling. In 2D it is the optimal assignment
(scipy's linear_sum_assignment) on the n x n squared-euclidean cost matrix:
O(n^2) memory and up to cubic time, growing as the sets move apart. Against
a 2048-point checkerboard reference (2-vCPU x86 VM, one BLAS thread) it
takes about 1 s for a second checkerboard draw and about 3 s for standard
normal noise; at n = 4096 the same pairs take about 3-6 s and 24 s.

energy_distance is the V-statistic 2 E|A-B| - E|A-A'| - E|B-B'|. In 1D each
mean |X-Y| term comes from sorted values with prefix sums and searchsorted,
O(n log n) time and O(n) memory; it matches the all-pairs form to about
1e-14 relative. Other dimensions average the all-pairs distance matrices.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .autodiff import as_f64
from .errors import ContractViolation


def _check_samples(a, b, equal_n=True):
    a, b = as_f64(a), as_f64(b)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[1] != b.shape[1]:
        raise ContractViolation("sample sets must share the feature dimension")
    if equal_n and a.shape[0] != b.shape[0]:
        raise ContractViolation(
            f"sample counts differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def w2_distance(a, b) -> float:
    """2-Wasserstein distance between equal-size empirical sample sets."""
    a, b = _check_samples(a, b)
    d = a.shape[1]
    if d not in (1, 2):
        raise ContractViolation("w2_distance supports 1-D and 2-D samples")
    if d == 1:
        sa = np.sort(a[:, 0])
        sb = np.sort(b[:, 0])
        return float(np.sqrt(np.mean((sa - sb) ** 2)))
    cost = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def _mean_abs_diff_1d(x: np.ndarray, y: np.ndarray) -> float:
    """E|X - Y| over all pairs of two 1-D samples, without the pair matrix.

    With y sorted and S its prefix sums, the k = #{y_j < x_i} smaller values
    contribute k x_i - S_k and the rest S_m - S_k - (m - k) x_i.
    """
    y = np.sort(y)
    prefix = np.concatenate(([0.0], np.cumsum(y)))
    k = np.searchsorted(y, x)
    below = k * x - prefix[k]
    above = (prefix[-1] - prefix[k]) - (len(y) - k) * x
    return float(np.sum(below + above)) / (len(x) * len(y))


def energy_distance(a, b) -> float:
    """V-statistic estimate 2 E|A-B| - E|A-A'| - E|B-B'| (non-negative)."""
    a, b = _check_samples(a, b, equal_n=False)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ContractViolation("energy_distance needs at least 2 points per set")
    if a.shape[1] == 1:
        x, y = a[:, 0], b[:, 0]
        return (2.0 * _mean_abs_diff_1d(x, y) - _mean_abs_diff_1d(x, x)
                - _mean_abs_diff_1d(y, y))
    ab = float(cdist(a, b).mean())
    aa = float(cdist(a, a).mean())
    bb = float(cdist(b, b).mean())
    return 2.0 * ab - aa - bb

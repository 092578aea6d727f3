"""Transport and energy metrics against independent oracles: brute-force
assignment enumeration, an LP relaxation, all-pairs distance matrices, and
closed forms."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from flowcache.errors import ContractViolation
from flowcache.flow import ToyDistribution, sample_data
from flowcache.metrics import energy_distance, w2_distance


def brute_force_w2(a, b):
    """Exact assignment by enumeration (tiny n only)."""
    n = len(a)
    cost = cdist(a, b, metric="sqeuclidean")
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    return float(np.sqrt(best / n))


def lp_w2(a, b):
    """Assignment LP (integral by Birkhoff); independent of the product path."""
    n = len(a)
    cost = cdist(a, b, metric="sqeuclidean").reshape(-1)
    a_eq = []
    for i in range(n):
        row = np.zeros(n * n)
        row[i * n:(i + 1) * n] = 1
        a_eq.append(row)
    for j in range(n):
        row = np.zeros(n * n)
        row[j::n] = 1
        a_eq.append(row)
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.ones(2 * n),
                  bounds=(0, None), method="highs")
    assert res.success
    return float(np.sqrt(res.fun / n))


# ---------------------------------------------------------------------------
# w2
# ---------------------------------------------------------------------------

def test_identical_sets_zero(rng):
    a = rng.standard_normal((64, 2))
    assert w2_distance(a, a.copy()) == 0.0
    x = rng.standard_normal((32, 1))
    assert w2_distance(x, x.copy()) == 0.0


def test_point_masses_1d():
    assert w2_distance(np.array([[0.0]]), np.array([[1.0]])) == 1.0


def test_1d_sorted_coupling(rng):
    a = rng.standard_normal((100, 1))
    b = rng.standard_normal((100, 1)) + 2.0
    expected = np.sqrt(np.mean((np.sort(a[:, 0]) - np.sort(b[:, 0])) ** 2))
    assert abs(w2_distance(a, b) - expected) < 1e-12


def test_2d_small_matches_brute_force(rng):
    for trial in range(3):
        a = rng.standard_normal((6, 2))
        b = rng.standard_normal((6, 2))
        assert abs(w2_distance(a, b) - brute_force_w2(a, b)) < 1e-9


def test_2d_n16_matches_lp_oracle(rng):
    a = rng.standard_normal((16, 2))
    b = rng.standard_normal((16, 2))
    assert abs(w2_distance(a, b) - lp_w2(a, b)) < 1e-9


def test_near_distribution_matches_lp_oracle():
    # two draws of one checkerboard: the near-target regime the bench reports
    dist = ToyDistribution("checkerboard")
    a = sample_data(dist, 64, 1)
    b = sample_data(dist, 64, 2)
    assert abs(w2_distance(a, b) - lp_w2(a, b)) < 1e-9


def test_entropic_identical_sets_zero(rng):
    # above the size where an entropic approximation would once take over,
    # identical sets must still give exactly zero
    a = rng.standard_normal((600, 2))
    assert w2_distance(a, a.copy()) == 0.0


def test_mismatched_counts_rejected(rng):
    with pytest.raises(ContractViolation):
        w2_distance(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))


def test_translation_lower_bound(rng):
    # W2 between X and X + delta is exactly |delta|
    delta = np.array([0.8, -0.6])
    for n in (128, 1024):
        a = rng.standard_normal((n, 2))
        assert abs(w2_distance(a, a + delta) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# energy distance
# ---------------------------------------------------------------------------

def test_energy_same_distribution_small():
    rng = np.random.default_rng(0)
    n = 4096
    a = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 2))
    assert energy_distance(a, b) <= 3.0 / np.sqrt(n)


def test_energy_translated_point_masses_closed_form():
    # degenerate clusters at 0 and delta: E|A-B| = delta, E|A-A'| = 0
    prev = -1.0
    for delta in (0.25, 0.5, 1.0, 2.0):
        a = np.zeros((8, 1))
        b = np.full((8, 1), delta)
        ed = energy_distance(a, b)
        assert abs(ed - 2.0 * delta) < 1e-12
        assert ed > prev
        prev = ed


def test_energy_single_points_rejected():
    with pytest.raises(ContractViolation):
        energy_distance(np.array([[0.0]]), np.array([[1.0]]))


def test_energy_nonnegative_random(rng):
    for _ in range(5):
        a = rng.standard_normal((50, 2))
        b = rng.standard_normal((60, 2)) + rng.standard_normal(2)
        assert energy_distance(a, b) >= 0.0


def pairwise_energy(a, b):
    """The V-statistic from all-pairs distance matrices."""
    return (2.0 * cdist(a, b).mean() - cdist(a, a).mean()
            - cdist(b, b).mean())


def test_energy_1d_matches_pairwise_oracle(rng):
    unequal = (rng.standard_normal((37, 1)),
               0.5 * rng.standard_normal((101, 1)) + 0.3)
    # rounding to one decimal leaves many ties within and across the sets
    ties = (np.round(rng.standard_normal((300, 1)), 1),
            np.round(rng.standard_normal((250, 1)) + 0.2, 1))
    duplicates = (np.repeat([[0.0], [1.0], [1.0]], 5, axis=0),
                  np.array([[1.0], [1.0], [2.0]]))
    large = (0.25 * rng.standard_normal((4096, 1)),
             0.25 * rng.standard_normal((4096, 1)) + 0.01)
    for a, b in (unequal, ties, duplicates, large):
        assert abs(energy_distance(a, b) - pairwise_energy(a, b)) < 1e-12
        assert abs(energy_distance(b, a) - pairwise_energy(a, b)) < 1e-12

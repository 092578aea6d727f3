"""Transport and energy metrics against independent oracles: brute-force
assignment enumeration, an LP relaxation, all-pairs distance matrices, and
closed forms. The auction-started and the warm-started 2-D W2 are checked
against a plain assignment solve on the unshifted cost matrix, and the
energy distance with a held reference term against one without."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from flowcache.errors import ContractViolation, NumericFailure
from flowcache.flow import ToyDistribution, sample_data
from flowcache import metrics
from flowcache.metrics import (ReferenceTerms, _auction_prices, _epsilons,
                               energy_distance, w2_distance)


def brute_force_w2(a, b):
    """Exact assignment by enumeration (tiny n only)."""
    n = len(a)
    cost = cdist(a, b, metric="sqeuclidean")
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    return float(np.sqrt(best / n))


def lsa_w2(a, b):
    """W2 from scipy's assignment on the unshifted cost matrix, read from the
    matched pairs as w2_distance reads it: no auction, no potentials."""
    _, cols = linear_sum_assignment(cdist(a, b, metric="sqeuclidean"))
    diff = a - b[cols]
    return float(np.sqrt(np.sum(diff * diff, axis=1).mean()))


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


def test_value_is_the_cost_matrix_mean(rng):
    # the value comes from the matched pairs; it equals the mean of the
    # assigned cost matrix entries bit for bit
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((300, 2)) + 0.5
    cost = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    assert w2_distance(a, b) == float(np.sqrt(cost[rows, cols].mean()))


# ---------------------------------------------------------------------------
# w2 warm start
# ---------------------------------------------------------------------------

CHECKERBOARD = ToyDistribution("checkerboard")


def warmed_holder(first, reference):
    warm = ReferenceTerms()
    assert w2_distance(first, reference, warm) == lsa_w2(first, reference)
    assert warm.potentials is not None
    return warm


@pytest.mark.parametrize("scale", [0.0, 1e-4, 1e-3, 1e-2])
def test_warm_equals_cold_on_paired_sets(rng, scale):
    reference = sample_data(CHECKERBOARD, 512, 1)
    first = sample_data(CHECKERBOARD, 512, 2) + 0.1 * rng.standard_normal((512, 2))
    warm = warmed_holder(first, reference)
    paired = first + scale * rng.standard_normal(first.shape)
    assert w2_distance(paired, reference, warm) == lsa_w2(paired, reference)


def test_warm_equals_cold_far_from_the_holders_set(rng):
    # potentials from a checkerboard draw, used for standard normal noise
    reference = sample_data(CHECKERBOARD, 512, 1)
    warm = warmed_holder(sample_data(CHECKERBOARD, 512, 2), reference)
    noise = rng.standard_normal((512, 2))
    assert w2_distance(noise, reference, warm) == lsa_w2(noise, reference)


# Points on a grid of quarters: every cost and sum of costs is exact, and
# distinct assignment totals differ by at least 1/16, far above the rounding
# of a shifted cost, so tied optimal assignments give the same W2 bit for bit.
quarter = st.integers(-16, 16).map(lambda k: k / 4.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 12))
def test_warm_equals_cold_property(data, n):
    first, reference, other = (data.draw(arrays(np.float64, (n, 2),
                                                elements=quarter))
                               for _ in range(3))
    warm = warmed_holder(first, reference)
    assert w2_distance(other, reference, warm) == lsa_w2(other, reference)


def test_holder_filled_by_the_first_2d_call_only(rng):
    reference = rng.standard_normal((64, 2))
    warm = ReferenceTerms()
    assert warm.potentials is None and warm.reference is None
    w2_distance(rng.standard_normal((64, 2)), reference, warm)
    potentials = warm.potentials
    assert potentials.shape == (64,)
    assert np.array_equal(warm.reference, reference)
    w2_distance(rng.standard_normal((64, 2)), reference, warm)
    assert warm.potentials is potentials


def test_1d_ignores_the_holder(rng):
    warm = ReferenceTerms()
    x, y = rng.standard_normal((50, 1)), rng.standard_normal((50, 1))
    assert w2_distance(x, y, warm) == w2_distance(x, y)
    assert warm.potentials is None and warm.reference is None
    filled = warmed_holder(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
    assert w2_distance(x, y, filled) == w2_distance(x, y)


def test_holder_of_another_reference_rejected(rng):
    reference = rng.standard_normal((32, 2))
    warm = warmed_holder(rng.standard_normal((32, 2)), reference)
    for other in (reference + 1e-12, rng.standard_normal((16, 2))):
        with pytest.raises(ContractViolation, match="another reference"):
            w2_distance(rng.standard_normal(other.shape), other, warm)


def test_holder_keeps_the_cold_auctions_prices(rng, monkeypatch):
    # one auction per holder: the warm calls start from minus its prices
    reference = sample_data(CHECKERBOARD, 256, 1)
    draws = [sample_data(CHECKERBOARD, 256, 2) + scale * rng.standard_normal(
        (256, 2)) for scale in (0.0, 1e-3, 1e-2, 1.0)]
    prices = []

    def spy(cost):
        prices.append(_auction_prices(cost))
        return prices[-1]

    monkeypatch.setattr(metrics, "_auction_prices", spy)
    warm = ReferenceTerms()
    for x in draws:
        assert w2_distance(x, reference, warm) == lsa_w2(x, reference)
    assert len(prices) == 1
    assert np.array_equal(warm.potentials, -prices[0])
    for x in draws:
        w2_distance(x, reference)
    assert len(prices) == 5


# ---------------------------------------------------------------------------
# w2 auction start
# ---------------------------------------------------------------------------

def _noise_and_checkerboard(n):
    return (np.random.default_rng(n).standard_normal((n, 2)),
            sample_data(CHECKERBOARD, n, 1))


def _cases():
    rng = np.random.default_rng(7)
    same = rng.standard_normal((256, 2))
    return {
        "noise-vs-checkerboard": _noise_and_checkerboard(512),
        "identical": (same, same.copy()),  # epsilon comes from its floor
        "all-points-equal": (np.ones((64, 2)), np.ones((64, 2))),  # zero cost
        "two-point-masses": (np.zeros((64, 2)), np.ones((64, 2))),  # all ties
        "n1": (rng.standard_normal((1, 2)), rng.standard_normal((1, 2))),
        "n2": (rng.standard_normal((2, 2)), rng.standard_normal((2, 2))),
    }


@pytest.mark.parametrize("case", sorted(_cases()))
def test_auction_start_matches_the_plain_solve(case):
    a, b = _cases()[case]
    cost = cdist(a, b, metric="sqeuclidean")
    prices = _auction_prices(cost)
    assert prices.shape == (len(b),) and np.isfinite(prices).all()
    if not cost.any():
        assert not prices.any()  # a zero cost matrix skips the auction
    assert w2_distance(a, b) == lsa_w2(a, b)
    warm = ReferenceTerms()
    assert w2_distance(a, b, warm) == lsa_w2(a, b)
    assert np.isfinite(warm.potentials).all()


def test_auction_epsilons_fall_to_a_positive_floor(rng):
    same = rng.standard_normal((128, 2))
    cost = cdist(same, same, metric="sqeuclidean")  # nearest-neighbour cost 0
    eps = _epsilons(cost, cost.mean())
    assert eps[-1] == metrics._AUCTION_EPS_FLOOR * cost.mean() > 0
    assert all(x > y for x, y in zip(eps, eps[1:]))


def test_auction_prices_nearly_tighten_the_optimal_assignment():
    # what makes the shifted solve fast: under cost + prices each row's
    # optimal column is within about the last epsilon of its cheapest
    cost = cdist(*_noise_and_checkerboard(512), metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)

    def mean_slack(shifted):
        return np.mean(shifted[rows, cols] - shifted.min(axis=1))

    prices = _auction_prices(cost)
    assert mean_slack(cost + prices) < _epsilons(cost, cost.mean())[-1]
    assert mean_slack(cost + prices) < mean_slack(cost) / 20


# Few grid points for many samples: duplicate points and tied assignments.
coarse = st.integers(-2, 2).map(lambda k: k / 4.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_auction_start_property(data, n):
    a, b = (data.draw(arrays(np.float64, (n, 2), elements=coarse))
            for _ in range(2))
    assert w2_distance(a, b) == lsa_w2(a, b)


def test_auction_allocates_no_square_temporary(rng):
    n = 1024
    cost = cdist(rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
                 metric="sqeuclidean")
    tracemalloc.start()
    try:
        _auction_prices(cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cost.nbytes / 2


# ---------------------------------------------------------------------------
# invalid samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", [w2_distance, energy_distance])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("in_reference", [False, True])
def test_non_finite_samples_raise_numeric_failure(rng, metric, dim, bad,
                                                  in_reference):
    a, b = rng.standard_normal((8, dim)), rng.standard_normal((8, dim))
    (b if in_reference else a)[3, 0] = bad
    with pytest.raises(NumericFailure, match="non-finite samples"):
        metric(a, b)


def test_overflowing_squared_distances_raise_numeric_failure():
    a = np.array([[0.0, 0.0], [1e200, 0.0]])
    with pytest.raises(NumericFailure, match="overflow"):
        w2_distance(a, -a)


# finite points whose distances square past float64 (1-D; padded to 2-D with
# a zero column)
FAR_APART = (np.array([[1e200], [0.0], [1.0]]),
             np.array([[-1e200], [0.0], [2.0]]))


def _padded(x):
    return np.hstack([x, np.zeros_like(x)])


@pytest.mark.parametrize("metric,dim", [
    (w2_distance, 1), (w2_distance, 2), (energy_distance, 2)])
def test_overflowing_distances_raise_numeric_failure(metric, dim):
    # before the check the 1-D W2 returned inf and the 2-D energy nan
    a, b = FAR_APART if dim == 1 else map(_padded, FAR_APART)
    with pytest.raises(NumericFailure, match="overflow"):
        metric(a, b)


def test_1d_energy_is_exact_until_its_sums_overflow():
    # the 1-D energy sums |x - y| without squaring it: 1e200 apart still
    # gives the V-statistic, (2 * 6e200 - 4e200 - 4e200) / 9
    a, b = FAR_APART
    assert energy_distance(a, b) == pytest.approx(4e200 / 9, rel=1e-12)
    with pytest.raises(NumericFailure, match="overflow"):
        energy_distance(a * 1e108, b * 1e108)


@pytest.mark.parametrize("dim", [1, 2])
def test_w2_of_empty_sets_rejected(dim):
    with pytest.raises(ContractViolation, match="at least one point"):
        w2_distance(np.empty((0, dim)), np.empty((0, dim)))


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


@pytest.mark.parametrize("dim", [1, 2])
def test_energy_with_held_self_term_is_bit_equal(rng, dim):
    reference = rng.standard_normal((300, dim))
    terms = ReferenceTerms()
    for shift in (0.0, 0.3, 2.0):
        a = rng.standard_normal((257, dim)) + shift
        assert energy_distance(a, reference, terms) == \
            energy_distance(a, reference)
    assert terms.self_energy is not None


def test_energy_self_term_computed_once_per_holder(rng, monkeypatch):
    reference = rng.standard_normal((64, 2))
    self_terms = []
    original = metrics._mean_abs_diff

    def counted(x, y):
        self_terms.append(np.array_equal(x, reference)
                          and np.array_equal(y, reference))
        return original(x, y)

    monkeypatch.setattr(metrics, "_mean_abs_diff", counted)
    terms = ReferenceTerms()
    for _ in range(3):
        energy_distance(rng.standard_normal((64, 2)), reference, terms)
    w2_distance(rng.standard_normal((64, 2)), reference, terms)
    energy_distance(rng.standard_normal((64, 2)), reference, terms)
    assert len(self_terms) == 9 and sum(self_terms) == 1
    energy_distance(rng.standard_normal((64, 2)), reference)
    assert sum(self_terms) == 2  # without the holder, every call


def test_energy_holder_of_another_reference_rejected(rng):
    reference = rng.standard_normal((32, 2))
    terms = ReferenceTerms()
    energy_distance(rng.standard_normal((32, 2)), reference, terms)
    for other in (reference + 1e-12, rng.standard_normal((16, 2))):
        with pytest.raises(ContractViolation, match="another reference"):
            energy_distance(rng.standard_normal((16, 2)), other, terms)

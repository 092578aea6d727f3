"""Sample-quality metrics: 2-Wasserstein distance and energy distance.

Both metrics are exact at every sample count. Both refuse non-finite
samples with NumericFailure before any solve, and raise it too when the
distances between finite samples overflow float64: the 2-D W2 checks its
cost matrix before the solve, and the 1-D W2 and the energy distance check
their value. Finite points as far apart as 1e200 overflow the squared
distances of W2 and the 2-D energy's pairwise norms; the 1-D energy squares
nothing, so at that spread it still gives its exact value.

w2_distance is the optimal-transport cost between two equal-size empirical
sets. In 1D it is the sorted coupling. In 2D it is the optimal assignment
(scipy's linear_sum_assignment, a shortest-augmenting-path solver) on the
n x n squared-euclidean cost matrix: O(n^2) memory and up to cubic time,
growing as the sets move apart. Its value is taken from the matched pairs'
squared distances; for two coordinates these are bit-equal to the cost
matrix entries.

W2 has a floor: two independent 2048-point draws of the checkerboard data
read .150, .171 and .190 (seeds 777/778, 778/779 and 777/779), so an
unpaired W2 gap below about .04 ranks nothing.

The solver takes no starting duals, but a shifted cost matrix does their
work. Subtracting a potential v_j from every entry of column j adds the
constant -sum(v) to every assignment's total, so the optimal assignment,
and the W2 read from the original pairs, do not change, whatever v is:
exactness never depends on how good the potentials are, only the time does.
Row potentials would change nothing: the solver's own row duals absorb any
per-row constant.

A cold solve starts from auction prices. An epsilon-scaling auction
(Bertsekas, "The auction algorithm: a distributed relaxation method for the
assignment problem", 1988) runs over the cost matrix first
(`_auction_prices`), and the solver then takes cost + p, in place, as the
potentials v = -p. Each round every unassigned row bids for its cheapest
column under cost + p, raising its price by the margin over the row's
second cheapest plus epsilon. Epsilon falls from 2% of the mean cost by
factors of 5 to 3% of the mean nearest-neighbour cost, floored at 1e-5 of
the mean cost so that identical sets still get a positive epsilon. Each
phase hands the rest to the solver once 0.5% of rows wait, and all phases
together stop bidding after 64 n rows, which ends any price war between
tied rows. An all-zero cost matrix skips the auction.

A `ReferenceTerms` holder keeps column potentials for one reference set:
the first 2-D W2 call given the holder stores its own shift, v = -p, an
epsilon-feasible column dual of its cost matrix, and every later call
against the same reference subtracts v from its own cost matrix in place.
For sample sets that nearly share an optimal coupling (the strategies of
one bench draw their samples from the same noise), a warm solve then takes
a fraction of a cold one's time.

In-process timings of the plain cold solve against the auction start
(auction plus shifted solve), in seconds, on a 2-vCPU x86 VM with one BLAS
thread (BENCH_22.json):

    sets                               n = 2048             n = 4096
    bench fixture samples vs reference 2.4-2.7 -> 0.57-0.68  16-17 -> 2.5-2.8
    noise vs checkerboard data         2.2-2.4 -> 0.49-0.60   21.7 -> 2.8
    noise vs two_moons data            2.7-3.3 -> 0.66-0.82   21.2 -> 3.9
    noise vs eight_gaussians data      1.6-1.8 -> 0.64-0.73   15.5 -> 4.1
    checkerboard data vs data          0.58-0.60 -> 0.41-0.52  2.5 -> 2.6
    two_moons data vs data             0.70-0.74 -> 0.51-0.54  3.7 -> 2.6
    eight_gaussians data vs data       0.70-0.72 -> 0.73-0.76  6.3 -> 5.0

The auction takes 41-82% of the started time, about 70% on the bench's
sets. Close sets, whose plain solve is already short, gain least and can
lose up to about 5%. On the bench fixture (seeds 3, 5, 200, 201, 400 and
401, in-process, same VM) a bench run's first W2 call, the cold solve, takes
0.52-0.87 s (median 0.63). The naive and taylor strategies' warm solves
take 0.15-0.33 s (median 0.21), the learned strategy's 0.41-0.72 s (median
0.51).

energy_distance is the V-statistic 2 E|A-B| - E|A-A'| - E|B-B'|. In 1D each
mean |X-Y| term comes from sorted values with prefix sums and searchsorted,
O(n log n) time and O(n) memory; it matches the all-pairs form to about
1e-14 relative. Other dimensions average the all-pairs distance matrices.
A `ReferenceTerms` holder keeps the reference's self term E|B-B'| from the
first call, bit-equal to recomputing it: at n = 2048 in 2-D that term is
about 26 ms of a 72 ms call (2-vCPU x86 VM, one BLAS thread).
"""

from __future__ import annotations

import numpy as np

from .autodiff import as_f64
from .errors import ContractViolation, NumericFailure
from .kernels import (cdist_euclidean, cdist_sqeuclidean,
                      linear_sum_assignment)


_SQUARES_OVERFLOW = ("squared distances between the sample sets overflow "
                     "float64")


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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericFailure("a metric was given non-finite samples")
    return a, b


# The row chunk (in matrix entries: 2 MB of float64) in which the auction
# reads the cost matrix.
_CHUNK_ENTRIES = 1 << 18

# The auction start's settings (module docstring), measured at n = 2048 on
# two bench `none` sets and on data and noise against checkerboard,
# two_moons and eight_gaussians draws (2-vCPU x86 VM, one BLAS thread). The
# total over those 8 solves stayed within run-to-run noise, 5.3-6.4 s, for
# first epsilons of 0.5-10% of the mean cost and steps of 3-10. Handing off
# at 0.5% of rows rather than 2% cut a bench set's shifted solve from about
# 0.6 to 0.25 s; 0.2% or no hand-off cost more auction than it saved, and
# handing off the middle phases at 3% took 1.6x longer in all. A schedule of
# 3, 0.3 and 0.03 times the mean nearest-neighbour cost, floored at 1e-3 of
# the mean cost and restarting every phase, spent 3405 rounds in its first
# phase on close eight_gaussians draws: 2.1 s against 0.8 s cold. Keeping
# epsilon-optimal pairs across phases, with the lower floor, brought that to
# 0.85-1.05 s. Bench sets bid for 30-35 n rows in all and close sets for
# 36-60 n. The cap stops the close eight_gaussians draws at n = 4096, which
# bid for about 76 n uncapped; capped, they solve in 5.0 s against 6.3 s.
_AUCTION_FIRST_EPS = 0.02
_AUCTION_EPS_STEP = 5.0
_AUCTION_LAST_EPS = 0.03
_AUCTION_EPS_FLOOR = 1e-5
_AUCTION_HANDOFF = 0.005
_AUCTION_ROW_PASSES = 64


class ReferenceTerms:
    """The terms of the metrics that depend on one reference set only: the
    2-D W2's column potentials (minus the first solve's auction prices) and
    the energy distance's E|B-B'|.

    Pass one holder to every w2_distance and energy_distance call against
    the same reference: the first call of each metric fills its term, later
    ones use it. The first call binds the holder to its reference, and a
    call against another reference raises ContractViolation. The 1-D W2
    path ignores the holder."""

    def __init__(self):
        self.reference: np.ndarray | None = None
        self.potentials: np.ndarray | None = None
        self.self_energy: float | None = None

    def bind(self, reference: np.ndarray):
        if self.reference is None:
            self.reference = reference.copy()
        elif not np.array_equal(reference, self.reference):
            raise ContractViolation(
                "these reference terms were built on another reference set")


def _row_blocks(cost: np.ndarray, rows: np.ndarray, buffer: np.ndarray):
    """(offset, chunk, block) over `rows` in chunks of len(buffer): block
    holds the chunk's rows of cost, read into buffer, so that no second
    n x n array is allocated."""
    for start in range(0, len(rows), len(buffer)):
        chunk = rows[start:start + len(buffer)]
        block = np.take(cost, chunk, axis=0, out=buffer[:len(chunk)],
                        mode="clip")  # "raise" buffers the output
        yield start, chunk, block


def _row_buffer(n: int) -> np.ndarray:
    return np.empty((max(1, min(n, _CHUNK_ENTRIES // n)), n))


def _epsilons(cost: np.ndarray, mean_cost: float) -> list[float]:
    """The auction's epsilon per phase, largest first; no phase comes within
    a factor sqrt(_AUCTION_EPS_STEP) above the last."""
    last = max(_AUCTION_LAST_EPS * cost.min(axis=1).mean(),
               _AUCTION_EPS_FLOOR * mean_cost)
    eps = [_AUCTION_FIRST_EPS * mean_cost]
    while eps[-1] > last * np.sqrt(_AUCTION_EPS_STEP):
        eps.append(eps[-1] / _AUCTION_EPS_STEP)
    return [*eps[:-1], last]


def _auction_prices(cost: np.ndarray) -> np.ndarray:
    """Column prices p from an epsilon-scaling auction (Bertsekas, 1988) on
    the square cost matrix; every row's column nearly minimizes c_ij + p_j.

    Each round, every unassigned row bids for its cheapest column under
    cost + p, raising that column's price by its margin over its second
    cheapest plus epsilon (Jacobi bidding); each column goes to its highest
    bidder, and the row that held it is unassigned. A phase keeps the pairs
    still epsilon-optimal under its smaller epsilon. Prices are zero for an
    all-zero matrix or a single row. The rows of every round are read in
    chunks, so no second n x n array is allocated."""
    n = cost.shape[0]
    prices = np.zeros(n)
    mean_cost = cost.mean()
    if n < 2 or mean_cost == 0.0:
        return prices
    buffer = _row_buffer(n)
    owner = np.full(n, -1, dtype=np.intp)  # the row holding each column
    held = np.full(n, -1, dtype=np.intp)  # the column each row holds
    budget = _AUCTION_ROW_PASSES * n
    for eps in _epsilons(cost, mean_cost):
        kept = np.flatnonzero(held >= 0)
        for _, rows, block in _row_blocks(cost, kept, buffer):
            block += prices
            slack = block[np.arange(len(rows)), held[rows]] - block.min(axis=1)
            lost = rows[slack > eps]
            owner[held[lost]] = -1
            held[lost] = -1
        unassigned = np.flatnonzero(held < 0)
        while len(unassigned) > _AUCTION_HANDOFF * n and budget > 0:
            budget -= len(unassigned)
            best, bid = _bids(cost, prices, unassigned, buffer)
            bid += eps
            order = np.lexsort((-bid, best))  # by column, highest bid first
            top = np.ones(len(order), dtype=bool)
            top[1:] = best[order[1:]] != best[order[:-1]]
            won = order[top]
            cols = best[won]
            displaced = owner[cols]
            displaced = displaced[displaced >= 0]
            held[displaced] = -1
            owner[cols] = unassigned[won]
            held[unassigned[won]] = cols
            prices[cols] += bid[won]
            waiting = np.ones(len(unassigned), dtype=bool)
            waiting[won] = False
            unassigned = np.concatenate((unassigned[waiting], displaced))
    return prices


def _bids(cost: np.ndarray, prices: np.ndarray, rows: np.ndarray,
          buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cheapest column under cost + prices, and that column's
    margin below the row's second cheapest."""
    best = np.empty(len(rows), dtype=np.intp)
    margin = np.empty(len(rows))
    for start, chunk, block in _row_blocks(cost, rows, buffer):
        block += prices
        at = np.arange(len(chunk))
        cols = block.argmin(axis=1)
        cheapest = block[at, cols]
        block[at, cols] = np.inf
        best[start:start + len(chunk)] = cols
        margin[start:start + len(chunk)] = block.min(axis=1) - cheapest
    return best, margin


def w2_distance(a, b, terms: ReferenceTerms | None = None) -> float:
    """2-Wasserstein distance between equal-size empirical sample sets.

    b is the reference set. With a `terms` holder, a 2-D call whose
    holder is empty stores minus its auction's prices as the potentials,
    and later calls start from them; the value is the same either way."""
    a, b = _check_samples(a, b)
    if a.shape[0] == 0:
        raise ContractViolation("w2_distance needs at least one point per set")
    d = a.shape[1]
    if d not in (1, 2):
        raise ContractViolation("w2_distance supports 1-D and 2-D samples")
    if d == 1:
        sa = np.sort(a[:, 0])
        sb = np.sort(b[:, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.mean((sa - sb) ** 2)
        if not np.isfinite(value):
            raise NumericFailure(_SQUARES_OVERFLOW)
        return float(np.sqrt(value))
    terms = ReferenceTerms() if terms is None else terms
    terms.bind(b)
    cost = cdist_sqeuclidean(a, b)
    if not np.isfinite(cost.sum()):
        raise NumericFailure(_SQUARES_OVERFLOW)
    if terms.potentials is None:
        terms.potentials = -_auction_prices(cost)
    cost -= terms.potentials
    _, cols = linear_sum_assignment(cost)
    diff = a - b[cols]
    return float(np.sqrt(np.sum(diff * diff, axis=1).mean()))


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


def _mean_abs_diff(x: np.ndarray, y: np.ndarray) -> float:
    """E|X - Y| over all pairs of two sample sets of shape (n, d)."""
    if x.shape[1] == 1:
        return _mean_abs_diff_1d(x[:, 0], y[:, 0])
    return float(cdist_euclidean(x, y).mean())


def energy_distance(a, b, terms: ReferenceTerms | None = None) -> float:
    """V-statistic estimate 2 E|A-B| - E|A-A'| - E|B-B'| (non-negative).

    b is the reference set; a `terms` holder keeps E|B-B'| across calls."""
    a, b = _check_samples(a, b, equal_n=False)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ContractViolation("energy_distance needs at least 2 points per set")
    terms = ReferenceTerms() if terms is None else terms
    terms.bind(b)
    with np.errstate(over="ignore", invalid="ignore"):
        if terms.self_energy is None:
            terms.self_energy = _mean_abs_diff(b, b)
        value = (2.0 * _mean_abs_diff(a, b) - _mean_abs_diff(a, a)
                 - terms.self_energy)
    if not np.isfinite(value):
        raise NumericFailure("distances between the sample sets overflow "
                             "float64")
    return value

"""Sample-quality metrics: 2-Wasserstein distance and energy distance.

Both metrics are exact at every sample count.

w2_distance is the optimal-transport cost between two equal-size empirical
sets. In 1D it is the sorted coupling. In 2D it is the optimal assignment
(scipy's linear_sum_assignment, a shortest-augmenting-path solver) on the
n x n squared-euclidean cost matrix: O(n^2) memory and up to cubic time,
growing as the sets move apart. Its value is taken from the matched pairs'
squared distances; for two coordinates these are bit-equal to the cost
matrix entries.

The solver takes no starting duals, but a shifted cost matrix does their
work. Subtracting a potential v_j from every entry of column j adds the
constant -sum(v) to every assignment's total, so the optimal assignment,
and the W2 read from the original pairs, do not change. A `ReferenceTerms`
holder keeps such column potentials for one reference set. The first 2-D
W2 call given the holder solves cold, then derives v from its optimal
assignment by a fixed number of Bellman-Ford sweeps over the reduced costs
(`_column_potentials`). Every later call against the same reference
subtracts v from its own cost matrix in place. For sample sets that nearly
share an optimal coupling (the strategies of one bench draw their samples
from the same noise), a warm solve then takes a seventh to a tenth of a
cold one's time. Row potentials would change nothing: the solver's own row
duals absorb any per-row constant.

Against a 2048-point checkerboard reference (2-vCPU x86 VM, one BLAS thread)
a cold solve takes about 1 s for a second checkerboard draw and about 3 s
for standard normal noise or a lightly trained sampler's output; at n = 4096
the same pairs take about 3-6 s and 24 s. On the bench's paired strategy
sets the potentials pass takes about 0.3 s and each warm solve 0.3-0.5 s,
against 3 s cold.

energy_distance is the V-statistic 2 E|A-B| - E|A-A'| - E|B-B'|. In 1D each
mean |X-Y| term comes from sorted values with prefix sums and searchsorted,
O(n log n) time and O(n) memory; it matches the all-pairs form to about
1e-14 relative. Other dimensions average the all-pairs distance matrices.
A `ReferenceTerms` holder keeps the reference's self term E|B-B'| from the
first call, bit-equal to recomputing it: at n = 2048 in 2-D that term is
about 26 ms of a 72 ms call (2-vCPU x86 VM, one BLAS thread).

Only the 2-D W2 and the all-pairs energy terms use scipy.optimize and
scipy.spatial, and they import them at their first call. Loading the two
takes about 0.2 s and 22 MB of peak RSS per process (same VM), a third of a
CLI process's start-up, so the training commands, `sample` and a 1-D
`bench` never pay it; `verify` and a 2-D `bench` pay it once, in their first
2-D metric call.
"""

from __future__ import annotations

import numpy as np

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


# Bellman-Ford sweeps of the potentials pass, and its row chunk in matrix
# entries (2 MB of float64). On the bench's sets (n = 2048, three bench
# seeds) 10, 30 and 100 sweeps take about 0.12, 0.3 and 0.75 s and leave
# warm solves of about 1.25, 0.35 and 0.15 s (the learned strategy's about
# 1.2, 0.45 and 0.6 s); 20 and 50 sweeps cost more in total than 30.
_POTENTIAL_SWEEPS = 30
_CHUNK_ENTRIES = 1 << 18


class ReferenceTerms:
    """The terms of the metrics that depend on one reference set only: the
    2-D W2's column potentials and the energy distance's E|B-B'|.

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


def _column_potentials(cost: np.ndarray, cols: np.ndarray,
                       sweeps: int = _POTENTIAL_SWEEPS) -> np.ndarray:
    """Column potentials v of the square cost matrix whose optimal
    assignment matches row i to column cols[i].

    Each sweep relaxes v_j <- min(v_j, min_i c_ij - u_i) with
    u_i = c_i,cols[i] - v_cols[i], over only the rows whose u changed in
    the sweep before. Run to convergence, this is a feasible dual that is
    tight on the assignment; a fixed number of sweeps gives a near-feasible
    one. Rows are read in chunks, so no second n x n array is allocated."""
    n = cost.shape[0]
    matched = cost[np.arange(n), cols]
    row_of = np.empty(n, dtype=np.intp)
    row_of[cols] = np.arange(n)
    buffer = np.empty((max(1, min(n, _CHUNK_ENTRIES // n)), n))
    v = np.zeros(n)
    active = np.arange(n)
    for _ in range(sweeps):
        u = matched - v[cols]
        relaxed = v.copy()
        for start in range(0, len(active), len(buffer)):
            rows = active[start:start + len(buffer)]
            block = np.take(cost, rows, axis=0, out=buffer[:len(rows)],
                            mode="clip")  # "raise" buffers the output
            block -= u[rows, None]
            np.minimum(relaxed, block.min(axis=0), out=relaxed)
        lowered = relaxed < v
        if not lowered.any():
            break
        v = relaxed
        active = np.sort(row_of[lowered])
    return v


def w2_distance(a, b, terms: ReferenceTerms | None = None) -> float:
    """2-Wasserstein distance between equal-size empirical sample sets.

    b is the reference set. With a `terms` holder, a 2-D call fills its
    potentials when they are empty and solves from them otherwise; the
    value is the same either way."""
    a, b = _check_samples(a, b)
    d = a.shape[1]
    if d not in (1, 2):
        raise ContractViolation("w2_distance supports 1-D and 2-D samples")
    if d == 1:
        sa = np.sort(a[:, 0])
        sb = np.sort(b[:, 0])
        return float(np.sqrt(np.mean((sa - sb) ** 2)))
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    if terms is not None:
        terms.bind(b)
    warmed = terms is not None and terms.potentials is not None
    cost = cdist(a, b, metric="sqeuclidean")
    if warmed:
        cost -= terms.potentials
    _, cols = linear_sum_assignment(cost)
    if terms is not None and not warmed:
        terms.potentials = _column_potentials(cost, cols)
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
    from scipy.spatial.distance import cdist

    return float(cdist(x, y).mean())


def energy_distance(a, b, terms: ReferenceTerms | None = None) -> float:
    """V-statistic estimate 2 E|A-B| - E|A-A'| - E|B-B'| (non-negative).

    b is the reference set; a `terms` holder keeps E|B-B'| across calls."""
    a, b = _check_samples(a, b, equal_n=False)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ContractViolation("energy_distance needs at least 2 points per set")
    if terms is not None:
        terms.bind(b)
        if terms.self_energy is None:
            terms.self_energy = _mean_abs_diff(b, b)
    bb = _mean_abs_diff(b, b) if terms is None else terms.self_energy
    return 2.0 * _mean_abs_diff(a, b) - _mean_abs_diff(a, a) - bb

"""The compiled routines `kernels` loads give the public scipy names' output
bit for bit. Outputs are compared, not module identity: a compiled module
loaded twice may be initialised twice."""

import numpy as np
import pytest
import scipy
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import erf

from flowcache import kernels


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def test_erf_is_bit_equal_to_scipy_special():
    rng = np.random.default_rng(0)
    x = np.concatenate([
        4.0 * rng.standard_normal(1 << 20),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 6.0, -6.0, 30.0, -30.0]])
    np.testing.assert_array_equal(bits(kernels.erf(x)), bits(erf(x)))


def _point_sets():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((301, 2))
    b = 3.0 * rng.standard_normal((173, 2)) + 1.0
    far = 1e200 * (1.0 + rng.random((40, 2)))
    yield "unequal sizes", a, b
    yield "strided", a[::3], b[1::2]
    yield "fortran order", np.asfortranarray(a), np.asfortranarray(b)
    yield "transposed view", a.T.copy().T, b[:, ::-1]
    yield "near 1e200", far, -far[:25]


@pytest.mark.parametrize("metric", ["sqeuclidean", "euclidean"])
def test_cdist_is_bit_equal_to_scipy_spatial(metric):
    kernel = getattr(kernels, f"cdist_{metric}")
    for label, a, b in _point_sets():
        ours, public = kernel(a, b), cdist(a, b, metric=metric)
        assert ours.shape == (len(a), len(b)), label
        np.testing.assert_array_equal(bits(ours), bits(public), err_msg=label)


def test_cdist_overflows_to_inf_where_the_metrics_check_for_it():
    # w2_distance and energy_distance read the inf as NumericFailure
    far = 1e200 * np.array([[1.0, 1.0], [2.0, -1.0]])
    assert np.isinf(kernels.cdist_sqeuclidean(far, -far)).all()
    assert np.isinf(kernels.cdist_euclidean(far, -far)).all()


def _costs():
    rng = np.random.default_rng(2)
    for n in (1, 7, 64, 257):
        yield f"random {n}", rng.random((n, n))
    for n in (5, 40, 128):
        yield f"integer ties {n}", rng.integers(0, 4, size=(n, n))
    cost = rng.standard_normal((200, 200)) ** 2
    potentials = rng.standard_normal(200)
    yield "shifted by potentials", cost - potentials


def test_linear_sum_assignment_matches_scipy_optimize():
    for label, cost in _costs():
        rows, cols = kernels.linear_sum_assignment(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, want_rows, err_msg=label)
        np.testing.assert_array_equal(cols, want_cols, err_msg=label)


def test_a_moved_extension_fails_loudly():
    with pytest.raises(ImportError) as raised:
        kernels._extension("special", "_no_such_module")
    assert "scipy.special._no_such_module" in str(raised.value)
    assert scipy.__version__ in str(raised.value)


def test_a_moved_routine_fails_loudly():
    with pytest.raises(ImportError) as raised:
        kernels._routine(kernels._lsap, "no_such_routine")
    assert "scipy.optimize._lsap.no_such_routine" in str(raised.value)
    assert scipy.__version__ in str(raised.value)

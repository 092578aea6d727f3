"""The verify battery's checks can fail: a check fed a broken metric
returns False and its line says which part broke."""

import numpy as np

from flowcache import verify


def test_w2_check_fails_when_a_warm_solve_disagrees(monkeypatch):
    # a warm solve one ulp off the plain solve fails the check, while the
    # unperturbed cold solves still pass
    w2 = verify.w2_distance

    def warm_off(a, b, terms=None):
        warmed = terms is not None and terms.potentials is not None
        value = w2(a, b, terms)
        return np.nextafter(value, np.inf) if warmed else value

    assert verify.check_w2(0)[0]
    monkeypatch.setattr(verify, "w2_distance", warm_off)
    ok, detail = verify.check_w2(0)
    assert not ok
    assert "auction start equals the plain solve: True" in detail
    assert "warm start from the cold auction's prices equals it: False" in detail

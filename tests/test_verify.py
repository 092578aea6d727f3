"""The verify battery's checks can fail: a check fed a broken metric
returns False and its line says which part broke, and every check fails
when one name it uses is slightly wrong."""

import functools

import numpy as np
import pytest

from flowcache import autodiff, verify
from flowcache.distill import RestrictConfig


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


def _tangent_off(outputs):
    value, tangent = outputs
    return value, tangent * (1.0 + 1e-4)


def _tensors_off_by_one_ulp(ckpt):
    for tensor in ckpt.params.entries.values():
        tensor.flat[0] = np.nextafter(tensor.flat[0], np.inf)
    return ckpt


# per check: (module, name, wrong) where wrong(original) is a slightly wrong
# stand-in for the name the check uses
SLIGHTLY_WRONG = {
    "autodiff-reverse": (autodiff, "param_grads", lambda f: lambda loss, leaves: {
        name: 1.001 * g for name, g in f(loss, leaves).items()}),
    "autodiff-jvp-agreement": (autodiff, "jvp", lambda f: lambda *args:
                               _tangent_off(f(*args))),
    "restricted-sampling": (verify, "sample_t_r", lambda f: lambda cfg, rng: f(
        RestrictConfig(1.01 * cfg.restrict_factor), rng)),
    "taylor-exactness": (verify, "taylor_forecast", lambda f: lambda *args:
                         f(*args) + 1e-6),
    "schedule-counts": (verify, "ScheduleSpec", lambda f: functools.partial(
        f, fixture=False)),
    "mean-velocity-oracles": (verify, "analytic_mean_velocity",
                              lambda f: lambda *args: f(*args) * (1.0 + 1e-6)),
    "checkpoint-roundtrip": (verify, "load_checkpoint", lambda f: lambda path:
                             _tensors_off_by_one_ulp(f(path))),
    "w2-distance": (verify, "w2_distance", lambda f: lambda *args:
                    np.nextafter(f(*args), np.inf)),
}


@pytest.mark.parametrize("name, check", verify.CHECKS,
                         ids=[name for name, _ in verify.CHECKS])
def test_every_check_fails_when_a_name_it_uses_is_slightly_wrong(
        name, check, monkeypatch, capsys):
    module, attr, wrong = SLIGHTLY_WRONG[name]
    assert check(0)[0]
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    assert not check(0)[0]
    monkeypatch.setattr(verify, "CHECKS", [(name, check)])
    assert not verify.run_all(0)
    assert capsys.readouterr().out.startswith(f"[FAIL] {name}: ")

"""Runner invariants that must hold without `assert` (they survive -O)."""

import pytest

from flowcache import runner
from flowcache.config import load_config
from flowcache.errors import ContractViolation


def test_sessions_disagreeing_on_nfe_raise(tiny_pipeline, monkeypatch):
    config, root = tiny_pipeline
    original = runner._run_session

    def skewed(name, key, *rest):
        out, (full, predicted, peak) = original(name, key, *rest)
        return out, (full + key[0], predicted, peak)  # class 1 miscounts

    monkeypatch.setattr(runner, "_run_session", skewed)
    with pytest.raises(ContractViolation, match="disagree on NFE counts"):
        runner.sample_strategies(load_config(config), root / "meanflow.fck",
                                 root / "predictor.fck")

"""Config validation: every section rejects unknown keys and non-numeric
optional floats, through the parser and through the CLI's exit code 2."""

import json

import pytest

from flowcache.cli import EXIT_CONFIG, main
from flowcache.config import config_from_dict, default_config
from flowcache.errors import ConfigError

BAD_CONFIGS = {
    "distribution": {"distribution": {"sigm": 1.0}},
    "base_train": {"base_train": {"iter": 5}},
    "cfg_distill": {"cfg_distill": {"g_mx": 4.0}},
    "meanflow": {"meanflow": {"itres": 5}},
    "predictor": {"predictor": {"mse_iter": 1}},
    "schedule": {"schedule": {"fixtur": False}},
    "top_level": {"seeed": 1},
    "workers": {"workers": 1},
    "lr_final": {"meanflow": {"lr_final": "abc"}},
    "grad_clip": {"meanflow": {"grad_clip": "abc"}},
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_rejected(case, tmp_path):
    user = BAD_CONFIGS[case]
    with pytest.raises(ConfigError):
        config_from_dict(user)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(user))
    assert main(["train-base", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_optional_floats_cast_or_none():
    config = config_from_dict({"meanflow": {"lr_final": 1, "grad_clip": None},
                               "base_train": {"lr_final": "2e-4"}})
    assert config.meanflow_train.lr_final == 1.0
    assert isinstance(config.meanflow_train.lr_final, float)
    assert config.meanflow_train.grad_clip is None
    assert config.base_train.lr_final == 2e-4
    assert default_config().meanflow_train.grad_clip == 1.0

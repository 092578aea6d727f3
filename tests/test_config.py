"""Config validation: every section rejects unknown keys, values of the
wrong type and out-of-range settings, through the parser and through the
CLI's exit code 2; every default is read by exactly one typed field; the
schedule section takes its modes from explicit, then fixture, then pattern."""

import json
from dataclasses import asdict, fields
from typing import get_type_hints

import pytest

from flowcache import config as config_module
from flowcache.autodiff import ParameterSet
from flowcache.cache import ScheduleSpec
from flowcache.checkpoint import (Checkpoint, Stage, load_checkpoint,
                                  save_checkpoint)
from flowcache.cli import EXIT_CONFIG, main
from flowcache.config import (DEFAULTS, SECTION_FIELDS, ExperimentConfig,
                              config_from_dict, default_config,
                              read_dataclass)
from flowcache.errors import ConfigError

from conftest import load_perfbench

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
    # a float must be finite
    "lambda_adv_nan": {"predictor": {"lambda_adv": float("nan")}},
    "lr_overflow": {"base_train": {"lr": 1e999}},
    "grad_clip_inf_string": {"meanflow": {"grad_clip": "inf"}},
    # one case per training-settings rule
    "iters_negative": {"meanflow": {"iters": -1}},
    "batch_size_zero": {"base_train": {"batch_size": 0}},
    "lr_zero": {"cfg_distill": {"lr": 0.0}},
    "lr_final_negative": {"meanflow": {"lr_final": -5e-5}},
    "groups_per_step_zero": {"meanflow": {"groups_per_step": 0}},
    "grad_clip_zero": {"meanflow": {"grad_clip": 0.0}},
    "p_uncond_above_one": {"base_train": {"p_uncond": 1.5}},
    "meanflow_uneven_groups": {"meanflow": {"batch_size": 130}},
    # one case per type rule
    "model_int_from_string": {"model": {"hidden_dim": "96"}},
    "iters_fractional": {"meanflow": {"iters": 2.7}},
    "spectral_norm_from_string": {"predictor": {"spectral_norm": "false"}},
    "emit_samples_from_string": {"emit_samples": "no"},
    "seed_from_bool": {"seed": True},
    "explicit_from_string": {"schedule": {"explicit": "full"}},
    "explicit_null_item": {"schedule": {"explicit": ["full", None]}},
    "lr_from_bool": {"base_train": {"lr": True}},
    "iters_null": {"base_train": {"iters": None}},
    "strategies_from_string": {"strategies": "none"},
    "strategy_item_not_string": {"strategies": ["none", 1]},
    "kind_not_string": {"distribution": {"kind": 2}},
    "section_not_object": {"model": 96},
    "model_depth_zero": {"model": {"depth": 0}},
    # one case per lower bound
    "mse_iters_negative": {"predictor": {"mse_iters": -1}},
    "gan_iters_negative": {"predictor": {"gan_iters": -1}},
    "predictor_iters_none": {"predictor": {"mse_iters": 0, "gan_iters": 0}},
    "predictor_batch_size_zero": {"predictor": {"batch_size": 0}},
    "disc_hidden_dim_zero": {"predictor": {"disc_hidden_dim": 0}},
    "model_hidden_dim_zero": {"model": {"hidden_dim": 0}},
    "model_cfg_features_zero": {"model": {"cfg_features": 0}},
    "model_time_embed_dim_zero": {"model": {"time_embed_dim": 0}},
    "taylor_order_negative": {"taylor_order": -1},
    "emit_samples_true": {"emit_samples": True},
    # seeds and the sampling plan
    "seed_negative": {"seed": -1},
    "metric_seed_negative": {"metric_seed": -1},
    "distribution_seed_negative": {"distribution": {"seed": -3}},
    "strategies_repeated": {"strategies": ["naive", "naive"]},
    "strategies_empty": {"strategies": []},
    # one case per schedule the sampler cannot walk
    "schedule_max_interval_zero": {"schedule": {"max_interval": 0}},
    "schedule_no_fixture": {"schedule": {"max_interval": 7}},
    "schedule_fixture_total_steps": {"schedule": {"total_steps": 19}},
    "schedule_warmup_not_below_total": {"schedule": {
        "total_steps": 5, "warmup_full": 5, "fixture": False}},
    "schedule_warmup_with_fixture": {"schedule": {"warmup_full": 3}},
    "schedule_warmup_with_explicit": {"schedule": {
        "total_steps": 3, "warmup_full": 1, "fixture": False,
        "explicit": ["full", "predict", "full"]}},
    "schedule_explicit_short": {"schedule": {
        "total_steps": 4, "explicit": ["full"] * 3}},
    "schedule_explicit_bad_mode": {"schedule": {
        "total_steps": 4, "explicit": ["full", "hold", "full", "full"]}},
    "schedule_explicit_predict_first": {"schedule": {
        "total_steps": 4, "explicit": ["predict", "full", "full", "full"]}},
    "schedule_explicit_long_predict_run": {"schedule": {
        "total_steps": 4, "explicit": ["full", "predict", "predict", "full"]}},
}

# The section and key each type-rule case must name in its message.
NAMED = {
    "model_int_from_string": "'model': hidden_dim",
    "iters_fractional": "'meanflow': iters",
    "spectral_norm_from_string": "'predictor': spectral_norm",
    "emit_samples_from_string": "emit_samples",
    "seed_from_bool": "seed",
    "explicit_from_string": "'schedule': explicit",
    "explicit_null_item": "'schedule': explicit must be a list of items each "
                          "a string, or null, got ['full', None]",
    "lr_from_bool": "'base_train': lr",
    "lambda_adv_nan": "'predictor': lambda_adv must be a finite number, "
                      "got nan",
    "lr_overflow": "'base_train': lr must be a finite number, got inf",
    "grad_clip_inf_string": "'meanflow': grad_clip must be a finite number, "
                            "or null, got 'inf'",
    "iters_null": "'base_train': iters",
    "strategies_from_string": "strategies",
    "strategy_item_not_string": "strategies",
    "kind_not_string": "'distribution': kind",
    "section_not_object": "'model'",
    "model_depth_zero": "'model': depth",
    "mse_iters_negative": "'predictor': mse_iters",
    "gan_iters_negative": "'predictor': mse_iters and gan_iters",
    "predictor_iters_none": "'predictor': mse_iters + gan_iters",
    "predictor_batch_size_zero": "'predictor': batch_size",
    "disc_hidden_dim_zero": "'predictor': disc_hidden_dim",
    "model_hidden_dim_zero": "'model': hidden_dim",
    "model_cfg_features_zero": "'model': cfg_features",
    "model_time_embed_dim_zero": "'model': time_embed_dim",
    "taylor_order_negative": "taylor_order",
    "emit_samples_true": "emit_samples must be false: bench writes no "
                         "samples, `flowcache sample` does",
    "seed_negative": "seed must be >= 0",
    "metric_seed_negative": "metric_seed must be >= 0",
    "distribution_seed_negative": "'distribution': seed must be >= 0",
    "strategies_repeated": "strategies names 'naive' twice",
    "strategies_empty": "strategies must name",
    "schedule_max_interval_zero": "'schedule': total_steps and max_interval",
    "schedule_no_fixture": "'schedule': no shipped fixture for total_steps 20, "
                           "max_interval 7",
    "schedule_fixture_total_steps": "'schedule': no shipped fixture for "
                                    "total_steps 19",
    "schedule_warmup_not_below_total": "'schedule': warmup_full",
    "schedule_warmup_with_fixture": "'schedule': warmup_full 3 applies only "
                                    "to the pattern",
    "schedule_warmup_with_explicit": "'schedule': warmup_full 1 applies "
                                     "only to the pattern",
    "schedule_explicit_short": "'schedule': explicit has 3 modes",
    "schedule_explicit_bad_mode": "'schedule': explicit: bad mode 'hold'",
    "schedule_explicit_predict_first": "'schedule': the first step",
    "schedule_explicit_long_predict_run": "'schedule': a run of predict "
                                          "steps exceeds max_interval",
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_rejected(case, tmp_path, capsys):
    user = BAD_CONFIGS[case]
    named = NAMED.get(case, "")
    with pytest.raises(ConfigError) as rejected:
        config_from_dict(user)
    assert named in str(rejected.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(user))
    assert main(["train-base", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_optional_floats_cast_or_none():
    config = config_from_dict({"meanflow": {"lr_final": 1, "grad_clip": None},
                               "base_train": {"lr_final": "2e-4"}})
    assert config.meanflow_train.lr_final == 1.0
    assert isinstance(config.meanflow_train.lr_final, float)
    assert config.meanflow_train.grad_clip is None
    assert config.base_train.lr_final == 2e-4
    assert default_config().meanflow_train.grad_clip == 1.0


def test_integral_numbers_read_as_ints():
    config = config_from_dict({"meanflow": {"iters": 3.0}, "seed": 7})
    assert config.meanflow_train.iters == 3
    assert isinstance(config.meanflow_train.iters, int)
    assert config.seed == 7


def test_every_default_is_read_by_one_typed_field():
    # a new DEFAULTS key must land in exactly one dataclass field, and that
    # field's annotation must be one the reader checks
    types = get_type_hints(ExperimentConfig)
    for section, default in DEFAULTS.items():
        if section in SECTION_FIELDS:
            readers = [types[name] for name in SECTION_FIELDS[section]]
            keys = default
        else:
            readers, keys = [ExperimentConfig], {section: default}
        for key in keys:
            owners = [cls for cls in readers
                      if key in {f.name for f in fields(cls)}]
            assert len(owners) == 1, (section, key, owners)
            config_module._value_reader(get_type_hints(owners[0])[key])
    assert set(SECTION_FIELDS) <= set(DEFAULTS)
    read = {name for names in SECTION_FIELDS.values() for name in names}
    top = set(DEFAULTS) - set(SECTION_FIELDS)
    assert read | top == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("spec,full,predict", [
    ({"max_interval": 2}, 13, 7),
    ({"total_steps": 10, "max_interval": 3, "warmup_full": 2,
      "fixture": False}, 5, 5),
    ({"total_steps": 3, "max_interval": 7, "warmup_full": 0,
      "explicit": ["full", "predict", "FULL"]}, 2, 1),
])
def test_schedule_section_builds_the_sampled_schedule(spec, full, predict):
    # all five keys load, explicit wins over fixture and pattern, and the
    # fixture over the pattern
    config = config_from_dict({"schedule": {
        "total_steps": 20, "max_interval": 2, "warmup_full": 0,
        "fixture": True, "explicit": None, **spec}})
    assert config.schedule.mode_counts() == (full, predict)


@pytest.mark.parametrize("spec", [
    ScheduleSpec(max_interval=3),
    ScheduleSpec(total_steps=12, max_interval=5, warmup_full=1, fixture=False),
    ScheduleSpec(total_steps=3, max_interval=7,
                 explicit=("full", "predict", "FULL")),
])
def test_schedule_spec_survives_a_snapshot(spec, tmp_path):
    # a checkpoint snapshot stores asdict(spec) as JSON; read back as the
    # config reader reads the section, it is the same spec with the same modes
    stored = asdict(spec)
    assert set(stored) == set(DEFAULTS["schedule"])
    path = tmp_path / "spec.fck"
    save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM,
                                     params=ParameterSet({}),
                                     config={"schedule": stored}))
    back = read_dataclass("schedule", ScheduleSpec,
                          load_checkpoint(path).config["schedule"])
    assert back == spec
    assert back.modes == spec.modes
    # in process, without JSON, asdict leaves explicit a tuple
    direct = read_dataclass("schedule", ScheduleSpec, stored)
    assert direct == spec
    assert direct.modes == spec.modes


def test_perfbench_pinned_configs_load(monkeypatch):
    # perfbench writes these configs for every run: a key the reader stops
    # knowing would fail every op of the workload that pins it with exit 2
    module = load_perfbench("workloads", monkeypatch)
    configs = {"TRAIN_CONFIG": module.TRAIN_CONFIG}
    for name, workload in module.WORKLOADS.items():
        configs.update({f"{name}/{key}": config
                        for key, config in workload.configs.items()})
        if workload.fixtures is not None:
            configs[f"{name}/fixtures"] = workload.fixtures
    assert {"TRAIN_CONFIG", "train/train", "bench/n2", "bench/fixtures",
            "sweep-1d/n4", "sweep-1d/fixtures"} <= set(configs)
    for name, config in configs.items():
        try:
            config_from_dict(config)
        except ConfigError as exc:
            pytest.fail(f"perfbench config {name}: {exc}")

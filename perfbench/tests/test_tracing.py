import sys
import types

import pytest

import tracing


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: union of children is [1, 6]
        span("a.inner", 2.0, 3.0, parent=1),
        span("c", 8.0, 12.0, parent=0),  # runs past the parent: only [8, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_summarize_groups_by_name():
    spans = [span("root", 0.0, 10.0)]
    spans += [span("leaf", float(i), float(i) + 0.5, parent=0) for i in range(4)]
    summary = tracing.summarize(spans)
    assert summary["leaf"]["calls"] == 4
    assert summary["leaf"]["self_s"] == pytest.approx(2.0)
    assert summary["root"]["self_s"] == pytest.approx(8.0)
    assert summary["leaf"]["p50_ms"] == pytest.approx(500.0)
    assert summary["leaf"]["tail_pct"] is None  # fewer than ten beyond any level


@pytest.mark.parametrize("n,level", [(19, None), (100, 90.0), (200, 95.0),
                                     (299, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tracing.tail_level(n) == level


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50.0) == 50
    assert tracing.percentile(values, 95.0) == 95
    assert tracing.percentile([7.0], 99.0) == 7.0


@pytest.fixture
def fake_package():
    """A stand-in `fakepkg` with one traced name bound in two modules."""
    metrics = types.ModuleType("fakepkg.metrics")
    metrics.w2_distance = lambda a, b: float(a - b)
    runner = types.ModuleType("fakepkg.runner")
    runner.w2_distance = metrics.w2_distance  # as `from .metrics import ...`
    mods = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.metrics": metrics,
            "fakepkg.runner": runner}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        sys.modules.pop(name, None)


def test_install_traces_every_binding_and_reports_missing(fake_package):
    tracer = tracing.install(tracing.Tracer(), package="fakepkg")
    expected_missing = {f"{m}.{q}" for m, q, _, _ in tracing.TARGETS} - {
        "metrics.w2_distance"}
    assert set(tracer.missing) == expected_missing
    with tracer.op("bench"):
        fake_package["fakepkg.runner"].w2_distance(3.0, 1.0)
        fake_package["fakepkg.metrics"].w2_distance(2.0, 1.0)
    names = [s[0] for s in tracer.spans]
    assert names == ["op.bench", "metrics.w2_distance", "metrics.w2_distance"]
    assert all(s[3] == 0 and s[4] == 0 for s in tracer.spans[1:])
    assert tracer.observed["bench"]["w2"] == [2.0, 1.0]
    tracer.uninstall()
    assert fake_package["fakepkg.runner"].w2_distance(3.0, 1.0) == 2.0
    assert len(tracer.spans) == 3


def test_inactive_tracer_records_nothing(fake_package):
    tracer = tracing.install(tracing.Tracer(), package="fakepkg")
    tracer.active = False
    fake_package["fakepkg.metrics"].w2_distance(2.0, 1.0)
    assert tracer.spans == []
    tracer.uninstall()

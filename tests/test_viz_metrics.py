"""Tests for ASCII rendering and metrics containers."""

from repro.engine.metrics import (
    OperatorMetrics,
    PlanMetrics,
)
from repro.viz import grouped_bars, scatter, series_summary

class TestScatter:
    def test_renders_marks_and_legend(self):
        chart = scatter(
            {"clean": [(0, 0), (10, 10)], "imputed": [(5, 2)]},
            width=20, height=5, title="demo",
        )
        assert "demo" in chart
        assert "C = clean" in chart and "I = imputed" in chart
        bottom_row = chart.splitlines()[-3]  # above the axis and x-range
        assert "C" in bottom_row and "I" in bottom_row

    def test_empty(self):
        assert "(no data)" in scatter({}, title="t")

    def test_single_point_no_crash(self):
        chart = scatter({"one": [(1.0, 1.0)]}, width=10, height=3)
        assert "O = one" in chart


class TestGroupedBars:
    def test_bars_scale_to_peak(self):
        chart = grouped_bars(
            {"2 min": {"F0": 100.0, "F1": 50.0}},
            width=20, title="fig7",
        )
        lines = chart.splitlines()
        f0_line = next(l for l in lines if l.strip().startswith("F0"))
        f1_line = next(l for l in lines if l.strip().startswith("F1"))
        assert f0_line.count("#") == 20
        assert f1_line.count("#") == 10

    def test_empty(self):
        assert "(no data)" in grouped_bars({})


class TestSeriesSummary:
    def test_summary(self):
        text = series_summary([(0, 1), (10, 5)], name="s")
        assert "n=2" in text and "s:" in text

    def test_empty(self):
        assert "empty" in series_summary([])


class TestOperatorMetrics:
    def test_state_gauges(self):
        m = OperatorMetrics()
        m.grow_state(3)
        assert m.state_size == 3 and m.peak_state_size == 3
        m.shrink_state(2, purged=True)
        assert m.state_size == 1 and m.state_purged == 2
        m.shrink_state(99)
        assert m.state_size == 0  # clamped

    def test_snapshot_keys(self):
        snap = OperatorMetrics().snapshot()
        assert snap["tuples_in"] == 0
        assert "busy_time" in snap


class TestPlanMetrics:
    def test_work_of_and_table(self):
        metrics = PlanMetrics()
        m1, m2 = OperatorMetrics(), OperatorMetrics()
        m1.busy_time, m2.busy_time = 2.0, 3.0
        metrics.operator_metrics = {"a": m1, "b": m2}
        metrics.total_work = 5.0
        assert metrics.work_of("a", "b") == 5.0
        table = metrics.table()
        assert "a" in table and "total work" in table

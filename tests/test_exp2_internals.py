"""Unit tests for Experiment 2's building blocks (viewer, plan, costs)."""

import pytest

from repro.experiments.exp2 import (
    Exp2Config,
    _build_plan,
    _viewer_feedback,
)
from repro.punctuation import InSet


@pytest.fixture
def config():
    return Exp2Config(horizon_hours=0.2)  # 720 s


class TestViewerSchedule:
    def test_one_injection_per_switch(self, config):
        plan, ops = _build_plan(config, "F3")
        schedule = _viewer_feedback(
            config, 2.0, ops["average"].output_schema,
            issuer=ops["sink"].name,
        )
        assert len(schedule) == int(720 // 120)

    def test_feedback_covers_invisible_segments_only(self, config):
        plan, ops = _build_plan(config, "F3")
        schedule = _viewer_feedback(
            config, 2.0, ops["average"].output_schema,
            issuer=ops["sink"].name,
        )
        _, first = schedule[0]
        seg_atom = first.pattern.atom_at("segment")
        assert isinstance(seg_atom, InSet)
        assert len(seg_atom.values) == config.segments - 1
        assert 0 not in seg_atom.values  # switch 0 watches segment 0

    def test_window_range_matches_switch_interval(self, config):
        plan, ops = _build_plan(config, "F3")
        schedule = _viewer_feedback(
            config, 2.0, ops["average"].output_schema,
            issuer=ops["sink"].name,
        )
        when, first = schedule[0]
        assert when == 0.0
        window_atom = first.pattern.atom_at("window")
        # Switch 0 covers [0, 120) = windows 0..5 with 20 s windows.
        assert window_atom.matches(0) and window_atom.matches(5)
        assert not window_atom.matches(6)

    def test_visible_segment_rotates(self, config):
        plan, ops = _build_plan(config, "F3")
        schedule = _viewer_feedback(
            config, 2.0, ops["average"].output_schema,
            issuer=ops["sink"].name,
        )
        first_invisible = schedule[0][1].pattern.atom_at("segment").values
        second_invisible = schedule[1][1].pattern.atom_at("segment").values
        assert first_invisible != second_invisible

    def test_feedback_is_supportable(self, config):
        """Viewer feedback constrains only delimited attributes."""
        from repro.punctuation import PunctuationScheme
        plan, ops = _build_plan(config, "F3")
        schedule = _viewer_feedback(
            config, 2.0, ops["average"].output_schema,
            issuer=ops["sink"].name,
        )
        scheme = PunctuationScheme(
            ops["average"].output_schema, delimited=["window"]
        )
        for _, feedback in schedule:
            assert scheme.supports(feedback.pattern)


class TestPlanConstruction:
    def test_scheme_knobs(self, config):
        _, f1 = _build_plan(config, "F1")
        assert f1["average"].exploit_level == 1
        assert f1["average"].relay_enabled is False
        _, f2 = _build_plan(config, "F2")
        assert f2["average"].exploit_level == 2
        assert f2["average"].relay_enabled is False
        _, f3 = _build_plan(config, "F3")
        assert f3["average"].relay_enabled is True

    def test_parse_stage_is_feedback_unaware(self, config):
        _, ops = _build_plan(config, "F3")
        assert ops["parse"].feedback_aware is False

    def test_cost_configuration_applied(self, config):
        _, ops = _build_plan(config, "F0")
        assert ops["parse"].tuple_cost == config.parse_cost
        assert ops["quality"].tuple_cost == config.quality_cost
        assert ops["average"].tuple_cost == config.aggregate_cost
        assert ops["sink"].tuple_cost == config.render_cost

    def test_from_env_scaling(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXP2_HOURS", "0.5")
        config = Exp2Config.from_env()
        assert config.horizon == pytest.approx(1800.0)


class TestEngineGuard:
    def test_feedback_schemes_require_the_virtual_clock(self, config):
        from repro.experiments.exp2 import run_cell
        with pytest.raises(ValueError, match="simulated"):
            run_cell(config, "F3", 2.0, engine="threaded")

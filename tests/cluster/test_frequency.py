"""Tests for the DVFS / voltage model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.frequency import DEFAULT_FREQUENCY_PLAN, FrequencyPlan


class TestFrequencyPlan:
    def test_default_matches_paper_platform(self):
        """Paper §V-A: max turbo 3.3 GHz, overclock 4.0 GHz, 100 MHz steps."""
        plan = DEFAULT_FREQUENCY_PLAN
        assert plan.turbo_ghz == 3.3
        assert plan.overclock_max_ghz == 4.0
        assert plan.step_ghz == pytest.approx(0.1)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            FrequencyPlan(base_ghz=3.0, turbo_ghz=2.0)
        with pytest.raises(ValueError):
            FrequencyPlan(turbo_ghz=3.3, overclock_max_ghz=3.0)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            FrequencyPlan(step_ghz=0.0)

    def test_negative_voltage_slope_rejected(self):
        # A falling V/f segment would break "worst voltage = voltage at
        # the highest frequency", which the hazard path relies on.
        with pytest.raises(ValueError):
            FrequencyPlan(volts_per_ghz_below_turbo=-0.1)
        with pytest.raises(ValueError):
            FrequencyPlan(volts_per_ghz_above_turbo=-1.0)

    @given(below=st.floats(min_value=0.0, max_value=2.0),
           above=st.floats(min_value=0.0, max_value=2.0),
           freqs=st.lists(st.floats(min_value=0.1, max_value=5.0),
                          min_size=1, max_size=16))
    def test_worst_voltage_is_voltage_at_highest_frequency(
            self, below, above, freqs):
        plan = FrequencyPlan(volts_per_ghz_below_turbo=below,
                             volts_per_ghz_above_turbo=above)
        assert plan.voltage(max(freqs)) == max(
            plan.voltage(f) for f in freqs)

    def test_voltage_at_turbo(self):
        plan = FrequencyPlan()
        assert plan.voltage(plan.turbo_ghz) == pytest.approx(
            plan.turbo_volts)

    def test_voltage_rises_steeply_above_turbo(self):
        plan = FrequencyPlan()
        v_turbo = plan.voltage(plan.turbo_ghz)
        v_oc = plan.voltage(plan.overclock_max_ghz)
        # Overclocking 0.7 GHz past turbo costs far more voltage than the
        # same step below turbo saves.
        below = v_turbo - plan.voltage(plan.turbo_ghz - 0.7)
        assert v_oc - v_turbo > 2 * below

    def test_voltage_floor(self):
        plan = FrequencyPlan()
        assert plan.voltage(0.1) == plan.min_volts

    def test_voltage_invalid_frequency(self):
        with pytest.raises(ValueError):
            FrequencyPlan().voltage(0.0)
        with pytest.raises(ValueError):
            FrequencyPlan().voltage(-1.0)

    def test_is_overclocked(self):
        plan = FrequencyPlan()
        assert not plan.is_overclocked(plan.turbo_ghz)
        assert not plan.is_overclocked(plan.base_ghz)
        assert plan.is_overclocked(plan.turbo_ghz + plan.step_ghz)

    def test_clamp(self):
        plan = FrequencyPlan()
        assert plan.clamp(10.0) == plan.overclock_max_ghz
        assert plan.clamp(0.5) == plan.base_ghz
        assert plan.clamp(3.5) == 3.5

    def test_step_up_down_inverse_within_range(self):
        plan = FrequencyPlan()
        f = 3.5
        assert plan.step_down(plan.step_up(f)) == pytest.approx(f)

    def test_step_up_saturates_at_ceiling(self):
        plan = FrequencyPlan()
        assert plan.step_up(plan.overclock_max_ghz) == \
            plan.overclock_max_ghz

    def test_step_down_saturates_at_base(self):
        plan = FrequencyPlan()
        assert plan.step_down(plan.base_ghz) == plan.base_ghz

    def test_overclock_steps_cover_range(self):
        plan = FrequencyPlan()
        steps = plan.overclock_steps()
        assert steps[0] == pytest.approx(plan.turbo_ghz + plan.step_ghz)
        assert steps[-1] == pytest.approx(plan.overclock_max_ghz)
        assert len(steps) == 7  # 3.4 .. 4.0

    @given(st.floats(0.5, 5.0))
    def test_voltage_monotone_in_frequency(self, freq):
        plan = FrequencyPlan()
        assert plan.voltage(freq + 0.1) >= plan.voltage(freq) - 1e-12

    @given(st.floats(0.1, 6.0))
    def test_clamp_idempotent(self, freq):
        plan = FrequencyPlan()
        assert plan.clamp(plan.clamp(freq)) == plan.clamp(freq)

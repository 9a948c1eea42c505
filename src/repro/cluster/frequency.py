"""CPU frequency (DVFS) and voltage model.

The paper's cluster uses AMD 64-core parts whose max turbo is 3.3 GHz and
whose overclocked ceiling is 4.0 GHz, stepped in 100 MHz increments by the
sOA's prioritized feedback loop (SmartOClock §IV-D, §V-A).  The voltage
curve matters because wear-out and dynamic power both grow with V: running
past the rated envelope needs disproportionate overvolting, which is why
overclocking is expensive in both watts and lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FrequencyPlan", "DEFAULT_FREQUENCY_PLAN"]


@dataclass(frozen=True)
class FrequencyPlan:
    """Operating points of one CPU SKU.

    Frequencies in GHz, voltages in volts.  ``base_ghz`` is the guaranteed
    all-core frequency, ``turbo_ghz`` the vendor max turbo (the highest
    in-warranty point), ``overclock_max_ghz`` the platform-qualified
    overclocking ceiling.  ``step_ghz`` is the granularity of the sOA's
    feedback loop.
    """

    base_ghz: float = 2.45
    turbo_ghz: float = 3.3
    overclock_max_ghz: float = 4.0
    step_ghz: float = 0.1
    # Voltage curve: volts at turbo, and dV/df slopes below/above turbo.
    # Overclocking beyond the rated envelope requires steep overvolting,
    # which drives both the ~10 W/core power delta of the paper's worked
    # example (SmartOClock paper, section IV-C) and the exponential wear acceleration (section II).
    turbo_volts: float = 1.05
    volts_per_ghz_below_turbo: float = 0.30
    volts_per_ghz_above_turbo: float = 1.00
    min_volts: float = 0.70

    def __post_init__(self) -> None:
        if not (0 < self.base_ghz <= self.turbo_ghz <= self.overclock_max_ghz):
            raise ValueError(
                "need 0 < base <= turbo <= overclock_max, got "
                f"{self.base_ghz}/{self.turbo_ghz}/{self.overclock_max_ghz}")
        if self.step_ghz <= 0:
            raise ValueError(f"step must be positive, got {self.step_ghz}")
        # The hazard path takes the worst core voltage as the voltage at
        # the highest core frequency, which needs a monotone V/f curve.
        if self.volts_per_ghz_below_turbo < 0 \
                or self.volts_per_ghz_above_turbo < 0:
            raise ValueError(
                "V/f slopes must be >= 0, got "
                f"{self.volts_per_ghz_below_turbo}/"
                f"{self.volts_per_ghz_above_turbo}")

    def voltage(self, freq_ghz: float) -> float:
        """Operating voltage at ``freq_ghz`` (piecewise-linear V/f curve)."""
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_ghz}")
        if freq_ghz >= self.turbo_ghz:
            v = (self.turbo_volts
                 + self.volts_per_ghz_above_turbo * (freq_ghz - self.turbo_ghz))
        else:
            v = (self.turbo_volts
                 - self.volts_per_ghz_below_turbo * (self.turbo_ghz - freq_ghz))
        return max(self.min_volts, v)

    def is_overclocked(self, freq_ghz: float) -> bool:
        """True when the point is beyond the in-warranty turbo ceiling."""
        return freq_ghz > self.turbo_ghz + 1e-9

    def clamp(self, freq_ghz: float) -> float:
        """Clamp a requested frequency into [base, overclock_max]."""
        return min(self.overclock_max_ghz, max(self.base_ghz, freq_ghz))

    def step_up(self, freq_ghz: float) -> float:
        """One feedback-loop step up, clamped at the overclock ceiling."""
        return self.clamp(freq_ghz + self.step_ghz)

    def step_down(self, freq_ghz: float) -> float:
        """One feedback-loop step down, clamped at the base frequency."""
        return self.clamp(freq_ghz - self.step_ghz)

    def overclock_steps(self) -> list[float]:
        """All overclocked operating points above turbo, ascending."""
        steps: list[float] = []
        f = self.turbo_ghz + self.step_ghz
        while f <= self.overclock_max_ghz + 1e-9:
            steps.append(round(f, 6))
            f += self.step_ghz
        return steps


DEFAULT_FREQUENCY_PLAN = FrequencyPlan()

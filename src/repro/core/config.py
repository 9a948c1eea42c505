"""All SmartOClock tunables in one place.

Defaults follow the values the paper states explicitly: 100 MHz frequency
steps, 20 W exploration step, 30 s exploration confirmation window, 95 %
warning threshold, 15-minute exhaustion window, week-long lifetime epochs
with a 10 % overclocking budget, weekly DailyMed template recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.oversubscription import RISK_LEVELS
from repro.prediction.templates import TemplateKind

__all__ = ["SmartOClockConfig"]

SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


@dataclass(frozen=True)
class SmartOClockConfig:
    """Knobs for the whole platform (one instance shared by all agents)."""

    # --- telemetry & control cadence -------------------------------------
    control_interval_s: float = 10.0       # sOA feedback-loop tick
    telemetry_interval_s: float = 300.0    # samples into template stores
    budget_update_period_s: float = SECONDS_PER_WEEK  # gOA recompute

    # --- prediction -------------------------------------------------------
    template_kind: TemplateKind = TemplateKind.DAILY_MED
    template_history_weeks: int = 2
    budget_slot_s: float = 300.0           # resolution of per-server budgets

    # --- power enforcement (sOA feedback loop, §IV-D) ----------------------
    power_buffer_watts: float = 20.0       # threshold = limit - buffer

    # --- exploration beyond assigned budgets (§IV-D) -----------------------
    explore_step_watts: float = 20.0
    explore_confirm_s: float = 30.0
    explore_backoff_initial_s: float = 60.0
    explore_backoff_factor: float = 2.0
    explore_backoff_max_s: float = 3600.0
    exploit_duration_s: float = 600.0

    # --- rack power safety --------------------------------------------------
    warning_fraction: float = 0.95         # rack warning threshold

    # --- stale-budget safety margin (decentralization, §III Q5) -------------
    # When the gOA (or its communication path) fails, sOAs keep enforcing
    # their last-known assignment.  The assignment was computed for the
    # week it was pushed; as it ages past ``grace`` update periods the sOA
    # shaves ``margin_per_period`` off its budget per additional missed
    # period (capped), trading overclock headroom for safety against
    # drifted rack conditions.
    stale_budget_grace_periods: float = 1.5
    stale_budget_margin_per_period: float = 0.05
    stale_budget_margin_max: float = 0.25

    # --- lifetime management (§IV-B) ----------------------------------------
    # "epoch": offline vendor analysis, fixed time share per epoch (§IV-B).
    # "online": per-core wear counters budget against live lifetime
    # credits (the §VI "wear-out counters" extension).
    lifetime_mode: str = "epoch"
    online_wear_safety_margin: float = 0.2
    online_wear_warmup_s: float = 3600.0
    oc_budget_fraction: float = 0.10       # vendor-agreed time share
    epoch_seconds: float = SECONDS_PER_WEEK
    weekday_only_budget: bool = True
    carryover_cap_epochs: float = 1.0

    # --- exhaustion prediction / proactive scale-out (§IV-D) ----------------
    exhaustion_window_s: float = 900.0     # signal if exhaustion within 15min
    min_grant_s: float = 60.0              # shortest useful overclock grant

    # --- crash / recovery lifecycle -----------------------------------------
    # sOA durable state (wear counters, template store, grant ledger,
    # last budget assignment) checkpoints to the in-sim durable store
    # every ``checkpoint_interval_s``; a restarted sOA restores the
    # latest checkpoint and loses at most one interval of accounting.
    checkpoint_interval_s: float = 300.0
    server_restart_delay_s: float = 120.0  # crash → power-on
    soa_restart_delay_s: float = 30.0      # sOA process death → restore
    vm_restart_delay_s: float = 60.0       # evacuated VM boot time
    # gOA membership: consecutive missed profile reports before a server
    # is declared dead and its budget share redistributed.
    dead_after_missed_reports: int = 2
    # Risk controller: quarantine a server (no OC grants) after
    # ``quarantine_crash_threshold`` crashes inside
    # ``quarantine_window_s``, for ``quarantine_cooldown_s``; a
    # positive ``quarantine_wear_floor_s`` also quarantines servers
    # whose remaining epoch OC budget falls below the floor.
    enable_quarantine: bool = True
    quarantine_crash_threshold: int = 2
    quarantine_window_s: float = 3600.0
    quarantine_cooldown_s: float = 1800.0
    quarantine_wear_floor_s: float = 0.0
    # gOA high availability: a standby replica per rack watches the
    # primary's heartbeats and takes over — at the next fencing epoch —
    # after ``goa_lease_s`` without one.  The lease must cover at least
    # one heartbeat interval or a healthy primary could be deposed.
    enable_goa_ha: bool = False
    goa_heartbeat_interval_s: float = 60.0
    goa_lease_s: float = 180.0

    # --- prediction-based oversubscription (ROADMAP item 2) -----------------
    # When enabled, sOA profile reports carry a high-quantile power
    # series alongside the regular (median) one, and the gOA admits
    # extra planning headroom whenever predicted rack peak at the risk
    # level's quantile plus a confidence margin stays under the limit.
    # Enforcement still runs against the physical limit; mistakes show
    # up as (attributed) cap events, never uncapped excursions.
    enable_oversubscription: bool = False
    osub_risk_level: str = "conservative"  # key into RISK_LEVELS
    # Cap on admitted/limit per slot; None → the risk level's own cap.
    osub_max_extra_fraction: "float | None" = None

    # --- feature flags for ablated variants (§V-B baselines) ----------------
    enable_admission_control: bool = True  # False → NaiveOClock
    enable_exploration: bool = True        # False → NoFeedback
    enable_warnings: bool = True           # False → NoWarning
    enable_proactive_scaleout: bool = True

    def __post_init__(self) -> None:
        if self.control_interval_s <= 0:
            raise ValueError("control_interval_s must be > 0")
        if self.telemetry_interval_s <= 0:
            raise ValueError("telemetry_interval_s must be > 0")
        if not 0.0 < self.warning_fraction <= 1.0:
            raise ValueError(
                f"warning_fraction must be in (0, 1]: {self.warning_fraction}")
        if self.power_buffer_watts < 0:
            raise ValueError("power_buffer_watts must be >= 0")
        if self.explore_step_watts <= 0:
            raise ValueError("explore_step_watts must be > 0")
        if self.explore_backoff_factor < 1.0:
            raise ValueError("explore_backoff_factor must be >= 1")
        if not 0.0 <= self.oc_budget_fraction <= 1.0:
            raise ValueError("oc_budget_fraction must be in [0, 1]")
        if self.exhaustion_window_s < 0:
            raise ValueError("exhaustion_window_s must be >= 0")
        if self.stale_budget_grace_periods < 0:
            raise ValueError("stale_budget_grace_periods must be >= 0")
        if self.stale_budget_margin_per_period < 0:
            raise ValueError("stale_budget_margin_per_period must be >= 0")
        if not 0.0 <= self.stale_budget_margin_max < 1.0:
            raise ValueError(
                "stale_budget_margin_max must be in [0, 1): "
                f"{self.stale_budget_margin_max}")
        if self.lifetime_mode not in ("epoch", "online"):
            raise ValueError(
                f"lifetime_mode must be 'epoch' or 'online', got "
                f"{self.lifetime_mode!r}")
        if self.checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be > 0")
        if self.server_restart_delay_s < 0:
            raise ValueError("server_restart_delay_s must be >= 0")
        if self.soa_restart_delay_s < 0:
            raise ValueError("soa_restart_delay_s must be >= 0")
        if self.vm_restart_delay_s < 0:
            raise ValueError("vm_restart_delay_s must be >= 0")
        if self.dead_after_missed_reports < 1:
            raise ValueError("dead_after_missed_reports must be >= 1")
        if self.quarantine_crash_threshold < 1:
            raise ValueError("quarantine_crash_threshold must be >= 1")
        if self.quarantine_window_s <= 0:
            raise ValueError("quarantine_window_s must be > 0")
        if self.quarantine_cooldown_s < 0:
            raise ValueError("quarantine_cooldown_s must be >= 0")
        if self.quarantine_wear_floor_s < 0:
            raise ValueError("quarantine_wear_floor_s must be >= 0")
        if self.goa_heartbeat_interval_s <= 0:
            raise ValueError("goa_heartbeat_interval_s must be > 0")
        if self.goa_lease_s < self.goa_heartbeat_interval_s:
            raise ValueError(
                "goa_lease_s must be >= goa_heartbeat_interval_s: "
                f"{self.goa_lease_s}/{self.goa_heartbeat_interval_s}")
        if self.osub_risk_level not in RISK_LEVELS:
            raise ValueError(
                f"osub_risk_level must be one of {sorted(RISK_LEVELS)}: "
                f"{self.osub_risk_level!r}")
        if self.osub_max_extra_fraction is not None \
                and not 0.0 <= self.osub_max_extra_fraction <= 1.0:
            raise ValueError(
                "osub_max_extra_fraction must be in [0, 1]: "
                f"{self.osub_max_extra_fraction}")

    # Named variants used throughout the evaluation -------------------------

    def as_naive(self) -> "SmartOClockConfig":
        """NaiveOClock: grant everything, no exploration machinery."""
        return _replace(self, enable_admission_control=False,
                        enable_exploration=False, enable_warnings=False)

    def as_no_feedback(self) -> "SmartOClockConfig":
        """NoFeedback: budgets respected strictly, no exploration beyond."""
        return _replace(self, enable_exploration=False)

    def as_no_warning(self) -> "SmartOClockConfig":
        """NoWarning: explores, but only capping events rein it in."""
        return _replace(self, enable_warnings=False)

    def with_oversubscription(self, risk_level: str = "conservative"
                              ) -> "SmartOClockConfig":
        """SmartOClock+OSub: risk-aware oversubscribed planning limits."""
        return _replace(self, enable_oversubscription=True,
                        osub_risk_level=risk_level)


def _replace(config: SmartOClockConfig, **changes: object) -> SmartOClockConfig:
    import dataclasses
    return dataclasses.replace(config, **changes)

"""Trace-driven overclocking policies (paper §V-B, Table I).

These are the decision kernels the large-scale simulator
(:mod:`repro.experiments.largescale`) runs against production-style rack
traces at 5-minute granularity:

* **Central** — an oracle with a zero-latency global view of rack power;
  grants exactly as many overclocked cores as fit under the limit.  Its
  only error source is telemetry lag (decisions see the previous tick).
* **NaiveOClock** — grants everything; fair-share capping.
* **NoFeedback** — heterogeneous per-server budgets from weekly templates,
  strictly enforced, no exploration.
* **NoWarning** — NoFeedback + exploration beyond the budget, but only
  capping events rein it in.
* **SmartOClock** — full system: budgets, exploration, rack warnings with
  exponential back-off.

Each policy sees, per tick, last tick's observed baseline power and
utilization (telemetry lag), the servers' overclock demand in cores, and
its own persistent state; it returns granted cores per server.

Fast-path contract (DESIGN.md "Performance architecture"): policies
additionally declare whether ``decide`` is *tick-stateless*
(``tick_stateless``) and may implement ``begin_week_fast`` /
``plan_segment`` so the vectorized simulator can pre-compute whole runs
of decisions.  Planned grants must be bitwise identical to what the
scalar ``decide`` loop would produce — the equivalence property tests
enforce this across all five policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional

import numpy as np

from repro.core.budgets import compute_heterogeneous_budgets
from repro.core.oversubscription import (
    RISK_LEVELS,
    OversubscriptionController,
    OversubscriptionDecision,
)
from repro.core.types import ServerProfileReport
from repro.prediction.quantiles import DailyQuantileTemplate
from repro.prediction.templates import (TemplateKind, build_template,
                                        predict_series_batch)

__all__ = [
    "TickContext",
    "RackWeekView",
    "SegmentPlan",
    "TracePolicy",
    "CentralOracle",
    "NaiveOClock",
    "NoFeedback",
    "NoWarning",
    "SmartOClockPolicy",
    "SmartOClockOSub",
    "make_policy",
    "POLICY_NAMES",
]


@dataclass(frozen=True)
class TickContext:
    """Everything a policy may look at when deciding one tick.

    ``observed_power`` / ``observed_util`` are from the *previous* tick
    (telemetry lag); ``oracle_power`` is the *current* tick's baseline
    power, which only the Central oracle may read; ``demand_cores`` is the
    current tick's overclock demand; ``delta_full_watts`` is the per-core
    overclock power delta at full utilization (scale by utilization for
    the expected draw).
    """

    index: int
    time: float
    limit_watts: float
    warning_watts: float
    observed_power: np.ndarray
    observed_util: np.ndarray
    oracle_power: np.ndarray
    oracle_util: np.ndarray
    demand_cores: np.ndarray
    delta_full_watts: float


@dataclass(frozen=True)
class RackWeekView:
    """One evaluation week of a rack trace in tick-major layout.

    The vectorized fast path of
    :func:`repro.experiments.largescale.simulate_rack` hands this to
    :meth:`TracePolicy.begin_week_fast` and
    :meth:`TracePolicy.plan_segment`.  Rows are ticks, columns servers
    (C-contiguous), so ``observed_power[k]`` carries bitwise the same
    values as the :class:`TickContext` for that tick would.  ``indices``
    are the absolute trace tick indices (``TickContext.index``) of the
    rows; ``*_power_sums`` are the per-row rack totals (bit-equal to
    ``np.sum`` over the corresponding context array).
    """

    indices: np.ndarray              # (ticks,) int64 absolute tick indices
    times: np.ndarray                # (ticks,) seconds
    observed_power: np.ndarray       # (ticks, servers) previous-tick rows
    observed_util: np.ndarray        # (ticks, servers)
    oracle_power: np.ndarray         # (ticks, servers) current-tick rows
    oracle_util: np.ndarray          # (ticks, servers)
    demand: np.ndarray               # (ticks, servers) int64
    observed_power_sums: np.ndarray  # (ticks,)
    oracle_power_sums: np.ndarray    # (ticks,)
    limit_watts: float
    warning_watts: float
    delta_full_watts: float

    @property
    def n_ticks(self) -> int:
        return len(self.indices)


@dataclass
class SegmentPlan:
    """Pre-computed decisions for ticks ``[start, stop)`` of a week view.

    Row ``k`` of ``granted`` must be bitwise what ``decide`` would return
    at tick ``start + k`` given the policy state at planning time, and
    ``enforcement`` row ``k`` what ``enforcement_budget_at`` would return
    (None → no local enforcement).  ``commit(n)`` replays the state
    mutations of the first ``n`` planned ticks once the engine has
    actually consumed them; the engine calls it with a non-decreasing
    prefix length, so it must be idempotent under re-application.
    Policies only plan ticks whose decisions cannot diverge from the
    scalar path; the engine independently re-routes every tick that
    crosses the warning threshold through the scalar fallback unless the
    policy is warning-inert — globally (it keeps the base no-op
    ``on_warning``) or for this plan's span (``warning_inert`` below:
    the policy asserts its ``on_warning`` hook would be a no-op at every
    planned tick).
    """

    start: int
    stop: int
    granted: np.ndarray                       # (stop - start, servers)
    enforcement: Optional[np.ndarray] = None  # (stop - start, servers)
    commit: Optional[Callable[[int], None]] = None
    warning_inert: bool = False
    #: Per-tick oversubscribed headroom (watts) active over the planned
    #: span; row ``k`` must equal ``osub_admitted_at`` at tick
    #: ``start + k``.  None → the policy admits nothing (all baselines).
    osub_admitted: Optional[np.ndarray] = None


class TracePolicy:
    """Base class; subclasses override :meth:`decide` and the hooks."""

    name = "base"
    capping_mode = "heterogeneous"  # or "fair"

    #: Declares that ``decide`` reads only the :class:`TickContext` plus
    #: per-week state installed by ``begin_week``, mutates nothing
    #: between ticks, and leaves the ``on_warning``/``on_cap`` hooks as
    #: the base no-ops.  The fast path may then serve a whole week from
    #: one plan.  Stateful policies keep the default ``False`` and plan
    #: bounded segments that stop before any possibly-diverging tick.
    tick_stateless: ClassVar[bool] = False

    def __init__(self, n_servers: int) -> None:
        if n_servers < 1:
            raise ValueError(f"need at least one server: {n_servers}")
        self.n_servers = n_servers

    def begin_week(self, history_times: np.ndarray,
                   history_power: np.ndarray,
                   history_demand: np.ndarray,
                   limit_watts: float) -> None:
        """Install the prior week's telemetry (per-server rows)."""

    def begin_week_fast(self, view: RackWeekView) -> bool:
        """Prepare per-week pre-computation for the vectorized fast path.

        Called right after :meth:`begin_week` with the evaluation week's
        tick-major telemetry.  Returning False opts out: the engine then
        runs every tick of the week through the scalar fallback (always
        correct, just slower), so policies without a fast path keep
        working unchanged.
        """
        return False

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        """Plan decisions for a prefix of ticks ``[start, end)``.

        Only called after :meth:`begin_week_fast` returned True.  None
        (or an empty plan) sends tick ``start`` to the scalar fallback.
        """
        return None

    def fast_decide(self, view: RackWeekView, rel: int,
                    ctx: TickContext) -> np.ndarray:
        """Single-tick decision inside the fast path's scalar fallback.

        Must equal ``decide(ctx)`` bitwise, including state mutations;
        subclasses override it to reuse ``begin_week_fast``
        pre-computation instead of re-deriving predictions per tick.
        """
        return self.decide(ctx)

    def decide(self, ctx: TickContext) -> np.ndarray:
        raise NotImplementedError

    def on_warning(self, ctx: TickContext) -> None:
        """Rack power crossed the warning threshold this tick."""

    def on_cap(self, ctx: TickContext) -> None:
        """Rack power exceeded the limit this tick."""

    def budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        """Per-server *assigned* budgets, if the policy maintains them
        (used for capping blame assignment); None → fair share."""
        return None

    def enforcement_budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        """Per-server budgets the local feedback loop enforces (assigned
        plus any exploration overlay).  None → no local enforcement: the
        policy's grants draw their full overclock power regardless of
        budget (Central trusts its oracle; NaiveOClock has no budgets)."""
        return None

    def osub_admitted_at(self, ctx: TickContext) -> float:
        """Oversubscribed planning headroom (watts) active this tick.

        Zero for every policy that plans against the physical limit; the
        engine uses it to attribute capping events to oversubscription
        and to account admitted watt-ticks."""
        return 0.0


class CentralOracle(TracePolicy):
    """Global view: pack overclocked cores under the rack limit.

    Reads the *current* tick's power (``oracle_power``): the paper's
    Central "can precisely decide if an overclocking request will result
    in capping".  Its residual capping events come only from ticks where
    the baseline alone exceeds the limit.
    """

    name = "Central"
    tick_stateless = True

    #: Fraction of the headroom the whole demanded delta must fit under
    #: for the planner to predict a grant-everything outcome.  The 0.1 %
    #: slack provably absorbs the rounding drift of the scalar loop's
    #: sequential headroom subtraction (error ~n·ε·headroom ≪ margin),
    #: so planned ticks cannot diverge from ``decide``.
    _FIT_MARGIN: ClassVar[float] = 0.999

    _fast_zero: np.ndarray
    _fast_covered: np.ndarray

    def begin_week_fast(self, view: RackWeekView) -> bool:
        expected = view.delta_full_watts * np.maximum(view.oracle_util, 0.01)
        headroom = view.limit_watts - view.oracle_power_sums
        demand_delta = np.sum(view.demand * expected, axis=1)
        zero = headroom <= 0.0
        # Round-robin grants everything iff the total demanded delta fits
        # the headroom: before any single grant the remaining headroom is
        # at least (1 - _FIT_MARGIN)·headroom plus that grant's own delta.
        grant_all = ~zero & (demand_delta <= self._FIT_MARGIN * headroom)
        self._fast_zero = zero
        self._fast_covered = zero | grant_all
        return True

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        covered = self._fast_covered[start:end]
        miss = np.flatnonzero(~covered)
        stop = start + (int(miss[0]) if len(miss) else len(covered))
        if stop == start:
            return None  # tick needs the real round-robin packing
        granted = np.where(self._fast_zero[start:stop, None],
                           np.int64(0), view.demand[start:stop])
        return SegmentPlan(start, stop, granted)

    def decide(self, ctx: TickContext) -> np.ndarray:
        granted = np.zeros(self.n_servers, dtype=np.int64)
        expected_delta = ctx.delta_full_watts * np.maximum(
            ctx.oracle_util, 0.01)
        headroom = ctx.limit_watts - float(np.sum(ctx.oracle_power))
        if headroom <= 0:
            return granted
        demand = ctx.demand_cores.copy()
        # Round-robin core-by-core so no server starves.
        progress = True
        while progress and headroom > 0:
            progress = False
            for i in range(self.n_servers):
                if demand[i] > 0 and expected_delta[i] <= headroom:
                    granted[i] += 1
                    demand[i] -= 1
                    headroom -= expected_delta[i]
                    progress = True
        return granted


class NaiveOClock(TracePolicy):
    """Grant everything; even budget split during capping."""

    name = "NaiveOClock"
    capping_mode = "fair"
    tick_stateless = True

    def decide(self, ctx: TickContext) -> np.ndarray:
        return ctx.demand_cores.copy()

    def begin_week_fast(self, view: RackWeekView) -> bool:
        return True

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        return SegmentPlan(start, end, view.demand[start:end])


@dataclass
class _BudgetPlanState:
    """Per-evaluation-week pre-computation of the budget-driven policies:
    tick-major template predictions, assigned slot budgets and expected
    per-core deltas, each row bit-equal to its per-tick counterpart."""

    predicted: np.ndarray  # (ticks, servers)
    budget: np.ndarray     # (ticks, servers)
    expected: np.ndarray   # (ticks, servers)


class NoFeedback(TracePolicy):
    """Heterogeneous per-server budgets, strictly enforced."""

    name = "NoFeedback"
    tick_stateless = True

    def __init__(self, n_servers: int,
                 template_kind: TemplateKind = TemplateKind.DAILY_MED,
                 slot_s: float = 300.0) -> None:
        super().__init__(n_servers)
        self.template_kind = template_kind
        self.slot_s = slot_s
        self._budgets: Optional[np.ndarray] = None   # (servers, slots)
        self._templates: list = []
        self._slots_per_week = int(round(7 * 86400.0 / slot_s))
        self._fast: Optional[_BudgetPlanState] = None

    def begin_week(self, history_times: np.ndarray,
                   history_power: np.ndarray,
                   history_demand: np.ndarray,
                   limit_watts: float) -> None:
        self._templates = [
            build_template(self.template_kind, history_times,
                           history_power[i])
            for i in range(self.n_servers)
        ]
        # Build slot-resolution profile reports and compute budgets.
        week_start = (history_times[-1] // (7 * 86400.0) + 1) * 7 * 86400.0
        slot_times = week_start + self.slot_s * np.arange(
            self._slots_per_week)
        regular_all = predict_series_batch(self._templates, slot_times)
        # Demand template: per-slot-of-week max over history, scattered
        # for every server in one call.
        slots = ((history_times % (7 * 86400.0))
                 // self.slot_s).astype(int) % self._slots_per_week
        demand_all = np.zeros((self.n_servers, self._slots_per_week))
        np.maximum.at(
            demand_all,
            (np.arange(self.n_servers)[:, None], slots[None, :]),
            history_demand)
        profiles: list[ServerProfileReport] = []
        for i in range(self.n_servers):
            profiles.append(ServerProfileReport(
                server_id=f"s{i:03d}", slot_s=self.slot_s,
                regular_power_watts=regular_all[:, i],
                oc_requested_cores=demand_all[i],
                oc_granted_cores=demand_all[i]))
        # The headroom split is proportional, so any positive per-core
        # delta yields the same budgets; 1.0 keeps the weights in "cores".
        planning_limit = self._planning_limit(
            limit_watts, slot_times, regular_all, history_times,
            history_power)
        assignment = compute_heterogeneous_budgets(
            planning_limit, profiles, oc_delta_watts_per_core=1.0)
        self._budgets = np.stack(
            [assignment.budgets[f"s{i:03d}"] for i in range(self.n_servers)])

    def _planning_limit(self, limit_watts: float, slot_times: np.ndarray,
                        regular_all: np.ndarray,
                        history_times: np.ndarray,
                        history_power: np.ndarray) -> "float | np.ndarray":
        """The limit the weekly budget split runs against.  The base
        policies plan against the physical rack limit; the
        oversubscribing variant returns a per-slot planning limit."""
        return limit_watts

    def _slot(self, t: float) -> int:
        return int((t % (7 * 86400.0)) // self.slot_s) % self._slots_per_week

    def _predicted_power(self, ctx: TickContext) -> np.ndarray:
        return np.array([tpl.predict(ctx.time) for tpl in self._templates])

    def _effective_budget(self, ctx: TickContext) -> np.ndarray:
        if self._budgets is None:
            raise RuntimeError("begin_week was not called")
        return self._budgets[:, self._slot(ctx.time)]

    def budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        if self._budgets is None:
            return None
        return self._budgets[:, self._slot(ctx.time)]

    def enforcement_budget_at(self, ctx: TickContext) -> Optional[np.ndarray]:
        if self._budgets is None:
            return None
        return self._effective_budget(ctx)

    def decide(self, ctx: TickContext) -> np.ndarray:
        return self._decide_with(ctx, self._predicted_power(ctx),
                                 self._effective_budget(ctx))

    def _decide_with(self, ctx: TickContext, predicted: np.ndarray,
                     budget: np.ndarray) -> np.ndarray:
        """The budget→grant kernel, with prediction and budget supplied
        by the caller (per-tick lookups or fast-path pre-computation)."""
        expected_delta = ctx.delta_full_watts * np.maximum(
            ctx.observed_util, 0.05)
        slack = budget - predicted
        max_cores = np.floor(slack / expected_delta).astype(np.int64)
        return np.clip(max_cores, 0, ctx.demand_cores)

    def begin_week_fast(self, view: RackWeekView) -> bool:
        if self._budgets is None:
            return False
        predicted = np.ascontiguousarray(
            predict_series_batch(self._templates, view.times))
        slots = ((view.times % (7 * 86400.0))
                 // self.slot_s).astype(np.int64) % self._slots_per_week
        budget = np.ascontiguousarray(self._budgets[:, slots].T)
        expected = view.delta_full_watts * np.maximum(
            view.observed_util, 0.05)
        self._fast = _BudgetPlanState(predicted, budget, expected)
        return True

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        pre = self._fast
        if pre is None:
            return None
        sl = slice(start, end)
        slack = pre.budget[sl] - pre.predicted[sl]
        max_cores = np.floor(slack / pre.expected[sl]).astype(np.int64)
        granted = np.clip(max_cores, 0, view.demand[sl])
        return SegmentPlan(start, end, granted, enforcement=pre.budget[sl])

    def fast_decide(self, view: RackWeekView, rel: int,
                    ctx: TickContext) -> np.ndarray:
        pre = self._fast
        if pre is None:
            return self.decide(ctx)
        return self._decide_with(ctx, pre.predicted[rel], pre.budget[rel])


class NoWarning(NoFeedback):
    """Budgets + exploration; capping events are the only brake.

    A constrained server raises a local budget overlay (``extra``); the
    per-tick ramp is bounded by how many 30-second confirmation windows
    fit in one trace tick.  On a capping event every exploring server
    reverts to its assigned budget and backs off exponentially.
    """

    name = "NoWarning"
    tick_stateless = False  # ``extra``/back-off state carries across ticks

    def __init__(self, n_servers: int, *,
                 explore_step_watts: float = 20.0,
                 confirm_s: float = 30.0,
                 tick_s: float = 300.0,
                 backoff_ticks: int = 2,
                 template_kind: TemplateKind = TemplateKind.DAILY_MED,
                 slot_s: float = 300.0) -> None:
        super().__init__(n_servers, template_kind, slot_s)
        self.explore_step_watts = explore_step_watts
        self.backoff_ticks = backoff_ticks
        # Exploration steps that fit in one tick without hearing back.
        self.max_ramp_watts = explore_step_watts * max(
            1.0, tick_s / confirm_s)
        self.extra = np.zeros(n_servers)
        self._backoff_until = np.full(n_servers, -1)
        self._backoff_current = np.full(n_servers, backoff_ticks)

    def _effective_budget(self, ctx: TickContext) -> np.ndarray:
        return super()._effective_budget(ctx) + self.extra

    def _ramp(self, ctx: TickContext, granted: np.ndarray,
              allowed: np.ndarray) -> None:
        """Raise the overlay of constrained servers by up to the per-tick
        ramp, but no more than the unmet demand actually needs."""
        expected_delta = ctx.delta_full_watts * np.maximum(
            ctx.observed_util, 0.05)
        unmet = (ctx.demand_cores - granted).astype(float)
        need = unmet * expected_delta + self.explore_step_watts
        grow = allowed & (unmet > 0)
        self.extra[grow] += np.minimum(need[grow], self.max_ramp_watts)

    def decide(self, ctx: TickContext) -> np.ndarray:
        granted = super().decide(ctx)
        return self._after_decide(ctx, granted)

    def _after_decide(self, ctx: TickContext,
                      granted: np.ndarray) -> np.ndarray:
        """Exploration state updates run after the budget→grant kernel
        (shared by the per-tick and fast-fallback decision paths)."""
        allowed = ctx.index >= self._backoff_until
        self._ramp(ctx, granted, allowed)
        # A cap-free exploration that met its demand resets the back-off.
        satisfied = (ctx.demand_cores > 0) & (granted >= ctx.demand_cores)
        self._backoff_current[satisfied] = self.backoff_ticks
        return granted

    def fast_decide(self, view: RackWeekView, rel: int,
                    ctx: TickContext) -> np.ndarray:
        pre = self._fast
        if pre is None:
            return self.decide(ctx)
        granted = self._decide_with(ctx, pre.predicted[rel],
                                    pre.budget[rel] + self.extra)
        return self._after_decide(ctx, granted)

    #: During active exploration the inert prefix is typically a handful
    #: of ticks; probe that much first and escalate to the caller's full
    #: window only when the whole probe is inert (the prefix is a prefix
    #: property, so the escalated result is identical to planning the
    #: full window directly).
    _PROBE_TICKS: ClassVar[int] = 16

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        pre = self._fast
        if pre is None:
            return None
        for window in (1, self._PROBE_TICKS, end - start):
            probe_end = min(end, start + window)
            sl = slice(start, probe_end)
            budget = pre.budget[sl] + self.extra
            slack = budget - pre.predicted[sl]
            max_cores = np.floor(slack / pre.expected[sl]).astype(np.int64)
            demand = view.demand[sl]
            granted = np.clip(max_cores, 0, demand)
            stop_rel = self._inert_prefix(view, sl, granted, demand)
            if stop_rel == 0:
                return None
            if stop_rel < probe_end - start or probe_end == end:
                break
        satisfied_rows = ((demand[:stop_rel] > 0)
                          & (granted[:stop_rel] >= demand[:stop_rel]))

        def commit(n: int) -> None:
            # Replay the only state write of the planned ticks: the
            # back-off reset of servers whose demand was fully met.  The
            # write is a constant, so re-applying a grown prefix is safe.
            hit = np.any(satisfied_rows[:n], axis=0)
            self._backoff_current[hit] = self.backoff_ticks

        return SegmentPlan(start, start + stop_rel, granted[:stop_rel],
                           enforcement=budget[:stop_rel], commit=commit)

    def _inert_prefix(self, view: RackWeekView, sl: slice,
                      granted: np.ndarray, demand: np.ndarray) -> int:
        """Leading planned ticks where ``decide`` would not ramp
        ``extra`` — i.e. no server is simultaneously unmet and allowed
        to explore — so its only mutation is the back-off reset that
        ``commit`` replays."""
        unmet = demand - granted > 0
        allowed = view.indices[sl, None] >= self._backoff_until[None, :]
        diverge = np.any(allowed & unmet, axis=1)
        hits = np.flatnonzero(diverge)
        return int(hits[0]) if len(hits) else len(diverge)

    def _backoff(self, ctx: TickContext, mask: np.ndarray) -> None:
        self._backoff_until[mask] = (ctx.index
                                     + self._backoff_current[mask])
        self._backoff_current[mask] = np.minimum(
            self._backoff_current[mask] * 2, 288)

    def on_cap(self, ctx: TickContext) -> None:
        exploring = self.extra > 0
        self.extra[:] = 0.0
        self._backoff(ctx, exploring)

    def begin_week(self, history_times: np.ndarray,
                   history_power: np.ndarray,
                   history_demand: np.ndarray,
                   limit_watts: float) -> None:
        super().begin_week(history_times, history_power, history_demand,
                           limit_watts)
        self._backoff_current[:] = self.backoff_ticks


class SmartOClockPolicy(NoWarning):
    """Full system: exploration heeds rack warnings, then *exploits*.

    On a warning, exploring servers give back one step and enter an
    exploitation phase: they keep granting against the discovered budget,
    ignore further warnings (per the paper, warnings only matter while
    exploring), and do not push higher until the exploitation window
    expires and their back-off allows a new exploration.
    """

    def __init__(self, n_servers: int, *, exploit_ticks: int = 2,
                 **kwargs: Any) -> None:
        super().__init__(n_servers, **kwargs)
        self.exploit_ticks = exploit_ticks
        self._exploit_until = np.full(n_servers, -1)

    name = "SmartOClock"

    def _after_decide(self, ctx: TickContext,
                      granted: np.ndarray) -> np.ndarray:
        exploiting = ctx.index < self._exploit_until
        allowed = (ctx.index >= self._backoff_until) & ~exploiting
        # A 5-minute trace tick contains ten 30-second confirmation
        # windows: within a tick, warnings stop the ramp as soon as the
        # rack approaches the warning threshold.  Emulate that sub-tick
        # sequencing by bounding the rack-wide ramp to the distance
        # between the last broadcast rack power and the threshold.
        rack_room = ctx.warning_watts - float(
            np.sum(ctx.observed_power) + np.sum(self.extra))
        if rack_room <= 0:
            self.on_warning(ctx)
            return granted
        before = self.extra.copy()
        self._ramp(ctx, granted, allowed)
        added = self.extra - before
        total_added = float(np.sum(added))
        if total_added > rack_room:
            self.extra = before + added * (rack_room / total_added)
        # A warning-free exploration that met its demand resets the
        # back-off (the paper resets it after a successful exploration).
        satisfied = (ctx.demand_cores > 0) & (granted >= ctx.demand_cores)
        self._backoff_current[satisfied] = self.backoff_ticks
        return granted

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        plan = super().plan_segment(view, start, end)
        if plan is None:
            return None
        # on_warning only acts on *exploring* servers (extra > 0 and not
        # exploiting).  While none exists the hook is a no-op, so
        # warning ticks may stay vectorized.  With extra fixed over the
        # planned span (inertness) and tick indices consecutive, that
        # holds exactly until the earliest exploitation window among
        # extra-carrying servers expires — a prefix property.
        carrying = self.extra > 0
        if not np.any(carrying):
            plan.warning_inert = True
            return plan
        horizon = int(np.min(self._exploit_until[carrying]))
        h_rel = horizon - int(view.indices[start])
        if h_rel <= 0:
            return plan  # a warning could act from the first tick on
        if start + h_rel >= plan.stop:
            plan.warning_inert = True
            return plan
        # Trim to the warning-inert prefix; the remainder is re-planned
        # (commit is prefix-idempotent, so reusing it on a shorter span
        # is safe).
        return SegmentPlan(start, start + h_rel, plan.granted[:h_rel],
                           enforcement=(None if plan.enforcement is None
                                        else plan.enforcement[:h_rel]),
                           commit=plan.commit, warning_inert=True)

    def _inert_prefix(self, view: RackWeekView, sl: slice,
                      granted: np.ndarray, demand: np.ndarray) -> int:
        """SmartOClock additionally stops a plan before any tick whose
        broadcast rack power leaves no room under the warning threshold
        (``decide`` would call ``on_warning`` there)."""
        idx = view.indices[sl, None]
        exploiting = idx < self._exploit_until[None, :]
        allowed = (idx >= self._backoff_until[None, :]) & ~exploiting
        unmet = demand - granted > 0
        rack_room = view.warning_watts - (
            view.observed_power_sums[sl] + np.sum(self.extra))
        diverge = np.any(allowed & unmet, axis=1) | (rack_room <= 0)
        hits = np.flatnonzero(diverge)
        return int(hits[0]) if len(hits) else len(diverge)

    def on_warning(self, ctx: TickContext) -> None:
        exploiting = ctx.index < self._exploit_until
        exploring = (self.extra > 0) & ~exploiting
        if not np.any(exploring):
            return
        self.extra[exploring] = np.maximum(
            0.0, self.extra[exploring] - self.explore_step_watts)
        self._exploit_until[exploring] = ctx.index + self.exploit_ticks
        self._backoff(ctx, exploring)

    def on_cap(self, ctx: TickContext) -> None:
        super().on_cap(ctx)
        self._exploit_until[:] = -1


class SmartOClockOSub(SmartOClockPolicy):
    """SmartOClock planning against an oversubscribed rack limit.

    The weekly budget split runs against a per-slot *planning* limit:
    per-server high-quantile power templates (the risk level's quantile
    of each server's history, floored at the median prediction) sum to
    an upper bound on predicted rack peak, and the admission controller
    turns the gap to the physical limit — less a confidence margin —
    into extra per-slot headroom.  Enforcement, warnings, and capping
    all still run against the *physical* limit, so a misprediction
    surfaces as (attributed) capping events, never as an uncapped
    excursion.
    """

    name = "SmartOClock+OSub"

    def __init__(self, n_servers: int, *,
                 risk_level: str = "conservative",
                 max_extra_fraction: "float | None" = None,
                 **kwargs: Any) -> None:
        super().__init__(n_servers, **kwargs)
        self.risk_level = risk_level
        self._osub = OversubscriptionController(
            risk_level, max_extra_fraction=max_extra_fraction)
        self.last_osub_decision: Optional[OversubscriptionDecision] = None
        self._admitted: Optional[np.ndarray] = None       # (slots,)
        self._admitted_ticks: Optional[np.ndarray] = None  # (week ticks,)

    def _planning_limit(self, limit_watts: float, slot_times: np.ndarray,
                        regular_all: np.ndarray,
                        history_times: np.ndarray,
                        history_power: np.ndarray) -> "float | np.ndarray":
        quantile = RISK_LEVELS[self.risk_level].quantile
        hi_all = np.empty_like(regular_all)
        for i in range(self.n_servers):
            regular = regular_all[:, i]
            try:
                template = DailyQuantileTemplate(
                    history_times, history_power[i], q=quantile)
            except ValueError:
                hi_all[:, i] = regular
                continue
            # Floor at the median prediction so per-server hi >= mid and
            # the rack-level margin can never go negative.
            hi_all[:, i] = np.maximum(
                template.predict_series(slot_times), regular)
        decision = self._osub.admit(limit_watts,
                                    np.sum(hi_all, axis=1),
                                    np.sum(regular_all, axis=1))
        self.last_osub_decision = decision
        self._admitted = decision.admitted_extra_watts
        return decision.planning_limit_watts

    def osub_admitted_at(self, ctx: TickContext) -> float:
        if self._admitted is None:
            return 0.0
        return float(self._admitted[self._slot(ctx.time)])

    def begin_week_fast(self, view: RackWeekView) -> bool:
        if not super().begin_week_fast(view):
            return False
        if self._admitted is None:
            self._admitted_ticks = None
        else:
            slots = ((view.times % (7 * 86400.0))
                     // self.slot_s).astype(np.int64) % self._slots_per_week
            self._admitted_ticks = self._admitted[slots]
        return True

    def plan_segment(self, view: RackWeekView, start: int,
                     end: int) -> Optional[SegmentPlan]:
        plan = super().plan_segment(view, start, end)
        if plan is None or self._admitted_ticks is None:
            return plan
        # Attach after super(): SmartOClockPolicy may have rebuilt the
        # plan trimmed to its warning-inert prefix.
        plan.osub_admitted = self._admitted_ticks[plan.start:plan.stop]
        return plan


POLICY_NAMES = ("Central", "NaiveOClock", "NoFeedback", "NoWarning",
                "SmartOClock", "SmartOClock+OSub")


def make_policy(name: str, n_servers: int) -> TracePolicy:
    """Factory by Table-I policy name.

    ``SmartOClock+OSub`` additionally accepts a risk-level suffix —
    ``"SmartOClock+OSub:aggressive"`` — which also becomes the
    instance's reported name, so ablation sweeps get distinct rows."""
    factories = {
        "Central": CentralOracle,
        "NaiveOClock": NaiveOClock,
        "NoFeedback": NoFeedback,
        "NoWarning": NoWarning,
        "SmartOClock": SmartOClockPolicy,
        "SmartOClock+OSub": SmartOClockOSub,
    }
    base, _, variant = name.partition(":")
    if base not in factories:
        raise KeyError(
            f"unknown policy {name!r}; choose from {sorted(factories)}")
    if base == "SmartOClock+OSub":
        policy = SmartOClockOSub(n_servers,
                                 risk_level=variant or "conservative")
        policy.name = name
        return policy
    if variant:
        raise KeyError(f"policy {base!r} takes no {variant!r} variant")
    return factories[base](n_servers)

"""Queueing models for latency-critical services.

Two implementations of the same physics, used to cross-validate each other:

* :class:`MMcQueue` — closed-form M/M/c (Erlang-C) response-time
  distribution; exact for Poisson arrivals and exponential service.
* :func:`simulate_mgc` / :class:`QueueSimulator` — request-level
  discrete-event simulation of a G/G/c FCFS station; supports lognormal
  service times for heavy-tailed services.

Frequency scaling enters through the service rate: a core at frequency
``f`` completes work at ``mu(f) = mu_turbo * speedup(f)`` where the speedup
depends on how frequency-bound the service is (memory-bound services gain
less — paper §I: "overclocking the CPU of a memory-bound workload ... will
not provide much benefit").
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.sim.metrics import empirical_quantile

__all__ = ["MMcQueue", "QueueSimulator", "simulate_mgc", "frequency_speedup"]


def frequency_speedup(freq_ghz: float, base_freq_ghz: float,
                      sensitivity: float = 1.0) -> float:
    """Throughput multiplier when moving from ``base_freq`` to ``freq``.

    ``sensitivity`` in [0, 1] is the frequency-bound fraction of the work
    (Amdahl-style): 1.0 → fully core-bound (speedup = f/f0), 0.0 → fully
    memory-bound (no speedup).
    """
    if freq_ghz <= 0 or base_freq_ghz <= 0:
        raise ValueError("frequencies must be positive")
    if not 0.0 <= sensitivity <= 1.0:
        raise ValueError(f"sensitivity must be in [0, 1], got {sensitivity}")
    ratio = freq_ghz / base_freq_ghz
    # time(f) = (1 - s) * t0 + s * t0 / ratio  →  speedup = t0 / time(f)
    return 1.0 / ((1.0 - sensitivity) + sensitivity / ratio)


@dataclass(frozen=True)
class MMcQueue:
    """Closed-form M/M/c queue.

    ``arrival_rate`` (λ, req/s), ``service_rate`` (μ, req/s per server),
    ``servers`` (c).  Stable only for ρ = λ/(cμ) < 1; latency queries on an
    unstable queue raise, because an overloaded microservice has unbounded
    tail latency and callers must handle that explicitly.

    Immutable, so the Erlang-C probability — which every tail, quantile
    and mean query needs and none of them varies — is computed once per
    queue, not once per query or per bisection step.
    """

    arrival_rate: float
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(
                f"arrival rate must be >= 0: {self.arrival_rate}")
        if self.service_rate <= 0:
            raise ValueError(
                f"service rate must be > 0: {self.service_rate}")
        if self.servers < 1:
            raise ValueError(f"need at least 1 server: {self.servers}")

    @property
    def utilization(self) -> float:
        """Offered load per server, ρ = λ / (cμ)."""
        return self.arrival_rate / (self.servers * self.service_rate)

    @property
    def stable(self) -> bool:
        return self.utilization < 1.0

    def erlang_c(self) -> float:
        """Probability that an arriving request must wait (Erlang-C)."""
        return self._erlang_c

    @cached_property
    def _erlang_c(self) -> float:
        if self.arrival_rate == 0:
            return 0.0
        if not self.stable:
            return 1.0
        c = self.servers
        a = self.arrival_rate / self.service_rate  # offered load in erlangs
        rho = self.utilization
        # Compute iteratively in log space for numerical robustness.
        term = 1.0  # a^0 / 0!
        partial_sum = term
        for k in range(1, c):
            term *= a / k
            partial_sum += term
        term_c = term * a / c  # a^c / c!
        numerator = term_c / (1.0 - rho)
        return numerator / (partial_sum + numerator)

    def mean_wait(self) -> float:
        """Mean queueing delay E[W] (excluding service)."""
        self._require_stable()
        if self.arrival_rate == 0:
            return 0.0
        theta = self.servers * self.service_rate - self.arrival_rate
        return self.erlang_c() / theta

    def mean_response(self) -> float:
        """Mean response time E[T] = E[W] + 1/μ."""
        self._require_stable()
        return self.mean_wait() + 1.0 / self.service_rate

    def response_tail(self, t: float) -> float:
        """P(T > t) for the FCFS response time T = W + S.

        W has an atom of mass (1 - Pw) at zero and an exponential tail with
        rate θ = cμ - λ; S ~ Exp(μ) independent of W.
        """
        self._require_stable()
        return self._tail(t)

    def _tail(self, t: float) -> float:
        """:meth:`response_tail` of a queue already checked stable."""
        if t < 0:
            return 1.0
        mu = self.service_rate
        theta = self.servers * mu - self.arrival_rate
        pw = self._erlang_c
        if abs(mu - theta) < 1e-12 * mu:
            # Degenerate case: identical rates, the convolution integral
            # produces a t * e^{-mu t} term.
            return ((1.0 - pw) * math.exp(-mu * t)
                    + pw * math.exp(-theta * t)
                    + pw * theta * t * math.exp(-mu * t))
        tail = ((1.0 - pw) * math.exp(-mu * t)
                + pw * math.exp(-theta * t)
                + pw * theta * (math.exp(-theta * t) - math.exp(-mu * t))
                / (mu - theta))
        return min(1.0, max(0.0, tail))

    def response_quantile(self, q: float) -> float:
        """t such that P(T <= t) = q, by bisection on the closed-form tail."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        self._require_stable()
        target = 1.0 - q
        lo, hi = 0.0, 1.0 / self.service_rate
        while self._tail(hi) > target:
            hi *= 2.0
            if hi > 1e9:
                raise RuntimeError("quantile search diverged")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._tail(mid) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        return 0.5 * (lo + hi)

    def p99_response(self) -> float:
        return self.response_quantile(0.99)

    def _require_stable(self) -> None:
        if not self.stable:
            raise OverloadedQueueError(
                f"queue unstable: rho={self.utilization:.3f} "
                f"(lambda={self.arrival_rate}, c={self.servers}, "
                f"mu={self.service_rate})")


class OverloadedQueueError(RuntimeError):
    """Raised when latency is queried on an unstable queue (ρ >= 1)."""


@dataclass
class SimulatedLatencies:
    """Result of a request-level queue simulation."""

    latencies: np.ndarray
    waits: np.ndarray
    completed: int
    duration: float

    def mean(self) -> float:
        if self.completed == 0:
            raise ValueError("no completed requests")
        return float(np.mean(self.latencies))

    def quantile(self, q: float) -> float:
        """Sample quantile of completed-request latencies
        (:func:`repro.sim.metrics.empirical_quantile` convention)."""
        if self.completed == 0:
            raise ValueError("no completed requests")
        return empirical_quantile(self.latencies, q)

    def p99(self) -> float:
        return self.quantile(0.99)


class QueueSimulator:
    """Request-level G/G/c FCFS simulation.

    Arrivals: Poisson with rate λ.  Service: exponential (``cv=1``) or
    lognormal with squared coefficient of variation ``cv**2``.  This is the
    "ground truth" against which :class:`MMcQueue` is validated, and the
    engine behind heavy-tailed service experiments.
    """

    def __init__(self, arrival_rate: float, service_rate: float,
                 servers: int, *, cv: float = 1.0,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None) -> None:
        if arrival_rate <= 0:
            raise ValueError(f"arrival rate must be > 0: {arrival_rate}")
        if service_rate <= 0:
            raise ValueError(f"service rate must be > 0: {service_rate}")
        if servers < 1:
            raise ValueError(f"need at least 1 server: {servers}")
        if cv <= 0:
            raise ValueError(f"cv must be > 0: {cv}")
        if rng is None and seed is None:
            # A hidden default (the old `rng or default_rng(0)`) silently
            # gave every station that omitted rng the *same* stream,
            # correlating supposedly independent queues.  Randomness must
            # be an explicit choice at the constructor boundary.
            raise ValueError(
                "QueueSimulator needs an explicit rng= or seed=; a hidden "
                "shared default would correlate independent stations")
        if rng is not None and seed is not None:
            raise ValueError("pass either rng= or seed=, not both")
        self.arrival_rate = arrival_rate
        self.service_rate = service_rate
        self.servers = servers
        self.cv = cv
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def _service_sample(self, n: int) -> np.ndarray:
        mean = 1.0 / self.service_rate
        if abs(self.cv - 1.0) < 1e-9:
            return self.rng.exponential(mean, size=n)
        # Lognormal with the requested mean and cv.
        sigma2 = math.log(1.0 + self.cv ** 2)
        mu = math.log(mean) - sigma2 / 2.0
        return self.rng.lognormal(mu, math.sqrt(sigma2), size=n)

    def run(self, n_requests: int) -> SimulatedLatencies:
        """Simulate ``n_requests`` arrivals through the station."""
        if n_requests < 1:
            raise ValueError(f"need at least 1 request: {n_requests}")
        inter = self.rng.exponential(1.0 / self.arrival_rate, size=n_requests)
        arrivals = np.cumsum(inter)
        services = self._service_sample(n_requests)
        # c-server FCFS: next free server from a min-heap of free times.
        free_at = [0.0] * self.servers
        heapq.heapify(free_at)
        latencies = np.empty(n_requests)
        waits = np.empty(n_requests)
        for i in range(n_requests):
            earliest = heapq.heappop(free_at)
            start = max(arrivals[i], earliest)
            finish = start + services[i]
            heapq.heappush(free_at, finish)
            waits[i] = start - arrivals[i]
            latencies[i] = finish - arrivals[i]
        return SimulatedLatencies(latencies=latencies, waits=waits,
                                  completed=n_requests,
                                  duration=float(arrivals[-1]))


def simulate_mgc(arrival_rate: float, service_rate: float, servers: int,
                 n_requests: int = 20000, cv: float = 1.0,
                 seed: int = 0) -> SimulatedLatencies:
    """One-shot wrapper around :class:`QueueSimulator`."""
    sim = QueueSimulator(arrival_rate, service_rate, servers, cv=cv,
                         rng=np.random.default_rng(seed))
    return sim.run(n_requests)

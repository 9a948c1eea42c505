"""Known-bad fixture: tick_stateless = True policies with effects."""
from typing import ClassVar

import numpy as np


class TracePolicy:
    tick_stateless: ClassVar[bool] = False

    def decide(self, ctx: object) -> object:
        return ctx

    def fast_decide(self, ctx: object) -> object:
        return self.decide(ctx)

    def on_warning(self, ctx: object) -> None:
        return None


class CountingPolicy(TracePolicy):
    tick_stateless = True

    def decide(self, ctx: object) -> object:
        self._calls = 1                    # line 24: purity-stateless-tick
        return ctx


class HelperMutator(TracePolicy):
    tick_stateless = True

    def decide(self, ctx: object) -> object:
        return self._scale(ctx)

    def _scale(self, demand: object) -> object:
        demand[0] = demand[0] * 2          # line 35: purity-stateless-tick
        return demand


class DrawingPolicy(TracePolicy):
    tick_stateless = True

    def decide(self, ctx: object) -> object:
        noise = np.random.random()         # line 43: purity-stateless-tick
        return noise
